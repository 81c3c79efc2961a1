"""Pass counts of the 15 acceptance criteria over several root seeds.

    python3 tools/criteria_sweep.py [--seeds 12] [--checkout DIR]

Each criterion of ``tests/test_acceptance.py`` draws from its module's
``ROOT`` stream. For each root seed ``s`` the sweep sets
``ROOT = RngStream(s, "acceptance")`` and calls every criterion, then
prints how many seeds each one passed at. The seeds are the pinned one
(20250809) and ``1 .. K-1``. A failure at the pinned seed can then be
weighed against the criterion's pass rate; the tests themselves keep
their seed and tolerances. ``--checkout`` runs the criteria of another
source checkout, such as a parent commit exported with ``git archive``.
About 20 s per seed on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import sys
import time
from pathlib import Path

PINNED_SEED = 20250809


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=12, help="number of root seeds (default 12)")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout whose src/ and tests/ run (default: this one)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be positive")
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "tests")]
    acceptance = importlib.import_module("test_acceptance")
    from replitest.rng import RngStream

    criteria = sorted(name for name in vars(acceptance) if name.startswith("test_criterion_"))
    passes = dict.fromkeys(criteria, 0)
    seeds = [PINNED_SEED, *range(1, args.seeds)]
    for seed in seeds:
        acceptance.ROOT = RngStream(seed, "acceptance")
        started = time.perf_counter()
        failed = []
        for name in criteria:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    getattr(acceptance, name)()
                passes[name] += 1
            except AssertionError:
                failed.append(name.split("_")[2])
        print(f"seed {seed}: {time.perf_counter() - started:.1f}s, "
              f"failed: {', '.join(failed) or 'none'}", flush=True)
    print(f"passes over {len(seeds)} seeds ({checkout}):")
    for name in criteria:
        print(f"  {name}: {passes[name]}/{len(seeds)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
