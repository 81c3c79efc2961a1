"""Verdict times of the independence tester on inputs whose cells hold many samples.

    python3 tools/heavy_cells.py [--seeds 3] [--checkout DIR] [CASE ...]

The desk workloads draw from near-uniform measures, whose cells hold a
few dozen samples each. These cases put many samples into a few cells,
each at the library's default constants (``m_scale`` 1) with epsilon
0.35 and rho 0.2:

- ``point-8x8``, ``point-40x20``: every pair at ``(0, 0)``, as a pair
  file of one repeated line gives;
- ``half-8x8``: half the mass at ``(0, 0)``, the rest uniform;
- ``geometric-40x20``: the product of marginals ``P(i) ~ 0.7^i`` and
  ``P(j) ~ 0.7^j``, whose corner cells hold about 9% of the samples.

For each case it prints, per seed, the wall and CPU seconds of one
verdict (``time.perf_counter`` and ``time.process_time``), the verdict
and its stage, then the median wall and CPU seconds over the seeds. CPU
time leaves out the time the process waits for a CPU on a loaded host.
``--checkout`` times the tester of another source checkout, such as a
parent commit exported with ``git archive``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

CASES = ("point-8x8", "half-8x8", "geometric-40x20", "point-40x20")


def measure(case: str):
    """The measure of ``case`` and its shape ``(n1, n2)``."""
    from replitest.measures import NonNegativeMeasure

    kind, shape = case.split("-")
    n1, n2 = map(int, shape.split("x"))
    if kind == "geometric":
        px, py = 0.7 ** np.arange(n1), 0.7 ** np.arange(n2)
        return NonNegativeMeasure(np.outer(px / px.sum(), py / py.sum()).ravel(), (n1, n2))
    share = {"point": 1.0, "half": 0.5}[kind]
    masses = np.full(n1 * n2, (1 - share) / (n1 * n2 - 1))
    masses[0] = share
    return NonNegativeMeasure(masses, (n1, n2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", default=list(CASES),
                        help=f"cases to time (default: all of {', '.join(CASES)})")
    parser.add_argument("--seeds", type=int, default=3, help="verdicts per case (default 3)")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout whose src/ runs (default: this one)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be positive")
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        parser.error(f"unknown case {unknown[0]}; expected one of {', '.join(CASES)}")
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from replitest.independence import IndependenceConfig, rep_independence_test
    from replitest.rng import RngStream

    for case in args.cases:
        p = measure(case)
        config = IndependenceConfig(*p.shape, epsilon=0.35, rho=0.2)
        walls, cpus = [], []
        for seed in range(args.seeds):
            wall, cpu = time.perf_counter(), time.process_time()
            verdict = rep_independence_test(p, config, RngStream(seed, "heavy-cells"))
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
            print(f"{case} seed {seed}: wall {walls[-1]:.3f} s, cpu {cpus[-1]:.3f} s, "
                  f"accept {verdict.accept}, stage {verdict.detail['stage']}", flush=True)
        print(f"{case} median: wall {np.median(walls):.3f} s, cpu {np.median(cpus):.3f} s",
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
