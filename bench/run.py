"""Closed-loop benchmark of replitest.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. One client runs one op at a time in one process. With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run is split into an
untraced and a traced half and the object holds the per-layer metrics.
A record of every run, and the spans of a traced run, go to
``.bench_out/`` in the checkout. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# BLAS threads, pinned before numpy loads and never above nproc: the
# mixing reports are BLAS-bound and their time depends on it.
BLAS_THREADS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Timing metrics are the best value over a run's blocks of at least
# BLOCK_OPS consecutive ops (so a block's p90 has ten samples beyond it).
# Other tenants of the host slow stretches of a run by up to a third;
# the best block filters them out. Runs shorter than two blocks are one.
BLOCK_OPS = 100
WORKLOAD_NAMES = ("replicability-1d", "independence-desk", "mixing-walks")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile: ``beyond(len(values), q)`` values lie above it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank ``q``-quantile of ``n`` samples."""
    return n - max(1, math.ceil(q * n))


@dataclass
class Phase:
    """Ops of one closed-loop phase, in order."""

    first: int
    start: float = 0.0
    latencies: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    outs: list = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    wall: float = 0.0

    @property
    def next(self) -> int:
        return self.first + len(self.latencies)


def run_phase(workload, first: int, seconds: float, call=None) -> Phase:
    """Whole cycles of ops until ``seconds`` have passed.

    An op that raises or fails its check counts as failed; only the
    op call itself is timed.
    """
    call = call or workload.op
    phase = Phase(first, perf_counter())
    while True:
        for _ in range(workload.cycle):
            i = phase.next
            t0 = perf_counter()
            try:
                out = call(i)
                error = None
            except Exception:
                out, error = None, traceback.format_exc()
            phase.ends.append(perf_counter())
            phase.latencies.append(phase.ends[-1] - t0)
            if error is None:
                error = workload.check_op(out)
            phase.outs.append(out)
            if error is not None:
                phase.failures.append({"op": i, "error": error})
                print(f"op {i} failed: {error}", file=sys.stderr)
        phase.wall = perf_counter() - phase.start
        if phase.wall >= seconds:
            return phase


def best_block(phase: Phase) -> dict[str, float]:
    """Highest ops/s, lowest median and lowest p90 over the phase's blocks."""
    n = len(phase.latencies)
    blocks = max(1, n // BLOCK_OPS)
    bounds = [n * b // blocks for b in range(blocks + 1)]
    rates, p50s, p90s = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        start = phase.ends[lo - 1] if lo else phase.start
        rates.append((hi - lo) / (phase.ends[hi - 1] - start))
        p50s.append(statistics.median(phase.latencies[lo:hi]))
        p90s.append(percentile(phase.latencies[lo:hi], 0.9))
    return {"ops_per_s": max(rates), "op_p50_s": min(p50s), "op_p90_s": min(p90s),
            "block_ops": n // blocks}


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def digest(outs) -> str:
    """Digest of op outputs, floats rounded to 10 significant digits."""
    text = json.dumps(_canonical(outs), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def code_digest() -> str:
    """Digest of the library source, the benchmark code and its reference data."""
    bench = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *bench.glob("*.py"),
                        bench / "mixing_reference.json"]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def determinism_check(key: str, value: str) -> dict:
    """Compare with the digest an earlier run stored under ``key``."""
    store = OUT / "digests.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    if key in seen:
        return {"check": "digest equals earlier run", "ok": seen[key] == value,
                "value": value, "earlier": seen[key]}
    seen[key] = value
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(store)
    return {"check": "digest stored for later runs", "ok": True, "value": value}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "commit": _commit(),
        "code_sha256": code_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "replitest" / "__init__.py").is_file():
        print(f"bench: no replitest source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    blas_threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import workloads  # numpy, scipy and replitest load here

    import_s = perf_counter() - t0
    make = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload = make(args.seed)
        workload.warm_up()
        setups.append(perf_counter() - t0)

    seconds = args.seconds / 2 if args.trace else args.seconds
    phases = [run_phase(workload, 0, seconds)]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(blas_threads),
              "import_s": import_s, "setup_repeats_s": setups}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        recorder = spans.Recorder()
        restore, absent = spans.install(recorder)
        try:
            traced_workload = make(args.seed)
            phases.append(run_phase(
                traced_workload, phases[0].next, seconds,
                lambda i: recorder.call("bench.op", traced_workload.op, (i,)),
            ))
        finally:
            restore()
        record["absent"] = absent
        for name in absent:
            print(f"absent: {name}", file=sys.stderr)
        recorder.write_csv(OUT / f"{args.workload}-seed{args.seed}-spans.csv")

    outs = [o for p in phases for o in p.outs]
    failures = [f for p in phases for f in p.failures]
    attempted = len(outs)
    failed_ops = {f["op"] for f in failures}
    checks = workload.checks([o for i, o in enumerate(outs) if i not in failed_ops])
    if attempted >= workload.digest_ops:
        checks.append(determinism_check(
            f"{args.workload}|seed={args.seed}|code={record['env']['code_sha256']}"
            f"|blas={blas_threads}",
            digest(outs[: workload.digest_ops]),
        ))

    plain = phases[0]
    if args.trace:
        traced = phases[-1]
        selfs = spans.self_times(recorder.spans)
        roots = spans.op_roots(recorder.spans)
        sums = spans.op_self_sums(recorder.spans, selfs)
        durations = [recorder.spans[r][spans.END] - recorder.spans[r][spans.START]
                     for r in roots]
        worst = max((abs(s - d) for s, d in zip(sums, durations)), default=0.0)
        checks.append({"check": "self times sum to each op's span", "ok": worst < 1e-6,
                       "value": worst})
        metrics = spans.per_layer(
            spans.layer_totals(recorder.spans, selfs, recorder.tallies), len(roots)
        )
        overhead = best_block(traced)["op_p50_s"] - best_block(plain)["op_p50_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        record["traced_latencies_s"] = traced.latencies
        record["self_sum_p50_s"] = statistics.median(sums)
    else:
        best = best_block(plain)
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": best["ops_per_s"], "unit": "1/s"},
            "op_p50_s": {"value": best["op_p50_s"], "unit": "s"},
            "op_p90_s": {"value": best["op_p90_s"], "unit": "s"},
            "ok_rate": {"value": 1 - len(failures) / attempted, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        record["block_ops"] = best["block_ops"]
        record["p90_samples_beyond"] = beyond(best["block_ops"], 0.9)
        record["whole_run"] = {"ops_per_s": len(plain.latencies) / plain.wall,
                               "op_p50_s": statistics.median(plain.latencies),
                               "op_p90_s": percentile(plain.latencies, 0.9)}
    correct = not failures and all(c["ok"] for c in checks)
    record.update(latencies_s=plain.latencies, failures=failures, checks=checks,
                  metrics=metrics, correct=correct)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    for check in checks:
        print(f"{'ok  ' if check['ok'] else 'FAIL'} {check['check']}: {check['value']}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
