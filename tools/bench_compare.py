"""Paired benchmark runs of a change against its parent, written to a BENCH file.

    python3 tools/bench_compare.py --out BENCH_22.json [--first-seed 41]

Run from the root of the git checkout. The change is the working tree's
tracked files (``git stash create``; stage new files first), or ``HEAD``
when the tree is clean or its only tracked changes are ``BENCH_*.json``
files at the root, which this tool writes; the parent is the change's
first parent, and both resolved commits are printed to stderr before
the first run. Both are exported with ``git archive`` into a fresh
temporary directory, and ``bench/run.py`` of each copy runs unchanged,
as ``BENCHMARK.json`` declares it, one process at a time, for every
declared workload and its ``run_seconds``. Pair ``i`` of the 10 runs
seed ``first_seed + i`` on both trees, the parent first in even pairs
and the change first in odd ones.

The output holds, per workload and end-to-end metric, each tree's
median and interquartile range over the pairs and the pairs the change
won; the same spread of each run process's user and system CPU time
and minor page faults per attempted op, setup and warm-up included
(``process``: a view of where the time goes, not an end-to-end
metric); one traced run per tree and workload with its per-layer
metrics; and the wall time of the Tier-1 suite in the change's copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=10"]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def resolve() -> tuple[str, str, bool]:
    """``(change, parent, from_working_tree)``: the commits a run compares.

    A BENCH file left modified by an earlier run is not a change to
    measure: with it, the working tree would be measured against the
    commit it was written for.
    """
    changed = git("diff", "--name-only", "HEAD").splitlines()
    ours = all(re.fullmatch(r"BENCH_[^/]*\.json", name) for name in changed)
    stash = "" if ours else git("stash", "create")
    change = git("rev-parse", stash or "HEAD")
    return change, git("rev-parse", f"{change}^"), bool(stash)


def export(rev: str, dest: Path) -> None:
    """Extract the tree of ``rev`` into the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait():
        raise RuntimeError(f"git archive {rev} failed")


def bench_run(copy: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON summary that ``bench/run.py`` prints last, with the child's resource use."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode:
        raise RuntimeError(f"{copy.name} {workload} seed {seed}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["absent"] = [line for line in proc.stderr.splitlines() if line.startswith("absent:")]
    out["process"] = {"user_s": after.ru_utime - before.ru_utime,
                      "sys_s": after.ru_stime - before.ru_stime,
                      "minflt": after.ru_minflt - before.ru_minflt}
    return out


def spread(values: list[float]) -> dict:
    """Median and interquartile range (``statistics.quantiles``, exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def compare(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: both trees' spreads and the pairs in which the change was better."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        out[name] = {"better": metric["better"], "parent": spread(parent),
                     "change": spread(change), "wins": wins, "pairs": len(parent)}
    return out


def process_use(runs: dict[str, list[dict]]) -> dict:
    """Per field of the runs' ``process`` use: both trees' spreads per attempted op."""
    return {f"{name}_per_op": {tree: spread([r["process"][name] / max(r["attempted"], 1)
                                             for r in tree_runs])
                               for tree, tree_runs in runs.items()}
            for name in ("user_s", "sys_s", "minflt")}


def tier1(copy: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    head = [line for line in lines if line.split(" ", 1)[0].endswith("s")
            and " call " in line][:10]
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else "", "durations_head": head}


def versions() -> dict:
    out = {"python": platform.python_version()}
    for name in ("numpy", "scipy", "pytest", "hypothesis"):
        try:
            out[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            out[name] = None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--first-seed", type=int, default=41)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    change, parent, from_working_tree = resolve()
    print(f"change {change} ({'the working tree' if from_working_tree else 'HEAD'}), "
          f"parent {parent}", file=sys.stderr)
    base = Path(tempfile.mkdtemp(prefix="bench_compare-"))
    copies = {"parent": base / "parent", "change": base / "change"}
    try:
        for tree, rev in (("parent", parent), ("change", change)):
            export(rev, copies[tree])
        result = {
            "commit": change, "parent": parent,
            # A working-tree commit is not on any branch; its src tree
            # hash matches the commit that later records the same files.
            "from_working_tree": from_working_tree,
            "src_tree": {"change": git("rev-parse", f"{change}:src"),
                         "parent": git("rev-parse", f"{parent}:src")},
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "versions": versions(),
            "command": declared["command"], "seconds": seconds, "pairs": PAIRS,
            "seeds": [args.first_seed + i for i in range(PAIRS)],
            "workloads": {},
        }
        for workload in (w["name"] for w in declared["workloads"]):
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(result["seeds"]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for tree in order:
                    runs[tree].append(bench_run(copies[tree], workload, seed, seconds, 0))
                    print(f"{workload} pair {i} {tree}: "
                          f"{runs[tree][-1]['metrics']['op_p50_s']['value']:.4g} s p50",
                          file=sys.stderr)
            traced = {tree: bench_run(copies[tree], workload, args.first_seed, seconds, 1)
                      for tree in ("parent", "change")}
            result["workloads"][workload] = {
                "end_to_end": compare(runs, declared["end_to_end"]),
                "process": process_use(runs),
                "all_correct": {tree: all(r["correct"] for r in runs[tree]) for tree in runs},
                "per_layer": {tree: {k: v["value"] for k, v in t["metrics"].items()}
                              for tree, t in traced.items()},
                "absent": {tree: t["absent"] for tree, t in traced.items()},
            }
        result["tier1"] = tier1(copies["change"])
    finally:
        shutil.rmtree(base)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
