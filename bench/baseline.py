"""Summarise the run records in ``.bench_out/`` into ``bench/baseline.json``.

    python3 bench/baseline.py

For each workload: the median and quartiles of every end-to-end metric
over the untraced runs, the per-layer metrics of the latest traced run,
and a comparison with the re-anchor numbers in ROADMAP item 1.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# ROADMAP item 1's re-anchor timings, and how to read the same quantity
# from this benchmark: (label, seconds, workload, metric, divisor).
REANCHOR = [
    ("rep_closeness_test n=500, s per run", 1.7e-3, "replicability-1d",
     "closeness.verdict_s", 6),  # three closeness settings, two runs each
    ("rep_independence_test at desk, s per verdict", 0.22, "independence-desk",
     "independence.verdict_s", 2),  # product (40, 20) and diagonal (20, 20)
    ("pair-kernel estimate_mixing, s per report", 15.4, "mixing-walks", "op_p50_s", 1),
]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def main() -> None:
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    out: dict = {"env": records[-1]["env"] if records else {}, "workloads": {}}
    for rec in records:
        entry = out["workloads"].setdefault(rec["workload"], {"end_to_end": {}, "seeds": []})
        if rec["trace"]:
            entry["per_layer"] = {k: v["value"] for k, v in rec["metrics"].items()}
            entry["traced_seed"] = rec["seed"]
            continue
        entry["seeds"].append(rec["seed"])
        for name, metric in rec["metrics"].items():
            entry["end_to_end"].setdefault(name, []).append(metric["value"])
    for entry in out["workloads"].values():
        entry["end_to_end"] = {k: summary(v) for k, v in entry["end_to_end"].items()}
    out["reanchor"] = []
    for label, seconds, workload, metric, divisor in REANCHOR:
        entry = out["workloads"].get(workload, {})
        value = entry.get("end_to_end", {}).get(metric, {}).get("median")
        if value is None:
            value = entry.get("per_layer", {}).get(metric)
        measured = None if value is None else value / divisor
        out["reanchor"].append({"case": label, "roadmap_s": seconds, "measured_s": measured,
                                "ratio": None if measured is None else measured / seconds})
    target = Path(__file__).with_name("baseline.json")
    target.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target.relative_to(ROOT)} from {len(records)} records")


if __name__ == "__main__":
    main()
