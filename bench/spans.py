"""Span recorder that wraps replitest's public functions from outside.

Each wrapped call records a span ``[name, parent, start, end, count]``
in memory; ``parent`` is the index of the enclosing span (-1 at the
root). Self time is a span's duration minus the durations of its
direct children. Nothing here imports numpy or replitest, so the
arithmetic can be tested on hand-made spans.
"""

from __future__ import annotations

import csv
import importlib
from collections import defaultdict
from time import perf_counter

NAME, PARENT, START, END, COUNT = range(5)

# How a target is wrapped: time each call, time each call of the
# closure the target returns, or only count calls.
CALL, FACTORY, TALLY = "call", "factory", "tally"


def _first_len(args, kwargs, result) -> int:
    return len(args[0])


def _first_int(args, kwargs, result) -> int:
    return int(args[0])


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _curve_len(args, kwargs, result) -> int:
    return len(result.tv_curve)


def _stages_attempted(args, kwargs, result) -> int:
    # Randomized statistic runs the verdict asked for: K_avg per
    # estimate, median_reps estimates per stage, one or two stages.
    config = args[1]
    return config.k_avg * config.median_reps * int(result.detail.get("stage", 2))


# (module, attribute path, span name, how, count). Functions are wrapped
# at the module attribute their caller looks them up through; methods
# on their class.
TARGETS = [
    ("replitest.rng", "RngStream.generator", "rng.generator", CALL, None),
    ("replitest.rng", "RngStream.substream", "rng.substream", TALLY, None),
    ("replitest.measures", "NonNegativeMeasure.__init__", "measures.construct", CALL, None),
    ("replitest.experiments", "draw_meta_closeness", "hard_instances.draw", CALL, None),
    ("replitest.hard_instances", "draw_closeness_hard", "hard_instances.draw", CALL, None),
    ("replitest.hard_instances", "draw_uniformity_hard", "hard_instances.draw", CALL, None),
    ("replitest.hard_instances", "draw_meta_uniformity", "hard_instances.draw", CALL, None),
    ("replitest.sampling", "measure_sampler", "sampling.index_draw", FACTORY, _first_int),
    ("replitest.closeness", "measure_sampler", "sampling.index_draw", FACTORY, _first_int),
    ("replitest.independence", "measure_sampler", "sampling.index_draw", FACTORY, _first_int),
    ("replitest.closeness", "counts_from_indices", "sampling.count", CALL, None),
    ("replitest.closeness", "multinomial_split", "sampling.count", CALL, None),
    ("replitest.uniformity", "counts_from_indices", "sampling.count", CALL, None),
    ("replitest.uniformity", "sample_counts_poissonized", "sampling.count", CALL, None),
    ("replitest.closeness", "rep_closeness_test", "closeness.verdict", CALL, None),
    ("replitest.closeness", "closeness_statistic", "closeness.statistic", CALL, None),
    ("replitest.uniformity", "UniformityTester.run", "uniformity.verdict", CALL, None),
    ("replitest.uniformity", "uniformity_statistic", "uniformity.statistic", CALL, None),
    ("replitest.experiments", "closeness_pair_fn", "experiments.pair", FACTORY, None),
    ("replitest.experiments", "closeness_meta_pair_fn", "experiments.pair", FACTORY, None),
    ("replitest.experiments", "uniformity_pair_fn", "experiments.pair", FACTORY, None),
    ("replitest.experiments", "uniformity_meta_pair_fn", "experiments.pair", FACTORY, None),
    ("replitest.independence", "rep_independence_test", "independence.verdict", CALL,
     _stages_attempted),
    ("replitest.independence", "closeness_stat_marked", "independence.marked_stat", CALL, None),
    ("replitest.independence", "subbin_indices", "flattening.subbin", CALL, _first_len),
    ("replitest.independence", "pack_keys", "flattening.pack_keys", CALL, None),
    ("replitest.independence", "non_singleton_count", "flattening.non_singleton", CALL, None),
    ("replitest.walks", "estimate_mixing", "walks.report", CALL, _curve_len),
    ("replitest.walks", "ClosenessPairKernel.transition_matrix", "walks.transition_matrix",
     CALL, None),
    ("replitest.walks", "ClosenessPairKernel.stationary_vector", "walks.stationary", CALL,
     _result_len),
    ("replitest.walks", "ClosenessPairKernel.initial_distributions", "walks.initial", CALL, None),
]


class Recorder:
    """In-memory spans of one traced phase; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tallies: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        span = [name, self._stack[-1], perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if count is not None:
            span[COUNT] = count(args, kwargs, result)
        return result

    def timed(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return wrapper

    def factory(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            return self.timed(name, fn(*args, **kwargs), count)

        return wrapper

    def tally(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.tallies[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "parent", "start", "end", "count"])
            for i, (name, parent, start, end, count) in enumerate(self.spans):
                out.writerow([i, name, parent, repr(start), repr(end), count])


def _resolve(module: str, path: str):
    """(owner, attribute, current value), or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def install(recorder: Recorder, targets=TARGETS):
    """Wrap every target; returns ``(restore, absent)``.

    ``restore()`` puts the original attributes back. ``absent`` lists the
    ``module.attribute`` names that no longer exist, so a later change
    that removes one is reported instead of crashing the benchmark.
    """
    saved, absent = [], []
    for module, path, name, how, count in targets:
        found = _resolve(module, path)
        if found is None:
            absent.append(f"{module}.{path}")
            continue
        owner, attr, original = found
        if how == CALL:
            wrapped = recorder.timed(name, original, count)
        elif how == FACTORY:
            wrapped = recorder.factory(name, original, count)
        else:
            wrapped = recorder.tally(name, original)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore, absent


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def op_roots(spans) -> list[int]:
    """Indices of the root spans: one per traced op."""
    return [i for i, s in enumerate(spans) if s[PARENT] < 0]


def op_self_sums(spans, selfs) -> list[float]:
    """Per root span, the sum of self times of every span below it."""
    root_of = [0] * len(spans)
    sums: dict[int, float] = defaultdict(float)
    for i, span in enumerate(spans):
        root_of[i] = i if span[PARENT] < 0 else root_of[span[PARENT]]
        sums[root_of[i]] += selfs[i]
    return [sums[i] for i in op_roots(spans)]


def layer_totals(spans, selfs, tallies) -> dict[str, float]:
    """Totals per span name over all traced ops.

    ``<name>.s`` is inclusive time of the outermost spans of that name
    (a nested span of the same name is not counted twice), ``<name>.self``
    the summed self time, ``<name>.n`` the number of spans and
    ``<name>.count`` the summed count field.
    """
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        name, parent = span[NAME], span[PARENT]
        if parent < 0 or spans[parent][NAME] != name:
            totals[name + ".s"] += span[END] - span[START]
        totals[name + ".self"] += own
        totals[name + ".n"] += 1
        totals[name + ".count"] += span[COUNT]
    for name, n in tallies.items():
        totals[name + ".n"] += n
    return totals


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


# Per-op means of layer totals: (metric, unit, key into layer_totals).
PER_OP = [
    ("rng.generators", "count", "rng.generator.n"),
    ("rng.substreams", "count", "rng.substream.n"),
    ("rng.generator_s", "s", "rng.generator.s"),
    ("measures.constructions", "count", "measures.construct.n"),
    ("measures.construct_s", "s", "measures.construct.s"),
    ("hard_instances.draw_s", "s", "hard_instances.draw.s"),
    ("sampling.index_draws", "count", "sampling.index_draw.count"),
    ("sampling.index_draw_s", "s", "sampling.index_draw.s"),
    ("sampling.count_s", "s", "sampling.count.s"),
    ("closeness.verdict_s", "s", "closeness.verdict.s"),
    ("closeness.self_s", "s", "closeness.verdict.self"),
    ("closeness.statistic_s", "s", "closeness.statistic.s"),
    ("uniformity.verdict_s", "s", "uniformity.verdict.s"),
    ("uniformity.self_s", "s", "uniformity.verdict.self"),
    ("uniformity.statistic_s", "s", "uniformity.statistic.s"),
    ("experiments.pair_s", "s", "experiments.pair.s"),
    ("experiments.self_s", "s", "experiments.pair.self"),
    ("independence.verdict_s", "s", "independence.verdict.s"),
    ("independence.self_s", "s", "independence.verdict.self"),
    ("independence.marked_stat_s", "s", "independence.marked_stat.s"),
    ("independence.runs_completed", "count", "independence.marked_stat.n"),
    ("independence.runs_attempted", "count", "independence.verdict.count"),
    ("flattening.subbin_s", "s", "flattening.subbin.s"),
    ("flattening.subbin_items", "count", "flattening.subbin.count"),
    ("flattening.pack_keys_s", "s", "flattening.pack_keys.s"),
    ("flattening.non_singleton_s", "s", "flattening.non_singleton.s"),
    ("walks.transition_matrix_s", "s", "walks.transition_matrix.s"),
    ("walks.stationary_s", "s", "walks.stationary.s"),
    ("walks.initial_s", "s", "walks.initial.s"),
    ("walks.report_self_s", "s", "walks.report.self"),
    ("walks.states", "count", "walks.stationary.count"),
    ("walks.steps", "count", "walks.report.count"),
    ("trace.unattributed_s", "s", "bench.op.self"),
]


def per_layer(totals: dict[str, float], ops: int) -> dict[str, dict]:
    """Per-layer metrics of one traced phase of ``ops`` ops."""
    out = {
        metric: {"value": ratio(totals.get(key, 0.0), ops), "unit": unit}
        for metric, unit, key in PER_OP
    }
    # Abort waste seen from outside: randomized runs that reached the
    # marked statistic, per run the verdicts asked for.
    out["independence.run_yield"] = {
        "value": ratio(totals.get("independence.marked_stat.n", 0.0),
                       totals.get("independence.verdict.count", 0.0)),
        "unit": "ratio",
    }
    return out
