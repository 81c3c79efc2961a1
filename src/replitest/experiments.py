"""Seeded experiment orchestration: replicability measurement, batch
experiments, and desk-scale calibration.

Every experiment is a pure function of ``(config, seed)``: per-trial
randomness comes from substreams derived from the experiment seed, so
records reproduce bit-for-bit and aggregate in any order. Every kind
that runs a tester, and ``calibrate``, takes it from one table
(``TESTERS``) naming its config class, its test function and its instances.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from . import closeness as cl
from . import hard_instances
from . import independence as ind
from . import uniformity as un
from .hard_instances import UniformityHardParams, draw_meta_closeness, draw_meta_uniformity
from .measures import (
    NonNegativeMeasure,
    diagonal_measure,
    half_flat_measure,
    uniform_measure,
    uniform_product_measure,
    zipf_measure,
)
from .rng import RngStream
from .sampling import measure_sampler
from .verdict import TesterVerdict
from .walks import (
    ClosenessPairKernel,
    CoordKernel,
    NotMixedError,
    TruncationError,
    estimate_mixing,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    trials: int
    params: dict = field(default_factory=dict)
    out: str | None = None

    def __post_init__(self) -> None:
        _pick(_KINDS, "experiment kind", self.kind)
        if self.out is not None and not isinstance(self.out, (str, Path)):
            raise ConfigError(f"out must be a path string, not {self.out!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be a JSON object, not {self.params!r}")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        data = read_json_object(path, "config")
        if data.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {data.get('schema')}")
        missing = {"kind", "seed", "trials"} - data.keys()
        if missing:
            raise ConfigError(f"config missing fields: {sorted(missing)}")
        return cls(
            kind=data["kind"],
            seed=_cast("seed", int, data["seed"]),
            trials=_cast("trials", int, data["trials"]),
            params=data.get("params", {}),
            out=data.get("out"),
        )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[dict]
    aggregate: dict
    wall_clock: float

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.config.kind}-records.csv"
        json_path = out / f"{self.config.kind}-aggregate.json"
        if self.records:
            fields = list(self.records[0].keys())
            with csv_path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows(self.records)
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": self.config.kind,
            "seed": self.config.seed,
            "trials": self.config.trials,
            "params": self.config.params,
            "aggregate": self.aggregate,
            "wall_clock_sec": self.wall_clock,
        }
        json_path.write_text(json.dumps(payload, indent=2))
        return csv_path, json_path


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object held in ``path``; ``what`` names the file in errors."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


def _name(field: str, value) -> str:
    """``value``, refused unless it is a string; ``field`` names it in the error.

    A name that is not a string would otherwise fail as a dict key or as
    a path with a ``TypeError``.
    """
    if not isinstance(value, str):
        raise ConfigError(f"{field} must be a string, not {value!r}")
    return value


def _pick(table: dict, field: str, name):
    """``table[name]``; ``field`` names the lookup, and an unknown name the choices."""
    if _name(field, name) not in table:
        raise ConfigError(f"unknown {field} {name!r}; expected one of {', '.join(table)}")
    return table[name]


def _param(params: dict, key: str, default):
    """``params[key]``, or ``default`` where the key is absent or ``None`` (JSON ``null``)."""
    value = params.get(key)
    return default if value is None else value


def _rate_stderr(rate: float, n: int) -> float:
    """Standard error of a rate over ``n`` Bernoulli outcomes, floored above 0."""
    return math.sqrt(max(rate * (1 - rate), 1e-12) / n)


@dataclass(frozen=True)
class ReplicabilityResult:
    pairs: int
    disagreements: int

    @property
    def rate(self) -> float:
        return self.disagreements / self.pairs

    @property
    def stderr(self) -> float:
        return _rate_stderr(self.rate, self.pairs)


PairFn = Callable[[RngStream], tuple[bool, bool]]


def measure_replicability(pair_fn: PairFn, pairs: int, rng: RngStream) -> ReplicabilityResult:
    """Disagreement rate of paired runs sharing internal randomness.

    ``pair_fn`` receives a per-pair stream and must return the two
    verdicts of runs that share the internal lineage of that stream
    while drawing independent samples (and, for meta-distribution
    experiments, a freshly drawn instance for the pair).
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    disagreements = 0
    for k in range(pairs):
        a, b = pair_fn(rng.substream("pair", k))
        disagreements += a != b
    return ReplicabilityResult(pairs, disagreements)


# An instance drawer: the measures a tester runs on, drawn from a stream
# (fixed instances ignore it).
DrawInstance = Callable[[RngStream], tuple]


def _same(measures: tuple, stream: RngStream) -> tuple:
    return measures


def _fixed(*measures) -> DrawInstance:
    return partial(_same, measures)


def _twice(measure: NonNegativeMeasure) -> DrawInstance:
    return _fixed(measure, measure)


def _paired(test: Callable[..., TesterVerdict], config, draw_instance: DrawInstance) -> PairFn:
    """Paired runs of ``test`` that share the internal randomness of the pair's stream.

    Each pair draws its instance from its ``instance`` substream, then
    runs ``test(*instance, config, stream)`` on the samples of its
    ``sample-1`` and of its ``sample-2`` substream.
    """

    def run(stream: RngStream) -> tuple[bool, bool]:
        instance = draw_instance(stream.substream("instance"))
        v1 = test(*instance, config, stream, sample_rng=stream.substream("sample-1"))
        v2 = test(*instance, config, stream, sample_rng=stream.substream("sample-2"))
        return v1.accept, v2.accept

    return run


def _meta_closeness(n: int, m_hard: int, epsilon: float, stream: RngStream) -> tuple:
    _, p, q = draw_meta_closeness(n, m_hard, epsilon, stream)
    return p.normalized(), q.normalized()


def _meta_uniformity(n: int, epsilon: float, xi: float | None, stream: RngStream) -> tuple:
    if xi is None:
        return (draw_meta_uniformity(n, epsilon, stream)[1],)
    params = UniformityHardParams(n, max(epsilon, 1e-12), xi)
    return (hard_instances.draw_uniformity_hard(params, stream),)


def _far_uniformity(n: int, epsilon: float, stream: RngStream) -> tuple:
    """The uniformity family at its far end, xi = epsilon, normalized."""
    (p,) = _meta_uniformity(n, epsilon, epsilon, stream)
    return (p.normalized(),)


# The public builders look the testers up when called, so that a
# wrapped module attribute is the one that runs.
def closeness_pair_fn(
    p: NonNegativeMeasure, q: NonNegativeMeasure, config: cl.ClosenessConfig
) -> PairFn:
    """Fixed-instance paired runs of the closeness tester."""
    return _paired(cl.rep_closeness_test, config, _fixed(p, q))


def closeness_meta_pair_fn(
    n: int, m_hard: int, epsilon: float, config: cl.ClosenessConfig
) -> PairFn:
    """Distributional paired runs: a fresh hard-instance pair per pair."""
    return _paired(cl.rep_closeness_test, config, partial(_meta_closeness, n, m_hard, epsilon))


def uniformity_pair_fn(source, config: un.UniformityConfig) -> PairFn:
    """Fixed-source paired runs of the uniformity tester."""
    return _paired(un.rep_uniformity_test, config, _fixed(source))


def uniformity_meta_pair_fn(
    n: int, epsilon: float, config: un.UniformityConfig, xi: float | None = None
) -> PairFn:
    """Paired runs over the uniformity meta-distribution.

    With ``xi`` fixed the instance is drawn from the per-xi family
    (used to stratify disagreement across the xi grid); otherwise xi is
    drawn uniformly from ``[0, epsilon]`` per pair.
    """
    return _paired(un.rep_uniformity_test, config, partial(_meta_uniformity, n, epsilon, xi))


def _cast(name: str, cast, value):
    """``cast(value)``, refusing a bool, a failed or lossy cast and a float that is not finite."""
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigError(f"{name} must be a finite number, not {value!r}")
    lossy = isinstance(value, (int, float)) and out != value
    if out is None or isinstance(value, bool) or lossy:
        raise ConfigError(f"{name} must be {cast.__name__}, not {value!r}")
    return out


def _count(params: dict, name: str, default: int, least: int = 1) -> int:
    """``params[name]`` (``default`` when absent or ``None``) cast to an int of at least ``least``."""
    value = _cast(name, int, _param(params, name, default))
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, not {value}")
    return value


def config_from_params(cls, params: dict):
    """Build the tester config dataclass ``cls`` from a parameter dict.

    Field names, defaults and casts come from ``cls``; keys that are not
    fields are ignored and ``None`` counts as absent. A bool, or a number
    the cast would change (``2.7`` for an int), raises ``ConfigError``.
    """
    hints = get_type_hints(cls)
    missing = []
    kwargs = {}
    for f in fields(cls):
        value = params.get(f.name)
        if value is not None:
            kwargs[f.name] = _cast(f.name, hints[f.name], value)
        elif f.default is MISSING:
            missing.append(f.name)
    if missing:
        raise ConfigError(f"{cls.__name__} needs parameters {missing}")
    return cls(**kwargs)


def _load_instance_measures(params: dict, expected: int) -> list[NonNegativeMeasure]:
    """The ``expected`` measures of the JSON file ``params['instance_file']``.

    The file is what ``hard_instances.instance_to_json`` writes: an object
    whose ``measures`` list holds ``{"masses": [...], "shape": [...]}``.
    """
    if params.get("instance_file") is None:
        raise ConfigError("the file instance needs parameter 'instance_file'")
    path = _name("instance_file", params["instance_file"])
    data = read_json_object(path, "instance file")
    try:
        measures = [NonNegativeMeasure.from_dict(d) for d in data["measures"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"instance file {path} holds no valid 'measures' list: "
                          f"{type(exc).__name__}: {exc}") from exc
    if len(measures) != expected:
        raise ConfigError(
            f"instance file {path} holds {len(measures)} measures, expected {expected}"
        )
    return measures


def _hard_params(field: str, cls, *args) -> None:
    """Check that ``cls(*args)`` builds, naming ``field`` in the ``ConfigError`` if not."""
    try:
        cls(*args)
    except ValueError as exc:
        raise ConfigError(f"hard-meta parameter {field!r}: {exc}") from exc


def _closeness_hard_meta(params: dict, config: cl.ClosenessConfig) -> DrawInstance:
    if params.get("hard_m") is None:
        raise ConfigError("the closeness hard-meta instance needs parameter 'hard_m'")
    m_hard = _cast("hard_m", int, params["hard_m"])
    _hard_params("hard_m", hard_instances.ClosenessHardParams,
                 config.n, m_hard, config.epsilon, 0.0)
    return partial(_meta_closeness, config.n, m_hard, config.epsilon)


def _closeness_file(params: dict, config: cl.ClosenessConfig) -> DrawInstance:
    p, q = _load_instance_measures(params, 2)
    return _fixed(p.normalized(), q.normalized())


def _uniformity_hard_meta(params: dict, config: un.UniformityConfig) -> DrawInstance:
    xi = params.get("xi")
    if xi is not None:
        xi = _cast("xi", float, xi)
        _hard_params("xi", UniformityHardParams, config.n, config.epsilon, xi)
    return partial(_meta_uniformity, config.n, config.epsilon, xi)


def _diagonal(params: dict, config: ind.IndependenceConfig) -> DrawInstance:
    if config.n1 != config.n2:
        raise ConfigError("diagonal instance needs n1 == n2")
    return _fixed(diagonal_measure(config.n1))


# Per tester: its config class, one run ``test(*instance, config, rng,
# sample_rng=...)``, and its instances by name, each built by
# ``(params, config) -> draw``; the first is the default.
TESTERS = {
    "closeness": (cl.ClosenessConfig, cl.rep_closeness_test, {
        "uniform": lambda params, config: _twice(uniform_measure(config.n)),
        "zipf": lambda params, config: _twice(zipf_measure(config.n)),
        "uniform-vs-half-flat": lambda params, config: _fixed(
            uniform_measure(config.n), half_flat_measure(config.n)),
        "hard-meta": _closeness_hard_meta,
        "file": _closeness_file,
    }),
    "uniformity": (un.UniformityConfig, un.rep_uniformity_test, {
        "uniform": lambda params, config: _fixed(uniform_measure(config.n)),
        "meta-epsilon": lambda params, config: partial(_far_uniformity, config.n, config.epsilon),
        "hard-meta": _uniformity_hard_meta,
        "file": lambda params, config: _fixed(_load_instance_measures(params, 1)[0]),
    }),
    "independence": (ind.IndependenceConfig, ind.rep_independence_test, {
        "product-uniform": lambda params, config: _fixed(
            uniform_product_measure(config.n1, config.n2)),
        "diagonal": _diagonal,
    }),
}


# The closeness instances that calibrate audits, read from the table once:
# a run resolves no instance, whatever its params name.
_AUDITED = [TESTERS["closeness"][2][name] for name in ("uniform", "uniform-vs-half-flat")]


def _tester(name: str, params: dict) -> tuple:
    """``(test, config)`` of the tester ``name`` at ``params``.

    Its instance is resolved apart, and only by the kinds that draw one.
    """
    cls, test, _ = _pick(TESTERS, "tester", name)
    return test, config_from_params(cls, params)


# A trial of ``kind`` is a pure function ``(kind, tester, seed, t)`` of
# the resolved ``tester``, ``(test, config, draw_instance)``, and of the
# stream that ``kind`` and ``seed`` name.
def _trial_verdict(kind: str, tester: tuple, seed: int, t: int) -> TesterVerdict:
    """Trial ``t`` of ``kind``: one verdict on the trial's own instance and stream."""
    test, config, draw_instance = tester
    trial = RngStream(seed, kind).substream("trial", t)
    return test(*draw_instance(trial.substream("instance")), config, trial)


def _acceptance_trial(kind: str, tester: tuple, seed: int, t: int) -> dict:
    verdict = _trial_verdict(kind, tester, seed, t)
    record = {"trial": t, "accept": int(verdict.accept),
              "statistic": verdict.statistic, "threshold": verdict.threshold}
    if "stage" in verdict.detail:
        record["stage"] = verdict.detail["stage"]
    return record


def _replicability_trial(kind: str, tester: tuple, seed: int, t: int) -> dict:
    a, b = _paired(*tester)(RngStream(seed, kind).substream("pair", t))
    return {"trial": t, "verdict_1": int(a), "verdict_2": int(b)}


def _variance_trial(kind: str, tester: tuple, seed: int, t: int) -> dict:
    verdict = _trial_verdict(kind, tester, seed, t)
    return {"trial": t, "statistic": int(verdict.statistic), "m": verdict.detail["m"]}


def _replicability_aggregate(records: list[dict]) -> dict:
    disagreements = sum(r["verdict_1"] != r["verdict_2"] for r in records)
    result = ReplicabilityResult(len(records), disagreements)
    return {"pairs": result.pairs, "disagreement_rate": result.rate,
            "stderr": result.stderr}


def _variance_aggregate(records: list[dict]) -> dict:
    m = records[0]["m"]
    _enough_trials("variance-audit", len(records))
    stats = np.array([r["statistic"] for r in records], dtype=float)
    return {
        "m": m,
        "mean": float(stats.mean()),
        "variance": float(stats.var(ddof=1)),
        "variance_per_m": float(stats.var(ddof=1) / m),
    }


_KERNELS = {"coordinate": CoordKernel, "closeness-pair": ClosenessPairKernel}


def _run_mixing(config: ExperimentConfig) -> tuple[list[dict], dict]:
    params = config.params
    kernel_cls = _pick(_KERNELS, "kernel", _param(params, "kernel", "coordinate"))
    kernel = config_from_params(kernel_cls, params)
    delta = _cast("delta", float, _param(params, "delta", 0.04))
    try:
        report = estimate_mixing(kernel, delta, initial=_param(params, "initial", "all"))
    except TruncationError as exc:
        raise ConfigError(f"a_max = {kernel.a_max} truncates the kernel ({exc}); "
                          "raise a_max") from exc
    except NotMixedError as exc:  # max_steps is not a parameter here
        raise ConfigError(f"walk did not mix below delta={exc.delta} within {exc.max_steps} "
                          f"steps (final distance {exc.final_distance:.3g}); raise delta") from exc
    records = [{"t": t, "l1_to_stationary": tv} for t, tv in report.tv_curve]
    return records, {
        "tau_delta": report.tau_delta,
        "delta": report.delta,
        "gap_estimate": report.gap_estimate,
        "initial": report.initial,
    }


def _run_concentration(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Dispersion of acceptance probabilities across hard instances at each xi.

    One internal string serves the whole run, so the uniformity tester
    is a fixed function of its counts; each row gives the mean
    acceptance over ``draws_per_xi`` instances and the fraction of them
    deviating from it by more than 1/4.
    """
    params = config.params
    test, tester = _tester("uniformity", params)
    grid = _param(params, "xi_grid", [0.0, 0.1, 0.2])
    if not isinstance(grid, list) or not grid:
        raise ConfigError(f"xi_grid must be a non-empty list, not {grid!r}")
    xi_grid = [_cast("xi_grid", float, xi) for xi in grid]
    if not all(0 <= xi <= tester.epsilon for xi in xi_grid):
        raise ConfigError(f"xi_grid must lie in [0, epsilon = {tester.epsilon}], not {grid}")
    draws = _count(params, "draws_per_xi", 20)
    internal = RngStream(config.seed, "concentration-internal")
    root = RngStream(config.seed, "concentration")
    rows = []
    for i, xi in enumerate(xi_grid):
        accs = np.empty(draws)
        for j in range(draws):
            (p,) = _meta_uniformity(tester.n, tester.epsilon, xi, root.substream("instance", i, j))
            samples = root.substream("acc", i, j)
            runs = [test(p, tester, internal, sample_rng=samples.substream("trial", t))
                    for t in range(config.trials)]
            accs[j] = np.mean([verdict.accept for verdict in runs])
        mean = float(accs.mean())
        deviation = float((np.abs(accs - mean) > 0.25).mean())
        rows.append({"xi": xi, "mean_acceptance": mean, "deviation_fraction": deviation,
                     "draws": draws, "trials": config.trials})
    worst = max(r["deviation_fraction"] for r in rows)
    return rows, {"max_deviation_fraction": worst, "xi_grid": xi_grid}


def _rate_aggregate(records: list[dict]) -> dict:
    accepts = np.array([r["accept"] for r in records], dtype=float)
    rate = float(accepts.mean())
    return {
        "trials": len(records),
        "accept_rate": rate,
        "reject_rate": 1.0 - rate,
        "stderr": _rate_stderr(rate, len(records)),
    }


# Kinds whose trials are independent: per kind, the tester it runs
# (None: the ``tester`` parameter, closeness by default), its trial, its
# aggregate and its least trial count. The sample variance (ddof=1) of
# one trial is NaN, which JSON cannot hold.
_TRIAL_FUNCS = {
    **{f"{name}-acceptance": (name, _acceptance_trial, _rate_aggregate, 1) for name in TESTERS},
    "replicability": (None, _replicability_trial, _replicability_aggregate, 1),
    "variance-audit": ("closeness", _variance_trial, _variance_aggregate, 2),
}


def _enough_trials(kind: str, trials: int) -> None:
    least = _TRIAL_FUNCS[kind][3]
    if trials < least:
        raise ConfigError(f"{kind} needs trials >= {least}, not {trials}")


# Every kind: the trial kinds' entries above, and for each whole-run
# kind (matrix computations, grids) the function that runs it.
_KINDS = {
    **_TRIAL_FUNCS,
    "mixing": _run_mixing,
    "concentration": _run_concentration,
}


def run_experiment(config: ExperimentConfig, processes: int = 1) -> ExperimentResult:
    """Execute one experiment; deterministic given ``(config, seed)``.

    A kind with independent trials resolves its tester, config and
    instance once, before the first trial, so too few trials, a bad name,
    a bad instance file or a hard-meta parameter out of range fails
    before any work. ``processes > 1`` runs
    the trials in a process pool, which receives the resolved tester;
    per-trial streams are derived from the trial index, so records are
    identical to a sequential run and are written in trial order.
    """
    start = time.perf_counter()
    if config.kind in _TRIAL_FUNCS:
        name, trial_fn, aggregate_fn, _ = _TRIAL_FUNCS[config.kind]
        _enough_trials(config.kind, config.trials)
        name = name or _param(config.params, "tester", "closeness")
        test, tester_config = _tester(name, config.params)
        instances = TESTERS[name][2]
        build = _pick(instances, "instance",
                      _param(config.params, "instance", next(iter(instances))))
        tester = (test, tester_config, build(config.params, tester_config))
        worker = partial(trial_fn, config.kind, tester, config.seed)
        if processes > 1:
            # Imported here: it costs every other caller about 13 ms of import.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=processes) as pool:
                records = list(
                    pool.map(worker, range(config.trials),
                             chunksize=max(1, config.trials // (4 * processes)))
                )
        else:
            records = [worker(t) for t in range(config.trials)]
        aggregate = aggregate_fn(records)
    else:
        records, aggregate = _KINDS[config.kind](config)
    result = ExperimentResult(config, records, aggregate, time.perf_counter() - start)
    if config.out:
        result.write(config.out)
    return result


def recompute_aggregate(kind: str, records: list[dict]) -> dict:
    """Rebuild the aggregate from per-trial records (the `report` command)."""
    if kind not in _TRIAL_FUNCS:
        raise ConfigError(f"no aggregate recomputation for kind {kind!r}")
    if not records:
        raise ConfigError("no records to aggregate")
    try:
        return _TRIAL_FUNCS[kind][2](records)
    except KeyError as exc:
        raise ConfigError(f"{kind} records need a {exc.args[0]!r} column") from exc


def calibrate(kind: str, params: dict, seed: int = 7) -> dict:
    """Desk-scale audit of the constants in ``params`` (defaults where absent).

    Reports the constants with what they give at the given parameters
    and never changes them. It resolves the tester alone and resolves
    no instance that ``params`` names. Closeness reports the accept rate
    on a uniform pair and the reject rate on a uniform/half-flat pair,
    the ``closeness-acceptance`` kind's on the ``uniform`` and
    ``uniform-vs-half-flat`` instances of ``TESTERS`` at the same seed;
    uniformity draws no samples and reports the ceiling, the floor and
    whether the gap is open; independence reports the
    averaged non-singleton count and the spread ``sd_z_a`` of the
    averaged statistic on sets drawn from the uniform product measure.
    Each of those estimates averages ``min(k_avg, 50)`` runs, though the
    output reports the configured ``k_avg``. That statistic is averaged
    exactly over its sub-bin orders and fair marks (see
    ``independence``), so ``sd_z_a`` is the spread of the averaged
    statistic, lower than that of one with drawn orders or marks.
    The output can be passed to the CLI's ``--constants`` flag, which
    ignores the keys that are not constants.
    """
    test, config = _tester(kind, params)
    m = config.sample_size()
    if kind == "closeness":
        trials = _count(params, "calibration_trials", 50)
        testers = [(test, config, build(params, config)) for build in _AUDITED]
        same, far = [_rate_aggregate([_acceptance_trial("closeness-acceptance", tester, seed, t)
                                      for t in range(trials)]) for tester in testers]
        return {
            "kind": kind, "c1": config.c1, "c2": config.c2, "m": m,
            "complete_accept_rate": same["accept_rate"],
            "far_reject_rate": far["reject_rate"],
        }
    if kind == "uniformity":
        return {
            "kind": kind, "c1_u": config.c1_u, "c2_u": config.c2_u, "m": m,
            "calibrated_gap": config.is_calibrated(m),
            "ceiling": config.completeness_ceiling(m),
            "floor": config.soundness_floor(m),
        }
    # sd_z_a is a sample standard deviation (ddof=1): it needs two trials.
    trials = _count(params, "calibration_trials", 20, least=2)
    root = RngStream(seed, "calibrate-independence")
    sampler = measure_sampler(uniform_product_measure(config.n1, config.n2))
    n_hats, z_hats = [], []
    for t in range(trials):
        z_a, n_a = ind.sampled_averaged_stats(
            sampler, config, root.substream("sets", t), root.substream("avg", t),
            k_avg=min(config.k_avg, 50),
        )
        n_hats.append(n_a)
        z_hats.append(z_a)
    scale = ind.stage1_scale(m, config.n1, config.n2)
    gap = ind.independence_gap(m, config.n1, config.n2, config.epsilon)
    return {
        "kind": kind, "m": m,
        "c_n": config.c_n, "c_i1": config.c_i1, "c_i2": config.c_i2,
        "k_avg": config.k_avg, "median_reps": config.median_reps,
        "m_scale": config.m_scale,
        "mean_n_a": float(np.mean(n_hats)),
        "n_a_over_scale": float(np.mean(n_hats) / scale),
        "sd_z_a": float(np.std(z_hats, ddof=1)),
        "gap_scale": gap,
    }
