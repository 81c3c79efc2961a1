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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial
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
from .walks import ClosenessPairKernel, CoordKernel, estimate_mixing

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
        if self.kind not in _TRIAL_FUNCS and self.kind not in _RUNNERS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
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


def _fixed(*measures) -> DrawInstance:
    return lambda stream: measures


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


@cache
def _field_casts(cls) -> tuple:
    # Resolving the annotations costs ~0.1 ms, several percent of a small
    # trial, and experiments build a config per trial: resolve once per class.
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING) for f in fields(cls))


def _cast(name: str, cast, value):
    """``cast(value)``, refusing a bool, a failed cast and a number the cast would change."""
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    lossy = isinstance(value, (int, float)) and out != value
    if out is None or isinstance(value, bool) or lossy:
        raise ConfigError(f"{name} must be {cast.__name__}, not {value!r}")
    return out


def _count(params: dict, name: str, default: int, least: int = 1) -> int:
    """``params[name]`` (``default`` when absent) cast to an int of at least ``least``."""
    value = _cast(name, int, params.get(name, default))
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, not {value}")
    return value


def config_from_params(cls, params: dict):
    """Build the tester config dataclass ``cls`` from a parameter dict.

    Field names, defaults and casts come from ``cls``; keys that are not
    fields are ignored and ``None`` counts as absent. A bool, or a number
    the cast would change (``2.7`` for an int), raises ``ConfigError``.
    """
    missing = []
    kwargs = {}
    for name, cast, required in _field_casts(cls):
        value = params.get(name)
        if value is not None:
            kwargs[name] = _cast(name, cast, value)
        elif required:
            missing.append(name)
    if missing:
        raise ConfigError(f"{cls.__name__} needs parameters {missing}")
    return cls(**kwargs)


def _load_instance_measures(params: dict, expected: int) -> list[NonNegativeMeasure]:
    path = params.get("instance_file")
    if not path or not Path(path).exists():
        raise ConfigError(f"instance file not found: {path!r}")
    _, measures = hard_instances.instance_from_json(Path(path).read_text())
    if len(measures) != expected:
        raise ConfigError(
            f"instance file {path} holds {len(measures)} measures, expected {expected}"
        )
    return measures


def _closeness_instance(params: dict, config: cl.ClosenessConfig) -> DrawInstance:
    name = params.get("instance", "uniform")
    n = config.n
    if name == "uniform":
        p = uniform_measure(n)
        return _fixed(p, p)
    if name == "zipf":
        p = zipf_measure(n)
        return _fixed(p, p)
    if name == "uniform-vs-half-flat":
        return _fixed(uniform_measure(n), half_flat_measure(n))
    if name == "hard-meta":
        if params.get("hard_m") is None:
            raise ConfigError("the closeness hard-meta instance needs parameter 'hard_m'")
        return partial(_meta_closeness, n, _cast("hard_m", int, params["hard_m"]),
                       config.epsilon)
    if name == "file":
        p, q = _load_instance_measures(params, 2)
        return _fixed(p.normalized(), q.normalized())
    raise ConfigError(f"unknown closeness instance {name!r}")


def _uniformity_instance(params: dict, config: un.UniformityConfig) -> DrawInstance:
    name = params.get("instance", "uniform")
    n, epsilon = config.n, config.epsilon
    if name == "uniform":
        return _fixed(uniform_measure(n))
    if name == "meta-epsilon":
        # The far end of the family, xi = epsilon.
        far = UniformityHardParams(n, epsilon, epsilon)
        return lambda stream: (hard_instances.draw_uniformity_hard(far, stream).normalized(),)
    if name == "hard-meta":
        xi = params.get("xi")
        return partial(_meta_uniformity, n, epsilon,
                       None if xi is None else _cast("xi", float, xi))
    if name == "file":
        return _fixed(_load_instance_measures(params, 1)[0])
    raise ConfigError(f"unknown uniformity instance {name!r}")


def _independence_instance(params: dict, config: ind.IndependenceConfig) -> DrawInstance:
    name = params.get("instance", "product-uniform")
    if name == "product-uniform":
        return _fixed(uniform_product_measure(config.n1, config.n2))
    if name == "diagonal":
        if config.n1 != config.n2:
            raise ConfigError("diagonal instance needs n1 == n2")
        return _fixed(diagonal_measure(config.n1))
    raise ConfigError(f"unknown independence instance {name!r}")


# Per tester: its config class, one run ``test(*instance, config, rng,
# sample_rng=...)``, and its instance builder ``(params, config) -> draw``.
TESTERS = {
    "closeness": (cl.ClosenessConfig, cl.rep_closeness_test, _closeness_instance),
    "uniformity": (un.UniformityConfig, un.rep_uniformity_test, _uniformity_instance),
    "independence": (ind.IndependenceConfig, ind.rep_independence_test, _independence_instance),
}


def _tester(name: str, params: dict) -> tuple:
    """``(test, config, draw_instance)`` of the tester ``name`` at ``params``."""
    if name not in TESTERS:
        raise ConfigError(f"unknown tester {name!r}")
    cls, test, instance = TESTERS[name]
    config = config_from_params(cls, params)
    return test, config, instance(params, config)


def _acceptance_trial(tester: str, params: dict, seed: int, t: int) -> dict:
    test, config, draw_instance = _tester(tester, params)
    trial = RngStream(seed, f"{tester}-acceptance").substream("trial", t)
    verdict = test(*draw_instance(trial.substream("instance")), config, trial)
    record = {"trial": t, "accept": int(verdict.accept),
              "statistic": verdict.statistic, "threshold": verdict.threshold}
    if "stage" in verdict.detail:
        record["stage"] = verdict.detail["stage"]
    return record


def _replicability_trial(params: dict, seed: int, t: int) -> dict:
    pair_fn = _paired(*_tester(params.get("tester", "closeness"), params))
    a, b = pair_fn(RngStream(seed, "replicability").substream("pair", t))
    return {"trial": t, "verdict_1": int(a), "verdict_2": int(b)}


def _variance_trial(params: dict, seed: int, t: int) -> dict:
    test, config, draw_instance = _tester("closeness", params)
    trial = RngStream(seed, "variance-audit").substream("trial", t)
    verdict = test(*draw_instance(trial.substream("instance")), config, trial)
    return {"trial": t, "statistic": int(verdict.statistic), "m": verdict.detail["m"]}


def _replicability_aggregate(records: list[dict]) -> dict:
    disagreements = sum(r["verdict_1"] != r["verdict_2"] for r in records)
    result = ReplicabilityResult(len(records), disagreements)
    return {"pairs": result.pairs, "disagreement_rate": result.rate,
            "stderr": result.stderr}


def _variance_aggregate(records: list[dict]) -> dict:
    m = records[0]["m"]
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
    kind = params.get("kernel", "coordinate")
    if kind not in _KERNELS:
        raise ConfigError(f"unknown kernel {kind!r}")
    kernel = config_from_params(_KERNELS[kind], params)
    delta = _cast("delta", float, params.get("delta", 0.04))
    report = estimate_mixing(kernel, delta, initial=params.get("initial", "all"))
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
    cls, test, _ = TESTERS["uniformity"]
    tester = config_from_params(cls, params)
    grid = params.get("xi_grid", [0.0, 0.1, 0.2])
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
        hard = UniformityHardParams(tester.n, tester.epsilon, xi)
        accs = np.empty(draws)
        for j in range(draws):
            p = hard_instances.draw_uniformity_hard(hard, root.substream("instance", i, j))
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


# kinds whose trials are independent pure functions of (params, seed, index)
_TRIAL_FUNCS = {
    **{f"{name}-acceptance": (partial(_acceptance_trial, name), _rate_aggregate)
       for name in TESTERS},
    "replicability": (_replicability_trial, _replicability_aggregate),
    "variance-audit": (_variance_trial, _variance_aggregate),
}

# whole-run kinds (matrix computations, grids)
_RUNNERS = {
    "mixing": _run_mixing,
    "concentration": _run_concentration,
}


def run_experiment(config: ExperimentConfig, processes: int = 1) -> ExperimentResult:
    """Execute one experiment; deterministic given ``(config, seed)``.

    ``processes > 1`` runs independent trials in a process pool; per-trial
    streams are derived from the trial index, so records are identical
    to a sequential run and are written in trial order.
    """
    start = time.perf_counter()
    if config.kind in _TRIAL_FUNCS:
        trial_fn, aggregate_fn = _TRIAL_FUNCS[config.kind]
        worker = partial(trial_fn, config.params, config.seed)
        if processes > 1:
            with ProcessPoolExecutor(max_workers=processes) as pool:
                records = list(
                    pool.map(worker, range(config.trials),
                             chunksize=max(1, config.trials // (4 * processes)))
                )
        else:
            records = [worker(t) for t in range(config.trials)]
        aggregate = aggregate_fn(records)
    else:
        records, aggregate = _RUNNERS[config.kind](config)
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
        return _TRIAL_FUNCS[kind][1](records)
    except KeyError as exc:
        raise ConfigError(f"{kind} records need a {exc.args[0]!r} column") from exc


def calibrate(kind: str, params: dict, seed: int = 7) -> dict:
    """Desk-scale audit of the constants in ``params`` (defaults where absent).

    Reports the constants with what they give at the given parameters
    and never changes them. Closeness reports the accept rate on a
    uniform pair and the reject rate on a uniform/half-flat pair, which
    are the ``closeness-acceptance`` kind's at the same seed;
    uniformity draws no samples and reports the ceiling, the floor and
    whether the gap is open; independence reports the averaged
    non-singleton count and the spread ``sd_z_a`` of the averaged
    statistic on product-uniform sets. Each of those estimates averages
    ``min(k_avg, 50)`` runs, though the output reports the configured
    ``k_avg``. That statistic is averaged exactly over its fair marks
    (see ``independence``), so ``sd_z_a`` is the spread of the
    mark-averaged statistic, lower than that of one with drawn marks.
    The output can be passed to the CLI's ``--constants`` flag, which
    ignores the keys that are not constants.
    """
    if kind not in TESTERS:
        raise ConfigError(f"unknown calibration kind {kind!r}")
    config = config_from_params(TESTERS[kind][0], params)
    m = config.sample_size()
    if kind == "closeness":
        trials = _count(params, "calibration_trials", 50)
        same, far = [
            _rate_aggregate([_acceptance_trial(kind, {**params, "instance": name}, seed, t)
                             for t in range(trials)])
            for name in ("uniform", "uniform-vs-half-flat")]
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
    p = uniform_product_measure(config.n1, config.n2)
    sampler = measure_sampler(p)
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
