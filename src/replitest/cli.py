"""Command-line harness.

Subcommands:
  test        one-shot verdict on sample files
  experiment  batch experiment from a JSON config
  calibrate   desk-scale constant calibration
  mixing      mixing-time report for a walk kernel
  report      recompute aggregates from per-trial records

Exit codes: 0 success, 2 validation error, 3 check failure in
``experiment --check`` mode.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import closeness as cl
from . import independence as ind
from . import uniformity as un
from .experiments import (
    ConfigError,
    ExperimentConfig,
    calibrate,
    config_from_params,
    recompute_aggregate,
    run_experiment,
)
from .rng import RngStream

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3


def _load_constants(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read constants file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"constants file {path} must hold a JSON object")
    return data


def _read_1d_samples(path: str, n: int) -> np.ndarray:
    values, lines = [], []
    try:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            for token in line.split():
                values.append(int(token))
                lines.append(lineno)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse 1D sample file {path}: {exc}") from exc
    samples = np.asarray(values, dtype=np.int64)
    _check_domain(path, samples, lines, (n,))
    return samples


def _read_2d_samples(path: str, n1: int, n2: int) -> np.ndarray:
    rows, lines = [], []
    try:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            a, b = line.split()
            rows.append((int(a), int(b)))
            lines.append(lineno)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse 2D sample file {path}: {exc}") from exc
    samples = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    _check_domain(path, samples, lines, (n1, n2))
    return samples


def _check_domain(path: str, samples: np.ndarray, lines: list[int], shape: tuple) -> None:
    """Raise ``ConfigError`` naming the first sample outside ``[0, n)`` per coordinate.

    Without this, an out-of-range closeness value would widen the domain
    and an independence column ``>= n2`` would fold into the next row
    through ``row * n2 + col``.
    """
    bad = (samples < 0) | (samples >= np.asarray(shape))
    if bad.ndim > 1:
        bad = bad.any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        domain = " x ".join(f"[0, {n})" for n in shape)
        raise ConfigError(
            f"{path} line {lines[i]}: sample {samples[i].tolist()} "
            f"lies outside the domain {domain}"
        )


def _pool_sampler(pool: np.ndarray):
    """Sampler that consumes a fixed pool of pre-drawn indices in order."""
    cursor = 0

    def draw(k: int, gen) -> np.ndarray:
        nonlocal cursor
        if cursor + k > pool.shape[0]:
            raise ConfigError(
                f"sample file exhausted: need {cursor + k} samples, file has {pool.shape[0]}"
            )
        out = pool[cursor : cursor + k]
        cursor += k
        return out

    return draw


def _cmd_test(args: argparse.Namespace) -> int:
    # --constants overrides --m-scale; the domain and accuracy flags win.
    params = {
        "m_scale": args.m_scale, **_load_constants(args.constants),
        "n": args.n, "n1": args.n1, "n2": args.n2,
        "epsilon": args.epsilon, "rho": args.rho,
    }
    rng = RngStream(args.seed, "cli-test")
    if args.problem == "closeness":
        config = config_from_params(cl.ClosenessConfig, params)
        pool_p = _read_1d_samples(args.samples_p, config.n)
        pool_q = _read_1d_samples(args.samples_q, config.n)
        verdict = cl.rep_closeness_test(
            _pool_sampler(pool_p), _pool_sampler(pool_q), config, rng
        )
    elif args.problem == "uniformity":
        config = config_from_params(un.UniformityConfig, params)
        pool = _read_1d_samples(args.samples, config.n)
        verdict = un.UniformityTester(config).run(_pool_sampler(pool), rng)
    elif args.problem == "independence":
        config = config_from_params(ind.IndependenceConfig, params)
        pool = _read_2d_samples(args.samples, config.n1, config.n2)
        # At most 100 m pairs from p and 200 m for the product of
        # marginals per estimate, median_reps estimates per stage, two
        # stages; the runs read only their touched positions, far fewer
        need = 2 * 300 * config.sample_size() * config.median_reps
        if pool.shape[0] < need:
            raise ConfigError(
                f"{args.samples} holds {pool.shape[0]} pairs; "
                f"this file needs at least {need} pairs"
            )
        flat = pool[:, 0] * config.n2 + pool[:, 1]
        verdict = ind.rep_independence_test(_pool_sampler(flat), config, rng)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown problem {args.problem!r}")
    print(
        json.dumps(
            {"verdict": verdict.label, "statistic": verdict.statistic,
             "threshold": verdict.threshold, "calibrated": verdict.calibrated}
        )
    )
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        config = ExperimentConfig(
            kind=config.kind,
            seed=overrides.get("seed", config.seed),
            trials=overrides.get("trials", config.trials),
            params=config.params,
            out=overrides.get("out", config.out),
        )
    if args.constants:
        merged = dict(config.params)
        merged.update(_load_constants(args.constants))
        config = ExperimentConfig(config.kind, config.seed, config.trials, merged, config.out)
    result = run_experiment(config, processes=max(1, args.processes))
    print(json.dumps({"kind": config.kind, "aggregate": result.aggregate}, indent=2))
    if args.check:
        checks = config.params.get("check", {})
        for key, bound in checks.items():
            direction, _, metric = key.partition(":")
            value = result.aggregate.get(metric)
            if value is None:
                print(f"check failed: metric {metric!r} missing", file=sys.stderr)
                return EXIT_CHECK_FAILED
            ok = value >= bound if direction == "min" else value <= bound
            if not ok:
                print(
                    f"check failed: {metric} = {value} violates {direction} {bound}",
                    file=sys.stderr,
                )
                return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    params = _load_constants(args.params) if args.params else {}
    for key in ("n", "n1", "n2"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon
    if args.rho is not None:
        params["rho"] = args.rho
    if args.m_scale is not None:
        params["m_scale"] = args.m_scale
    constants = calibrate(args.kind, params, seed=args.seed)
    text = json.dumps(constants, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return EXIT_OK


def _cmd_mixing(args: argparse.Namespace) -> int:
    params = {
        "kernel": args.kernel, "n": args.n, "m": args.m, "xi": args.xi,
        "delta": args.delta, "initial": args.initial,
    }
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon
    if args.a_max is not None:
        params["a_max"] = args.a_max
    config = ExperimentConfig("mixing", args.seed, 1, params, args.out)
    result = run_experiment(config)
    print(json.dumps(result.aggregate, indent=2))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with Path(args.records).open() as fh:
            records = []
            for row in csv.DictReader(fh):
                parsed = {}
                for key, value in row.items():
                    try:
                        parsed[key] = int(value)
                    except ValueError:
                        try:
                            parsed[key] = float(value)
                        except ValueError:
                            parsed[key] = value
                records.append(parsed)
    except OSError as exc:
        raise ConfigError(f"cannot read records {args.records}: {exc}") from exc
    aggregate = recompute_aggregate(args.kind, records)
    print(json.dumps(aggregate, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="replitest")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="one-shot verdict on sample files")
    p_test.add_argument("problem", choices=["closeness", "uniformity", "independence"])
    p_test.add_argument("--samples", help="1D samples (uniformity) or pairs (independence)")
    p_test.add_argument("--samples-p", help="closeness: samples from p")
    p_test.add_argument("--samples-q", help="closeness: samples from q")
    p_test.add_argument("--n", type=int)
    p_test.add_argument("--n1", type=int)
    p_test.add_argument("--n2", type=int)
    p_test.add_argument("--epsilon", type=float, required=True)
    p_test.add_argument("--rho", type=float, required=True)
    p_test.add_argument("--m-scale", type=float, default=1.0)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--constants", help="JSON constants file")
    p_test.set_defaults(func=_cmd_test)

    p_exp = sub.add_parser("experiment", help="run a batch experiment")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--trials", type=int)
    p_exp.add_argument("--out")
    p_exp.add_argument("--processes", type=int, default=1,
                       help="worker processes for independent trials")
    p_exp.add_argument("--constants")
    p_exp.add_argument("--check", action="store_true",
                       help="exit 3 unless params['check'] bounds hold")
    p_exp.set_defaults(func=_cmd_experiment)

    p_cal = sub.add_parser("calibrate", help="calibrate tester constants")
    p_cal.add_argument("--kind", required=True,
                       choices=["closeness", "uniformity", "independence"])
    p_cal.add_argument("--params", help="JSON file with base parameters")
    p_cal.add_argument("--n", type=int)
    p_cal.add_argument("--n1", type=int)
    p_cal.add_argument("--n2", type=int)
    p_cal.add_argument("--epsilon", type=float)
    p_cal.add_argument("--rho", type=float)
    p_cal.add_argument("--m-scale", type=float)
    p_cal.add_argument("--seed", type=int, default=7)
    p_cal.add_argument("--out")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_mix = sub.add_parser("mixing", help="mixing-time report")
    p_mix.add_argument("--kernel", choices=["coordinate", "closeness-pair"],
                       default="coordinate")
    p_mix.add_argument("--n", type=int, required=True)
    p_mix.add_argument("--m", type=int, required=True)
    p_mix.add_argument("--xi", type=float, required=True)
    p_mix.add_argument("--epsilon", type=float)
    p_mix.add_argument("--delta", type=float, default=0.04)
    p_mix.add_argument("--a-max", type=int)
    p_mix.add_argument("--initial", choices=["all", "poisson", "point"], default="all")
    p_mix.add_argument("--seed", type=int, default=0)
    p_mix.add_argument("--out")
    p_mix.set_defaults(func=_cmd_mixing)

    p_rep = sub.add_parser("report", help="recompute aggregates from records")
    p_rep.add_argument("--records", required=True)
    p_rep.add_argument("--kind", required=True)
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
