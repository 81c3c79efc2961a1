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
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    _KERNELS,
    _KINDS,
    TESTERS,
    ConfigError,
    ExperimentConfig,
    _pick,
    _tester,
    calibrate,
    read_json_object,
    recompute_aggregate,
    run_experiment,
)
from .rng import RngStream

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3


def _load_constants(path: str | None) -> dict:
    return read_json_object(path, "constants file") if path else {}


def _read_samples(path: str, shape: tuple[int, ...]) -> np.ndarray:
    """The samples in ``path`` as flat indices on a domain of ``shape``.

    A 1D file holds whitespace-separated values, a 2D file one ``row col``
    pair per line; a pair becomes ``row * n2 + col`` after the domain check.
    """
    width = len(shape)
    values, lines = [], []
    try:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            tokens = [int(token) for token in line.split()]
            if width > 1 and len(tokens) not in (0, width):
                raise ValueError(f"line {lineno} holds {len(tokens)} values, not {width}")
            values += tokens
            lines += [lineno] * (len(tokens) // width)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse sample file {path}: {exc}") from exc
    samples = np.asarray(values, dtype=np.int64).reshape(-1, width)
    _check_domain(path, samples, lines, shape)
    return np.ravel_multi_index(tuple(samples.T), shape)


def _check_domain(path: str, samples: np.ndarray, lines: list[int], shape: tuple) -> None:
    """Raise ``ConfigError`` naming the first sample outside ``[0, n)`` per coordinate.

    Without this, an out-of-range closeness value would widen the domain
    and an independence column ``>= n2`` would fold into the next row
    through ``row * n2 + col``.
    """
    bad = ((samples < 0) | (samples >= np.asarray(shape))).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        sample = samples[i].tolist() if len(shape) > 1 else int(samples[i, 0])
        domain = " x ".join(f"[0, {n})" for n in shape)
        raise ConfigError(
            f"{path} line {lines[i]}: sample {sample} lies outside the domain {domain}"
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


# Per problem: its sample-file flags, in the order its test takes the
# sources, and the domain of one sample.
_SAMPLE_FILES = {
    "closeness": (("samples_p", "samples_q"), lambda config: (config.n,)),
    "uniformity": (("samples",), lambda config: (config.n,)),
    "independence": (("samples",), lambda config: (config.n1, config.n2)),
}


def _cmd_test(args: argparse.Namespace) -> int:
    # --constants overrides --m-scale; the domain and accuracy flags win.
    params = {
        "m_scale": args.m_scale, **_load_constants(args.constants),
        "n": args.n, "n1": args.n1, "n2": args.n2,
        "epsilon": args.epsilon, "rho": args.rho,
    }
    test, config = _tester(args.problem, params)
    flags, shape = _SAMPLE_FILES[args.problem]
    sources = []
    for flag in flags:
        path = getattr(args, flag)
        if path is None:
            raise ConfigError(f"test {args.problem} needs --{flag.replace('_', '-')}")
        sources.append(_pool_sampler(_read_samples(path, shape(config))))
    verdict = test(*sources, config, RngStream(args.seed, "cli-test"))
    print(
        json.dumps(
            {"verdict": verdict.label, "statistic": verdict.statistic,
             "threshold": verdict.threshold, "calibrated": verdict.calibrated}
        )
    )
    return EXIT_OK


def _parse_checks(kind: str, checks: object) -> list[tuple[str, str, float]]:
    """``(direction, metric, bound)`` per ``"min:METRIC"`` or ``"max:METRIC"`` key.

    ``checks`` is ``params["check"]``, ``None`` when absent. A run with
    ``--check`` needs at least one bound, so that a misspelled or empty
    table cannot pass unguarded, and each metric must be a numeric key
    of the ``kind``'s aggregate, so that a misspelled one, or one that is
    not a number, fails before the first trial.
    """
    if not isinstance(checks, dict) or not checks:
        raise ConfigError(f"--check needs a params 'check' object of bounds, not {checks!r}")
    parsed = []
    for key, bound in checks.items():
        direction, _, metric = key.partition(":")
        if direction not in ("min", "max") or not metric:
            raise ConfigError(f"check key {key!r} is not 'min:METRIC' or 'max:METRIC'")
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            raise ConfigError(f"check {key!r} bound {bound!r} is not a number")
        _pick(dict.fromkeys(_KINDS[kind].metrics), f"{kind} check metric", metric)
        parsed.append((direction, metric, bound))
    return parsed


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    overrides = {key: getattr(args, key) for key in ("seed", "trials", "out")
                 if getattr(args, key) is not None}
    if args.constants:
        overrides["params"] = {**config.params, **_load_constants(args.constants)}
    config = dataclasses.replace(config, **overrides)
    checks = _parse_checks(config.kind, config.params.get("check")) if args.check else []
    result = run_experiment(config, processes=max(1, args.processes))
    print(json.dumps({"kind": config.kind, "aggregate": result.aggregate}, indent=2))
    for direction, metric, bound in checks:
        value = result.aggregate[metric]
        ok = value >= bound if direction == "min" else value <= bound
        if not ok:
            print(
                f"check failed: {metric} = {value} violates {direction} {bound}",
                file=sys.stderr,
            )
            return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    params = _load_constants(args.params)
    for key in ("n", "n1", "n2", "epsilon", "rho", "m_scale"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    constants = calibrate(args.kind, params, seed=args.seed)
    text = json.dumps(constants, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return EXIT_OK


def _cmd_mixing(args: argparse.Namespace) -> int:
    keys = ("kernel", "n", "m", "xi", "epsilon", "delta", "a_max", "initial")
    params = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    # a report draws nothing, so its seed is moot
    config = ExperimentConfig("mixing", 0, 1, params, args.out)
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
    p_test.add_argument("problem", choices=list(TESTERS))
    p_test.add_argument("--samples", help="1D samples (uniformity) or pairs (independence)")
    p_test.add_argument("--samples-p", help="closeness: samples from p")
    p_test.add_argument("--samples-q", help="closeness: samples from q")
    p_test.add_argument("--n", type=int)
    p_test.add_argument("--n1", type=int)
    p_test.add_argument("--n2", type=int)
    p_test.add_argument("--epsilon", type=float, required=True)
    p_test.add_argument("--rho", type=float, required=True)
    p_test.add_argument("--m-scale", type=float)
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
    p_cal.add_argument("--kind", required=True, choices=list(TESTERS))
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
    # Defaults stay None so that the mixing experiment holds the only ones.
    p_mix.add_argument("--kernel", choices=list(_KERNELS))
    p_mix.add_argument("--n", type=int, required=True)
    p_mix.add_argument("--m", type=int, required=True)
    p_mix.add_argument("--xi", type=float, required=True)
    p_mix.add_argument("--epsilon", type=float)
    p_mix.add_argument("--delta", type=float)
    p_mix.add_argument("--a-max", type=int)
    p_mix.add_argument("--initial", choices=["all", "poisson", "point"])
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
