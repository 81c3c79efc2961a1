import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import replitest
from replitest.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_VALIDATION, main
from replitest.closeness import ClosenessConfig
from replitest.measures import half_flat_measure, uniform_measure
from replitest.rng import RngStream
from replitest.sampling import measure_sampler
from replitest.uniformity import UniformityConfig


def _write_samples(path, indices):
    path.write_text("\n".join(str(i) for i in indices) + "\n")


def _write_pairs(path, pairs):
    path.write_text("\n".join(f"{r} {c}" for r, c in pairs) + "\n")


def test_closeness_file_verdicts(tmp_path, capsys):
    config = ClosenessConfig(n=50, epsilon=0.3, rho=0.15)
    m = config.sample_size()
    gen = RngStream(1, "cli-samples").generator()
    same = measure_sampler(uniform_measure(50))
    far = measure_sampler(half_flat_measure(50))

    p_file, q_file = tmp_path / "p.txt", tmp_path / "q.txt"
    _write_samples(p_file, same(4 * m, gen))
    _write_samples(q_file, same(4 * m, gen))
    code = main([
        "test", "closeness", "--samples-p", str(p_file), "--samples-q", str(q_file),
        "--n", "50", "--epsilon", "0.3", "--rho", "0.15", "--seed", "3",
    ])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "accept"

    _write_samples(q_file, far(4 * m, gen))
    main([
        "test", "closeness", "--samples-p", str(p_file), "--samples-q", str(q_file),
        "--n", "50", "--epsilon", "0.3", "--rho", "0.15", "--seed", "3",
    ])
    assert json.loads(capsys.readouterr().out)["verdict"] == "reject"


def test_closeness_file_too_small_is_validation_error(tmp_path, capsys):
    p_file, q_file = tmp_path / "p.txt", tmp_path / "q.txt"
    _write_samples(p_file, [0, 1, 2])
    _write_samples(q_file, [0, 1, 2])
    code = main([
        "test", "closeness", "--samples-p", str(p_file), "--samples-q", str(q_file),
        "--n", "50", "--epsilon", "0.3", "--rho", "0.15",
    ])
    assert code == EXIT_VALIDATION
    assert "exhausted" in capsys.readouterr().err


def _uniform_file(path, multiple: float) -> None:
    """Write ``multiple * m`` uniform samples on [64]."""
    gen = RngStream(2, "cli-unif").generator()
    sampler = measure_sampler(uniform_measure(64))
    m = UniformityConfig(n=64, epsilon=0.3, rho=0.15).sample_size()
    _write_samples(path, sampler(int(multiple * m), gen))


_UNIFORMITY_ARGS = ["test", "uniformity", "--n", "64", "--epsilon", "0.3", "--rho", "0.15"]


def test_uniformity_file_verdict(tmp_path, capsys):
    path = tmp_path / "s.txt"
    _uniform_file(path, 2)
    code = main(_UNIFORMITY_ARGS + ["--samples", str(path)])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "accept"
    assert out["calibrated"] is True


@pytest.mark.parametrize("multiple", [2, 5])
def test_uniformity_accepts_files_longer_than_budget(tmp_path, capsys, multiple):
    # The tester draws Poi(m) samples from the file, however long it is.
    path = tmp_path / "s.txt"
    _uniform_file(path, multiple)
    for seed in range(5):
        assert main(_UNIFORMITY_ARGS + ["--samples", str(path), "--seed", str(seed)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "accept"


def test_uniformity_short_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "s.txt"
    _uniform_file(path, 0.5)
    assert main(_UNIFORMITY_ARGS + ["--samples", str(path)]) == EXIT_VALIDATION
    assert "exhausted" in capsys.readouterr().err


def test_constants_file_overrides_m_scale_flag(tmp_path, capsys):
    path = tmp_path / "s.txt"
    _uniform_file(path, 2)
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"m_scale": 1.0}))
    args = _UNIFORMITY_ARGS + ["--samples", str(path), "--m-scale", "100"]
    assert main(args) == EXIT_VALIDATION
    assert "exhausted" in capsys.readouterr().err
    assert main(args + ["--constants", str(constants)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "accept"

    constants.write_text("[1.0]")
    assert main(args + ["--constants", str(constants)]) == EXIT_VALIDATION
    assert "JSON object" in capsys.readouterr().err


_IND_CONSTANTS = {"c_n": 4.0, "c_i1": 1.0, "c_i2": 4.0, "k_avg": 10,
                  "median_reps": 1, "m_scale": 0.05}


def _independence_args(tmp_path, pairs_path) -> list[str]:
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps(_IND_CONSTANTS))
    return [
        "test", "independence", "--samples", str(pairs_path), "--n1", "8", "--n2", "8",
        "--epsilon", "0.35", "--rho", "0.2", "--constants", str(constants),
    ]


def _uniform_pairs(count: int):
    gen = RngStream(3, "cli-ind").generator()
    rows = gen.integers(0, 8, size=count)
    cols = gen.integers(0, 8, size=count)
    return list(zip(rows.tolist(), cols.tolist()))


def test_independence_file_verdict(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    _write_pairs(path, _uniform_pairs(200000))
    code = main(_independence_args(tmp_path, path))
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "accept"


def test_independence_file_needs_only_the_pairs_the_runs_read(tmp_path, capsys):
    # At these constants a run reads under 2,000 pairs, far fewer than the
    # 2 * 300 * m * median_reps = 78,600 that bound every draw.
    path = tmp_path / "pairs.txt"
    _write_pairs(path, _uniform_pairs(5000))
    for seed in range(5):
        assert main(_independence_args(tmp_path, path) + ["--seed", str(seed)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "accept"


def test_independence_short_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    _write_pairs(path, _uniform_pairs(500))
    assert main(_independence_args(tmp_path, path)) == EXIT_VALIDATION
    assert "exhausted" in capsys.readouterr().err


def test_missing_sample_file_flag_is_named(tmp_path, capsys):
    p_file = tmp_path / "p.txt"
    _write_samples(p_file, [0, 1, 2])
    code = main(["test", "closeness", "--samples-p", str(p_file),
                 "--n", "50", "--epsilon", "0.3", "--rho", "0.15"])
    assert code == EXIT_VALIDATION
    assert "test closeness needs --samples-q" in capsys.readouterr().err
    assert main(_UNIFORMITY_ARGS) == EXIT_VALIDATION
    assert "test uniformity needs --samples" in capsys.readouterr().err


def test_uniformity_zero_m_scale_is_validation_error(tmp_path, capsys):
    # m_scale = 0 would give m = 0 and accept any file
    path = tmp_path / "s.txt"
    _uniform_file(path, 2)
    assert main(_UNIFORMITY_ARGS + ["--samples", str(path), "--m-scale", "0"]) == (
        EXIT_VALIDATION
    )
    assert "m_scale must be positive" in capsys.readouterr().err


def test_sample_values_outside_the_domain_are_validation_errors(tmp_path, capsys):
    p_file, q_file = tmp_path / "p.txt", tmp_path / "q.txt"
    closeness = ["test", "closeness", "--samples-p", str(p_file), "--samples-q",
                 str(q_file), "--n", "50", "--epsilon", "0.3", "--rho", "0.15"]
    _write_samples(q_file, [0, 1, 2])
    for bad in (59, 50, -1):
        _write_samples(p_file, [0, 49, bad, 7])
        assert main(closeness) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"line 3: sample {bad} lies outside the domain [0, 50)" in err

    path = tmp_path / "pairs.txt"
    for bad in ((1, 8), (8, 1), (-1, 0)):
        _write_pairs(path, [(0, 0), (7, 7), bad, (1, 1)])
        assert main(_independence_args(tmp_path, path)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"line 3: sample {list(bad)} lies outside the domain [0, 8) x [0, 8)" in err

    path.write_text("0 0\n1 2 3\n")
    assert main(_independence_args(tmp_path, path)) == EXIT_VALIDATION
    assert "line 2 holds 3 values, not 2" in capsys.readouterr().err


def test_experiment_command_with_check(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "kind": "closeness-acceptance", "seed": 7, "trials": 20,
        "params": {"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform",
                   "check": {"min:accept_rate": 0.9}},
    }))
    code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--check"])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "closeness-acceptance-records.csv").exists()
    capsys.readouterr()

    cfg.write_text(json.dumps({
        "schema": 1, "kind": "closeness-acceptance", "seed": 7, "trials": 20,
        "params": {"n": 100, "epsilon": 0.3, "rho": 0.1,
                   "instance": "uniform-vs-half-flat",
                   "check": {"min:accept_rate": 0.9}},
    }))
    code = main(["experiment", "--config", str(cfg), "--check"])
    assert code == EXIT_CHECK_FAILED


@pytest.mark.parametrize("key", ["mni:accept_rate", "accept_rate", "min:", "Min:accept_rate"])
def test_experiment_check_keys_other_than_min_and_max_are_named(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "kind": "closeness-acceptance", "seed": 7, "trials": 2,
        "params": {"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform",
                   "check": {"max:accept_rate": 1.0, key: 0.9}},
    }))
    assert main(["experiment", "--config", str(cfg), "--check"]) == EXIT_VALIDATION
    assert repr(key) in capsys.readouterr().err
    # without --check the keys are not read
    assert main(["experiment", "--config", str(cfg)]) == EXIT_OK


_ACCEPTANCE = {"schema": 1, "kind": "closeness-acceptance", "seed": 7, "trials": 2}
_ACCEPTANCE_PARAMS = {"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"}


@pytest.mark.parametrize("config, named", [
    ({**_ACCEPTANCE, "params": {**_ACCEPTANCE_PARAMS, "check": {"max:accept_rate": "5"}}},
     "'max:accept_rate'"),
    ({**_ACCEPTANCE, "params": {**_ACCEPTANCE_PARAMS, "check": {"min:accept_rate": True}}},
     "'min:accept_rate'"),
    ({**_ACCEPTANCE, "params": {**_ACCEPTANCE_PARAMS, "check": [1]}}, "'check'"),
    # a misspelled or empty table would leave the run unguarded
    ({**_ACCEPTANCE, "params": {**_ACCEPTANCE_PARAMS, "chek": {"min:accept_rate": 0.9}}},
     "'check'"),
    ({**_ACCEPTANCE, "params": {**_ACCEPTANCE_PARAMS, "check": {}}}, "'check'"),
    ([1, 2], "must hold a JSON object"),
    ({**_ACCEPTANCE, "params": [1]}, "params"),
], ids=["string-bound", "bool-bound", "check-list", "misspelled-check", "empty-check",
        "config-list", "params-list"])
def test_experiment_config_of_the_wrong_shape_fails_before_the_run(
    tmp_path, capsys, monkeypatch, config, named
):
    monkeypatch.setattr("replitest.cli.run_experiment",
                        lambda *args, **kwargs: pytest.fail("the experiment ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg), "--check"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""  # no aggregate
    assert named in err


@pytest.mark.parametrize("config, named", [
    ({**_ACCEPTANCE, "seed": True, "params": _ACCEPTANCE_PARAMS}, "seed"),
    ({**_ACCEPTANCE, "trials": 2.7, "params": _ACCEPTANCE_PARAMS}, "trials"),
    ({**_ACCEPTANCE, "params": {**_ACCEPTANCE_PARAMS, "n": 100.9}}, "n"),
    ({**_ACCEPTANCE, "kind": "independence-acceptance",
      "params": {"n1": 40, "n2": 20, "epsilon": 0.35, "rho": 0.2, "instance": "product",
                 "k_avg": True}}, "k_avg"),
], ids=["bool-seed", "fractional-trials", "fractional-n", "bool-k_avg"])
def test_experiment_casts_that_lose_data_are_named(tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{named} must be int" in err


_HARD_META = {**_ACCEPTANCE_PARAMS, "instance": "hard-meta"}
_CONCENTRATION = {"n": 100, "epsilon": 0.3, "rho": 0.1, "xi_grid": [0.0, 0.2]}
_MIXING = {"kernel": "coordinate", "n": 1000, "m": 100, "xi": 0.2}


@pytest.mark.parametrize("kind, params, named", [
    ("closeness-acceptance", {**_HARD_META, "hard_m": 100.9}, "hard_m"),
    ("closeness-acceptance", {**_HARD_META, "hard_m": "abc"}, "hard_m"),
    ("closeness-acceptance", {**_ACCEPTANCE_PARAMS, "n": "1e2"}, "n"),
    ("concentration", {**_CONCENTRATION, "draws_per_xi": 2.7}, "draws_per_xi"),
    ("concentration", {**_CONCENTRATION, "draws_per_xi": True}, "draws_per_xi"),
    ("mixing", {**_MIXING, "delta": True}, "delta"),
    ("mixing", {**_MIXING, "delta": "abc"}, "delta"),
    ("calibrate", {**_ACCEPTANCE_PARAMS, "calibration_trials": 2.7}, "calibration_trials"),
    # JSON reads 1e400 as inf; a c2 of inf once ended in an AssertionError traceback
    ("calibrate", {**_ACCEPTANCE_PARAMS, "c2": 1e400}, "c2"),
], ids=["fractional-hard_m", "string-hard_m", "string-n", "fractional-draws_per_xi",
        "bool-draws_per_xi", "bool-delta", "string-delta", "fractional-calibration_trials",
        "inf-c2"])
def test_parameters_that_do_not_cast_are_named(tmp_path, capsys, kind, params, named):
    path = tmp_path / "cfg.json"
    if kind == "calibrate":
        path.write_text(json.dumps(params))
        argv = ["calibrate", "--kind", "closeness", "--params", str(path)]
    else:
        path.write_text(json.dumps({"schema": 1, "kind": kind, "seed": 1, "trials": 2,
                                    "params": params}))
        argv = ["experiment", "--config", str(path)]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{named} must be " in err


@pytest.mark.parametrize("argv, params, named", [
    (["experiment"], {**_CONCENTRATION, "draws_per_xi": 0}, "draws_per_xi must be >= 1"),
    (["calibrate", "--kind", "closeness"], {**_ACCEPTANCE_PARAMS, "calibration_trials": 0},
     "calibration_trials must be >= 1"),
    (["calibrate", "--kind", "independence"],
     {"n1": 20, "n2": 10, "epsilon": 0.35, "rho": 0.2, "calibration_trials": 1},
     "calibration_trials must be >= 2"),
], ids=["zero-draws_per_xi", "zero-closeness-calibration_trials",
        "one-independence-calibration_trial"])
def test_counts_below_their_least_are_named(tmp_path, capsys, argv, params, named):
    # zero draws or trials would report NaN or divide by zero; the
    # independence spread sd_z_a (ddof=1) needs two trials
    path = tmp_path / "cfg.json"
    if argv[0] == "calibrate":
        path.write_text(json.dumps(params))
        argv = [*argv, "--params", str(path)]
    else:
        path.write_text(json.dumps({"schema": 1, "kind": "concentration", "seed": 1,
                                    "trials": 2, "params": params}))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


@pytest.mark.parametrize("config, named", [
    ({**_ACCEPTANCE, "kind": ["mixing"], "params": _MIXING}, "kind"),
    ({**_ACCEPTANCE, "kind": "replicability",
      "params": {**_ACCEPTANCE_PARAMS, "tester": ["closeness"]}}, "tester"),
    ({**_ACCEPTANCE, "kind": "mixing", "params": {**_MIXING, "kernel": ["coordinate"]}},
     "kernel"),
    ({**_ACCEPTANCE, "params": _ACCEPTANCE_PARAMS, "out": 5}, "out"),
    ({**_ACCEPTANCE, "params": {**_ACCEPTANCE_PARAMS, "instance": "file", "instance_file": 5}},
     "instance_file"),
    ({**_ACCEPTANCE, "params": {**_ACCEPTANCE_PARAMS, "instance": ["uniform"]}}, "instance"),
], ids=["kind", "tester", "kernel", "out", "instance_file", "instance"])
def test_config_names_and_paths_that_are_not_strings_are_named(tmp_path, capsys, config, named):
    # each of these once ended in a TypeError traceback: an unhashable
    # name used as a key, or a number given to Path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{named} must be a " in err


@pytest.mark.parametrize("kind, params, message", [
    ("replicability", {**_ACCEPTANCE_PARAMS, "tester": "nope"},
     "unknown tester 'nope'; expected one of closeness, uniformity, independence"),
    ("closeness-acceptance", {**_ACCEPTANCE_PARAMS, "instance": "nope"},
     "unknown instance 'nope'; expected one of uniform, zipf, uniform-vs-half-flat, hard-meta, "
     "file"),
    ("mixing", {**_MIXING, "kernel": "nope"},
     "unknown kernel 'nope'; expected one of coordinate, closeness-pair"),
    ("nope", _ACCEPTANCE_PARAMS,
     "unknown experiment kind 'nope'; expected one of closeness-acceptance, "
     "uniformity-acceptance, independence-acceptance, replicability, variance-audit, mixing, "
     "concentration"),
], ids=["tester", "instance", "kernel", "kind"])
def test_unknown_names_list_the_choices(tmp_path, capsys, kind, params, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_ACCEPTANCE, "kind": kind, "params": params}))
    assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, params, named", [
    ("closeness-acceptance", {"instance": "hard-meta", "hard_m": 60}, "hard_m"),
    ("uniformity-acceptance", {"instance": "hard-meta", "xi": 0.5}, "xi"),
], ids=["hard_m", "xi"])
def test_hard_meta_parameters_are_refused_before_a_draw(tmp_path, capsys, monkeypatch,
                                                        kind, params, named):
    # at n = 100, hard_m = 60 leaves the sublinear regime m < n/2, and
    # xi = 0.5 lies above epsilon = 0.3; each once failed only when the
    # first trial drew its instance
    from replitest import experiments, hard_instances

    draws = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            draws.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "draw_meta_closeness",
                        counted(experiments.draw_meta_closeness))
    monkeypatch.setattr(hard_instances, "draw_uniformity_hard",
                        counted(hard_instances.draw_uniformity_hard))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_ACCEPTANCE, "kind": kind,
                               "params": {**_ACCEPTANCE_PARAMS, **params}}))
    assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"hard-meta parameter {named!r}" in err
    assert draws == []


def test_test_and_calibrate_build_no_instance(tmp_path, capsys, monkeypatch):
    # each command resolves only its tester: with every instance builder
    # raising, it gives the same output
    from replitest import experiments

    def build(params, config):
        raise AssertionError("an instance was built")

    samples = tmp_path / "s.txt"
    _uniform_file(samples, 2)
    commands = [
        [*_UNIFORMITY_ARGS, "--samples", str(samples)],
        ["calibrate", "--kind", "uniformity", "--n", "500", "--epsilon", "0.3", "--rho", "0.1"],
        ["calibrate", "--kind", "closeness", "--params", str(tmp_path / "closeness.json")],
        ["calibrate", "--kind", "independence", "--params", str(tmp_path / "independence.json")],
    ]
    (tmp_path / "closeness.json").write_text(json.dumps(
        {"n": 100, "epsilon": 0.3, "rho": 0.1, "calibration_trials": 3}))
    (tmp_path / "independence.json").write_text(json.dumps(
        {"n1": 20, "n2": 10, "epsilon": 0.35, "rho": 0.2, "m_scale": 0.05,
         "calibration_trials": 2}))
    for argv in commands:
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr().out
        with monkeypatch.context() as patch:
            for name, (cls, test, instances) in experiments.TESTERS.items():
                patch.setitem(experiments.TESTERS, name,
                              (cls, test, dict.fromkeys(instances, build)))
            assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected


def test_experiment_command_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema": 1, "kind": "nope", "seed": 1, "trials": 5}))
    assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION


@pytest.mark.parametrize("kind, params, missing", [
    ("replicability", {"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "hard-meta"},
     "hard_m"),
    ("mixing", {"kernel": "coordinate", "n": 1000, "m": 100}, "xi"),
])
def test_experiment_missing_parameter_is_named(tmp_path, capsys, kind, params, missing):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "kind": kind, "seed": 1, "trials": 2,
                               "params": params}))
    assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
    assert repr(missing) in capsys.readouterr().err


def test_report_command_recomputes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "kind": "closeness-acceptance", "seed": 9, "trials": 12,
        "params": {"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"},
    }))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    first = json.loads(capsys.readouterr().out)
    records = tmp_path / "o" / "closeness-acceptance-records.csv"
    assert main(["report", "--records", str(records),
                 "--kind", "closeness-acceptance"]) == EXIT_OK
    second = json.loads(capsys.readouterr().out)
    assert second["accept_rate"] == pytest.approx(first["aggregate"]["accept_rate"])


def test_report_matches_experiment_for_variance_audit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "kind": "variance-audit", "seed": 9, "trials": 12,
        "params": {"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"},
    }))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    first = json.loads(capsys.readouterr().out)["aggregate"]
    records = tmp_path / "o" / "variance-audit-records.csv"
    assert main(["report", "--records", str(records), "--kind", "variance-audit"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == pytest.approx(first)

    lines = records.read_text().splitlines()
    assert lines[0] == "trial,statistic,m"
    records.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    assert main(["report", "--records", str(records), "--kind", "variance-audit"]) == (
        EXIT_VALIDATION
    )
    assert "'m' column" in capsys.readouterr().err


def test_calibrate_command(tmp_path, capsys):
    out = tmp_path / "constants.json"
    code = main(["calibrate", "--kind", "uniformity", "--n", "500",
                 "--epsilon", "0.3", "--rho", "0.1", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["calibrated_gap"] is True


def test_mixing_command(capsys):
    code = main(["mixing", "--kernel", "coordinate", "--n", "1000", "--m", "100",
                 "--xi", "0.2", "--delta", "0.04", "--initial", "poisson"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["tau_delta"] <= 2


def test_mixing_command_defaults_live_in_the_mixing_experiment(capsys):
    base = ["mixing", "--n", "1000", "--m", "100", "--xi", "0.2"]
    assert main(base) == EXIT_OK
    implicit = json.loads(capsys.readouterr().out)
    assert main(base + ["--delta", "0.04", "--kernel", "coordinate",
                        "--initial", "all"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == implicit
    assert implicit["delta"] == 0.04 and implicit["initial"] == "all"


def test_mixing_command_closeness_pair_default_truncation(capsys):
    # 1,936 states; the seed values of bench/mixing_reference.json
    code = main(["mixing", "--kernel", "closeness-pair", "--n", "100", "--m", "10",
                 "--epsilon", "0.24", "--xi", "0"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["tau_delta"] == 7
    assert abs(out["gap_estimate"] - 0.4634972953683334) <= 1e-8


@pytest.mark.parametrize("extra, named", [
    (["--a-max", "3"], "a_max = 3 truncates"),
    (["--delta", "0"], "delta must be > 0"),
    (["--delta", "-1"], "delta must be > 0"),
    (["--delta", "nan"], "delta must be a finite number, not nan"),
    (["--delta", "inf"], "delta must be a finite number, not inf"),
    (["--a-max", "-7"], "a_max must be >= 0, or -1 for the default, not -7"),
], ids=["a_max-too-small", "zero-delta", "negative-delta", "nan-delta", "inf-delta",
        "negative-a_max"])
def test_mixing_input_errors_name_their_parameter(capsys, extra, named):
    # a truncation that loses mass, or a delta no curve can fall below,
    # is the caller's to fix: exit 2 with the field named, no traceback
    code = main(["mixing", "--kernel", "closeness-pair", "--n", "100", "--m", "10",
                 "--epsilon", "0.24", "--xi", "0.1", *extra])
    assert code == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


def test_mixing_walk_that_does_not_mix_names_delta(capsys):
    # at xi = 0.9 and rate 100 the walk is still about 1 from stationary
    # after 64 steps; max_steps is no parameter, so the advice is delta
    code = main(["mixing", "--kernel", "coordinate", "--n", "10", "--m", "1000", "--xi", "0.9"])
    assert code == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert "did not mix below delta=0.04" in err and "raise delta" in err


def test_variance_audit_of_one_trial_is_named(tmp_path, capsys, monkeypatch):
    # the sample variance (ddof=1) of one trial is NaN, which JSON cannot
    # hold; the experiment refuses the count before it runs a verdict
    from replitest import experiments

    def verdict(*args, **kwargs):
        raise AssertionError("a verdict ran")

    cls, _, instance = experiments.TESTERS["closeness"]
    monkeypatch.setitem(experiments.TESTERS, "closeness", (cls, verdict, instance))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "kind": "variance-audit", "seed": 9, "trials": 1,
                               "params": {"n": 100, "epsilon": 0.3, "rho": 0.1}}))
    records = tmp_path / "records.csv"
    records.write_text("trial,statistic,m\n0,3,781\n")
    for argv in (["experiment", "--config", str(cfg)],
                 ["report", "--records", str(records), "--kind", "variance-audit"]):
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert "variance-audit needs trials >= 2, not 1" in err


@pytest.mark.parametrize("content", [
    None,
    {"params": {}},
    [1, 2],
    {"measures": [{"masses": [1.0, 2.0]}]},
    {"measures": [{"masses": [1.0, -1.0], "shape": [2]}]},
    {"measures": 5},
], ids=["directory", "no-measures", "list", "no-shape", "negative-mass", "measures-number"])
def test_instance_file_that_holds_no_measures_is_named(tmp_path, capsys, content):
    # each of the first three once ended in a traceback with exit 1
    path = tmp_path / "instance.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(content))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_ACCEPTANCE, "params": {
        **_ACCEPTANCE_PARAMS, "instance": "file", "instance_file": str(path)}}))
    assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"instance file {path}" in err


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the library and the CLI run on numpy.
    src = str(Path(replitest.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, replitest, replitest.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
