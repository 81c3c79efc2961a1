import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import replitest
from replitest import experiments
from replitest.experiments import (
    ConfigError,
    ExperimentConfig,
    ReplicabilityResult,
    calibrate,
    closeness_pair_fn,
    config_from_params,
    measure_replicability,
    recompute_aggregate,
    run_experiment,
)
from replitest.calibrated import INDEPENDENCE_DESK
from replitest.closeness import ClosenessConfig, rep_closeness_test
from replitest.independence import IndependenceConfig
from replitest.uniformity import UniformityConfig
from replitest.measures import uniform_measure
from replitest.rng import RngStream
from replitest.sampling import measure_sampler

ROOT = RngStream(515, "experiment-tests")


def test_constant_tester_never_disagrees():
    result = measure_replicability(lambda s: (True, True), 500, ROOT.substream("const"))
    assert result.rate == 0.0


def test_coin_tester_disagrees_half_the_time():
    def coin_pair(stream):
        a = stream.substream("sample-1").generator().random() < 0.5
        b = stream.substream("sample-2").generator().random() < 0.5
        return a, b

    pairs = 10**4
    result = measure_replicability(coin_pair, pairs, ROOT.substream("coin"))
    sigma = math.sqrt(0.25 / pairs)
    assert abs(result.rate - 0.5) <= 3 * sigma


def test_replicability_result_stderr():
    result = ReplicabilityResult(pairs=400, disagreements=40)
    assert result.rate == 0.1
    assert result.stderr == pytest.approx(math.sqrt(0.09 / 400))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig("nope", seed=1, trials=10)
    with pytest.raises(ConfigError):
        ExperimentConfig("mixing", seed=1, trials=0)


def test_calibration_kind_is_unknown(tmp_path):
    # calibrate() is the only calibration entry point
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "kind": "calibration", "seed": 1, "trials": 1}))
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig.from_json_file(path)


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "variance-audit", "seed": 5, "trials": 20,
        "params": {"n": 50, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"},
    }))
    config = ExperimentConfig.from_json_file(path)
    assert config.kind == "variance-audit"
    assert config.trials == 20
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(tmp_path / "missing.json")
    path.write_text(json.dumps({"schema": 99, "kind": "mixing", "seed": 1, "trials": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(path)


def test_experiment_determinism_bit_for_bit(tmp_path):
    config = ExperimentConfig(
        "closeness-acceptance", seed=11, trials=15,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"},
    )
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.records == second.records
    assert first.aggregate == second.aggregate


# The acceptance kinds run one trial function bound to a tester name,
# which the process pool must pickle.
@pytest.mark.parametrize("kind", ["variance-audit", "closeness-acceptance"])
def test_parallel_trials_match_sequential(kind):
    config = ExperimentConfig(
        kind, seed=21, trials=16,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"},
    )
    sequential = run_experiment(config, processes=1)
    parallel = run_experiment(config, processes=2)
    assert sequential.records == parallel.records
    assert sequential.aggregate == parallel.aggregate
    assert [r["trial"] for r in parallel.records] == list(range(16))


def test_parallel_trials_send_a_measure_that_keeps_its_sampler(monkeypatch):
    # a fixed instance's measure keeps the sampler its first draw built;
    # the pool must still receive the measure
    p = uniform_measure(100)
    measure_sampler(p)(10, ROOT.substream("warm").generator())
    monkeypatch.setitem(experiments.TESTERS["closeness"][2], "uniform",
                        lambda params, config: experiments._twice(p))
    config = ExperimentConfig(
        "closeness-acceptance", seed=23, trials=6,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"},
    )
    assert run_experiment(config, processes=2).records == run_experiment(config).records


@pytest.mark.parametrize("kind, params, name", [
    ("closeness-acceptance", {"n": 100, "epsilon": 0.3, "rho": 0.1}, "instance"),
    ("replicability", {"n": 100, "epsilon": 0.3, "rho": 0.1}, "tester"),
    ("mixing", {"n": 1000, "m": 100, "xi": 0.2}, "kernel"),
])
def test_a_null_name_takes_its_default(kind, params, name):
    # JSON null counts as absent, as it does for a tester config field
    def records(params):
        return run_experiment(ExperimentConfig(kind, seed=4, trials=3, params=params)).records

    assert records({**params, name: None}) == records(params)


def _closeness_file(tmp_path) -> Path:
    from replitest.hard_instances import (
        ClosenessHardParams,
        draw_closeness_hard,
        instance_to_json,
    )

    params = ClosenessHardParams(100, 10, 0.2, 0.1)
    path = tmp_path / "instance.json"
    measures = draw_closeness_hard(params, ROOT.substream("file"))
    path.write_text(instance_to_json(params, list(measures)))
    return path


# The pool receives the resolved tester, so every instance drawer pickles.
@pytest.mark.parametrize("kind, instance", [
    ("uniformity-acceptance", {"instance": "meta-epsilon"}),
    ("closeness-acceptance", {"instance": "file"}),
], ids=["meta-epsilon", "file"])
def test_parallel_trials_pickle_their_instance(tmp_path, kind, instance):
    params = {"n": 100, "epsilon": 0.3, "rho": 0.1, **instance,
              "instance_file": str(_closeness_file(tmp_path))}
    config = ExperimentConfig(kind, seed=22, trials=6, params=params)
    sequential = run_experiment(config, processes=1)
    parallel = run_experiment(config, processes=2)
    assert sequential.records == parallel.records
    assert sequential.aggregate == parallel.aggregate


def test_file_instance_is_resolved_once_per_experiment(tmp_path, monkeypatch):
    calls = {"load": 0, "config": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "_load_instance_measures",
                        counted("load", experiments._load_instance_measures))
    monkeypatch.setattr(experiments, "config_from_params",
                        counted("config", experiments.config_from_params))
    config = ExperimentConfig(
        "closeness-acceptance", seed=8, trials=5,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1,
                "instance": "file", "instance_file": str(_closeness_file(tmp_path))},
    )
    assert len(run_experiment(config).records) == 5
    assert calls == {"load": 1, "config": 1}


def test_process_pool_is_imported_only_for_a_parallel_run():
    # a fresh interpreter: the import must not load the pool, and a
    # parallel run, which loads it, must give the sequential records
    src = str(Path(replitest.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = (
        "import sys\n"
        "from replitest.experiments import ExperimentConfig, run_experiment\n"
        "print('concurrent.futures.process' in sys.modules)\n"
        "config = ExperimentConfig('variance-audit', seed=5, trials=4,\n"
        "                          params={'n': 100, 'epsilon': 0.3, 'rho': 0.1})\n"
        "print(run_experiment(config, processes=2).records\n"
        "      == run_experiment(config, processes=1).records)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]


@pytest.mark.parametrize("kind", ["closeness-acceptance", "replicability", "variance-audit"])
def test_aggregate_order_independent(kind):
    config = ExperimentConfig(
        kind, seed=12, trials=20,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"},
    )
    result = run_experiment(config)
    shuffled = list(result.records)
    RngStream(1, "shuffle").generator().shuffle(shuffled)
    recomputed = recompute_aggregate(config.kind, shuffled)
    assert recomputed.keys() == result.aggregate.keys()
    for key, value in result.aggregate.items():
        assert recomputed[key] == pytest.approx(value, abs=1e-12)


def test_recompute_names_missing_column():
    with pytest.raises(ConfigError, match="'m' column"):
        recompute_aggregate("variance-audit", [{"trial": 0, "statistic": 3}])
    with pytest.raises(ConfigError, match="no aggregate"):
        recompute_aggregate("mixing", [{"t": 0}])
    with pytest.raises(ConfigError, match="no records"):
        recompute_aggregate("replicability", [])


_OPTIONAL_FIELDS = {
    ClosenessConfig: {"c1": st.floats(0.5, 3.0), "c2": st.floats(3.0, 9.0),
                      "m_scale": st.floats(0.5, 4.0)},
    UniformityConfig: {"c1_u": st.floats(0.0, 2.0), "c2_u": st.floats(0.1, 2.0),
                       "m_scale": st.floats(0.05, 4.0)},
    IndependenceConfig: {"c_n": st.floats(0.5, 8.0), "c_i1": st.floats(0.0, 2.0),
                         "c_i2": st.floats(2.5, 8.0), "k_avg": st.integers(1, 400),
                         "median_reps": st.sampled_from([1, 3, 5]),
                         "m_scale": st.floats(0.01, 2.0)},
}
_REQUIRED = {
    ClosenessConfig: {"n": 100, "epsilon": 0.3, "rho": 0.1},
    UniformityConfig: {"n": 500, "epsilon": 0.3, "rho": 0.1},
    IndependenceConfig: {"n1": 40, "n2": 20, "epsilon": 0.35, "rho": 0.2},
}


@st.composite
def _config_params(draw):
    cls = draw(st.sampled_from(list(_OPTIONAL_FIELDS)))
    fields = _OPTIONAL_FIELDS[cls]
    chosen = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
    return cls, {name: draw(fields[name]) for name in chosen}


@given(_config_params(), st.dictionaries(st.sampled_from(["kind", "instance", "seed", "zz"]),
                                         st.integers()))
@settings(max_examples=80, deadline=None)
def test_config_from_params_matches_explicit_construction(cls_and_subset, unknown):
    cls, subset = cls_and_subset
    explicit_kwargs = {**_REQUIRED[cls], **subset}
    try:
        explicit = cls(**explicit_kwargs)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            config_from_params(cls, {**unknown, **explicit_kwargs})
        return
    assert config_from_params(cls, {**unknown, **explicit_kwargs}) == explicit


def test_config_from_params_casts_and_names_missing_fields():
    built = config_from_params(
        IndependenceConfig, {"n1": "40", "n2": 20.0, "epsilon": "0.35", "rho": 0.2,
                             "k_avg": 10.0, "median_reps": None},
    )
    assert built == IndependenceConfig(40, 20, 0.35, 0.2, k_avg=10)
    assert isinstance(built.n1, int) and isinstance(built.k_avg, int)
    with pytest.raises(ConfigError, match="epsilon"):
        config_from_params(ClosenessConfig, {"n": 100, "rho": 0.1})


def test_variance_audit_outputs_mean_and_variance():
    config = ExperimentConfig(
        "variance-audit", seed=3, trials=50,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"},
    )
    result = run_experiment(config)
    assert set(result.aggregate) >= {"m", "mean", "variance", "variance_per_m"}
    assert result.aggregate["variance"] > 0


def test_variance_audit_records_the_testers_statistic():
    params = {"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"}
    records = run_experiment(ExperimentConfig("variance-audit", 6, 5, params)).records
    config, p = ClosenessConfig(100, 0.3, 0.1), uniform_measure(100)
    root = RngStream(6, "variance-audit")
    for t, record in enumerate(records):
        verdict = rep_closeness_test(p, p, config, root.substream("trial", t))
        assert record == {"trial": t, "statistic": verdict.statistic, "m": config.sample_size()}


def test_replicability_kind_runs_uniformity_meta():
    config = ExperimentConfig(
        "replicability", seed=4, trials=30,
        params={"tester": "uniformity", "n": 200, "epsilon": 0.3, "rho": 0.1,
                "instance": "hard-meta", "xi": 0.1},
    )
    result = run_experiment(config)
    assert 0.0 <= result.aggregate["disagreement_rate"] <= 1.0


def test_replicability_kind_runs_independence():
    # criterion 2's rule on the paper's new tester: product (40, 20) sits
    # far below the threshold, so paired runs should almost never disagree
    rho = 0.2
    config = ExperimentConfig(
        "replicability", seed=6, trials=20,
        params={"tester": "independence", "n1": 40, "n2": 20, "epsilon": 0.35,
                "rho": rho, **INDEPENDENCE_DESK, "instance": "product-uniform"},
    )
    aggregate = run_experiment(config).aggregate
    assert aggregate["pairs"] == 20
    assert aggregate["disagreement_rate"] <= rho + 3 * aggregate["stderr"]


def test_replicability_unknown_tester_or_instance_is_config_error():
    params = {"n": 200, "epsilon": 0.3, "rho": 0.1}
    for extra in ({"tester": "uniformity", "instance": "zipf"},
                  {"tester": "closeness", "instance": "nope"},
                  {"tester": "independence", "n1": 20, "n2": 10, "instance": "diagonal"},
                  {"tester": "nope"}):
        config = ExperimentConfig("replicability", seed=1, trials=2,
                                  params={**params, **extra})
        with pytest.raises(ConfigError):
            run_experiment(config)


def test_mixing_kind_relabels_only_a_walk_that_did_not_mix(monkeypatch):
    # "raise delta" is advice for a NotMixedError only
    def fails(*args, **kwargs):
        raise RuntimeError("not a mixing failure")

    monkeypatch.setattr(experiments, "estimate_mixing", fails)
    params = {"kernel": "coordinate", "n": 1000, "m": 100, "xi": 0.2}
    with pytest.raises(RuntimeError, match="not a mixing failure") as info:
        run_experiment(ExperimentConfig("mixing", seed=5, trials=1, params=params))
    assert not isinstance(info.value, ConfigError)


def test_mixing_kind_produces_curve():
    config = ExperimentConfig(
        "mixing", seed=5, trials=1,
        params={"kernel": "coordinate", "n": 1000, "m": 100, "xi": 0.2,
                "delta": 0.04, "initial": "poisson"},
    )
    result = run_experiment(config)
    assert result.aggregate["tau_delta"] <= 2
    assert result.records[0]["t"] == 0


_CONCENTRATION = {"n": 100, "epsilon": 0.3, "rho": 0.1, "xi_grid": [0.0, 0.1, 0.2, 0.3],
                  "draws_per_xi": 12}


def test_concentration_kind_accepts_uniform_instances():
    # at xi = 0 every instance is uniform and the tester is complete
    rows = run_experiment(ExperimentConfig("concentration", 3, 50, _CONCENTRATION)).records
    assert rows[0]["xi"] == 0.0
    assert rows[0]["mean_acceptance"] >= 0.9


def test_concentration_kind_disperses_at_most_half():
    # one internal string: the tester is a fixed function of the counts,
    # and at an adequate budget the per-instance acceptance probabilities
    # deviate from their mean by > 1/4 on at most half of the instances,
    # at every xi (at xi = 0 all instances coincide)
    result = run_experiment(ExperimentConfig("concentration", 4, 50, _CONCENTRATION))
    assert [r["xi"] for r in result.records] == _CONCENTRATION["xi_grid"]
    assert all(r["deviation_fraction"] <= 0.5 for r in result.records)
    assert result.records[0]["deviation_fraction"] == 0.0
    assert result.aggregate["max_deviation_fraction"] <= 0.5


@pytest.mark.parametrize("grid", [[0.0, 0.5], [-0.1], 0.1, [], ["x"]])
def test_concentration_kind_refuses_xi_grid_off_zero_to_epsilon(grid):
    config = ExperimentConfig("concentration", 3, 2, {**_CONCENTRATION, "xi_grid": grid})
    with pytest.raises(ConfigError, match="xi_grid"):
        run_experiment(config)


def test_results_round_trip_through_files(tmp_path):
    config = ExperimentConfig(
        "closeness-acceptance", seed=13, trials=10,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1, "instance": "uniform"},
        out=str(tmp_path),
    )
    result = run_experiment(config)
    csv_path, json_path = result.write(tmp_path)
    assert csv_path.exists() and json_path.exists()
    payload = json.loads(json_path.read_text())
    assert payload["aggregate"] == result.aggregate
    text = csv_path.read_text().strip().splitlines()
    assert len(text) == 11  # header + 10 trials


def test_file_instance_experiment(tmp_path):
    from replitest.hard_instances import (
        ClosenessHardParams,
        draw_closeness_hard,
        instance_to_json,
    )

    params = ClosenessHardParams(100, 10, 0.2, 0.0)
    p, q = draw_closeness_hard(params, ROOT.substream("file-inst"))
    path = tmp_path / "instance.json"
    path.write_text(instance_to_json(params, [p, q]))
    config = ExperimentConfig(
        "closeness-acceptance", seed=8, trials=10,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1,
                "instance": "file", "instance_file": str(path)},
    )
    result = run_experiment(config)
    assert result.aggregate["accept_rate"] >= 0.9  # xi = 0: identical pair


@pytest.mark.parametrize(
    "kind", ["closeness-acceptance", "variance-audit", "uniformity-acceptance"]
)
def test_file_instance_off_the_domain_is_refused(tmp_path, kind):
    # measures on [120] with n = 100 (two for a closeness kind, one for
    # uniformity): every tester refuses them rather than count them on
    # the larger domain
    from replitest.hard_instances import (
        ClosenessHardParams,
        UniformityHardParams,
        instance_to_json,
    )
    from replitest.measures import zipf_measure

    path = tmp_path / "instance.json"
    if kind == "uniformity-acceptance":
        path.write_text(instance_to_json(UniformityHardParams(120, 0.2, 0.0),
                                         [uniform_measure(120)]))
    else:
        path.write_text(instance_to_json(ClosenessHardParams(120, 10, 0.2, 0.0),
                                         [uniform_measure(120), zipf_measure(120)]))
    config = ExperimentConfig(
        kind, seed=8, trials=5,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1,
                "instance": "file", "instance_file": str(path)},
    )
    with pytest.raises(ValueError, match=r"measure shape \(120,\) != configured \(100,\)"):
        run_experiment(config)


def test_file_instance_missing_is_config_error():
    config = ExperimentConfig(
        "closeness-acceptance", seed=8, trials=5,
        params={"n": 100, "epsilon": 0.3, "rho": 0.1,
                "instance": "file", "instance_file": "/nonexistent.json"},
    )
    with pytest.raises(ConfigError):
        run_experiment(config)


def test_calibrate_closeness_reports_rates():
    constants = calibrate(
        "closeness",
        {"n": 100, "epsilon": 0.3, "rho": 0.1, "calibration_trials": 20},
        seed=2,
    )
    assert constants["complete_accept_rate"] >= 0.9
    assert constants["far_reject_rate"] >= 0.9


def test_calibrate_closeness_rates_are_the_acceptance_kinds():
    params = {"n": 100, "epsilon": 0.3, "rho": 0.1, "calibration_trials": 12}
    constants = calibrate("closeness", params, seed=5)
    for instance, key, rate in [("uniform", "complete_accept_rate", "accept_rate"),
                                ("uniform-vs-half-flat", "far_reject_rate", "reject_rate")]:
        config = ExperimentConfig("closeness-acceptance", 5, 12, {**params, "instance": instance})
        assert constants[key] == run_experiment(config).aggregate[rate]


def test_calibrate_uniformity_reports_gap():
    constants = calibrate("uniformity", {"n": 500, "epsilon": 0.3, "rho": 0.1})
    assert constants["calibrated_gap"] is True
    assert constants["floor"] > constants["ceiling"]


def test_calibrate_independence_reports_the_collision_scale():
    params = {"n1": 40, "n2": 20, "epsilon": 0.35, "rho": 0.2, **INDEPENDENCE_DESK,
              "calibration_trials": 10}
    constants = calibrate("independence", params, seed=3)
    assert set(constants) == {
        "kind", "m", "c_n", "c_i1", "c_i2", "k_avg", "median_reps", "m_scale",
        "mean_n_a", "n_a_over_scale", "sd_z_a", "gap_scale",
    }
    config = IndependenceConfig(n1=40, n2=20, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK)
    assert constants["m"] == config.sample_size()
    assert constants["mean_n_a"] > 0 and constants["sd_z_a"] > 0
    # criterion 08's rule on the uniform product: E[N_a] <= C_N * scale
    assert constants["n_a_over_scale"] <= constants["c_n"]


def test_calibrate_unknown_kind():
    with pytest.raises(ConfigError):
        calibrate("nope", {})


def test_closeness_pair_fn_shares_internal_draws():
    config = ClosenessConfig(n=100, epsilon=0.3, rho=0.1)
    p = uniform_measure(100)
    fn = closeness_pair_fn(p, p, config)
    a, b = fn(ROOT.substream("pairfn"))
    assert isinstance(a, (bool, np.bool_)) and isinstance(b, (bool, np.bool_))
