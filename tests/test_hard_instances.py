import json
import math

import numpy as np
import pytest
from scipy import stats

from replitest.experiments import _load_instance_measures
from replitest.hard_instances import (
    ClosenessHardParams,
    UniformityHardParams,
    draw_closeness_hard,
    draw_meta_closeness,
    draw_meta_uniformity,
    draw_uniformity_hard,
    instance_to_json,
)
from replitest.measures import uniform_measure
from replitest.rng import RngStream
from replitest.sampling import sample_counts_poissonized
from replitest.walks import log_poisson_pmf

from oracles import l1_distance

ROOT = RngStream(777, "hard-instance-tests")


def test_param_validation():
    with pytest.raises(ValueError):
        UniformityHardParams(10, 0.2, 0.3)  # xi > epsilon
    with pytest.raises(ValueError):
        ClosenessHardParams(100, 60, 0.2, 0.1)  # m >= n/2


def test_uniformity_xi_zero_is_uniform():
    p = draw_uniformity_hard(UniformityHardParams(64, 0.2, 0.0), ROOT.substream("u0"))
    np.testing.assert_allclose(p.masses, 1 / 64)


def test_uniformity_l1_to_uniform_is_exactly_xi():
    params = UniformityHardParams(128, 0.2, 0.15)
    for t in range(20):
        p = draw_uniformity_hard(params, ROOT.substream("l1", t))
        assert l1_distance(p, uniform_measure(128)) == pytest.approx(0.15, abs=1e-12)


def test_uniformity_two_point_support_and_norm_window():
    params = UniformityHardParams(200, 0.24, 0.24)
    allowed = {(1 + 0.24) / 200, (1 - 0.24) / 200}
    for t in range(50):
        p = draw_uniformity_hard(params, ROOT.substream("supp", t))
        for mass in p.masses:
            assert min(abs(mass - a) for a in allowed) < 1e-15
        assert 0.5 < p.total_mass() < 2.0


def test_uniformity_total_mass_unbiased():
    params = UniformityHardParams(100, 0.2, 0.2)
    draws = 10**4
    totals = np.array(
        [draw_uniformity_hard(params, ROOT.substream("mass", t)).total_mass()
         for t in range(draws)]
    )
    # per-draw sd is xi/sqrt(n)
    sigma = 0.2 / math.sqrt(100) / math.sqrt(draws)
    assert abs(totals.mean() - 1.0) <= 3 * sigma


def test_meta_uniformity_xi_distribution_and_support():
    draws = 10**4
    eps = 0.2
    xis = np.empty(draws)
    for t in range(draws):
        xi, p = draw_meta_uniformity(50, eps, ROOT.substream("meta", t))
        xis[t] = xi
    sigma = eps / math.sqrt(12) / math.sqrt(draws)
    assert abs(xis.mean() - eps / 2) <= 3 * sigma
    xi, p = draw_meta_uniformity(50, 0.0, ROOT.substream("meta-eps0"))
    assert xi == 0.0
    np.testing.assert_allclose(p.masses, 1 / 50)


def test_meta_uniformity_per_entry_support():
    xi, p = draw_meta_uniformity(64, 0.2, ROOT.substream("meta-supp"))
    residual = np.minimum(
        np.abs(p.masses - (1 + xi) / 64), np.abs(p.masses - (1 - xi) / 64)
    )
    assert residual.max() < 1e-15


def test_closeness_xi_zero_pairs_equal():
    params = ClosenessHardParams(100, 10, 0.2, 0.0)
    p, q = draw_closeness_hard(params, ROOT.substream("c0"))
    np.testing.assert_array_equal(p.masses, q.masses)


def test_closeness_light_branch_values():
    # n=100, m=10, eps=0.2, xi=0.1 -> light masses 0.5/180 and 0.3/180
    params = ClosenessHardParams(100, 10, 0.2, 0.1)
    p, q = draw_closeness_hard(params, ROOT.substream("light"))
    hi, lo = 0.5 / 180, 0.3 / 180
    heavy = (1 - 0.2) / 10
    allowed = {round(v, 18) for v in (hi, lo, heavy)}
    for mass in np.concatenate([p.masses, q.masses]):
        assert min(abs(mass - a) for a in allowed) < 1e-15
    light = p.masses != heavy
    assert set(np.round(p.masses[light], 15)) <= {round(hi, 15), round(lo, 15)}
    # swapped pairing on light buckets
    np.testing.assert_allclose(p.masses[light] + q.masses[light], hi + lo)


def test_closeness_three_branch_support_and_norm_window():
    params = ClosenessHardParams(1000, 100, 0.24, 0.2)
    expected = {
        (1 - 0.24) / 100,
        (2 * 0.24 + 0.2) / (2 * 900),
        (2 * 0.24 - 0.2) / (2 * 900),
    }
    for t in range(20):
        p, q = draw_closeness_hard(params, ROOT.substream("supp3", t))
        for measure in (p, q):
            for mass in measure.masses:
                assert min(abs(mass - a) for a in expected) < 1e-15
            assert 0.5 < measure.total_mass() < 2.0


def test_closeness_total_mass_and_l1_unbiased():
    params = ClosenessHardParams(100, 10, 0.2, 0.1)
    draws = 10**4
    totals = np.empty(draws)
    l1s = np.empty(draws)
    for t in range(draws):
        p, q = draw_closeness_hard(params, ROOT.substream("mass", t))
        totals[t] = p.total_mass()
        l1s[t] = l1_distance(p, q)
    assert abs(totals.mean() - 1.0) <= 3 * totals.std(ddof=1) / math.sqrt(draws)
    assert abs(l1s.mean() - 0.1) <= 3 * l1s.std(ddof=1) / math.sqrt(draws)


def test_meta_closeness_draws_valid_xi():
    xi, p, q = draw_meta_closeness(100, 10, 0.2, ROOT.substream("meta-c"))
    assert 0 <= xi <= 0.2
    assert p.size == q.size == 100


def test_poissonized_bucket_matches_two_poisson_mixture():
    # fixed xi: bucket counts across instance draws follow the mixture
    # (1/2) Poi(m(1+xi)/n) + (1/2) Poi(m(1-xi)/n)
    n, m, xi = 50, 200, 0.2
    params = UniformityHardParams(n, 0.24, xi)
    draws = 10**4
    counts = np.empty(draws, dtype=int)
    for t in range(draws):
        p = draw_uniformity_hard(params, ROOT.substream("mix", t))
        counts[t] = sample_counts_poissonized(p, m, ROOT.substream("mix-s", t))[0]
    hi, lo = m * (1 + xi) / n, m * (1 - xi) / n
    support = np.arange(25)
    pmf = 0.5 * np.exp(log_poisson_pmf(support, hi)) + 0.5 * np.exp(
        log_poisson_pmf(support, lo)
    )
    observed = np.bincount(np.minimum(counts, 24), minlength=25)
    expected = pmf * draws
    expected[-1] = draws - expected[:-1].sum()
    keep = expected >= 5
    obs = np.r_[observed[keep], observed[~keep].sum()]
    exp = np.r_[expected[keep], expected[~keep].sum()]
    result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert result.pvalue >= 1e-3


def test_instance_json_round_trip(tmp_path):
    # the file is read back as a ``file`` instance reads it
    params = ClosenessHardParams(100, 10, 0.2, 0.1)
    p, q = draw_closeness_hard(params, ROOT.substream("json"))
    text = instance_to_json(params, [p, q])
    path = tmp_path / "instance.json"
    path.write_text(text)
    measures = _load_instance_measures({"instance_file": str(path)}, 2)
    loaded_params = json.loads(text)["params"]
    assert loaded_params["n"] == 100 and loaded_params["xi"] == 0.1
    np.testing.assert_array_equal(measures[0].masses, p.masses)
    np.testing.assert_array_equal(measures[1].masses, q.masses)
