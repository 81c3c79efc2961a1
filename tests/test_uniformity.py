import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import replitest.uniformity as un
from replitest.hard_instances import UniformityHardParams, draw_uniformity_hard
from replitest.measures import uniform_measure, uniform_product_measure
from replitest.rng import RngStream
from replitest.sampling import sample_counts_poissonized
from replitest.uniformity import (
    UniformityConfig,
    UniformityTester,
    rep_uniformity_test,
    uniformity_sample_size,
    uniformity_statistic,
)
from replitest.verdict import draw_gap_threshold

ROOT = RngStream(2718, "uniformity-tests")


def test_sample_size_formula():
    # sqrt(500) * (1/0.09) * 10 + (1/0.09) * 100, rounded up
    expected = math.ceil(math.sqrt(500) / 0.09 * 10 + 100 / 0.09)
    assert uniformity_sample_size(500, 0.3, 0.1) == expected


@pytest.mark.parametrize("m_scale", [0, -1])
def test_non_positive_m_scale_is_rejected(m_scale):
    # m_scale = 0 would give m = 0 and a zero threshold that accepts any source
    with pytest.raises(ValueError, match="m_scale must be positive"):
        uniformity_sample_size(100, 0.3, 0.1, m_scale=m_scale)
    with pytest.raises(ValueError, match="m_scale must be positive"):
        UniformityConfig(n=100, epsilon=0.3, rho=0.1, m_scale=m_scale)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["c1_u", "c2_u"])
def test_config_refuses_a_constant_that_is_not_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        UniformityConfig(n=100, epsilon=0.3, rho=0.1, **{field: value})


def test_statistic_flat_counts():
    # T_i = m/n exactly: Z = sum(0 - T_i) = -m
    counts = np.full(10, 5)
    assert uniformity_statistic(counts, 50) == -50.0


def test_statistic_two_bucket_example():
    # n=2, m=2, T=(2,0): (2-1)^2 - 2 + (0-1)^2 - 0 = 0
    assert uniformity_statistic(np.array([2, 0]), 2) == 0.0


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=40),
       st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_statistic_label_invariance(counts, rnd):
    counts = np.array(counts)
    m = int(counts.sum())
    shuffled = counts.copy()
    rnd.shuffle(shuffled)
    assert uniformity_statistic(counts, m) == pytest.approx(
        uniformity_statistic(shuffled, m)
    )


def test_statistic_unbiased_under_uniform_poissonized():
    n, m, trials = 100, 10**4, 10**4
    p = uniform_measure(n)
    stream = ROOT.substream("unbiased")
    values = np.empty(trials)
    for t in range(trials):
        counts = sample_counts_poissonized(p, m, stream.substream(t))
        values[t] = uniformity_statistic(counts, m)
    sem = values.std(ddof=1) / math.sqrt(trials)
    assert abs(values.mean()) <= 3 * sem


def test_threshold_always_inside_calibrated_gap():
    config = UniformityConfig(n=500, epsilon=0.3, rho=0.1)
    m = config.sample_size()
    lo, hi = config.completeness_ceiling(m), config.soundness_floor(m)
    assert lo < hi
    for t in range(200):
        r, calibrated = draw_gap_threshold(lo, hi, ROOT.substream("thr", t))
        assert calibrated
        assert lo < r < hi


def test_threshold_degenerates_when_undersampled():
    config = UniformityConfig(n=2000, epsilon=0.25, rho=0.1, m_scale=0.05)
    m = config.sample_size()
    assert not config.is_calibrated(m)
    r, calibrated = draw_gap_threshold(
        config.completeness_ceiling(m), config.soundness_floor(m), ROOT.substream("flat")
    )
    assert not calibrated
    assert r == config.completeness_ceiling(m)


def test_uniform_accepts_and_far_rejects():
    config = UniformityConfig(n=500, epsilon=0.3, rho=0.1)
    p = uniform_measure(500)
    accepts, rejects = 0, 0
    trials = 60
    for t in range(trials):
        accepts += rep_uniformity_test(p, config, ROOT.substream("acc", t)).accept
        far = draw_uniformity_hard(
            UniformityHardParams(500, 0.3, 0.3), ROOT.substream("far-inst", t)
        ).normalized()
        rejects += not rep_uniformity_test(far, config, ROOT.substream("far", t)).accept
    assert accepts / trials >= 0.9
    assert rejects / trials >= 0.9


def test_decide_counts_matches_run_pipeline():
    config = UniformityConfig(n=50, epsilon=0.3, rho=0.1)
    tester = UniformityTester(config)
    base = ROOT.substream("pipeline")
    verdict = tester.run(uniform_measure(50), base)
    counts = sample_counts_poissonized(
        uniform_measure(50), tester.m, base.substream("samples", "sample-1")
    )
    direct = tester.decide_counts(counts, base.substream("internal"))
    assert verdict.statistic == direct.statistic
    assert verdict.threshold == direct.threshold
    assert verdict.accept == direct.accept


@pytest.mark.parametrize("counts", [
    np.full(100, -5), np.full(100, 2.5), np.r_[np.ones(99), -1.0], np.r_[np.ones(99), np.nan],
], ids=["negative", "fractional", "one-negative-float", "nan"])
def test_decide_counts_refuses_counts_outside_the_sampling_model(counts):
    # these once gave statistics of 74,647 (negative) and 38,677
    # (fractional) and a reject
    tester = UniformityTester(UniformityConfig(n=100, epsilon=0.3, rho=0.1))
    with pytest.raises(ValueError, match="counts must be non-negative integers"):
        tester.decide_counts(counts, ROOT.substream("bad-counts"))


@pytest.mark.parametrize("measure, shape", [
    (uniform_product_measure(25, 20), "(25, 20)"),
    (uniform_measure(400), "(400,)"),
], ids=["2d", "wrong-length"])
def test_measure_off_the_domain_is_refused_before_any_draw(monkeypatch, measure, shape):
    monkeypatch.setattr(un, "sample_counts_poissonized",
                        lambda *args: pytest.fail("counts were drawn"))
    config = UniformityConfig(n=500, epsilon=0.3, rho=0.1)
    with pytest.raises(ValueError) as info:
        rep_uniformity_test(measure, config, RngStream(1))
    assert str(info.value) == f"measure shape {shape} != configured (500,)"


def test_index_sampler_source_supported():
    config = UniformityConfig(n=20, epsilon=0.3, rho=0.15)

    def sampler(k, gen):
        return gen.integers(0, 20, size=k)

    verdict = rep_uniformity_test(sampler, config, ROOT.substream("idx"))
    assert verdict.accept in (True, False)
    assert verdict.calibrated


def test_paired_runs_share_threshold():
    config = UniformityConfig(n=200, epsilon=0.3, rho=0.1)
    tester = UniformityTester(config)
    base = ROOT.substream("paired")
    p = uniform_measure(200)
    v1 = tester.run(p, base, sample_rng=base.substream("s1"))
    v2 = tester.run(p, base, sample_rng=base.substream("s2"))
    assert v1.threshold == v2.threshold
    assert v1.statistic != v2.statistic
