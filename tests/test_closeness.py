import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replitest.calibrated import INDEPENDENCE_DESK
from replitest.cli import _pool_sampler
from replitest.closeness import (
    ClosenessConfig,
    closeness_sample_size,
    closeness_statistic,
    rep_closeness_test,
    soundness_floor,
)
from replitest.independence import IndependenceConfig, independence_gap, stage1_scale
from replitest.measures import half_flat_measure, measure_1d, uniform_measure
from replitest.rng import RngStream
from replitest.verdict import (
    CalibrationError,
    draw_gap_threshold,
    gap_verdict,
    uniform_threshold,
)

ROOT = RngStream(424242, "closeness-tests")

counts = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30)


def test_sample_size_direct_evaluation():
    # n=1, eps=rho=1/4: the three terms are 16, 64 and 256
    assert closeness_sample_size(1, 0.25, 0.25) == 336


def test_sample_size_scales_linearly_in_m_scale():
    base = closeness_sample_size(100, 0.3, 0.1, m_scale=1.0)
    doubled = closeness_sample_size(100, 0.3, 0.1, m_scale=2.0)
    assert abs(doubled - 2 * base) <= 1


def test_sample_size_nondecreasing_in_n():
    sizes = [closeness_sample_size(n, 0.2, 0.1) for n in (1, 10, 100, 1000, 10000)]
    assert sizes == sorted(sizes)


def test_statistic_hand_values():
    assert closeness_statistic([5], [5], [5], [5]) == 0
    assert closeness_statistic([3], [2], [1], [2]) == 0  # 2 + 0 - 1 - 1
    assert closeness_statistic([4], [4], [0], [0]) == 8  # 4 + 4 - 0 - 0


def test_statistic_identical_batches_vanish():
    x = np.array([3, 1, 4, 1, 5])
    assert closeness_statistic(x, x, x, x) == 0


def test_statistic_length_mismatch():
    with pytest.raises(ValueError):
        closeness_statistic([1, 2], [1], [1], [1])


@given(counts, counts, counts, counts)
@settings(max_examples=60, deadline=None)
def test_statistic_symmetric_under_side_swap(x, xp, y, yp):
    k = min(len(x), len(xp), len(y), len(yp))
    x, xp, y, yp = x[:k], xp[:k], y[:k], yp[:k]
    assert closeness_statistic(x, xp, y, yp) == closeness_statistic(y, yp, x, xp)


def test_soundness_floor_direct_evaluation():
    assert soundness_floor(10**4, 100, 0.1, 1.0) == pytest.approx(1000.0)


def test_soundness_floor_zero_epsilon():
    assert soundness_floor(100, 10, 0.0, 5.0) == 0.0


def test_soundness_floor_nondecreasing_in_m():
    values = [soundness_floor(m, 100, 0.2, 2.0) for m in (10, 100, 1000, 10**4)]
    assert values == sorted(values)


def test_threshold_interval_endpoints():
    # ceiling C1 sqrt(m) = 100, R = 1000 -> r in (325, 775)
    for t in range(200):
        r, calibrated = draw_gap_threshold(100.0, 1000.0, ROOT.substream("thr", t))
        assert calibrated
        assert 325.0 < r < 775.0


def test_threshold_degenerate_interval():
    r, calibrated = draw_gap_threshold(100.0, 100.0 + 1e-9, ROOT.substream("deg"))
    assert calibrated
    assert r == pytest.approx(100.0, abs=1e-8)


def test_threshold_miscalibration_signals():
    # an empty gap draws nothing and flags the run uncalibrated
    for floor in (99.0, 100.0):
        assert draw_gap_threshold(100.0, floor, ROOT.substream("bad")) == (100.0, False)


def test_threshold_mean():
    # The one threshold law at its three uses: the 1D testers' middle half
    # of the gap (ceiling C1 sqrt(m) = 100, R = 1000), independence stage 1
    # on [2 C_N, 100 C_N] times its scale and stage 2 on [C_I1, C_I2]
    # times the gap, at the desk (40, 20). Every draw lies in its support
    # and the mean within 3 se of its midpoint; a uniform draw on
    # [low, high] has sd (high - low) / sqrt(12), so the middle half's
    # r0 ~ U(1/4, 3/4) has sd 1/(4 sqrt(3)).
    stream = ROOT.substream("thr-mean")
    config = IndependenceConfig(n1=40, n2=20, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK)
    m = config.sample_size()
    n_scale = stage1_scale(m, config.n1, config.n2)
    z_scale = independence_gap(m, config.n1, config.n2, config.epsilon)
    c_n, c_i1, c_i2 = config.c_n, config.c_i1, config.c_i2
    cases = [
        (lambda t: draw_gap_threshold(100.0, 1000.0, stream.substream(t))[0],
         100.0 + 225.0, 100.0 + 675.0, 10**5),
        (lambda t: uniform_threshold(stream.substream(t, "internal").substream("threshold-N"),
                                     2 * c_n, 100 * c_n, n_scale),
         2 * c_n * n_scale, 100 * c_n * n_scale, 2000),
        (lambda t: uniform_threshold(stream.substream(t, "internal").substream("threshold-Z"),
                                     c_i1, c_i2, z_scale),
         c_i1 * z_scale, c_i2 * z_scale, 2000),
    ]
    for draw, low, high, draws in cases:
        values = np.array([draw(t) for t in range(draws)])
        assert np.all((low <= values) & (values <= high))
        sigma = (high - low) / math.sqrt(12) / math.sqrt(draws)
        assert abs(values.mean() - (low + high) / 2) <= 3 * sigma


def test_gap_verdict_accepts_on_a_tie_and_rejects_just_above():
    internal = ROOT.substream("gap-verdict")
    r, calibrated = draw_gap_threshold(100.0, 1000.0, internal.substream("threshold"))
    assert calibrated
    tie = gap_verdict(r, 100.0, 1000.0, internal, {"m": 1})
    above = gap_verdict(math.nextafter(r, math.inf), 100.0, 1000.0, internal, {"m": 1})
    assert (tie.accept, tie.threshold, tie.calibrated, tie.detail) == (True, r, True, {"m": 1})
    assert (above.accept, above.threshold) == (False, r)


def test_gap_verdict_on_an_empty_gap_thresholds_at_the_ceiling():
    verdict = gap_verdict(100.0, 100.0, 100.0 - 1e-9, ROOT.substream("empty-gap"), {})
    assert (verdict.accept, verdict.threshold, verdict.calibrated) == (True, 100.0, False)


def test_gap_verdict_threshold_is_a_function_of_the_internal_stream():
    internal = ROOT.substream("gap-verdict-repeat")
    first = gap_verdict(0.0, 100.0, 1000.0, internal, {})
    second = gap_verdict(2000.0, 100.0, 1000.0, internal, {})
    assert first.threshold == second.threshold
    assert (first.accept, second.accept) == (True, False)


def test_config_enforces_gap_condition():
    ClosenessConfig(n=100, epsilon=0.3, rho=0.1)  # fine with defaults
    with pytest.raises(CalibrationError, match="raise m_scale or lower C1"):
        ClosenessConfig(n=100, epsilon=0.3, rho=0.1, c2=0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["c1", "c2"])
def test_config_refuses_a_constant_that_is_not_finite(field, value):
    # an infinite C2 used to pass the gap check and end in an assertion
    # of the threshold draw
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ClosenessConfig(n=100, epsilon=0.3, rho=0.1, **{field: value})


def test_verdict_monotone_in_statistic():
    r = 10.0
    accepts = [z <= r for z in range(0, 25)]
    assert accepts == sorted(accepts, reverse=True)


def test_point_mass_pair_accepts():
    config = ClosenessConfig(n=500, epsilon=0.3, rho=0.1)
    p = measure_1d(np.eye(500)[3])
    hits = sum(
        rep_closeness_test(p, p, config, ROOT.substream("pm", t)).accept
        for t in range(60)
    )
    assert hits / 60 >= 0.9


def test_measure_off_the_configured_domain_is_rejected():
    # counts of a measure on [50] would be zero-padded to n = 100 while
    # the thresholds assume the larger domain
    config = ClosenessConfig(n=100, epsilon=0.3, rho=0.1)
    with pytest.raises(ValueError, match=r"\(50,\) != configured \(100,\)"):
        rep_closeness_test(uniform_measure(50), half_flat_measure(50), config,
                           ROOT.substream("domain"))
    with pytest.raises(ValueError, match=r"\(50,\)"):
        rep_closeness_test(uniform_measure(100), uniform_measure(50), config,
                           ROOT.substream("domain"))


def test_shared_internal_stream_shares_split_and_threshold():
    config = ClosenessConfig(n=100, epsilon=0.3, rho=0.1)
    p = uniform_measure(100)
    base = ROOT.substream("shared")
    v1 = rep_closeness_test(p, p, config, base, sample_rng=base.substream("s1"))
    v2 = rep_closeness_test(p, p, config, base, sample_rng=base.substream("s2"))
    assert v1.threshold == v2.threshold
    assert v1.detail["split"] == v2.detail["split"]
    assert v1.statistic != v2.statistic  # fresh samples


def test_full_run_reproducible():
    config = ClosenessConfig(n=100, epsilon=0.3, rho=0.1)
    p = uniform_measure(100)
    v1 = rep_closeness_test(p, p, config, ROOT.substream("repr"))
    v2 = rep_closeness_test(p, p, config, ROOT.substream("repr"))
    assert (v1.accept, v1.statistic, v1.threshold) == (v2.accept, v2.statistic, v2.threshold)


def _pinned_inputs(m):
    """The three inputs of the pinned verdicts, built afresh for each run:
    two measures on [500], two far measures, and two pools of indices
    that ``replitest test closeness --samples`` consumes in order."""
    pools = np.random.default_rng(500)
    return {
        "uniform": (uniform_measure(500), uniform_measure(500)),
        "uniform-vs-half-flat": (uniform_measure(500), half_flat_measure(500)),
        "index-pools": (_pool_sampler(pools.integers(0, 500, 4 * m)),
                        _pool_sampler(pools.integers(0, 250, 4 * m))),
    }


# (statistic, threshold) at seeds 0, 1 and 2. Any change to the split,
# the index sampler or the count path that moves one draw moves these.
_PINNED = {
    "uniform": [(-66, "0x1.10bfb1428efb5p+11"), (-14, "0x1.5ce7b95c51539p+11"),
                (-112, "0x1.4a443d3397df8p+10")],
    "uniform-vs-half-flat": [(7310, "0x1.10bfb1428efb5p+11"), (7018, "0x1.5ce7b95c51539p+11"),
                             (6996, "0x1.4a443d3397df8p+10")],
    "index-pools": [(7460, "0x1.10bfb1428efb5p+11"), (7314, "0x1.5ce7b95c51539p+11"),
                    (7344, "0x1.4a443d3397df8p+10")],
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_verdicts_are_pinned_bit_for_bit(name):
    config = ClosenessConfig(n=500, epsilon=0.3, rho=0.1)
    got = []
    for seed in range(3):
        p, q = _pinned_inputs(config.sample_size())[name]
        verdict = rep_closeness_test(p, q, config, RngStream(seed, "pinned-closeness"))
        got.append((int(verdict.statistic), verdict.threshold.hex()))
    assert got == _PINNED[name]
