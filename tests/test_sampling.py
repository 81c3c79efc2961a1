import math

import numpy as np
from hypothesis import given, settings, strategies as st

from replitest.measures import measure_1d, uniform_measure
from replitest.rng import RngStream
from replitest.sampling import (
    counts_from_indices,
    measure_sampler,
    multinomial_split,
    sample_counts_poissonized,
)

ROOT = RngStream(20240811, "sampling-tests")


def _fixed_counts(p, m, rng):
    """Counts of exactly ``m`` iid samples from ``p``, as the closeness tester draws them."""
    return counts_from_indices(measure_sampler(p)(m, rng.generator()), p.size)


def test_poissonized_zero_budget_gives_zero_counts():
    counts = sample_counts_poissonized(uniform_measure(7), 0, ROOT.substream("z"))
    assert counts.tolist() == [0] * 7


def test_poissonized_zero_measure_gives_zero_counts():
    zero = measure_1d(np.zeros(5))
    counts = sample_counts_poissonized(zero, 1000, ROOT.substream("z0"))
    assert counts.tolist() == [0] * 5


def test_poissonized_mean_and_coordinate_independence():
    # one pass of 1e5 Poissonized draws feeds the mean band and the
    # cross-coordinate correlation check
    p = uniform_measure(10)
    m = 1000
    draws = 10**5
    stream = ROOT.substream("poi-mean")
    first = np.empty(draws)
    second = np.empty(draws)
    for t in range(draws):
        counts = sample_counts_poissonized(p, m, stream.substream(t))
        first[t] = counts[0]
        second[t] = counts[1]
    assert abs(first.mean() - 100.0) <= 1.0  # 3-sigma band is ~0.095
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) <= 0.01


def test_fixed_point_mass_is_degenerate():
    counts = _fixed_counts(measure_1d(np.eye(6)[2]), 5, ROOT.substream("pm"))
    assert counts.tolist() == [0, 0, 5, 0, 0, 0]


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_fixed_conserves_total(m, n):
    counts = _fixed_counts(uniform_measure(n), m, RngStream(5, f"fix/{m}/{n}"))
    assert counts.sum() == m
    assert np.all(counts >= 0)


def test_fixed_two_coin_probability():
    # P(counts = (1,1)) for two fair-coin samples is exactly 1/2
    p = measure_1d([0.5, 0.5])
    draws = 10**5
    # one generator for all draws: counts[0] == 1 iff a pair holds one 0
    pairs = measure_sampler(p)(2 * draws, ROOT.substream("coin").generator())
    rate = (pairs.reshape(draws, 2).sum(axis=1) == 1).mean()
    sigma = math.sqrt(0.25 / draws)
    assert abs(rate - 0.5) <= 3 * sigma


def test_split_sums_to_total():
    parts = multinomial_split(4 * 750, 4, ROOT.substream("split"))
    assert parts.sum() == 3000
    assert parts.shape == (4,)


def test_split_zero_total():
    assert multinomial_split(0, 4, ROOT.substream("split0")).tolist() == [0, 0, 0, 0]


def test_split_concentration():
    # each part of Multinom(4000, 1/4) is within 1000 +/- 100 in >= 99% of draws
    draws = 10**4
    stream = ROOT.substream("split-conc")
    ok = 0
    for t in range(draws):
        parts = multinomial_split(4000, 4, stream.substream(t))
        ok += np.all(np.abs(parts - 1000) <= 100)
    assert ok / draws >= 0.99


def test_determinism_bit_for_bit():
    p = uniform_measure(50)
    s = RngStream(3141, "repeat")
    a = sample_counts_poissonized(p, 123, s)
    b = sample_counts_poissonized(p, 123, s)
    np.testing.assert_array_equal(a, b)
    c = _fixed_counts(p, 77, s)
    d = _fixed_counts(p, 77, s)
    np.testing.assert_array_equal(c, d)


def test_measure_sampler_counts_match_probabilities():
    p = measure_1d([0.7, 0.2, 0.1])
    gen = ROOT.substream("ms").generator()
    counts = counts_from_indices(measure_sampler(p)(30000, gen), 3)
    np.testing.assert_allclose(counts / 30000, p.masses, atol=0.02)

