import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replitest import sampling
from replitest.measures import NonNegativeMeasure, measure_1d, uniform_measure
from replitest.rng import RngStream
from replitest.sampling import (
    _guide_buckets,
    counts_from_indices,
    measure_sampler,
    multinomial_split,
    sample_counts_poissonized,
)

from oracles import inverse_cdf_indices

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


@st.composite
def _measures(draw):
    """1D and 2D measures with zero cells, a dominant cell or near-zero cells."""
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 2000)),
        st.tuples(st.integers(1, 45), st.integers(1, 45)),
    ))
    size = math.prod(shape)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masses = gen.random(size)
    masses[gen.random(size) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0.0
    masses[gen.random(size) < draw(st.sampled_from([0.0, 0.5]))] *= 1e-12
    if draw(st.booleans()):
        masses[gen.integers(size)] = 1e6 * size
    if masses.sum() == 0:
        masses[gen.integers(size)] = 1.0
    return NonNegativeMeasure(masses, shape)


def _assert_same_draws(p, k, seed):
    """The sampler, the inverse-cdf oracle and ``Generator.choice`` agree,
    and each leaves its generator in the same state."""
    probs = p.normalized().masses
    gens = [np.random.default_rng(seed) for _ in range(3)]
    ours = measure_sampler(p)(k, gens[0])
    np.testing.assert_array_equal(ours, inverse_cdf_indices(probs, k, gens[1]))
    np.testing.assert_array_equal(ours, gens[2].choice(p.size, size=k, p=probs))
    assert ours.dtype == np.int64
    assert len({g.random() for g in gens}) == 1
    return ours


@given(_measures(), st.integers(0, 20000), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_measure_sampler_equals_inverse_cdf_and_choice(p, k, seed):
    _assert_same_draws(p, k, seed)


def test_measure_sampler_many_tiny_cells_in_one_guide_bucket():
    # 64 cells, 256 guide buckets: the 40 near-zero cells 1-40 all end
    # within 1e-11 of 40/256, so bucket 40 starts at cell 7 and
    # then holds the start of cell 41, with 1/64 of the mass. A draw of
    # cell 41 that lands in bucket 40 needs 34 forward steps and ends in
    # the bisection fallback.
    masses = np.zeros(64)
    masses[0] = 10 / 64
    masses[1:41] = 1e-12
    masses[41] = 1 / 64
    masses[42:] = (53 / 64) / 22
    p = measure_1d(masses)
    for seed in range(3):
        draws = _assert_same_draws(p, 20000, seed)
        assert np.count_nonzero(draws == 41) > 200


class _FixedUniforms:
    """Stands in for a generator whose ``random`` returns chosen values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, k):
        assert k == self.values.size
        return self.values.copy()


@pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 100, 500, 511, 512, 513,
                                  2**14 - 1, 2**14, 2**14 + 1])
def test_measure_sampler_at_cdf_and_bucket_edges(size):
    # Uniforms on and next to every cdf value and every g/size, g/P and
    # g/B boundary (P the power of two at or above size, B the guide's
    # bucket count), where a guide built on an inexact grid would start
    # past the answer.
    masses = np.random.default_rng(size).random(size)
    masses[::3] = 0.0
    masses[-1] = 1.0
    p = measure_1d(masses)
    probs = p.normalized().masses
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    cells, buckets = 1 << (size - 1).bit_length(), _guide_buckets(size)
    edges = np.concatenate([cdf, np.arange(size) / size, np.arange(cells) / cells,
                            np.arange(buckets) / buckets, np.arange(3 * size) / (3 * size)])
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = np.unique(u[(u >= 0.0) & (u < 1.0)])
    np.testing.assert_array_equal(
        measure_sampler(p)(u.size, _FixedUniforms(u)),
        inverse_cdf_indices(probs, u.size, _FixedUniforms(u)),
    )


@pytest.mark.parametrize("size, buckets", [
    (1, 4), (64, 256), (500, 2048), (2**14 - 1, 2**16), (2**14, 2**16), (2**14 + 1, 2**16),
    (2**15 + 1, 2**16), (10**6, 2**20),
])
def test_guide_has_four_buckets_per_cell_up_to_its_cap(size, buckets):
    # four buckets per cell up to 2**16 buckets; a domain of more than
    # 2**15 cells gets one per cell (rounded up to a power of two), as
    # every domain did before, so n = 10**6 builds no larger table
    assert _guide_buckets(size) == buckets


def test_measure_sampler_is_built_once_per_measure(monkeypatch):
    builds = []
    build = sampling._build_sampler

    def counted(p):
        builds.append(p)
        return build(p)

    monkeypatch.setattr(sampling, "_build_sampler", counted)
    p = uniform_measure(50)
    sampler = measure_sampler(p)
    sampler(100, ROOT.substream("once").generator())
    assert measure_sampler(p) is sampler
    assert len(builds) == 1
    measure_sampler(uniform_measure(50))
    assert len(builds) == 2


def test_a_sampled_measure_pickles_and_draws_the_same():
    p = measure_1d([0.5, 0.0, 0.2, 0.3])
    measure_sampler(p)(10, ROOT.substream("before-pickle").generator())
    q = pickle.loads(pickle.dumps(p))
    assert q.shape == p.shape
    assert not q.masses.flags.writeable
    np.testing.assert_array_equal(q.masses, p.masses)
    np.testing.assert_array_equal(measure_sampler(q)(1000, np.random.default_rng(9)),
                                  measure_sampler(p)(1000, np.random.default_rng(9)))


@pytest.mark.parametrize("size", [2, 3, 4, 5, 10, 11, 12, 100, 500])
def test_measure_sampler_below_non_dyadic_cell_boundaries(size):
    # A first cell of mass g/M (M not a power of two) puts a cdf value on
    # fl(g/M). Uniforms one to three ulps below it belong to that cell;
    # a guide on the grid g/M would map them to the bucket that starts
    # just after them.
    for grid in (size, 3 * size):
        for g in range((grid + 1) // 2, grid):
            first = g / grid
            masses = np.zeros(size)
            masses[0], masses[-1] = first, 1.0 - first
            u = [first, np.nextafter(first, 0.0)]
            for _ in range(2):
                u.append(np.nextafter(u[-1], 0.0))
            draws = measure_sampler(measure_1d(masses))(len(u), _FixedUniforms(u))
            assert draws.tolist() == [size - 1, 0, 0, 0], (grid, g)
