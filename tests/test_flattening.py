from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replitest.flattening import non_singleton_count, pack_keys, subbin_indices
from replitest.rng import RngStream

from oracles import FlattenAssignment, flatten_1d, flatten_by_definition, max_subbin_count

ROOT = RngStream(99, "flatten-tests")


def _identity_assignment(flags):
    flags = np.asarray(flags, dtype=np.int8)
    return FlattenAssignment(flags, np.arange(flags.size))


def test_hand_simulated_example():
    # three copies of element 5, middle one is a divider, identity order
    out = flatten_1d([5, 5, 5], _identity_assignment([0, 1, 0]))
    assert out == [(5, 0), (5, 1)]


def test_no_dividers_returns_input_with_zero_tags():
    out = flatten_1d([3, 1, 4, 1], _identity_assignment([0, 0, 0, 0]))
    assert out == [(3, 0), (1, 0), (4, 0), (1, 0)]


def test_all_dividers_returns_empty():
    assert flatten_1d([3, 1, 4], _identity_assignment([1, 1, 1])) == []


def test_assignment_validation():
    with pytest.raises(ValueError):
        FlattenAssignment(np.array([0, 2]), np.array([0, 1]))  # non-binary
    with pytest.raises(ValueError):
        FlattenAssignment(np.array([0, 0]), np.array([0, 0]))  # not a permutation


samples_strategy = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=24)


@given(samples_strategy, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_mass_conservation_and_projection(values, rnd):
    k = len(values)
    flags = np.array([rnd.randint(0, 1) for _ in range(k)], dtype=np.int8)
    sigma = np.array(rnd.sample(range(k), k))
    out = flatten_1d(values, FlattenAssignment(flags, sigma))
    kept = [v for v, f in zip(values, flags) if f == 0]
    assert len(out) == len(kept)
    assert [v for v, _ in out] == kept  # projection recovers the kept multiset in order


@given(samples_strategy, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_matches_literal_definition(values, rnd):
    k = len(values)
    flags = [rnd.randint(0, 1) for _ in range(k)]
    sigma = np.array(rnd.sample(range(k), k))
    out = flatten_1d(values, FlattenAssignment(np.array(flags, dtype=np.int8), sigma))
    order = list(np.argsort(sigma))
    assert out == flatten_by_definition(values, flags, order)


def test_collisions_require_same_tag():
    # dividers between equal elements place them in distinct sub-bins
    out = flatten_1d([7, 7, 7, 7], _identity_assignment([0, 1, 0, 0]))
    assert out == [(7, 0), (7, 1), (7, 1)]
    assert non_singleton_count(out) == 2


def test_exchangeability_under_input_relabeling():
    # enumerating every order, the histogram of sub-bin multiplicity
    # profiles is invariant under permuting the input samples
    values = [2, 2, 2, 9, 9]
    flags = [1, 0, 0, 1, 0]

    def histogram(vals, flgs):
        hist = Counter()
        k = len(vals)
        for order in permutations(range(k)):
            sigma = np.empty(k, dtype=np.int64)
            for pos, sample in enumerate(order):
                sigma[sample] = pos
            out = flatten_1d(vals, FlattenAssignment(np.array(flgs, dtype=np.int8), sigma))
            profile = tuple(sorted(Counter(out).values()))
            hist[profile] += 1
        return hist

    base = histogram(values, flags)
    relabeled = histogram([9, 2, 2, 9, 2], [1, 1, 0, 0, 0])
    # same multiset of (value, flag) pairs, different input order
    assert base == relabeled


def test_non_singleton_count_examples():
    assert non_singleton_count([1, 2, 3]) == 0
    assert non_singleton_count([(1, 0), (1, 0), (2, 0), (3, 1)]) == 2
    assert non_singleton_count(["a", "a", "a", "b", "b"]) == 5
    assert non_singleton_count(np.array([4, 4, 4, 9, 9])) == 5
    assert non_singleton_count(np.array([], dtype=np.int64)) == 0


@given(
    st.lists(st.integers(min_value=0, max_value=8), max_size=40),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_non_singleton_count_matches_definition(values, pairs):
    counts = Counter(values)
    expected = sum(c for c in counts.values() if c >= 2)
    assert non_singleton_count(values) == expected
    assert non_singleton_count(np.array(values, dtype=np.int64)) == expected
    pair_counts = Counter(pairs)
    assert non_singleton_count(pairs) == sum(c for c in pair_counts.values() if c >= 2)
    assert max_subbin_count(pairs) == max(pair_counts.values(), default=0)


def test_max_subbin_count_examples():
    assert max_subbin_count([]) == 0
    assert max_subbin_count(np.array([], dtype=np.int64)) == 0
    out = flatten_1d([6] * 9, _identity_assignment([0] * 9))
    assert max_subbin_count(out) == 9


def test_subbin_indices_vectorized_agrees_with_reference():
    gen = ROOT.substream("vec").generator()
    values = gen.integers(0, 4, size=200)
    flags = (gen.random(200) < 0.3).astype(np.int8)
    sigma = gen.permutation(200)
    fast = subbin_indices(values, flags, sigma)
    order = list(np.argsort(sigma))
    literal = flatten_by_definition(values.tolist(), flags.tolist(), order)
    kept = flags == 0
    assert [(v, s) for v, s in zip(values[kept], fast[kept])] == literal


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_subbin_indices_matches_definition_on_wide_values(data):
    pool = data.draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4))
    values = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    flags = data.draw(st.lists(st.integers(0, 1), min_size=len(values),
                               max_size=len(values)))
    sigma = np.array(data.draw(st.permutations(range(len(values)))))
    tags = subbin_indices(np.array(values), np.array(flags), sigma)
    literal = flatten_by_definition(values, flags, list(np.argsort(sigma)))
    kept = np.array(flags) == 0
    assert [(v, int(t)) for v, t in zip(np.array(values)[kept], tags[kept])] == literal


def test_subbin_indices_overflow_is_an_error():
    # values * len(values) + sigma must fit in int64
    with pytest.raises(OverflowError):
        subbin_indices(np.array([2**62, 0, 1]), np.zeros(3), np.arange(3))
    assert subbin_indices(np.array([2**61, 2**61]), np.array([1, 0]),
                          np.arange(2)).tolist() == [0, 1]


def _literal_tags(values, flags, sigma):
    kept = np.asarray(flags) == 0
    literal = flatten_by_definition(list(values), list(flags), list(np.argsort(sigma)))
    return kept, [t for _, t in literal]


def test_subbin_indices_writes_no_input():
    gen = ROOT.substream("inputs").generator()
    values = gen.integers(-5, 5, size=300)
    flags = gen.random(300) < 0.2
    sigma = gen.permutation(300)
    copies = (values.copy(), flags.copy(), sigma.copy())
    subbin_indices(values, flags, sigma)
    for array, copy in zip((values, flags, sigma), copies):
        assert np.array_equal(array, copy)


def test_subbin_indices_dtypes_give_the_same_tags():
    gen = ROOT.substream("dtypes").generator()
    values = gen.integers(0, 7, size=400)
    flags = gen.random(400) < 0.25
    sigma = gen.permutation(400)
    tags = subbin_indices(values, flags, sigma)
    assert tags.dtype == np.int64
    for f in (flags, flags.astype(np.int8), flags.astype(np.int64)):
        for s in (sigma, sigma.astype(np.int32)):
            assert np.array_equal(subbin_indices(values, f, s), tags)
    kept, literal = _literal_tags(values, flags, sigma)
    assert tags[kept].tolist() == literal


@pytest.mark.parametrize("values, flags, sigma, tags", [
    # negative values sort below the others and keep apart from them
    ([-3, -3, 2, -3, 2], [1, 0, 1, 0, 0], [4, 0, 2, 1, 3], [0, 0, 0, 0, 1]),
    ([-2**40, 5, -2**40], [1, 0, 0], [0, 1, 2], [0, 0, 1]),
    # one sample
    ([7], [0], [0], [0]),
    ([7], [1], [0], [0]),
    # every sample flagged, and none
    ([1, 1, 1, 2], [1, 1, 1, 1], [2, 0, 1, 3], [2, 0, 1, 0]),
    ([1, 1, 1, 2], [0, 0, 0, 0], [2, 0, 1, 3], [0, 0, 0, 0]),
], ids=["negative", "wide-negative", "one-kept", "one-flagged", "all-flagged", "none-flagged"])
def test_subbin_indices_small_cases(values, flags, sigma, tags):
    got = subbin_indices(np.array(values), np.array(flags), np.array(sigma))
    assert got.tolist() == tags
    kept, literal = _literal_tags(values, flags, sigma)
    assert got[kept].tolist() == literal


def test_subbin_indices_matches_definition_at_chunk_scale():
    # one chunk of averaged independence runs: about 2^14 items, a few
    # hundred (run, row) values and one flagged item in ten
    gen = ROOT.substream("chunk").generator()
    k = 2**14
    values = gen.integers(0, 480, size=k)
    flags = np.zeros(k, dtype=bool)
    flags[gen.choice(k, size=1500, replace=False)] = True
    sigma = gen.permutation(k)
    tags = subbin_indices(values, flags, sigma)
    kept, literal = _literal_tags(values.tolist(), flags.tolist(), sigma)
    assert tags[kept].tolist() == literal
    assert max(literal) > 2


def test_pack_keys_injective_on_tuples():
    gen = ROOT.substream("pack").generator()
    cols = [gen.integers(0, 9, size=500) for _ in range(4)]
    keys = pack_keys(*cols)
    tuples = list(zip(*[c.tolist() for c in cols]))
    assert len(set(keys.tolist())) == len(set(tuples))
    assert Counter(Counter(keys.tolist()).values()) == Counter(Counter(tuples).values())
