import numpy as np
import pytest
from hypothesis import given, strategies as st

from replitest.rng import RngStream


def test_same_identity_reproduces_bit_for_bit():
    a = RngStream(1234, "sample-1").generator().integers(0, 2**32, size=100)
    b = RngStream(1234, "sample-1").generator().integers(0, 2**32, size=100)
    np.testing.assert_array_equal(a, b)


def test_distinct_roles_differ():
    a = RngStream(1234, "sample-1").generator().integers(0, 2**32, size=100)
    b = RngStream(1234, "sample-2").generator().integers(0, 2**32, size=100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = RngStream(1, "internal").generator().random(50)
    b = RngStream(2, "internal").generator().random(50)
    assert not np.array_equal(a, b)


def test_substream_is_deterministic_and_namespaced():
    root = RngStream(7)
    assert root.substream("trial", 3) == RngStream(7, "root/trial/3")
    x = root.substream("trial", 3).generator().random(10)
    y = root.substream("trial", 3).generator().random(10)
    np.testing.assert_array_equal(x, y)
    z = root.substream("trial", 4).generator().random(10)
    assert not np.array_equal(x, z)


def test_substream_paths_do_not_collide_on_concatenation():
    # "a/bc" and "ab/c" must be distinct streams
    a = RngStream(3, "r").substream("a", "bc").generator().random(8)
    b = RngStream(3, "r").substream("ab", "c").generator().random(8)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("labels", [(), ("",), ("a", ""), ("a/b",), ("a", "/")])
def test_substream_refuses_labels_that_could_collide(labels):
    # ("a/b",) would equal ("a", "b"), and () would equal ("",)
    with pytest.raises(ValueError, match="non-empty and free of '/'"):
        RngStream(3, "r").substream(*labels)


def test_generator_restarts_at_stream_origin():
    s = RngStream(11, "threshold")
    first = s.generator().random(5)
    again = s.generator().random(5)
    np.testing.assert_array_equal(first, again)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.text(min_size=0, max_size=30))
def test_identity_determinism_property(seed, role):
    a = RngStream(seed, role).generator().integers(0, 2**62)
    b = RngStream(seed, role).generator().integers(0, 2**62)
    assert a == b


def test_streams_behave_independently_across_roles():
    # correlation between two role streams should be near zero
    a = RngStream(99, "flatten").generator().random(20000)
    b = RngStream(99, "marking").generator().random(20000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.03
