import json

import numpy as np
import pytest

from replitest.measures import (
    NonNegativeMeasure,
    diagonal_measure,
    half_flat_measure,
    measure_1d,
    measure_2d,
    uniform_measure,
    uniform_product_measure,
    zipf_measure,
)

from oracles import l1_distance, product_of_marginals, tv_distance


def test_rejects_negative_and_non_finite():
    with pytest.raises(ValueError):
        measure_1d([0.5, -0.1])
    with pytest.raises(ValueError):
        measure_1d([np.inf, 1.0])


def test_masses_are_a_read_only_copy():
    given = np.array([1.0, 2.0])
    p = measure_1d(given)
    with pytest.raises(ValueError):
        p.masses[0] = 1.0
    assert given.flags.writeable
    given[0] = 5.0
    assert p.masses.tolist() == [1.0, 2.0]


def test_total_mass_and_normalization():
    p = measure_1d([1.0, 3.0])
    assert p.total_mass() == 4.0
    q = p.normalized()
    assert q.total_mass() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(q.masses, [0.25, 0.75])


def test_marginals_are_row_and_column_sums():
    grid = np.array([[0.1, 0.2], [0.3, 0.4]])
    p = measure_2d(grid)
    rows, cols = p.marginals()
    np.testing.assert_allclose(rows, [0.3, 0.7])
    np.testing.assert_allclose(cols, [0.4, 0.6])


def test_tv_identity_is_zero():
    p = uniform_measure(10)
    assert tv_distance(p, p) == 0.0


def test_tv_disjoint_support_is_one():
    p = measure_1d([1.0, 0.0, 0.0, 0.0])
    q = measure_1d([0.0, 0.0, 0.0, 1.0])
    assert tv_distance(p, q) == 1.0


def test_tv_direct_substitution():
    p = measure_1d([0.5, 0.5])
    q = measure_1d([1.0, 0.0])
    assert tv_distance(p, q) == 0.5
    assert l1_distance(p, q) == 1.0


def test_domain_mismatch_raises():
    with pytest.raises(ValueError, match="domain mismatch"):
        tv_distance(uniform_measure(3), uniform_measure(4))


def test_half_flat_is_half_away_from_uniform():
    n = 500
    assert tv_distance(uniform_measure(n), half_flat_measure(n)) == pytest.approx(0.5)


def test_zipf_is_normalized_and_decreasing():
    p = zipf_measure(100)
    assert p.total_mass() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(p.masses) < 0)


def test_product_of_marginals_of_product_is_itself():
    p = uniform_product_measure(6, 4)
    q = product_of_marginals(p)
    np.testing.assert_allclose(q.masses, p.masses)


def test_diagonal_far_from_own_product():
    p = diagonal_measure(20)
    q = product_of_marginals(p)
    # numerically certifies the far-ness used by the acceptance experiments
    assert tv_distance(p, q) == pytest.approx(0.95)


def test_json_round_trip():
    # instance files store each measure as its to_dict() in JSON
    p = measure_2d(np.array([[0.1, 0.4], [0.2, 0.3]]))
    q = NonNegativeMeasure.from_dict(json.loads(json.dumps(p.to_dict())))
    assert q.shape == (2, 2)
    np.testing.assert_array_equal(q.masses, p.masses)
