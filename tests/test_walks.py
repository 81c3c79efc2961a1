import contextlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from replitest import walks
from replitest.rng import RngStream
from replitest.walks import (
    ClosenessPairKernel,
    CoordKernel,
    NotMixedError,
    TruncationError,
    estimate_mixing,
    log_poisson_pmf,
    logsumexp,
    product_walk_tau,
)

from oracles import all_rows_l1, branch_mixture, dense_mixing_report, dense_product_report

ROOT = RngStream(161803, "walk-tests")


class TwoStateKernel:
    """Toy kernel [[0.9, 0.1], [0.2, 0.8]] with stationary (2/3, 1/3).

    Its factors are ``(I, P, pi)``, so its Poisson starts are the rows of ``P``.
    """

    def transition_matrix(self):
        return np.array([[0.9, 0.1], [0.2, 0.8]])

    def factors(self):
        return np.eye(2), self.transition_matrix(), self.stationary_vector()

    def stationary_vector(self):
        return np.array([2.0, 1.0]) / 3.0

    def initial_distributions(self):
        return dict(enumerate(self.transition_matrix()))


def test_log_poisson_pmf_and_logsumexp_match_scipy():
    grid = np.arange(400, dtype=np.float64).reshape(20, 20)
    for rate in (1e-3, 0.1, 1.0, 37.5, 300.0):
        np.testing.assert_allclose(
            log_poisson_pmf(grid, rate), stats.poisson.logpmf(grid, rate), rtol=1e-12
        )
    assert log_poisson_pmf(grid, 0.0)[0, 0] == 0.0
    assert np.all(log_poisson_pmf(grid, 0.0).ravel()[1:] == -np.inf)
    terms = ROOT.substream("lse").generator().normal(scale=50.0, size=(6, 4, 3))
    terms[0, 0] = -np.inf
    terms[1, 2, 1] = -np.inf
    with np.errstate(all="raise"):
        ours = logsumexp(terms, keepdims=True)
    ref = special.logsumexp(terms, axis=-1, keepdims=True)
    assert ours.shape == ref.shape and ours[0, 0, 0] == -np.inf
    np.testing.assert_allclose(ours, ref, rtol=1e-14)
    np.testing.assert_allclose(logsumexp(terms[1]), special.logsumexp(terms[1], axis=-1),
                               rtol=1e-14)


def test_xi_zero_transition_is_poisson_independent_of_state():
    k = CoordKernel(m=100, n=1000, xi=0.0)
    grid = np.arange(k.a_max + 1, dtype=np.float64)
    poisson_row = np.exp(log_poisson_pmf(grid, 0.1))
    for a in (0, 3, 17):
        np.testing.assert_allclose(
            k.transition(np.float64(a), grid), poisson_row, atol=1e-15
        )


def test_row_sums_across_rate_grid():
    for rate_m, rate_n in ((1, 10), (10, 10), (20, 10)):
        for xi in (0.0, 0.1, 0.24):
            k = CoordKernel(m=rate_m, n=rate_n, xi=xi, a_max=200)
            rows = np.arange(51, dtype=np.float64)
            matrix = k.transition(rows[:, None], np.arange(201, dtype=np.float64)[None, :])
            assert np.abs(matrix.sum(axis=1) - 1.0).max() < 1e-9


def test_stationary_sums_and_mixture_identity():
    k = CoordKernel(m=10, n=10, xi=0.2, a_max=120)
    states = np.arange(121, dtype=np.float64)
    pi = k.stationary(states)
    assert abs(pi.sum() - 1.0) < 1e-9
    hi, lo = k.branch_rates()
    mixture = 0.5 * np.exp(log_poisson_pmf(states, hi)) + 0.5 * np.exp(
        log_poisson_pmf(states, lo)
    )
    np.testing.assert_allclose(pi, mixture, rtol=1e-12)


def test_detailed_balance_coordinate():
    k = CoordKernel(m=10, n=10, xi=0.1, a_max=120)
    states = np.arange(51, dtype=np.float64)
    matrix = k.transition(states[:, None], states[None, :])
    pi = k.stationary(states)
    flow = pi[:, None] * matrix
    rel = np.abs(flow - flow.T) / np.maximum(np.abs(flow), 1e-300)
    assert rel.max() < 1e-10


def test_posterior_heavy_at_zero():
    k = CoordKernel(m=100, n=1000, xi=0.2)
    lam = 0.1
    expected = math.exp(-0.2 * lam) / (math.exp(-0.2 * lam) + math.exp(0.2 * lam))
    assert k.posterior_heavy(0) == pytest.approx(expected, rel=1e-12)
    # Monte Carlo branch frequency from state 0
    gen_draws = 10**5
    steps = k.step(np.zeros(gen_draws, dtype=np.int64), ROOT.substream("post"))
    hi, lo = k.branch_rates()
    # mean of the mixture: P(heavy|0) hi + (1 - P(heavy|0)) lo
    mean = expected * hi + (1 - expected) * lo
    sd = math.sqrt(mean / gen_draws) * 1.5
    assert abs(steps.mean() - mean) <= 4 * sd


def _stationary_counts(k, draws, rng):
    # The stationary law is the even mixture of the two branch Poissons.
    gen = rng.generator()
    hi, lo = k.branch_rates()
    return gen.poisson(np.where(gen.random(draws) < 0.5, hi, lo)).astype(np.int64)


def test_step_from_stationary_stays_stationary():
    k = CoordKernel(m=10, n=10, xi=0.2)
    draws = 10**5
    start = _stationary_counts(k, draws, ROOT.substream("pi"))
    stepped = k.step(start, ROOT.substream("step"))
    fresh = _stationary_counts(k, draws, ROOT.substream("pi2"))
    top = 8
    obs = np.bincount(np.minimum(stepped, top), minlength=top + 1)
    ref = np.bincount(np.minimum(fresh, top), minlength=top + 1)
    result = stats.chi2_contingency(np.stack([obs, ref]))
    assert result.pvalue >= 1e-3


def test_sample_rw_step_applies_per_bucket():
    # one step of the product walk is the coordinate step on every bucket
    k = CoordKernel(m=100, n=10, xi=0.1)
    counts = np.array([3, 0, 14, 9, 1, 2, 8, 10, 11, 4])
    out = k.step(counts, ROOT.substream("vecstep"))
    assert out.shape == counts.shape
    assert np.all(out >= 0)


def test_coord_step_keeps_the_shape_of_its_input():
    k = CoordKernel(m=100, n=10, xi=0.1)
    pair = k.step(np.array([3, 4]), ROOT.substream("shape"))
    assert isinstance(pair, np.ndarray) and pair.shape == (2,)
    one = k.step(np.array([3]), ROOT.substream("shape"))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    scalar = k.step(3, ROOT.substream("shape"))
    assert type(scalar) is int
    # a scalar and a one-element array take the same draws
    assert scalar == one[0]
    grid = k.step(np.full((2, 3), 5), ROOT.substream("grid"))
    assert grid.shape == (2, 3)


def test_step_frequencies_match_transition_row():
    k = CoordKernel(m=100, n=1000, xi=0.2, a_max=40)
    a = 2
    draws = 10**5
    steps = np.asarray(k.step(np.full(draws, a, dtype=np.int64), ROOT.substream("freq")))
    probs = k.transition(np.float64(a), np.arange(41, dtype=np.float64))
    expected = probs * draws
    cut = int(np.argmax(np.cumsum(expected[::-1]) >= 5.0))
    cut = expected.size - cut
    obs = np.r_[np.bincount(steps, minlength=41)[: cut - 1],
                np.bincount(steps, minlength=41)[cut - 1:].sum()]
    exp = np.r_[expected[: cut - 1], expected[cut - 1:].sum()]
    result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert result.pvalue >= 1e-3


def test_truncation_inadequacy_raises():
    with pytest.raises(TruncationError):
        CoordKernel(m=200, n=10, xi=0.1, a_max=5).transition_matrix()


@pytest.mark.parametrize("m, n", [(0, 10), (10, 0), (-1, 10)])
def test_coord_kernel_needs_a_positive_rate(m, n):
    # At rate 0 a positive count has probability 0 under every branch,
    # so its branch posterior would be 0/0.
    with pytest.raises(ValueError, match="m and n must be positive"):
        CoordKernel(m=m, n=n, xi=0.1)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_mixing_refuses_a_delta_that_is_not_positive(delta):
    # no curve falls below 0, nan compares false with every distance,
    # and every curve falls below inf at once
    with pytest.raises(ValueError, match="delta must be > 0"):
        estimate_mixing(CoordKernel(m=100, n=1000, xi=0.2), delta)


def test_unmixed_within_budget_raises():
    with pytest.raises(RuntimeError, match="did not mix") as info:
        estimate_mixing(TwoStateKernel(), 1e-9, initial="point", max_steps=3)
    # a NotMixedError, which carries its fields: from a point start the
    # two-state chain's l1 distance is 4/3 and falls by 0.7 a step
    error = info.value
    assert isinstance(error, NotMixedError) and not isinstance(error, TruncationError)
    assert (error.delta, error.max_steps) == (1e-9, 3)
    assert error.final_distance == pytest.approx(4 / 3 * 0.7**3)
    assert str(error) == ("walk did not mix below delta=1e-09 within 3 steps "
                          "(final distance 0.457); raise max_steps")


def test_pair_kernel_xi_zero_collapses_light_branches():
    k = ClosenessPairKernel(n=100, m=10, epsilon=0.2, xi=0.0)
    rates = k.branch_rates()
    assert rates[1] == rates[2]


@pytest.mark.parametrize("epsilon, xi, named", [
    (0.05, 0.2, "xi"),  # 2 eps < xi: a negative light rate
    (0.2, -0.1, "xi"),
    (1.5, 0.2, "epsilon"),  # eps > 1: a negative heavy rate
    (0.0, 0.0, "epsilon"),
])
def test_pair_kernel_refuses_negative_rates(epsilon, xi, named):
    with pytest.raises(ValueError, match=f"^{named} must lie in"):
        ClosenessPairKernel(n=100, m=10, epsilon=epsilon, xi=xi)


def test_pair_kernel_rows_stationarity_detailed_balance():
    k = ClosenessPairKernel(n=100, m=10, epsilon=0.2, xi=0.1, a_max=25)
    matrix = k.transition_matrix()
    assert np.abs(matrix.sum(axis=1) - 1.0).max() < 1e-9
    pi = k.stationary_vector()
    assert abs(pi.sum() - 1.0) < 1e-9
    flow = pi[:, None] * matrix
    rel = np.abs(flow - flow.T) / np.maximum(np.abs(flow), 1e-300)
    assert rel.max() < 1e-10
    # stationarity: pi P = pi on the truncated grid
    assert np.abs(pi @ matrix - pi).max() < 1e-12


def test_pair_kernel_step_and_transition_agree():
    k = ClosenessPairKernel(n=100, m=10, epsilon=0.2, xi=0.1, a_max=15)
    state = (1, 0)
    b, d = k.step(state, ROOT.substream("pstep-scalar"))
    assert type(b) is int and type(d) is int
    draws = 3 * 10**4
    b, d = k.step((np.full(draws, 1), np.zeros(draws, dtype=np.int64)), ROOT.substream("pstep"))
    assert b.shape == d.shape == (draws,)
    inside = (b <= 15) & (d <= 15)
    hits = np.bincount(16 * b[inside] + d[inside], minlength=256).reshape(16, 16)
    probs = np.array(
        [[k.transition(state, (b, d)) for d in range(16)] for b in range(16)]
    )
    expected = probs.reshape(-1) * draws
    observed = hits.reshape(-1)
    keep = expected >= 5
    obs = np.r_[observed[keep], observed[~keep].sum()]
    exp = np.r_[expected[keep], expected[~keep].sum()]
    result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert result.pvalue >= 1e-3


def test_two_state_kernel_matches_closed_form():
    kernel = TwoStateKernel()
    report = estimate_mixing(kernel, 0.01, initial="point", max_steps=50)
    # l1 distance from the worst start (state 1) is 4/3, decaying by 0.7 per step
    tv0 = 4.0 / 3.0
    expected_tau = math.ceil(math.log(tv0 / 0.01) / math.log(1 / 0.7))
    assert report.tau_delta == expected_tau
    assert report.gap_estimate == pytest.approx(0.3, abs=1e-12)
    decay = [b / a for (_, a), (_, b) in zip(report.tv_curve, report.tv_curve[1:]) if a > 0]
    np.testing.assert_allclose(decay, 0.7, rtol=1e-9)


def test_mixing_xi_zero_coordinate_reaches_pi_in_one_step():
    k = CoordKernel(m=100, n=1000, xi=0.0)
    report = estimate_mixing(k, 1e-6, initial="all")
    assert report.tau_delta == 1
    report_poisson = estimate_mixing(k, 1e-6, initial="poisson")
    assert report_poisson.tau_delta == 0


def test_tv_curve_monotone_nonincreasing():
    k = CoordKernel(m=100, n=1000, xi=0.2, a_max=60)
    report = estimate_mixing(k, 1e-4, initial="all", max_steps=30)
    values = [tv for _, tv in report.tv_curve]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def _three_coordinates(a_max: int) -> list[CoordKernel]:
    """The coordinates of criterion 13 (``a_max = 14``) and of the product bound test (12)."""
    return [
        CoordKernel(m=3, n=10, xi=0.2, a_max=a_max),
        CoordKernel(m=5, n=10, xi=0.15, a_max=a_max),
        CoordKernel(m=10, n=10, xi=0.1, a_max=a_max),
    ]


def test_product_walk_mixing_bound():
    kernels = _three_coordinates(12)
    delta = 0.05
    tau_full = product_walk_tau(kernels, delta, max_steps=20)
    per_coord = [
        estimate_mixing(k, delta / 3, initial="point", max_steps=20).tau_delta
        for k in kernels
    ]
    assert tau_full <= max(per_coord)


@pytest.mark.parametrize("a_max, max_steps", [(14, 25), (12, 20)])
def test_product_walk_curve_matches_kron_powers(a_max, max_steps):
    kernels = _three_coordinates(a_max)
    report = estimate_mixing(walks._ProductWalk(kernels), 0.05, initial="point",
                             max_steps=max_steps)
    expected = dense_product_report(kernels, 0.05, max_steps=max_steps)
    curve = [tv for _, tv in report.tv_curve]
    assert len(curve) == len(expected["curve"])
    np.testing.assert_allclose(curve, expected["curve"], rtol=0, atol=1e-12)
    assert report.tau_delta == expected["tau_delta"]
    assert product_walk_tau(kernels, 0.05, max_steps=max_steps) == expected["tau_delta"]


def test_product_walk_that_has_not_mixed_raises():
    kernels = [CoordKernel(m=10, n=10, xi=0.9, a_max=30)] * 2
    # At step 3 the product is still about 0.29 from stationary, so no
    # step up to 3 is a mixing time for delta = 0.04.
    assert dense_product_report(kernels, 0.04, max_steps=3)["curve"][-1] > 0.25
    with pytest.raises(RuntimeError, match="did not mix"):
        product_walk_tau(kernels, 0.04, max_steps=3)


def test_product_walk_truncation_that_loses_mass_raises():
    # Poisson rates of 2.7 and 3.3 keep 88-94% of their mass at a_max = 5.
    kernels = [CoordKernel(m=10, n=10, xi=0.1, a_max=14), CoordKernel(m=30, n=10, xi=0.1, a_max=5)]
    with pytest.raises(TruncationError, match="loses mass"):
        product_walk_tau(kernels, 0.05)


@pytest.mark.parametrize("kernel", [
    CoordKernel(m=100, n=1000, xi=0.2),
    ClosenessPairKernel(n=100, m=10, epsilon=0.24, xi=0.1, a_max=20),
], ids=["coordinate", "closeness-pair"])
def test_product_of_one_walk_is_that_walk(kernel):
    expected = estimate_mixing(kernel, 0.04, initial="point").tau_delta
    assert product_walk_tau([kernel], 0.04) == expected


def _assert_matches_dense(kernel, delta, initial):
    """Factored ``estimate_mixing`` against the dense matrix-power oracle."""
    try:
        expected = dense_mixing_report(kernel, delta, initial=initial)
    except RuntimeError as exc:  # a TruncationError, or "did not mix"
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            estimate_mixing(kernel, delta, initial=initial)
        return
    report = estimate_mixing(kernel, delta, initial=initial)
    assert report.tau_delta == expected["tau_delta"]
    curve = [tv for _, tv in report.tv_curve]
    assert len(curve) == len(expected["curve"])
    np.testing.assert_allclose(curve, expected["curve"], rtol=0, atol=1e-10)
    assert abs(report.gap_estimate - expected["gap_estimate"]) <= 1e-10


initials = st.sampled_from(["all", "poisson", "point"])
deltas = st.floats(1e-4, 0.5)
xis = st.floats(0.0, 0.3, exclude_max=True)


@given(st.integers(1, 30), st.integers(10, 40), xis, st.integers(6, 20), deltas, initials)
@settings(max_examples=40, deadline=None)
def test_coord_factors_and_mixing_match_dense(m, n, xi, a_max, delta, initial):
    kernel = CoordKernel(m=m, n=n, xi=xi, a_max=a_max)
    post, branch, _ = kernel.factors()
    states = np.arange(a_max + 1, dtype=np.float64)
    closed_form = kernel.transition(states[:, None], states[None, :])
    np.testing.assert_allclose(post @ branch, closed_form, rtol=0, atol=1e-14)
    with contextlib.suppress(TruncationError):
        np.testing.assert_allclose(post @ branch, kernel.transition_matrix(), rtol=0, atol=1e-14)
    _assert_matches_dense(kernel, delta, initial)


@st.composite
def pair_kernels(draw):
    n = draw(st.integers(20, 200))
    m = draw(st.integers(1, (n - 1) // 2))
    epsilon = draw(st.floats(0.15, 0.9))  # 2 epsilon > xi keeps light rates >= 0
    return ClosenessPairKernel(n=n, m=m, epsilon=epsilon, xi=draw(xis),
                               a_max=draw(st.integers(4, 20)))


@given(pair_kernels(), deltas, initials, st.data())
@settings(max_examples=25, deadline=None)
def test_pair_factors_and_mixing_match_dense(kernel, delta, initial, data):
    post, branch, _ = kernel.factors()
    side = kernel.a_max + 1
    for _ in range(5):
        i = data.draw(st.integers(0, side * side - 1))
        j = data.draw(st.integers(0, side * side - 1))
        entry = kernel.transition(divmod(i, side), divmod(j, side))
        assert abs(post[i] @ branch[:, j] - entry) <= 1e-14
    with contextlib.suppress(TruncationError):
        np.testing.assert_allclose(post @ branch, kernel.transition_matrix(), rtol=0, atol=1e-14)
    _assert_matches_dense(kernel, delta, initial)


def _mixture_oracle(kernel):
    """Per flattened state: the oracle posterior, mixture pmf and branch pmfs."""
    if isinstance(kernel, CoordKernel):
        weights, rates = [0.5, 0.5], [(r,) for r in kernel.branch_rates()]
    else:
        light = (kernel.n - kernel.m) / (2.0 * kernel.n)
        weights, rates = [kernel.m / kernel.n, light, light], kernel.branch_rates()
    states = list(itertools.product(range(kernel.a_max + 1), repeat=len(rates[0])))
    posts, pmfs = zip(*(branch_mixture(weights, rates, s) for s in states))
    branch = [[branch_mixture([1.0], [r], s)[1] for s in states] for r in rates]
    return states, np.array(posts), np.array(pmfs), np.array(branch)


@st.composite
def small_mixtures(draw):
    """Coordinate and pair kernels whose truncation keeps all but 1e-9 of the mass."""
    xi = draw(xis)
    if draw(st.booleans()):
        return CoordKernel(m=draw(st.integers(1, 20)), n=draw(st.integers(10, 40)), xi=xi,
                           a_max=draw(st.integers(20, 30)))
    n = draw(st.integers(20, 200))
    return ClosenessPairKernel(n=n, m=draw(st.integers(1, (n - 1) // 2)),
                               epsilon=draw(st.floats(0.15, 0.9)), xi=xi,
                               a_max=draw(st.integers(13, 16)))


@given(small_mixtures())
@settings(max_examples=30, deadline=None)
def test_branch_mixture_matches_the_term_by_term_oracle(kernel):
    states, posts, pmfs, branch = _mixture_oracle(kernel)
    counts = np.array(states).T
    np.testing.assert_allclose(kernel.posterior(*counts), posts, rtol=1e-12)
    np.testing.assert_allclose(kernel.stationary(*counts), pmfs, rtol=1e-12)
    post, rows, pi = kernel.factors()
    np.testing.assert_allclose(post, posts, rtol=1e-12)
    np.testing.assert_allclose(rows, branch, rtol=1e-12)
    np.testing.assert_allclose(kernel.stationary_vector(), pmfs, rtol=1e-12)
    # the single grid pass does the same arithmetic as the per-state methods
    grid = kernel._grid()
    assert np.array_equal(post, kernel.posterior(*grid).reshape(post.shape))
    assert np.array_equal(pi, kernel.stationary(*grid).reshape(-1))


def test_pair_kernel_keeps_the_names_the_benchmark_wraps():
    # bench/spans.py looks these up in the class's own namespace.
    for name in ("transition_matrix", "stationary_vector", "initial_distributions"):
        assert name in vars(ClosenessPairKernel)


@pytest.mark.parametrize("initial", ["all", "poisson", "point"])
@pytest.mark.parametrize("delta", [0.5, 0.05, 1e-3, 1e-6])
def test_two_state_kernel_matches_dense(delta, initial):
    _assert_matches_dense(TwoStateKernel(), delta, initial)


def test_factored_mixing_keeps_truncation_check():
    with pytest.raises(TruncationError):
        estimate_mixing(CoordKernel(m=200, n=10, xi=0.1, a_max=5), 0.04)


def test_pair_mixing_never_forms_the_dense_kernel(monkeypatch):
    small = ClosenessPairKernel(n=100, m=10, epsilon=0.24, xi=0.1, a_max=20)
    expected = dense_mixing_report(small, 0.04)

    def dense(self):
        raise AssertionError("estimate_mixing formed the dense kernel")

    monkeypatch.setattr(ClosenessPairKernel, "transition_matrix", dense)
    assert estimate_mixing(small, 0.04).tau_delta == expected["tau_delta"]
    # At the default truncation (1,936 states) a dense S x S matrix would
    # take 30 MB; the report stays within a fraction of one.
    kernel = ClosenessPairKernel(n=100, m=10, epsilon=0.24, xi=0.1)
    states = (kernel.a_max + 1) ** 2
    tracemalloc.start()
    try:
        estimate_mixing(kernel, 0.04)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < states * states * 8 / 4


@pytest.mark.parametrize("kernel", [CoordKernel(m=100, n=1000, xi=0.2),
                                    ClosenessPairKernel(n=100, m=10, epsilon=0.24, xi=0.1)])
@pytest.mark.parametrize("initial", ["all", "poisson", "point"])
def test_one_report_builds_the_poisson_starts_once(monkeypatch, kernel, initial):
    # One pass over the grid gives the posterior, the starts and pi: each
    # (branch, coordinate) log-pmf is evaluated once per report.
    evaluate = walks.log_poisson_pmf
    calls = []

    def counted(k, rate):
        calls.append(rate)
        return evaluate(k, rate)

    monkeypatch.setattr(walks, "log_poisson_pmf", counted)
    estimate_mixing(kernel, 0.04, initial=initial)
    assert len(calls) == {CoordKernel: 2, ClosenessPairKernel: 6}[type(kernel)]


@st.composite
def posterior_rows(draw):
    """Row-stochastic (S, r) with r in {2, 3}: random, repeated, collinear,
    saturated and near rows, or the posteriors of a small pair kernel (at
    xi = 0 its light columns coincide and every row lies on one line).
    A near row is an existing row moved by 1e-16 to 1e-13, plus rows within
    1e-100 of a simplex corner, as the pair kernels' heavy rows are."""
    if draw(st.booleans()):
        kernel = ClosenessPairKernel(n=100, m=draw(st.integers(1, 49)),
                                     epsilon=draw(st.floats(0.15, 0.9)),
                                     xi=draw(st.sampled_from([0.0, 0.1, 0.29])),
                                     a_max=draw(st.integers(0, 12)))
        return kernel.factors()[0]
    r = draw(st.sampled_from([2, 3]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [gen.dirichlet(np.ones(r))]
    kinds = ["random", "repeat", "between", "saturated", "near"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        if kind == "random":
            rows.append(gen.dirichlet(np.full(r, 0.3)))
        elif kind == "repeat":
            rows.append(rows[gen.integers(len(rows))].copy())
        elif kind == "between":
            i, j = gen.integers(len(rows), size=2)
            t = gen.integers(1, 8) / 8
            rows.append(t * rows[i] + (1 - t) * rows[j])
        elif kind == "near":
            t = 10.0 ** gen.uniform(-16, -13)
            row = rows[gen.integers(len(rows))]
            rows.append(row + t * (gen.dirichlet(np.ones(r)) - row))
            corner = np.eye(r)[gen.integers(r)]
            for _ in range(gen.integers(1, 4)):
                t = 10.0 ** gen.uniform(-130, -90)
                rows.append(corner + t * (gen.dirichlet(np.ones(r)) - corner))
        else:
            row = np.zeros(r)
            row[gen.choice(r, size=gen.integers(1, r + 1), replace=False)] = 1.0
            rows.append(row / row.sum())
    return np.stack(rows)


@given(posterior_rows(), st.integers(1, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_extreme_rows_attain_the_all_rows_maximum(post, states, seed):
    gen = np.random.default_rng(seed)
    points = gen.dirichlet(np.full(states, 0.5), size=post.shape[1])
    pi = gen.dirichlet(np.full(states, 0.5))
    keep = walks._extreme_rows(post)
    assert keep.size and np.all(np.diff(keep) > 0)
    assert 0 <= keep[0] and keep[-1] < post.shape[0]
    assert abs(all_rows_l1(post[keep], points, pi) - all_rows_l1(post, points, pi)) <= 1e-12


@pytest.mark.parametrize("base", [[0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
def test_extreme_rows_keep_one_row_of_a_grid_cell(base):
    # Rows within 2^-49 of one point of the 2^-46 grid snap to it together,
    # half of them at the 1e-125 scale of the pair kernels' heavy rows.
    gen = np.random.default_rng(7)
    shift = gen.uniform(-1.0, 1.0, size=(50, 3)) * 2.0**-49
    shift[:, 0] = -shift[:, 1:].sum(axis=1)
    shift[1::2] *= 1e-110
    post = np.clip(np.array(base) + shift, 0.0, 1.0)
    keep = walks._extreme_rows(post)
    assert keep.size == 1 and 0 <= keep[0] < post.shape[0]


@pytest.mark.parametrize("xi, most_rows", [(0.0, 2), (0.1, 22), (0.2, 22)])
def test_point_curve_reads_few_rows_and_matches_all_rows(monkeypatch, xi, most_rows):
    # The three kernels of the mixing-walks benchmark workload.
    kernel = ClosenessPairKernel(n=100, m=10, epsilon=0.24, xi=xi)
    evaluate = walks._max_row_l1
    rows_read = []

    def spy(post, points, pi):
        rows_read.append(post.shape[0])
        return evaluate(post, points, pi)

    monkeypatch.setattr(walks, "_max_row_l1", spy)
    report = estimate_mixing(kernel, 0.04, initial="point")
    assert rows_read and max(rows_read) <= most_rows

    curve = [tv for _, tv in report.tv_curve]
    post, branch, pi = kernel.factors()
    expected, points = [], branch  # steps 1, 2, ...: every row of post @ M_t
    for _ in curve[1:]:
        expected.append(all_rows_l1(post, points, pi))
        points = (points @ post) @ branch
    np.testing.assert_allclose(curve[1:], expected, rtol=0, atol=1e-12)
