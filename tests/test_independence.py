import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import replitest.independence as ind
from replitest import cell_means
from replitest.calibrated import INDEPENDENCE_DESK
from replitest.closeness import closeness_statistic
from replitest.flattening import non_singleton_count
from replitest.independence import (
    IndependenceConfig,
    averaged_stats,
    closeness_stat_marked,
    independence_gap,
    independence_sample_size,
    product_of_marginals_sampler,
    rep_independence_test,
    sampled_averaged_stats,
    stage1_scale,
    _distinct_positions,
)
from replitest.measures import (
    diagonal_measure,
    measure_2d,
    uniform_measure,
    uniform_product_measure,
)
from replitest.rng import RngStream
from replitest.sampling import measure_sampler
from replitest.verdict import uniform_threshold

from oracles import (
    enumerate_independence_means,
    exact_cell_means,
    key_mark_mean,
    key_stats,
    order_average_stats,
    sampled_order_average,
    zc_mean,
    zc_value,
)

ROOT = RngStream(314159, "independence-tests")

DESK = dict(epsilon=0.35, rho=0.2, c_n=4.0, c_i1=1.0, c_i2=4.0,
            k_avg=50, median_reps=1, m_scale=0.05)


def test_sample_size_direct_evaluation():
    # n1=n2=1 (log factor clamps to 1), eps=rho=1/4: terms are 16, 64, 256
    assert independence_sample_size(1, 1, 0.25, 0.25) == 336


def test_sample_size_monotone_and_scaling():
    sizes = [independence_sample_size(n1, 8, 0.2, 0.1) for n1 in (8, 16, 64, 256)]
    assert sizes == sorted(sizes)
    base = independence_sample_size(40, 20, 0.35, 0.2, m_scale=1.0)
    doubled = independence_sample_size(40, 20, 0.35, 0.2, m_scale=2.0)
    assert abs(doubled - 2 * base) <= 1


def test_config_validation():
    with pytest.raises(ValueError):
        IndependenceConfig(n1=10, n2=20, epsilon=0.2, rho=0.1)  # n1 < n2
    with pytest.raises(ValueError):
        IndependenceConfig(n1=20, n2=10, epsilon=0.2, rho=0.1, c_i1=3.0, c_i2=2.0)
    with pytest.raises(ValueError):
        IndependenceConfig(n1=20, n2=10, epsilon=0.2, rho=0.1, median_reps=2)


@pytest.mark.parametrize("kwargs, error", [
    ({"epsilon": 2.0}, ValueError),
    ({"rho": 0.0}, ValueError),
    ({"m_scale": -1.0}, ValueError),
    ({"m_scale": 1e30}, OverflowError),
])
def test_config_checks_the_sample_size_inputs_at_construction(kwargs, error):
    with pytest.raises(error):
        IndependenceConfig(**{"n1": 40, "n2": 20, "epsilon": 0.35, "rho": 0.2, **kwargs})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["c_n", "c_i1", "c_i2"])
def test_config_refuses_a_constant_that_is_not_finite(field, value):
    # a nan C_I1 used to fail the C_I1 < C_I2 check under that name
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        IndependenceConfig(n1=20, n2=10, epsilon=0.35, rho=0.2, **{field: value})


def test_alpha_beta_formulas():
    config = IndependenceConfig(n1=40, n2=20, epsilon=0.2, rho=0.1)
    assert config.beta(1000) == pytest.approx(2e-4)
    assert config.alpha(1000) == pytest.approx(min(40 / 100000, 0.01))
    # the cap binds when n1 is large relative to m
    assert IndependenceConfig(n1=10**6, n2=10, epsilon=0.2, rho=0.1).alpha(100) == 0.01


def test_stage1_scale_direct_evaluation():
    assert stage1_scale(1000, 10, 10) == pytest.approx(10**4)


def test_gap_scale_is_minimum_of_three():
    assert independence_gap(100, 10, 10, 0.2) == pytest.approx(
        min(20.0, 100**2 * 0.04 / 100, 100**1.5 * 0.04 / 10)
    )


def test_product_of_marginals_point_mass():
    p = measure_2d(np.array([[0.0, 0.0], [0.0, 1.0]]))
    draw = product_of_marginals_sampler(measure_sampler(p), (2, 2))
    codes = draw(10, ROOT.substream("pm").generator())
    assert codes.tolist() == [3] * 10  # the cell (1, 1), row-major


def test_product_of_marginals_diagonal_becomes_uniform():
    # p uniform on {(0,0), (1,1)}: product of marginals is uniform on 2x2
    grid = np.array([[0.5, 0.0], [0.0, 0.5]])
    sampler = measure_sampler(measure_2d(grid))
    gen = ROOT.substream("diag-chi").generator()
    draws = product_of_marginals_sampler(sampler, (2, 2))(10**5, gen)
    counts = np.bincount(draws, minlength=4)
    result = stats.chisquare(counts)
    assert result.pvalue >= 1e-3


def test_product_of_marginals_preserves_row_marginal():
    grid = np.array([[0.3, 0.1], [0.15, 0.45]])
    p = measure_2d(grid)
    sampler = measure_sampler(p)
    gen = ROOT.substream("rows").generator()
    codes = product_of_marginals_sampler(sampler, (2, 2))(10**5, gen)
    rows = codes // 2
    target = grid.sum(axis=1)
    freq = np.bincount(rows, minlength=2) / 10**5
    sigma = math.sqrt(target[0] * (1 - target[0]) / 10**5)
    assert abs(freq[0] - target[0]) <= 3 * sigma


def test_marked_statistic_empty_is_zero():
    assert closeness_stat_marked(np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64),
                                 ROOT.substream("empty")) == 0


def test_marked_statistic_singleton_contributes_zero_under_every_marking():
    # element 9 appears once overall; removing it never changes the value
    sp, sq = [1, 1, 9], [1]
    k = len(sp) + len(sq)
    for bits in range(2**k):
        marks = [(bits >> i) & 1 for i in range(k)]
        with_single = zc_value(sp, sq, marks)
        without = zc_value([1, 1], [1], [marks[0], marks[1], marks[3]])
        assert with_single == without


def test_marked_statistic_pair_expectation_is_one():
    # S_p = {a, a}, S_q = {}: enumeration gives (0+0+2+2)/4 = 1
    assert zc_mean([5, 5], []) == pytest.approx(1.0)
    draws = 4000
    values = [
        closeness_stat_marked(np.array([5, 5]), np.array([], dtype=np.int64),
                              ROOT.substream("pair", t))
        for t in range(draws)
    ]
    assert abs(np.mean(values) - 1.0) <= 3 * np.std(values) / math.sqrt(draws)


def test_marked_statistic_library_matches_oracle_distribution():
    # same support of outcomes and matching expectation on a mixed instance
    sp, sq = [3, 3, 7], [3, 7, 7]
    exact = zc_mean(sp, sq)
    draws = 6000
    values = [
        closeness_stat_marked(np.array(sp), np.array(sq), ROOT.substream("mix", t))
        for t in range(draws)
    ]
    assert abs(np.mean(values) - exact) <= 3 * np.std(values) / math.sqrt(draws) + 1e-9


key_bags = st.lists(st.integers(min_value=-3, max_value=12), max_size=40)


@given(key_bags, key_bags, st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_marked_statistic_is_the_closeness_statistic_of_the_mark_split_counts(sp, sq, seed):
    rng = RngStream(seed, "marked-split")
    marked = rng.generator().random(len(sp) + len(sq)) < 0.5
    keys = sorted(set(sp) | set(sq))
    split = {key: [0, 0, 0, 0] for key in keys}  # Tp0, Tp1, Tq0, Tq1
    for i, key in enumerate(sp + sq):
        split[key][(0 if i < len(sp) else 2) + (0 if marked[i] else 1)] += 1
    counts = [[split[key][j] for key in keys] for j in range(4)]
    got = closeness_stat_marked(np.array(sp, dtype=np.int64), np.array(sq, dtype=np.int64), rng)
    assert got == closeness_statistic(*counts)


@given(st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(st.integers(min_value=0, max_value=n), st.just(n))))
@settings(max_examples=60, deadline=None)
def test_key_mark_mean_is_the_mean_over_every_marking(split):
    # zc_mean enumerates all 2^n markings of a key held a times by S_p
    a, n = split
    assert key_mark_mean(a, n - a) == pytest.approx(zc_mean([0] * a, [0] * (n - a)),
                                                    rel=1e-12, abs=0)


@given(key_bags, key_bags)
@settings(max_examples=60, deadline=None)
def test_mark_averaged_statistic_sums_the_key_means(sp, sq):
    # the one sort must recover (a, b) and N for every key, whatever the order
    keys = np.array(sp + sq, dtype=np.int64)
    expected = sum(key_mark_mean(sp.count(k), sq.count(k)) for k in set(sp) | set(sq))
    got = key_stats(keys.copy(), len(sp))[0]
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert key_stats(keys.copy(), len(sp))[1] == non_singleton_count(keys)


def test_marked_statistic_averages_to_the_mark_averaged_statistic():
    # fixed keys with shared keys on one side, on both sides and singletons
    sp = [3, 3, 7, 7, 7, 9, 11, 12, 12, 12, 12]
    sq = [3, 7, 9, 9, 11, 11, 11, 2, 12]
    exact = key_stats(np.array(sp + sq), len(sp))[0]
    draws = 4000
    values = np.array([
        closeness_stat_marked(np.array(sp), np.array(sq), ROOT.substream("averaged-marks", t))
        for t in range(draws)
    ], dtype=float)
    assert abs(values.mean() - exact) <= 3 * values.std(ddof=1) / math.sqrt(draws)


def test_bounded_influence_of_non_singleton_removal():
    # dropping one copy of a colliding element moves the statistic by <= 2
    sp, sq = [4, 4, 4], [4, 2]
    k = len(sp) + len(sq)
    for bits in range(2**k):
        marks = [(bits >> i) & 1 for i in range(k)]
        before = zc_value(sp, sq, marks)
        after = zc_value([4, 4], sq, marks[1:])
        assert abs(before - after) <= 2


def test_independence_stats_size_precondition():
    config = IndependenceConfig(n1=4, n2=4, **DESK)
    sp = np.zeros((10, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        averaged_stats(sp, sp, config, ROOT.substream("size"), k_avg=1)


def test_independence_stats_forced_abort_returns_zero():
    config = IndependenceConfig(n1=4, n2=4, **DESK)
    sp = np.zeros((6, 2), dtype=np.int64)
    sq = np.zeros((6, 2), dtype=np.int64)
    # poisson mean far above the set sizes forces the truncation abort
    value = averaged_stats(
        sp, sq, config, ROOT.substream("abort"), k_avg=1,
        poisson_mean=1000.0, strict_size=False,
    )
    assert value == (0, 0)


def test_estimate_degenerate_instance_is_exactly_zero():
    # alpha = 1 removes every sample, so every run aborts to 0
    config = IndependenceConfig(n1=4, n2=4, **DESK)
    sp = np.zeros((5, 2), dtype=np.int64)
    values = [
        averaged_stats(sp, sp, config, ROOT.substream("zero", j), k_avg=20,
                       alpha=1.0, beta=0.0, poisson_mean=2.0, strict_size=False)[0]
        for j in range(5)
    ]
    assert values == [0.0] * 5
    n_values = [
        averaged_stats(sp, sp, config, ROOT.substream("zero-n", j), k_avg=20,
                       alpha=1.0, beta=0.0, poisson_mean=2.0, strict_size=False)[1]
        for j in range(5)
    ]
    assert n_values == [0.0] * 5


def test_estimators_match_enumeration_on_flattening_free_instance():
    # alpha = beta = 0: orders are irrelevant; enumeration is exact
    config = IndependenceConfig(n1=4, n2=4, **DESK)
    sp = [(0, 0), (0, 0), (1, 1)]
    sq = [(0, 0), (2, 2)]
    exact_z, exact_n = enumerate_independence_means(
        sp, sq, alpha=0.0, beta=0.0, poisson_mean=2.0,
        abort_excess_p=40.0, abort_excess_q=40.0,
    )
    k_avg = 20000
    kwargs = dict(alpha=0.0, beta=0.0, poisson_mean=2.0, strict_size=False)
    sp_a, sq_a = np.array(sp), np.array(sq)
    est_z, est_n = averaged_stats(sp_a, sq_a, config, ROOT.substream("ezn"), k_avg=k_avg,
                                  **kwargs)
    singles = np.array([
        averaged_stats(sp_a, sq_a, config, ROOT.substream("sd", j), k_avg=1, **kwargs)[0]
        for j in range(2000)
    ])
    se_z = max(singles.std(ddof=1), 0.05) / math.sqrt(k_avg)
    assert abs(est_z - exact_z) <= 4 * se_z
    assert abs(est_n - exact_n) <= 0.05


def test_stat_run_matches_enumeration_with_unequal_axis_rates():
    # alpha != beta and a shared row: swapping the rates, or one selector
    # for both axes, moves E[Z] and E[N] off the enumeration
    config = IndependenceConfig(n1=4, n2=4, **DESK)
    sp = [(0, 0), (0, 1)]
    sq = [(0, 0), (0, 1)]
    kwargs = dict(alpha=0.4, beta=0.1, poisson_mean=1.5)
    exact = enumerate_independence_means(
        sp, sq, **kwargs, abort_excess_p=40.0, abort_excess_q=40.0,
    )
    runs = 30000
    values = np.array([
        averaged_stats(np.array(sp), np.array(sq), config, ROOT.substream("unequal", j),
                       k_avg=1, strict_size=False, **kwargs)
        for j in range(runs)
    ], dtype=float)
    se = values.std(axis=0, ddof=1) / math.sqrt(runs)
    assert np.all(np.abs(values.mean(axis=0) - exact) <= 4 * se)


def test_distinct_positions_are_a_uniform_subset():
    # 2 of 5 positions: repeats (probability 1/5) are redrawn, and each
    # of the 10 pairs must come out with frequency 1/10
    segments = 10**5
    seg, pos = _distinct_positions(np.full(segments, 5), np.full(segments, 2),
                                   ROOT.substream("subset").generator())
    assert np.array_equal(seg, np.repeat(np.arange(segments), 2))
    first, second = pos[0::2], pos[1::2]
    assert np.all(first < second)
    pairs, counts = np.unique(first * 5 + second, return_counts=True)
    se = math.sqrt(0.1 * 0.9 / segments)
    assert pairs.size == 10
    assert np.all(np.abs(counts / segments - 0.1) <= 4 * se)


def test_runs_in_one_chunk_are_independent():
    # the 50 runs of one average share a chunk; Var(Z_a) must be the
    # single-run variance / 50, which shared truncation sizes or shared
    # selectors across the chunk would inflate
    config = IndependenceConfig(n1=4, n2=4, **DESK)
    sp = np.array([(0, 0), (0, 0), (0, 1), (1, 1), (1, 1)])
    sq = np.array([(0, 0), (1, 1), (0, 1), (0, 1), (2, 2)])
    kwargs = dict(alpha=0.3, beta=0.3, poisson_mean=2.0, strict_size=False)
    single = np.array([
        averaged_stats(sp, sq, config, ROOT.substream("chunk-single", j), k_avg=1,
                       **kwargs)[0]
        for j in range(10000)
    ], dtype=float)
    z_a = np.array([
        averaged_stats(sp, sq, config, ROOT.substream("chunk", s), k_avg=50, **kwargs)[0]
        for s in range(200)
    ])
    statistic = 199 * z_a.var(ddof=1) / (single.var(ddof=1) / 50)
    low, high = stats.chi2.ppf([5e-4, 1 - 5e-4], 199)
    assert low <= statistic <= high


def test_desk_average_memory_is_bounded_by_the_chunk():
    config = IndependenceConfig(n1=40, n2=20, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK)
    m = config.sample_size()
    sampler = measure_sampler(uniform_product_measure(40, 20))
    # both full sets of 100 m pairs, from the pair source of the fresh path
    *_, pairs_at = ind._plan_fresh(sampler, config, ROOT.substream("memory"),
                                   ROOT.substream("memory-plans"))
    every = np.arange(100 * m)
    coords = pairs_at((every, every))
    sp, sq = coords[:, :100 * m].T.copy(), coords[:, 100 * m:].T.copy()
    tracemalloc.start()
    try:
        averaged_stats(sp, sq, config, ROOT.substream("memory-avg"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_lazy_sets_equal_eager_sets_holding_the_drawn_pairs():
    # the lazy path draws pairs only at the touched positions; full sets
    # holding those pairs there and junk everywhere else must give the
    # same (Z_a, N_a) from the same run streams, so no run reads the junk
    cases = [(uniform_product_measure(40, 20), (40, 20)), (diagonal_measure(20), (20, 20))]
    for t in range(10):
        p, (n1, n2) = cases[t % 2]
        config = IndependenceConfig(n1=n1, n2=n2, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK)
        size = 100 * config.sample_size()
        runs, sets = ROOT.substream("lazy-runs", t), ROOT.substream("lazy-sets", t)
        lazy = sampled_averaged_stats(measure_sampler(p), config, sets, runs)
        # the same plans and pairs, planned again on the same streams
        _, plans, pairs_at = ind._plan_fresh(measure_sampler(p), config, sets, runs)
        drawn = ind._touched_positions(plans, ind._place_dividers(plans))
        coords = pairs_at(drawn)
        assert drawn[0].size < size // 10 and drawn[1].size < size // 10
        junk = ROOT.substream("junk", t).generator()
        eager = []
        for side, columns in enumerate(np.split(coords, [drawn[0].size], axis=1)):
            full = np.stack([junk.integers(0, n1, size), junk.integers(0, n2, size)], axis=1)
            full[drawn[side]] = columns.T
            eager.append(full)
        assert averaged_stats(eager[0], eager[1], config, runs) == lazy


def test_library_default_verdict_memory_is_small():
    # 2 x 100 m = 2.3M pairs per estimate if drawn in full; the verdict
    # draws only the pairs its runs read
    config = IndependenceConfig(n1=40, n2=20, epsilon=0.35, rho=0.2, k_avg=20)
    p = uniform_product_measure(40, 20)
    tracemalloc.start()
    try:
        rep_independence_test(p, config, ROOT.substream("default-memory"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_product_expected_statistic_below_gap():
    # 500 fresh-sample runs of the raw statistic under a product instance
    config = IndependenceConfig(n1=40, n2=20, **DESK)
    m = config.sample_size()
    sampler = measure_sampler(uniform_product_measure(40, 20))
    values = np.empty(500)
    for t in range(500):
        values[t] = sampled_averaged_stats(sampler, config, ROOT.substream("prod", t),
                                           ROOT.substream("prod-i", t), k_avg=1)[0]
    bound = config.c_i1 * independence_gap(m, 40, 20, config.epsilon)
    assert values.mean() <= bound


def test_rep_independence_smoke_and_median_machinery():
    config = IndependenceConfig(n1=8, n2=8, epsilon=0.35, rho=0.2,
                                c_n=4.0, c_i1=1.0, c_i2=4.0,
                                k_avg=10, median_reps=3, m_scale=0.05)
    verdict = rep_independence_test(
        uniform_product_measure(8, 8), config, ROOT.substream("smoke")
    )
    assert verdict.accept
    assert verdict.detail["stage"] == 2


def test_rep_independence_shared_internal_reuses_thresholds():
    config = IndependenceConfig(n1=8, n2=8, epsilon=0.35, rho=0.2,
                                c_n=4.0, c_i1=1.0, c_i2=4.0,
                                k_avg=10, median_reps=1, m_scale=0.05)
    p = uniform_product_measure(8, 8)
    base = ROOT.substream("paired")
    v1 = rep_independence_test(p, config, base, sample_rng=base.substream("s1"))
    v2 = rep_independence_test(p, config, base, sample_rng=base.substream("s2"))
    assert v1.threshold == v2.threshold
    assert v1.detail["stage1_threshold"] == v2.detail["stage1_threshold"]


@pytest.mark.parametrize("measure, shape", [
    (uniform_measure(64), "(64,)"),
    (uniform_product_measure(8, 10), "(8, 10)"),
], ids=["1d", "wrong-shape-2d"])
def test_measure_off_the_domain_is_refused_before_any_draw(monkeypatch, measure, shape):
    monkeypatch.setattr(ind, "measure_sampler", lambda *args: pytest.fail("a sampler was built"))
    config = IndependenceConfig(n1=10, n2=8, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK)
    with pytest.raises(ValueError) as info:
        rep_independence_test(measure, config, ROOT.substream("off-domain"))
    assert str(info.value) == f"measure shape {shape} != configured (10, 8)"


@pytest.mark.parametrize("p, n1, n2, c_n, stage", [
    (uniform_product_measure(40, 20), 40, 20, 4.0, 2),
    (diagonal_measure(20), 20, 20, 4.0, 2),
    # a tiny C_N makes stage 1 reject the diagonal
    (diagonal_measure(20), 20, 20, 0.01, 1),
], ids=["product", "diagonal", "diagonal-stage1"])
def test_each_stage_reads_its_statistic_of_the_full_estimate(p, n1, n2, c_n, stage):
    # one sort per chunk gives both statistics, and a stage reads one of
    # them; it must be exactly that one of sampled_averaged_stats on the
    # same sample and run streams
    config = IndependenceConfig(n1=n1, n2=n2, epsilon=0.35, rho=0.2,
                                **{**INDEPENDENCE_DESK, "c_n": c_n})
    rng = ROOT.substream("split", n1, c_n)
    verdict = rep_independence_test(p, config, rng)
    samples, internal = rng.substream("samples"), rng.substream("internal")

    def full(stage_name):
        return sampled_averaged_stats(measure_sampler(p), config, samples.substream(stage_name, 0),
                                      internal.substream(stage_name, 0))

    assert verdict.detail["stage"] == stage
    if stage == 1:
        assert verdict.statistic == full("stage1")[1]
    else:
        # stage 1 is certified from its plans, so its statistic is never
        # computed; the bound it was certified by holds the statistic
        assert verdict.detail["stage1_certified"] is True
        assert verdict.detail["stage1_bound"] >= full("stage1")[1]
        assert verdict.statistic == full("stage2")[0]


def _stage1_bound(config, internal, rep=0):
    """The certificate's bound ``Σ ell / k`` of one stage-1 estimate, from its plans alone."""
    m = config.sample_size()
    return ind._kept_bound(*ind._plan_average((100 * m, 100 * m), config,
                                              internal.substream("stage1", rep), None))


@pytest.mark.parametrize("n1, n2, m_scale", [
    (8, 8, 0.05), (20, 10, 0.05), (40, 20, 0.05), (20, 20, 0.2), (100, 100, 0.02),
])
def test_stage1_bound_holds_the_estimate_on_the_same_streams(n1, n2, m_scale):
    config = IndependenceConfig(n1=n1, n2=n2, **{**DESK, "m_scale": m_scale})
    sampler = measure_sampler(diagonal_measure(n2) if n1 == n2 else uniform_product_measure(n1, n2))
    for seed in range(3):
        rng = ROOT.substream("bound", n1, n2, m_scale, seed)
        _, n_a = sampled_averaged_stats(sampler, config, rng.substream("samples", "stage1", 0),
                                        rng.substream("internal", "stage1", 0))
        assert _stage1_bound(config, rng.substream("internal")) >= n_a


@pytest.mark.parametrize("n1, n2, m_scale", [
    (20, 10, 0.05), (40, 20, 0.05), (20, 20, 0.05), (40, 20, 1.0), (20, 10, 0.5),
])
def test_stage1_certifies_where_its_least_threshold_clears_2m(n1, n2, m_scale):
    # the least threshold is 2 C_N max(m^2/(n1 n2), m/n2); with it 10%
    # above 2m no threshold draw can fall below the bound, about 2m
    config = IndependenceConfig(n1=n1, n2=n2, **{**DESK, "m_scale": m_scale})
    m = config.sample_size()
    least = 2 * config.c_n * stage1_scale(m, n1, n2)
    assert least >= 1.1 * 2 * m
    for seed in range(5):
        assert _stage1_bound(config, ROOT.substream("certifies", n1, m_scale, seed)) <= least


@pytest.mark.parametrize("n, fires", [(100, False), (1000, True)])
def test_stage1_threshold_falls_below_the_bound_only_where_m_is_small(n, fires):
    # m_scale 0.05: at (100, 100) the least threshold, 5,080, sits just
    # above 2m = 5,040, so the certificate holds, narrowly; at
    # (1000, 1000) it is 10,673 against 2m = 73,050, so some draws leave
    # stage 1 to run
    config = IndependenceConfig(n1=n, n2=n, **DESK)
    m = config.sample_size()
    scale = stage1_scale(m, n, n)
    below, closest = 0, 0.0
    for seed in range(20):
        internal = ROOT.substream("fires", n, seed, "internal")
        threshold = scale * float(internal.substream("threshold-N").generator().uniform(
            2 * config.c_n, 100 * config.c_n))
        bound = _stage1_bound(config, internal)
        below += threshold < bound
        closest = max(closest, bound / (2 * config.c_n * scale))
    if fires:
        assert 0 < below < 20
    else:
        assert below == 0 and 0.98 <= closest <= 1


def _without_certificate(monkeypatch, p, config, rng):
    with monkeypatch.context() as patched:
        patched.setattr(ind, "_kept_bound", lambda k, plans: math.inf)
        return rep_independence_test(p, config, rng)


@pytest.mark.parametrize("c_n, reps, seed", [(0.02, 1, 2), (0.02, 3, 3), (4.0, 3, 0)],
                         ids=["stage1-runs", "stage1-runs-median", "certified-median"])
def test_stage1_certificate_changes_no_verdict(monkeypatch, c_n, reps, seed):
    # with a small C_N the threshold can lie between N_a and the bound:
    # stage 1 then runs on its plans and accepts, reading the estimates
    # of sampled_averaged_stats on the same streams
    config = IndependenceConfig(n1=20, n2=20, epsilon=0.35, rho=0.2,
                                **{**INDEPENDENCE_DESK, "c_n": c_n, "median_reps": reps,
                                   "k_avg": 20})
    p = diagonal_measure(20)
    rng = ROOT.substream("certificate", c_n, reps, seed)
    verdict = rep_independence_test(p, config, rng)
    samples, internal = rng.substream("samples"), rng.substream("internal")
    bounds = [_stage1_bound(config, internal, rep) for rep in range(reps)]
    assert verdict.detail["stage1_bound"] == max(bounds)
    assert verdict.detail["stage"] == 2
    certified = c_n == 4.0
    assert verdict.detail["stage1_certified"] is certified
    reference = _without_certificate(monkeypatch, p, config, rng)
    for field in ("accept", "statistic", "threshold"):
        assert getattr(verdict, field) == getattr(reference, field)
    assert verdict.detail["stage1_threshold"] == reference.detail["stage1_threshold"]
    if certified:
        assert "stage1_statistic" not in verdict.detail
        assert max(bounds) <= verdict.detail["stage1_threshold"]
    else:
        n_a = np.median([
            sampled_averaged_stats(measure_sampler(p), config, samples.substream("stage1", rep),
                                   internal.substream("stage1", rep))[1]
            for rep in range(reps)
        ])
        assert verdict.detail["stage1_statistic"] == n_a == reference.detail["stage1_statistic"]
        assert n_a <= verdict.detail["stage1_threshold"] < max(bounds)


def test_diagonal_rejected_at_stage_two():
    config = IndependenceConfig(n1=20, n2=20, **DESK)
    verdict = rep_independence_test(
        diagonal_measure(20), config, ROOT.substream("diag")
    )
    assert not verdict.accept
    assert verdict.detail["stage"] == 2


# (Z_a, N_a) of sampled_averaged_stats, the verdict fields (accept,
# statistic, threshold, stage 1 statistic, stage 1 threshold) per desk
# case and seed, and the stage 1 bound that certifies it. The stage 1
# statistics were recorded before stage 1 was certified from its plans;
# it is no longer computed, and each bound must hold it. (Z_a, N_a) and
# the statistic were recorded when the runs began to average their
# sub-bin orders exactly; the values before that are those of the
# sampled-order reference (SAMPLED_ORDER_PINNED).
PINNED = {
    ("product", 1): ((-7.0737899393601, 387.09492458130296),
                     (True, 7.8052720944064085, 65.12607293088472, 392.74, 149378.42096167366),
                     1163.26),
    ("product", 2): ((2.3017925076246444, 395.4632036046125),
                     (True, 1.468451970347569, 174.68180028039433, 385.12, 86136.42177728892),
                     1162.6),
    ("product", 3): ((-10.82934984200806, 401.61532068949157),
                     (True, -4.286287563007184, 164.02021913793246, 387.28, 69952.57788250218),
                     1158.3),
    ("diagonal", 1): ((250.51067953531964, 444.32509996434453),
                      (False, 236.5713195869477, 85.12210291180885, 455.52, 134893.42284526196),
                      761.62),
    ("diagonal", 2): ((238.2534966766976, 449.6672569899619),
                      (False, 250.03321739420085, 94.46644534070057, 444.18, 76711.24645430324),
                      753.12),
    ("diagonal", 3): ((249.8415325723621, 456.57776259751734),
                      (False, 261.85363094260714, 78.45495983284846, 460.98, 86655.95419729636),
                      758.82),
}


def _desk_case(case):
    p, (n1, n2) = {"product": (uniform_product_measure(40, 20), (40, 20)),
                   "diagonal": (diagonal_measure(20), (20, 20))}[case]
    return p, IndependenceConfig(n1=n1, n2=n2, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK)


@pytest.mark.parametrize("case, seed", sorted(PINNED))
def test_desk_outputs_are_pinned_bit_for_bit(case, seed):
    """The independence-desk cases give exactly the recorded values.

    Any change to a draw, to the chunk boundaries or to the arithmetic
    of a run changes some of these floats, so a change that means to
    keep every verdict bit-identical must leave this test passing.
    """
    p, config = _desk_case(case)
    rng = RngStream(seed, f"pinned/{case}")
    stats_expected, verdict_expected, bound = PINNED[case, seed]
    assert sampled_averaged_stats(measure_sampler(p.on((config.n1, config.n2))), config,
                                  rng.substream("sets"), rng.substream("runs")) == stats_expected
    v = rep_independence_test(p, config, rng.substream("verdict"))
    accept, statistic, threshold, stage1_statistic, stage1_threshold = verdict_expected
    assert v.detail["stage"] == 2
    assert (v.accept, v.statistic, v.threshold, v.detail["stage1_threshold"]) == (
        accept, statistic, threshold, stage1_threshold)
    assert v.detail["stage1_certified"] is True
    assert v.detail["stage1_bound"] == bound >= stage1_statistic


# (Z_a, N_a) of averaged_stats per desk case and seed, on fixed sets of
# 100 m pairs drawn once from measure_sampler and from
# product_of_marginals_sampler. PINNED reaches the runs only through
# fresh draws, and the lazy/eager test compares the two paths with each
# other, so neither sees a change that moves both paths at once.
FIXED_PINNED = {
    ("product", 1): (-11.818191127682953, 383.19367380776185),
    ("product", 2): (1.5593823275792718, 384.4448422728065),
    ("product", 3): (-3.9633333039255128, 388.7787185576649),
    ("diagonal", 1): (243.20554376287467, 458.3891288183934),
    ("diagonal", 2): (241.9677509150987, 451.8845391597543),
    ("diagonal", 3): (235.0235507911865, 451.7905540416304),
}


def _fixed_desk_sets(case, seed):
    """The fixed sets of FIXED_PINNED: ``(config, S_p, S_q, rng)``."""
    p, config = _desk_case(case)
    n1, n2 = config.n1, config.n2
    size = 100 * config.sample_size()
    rng = RngStream(seed, f"pinned/{case}")
    sampler = measure_sampler(p.on((n1, n2)))
    flat_p = sampler(size, rng.substream("fixed-sets", "p").generator())
    flat_q = product_of_marginals_sampler(sampler, (n1, n2))(
        size, rng.substream("fixed-sets", "q").generator())
    sp, sq = (np.stack(np.divmod(flat, n2), axis=1) for flat in (flat_p, flat_q))
    return config, sp, sq, rng


@pytest.mark.parametrize("case, seed", sorted(FIXED_PINNED))
def test_desk_fixed_sets_are_pinned_bit_for_bit(case, seed):
    config, sp, sq, rng = _fixed_desk_sets(case, seed)
    assert averaged_stats(sp, sq, config, rng.substream("fixed-runs")) == FIXED_PINNED[case, seed]


def _pairs_at(sp, sq):
    """The pair source of ``averaged_stats`` on the fixed sets ``sp`` and ``sq``."""
    return lambda touched: np.concatenate([sp[touched[0]].T, sq[touched[1]].T], axis=1)


# (Z_a, N_a) recorded before the runs averaged their sub-bin orders
# exactly: PINNED's and FIXED_PINNED's estimates with drawn orders.
SAMPLED_ORDER_PINNED = {
    ("fresh", "product", 1): (-6.68, 387.08),
    ("fresh", "product", 2): (-0.76, 399.54),
    ("fresh", "product", 3): (-11.22875, 406.4),
    ("fresh", "diagonal", 1): (250.42254133224486, 444.3),
    ("fresh", "diagonal", 2): (238.83080971062182, 450.76),
    ("fresh", "diagonal", 3): (249.28944613239727, 456.58),
    ("fixed", "product", 1): (-12.4325, 391.84),
    ("fixed", "product", 2): (2.44, 380.44),
    ("fixed", "product", 3): (-1.745625, 386.62),
    ("fixed", "diagonal", 1): (243.35789502039552, 460.0),
    ("fixed", "diagonal", 2): (240.90160653159023, 450.28),
    ("fixed", "diagonal", 3): (234.38215021699668, 453.08),
}


@pytest.mark.parametrize("path, case, seed", sorted(SAMPLED_ORDER_PINNED))
def test_sampled_order_reference_gives_the_values_before_the_order_average(path, case, seed):
    # the reference draws the orders from the generator that places the
    # dividers and draws their types, after them, as the runs did
    if path == "fresh":
        p, config = _desk_case(case)
        rng = RngStream(seed, f"pinned/{case}")
        planned = ind._plan_fresh(measure_sampler(p.on((config.n1, config.n2))), config,
                                  rng.substream("sets"), rng.substream("runs"))
    else:
        config, sp, sq, rng = _fixed_desk_sets(case, seed)
        planned = (*ind._plan_average((sp.shape[0], sq.shape[0]), config,
                                      rng.substream("fixed-runs"), None), _pairs_at(sp, sq))
    assert sampled_order_average(*planned) == SAMPLED_ORDER_PINNED[path, case, seed]


@pytest.mark.parametrize("case", ["product", "diagonal"])
def test_a_finish_draws_nothing(case):
    # planning and placement hold all of a run's randomness, so finishing
    # one plan and placement twice gives the same (Z, N)
    config, sp, sq, rng = _fixed_desk_sets(case, 1)
    k, plans = ind._plan_average((sp.shape[0], sq.shape[0]), config,
                                 rng.substream("fixed-runs"), None)
    placed = ind._place_dividers(plans)
    touched = ind._touched_positions(plans, placed)
    coords = _pairs_at(sp, sq)(touched)
    assert len(plans) > 1
    for plan, where in zip(plans, placed):
        first = ind._finish_runs(plan, where, coords, touched)
        assert ind._finish_runs(plan, where, coords, touched) == first


@pytest.mark.parametrize("case, c_n, seed", [
    ("product", None, 1), ("diagonal", None, 2), ("diagonal", 0.005, 0), ("diagonal", 0.005, 1),
])
def test_verdict_thresholds_are_the_shared_draw_on_the_internal_substreams(case, c_n, seed):
    # stage 2 at the desk constants; with C_N = 0.005 stage 1 runs and
    # rejects, and its verdict carries the stage 1 threshold
    p, config = _desk_case(case)
    if c_n is not None:
        config = IndependenceConfig(n1=20, n2=20, epsilon=0.35, rho=0.2,
                                    **{**INDEPENDENCE_DESK, "c_n": c_n, "k_avg": 20})
    rng = ROOT.substream("shared-threshold", case, seed)
    verdict = rep_independence_test(p, config, rng)
    internal, m, (n1, n2) = rng.substream("internal"), config.sample_size(), (config.n1, config.n2)
    n_threshold = uniform_threshold(internal.substream("threshold-N"), 2 * config.c_n,
                                    100 * config.c_n, stage1_scale(m, n1, n2))
    if c_n is None:
        z_threshold = uniform_threshold(internal.substream("threshold-Z"), config.c_i1,
                                        config.c_i2, independence_gap(m, n1, n2, config.epsilon))
        assert verdict.detail["stage"] == 2
        assert (verdict.threshold, verdict.detail["stage1_threshold"]) == (z_threshold, n_threshold)
    else:
        assert (verdict.detail["stage"], verdict.accept) == (1, False)
        assert verdict.threshold == n_threshold < verdict.statistic


@pytest.mark.parametrize("case, seed, runs", [("product", 1, 1000), ("diagonal", 1, 1000)])
def test_order_average_keeps_the_mean_and_lowers_the_spread(case, seed, runs):
    # Single runs on fixed desk sets, each planned once and finished twice:
    # with the exact order average, and with orders drawn by the reference.
    # The difference has mean 0, so the paired mean of Z and N agrees
    # within 3 se, and the exact runs spread less.
    config, sp, sq, rng = _fixed_desk_sets(case, seed)
    exact, drawn = np.empty((runs, 2)), np.empty((runs, 2))
    for j in range(runs):
        stream = rng.substream("single-run", j)
        exact[j] = averaged_stats(sp, sq, config, stream, k_avg=1)
        drawn[j] = sampled_order_average(
            *ind._plan_average((sp.shape[0], sq.shape[0]), config, stream, 1), _pairs_at(sp, sq))
    gap = drawn - exact
    se = gap.std(axis=0, ddof=1) / math.sqrt(runs)
    assert np.all(np.abs(gap.mean(axis=0)) <= 3 * se)
    assert np.all(exact.std(axis=0, ddof=1) <= drawn.std(axis=0, ddof=1))


# Tiny runs: kept samples (row, col, side), then the rows of the
# x-flagged dividers and the columns of the y-flagged ones.
ORDER_CASES = [
    ([(0, 0, 0), (0, 0, 0)], [], []),
    ([(0, 0, 0), (0, 0, 1)], [0], []),
    ([(0, 0, 0), (0, 0, 1), (0, 0, 0)], [0], []),
    ([(0, 0, 0), (0, 0, 0), (0, 0, 1)], [0, 0], [0]),
    ([(0, 0, 0), (0, 0, 1), (0, 0, 1)], [], [0, 0]),
    ([(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)], [0], [1]),
    ([(0, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 1)], [0, 1], [1, 1]),
    ([(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 1)], [0, 0], [0, 0]),
    ([(0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 1), (0, 0, 0)], [0], [0]),
    ([(0, 0, 0), (0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)], [1, 1], [0]),
    ([(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (0, 1, 1)], [0, 0], []),
    ([(2, 1, 0), (2, 1, 0), (2, 1, 1), (2, 1, 1), (0, 0, 0)], [2], [1, 1]),
]


@pytest.mark.parametrize("kept, x_rows, y_cols", ORDER_CASES)
def test_order_average_is_the_mean_over_every_order(kept, x_rows, y_cols):
    # One run, flag counts F from 0 to 2, up to 5 kept samples: the
    # cells' exact means must be the average over every row order,
    # every column order and every marking.
    shape = (3, 2)
    kept = sorted(kept, key=lambda sample: sample[2])
    cells = np.array([r * shape[1] + c for r, c, _ in kept])
    kept_p = sum(side == 0 for _, _, side in kept)
    shared = ind._shared_cells(cells, kept_p, shape, np.array(x_rows, dtype=np.int64),
                               np.array(y_cols, dtype=np.int64))
    got = cell_means.CELL_MEANS.sums(*shared)
    expected = order_average_stats(kept, x_rows, y_cols)
    assert got == pytest.approx([float(v) for v in expected], rel=0, abs=1e-9)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_cell_means_match_exact_fractions(a, b, f_r, f_c):
    # relative 1e-12; where the mean is near 0 its terms cancel, so the
    # error is held to 1e-12 absolute there
    if a + b < 2:
        return
    memo = cell_means.CellMeanMemo()
    got = memo.sums(*(np.array([v]) for v in (a, b, f_r, f_c)))
    expected = exact_cell_means(a, b, f_r, f_c)
    assert got == pytest.approx([float(v) for v in expected], rel=1e-12, abs=1e-12)


def test_a_cell_mean_does_not_depend_on_its_group_or_the_memo():
    # the memo keeps values by key, so a value must be the same whichever
    # cells it was evaluated with, and a cell too large for a key is
    # evaluated each time
    gen = ROOT.substream("cell-groups").generator()
    size = 300
    a = gen.integers(0, 40, size)
    b = gen.integers(0, 8, size)
    f1 = gen.integers(0, 12, size)
    f2 = np.minimum(gen.integers(0, 12, size), f1)
    a, b = np.maximum(a, b) + 1, np.minimum(a, b) + 1
    together = cell_means.cell_means(a, b, f1, f2)
    alone = np.concatenate([cell_means.cell_means(a[i:i + 1], b[i:i + 1], f1[i:i + 1], f2[i:i + 1])
                            for i in range(size)])
    assert np.array_equal(together, alone)
    memo = cell_means.CellMeanMemo()
    first = memo.sums(a, b, f1, f2)
    assert memo.size == np.unique(np.stack([a, b, f1, f2]), axis=1).shape[1]
    # the same cells again, with a and b and the flags swapped, are all known
    assert np.array_equal(memo.sums(b, a, f2, f1), first)
    # a memo filled in two rounds moves its first entries to merge the second
    halves = cell_means.CellMeanMemo()
    halves.sums(a[::2], b[::2], f1[::2], f2[::2])
    assert np.array_equal(halves.sums(a, b, f1, f2), first)
    assert halves.size == memo.size
    assert np.array_equal(halves.sums(a, b, f1, f2), first)
    big = np.array([2**11])
    assert np.array_equal(memo.sums(np.array([3]), np.array([2]), big, np.array([1])),
                          cell_means.cell_means(np.array([3]), np.array([2]), big, np.array([1]))[0])


def test_a_group_of_cells_stays_within_its_entries(monkeypatch):
    # a group's laws are as wide as its largest cell, rounded up to a
    # multiple of _STEP, and it repeats its last cell up to a power of two
    shapes = []
    group = cell_means._cell_group
    monkeypatch.setattr(cell_means, "_cell_group",
                        lambda a, b, f1, f2: shapes.append((a.size, int((a + b).max())))
                        or group(a, b, f1, f2))
    gen = ROOT.substream("cell-group-size").generator()
    n = np.concatenate([gen.integers(2, 40, 2000), gen.integers(40, 600, 1000)])
    b = gen.integers(0, n // 2 + 1)
    f1 = gen.integers(0, 6, n.size)
    cell_means.cell_means(n - b, b, f1, np.minimum(gen.integers(0, 6, n.size), f1))
    assert sum(rows for rows, _ in shapes) >= n.size
    for rows, largest in shapes:
        assert rows & (rows - 1) == 0
        assert 4 * rows * cell_means._wide(largest + 1) <= cell_means._GROUP_ENTRIES


def test_a_trimmed_law_drops_only_each_rows_tail():
    # a row keeps its entries up to where less than 2^-60 of its mass is
    # left, whatever the other rows hold
    laws = cell_means._half_binomials(np.array([40, 400, 4000]), 4097)
    trimmed = cell_means._trimmed(laws)
    assert trimmed.shape[1] < laws.shape[1]
    for law, row in zip(laws, trimmed):
        kept = int(np.flatnonzero(row)[-1]) + 1
        assert np.array_equal(row[:kept], law[:kept]) and not row[kept:].any()
        assert law[kept:].sum() < 2.0**-60 <= law[kept - 1:].sum()
        alone = cell_means._trimmed(law[None, :])[0]
        assert np.array_equal(row[:alone.size], alone) and not row[alone.size:].any()


@pytest.mark.parametrize("a, b", [(900, 850), (1500, 700)])
def test_a_cell_without_flags_is_its_key_mark_mean(a, b):
    # one sub-bin holds the whole cell, so only the marks are averaged;
    # its trimmed binomial law must still give the exact mean
    z, n = cell_means.cell_means(np.array([a]), np.array([b]), np.array([0]), np.array([0]))[0]
    assert z == pytest.approx(key_mark_mean(a, b), rel=1e-12)
    assert n == a + b


def test_excess_matches_the_hypergeometric_walk_it_sums():
    # E[(Y - X)^+] = sum_j P(J = j) E[(2Y - j)^+], Y ~ Hyp(n, b, j), on
    # cells far larger than the exact-fraction oracle reaches
    gen = ROOT.substream("excess").generator()
    a = gen.integers(1, 200, 15)
    b = np.minimum(gen.integers(0, 200, 15), a)
    n = a + b
    marked = gen.random((a.size, int(n.max()) + 1)) * (np.arange(int(n.max()) + 1) <= n[:, None])
    marked /= marked.sum(axis=1, keepdims=True)
    got = cell_means._excess(a, b, marked)
    for t in range(a.size):
        j = np.arange(2 * b[t])
        y = np.arange(b[t] + 1)
        walk = (stats.hypergeom.pmf(y[None, :], n[t], b[t], j[:, None])
                * np.maximum(2 * y[None, :] - j[:, None], 0)).sum(axis=1)
        assert got[t] == pytest.approx(marked[t, :j.size] @ walk, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("count, flags", [(2000, 300), (8000, 200), (40, 7)])
def test_a_split_keeps_its_mass_beyond_the_range_of_its_binomials(count, flags):
    # C(count + flags, flags) is about e^890 and e^940 in the first two
    # rows, so the quotients of the sums would underflow without their
    # headroom; the sums must match the closed form of the same law
    summed = cell_means._tag_count_law(np.eye(count + 1)[[count]], np.array([flags]))[0]
    closed = cell_means._split_point_masses(np.array([count]), np.array([flags]), count + 1)[0]
    assert summed.sum() == pytest.approx(1.0, abs=1e-12)
    shown = closed > 1e-250
    assert summed[shown] == pytest.approx(closed[shown], rel=1e-10)


def test_a_split_in_stages_is_the_split(monkeypatch):
    # a narrower range per stage makes each split below run in two or
    # more stages; the law of Bin(n, 1/2) split by F is the mixture of
    # the point masses' closed forms, and a point mass's is closed
    monkeypatch.setattr(cell_means, "_STAGE_RANGE", 700.0)
    thins = []
    thin = cell_means._thin
    monkeypatch.setattr(cell_means, "_thin", lambda *args: thins.append(args) or thin(*args))
    count, flags = 2000, 300
    staged = cell_means._tag_count_law(np.eye(count + 1)[[count]], np.array([flags]))[0]
    closed = cell_means._split_point_masses(np.array([count]), np.array([flags]), count + 1)[0]
    shown = closed > 1e-250
    assert staged[shown] == pytest.approx(closed[shown], rel=1e-10)
    n, flags = 6000, 300
    binomial = cell_means._half_binomials(np.array([n]), n + 1)
    staged = cell_means._tag_count_law(binomial, np.array([flags]))[0]
    middle = np.flatnonzero(binomial[0] > 1e-30)
    mixed = binomial[0, middle] @ cell_means._split_point_masses(middle, np.full(middle.size, flags), n + 1)
    assert staged.sum() == pytest.approx(1.0, abs=1e-12)
    shown = mixed > 1e-250
    assert staged[shown] == pytest.approx(mixed[shown], rel=1e-9)
    assert len(thins) >= 4


def test_a_split_that_no_stage_can_carry_raises(monkeypatch):
    # a stage must take at least one flag with ln C(top + s, s) in range
    monkeypatch.setattr(cell_means, "_STAGE_RANGE", 0.5)
    with pytest.raises(OverflowError):
        cell_means._tag_count_law(np.eye(601)[[600]], np.array([30]))


def test_a_certified_stage_one_places_no_divider(monkeypatch):
    # stage 1 is decided from its plans' truncation sizes, so only stage
    # 2's plans place their dividers
    placed = []
    place = ind._place_dividers
    monkeypatch.setattr(ind, "_place_dividers", lambda plans: placed.append(plans) or place(plans))
    p, config = _desk_case("product")
    verdict = rep_independence_test(p, config, ROOT.substream("no-placement"))
    assert verdict.detail["stage1_certified"] is True
    stage2 = ind._plan_fresh(measure_sampler(p), config, ROOT.substream("unused"),
                             ROOT.substream("no-placement", "internal", "stage2", 0))[1]
    assert len(placed) == 1 and len(placed[0]) == len(stage2)
