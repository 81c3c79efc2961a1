import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import replitest.independence as ind
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

from oracles import enumerate_independence_means, zc_mean, zc_value

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
    assert ind._key_mark_mean(a, n - a) == pytest.approx(zc_mean([0] * a, [0] * (n - a)),
                                                         rel=1e-12, abs=0)


@given(key_bags, key_bags)
@settings(max_examples=60, deadline=None)
def test_mark_averaged_statistic_sums_the_key_means(sp, sq):
    # the one sort must recover (a, b) and N for every key, whatever the order
    keys = np.array(sp + sq, dtype=np.int64)
    expected = sum(ind._key_mark_mean(sp.count(k), sq.count(k)) for k in set(sp) | set(sq))
    got = ind._key_stats(keys.copy(), len(sp))[0]
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert ind._key_stats(keys.copy(), len(sp))[1] == non_singleton_count(keys)


def test_marked_statistic_averages_to_the_mark_averaged_statistic():
    # fixed keys with shared keys on one side, on both sides and singletons
    sp = [3, 3, 7, 7, 7, 9, 11, 12, 12, 12, 12]
    sq = [3, 7, 9, 9, 11, 11, 11, 2, 12]
    exact = ind._key_stats(np.array(sp + sq), len(sp))[0]
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
        drawn = ind._touched_positions(plans)
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
# it is no longer computed, and each bound must hold it.
PINNED = {
    ("product", 1): ((-6.68, 387.08),
                     (True, 9.17875, 65.12607293088472, 392.74, 149378.42096167366), 1163.26),
    ("product", 2): ((-0.76, 399.54),
                     (True, 2.401875, 174.68180028039433, 385.12, 86136.42177728892), 1162.6),
    ("product", 3): ((-11.22875, 406.4),
                     (True, -4.6, 164.02021913793246, 387.28, 69952.57788250218), 1158.3),
    ("diagonal", 1): ((250.42254133224486, 444.3),
                      (False, 236.29555905118585, 85.12210291180885, 455.52, 134893.42284526196),
                      761.62),
    ("diagonal", 2): ((238.83080971062182, 450.76),
                      (False, 249.06461846858264, 94.46644534070057, 444.18, 76711.24645430324),
                      753.12),
    ("diagonal", 3): ((249.28944613239727, 456.58),
                      (False, 262.6787642747164, 78.45495983284846, 460.98, 86655.95419729636),
                      758.82),
}


@pytest.mark.parametrize("case, seed", sorted(PINNED))
def test_desk_outputs_are_pinned_bit_for_bit(case, seed):
    """The independence-desk cases give exactly the values recorded on commit 3c4711b.

    Those values come from the chunk path before it was rewritten to
    sort in place and to hold fewer arrays. Any change to a draw, to the
    chunk boundaries or to the arithmetic of a run changes some of
    these floats, so a change that means to keep every verdict
    bit-identical must leave this test passing.
    """
    p, (n1, n2) = {"product": (uniform_product_measure(40, 20), (40, 20)),
                   "diagonal": (diagonal_measure(20), (20, 20))}[case]
    config = IndependenceConfig(n1=n1, n2=n2, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK)
    rng = RngStream(seed, f"pinned/{case}")
    stats_expected, verdict_expected, bound = PINNED[case, seed]
    assert sampled_averaged_stats(measure_sampler(p.on((n1, n2))), config,
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
# product_of_marginals_sampler, recorded on commit d61ae86. PINNED
# reaches the runs only through fresh draws, and the lazy/eager test
# compares the two paths with each other, so neither sees a change that
# moves both paths at once.
FIXED_PINNED = {
    ("product", 1): (-12.4325, 391.84),
    ("product", 2): (2.44, 380.44),
    ("product", 3): (-1.745625, 386.62),
    ("diagonal", 1): (243.35789502039552, 460.0),
    ("diagonal", 2): (240.90160653159023, 450.28),
    ("diagonal", 3): (234.38215021699668, 453.08),
}


@pytest.mark.parametrize("case, seed", sorted(FIXED_PINNED))
def test_desk_fixed_sets_are_pinned_bit_for_bit(case, seed):
    p, (n1, n2) = {"product": (uniform_product_measure(40, 20), (40, 20)),
                   "diagonal": (diagonal_measure(20), (20, 20))}[case]
    config = IndependenceConfig(n1=n1, n2=n2, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK)
    size = 100 * config.sample_size()
    rng = RngStream(seed, f"pinned/{case}")
    sampler = measure_sampler(p.on((n1, n2)))
    flat_p = sampler(size, rng.substream("fixed-sets", "p").generator())
    flat_q = product_of_marginals_sampler(sampler, (n1, n2))(
        size, rng.substream("fixed-sets", "q").generator())
    sp, sq = (np.stack(np.divmod(flat, n2), axis=1) for flat in (flat_p, flat_q))
    assert averaged_stats(sp, sq, config, rng.substream("fixed-runs")) == FIXED_PINNED[case, seed]
