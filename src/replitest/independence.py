"""Replicable independence tester for distributions on ``[n1] x [n2]``.

The core statistic flattens the samples on both axes, truncates to
Poisson-sized subsets, and evaluates the marked closeness statistic
(:func:`closeness_stat_marked`: ``closeness_statistic`` on counts split
by source and a fair mark) between samples from the unknown
distribution ``p`` and samples from the product of its marginals
(simulated by splicing coordinates of two independent ``p`` samples).
Because the statistic is randomized, the tester works with its average
over the internal randomness, estimated by rerunning the statistic many
times on fixed sample sets. A pre-test on the averaged non-singleton
count keeps the variance of the averaged statistic in check before the
main threshold comparison, whose scale is the closeness soundness floor
on ``n1 n2`` elements with ``C2 = 1``.

The marks are not drawn: each run contributes the exact mean of the
marked statistic over them, the sum over keys of :func:`_key_mark_mean`.
That is the conditional expectation given the run's flattened sets, so
the averaged statistic keeps its mean and its variance cannot rise
(Rao-Blackwell; Casella & Robert, *Biometrika*, 1996).

The reruns execute as one array program per chunk of runs
(``_averaged``). Each run draws its flattening selectors sparsely: a
Binomial number of dividers at a uniform subset of positions, which has
the law of iid Bernoulli flags, so a run touches only its kept samples
and dividers, not the whole sample sets. Keys carry the run index, so a
statistic of all runs of a chunk comes from one call on its keys and
equals the sum of the per-run values exactly. One sort of the chunk's
keys gives both statistics: the mark-averaged statistic that stage 2
reads and the non-singleton count that stage 1 reads.

Fixed sample sets (``averaged_stats``) and fresh draws
(``sampled_averaged_stats``) feed the runs the same way. Every run's
selectors are drawn first; they name the positions the runs read: a
prefix that holds every kept sample, plus the scattered dividers beyond
it. Fixed sets are then indexed at those positions, and the tester,
which never draws its sets of ``100 m`` pairs in full, draws pairs for
those positions only, in position order. The pairs are iid and
independent of the selectors, and a pair that no run reads never
reaches ``Z`` or ``N``, so leaving it undrawn changes no law (the
principle of deferred decisions, Motwani & Raghavan, *Randomized
Algorithms*, 1995). At desk scale a set then holds about 3,600 of its
58,000 pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calibrated import INDEPENDENCE_DESK
from .closeness import closeness_statistic, soundness_floor
# non_singleton_count is bound only for bench/spans.py, which wraps it here by name.
from .flattening import non_singleton_count, pack_keys, subbin_indices
from .measures import NonNegativeMeasure
from .rng import RngStream
from .sampling import IndexSampler, measure_sampler
from .verdict import TesterVerdict, _sample_budget


def independence_sample_size(
    n1: int, n2: int, epsilon: float, rho: float, m_scale: float = 1.0
) -> int:
    """Sample budget ``m`` for the independence tester.

    ``m = ceil(m_scale * max(log(n1 n2), 1)
             * (n1^{2/3} n2^{1/3} rho^{-2/3} eps^{-4/3}
                + sqrt(n1 n2) rho^{-1} eps^{-2} + eps^{-2} rho^{-2}))``

    The log factor is clamped below at 1 so degenerate domains keep a
    positive budget.
    """
    if n1 < n2 or n2 < 1:
        raise ValueError("need n1 >= n2 >= 1")
    return _sample_budget(epsilon, rho, m_scale, lambda: m_scale * max(math.log(n1 * n2), 1.0) * (
        n1 ** (2.0 / 3.0) * n2 ** (1.0 / 3.0) * rho ** (-2.0 / 3.0) * epsilon ** (-4.0 / 3.0)
        + math.sqrt(n1 * n2) * rho**-1 * epsilon**-2
        + epsilon**-2 * rho**-2))


def independence_gap(m: int, n1: int, n2: int, epsilon: float) -> float:
    """Expectation-gap scale: the closeness soundness floor on ``n1 n2`` elements, ``C2 = 1``."""
    return soundness_floor(m, n1 * n2, epsilon, 1.0)


def stage1_scale(m: int, n1: int, n2: int) -> float:
    """Pre-test scale ``max(m^2 / (n1 n2), m / n2)`` for the non-singleton count."""
    return max(m**2 / (n1 * n2), m / n2)


@dataclass(frozen=True)
class IndependenceConfig:
    """Parameters of the independence tester.

    ``epsilon`` and ``rho`` are nominally in (0, 1/4); desk-scale
    experiments also run above that range, so only (0, 1) is enforced.
    """

    n1: int
    n2: int
    epsilon: float
    rho: float
    c_n: float = INDEPENDENCE_DESK["c_n"]
    c_i1: float = INDEPENDENCE_DESK["c_i1"]
    c_i2: float = INDEPENDENCE_DESK["c_i2"]
    k_avg: int = 200
    median_reps: int = 1
    m_scale: float = 1.0

    def __post_init__(self) -> None:
        self.sample_size()  # checks n1, n2, epsilon, rho and m_scale
        if not self.c_i1 < self.c_i2:
            raise ValueError("need C_I1 < C_I2")
        if self.c_n <= 0:
            raise ValueError("C_N must be positive")
        if self.k_avg < 1:
            raise ValueError("K_avg must be >= 1")
        if self.median_reps < 1 or self.median_reps % 2 == 0:
            raise ValueError("median_reps must be odd and >= 1")

    def sample_size(self) -> int:
        return independence_sample_size(self.n1, self.n2, self.epsilon, self.rho, self.m_scale)

    def alpha(self, m: int) -> float:
        return min(self.n1 / (100.0 * m), 0.01)

    def beta(self, m: int) -> float:
        # Clipped only to stay a valid Bernoulli rate.
        return min(self.n2 / (100.0 * m), 1.0)


def product_of_marginals_sampler(sampler_p: IndexSampler, shape: tuple[int, int]) -> IndexSampler:
    """Batch sampler over flat codes for the product of marginals of ``p``.

    Each draw combines the row of one sample from ``p`` with the column
    of an independent one.
    """
    _, n2 = shape

    def draw(k: int, gen: np.random.Generator) -> np.ndarray:
        flat = sampler_p(2 * k, gen)
        rows = flat[:k] // n2
        cols = flat[k:] % n2
        return rows * n2 + cols

    return draw


def closeness_stat_marked(sp_keys: np.ndarray, sq_keys: np.ndarray, rng: RngStream) -> int:
    """Marked closeness statistic between two bags of hashable keys.

    Every sample is marked independently with probability 1/2; the
    statistic is :func:`closeness_statistic` of the per-key counts
    ``(Tp0, Tp1, Tq0, Tq1)`` split by source and 0/1 mark. Singleton
    keys contribute 0. This is the definition; the tester's runs add its
    exact mean over the marks instead (:func:`_key_stats`).
    """
    sp_keys = np.asarray(sp_keys, dtype=np.int64)
    sq_keys = np.asarray(sq_keys, dtype=np.int64)
    total = sp_keys.size + sq_keys.size
    keys = np.concatenate([sp_keys, sq_keys])
    marked = rng.generator().random(total) < 0.5
    uniq, inverse = np.unique(keys, return_inverse=True)
    from_p = np.zeros(total, dtype=bool)
    from_p[: sp_keys.size] = True

    def bucket(mask: np.ndarray) -> np.ndarray:
        return np.bincount(inverse[mask], minlength=uniq.size)

    return closeness_statistic(
        bucket(from_p & marked),
        bucket(from_p & ~marked),
        bucket(~from_p & marked),
        bucket(~from_p & ~marked),
    )


@functools.lru_cache(maxsize=2**12)
def _key_mark_mean(a: int, b: int) -> float:
    """Mean over fair marks of one key's term of :func:`closeness_stat_marked`.

    The key holds ``a`` samples from ``S_p`` and ``b`` from ``S_q``;
    ``U ~ Bin(a, 1/2)`` and ``V ~ Bin(b, 1/2)`` count their marked ones.
    The term is ``|U - V| + |(a - U) - (b - V)| - |2U - a| - |2V - b|``,
    and ``W = U + b - V ~ Bin(a + b, 1/2)`` is symmetric about
    ``(a + b) / 2``, so both first terms have mean ``E|W - a|``:
    ``f(a, b) = 2 E|W - a| - E|2U - a| - E|2V - b|``. The three means
    are exact integer sums over ``2^(a+b)``, rounded once. Singletons
    give 0. A chunk's keys hold a few dozen distinct ``(a, b)`` pairs at
    desk scale, so the values are memoised; counts pass 64 at library
    defaults, so no fixed table covers them.
    """
    n = a + b
    w = sum(math.comb(n, k) * abs(k - a) for k in range(n + 1))
    u = sum(math.comb(a, k) * abs(2 * k - a) for k in range(a + 1))
    v = sum(math.comb(b, k) * abs(2 * k - b) for k in range(b + 1))
    return (2 * w - (u << b) - (v << a)) / (1 << n)


def _key_stats(keys: np.ndarray, kept_p: int) -> tuple[float, int]:
    """``(Z, N)`` of the keys; the first ``kept_p`` are from ``S_p``.

    ``Z`` is the sum of :func:`_key_mark_mean` over the distinct keys and
    ``N`` the non-singleton count (:func:`non_singleton_count`). One
    sort of ``2 key + side`` lists each key's samples together, the
    ``S_p`` ones first, so the group sizes and the ``S_q`` bits give
    ``(a, b)`` per key, and ``N`` is the sum of the group sizes of at
    least 2. Each ``(a, b)`` pair that occurs is evaluated once.
    """
    if keys.max(initial=0) >= 2**62:
        raise OverflowError("2 * key does not fit in int64")
    side = np.ones(keys.size, dtype=np.int64)
    side[:kept_p] = 0
    tagged = np.sort(keys * 2 + side)
    key = tagged >> 1
    # Group starts, plus the end of the last group.
    first = np.ones(key.size + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:-1])
    bounds = np.flatnonzero(first)
    from_q = np.zeros(key.size + 1, dtype=np.int64)
    np.cumsum(tagged & 1, out=from_q[1:])
    size = np.diff(bounds)
    b = np.diff(from_q[bounds])
    shared = size >= 2
    size = size[shared]
    b = b[shared]
    radix = int(b.max(initial=0)) + 1
    count = np.bincount((size - b) * radix + b)
    pairs = np.flatnonzero(count)
    z = sum(c * _key_mark_mean(*divmod(pair, radix))
            for pair, c in zip(pairs.tolist(), count[pairs].tolist()))
    return z, int(size.sum())


# Expected kept samples plus dividers in one chunk of averaged runs: it
# bounds the working memory of an average, whatever K_avg is.
_CHUNK_ITEMS = 2**14


def _distinct_positions(
    pop: np.ndarray, count: np.ndarray, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``count[i]`` distinct uniform positions in ``range(pop[i])`` per segment ``i``.

    Returns ``(segment, position)``, grouped by segment and sorted within
    it. Each segment draws uniform positions and redraws, as often as
    needed, one fresh position per repeat it lost. That procedure treats
    every position alike, so its final set is a uniform
    ``count[i]``-subset. Needs ``count <= pop``.
    """
    offset = np.cumsum(pop) - pop
    segment = np.repeat(np.arange(pop.size), count)
    keys = np.sort(offset[segment] + gen.integers(0, pop[segment]))
    while (repeat := keys[1:] == keys[:-1]).any():
        lost = segment[1:][repeat]
        redraw = offset[lost] + gen.integers(0, pop[lost])
        keys = np.sort(np.concatenate([np.unique(keys), redraw]))
    return segment, keys - offset[segment]


@dataclass(frozen=True)
class _RunPlan:
    """Selectors of the live runs of one chunk, before any sample is read.

    Segment ``s`` holds side ``s // runs`` (0 for ``S_p``, 1 for ``S_q``)
    of run ``s % runs``: ``dividers[s]`` dividers at the positions
    ``div_pos`` of ``div_seg == s``, and the first ``ell[s]``
    non-dividers kept. ``gen`` is the chunk's generator, part way
    through its draws.
    """

    sizes: np.ndarray
    alpha: float
    beta: float
    runs: int
    dividers: np.ndarray
    ell: np.ndarray
    div_seg: np.ndarray
    div_pos: np.ndarray
    gen: np.random.Generator

    def reach(self, side: int) -> int:
        """Bound on the kept positions of ``side``: ``max_j(ell_j + D_j)``."""
        seg = slice(side * self.runs, (side + 1) * self.runs)
        return int((self.ell[seg] + self.dividers[seg]).max())

    def side_dividers(self, side: int) -> np.ndarray:
        cut = int(self.dividers[: self.runs].sum())
        return self.div_pos[cut:] if side else self.div_pos[:cut]


def _plan_runs(
    sizes: np.ndarray,
    alpha: float,
    beta: float,
    poisson_mean: float,
    abort_excess: tuple[float, float],
    k: int,
    rng: RngStream,
) -> _RunPlan | None:
    """Draw the selectors of ``k`` runs on sets of ``sizes`` pairs; ``None`` if all abort.

    The iid flags ``F_x ~ Bernoulli(alpha)`` and ``F_y ~ Bernoulli(beta)``
    make a sample a divider with probability
    ``r = 1 - (1 - alpha)(1 - beta)``, so each side holds
    ``D ~ Binomial(size, r)`` dividers at a uniform ``D``-subset of
    positions: the same law (Devroye 1986). A run aborts, adding
    ``(0, 0)``, when a side has more dividers than ``abort_excess`` or a
    Poisson size ``ell`` exceeds the kept count; an aborted run adds no
    items, matching the convention that its flattened sets are empty.
    """
    rate = 1.0 - (1.0 - alpha) * (1.0 - beta)
    gen = rng.generator()
    dividers = gen.binomial(sizes, rate, size=(k, 2))
    ell = gen.poisson(poisson_mean, size=(k, 2))
    live = (
        ((dividers <= abort_excess) & (ell <= sizes - dividers)).all(axis=1)
        & ell.any(axis=1)
    )
    dividers = dividers[live].T.ravel()
    ell = ell[live].T.ravel()
    runs = ell.size // 2
    if runs == 0:
        return None
    div_seg, div_pos = _distinct_positions(np.repeat(sizes, runs), dividers, gen)
    return _RunPlan(sizes, alpha, beta, runs, dividers, ell, div_seg, div_pos, gen)


def _finish_runs(
    plan: _RunPlan,
    coords: np.ndarray,
    touched: tuple[np.ndarray, np.ndarray],
) -> tuple[float, int]:
    """``(Z, N)`` of the kept samples of the live runs of ``plan``.

    ``coords`` holds the rows and the columns of the pairs of side 0 at
    the sorted positions ``touched[0]``, then of side 1 at
    ``touched[1]``. Kept samples lie in the prefix
    ``[0, plan.reach(s))`` that ``touched[s]`` starts with, so their
    positions index the side directly; only the dividers are looked up.

    The kept samples are the first ``ell`` non-dividers, computed from
    the sorted divider positions alone. Each divider is x-only, both or
    y-only with weights ``alpha(1-beta) : alpha beta : (1-alpha) beta``.
    Sub-bin tags are computed on the kept samples plus the dividers
    only. Relative orders of a subset under a uniform permutation are
    uniform, and independent across disjoint subsets, so one permutation
    of all runs' items tags every run with the full-set flattening law.
    Tagging ``run * radix + row`` (and ``+ col``) and keying on it keeps
    runs apart: samples of different runs never collide, so both
    statistics of all runs' keys at once, from one sort
    (:func:`_key_stats`), are exactly the sums of the per-run values.
    """
    runs, dividers, ell = plan.runs, plan.dividers, plan.ell
    div_seg, div_pos, gen = plan.div_seg, plan.div_pos, plan.gen
    # The i-th non-divider of a segment sits after every divider t with
    # (non-dividers before it) = pos_t - t <= i.
    div_start = np.cumsum(dividers) - dividers
    radix = int(plan.sizes.max()) + 1
    gaps = div_seg * radix + div_pos - (np.arange(div_seg.size) - div_start[div_seg])
    kept_seg = np.repeat(np.arange(ell.size), ell)
    rank = np.arange(kept_seg.size) - (np.cumsum(ell) - ell)[kept_seg]
    kept_pos = rank + np.searchsorted(gaps, kept_seg * radix + rank, side="right")
    kept_pos -= div_start[kept_seg]

    kept = kept_seg.size
    kept_p = int(ell[:runs].sum())
    div_p = int(dividers[:runs].sum())
    side1 = touched[0].size
    row, col = coords.take(np.concatenate([
        kept_pos[:kept_p], kept_pos[kept_p:] + side1,
        np.searchsorted(touched[0], div_pos[:div_p]),
        np.searchsorted(touched[1], div_pos[div_p:]) + side1,
    ]), axis=1)
    # Segment s holds side s // runs of run s % runs.
    run = np.concatenate([kept_seg, div_seg])
    run[kept_p:kept] -= runs
    run[kept + div_p:] -= runs
    # A divider has F_x with probability alpha / r; F_x alone makes it a
    # divider, so F_y is then an independent Bernoulli(beta), else 1.
    rate = 1.0 - (1.0 - plan.alpha) * (1.0 - plan.beta)
    u = gen.random((2, div_seg.size))
    div_fx = u[0] * rate < plan.alpha
    div_fy = ~div_fx | (u[1] < plan.beta)
    unflagged = np.zeros(kept_seg.size, dtype=bool)
    fx = np.concatenate([unflagged, div_fx])
    fy = np.concatenate([unflagged, div_fy])
    rows = run * (int(row.max()) + 1) + row
    cols = run * (int(col.max()) + 1) + col
    row_subs = subbin_indices(rows, fx, gen.permutation(run.size))
    col_subs = subbin_indices(cols, fy, gen.permutation(run.size))
    keys = pack_keys(rows[:kept], row_subs[:kept], cols[:kept], col_subs[:kept])
    return _key_stats(keys, kept_p)


def _touched_positions(plans: list[_RunPlan], side: int) -> np.ndarray:
    """Sorted positions of ``side`` that some plan reads.

    The prefix ``[0, P)`` with ``P = max_j(ell_j + D_j)`` holds every
    kept sample; the divider positions at or above ``P`` follow it.
    """
    reach = max((plan.reach(side) for plan in plans), default=0)
    scattered = np.concatenate(
        [plan.side_dividers(side) for plan in plans] + [np.zeros(0, dtype=np.int64)]
    )
    return np.concatenate([np.arange(reach), np.unique(scattered[scattered >= reach])])


# The pairs of both sample sets at the given sorted positions of each.
_PairsAt = Callable[[tuple[np.ndarray, np.ndarray]], tuple[np.ndarray, np.ndarray]]


def _averaged(
    sizes: tuple[int, int],
    pairs_at: _PairsAt,
    config: IndependenceConfig,
    rng: RngStream,
    k_avg: int | None,
    alpha: float | None = None,
    beta: float | None = None,
    poisson_mean: float | None = None,
) -> tuple[float, float]:
    """``(Z_a, N_a)``, the averages of ``(Z, N)`` over ``k_avg`` runs on sets of ``sizes`` pairs.

    Run ``j`` flattens both axes, truncates to Poisson sizes and
    contributes ``(Z, N)`` of the truncated flattened sets; an aborted
    run contributes ``(0, 0)``. The runs execute in chunks of
    about 2^14 kept samples plus dividers, chunk ``c`` as one array
    program on ``rng.substream("avg", c)``. Every chunk's selectors are
    drawn first (:func:`_plan_runs`); then ``pairs_at`` gives the pairs
    at the positions some run reads (:func:`_touched_positions`), and
    each chunk finishes on its own generator (:func:`_finish_runs`).
    ``None`` takes the configured ``k_avg``, ``alpha``, ``beta`` and
    Poisson mean ``m``.
    """
    k = config.k_avg if k_avg is None else k_avg
    m = config.sample_size()
    a = config.alpha(m) if alpha is None else alpha
    b = config.beta(m) if beta is None else beta
    mean = float(m) if poisson_mean is None else poisson_mean
    run_items = 2.0 * mean + (1.0 - (1.0 - a) * (1.0 - b)) * sum(sizes)
    chunk = max(1, int(_CHUNK_ITEMS // max(run_items, 1.0)))
    abort_excess = (10.0 * config.n1, 10.0 * config.n2)
    set_sizes = np.array(sizes)
    plans = [
        plan for c, start in enumerate(range(0, k, chunk))
        if (plan := _plan_runs(set_sizes, a, b, mean, abort_excess,
                               min(chunk, k - start), rng.substream("avg", c)))
    ]
    touched = (_touched_positions(plans, 0), _touched_positions(plans, 1))
    coords = np.concatenate(pairs_at(touched)).T.copy()
    stats = [_finish_runs(plan, coords, touched) for plan in plans]
    return sum(z for z, _ in stats) / k, sum(n for _, n in stats) / k


def averaged_stats(
    sp_pairs: np.ndarray,
    sq_pairs: np.ndarray,
    config: IndependenceConfig,
    rng: RngStream,
    *,
    k_avg: int | None = None,
    alpha: float | None = None,
    beta: float | None = None,
    poisson_mean: float | None = None,
    strict_size: bool = True,
) -> tuple[float, float]:
    """Monte Carlo estimates ``(Z_a, N_a)`` of the averaged statistic and count.

    Averages ``k_avg`` (default ``config.k_avg``) independent randomized
    evaluations on fixed sample sets; ``Z`` is the marked statistic,
    averaged exactly over its marks, and ``N`` the non-singleton count
    of the truncated flattened sets. The runs execute in chunks of
    about 2^14 kept samples and dividers; chunk ``c`` draws from
    ``rng.substream("avg", c)``. The sets must
    hold ``100 m`` pairs each unless ``strict_size`` is false. The
    overrides of ``alpha``, ``beta`` and the Poisson mean of the
    truncation sizes exist for enumeration-scale tests; defaults follow
    the configuration (``alpha = min(n1/(100m), 1/100)``,
    ``beta = n2/(100m)``, mean ``m``).
    """
    sets = (np.asarray(sp_pairs, dtype=np.int64), np.asarray(sq_pairs, dtype=np.int64))
    sizes = (sets[0].shape[0], sets[1].shape[0])
    m = config.sample_size()
    if strict_size and sizes != (100 * m, 100 * m):
        raise ValueError(
            f"expected |S_p| = |S_q| = 100 m = {100 * m}; got {sizes[0]} and {sizes[1]}"
        )
    return _averaged(
        sizes, lambda touched: (sets[0][touched[0]], sets[1][touched[1]]),
        config, rng, k_avg, alpha, beta, poisson_mean,
    )


def _draw_pair_sets(
    sampler_p: IndexSampler,
    shape: tuple[int, int],
    sizes: tuple[int, int],
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """``sizes[0]`` pairs from ``p`` and ``sizes[1]`` from the product of its marginals.

    They come from the substreams ``sample-1`` and ``sample-2`` of ``rng``,
    in that order.
    """
    n2 = shape[1]
    gen_p = rng.substream("sample-1").generator()
    gen_q = rng.substream("sample-2").generator()
    sampler_q = product_of_marginals_sampler(sampler_p, shape)
    flat_p = sampler_p(sizes[0], gen_p)
    flat_q = sampler_q(sizes[1], gen_q)
    sp = np.stack([flat_p // n2, flat_p % n2], axis=1)
    sq = np.stack([flat_q // n2, flat_q % n2], axis=1)
    return sp, sq


def sampled_averaged_stats(
    sampler_p: IndexSampler,
    config: IndependenceConfig,
    sample_rng: RngStream,
    rng: RngStream,
    *,
    k_avg: int | None = None,
) -> tuple[float, float]:
    """``(Z_a, N_a)`` of ``k_avg`` runs on fresh sets of ``100 m`` pairs from ``sampler_p``.

    Has the law of :func:`averaged_stats` on the sets
    ``_draw_pair_sets(sampler_p, shape, (100 m, 100 m), sample_rng)``,
    and draws the runs from ``rng`` the same way, but draws pairs only
    where a run reads one. The pairs at distinct positions are iid and
    independent of the selectors, and a pair that no run reads never
    reaches ``Z`` or ``N``, so the decision of what it is can be
    deferred until a run needs it, or never made (the principle of
    deferred decisions, Motwani & Raghavan, *Randomized Algorithms*,
    1995). Every run's selectors are drawn first; then each side draws
    pairs, from the substreams ``sample-1`` and ``sample-2`` of
    ``sample_rng``, for its touched positions in position order: about
    ``1.02 m + K_avg (n1 + n2)`` of the ``100 m``.
    """
    m = config.sample_size()
    shape = (config.n1, config.n2)
    return _averaged(
        (100 * m, 100 * m),
        lambda touched: _draw_pair_sets(
            sampler_p, shape, (touched[0].size, touched[1].size), sample_rng
        ),
        config, rng, k_avg,
    )


def rep_independence_test(
    sampler_p: IndexSampler | NonNegativeMeasure,
    config: IndependenceConfig,
    rng: RngStream,
    *,
    sample_rng: RngStream | None = None,
) -> TesterVerdict:
    """Two-stage replicable independence test.

    Stage 1 estimates the averaged non-singleton count on fresh sample
    sets and rejects when it exceeds a random multiple (uniform on
    ``[2 C_N, 100 C_N]``) of ``max(m^2/(n1 n2), m/n2)``. Stage 2
    estimates the averaged statistic on fresh sets and rejects when it
    exceeds a random multiple (uniform on ``[C_I1, C_I2]``) of the
    expectation-gap scale. Each stage computes ``median_reps``
    estimates on independent sample sets and compares their median to
    the stage's single shared threshold. Each estimate is the element
    its stage reads of :func:`sampled_averaged_stats`, which draws only
    the pairs its runs read.
    """
    if isinstance(sampler_p, NonNegativeMeasure):
        if sampler_p.ndim != 2:
            raise ValueError("independence testing needs a 2D measure")
        shape = sampler_p.shape
        sampler_p = measure_sampler(sampler_p)
    else:
        shape = (config.n1, config.n2)
    if shape != (config.n1, config.n2):
        raise ValueError(f"measure shape {shape} != configured {(config.n1, config.n2)}")
    if sample_rng is None:
        sample_rng = rng.substream("samples")

    internal = rng.substream("internal")
    m = config.sample_size()

    def stage_estimate(stage: str, element: int) -> float:
        return float(np.median([
            sampled_averaged_stats(sampler_p, config, sample_rng.substream(stage, rep),
                                   internal.substream(stage, rep))[element]
            for rep in range(config.median_reps)
        ]))

    n_threshold = float(
        internal.substream("threshold-N").generator().uniform(2 * config.c_n, 100 * config.c_n)
    ) * stage1_scale(m, config.n1, config.n2)
    n_hat = stage_estimate("stage1", 1)
    if n_hat > n_threshold:
        return TesterVerdict(
            accept=False, statistic=n_hat, threshold=n_threshold,
            detail={"stage": 1, "m": m},
        )

    z_threshold = float(
        internal.substream("threshold-Z").generator().uniform(config.c_i1, config.c_i2)
    ) * independence_gap(m, config.n1, config.n2, config.epsilon)
    z_hat = stage_estimate("stage2", 0)
    return TesterVerdict(
        accept=z_hat <= z_threshold, statistic=z_hat, threshold=z_threshold,
        detail={"stage": 2, "m": m, "stage1_statistic": n_hat, "stage1_threshold": n_threshold},
    )
