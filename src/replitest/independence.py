"""Replicable independence tester for distributions on ``[n1] x [n2]``.

One run of the core statistic flattens the samples on both axes,
truncates them to Poisson-sized subsets, and scores the marked
closeness statistic (:func:`closeness_stat_marked`:
``closeness_statistic`` on counts split by source and a fair mark)
between samples from the unknown distribution ``p`` and samples from
the product of its marginals (simulated by splicing coordinates of two
independent ``p`` samples). Because the statistic is randomized, the
tester works with its average over the internal randomness, estimated
by rerunning the statistic many times on fixed sample sets. A pre-test
on the averaged non-singleton count keeps the variance of the averaged
statistic in check before the main threshold comparison, whose scale
is the closeness soundness floor on ``n1 n2`` elements with ``C2 = 1``.
The pre-test is first decided from its runs' truncation sizes alone:
the count is at most ``Σ ell / k``, about ``2m``, and its least
threshold is ``2 C_N max(m^2/(n1 n2), m/n2)``, so its runs finish only
where ``m < n1 n2 / C_N`` can let it fire.

The marks are not drawn: each run contributes the exact mean of the
marked statistic over them, the sum over keys of :func:`_key_mark_mean`.
That is the conditional expectation given the run's flattened sets, so
the averaged statistic keeps its mean and its variance cannot rise
(Rao-Blackwell; Casella & Robert, *Biometrika*, 1996).

Every estimate ``(Z_a, N_a)`` takes one path, for fixed sample sets
(``averaged_stats``) and fresh draws (``sampled_averaged_stats``) alike:

- Plan (:func:`_plan_average`). Each chunk of runs draws its selectors
  sparsely (:func:`_plan_runs`): a Binomial number of dividers at a
  uniform subset of positions, which has the law of iid Bernoulli
  flags, and the Poisson truncation sizes. No pair is read yet.
- Touched positions (:func:`_touched_positions`). The plans name the
  positions the runs read: a prefix that holds every kept sample, plus
  the scattered dividers beyond it.
- Pairs. The rows and columns of the pairs at those positions come as
  one ``(2, T0 + T1)`` array. Fixed sets are indexed there. The tester,
  which never draws its sets of ``100 m`` pairs in full, draws pairs
  for those positions only, in position order (:func:`_plan_fresh`).
  The pairs are iid and independent of the selectors, and a pair that
  no run reads never reaches ``Z`` or ``N``, so leaving it undrawn
  changes no law (the principle of deferred decisions, Motwani &
  Raghavan, *Randomized Algorithms*, 1995). At desk scale a set then
  holds about 3,600 of its 58,000 pairs.
- Finish (:func:`_finish_runs`). Each chunk runs as one array program
  on its kept samples and dividers only. Keys carry the run index, so a
  statistic of all runs of a chunk comes from one call on its keys and
  equals the sum of the per-run values exactly. One sort of the chunk's
  keys gives both statistics: the mark-averaged statistic that stage 2
  reads and the non-singleton count that stage 1 reads.
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
from .verdict import TesterVerdict, _require_finite, _sample_budget


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

    ``epsilon`` is measured in unhalved l1 to the nearest product
    distribution: the soundness case is
    ``min_{q1, q2} ||p - q1 x q2||_1 >= epsilon``, over every product
    of marginals, not only the product of ``p``'s own.
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
        _require_finite(self, "c_n", "c_i1", "c_i2")
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
    """``(Z, N)`` of the keys; the first ``kept_p`` are from ``S_p``. Overwrites ``keys``.

    ``Z`` is the sum of :func:`_key_mark_mean` over the distinct keys and
    ``N`` the non-singleton count (:func:`non_singleton_count`). One
    in-place sort of ``2 key + side`` lists each key's samples together,
    the ``S_p`` ones first, so a key's group size and the start of its
    odd entries give ``(a, b)``, and ``N`` is the sum of the group sizes
    of at least 2. Each ``(a, b)`` pair that occurs is evaluated once.
    """
    if keys.max(initial=0) >= 2**62:
        raise OverflowError("2 * key does not fit in int64")
    keys <<= 1
    keys[kept_p:] += 1
    keys.sort()
    key = keys >> 1
    # Group starts, plus the end of the last group.
    first = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:-1])
    del key
    bounds = np.flatnonzero(first)
    shared = np.flatnonzero(np.diff(bounds) >= 2)
    lo = bounds.take(shared)
    hi = bounds.take(shared + 1)
    size = hi - lo
    b = hi - np.searchsorted(keys, keys.take(lo) | 1)
    radix = int(b.max(initial=0)) + 1
    count = np.bincount((size - b) * radix + b)
    pairs = np.flatnonzero(count)
    z = sum(c * _key_mark_mean(*divmod(pair, radix))
            for pair, c in zip(pairs.tolist(), count[pairs].tolist()))
    return z, int(size.sum())


# Expected kept samples plus dividers in one chunk of averaged runs: it
# bounds the working memory of an average, whatever K_avg is. A chunk's
# largest arrays hold one int64 per item (about 128 KB at 2^14 items).
# At most about six of them are alive at once (_finish_runs), and all
# are freed when the chunk ends.
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
    offset = np.repeat(np.cumsum(pop) - pop, count)
    segment = np.repeat(np.arange(pop.size), count)
    keys = offset + gen.integers(0, np.repeat(pop, count))
    keys.sort()
    while (repeat := keys[1:] == keys[:-1]).any():
        lost = segment[1:][repeat]
        redraw = offset[1:][repeat] + gen.integers(0, pop[lost])
        keys = np.concatenate([keys[:1], keys[1:][~repeat], redraw])
        keys.sort()
    keys -= offset
    return segment, keys


@dataclass(frozen=True)
class _RunPlan:
    """Selectors of the live runs of one chunk, before any sample is read.

    Segment ``s`` holds side ``s // runs`` (0 for ``S_p``, 1 for ``S_q``)
    of run ``s % runs``: ``dividers[s]`` dividers at the positions
    ``div_pos`` of ``div_seg == s``, and the first ``ell[s]``
    non-dividers kept. ``gen`` is the chunk's generator, part way
    through its draws.
    """

    alpha: float
    beta: float
    runs: int
    dividers: np.ndarray
    ell: np.ndarray
    div_seg: np.ndarray
    div_pos: np.ndarray
    gen: np.random.Generator


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
    return _RunPlan(alpha, beta, runs, dividers, ell, div_seg, div_pos, gen)


def _finish_runs(
    plan: _RunPlan,
    coords: np.ndarray,
    touched: tuple[np.ndarray, np.ndarray],
) -> tuple[float, int]:
    """``(Z, N)`` of the kept samples of the live runs of ``plan``.

    ``coords`` holds the rows and the columns of the pairs of side 0 at
    the sorted positions ``touched[0]``, then of side 1 at
    ``touched[1]``. Kept samples lie in the prefix ``[0, P)`` that
    ``touched[s]`` starts with (:func:`_touched_positions`), so their
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

    The axes are taken in turn: an axis's coordinates are gathered,
    tagged and packed into the keys before the other axis starts, and
    the items' places in ``coords`` are rebuilt for each axis rather
    than held. With :func:`subbin_indices` sorting in place, at most
    about six arrays of one int64 per item are alive at once.
    """
    runs, dividers, ell = plan.runs, plan.dividers, plan.ell
    div_seg, div_pos, gen = plan.div_seg, plan.div_pos, plan.gen
    kept = int(ell.sum())
    kept_p = int(ell[:runs].sum())
    div_p = int(dividers[:runs].sum())
    items = kept + div_seg.size
    # Divider t, the t-th of its segment, has gap = pos_t - t
    # non-dividers before it, so it leads the segment's ell-th kept sample
    # iff gap < ell. With c leading dividers, the kept samples are the
    # free slots of the segment's first ell + c positions.
    gap = div_pos - np.arange(div_seg.size)
    gap += np.repeat(np.cumsum(dividers) - dividers, dividers)
    lead = gap < np.repeat(ell, dividers)
    seg = div_seg[lead]
    span = ell + np.bincount(seg, minlength=ell.size)
    span_start = np.cumsum(span) - span
    free = np.ones(int(span.sum()), dtype=bool)
    free[span_start[seg] + div_pos[lead]] = False
    # Side 1 follows side 0 in coords, so its slots sit side1 further on.
    side1 = touched[0].size
    span_start[runs:] -= side1
    div_at = np.concatenate([np.searchsorted(touched[0], div_pos[:div_p]),
                             np.searchsorted(touched[1], div_pos[div_p:]) + side1])
    # A divider has F_x with probability alpha / r; F_x alone makes it a
    # divider, so F_y is then an independent Bernoulli(beta), else 1.
    rate = 1.0 - (1.0 - plan.alpha) * (1.0 - plan.beta)
    u = gen.random((2, div_seg.size))
    fx = np.zeros(items, dtype=bool)
    fy = np.zeros(items, dtype=bool)
    np.less(u[0] * rate, plan.alpha, out=fx[kept:])
    np.less(u[1], plan.beta, out=fy[kept:])
    fy[kept:] |= ~fx[kept:]
    # Segment s holds side s // runs of run s % runs.
    seg_run = np.arange(ell.size) % runs

    def tagged(axis: int, flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kept ``run * radix + coordinate`` of ``axis`` and their sub-bin tags."""
        # Where each item's pair sits in coords, rebuilt for each axis
        # rather than held: the kept samples by segment, then the dividers.
        at = np.empty(items, dtype=np.int64)
        np.subtract(np.flatnonzero(free), np.repeat(span_start, ell), out=at[:kept])
        at[kept:] = div_at
        values = coords[axis].take(at)
        del at
        base = seg_run * (int(values.max()) + 1)
        values[:kept] += np.repeat(base, ell)
        values[kept:] += base[div_seg]
        subs = subbin_indices(values, flags, gen.permutation(items))
        return values[:kept], subs[:kept]

    # Each axis is packed as soon as it is tagged, so that only one
    # axis's arrays are alive at a time; the keys equal those of one
    # pack of all four columns.
    keys = pack_keys(*tagged(0, fx))
    keys = pack_keys(keys, *tagged(1, fy))
    return _key_stats(keys, kept_p)


def _touched_positions(plans: list[_RunPlan]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted positions of each side that some plan reads.

    A side's prefix ``[0, P)``, with ``P = max_j(ell_j + D_j)`` over its
    segments, holds every kept sample; the divider positions at or above
    ``P`` follow it, each once.
    """
    touched = []
    for side in (0, 1):
        reach, scattered = 0, [np.zeros(0, dtype=np.int64)]
        for plan in plans:
            reach = max(reach, int((plan.ell + plan.dividers).reshape(2, -1)[side].max()))
            cut = int(plan.dividers[: plan.runs].sum())
            scattered.append(plan.div_pos[cut:] if side else plan.div_pos[:cut])
        far = np.concatenate(scattered)
        far = np.sort(far[far >= reach])
        # np.unique does the same about ten times slower here.
        touched.append(np.concatenate([np.arange(reach), far[:1], far[1:][far[1:] != far[:-1]]]))
    return touched[0], touched[1]


# The rows and columns, shape (2, T0 + T1), of the pairs of both sample
# sets at the T0 and T1 sorted positions given for each.
_PairsAt = Callable[[tuple[np.ndarray, np.ndarray]], np.ndarray]


def _plan_average(
    sizes: tuple[int, int],
    config: IndependenceConfig,
    rng: RngStream,
    k_avg: int | None,
    alpha: float | None = None,
    beta: float | None = None,
    poisson_mean: float | None = None,
) -> tuple[int, list[_RunPlan]]:
    """``k`` and the plans of the live chunks of ``k`` runs on sets of ``sizes`` pairs.

    The runs execute in chunks of about 2^14 kept samples plus dividers,
    chunk ``c`` on ``rng.substream("avg", c)``; planning one draws its
    selectors only (:func:`_plan_runs`), no pair. ``None`` takes the
    configured ``k_avg``, ``alpha``, ``beta`` and Poisson mean ``m``.
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
    return k, plans


def _kept_bound(k: int, plans: list[_RunPlan]) -> float:
    """``Σ ell / k`` over the live runs of ``plans``: a bound on their ``N_a``.

    A run's ``N`` counts kept samples whose key occurs at least twice,
    so it is at most the run's ``ell_p + ell_q``; an aborted run adds 0.
    The integer sums satisfy ``Σ N <= Σ ell``, so the bound holds after
    the division too.
    """
    return sum(int(plan.ell.sum()) for plan in plans) / k


def _finish_average(k: int, plans: list[_RunPlan], pairs_at: _PairsAt) -> tuple[float, float]:
    """``(Z_a, N_a)`` of the planned runs: the pairs they read, then each chunk's finish.

    Run ``j`` flattens both axes, truncates to Poisson sizes and
    contributes ``(Z, N)`` of the truncated flattened sets; an aborted
    run contributes ``(0, 0)``.
    """
    touched = _touched_positions(plans)
    coords = pairs_at(touched)
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
    k, plans = _plan_average(sizes, config, rng, k_avg, alpha, beta, poisson_mean)
    return _finish_average(k, plans, lambda touched: np.concatenate(
        [sets[0][touched[0]].T, sets[1][touched[1]].T], axis=1))


def _plan_fresh(
    sampler_p: IndexSampler,
    config: IndependenceConfig,
    sample_rng: RngStream,
    rng: RngStream,
    k_avg: int | None = None,
) -> tuple[int, list[_RunPlan], _PairsAt]:
    """``k``, the plans and the pair source of an estimate on fresh sets of ``100 m`` pairs.

    The runs are planned on ``rng`` (:func:`_plan_average`). The source
    draws one pair per touched position, in position order: side 0 from
    ``sampler_p`` on the substream ``sample-1`` of ``sample_rng``, side 1
    from :func:`product_of_marginals_sampler` on ``sample-2``.
    """
    m = config.sample_size()
    n2 = config.n2
    sources = ((sampler_p, "sample-1"),
               (product_of_marginals_sampler(sampler_p, (config.n1, n2)), "sample-2"))

    def pairs_at(touched: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        flat = [sampler(positions.size, sample_rng.substream(name).generator())
                for (sampler, name), positions in zip(sources, touched)]
        return np.stack(np.divmod(np.concatenate(flat), n2))

    return (*_plan_average((100 * m, 100 * m), config, rng, k_avg), pairs_at)


def sampled_averaged_stats(
    sampler_p: IndexSampler,
    config: IndependenceConfig,
    sample_rng: RngStream,
    rng: RngStream,
    *,
    k_avg: int | None = None,
) -> tuple[float, float]:
    """``(Z_a, N_a)`` of ``k_avg`` runs on fresh sets of ``100 m`` pairs from ``sampler_p``.

    Has the law of :func:`averaged_stats` on ``100 m`` pairs drawn from
    ``sampler_p`` on the substream ``sample-1`` of ``sample_rng`` and
    ``100 m`` drawn from :func:`product_of_marginals_sampler` on its
    ``sample-2``, and draws the runs from ``rng`` the same way, but draws
    pairs only where a run reads one. The pairs at distinct positions
    are iid and independent of the selectors, and a pair that no run
    reads never reaches ``Z`` or ``N``, so the decision of what it is
    can be deferred until a run needs it, or never made (the principle
    of deferred decisions, Motwani & Raghavan, *Randomized Algorithms*,
    1995). Every run's selectors are drawn first; then each side draws
    pairs for its touched positions in position order
    (:func:`_plan_fresh`): about ``1.02 m + K_avg (n1 + n2)`` of the
    ``100 m``.
    """
    return _finish_average(*_plan_fresh(sampler_p, config, sample_rng, rng, k_avg))


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

    Stage 1 is first decided from its run plans, before it draws a
    pair. A run's ``N`` is at most its kept count ``ell_p + ell_q``, so
    each estimate is at most ``B = Σ ell / k`` over its live runs, and
    the median is at most the largest ``B``. When that is at most the
    threshold, stage 1 accepts for certain and its pairs are never
    drawn; ``N_a`` is about ``2m`` at most, so only ``m < n1 n2 / C_N``
    can let the stage fire. Otherwise the same plans finish as the
    estimates. ``detail`` records ``stage1_bound`` (the largest ``B``),
    ``stage1_certified`` and, when stage 1 ran, ``stage1_statistic``.
    Stage 2 draws from its own streams, so the certificate changes no
    draw of it.
    """
    if isinstance(sampler_p, NonNegativeMeasure):
        sampler_p = measure_sampler(sampler_p.on((config.n1, config.n2)))
    if sample_rng is None:
        sample_rng = rng.substream("samples")

    internal = rng.substream("internal")
    m = config.sample_size()

    def planned(stage: str) -> list[tuple[int, list[_RunPlan], _PairsAt]]:
        return [_plan_fresh(sampler_p, config, sample_rng.substream(stage, rep),
                            internal.substream(stage, rep))
                for rep in range(config.median_reps)]

    def median(estimates: list[tuple[int, list[_RunPlan], _PairsAt]], element: int) -> float:
        return float(np.median([_finish_average(*estimate)[element] for estimate in estimates]))

    n_threshold = float(
        internal.substream("threshold-N").generator().uniform(2 * config.c_n, 100 * config.c_n)
    ) * stage1_scale(m, config.n1, config.n2)
    stage1 = planned("stage1")
    bound = max(_kept_bound(k, runs) for k, runs, _ in stage1)
    detail = {"m": m, "stage1_bound": bound, "stage1_certified": bound <= n_threshold}
    if not detail["stage1_certified"]:
        n_hat = median(stage1, 1)
        if n_hat > n_threshold:
            return TesterVerdict(
                accept=False, statistic=n_hat, threshold=n_threshold,
                detail={"stage": 1, **detail},
            )
        detail["stage1_statistic"] = n_hat

    z_threshold = float(
        internal.substream("threshold-Z").generator().uniform(config.c_i1, config.c_i2)
    ) * independence_gap(m, config.n1, config.n2, config.epsilon)
    z_hat = median(planned("stage2"), 0)
    return TesterVerdict(
        accept=z_hat <= z_threshold, statistic=z_hat, threshold=z_threshold,
        detail={"stage": 2, **detail, "stage1_threshold": n_threshold},
    )
