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

Neither the orders nor the marks are drawn. In a run, a kept sample of
row ``r`` is tagged with the number of the row's ``F_r`` x-flagged
dividers before it in a uniform order. That order puts the row's kept
samples, in a uniform order, into a uniform composition of ``F_r + 1``
gaps, so the row tags are iid Categorical(theta) with
``theta ~ Dirichlet(1, ..., 1)`` over ``F_r + 1`` tags. The column tags
are the same with an independent ``phi`` per column, and the marks are
fair coins. So the ``M = (F_r + 1)(F_c + 1)`` sub-bins of a cell
``(r, c)`` that keeps ``a`` samples of ``S_p`` and ``b`` of ``S_q``,
``n = a + b``, are exchangeable, and

    E[Z_cell] = M Σ_{k>=2} Q(k) H_ab(k),    E[N_cell] = M Σ_{k>=2} Q(k) k.

``Q`` is the law of one sub-bin's count: ``R ~ BetaBin(n; 1, F_r)`` of
the cell's samples take its row tag and ``C | R ~ BetaBin(R; 1, F_c)``
of those its column tag; with ``F = 0`` every sample lands in the one
sub-bin. ``H_ab(k)`` is the mean, over ``A ~ Hyp(n, a, k)`` and the
marks, of the marked statistic's term of a sub-bin of ``A`` samples of
``S_p`` and ``k - A`` of ``S_q``. A run adds these means over its cells
of at least 2 samples (:func:`_finish_runs`). That is the exact
conditional expectation of its ``(Z, N)`` given its kept samples and
flag counts, so the averaged statistic and count keep their means and
their variances cannot rise (Rao-Blackwell; Casella & Robert,
*Biometrika*, 1996). The orders are those of the flattening of
Diakonikolas & Kane (FOCS 2016); :func:`.flattening.subbin_indices`
draws them by definition, and the tests hold the sampled-order run as
a reference.

Every estimate ``(Z_a, N_a)`` takes one path, for fixed sample sets
(``averaged_stats``) and fresh draws (``sampled_averaged_stats``) alike:

- Plan (:func:`_plan_average`). Each chunk of runs draws its selectors
  sparsely (:func:`_plan_runs`): a Binomial number of dividers, which
  with a uniform subset of positions has the law of iid Bernoulli
  flags, and the Poisson truncation sizes. No position and no pair is
  drawn yet, so a stage decided from its plans draws neither.
- Touched positions (:func:`_touched_positions`). Each plan places its
  dividers (:func:`_place_dividers`), and the plans name the positions
  the runs read: a prefix that holds every kept sample, plus the
  scattered dividers beyond it.
- Pairs. The rows and columns of the pairs at those positions come as
  one ``(2, T0 + T1)`` array. Fixed sets are indexed there. The tester,
  which never draws its sets of ``100 m`` pairs in full, draws pairs
  for those positions only, in position order (:func:`_plan_fresh`).
  The pairs are iid and independent of the selectors, and a pair that
  no run reads never reaches ``Z`` or ``N``, so leaving it undrawn
  changes no law (the principle of deferred decisions, Motwani &
  Raghavan, *Randomized Algorithms*, 1995). At desk scale a set then
  holds about 3,600 of its 58,000 pairs.
- Finish (:func:`_finish_runs`). Each chunk finds its kept samples from
  the divider positions alone and draws its divider types. Keys carry
  the run index, so one sort of the chunk's ``(run, cell, side)`` keys
  gives every run's cells with their ``(a, b)``, and the flagged
  dividers give each run's ``F_r`` and ``F_c``. A cell's two means
  depend on ``(a, b, F_r, F_c)`` alone and are memoised
  (:mod:`.cell_means`), so a chunk costs one sort and one lookup of its
  cells: it draws no order and sorts no sub-bin. A cell not yet in the
  memo costs ``O((F_r + F_c + 1) n)`` for its ``n`` samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calibrated import INDEPENDENCE_DESK
from .cell_means import CELL_MEANS
from .closeness import closeness_statistic, soundness_floor
# Bound only for bench/spans.py, which wraps these names here; no run calls them.
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
    exact mean over the marks and the sub-bin orders instead
    (:func:`_finish_runs`).
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


# Expected kept samples plus dividers in one chunk of averaged runs: it
# bounds the working memory of an average, whatever K_avg is. A chunk's
# largest arrays hold one int64 per item (about 128 KB at 2^14 items),
# and all are freed when the chunk ends.
_CHUNK_ITEMS = 2**14


def _shared_cells(
    cells: np.ndarray,
    kept_p: int,
    shape: tuple[int, int],
    x_flags: np.ndarray,
    y_flags: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, F_r, F_c)`` of every cell of at least 2 kept samples, of every run.

    Rows lie in ``range(height)`` and columns in ``range(width)``,
    ``shape = (height, width)``. A kept sample of run ``j`` in row ``r``
    and column ``c`` has ``cells[i] = (j height + r) width + c``, and the
    first ``kept_p`` are from ``S_p``; ``cells`` is overwritten.
    ``x_flags`` holds ``j height + r`` for each x-flagged divider of run
    ``j`` in row ``r``, and ``y_flags`` ``j width + c`` for each
    y-flagged one in column ``c``. One in-place sort of ``2 cell + side``
    lists each cell's samples together, the ``S_p`` ones first, so a
    cell's group size and the start of its odd entries give ``(a, b)``.
    A cell's ``F_r`` counts the x-flags of its run and row, its ``F_c``
    the y-flags of its run and column. A singleton cell adds 0 to both
    means, so it is left out.
    """
    height, width = shape
    keys = cells
    keys <<= 1
    keys[kept_p:] += 1
    keys.sort()
    # Group starts, where the cell changes, plus the end of the last group.
    first = np.ones(keys.size + 1, dtype=bool)
    np.greater(keys[1:] ^ keys[:-1], 1, out=first[1:-1])
    bounds = np.flatnonzero(first)
    shared = np.flatnonzero(np.diff(bounds) - 1)  # groups of 2 or more, without a bool temporary
    lo = bounds.take(shared)
    hi = bounds.take(shared + 1)
    b = hi - np.searchsorted(keys, keys.take(lo) | 1)
    run_row, col = np.divmod(keys.take(lo) >> 1, width)
    run_col = run_row // height * width + col

    def flags_at(flags: np.ndarray, at: np.ndarray) -> np.ndarray:
        return np.bincount(flags, minlength=int(at.max(initial=-1)) + 1)[at]

    return hi - lo - b, b, flags_at(x_flags, run_row), flags_at(y_flags, run_col)


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
    """Selectors of the live runs of one chunk, before any divider is placed.

    Segment ``s`` holds side ``s // runs`` (0 for ``S_p``, 1 for ``S_q``)
    of run ``s % runs``: ``dividers[s]`` dividers among the
    ``sizes[s // runs]`` positions of its side, and the first ``ell[s]``
    non-dividers kept. ``gen`` is the chunk's generator, part way
    through its draws: the divider positions come next
    (:func:`_place_dividers`), then the divider types (:func:`_finish_runs`).
    """

    alpha: float
    beta: float
    runs: int
    sizes: np.ndarray
    dividers: np.ndarray
    ell: np.ndarray
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
    The positions are drawn only when the plan is finished.
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
    return _RunPlan(alpha, beta, runs, sizes, dividers, ell, gen)


# The (segment, position) arrays of a plan's dividers.
_Placed = tuple[np.ndarray, np.ndarray]


def _place_dividers(plans: list[_RunPlan]) -> list[_Placed]:
    """Each plan's divider positions (:func:`_distinct_positions`), drawn from its generator."""
    return [_distinct_positions(np.repeat(plan.sizes, plan.runs), plan.dividers, plan.gen)
            for plan in plans]


def _finish_runs(
    plan: _RunPlan,
    placed: _Placed,
    coords: np.ndarray,
    touched: tuple[np.ndarray, np.ndarray],
) -> tuple[float, float]:
    """``(Z, N)`` of the kept samples of the live runs of ``plan``, whose dividers are ``placed``.

    ``coords`` holds the rows and the columns of the pairs of side 0 at
    the sorted positions ``touched[0]``, then of side 1 at
    ``touched[1]``. Kept samples lie in the prefix ``[0, P)`` that
    ``touched[s]`` starts with (:func:`_touched_positions`), so their
    positions index the side directly; only the dividers are looked up.

    The kept samples are the first ``ell`` non-dividers, computed from
    the sorted divider positions alone. Each divider is x-only, both or
    y-only with weights ``alpha(1-beta) : alpha beta : (1-alpha) beta``.
    Segment ``s`` holds run ``s % runs``, so the ``(run, cell)`` of each
    kept sample, the ``(run, row)`` of each x-flagged divider and the
    ``(run, column)`` of each y-flagged one give every run's cells with
    at least 2 samples at once (:func:`_shared_cells`); rows and columns
    are bounded by those of the pairs in ``coords``. Each such cell adds
    its two means (:data:`.cell_means.CELL_MEANS`).
    """
    runs, dividers, ell, gen = plan.runs, plan.dividers, plan.ell, plan.gen
    div_seg, div_pos = placed
    kept_p = int(ell[:runs].sum())
    div_p = int(dividers[:runs].sum())
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
    at = np.flatnonzero(free)
    at -= np.repeat(span_start, ell)
    del free
    div_at = np.concatenate([np.searchsorted(touched[0], div_pos[:div_p]),
                             np.searchsorted(touched[1], div_pos[div_p:]) + side1])
    # A divider has F_x with probability alpha / r; F_x alone makes it a
    # divider, so F_y is then an independent Bernoulli(beta), else 1.
    rate = 1.0 - (1.0 - plan.alpha) * (1.0 - plan.beta)
    # Row 0 is F_x. Row 1 becomes F_y in place: its draw, or no F_x
    # (row 1 >= row 0). Bool temporaries of every length would each stay
    # in numpy's cache of small buffers.
    flags = gen.random((2, div_seg.size)) * [[rate], [1.0]] < [[plan.alpha], [plan.beta]]
    np.greater_equal(flags[1], flags[0], out=flags[1])
    height = int(coords[0].max(initial=0)) + 1
    width = int(coords[1].max(initial=0)) + 1
    if runs * height * width >= 2**62:
        raise OverflowError("2 * (run, cell) key does not fit in int64")
    seg_run = np.arange(ell.size) % runs
    cells = np.repeat(seg_run * height, ell)
    cells += coords[0].take(at)
    cells *= width
    cells += coords[1].take(at)
    del at
    div_run = seg_run.take(div_seg)
    x, y = np.flatnonzero(flags[0]), np.flatnonzero(flags[1])
    shared = _shared_cells(cells, kept_p, (height, width),
                           div_run.take(x) * height + coords[0].take(div_at.take(x)),
                           div_run.take(y) * width + coords[1].take(div_at.take(y)))
    # The kept samples' keys go before any cell is evaluated.
    del cells
    z, n = CELL_MEANS.sums(*shared)
    return float(z), float(n)


def _touched_positions(
    plans: list[_RunPlan], placed: list[_Placed]
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted positions of each side that some plan reads.

    A side's prefix ``[0, P)``, with ``P = max_j(ell_j + D_j)`` over its
    segments, holds every kept sample; the divider positions at or above
    ``P`` follow it, each once.
    """
    touched = []
    for side in (0, 1):
        reach, scattered = 0, [np.zeros(0, dtype=np.int64)]
        for plan, (_, div_pos) in zip(plans, placed):
            reach = max(reach, int((plan.ell + plan.dividers).reshape(2, -1)[side].max()))
            cut = int(plan.dividers[: plan.runs].sum())
            scattered.append(div_pos[cut:] if side else div_pos[:cut])
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
    selectors only (:func:`_plan_runs`), no divider position and no
    pair. ``None`` takes the configured ``k_avg``, ``alpha``, ``beta``
    and Poisson mean ``m``.
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

    A cell of ``n`` kept samples adds at most ``n`` to its run's ``N``,
    so a run's ``N`` is at most its ``ell_p + ell_q``; an aborted run
    adds 0. The bound reads only the plans' truncation sizes, so it
    needs no divider position.
    """
    return sum(int(plan.ell.sum()) for plan in plans) / k


def _finish_average(k: int, plans: list[_RunPlan], pairs_at: _PairsAt) -> tuple[float, float]:
    """``(Z_a, N_a)`` of the planned runs: their dividers, the pairs they read, each chunk's finish.

    Run ``j`` flattens both axes, truncates to Poisson sizes and
    contributes ``(Z, N)`` of the truncated flattened sets, averaged over
    its sub-bin orders and marks; an aborted run contributes ``(0, 0)``.
    """
    placed = _place_dividers(plans)
    touched = _touched_positions(plans, placed)
    coords = pairs_at(touched)
    stats = [_finish_runs(plan, where, coords, touched) for plan, where in zip(plans, placed)]
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
    evaluations on fixed sample sets; ``Z`` is the marked statistic and
    ``N`` the non-singleton count of the truncated flattened sets, each
    averaged exactly over its sub-bin orders and marks. The runs execute in chunks of
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
