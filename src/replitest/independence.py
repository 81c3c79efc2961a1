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
  sparsely (:func:`_plan_runs`), at the divider rate computed once per
  estimate: a Binomial number of dividers, which with a uniform subset
  of positions has the law of iid Bernoulli flags, and the Poisson
  truncation sizes. No position and no pair is drawn yet, so a stage
  decided from its plans draws neither.
- Touched positions (:func:`_touched_positions`). Each plan places its
  dividers (:func:`_place_dividers`): their positions, then their
  types, the last draws of the chunk's generator. So planning and
  placement hold all of a run's randomness. The plans name the
  positions the runs read: a prefix that holds every kept sample, plus
  the scattered dividers beyond it. The one sort that orders those
  also gives each divider's place among them.
- Pairs. The rows and columns of the pairs at those positions come as
  one ``(2, T0 + T1)`` array. Fixed sets are indexed there. The tester,
  which never draws its sets of ``100 m`` pairs in full, draws pairs
  for those positions only, in position order (:func:`_plan_fresh`).
  The pairs are iid and independent of the selectors, and a pair that
  no run reads never reaches ``Z`` or ``N``, so leaving it undrawn
  changes no law (the principle of deferred decisions, Motwani &
  Raghavan, *Randomized Algorithms*, 1995). At desk scale a set then
  holds about 3,600 of its 58,000 pairs.
- Finish (:func:`_finish_runs`), a pure function of a plan, its
  placement and the pairs: it draws nothing. A segment keeps the first
  ``L = ell + c`` positions of its side less its ``c`` leading
  dividers (:func:`_leading`), so every run of a side keeps from one
  prefix of the same pairs. Once per estimate, one ``np.unique`` names
  the ``U`` distinct cells of the pairs in both sides' prefixes, up to
  their longest ``L``. A chunk then counts every run's cells from the
  counts of its shortest prefix on each side, plus each run's own tail
  beyond it, minus its leading dividers: a ``(2, runs, U)`` count, in
  ``O(runs U)`` with no sort, whose cells of at least 2 samples give
  ``(a, b)``; the flagged dividers give each run's ``F_r`` and
  ``F_c``. A cell's two means depend on ``(a, b, F_r, F_c)`` alone and
  are memoised (:mod:`.cell_means`), so a chunk costs its counts and
  one lookup of its cells: it draws no order and sorts no sub-bin. A
  cell not yet in the memo costs ``O((F_r + F_c + 1) n)`` for its ``n``
  samples.
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
from .verdict import TesterVerdict, _require_finite, _sample_budget, decide, uniform_threshold


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
# largest array, its cell counts, holds about two int64 per item (about
# 256 KB at 2^14 items), and all are freed when the chunk ends.
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
    """Selectors of the live runs of one chunk, before any divider is placed.

    Segment ``s`` holds side ``s // runs`` (0 for ``S_p``, 1 for ``S_q``)
    of run ``s % runs``: ``dividers[s]`` dividers among the
    ``sizes[s // runs]`` positions of its side, and the first ``ell[s]``
    non-dividers kept. A sample is a divider at the rate
    ``rate = 1 - (1 - alpha)(1 - beta)``. ``gen`` is the chunk's
    generator, part way through its draws: only the divider positions
    and then their types are left, both drawn by :func:`_place_dividers`.
    """

    alpha: float
    beta: float
    rate: float
    runs: int
    sizes: np.ndarray
    dividers: np.ndarray
    ell: np.ndarray
    gen: np.random.Generator


def _plan_runs(
    sizes: np.ndarray,
    alpha: float,
    beta: float,
    rate: float,
    poisson_mean: float,
    abort_excess: tuple[float, float],
    k: int,
    rng: RngStream,
) -> _RunPlan | None:
    """Draw the selectors of ``k`` runs on sets of ``sizes`` pairs; ``None`` if all abort.

    The iid flags ``F_x ~ Bernoulli(alpha)`` and ``F_y ~ Bernoulli(beta)``
    make a sample a divider with probability
    ``rate = 1 - (1 - alpha)(1 - beta)``, so each side holds
    ``D ~ Binomial(size, rate)`` dividers at a uniform ``D``-subset of
    positions: the same law (Devroye 1986). A run aborts, adding
    ``(0, 0)``, when a side has more dividers than ``abort_excess`` or a
    Poisson size ``ell`` exceeds the kept count; an aborted run adds no
    items, matching the convention that its flattened sets are empty.
    The dividers are placed only when the plan is finished.
    """
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
    return _RunPlan(alpha, beta, rate, runs, sizes, dividers, ell, gen)


# The segment and position arrays of a plan's dividers, and their (2, D)
# flags: row 0 is F_x, row 1 is F_y.
_Placed = tuple[np.ndarray, np.ndarray, np.ndarray]


def _place_dividers(plans: list[_RunPlan]) -> list[_Placed]:
    """Each plan's dividers, drawn from its generator: their positions, then their types.

    The positions are :func:`_distinct_positions`. Each divider is
    x-only, both or y-only with weights
    ``alpha(1-beta) : alpha beta : (1-alpha) beta``: it has ``F_x`` with
    probability ``alpha / rate``, and ``F_x`` alone makes it a divider,
    so ``F_y`` is then an independent Bernoulli(beta), else 1. These are
    the last draws of a plan's generator.
    """
    placed = []
    for plan in plans:
        gen = plan.gen
        seg, pos = _distinct_positions(np.repeat(plan.sizes, plan.runs), plan.dividers, gen)
        # Row 1 becomes F_y in place: its draw, or no F_x (row 1 >= row 0).
        # Bool temporaries of every length would each stay in numpy's cache
        # of small buffers.
        flags = gen.random((2, seg.size)) * [[plan.rate], [1.0]] < [[plan.alpha], [plan.beta]]
        np.greater_equal(flags[1], flags[0], out=flags[1])
        placed.append((seg, pos, flags))
    return placed


def _leading(plan: _RunPlan, placed: _Placed) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the leading dividers of ``plan``, and each segment's prefix ``ell + c``.

    Divider t, the t-th of its segment, has gap = pos_t - t non-dividers
    before it, so it leads the segment's ell-th kept sample iff
    gap < ell. With c leading dividers, the kept samples are the free
    slots of the segment's first ell + c positions.
    """
    dividers, ell = plan.dividers, plan.ell
    div_seg, div_pos, _ = placed
    gap = div_pos - np.arange(div_seg.size)
    gap += np.repeat(np.cumsum(dividers) - dividers, dividers)
    lead = gap < np.repeat(ell, dividers)
    return lead, ell + np.bincount(div_seg[lead], minlength=ell.size)


@dataclass(frozen=True)
class _Cells:
    """The pairs an estimate's runs read, and the cells of those they can keep.

    ``coords`` holds the rows and the columns of the pairs of side 0 at
    its touched positions, then of side 1 at its touched positions
    (:func:`_touched_positions`), each of which starts with the prefix that
    holds every kept sample; rows lie in ``range(shape[0])`` and columns
    in ``range(shape[1])``. ``reach`` is side 0's longest segment prefix
    ``ell + c``: ``inverse[i]`` is the index in ``rows`` and ``cols`` of
    the cell of position ``i`` of side 0 below it, and
    ``inverse[reach + i]`` that of position ``i`` of side 1, up to side
    1's longest prefix.
    """

    coords: np.ndarray
    shape: tuple[int, int]
    reach: int
    inverse: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def _finish_runs(
    plan: _RunPlan,
    placed: _Placed,
    reads: tuple[np.ndarray, np.ndarray, np.ndarray],
    cells: _Cells,
) -> tuple[float, float]:
    """``(Z, N)`` of the kept samples of the live runs of ``plan``, whose dividers are ``placed``.

    A pure function of its arguments: it draws nothing, since the
    placement holds the divider types. ``reads`` holds :func:`_leading`
    of the plan and the column of each divider in ``cells.coords``
    (:func:`_touched_positions`). A segment keeps its prefix
    ``[0, ell + c)`` less its ``c`` leading dividers, and every segment
    of a side keeps from the same pairs. So its cell counts are those of
    the side's shortest prefix in the chunk, plus those of its own tail
    beyond it, minus its leading dividers: a ``(2, runs, U)`` count of
    the ``U`` cells in ``cells``, from two bincounts and a subtraction,
    with no sort. Segment ``s`` holds side ``s // runs`` of run
    ``s % runs``. A run's ``F_r`` counts its x-flagged dividers in row
    ``r``, and its ``F_c`` its y-flagged ones in column ``c``. Each cell
    of at least 2 kept samples adds its two means
    (:data:`.cell_means.CELL_MEANS`).
    """
    runs, (div_seg, div_pos, flags), (lead, span, div_at) = plan.runs, placed, reads
    size = cells.rows.size
    # Segment s reads its side's cells from base[s] in cells.inverse.
    base = np.repeat([0, cells.reach], runs)
    low = np.repeat([span[:runs].min(), span[runs:].min()], runs)
    tail = span - low
    at = np.arange(int(tail.sum()))
    at += np.repeat(base + low - (np.cumsum(tail) - tail), tail)
    keys = cells.inverse.take(at)
    keys += np.repeat(np.arange(2 * runs) * size, tail)
    counts = np.bincount(keys, minlength=2 * runs * size)
    del at, keys
    seg = div_seg[lead]
    np.subtract.at(counts, seg * size + cells.inverse.take(base.take(seg) + div_pos[lead]), 1)
    counts.shape = (2, runs, size)
    for side, start in enumerate((0, cells.reach)):
        counts[side] += np.bincount(cells.inverse[start:start + low[side * runs]], minlength=size)
    a, b = counts.reshape(2, -1)
    shared = a + b
    shared >>= 1  # nonzero where a cell keeps 2 samples or more, without a bool temporary
    shared = np.flatnonzero(shared)
    run, cell = np.divmod(shared, size)
    div_run = div_seg % runs

    def flags_at(axis: int, lines: np.ndarray) -> np.ndarray:
        flagged = np.flatnonzero(flags[axis])
        line = run * cells.shape[axis] + lines.take(cell)
        flag_lines = div_run.take(flagged) * cells.shape[axis]
        flag_lines += cells.coords[axis].take(div_at.take(flagged))
        return np.bincount(flag_lines, minlength=int(line.max(initial=-1)) + 1)[line]

    z, n = CELL_MEANS.sums(a.take(shared), b.take(shared),
                           flags_at(0, cells.rows), flags_at(1, cells.cols))
    return float(z), float(n)


def _touched_positions(
    plans: list[_RunPlan], placed: list[_Placed]
) -> tuple[tuple[np.ndarray, np.ndarray], list[np.ndarray]]:
    """Sorted positions of each side that some plan reads, and where each plan's dividers are.

    A side's prefix ``[0, P)``, with ``P = max_j(ell_j + D_j)`` over its
    segments, holds every kept sample; the divider positions at or above
    ``P`` follow it, each once. A plan's array gives the index of each of
    its dividers in the two sides' positions, side 1 after side 0. One
    sort of a side's divider positions, each packed with its place among
    them, gives the positions beyond ``P`` in order and each divider's
    rank among the distinct ones: a lookup with no search.
    """
    touched, found = [], []
    cuts = [int(plan.dividers[: plan.runs].sum()) for plan in plans]
    for side in (0, 1):
        reach = max((int((plan.ell + plan.dividers).reshape(2, -1)[side].max()) for plan in plans),
                    default=0)
        scattered = [div_pos[cut:] if side else div_pos[:cut]
                     for (_, div_pos, _), cut in zip(placed, cuts)]
        pos = np.concatenate([np.zeros(0, dtype=np.int64), *scattered])
        shift = pos.size.bit_length()
        if max(reach, int(pos.max(initial=0))) >> (62 - shift):
            raise OverflowError("a divider position and its place do not fit in int64")
        keys = pos << shift
        keys |= np.arange(pos.size)
        keys.sort()
        far = keys[int(np.searchsorted(keys, reach << shift)):]
        beyond = far >> shift
        # A divider below P is at its position; one from P on, at P plus
        # the number of distinct positions from P before its own.
        at = np.empty(far.size, dtype=np.int64)
        at[:1] = reach
        np.not_equal(beyond[1:], beyond[:-1], out=at[1:])
        np.cumsum(at, out=at)
        line = np.arange(int(at[-1]) + 1 if at.size else reach)
        line[at] = beyond
        pos[far & ((1 << shift) - 1)] = at
        if side:
            pos += touched[0].size
        touched.append(line)
        ends = np.cumsum([0] + [part.size for part in scattered])
        found.append([pos[start:end] for start, end in zip(ends[:-1], ends[1:])])
    return (touched[0], touched[1]), [np.concatenate(at) for at in zip(*found)]


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
    rate = 1.0 - (1.0 - a) * (1.0 - b)
    run_items = 2.0 * mean + rate * sum(sizes)
    chunk = max(1, int(_CHUNK_ITEMS // max(run_items, 1.0)))
    abort_excess = (10.0 * config.n1, 10.0 * config.n2)
    set_sizes = np.array(sizes)
    plans = [
        plan for c, start in enumerate(range(0, k, chunk))
        if (plan := _plan_runs(set_sizes, a, b, rate, mean, abort_excess,
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
    touched, div_at = _touched_positions(plans, placed)
    coords = pairs_at(touched)
    reads = [(*_leading(plan, where), at) for plan, where, at in zip(plans, placed, div_at)]
    reach = [max((int(span.reshape(2, -1)[side].max()) for _, span, _ in reads), default=0)
             for side in (0, 1)]
    side1 = touched[0].size
    prefix = np.concatenate([coords[:, :reach[0]], coords[:, side1:side1 + reach[1]]], axis=1)
    shape = (int(coords[0].max(initial=0)) + 1, int(coords[1].max(initial=0)) + 1)
    codes, inverse = np.unique(prefix[0] * shape[1] + prefix[1], return_inverse=True)
    cells = _Cells(coords, shape, reach[0], inverse, *np.divmod(codes, shape[1]))
    stats = [_finish_runs(plan, where, read, cells)
             for plan, where, read in zip(plans, placed, reads)]
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
    ``beta = min(n2/(100m), 1)``, mean ``m``).
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

    n_threshold = uniform_threshold(internal.substream("threshold-N"), 2 * config.c_n,
                                    100 * config.c_n, stage1_scale(m, config.n1, config.n2))
    stage1 = planned("stage1")
    bound = max(_kept_bound(k, runs) for k, runs, _ in stage1)
    detail = {"m": m, "stage1_bound": bound, "stage1_certified": bound <= n_threshold}
    if not detail["stage1_certified"]:
        verdict = decide(median(stage1, 1), n_threshold, {"stage": 1, **detail})
        if not verdict.accept:
            return verdict
        detail["stage1_statistic"] = verdict.statistic

    z_threshold = uniform_threshold(internal.substream("threshold-Z"), config.c_i1, config.c_i2,
                                    independence_gap(m, config.n1, config.n2, config.epsilon))
    return decide(median(planned("stage2"), 0), z_threshold,
                  {"stage": 2, **detail, "stage1_threshold": n_threshold})
