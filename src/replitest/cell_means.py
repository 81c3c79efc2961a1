"""Exact means of one independence cell over its sub-bin orders and marks.

A run of the independence tester keeps, in a cell ``(r, c)``, ``a``
samples of ``S_p`` and ``b`` of ``S_q``, ``n = a + b``. Its ``F_r``
x-flagged dividers in row ``r`` and ``F_c`` y-flagged ones in column
``c`` split the cell into ``M = (F_r + 1)(F_c + 1)`` exchangeable
sub-bins: a sample takes its row tag from weights
``theta ~ Dirichlet(1, ..., 1)`` and its column tag from an independent
``phi``. :func:`cell_means` gives the cell's ``(E[Z_cell], E[N_cell])``:
the marked closeness statistic and the non-singleton count of its
sub-bins, averaged over the tags and the fair marks. Both depend on
``(a, b, F_r, F_c)`` alone, and :data:`CELL_MEANS` memoises them.

A cell costs ``O((F_r + F_c + 1) n)``: a few passes over ``n`` and one
cumulative sum per flag, each over the counts that still carry all but
``2^-60`` of a law's mass. A run's cells of a few samples come from the
memo. A cell that holds many samples in a row or column of many flags
has a new key in nearly every run, and costs more than one drawn order,
which sorts its samples once: about 10 ms at 23,000 samples and 83 and
44 flags, against under 4 ms for a whole run that draws its orders.
"""

from __future__ import annotations

import numpy as np


# Law widths round up to a multiple of this many entries and groups of
# cells to a power of two: numpy keeps up to 7 freed buffers of every
# size below 1 KB for reuse, and evaluations of many shapes would fill
# many of those sizes.
_STEP = 64


def _wide(count: int | np.ndarray) -> int | np.ndarray:
    """``count`` rounded up to a multiple of ``_STEP``, elementwise for an array."""
    return -(-count // _STEP) * _STEP


def _half_binomials(counts: np.ndarray, size: int) -> np.ndarray:
    """Rows ``P(W = i)`` for ``W ~ Bin(n, 1/2)``, ``n = counts``, ``i < size``.

    ``C(n, i)`` relative to the middle coefficient is a product of the
    ratios ``(n - i + 1) / i`` out from the middle, mirrored about it,
    and each row is scaled to sum 1: no integer grows with ``n`` and the
    far tails underflow to 0.
    """
    n, half = counts[:, None], counts[:, None] // 2
    i = np.arange(size)
    out = half + i[1:]  # the counts right of the middle
    steps = np.where(out <= n, (n - out + 1) / out, 0.0)
    right = np.cumprod(np.concatenate([np.ones((counts.size, 1)), steps], axis=1), axis=1)
    away = np.where(i >= half, i - half, n - i - half)  # steps from the middle, mirrored
    weights = np.where(i <= n, np.take_along_axis(right, np.minimum(away, size - 1), axis=1), 0.0)
    return weights / np.cumsum(weights, axis=1)[:, -1:]


def _walk_means(size: int) -> np.ndarray:
    """``E|2U - i|`` for ``U ~ Bin(i, 1/2)``, ``i = 0..size-1``.

    The mean distance of a fair walk is 1 after one step, keeps its
    value from step ``2k - 1`` to ``2k``, and grows by ``(2k + 1) / (2k)``
    from step ``2k - 1`` to ``2k + 1``.
    """
    steps = np.arange(1, size // 2 + 1)
    odd = np.cumprod(np.concatenate([[1.0], (2 * steps + 1) / (2 * steps)]))
    means = np.zeros(size)
    means[1::2] = odd[:size // 2]
    means[2::2] = odd[:(size - 1) // 2]
    return means


# A stage of a split holds its rows 2^_HEADROOM above their size: its
# sums never exceed a row's mass.
_HEADROOM = 1020
# The largest ln C(R + s, s) a stage takes on: its quotients of a mass
# of 2^-60 then stay above 2^-900, inside the normal floats.
_STAGE_RANGE = 1300.0
# The mass a stage may leave off the top of a row.
_STAGE_TAIL = 2.0**-60


def _thin(law: np.ndarray, prior: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Law of the count that a ``Beta(prior + 1, flags)`` weight keeps of ``R``, per row.

    Row ``t`` of ``law`` is the law of ``R``; each of its samples stays
    with probability ``V ~ Beta(prior[t] + 1, flags[t])``, so ``k`` stay
    with probability ``C(k + p, p) C(R - k + f - 1, f - 1) / C(R + p + f, p + f)``
    (``p, f = prior[t], flags[t]``): ``k`` samples before the
    ``(p + 1)``-th of ``p + f`` dividers in a uniform order. That is
    ``C(k + p, p)`` times the ``f``-fold sum from the top of
    ``law / C(R + p + f, p + f)``, the divisor a product of steps
    ``(R + p + f) / R`` up from ``R = 0``. The rows are held
    ``2^_HEADROOM`` up through the sums; the caller keeps
    ``C(R + p + f, p + f)`` in range over the mass that counts, and the
    rest of a row, above its input's top, is dropped. A row without
    flags is returned as it is. A row is computed alone and in a fixed
    order, so zeros padding it on the right change none of its values.
    """
    order = np.argsort(-flags, kind="stable")  # the rows a level sums come first
    p, f = prior[order][:, None], flags[order][:, None]
    r = np.arange(1, law.shape[-1])
    head = np.full((f.size, 1), 2.0**_HEADROOM)
    scale = np.cumprod(np.concatenate([head, r / (r + p + f)], axis=1), axis=1)
    scale[scale < 2.0**-969] = 0.0  # below 53 bits of precision a step can round back up
    split = (law[order] * scale)[:, ::-1].copy()  # from the top, so its sums are cumulative sums
    for rows in np.count_nonzero(f >= np.arange(1, int(f.max(initial=0)) + 1), axis=0).tolist():
        np.cumsum(split[:rows], axis=1, out=split[:rows])
    with np.errstate(over="ignore"):  # past the input's top, where nothing stays
        grow = np.cumprod(np.concatenate([1 / head, (r + p) / r], axis=1), axis=1)  # C(k + p, p) / 2^H
    top = law.shape[-1] - np.argmax(law[order][:, ::-1] > 0, axis=1)[:, None]
    grow[np.arange(law.shape[-1]) >= top] = 0.0
    out = np.empty_like(split)
    out[order] = np.where(f > 0, split[:, ::-1] * grow, law[order])
    return out


def _tag_count_law(law: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Law of how many of a count take one given tag of ``F + 1``, per row.

    Row ``t`` of ``law`` is the law of a count ``R``; its samples take
    tags iid from weights ``Dirichlet(1, ..., 1)`` over
    ``F + 1 = flags[t] + 1`` tags, so ``R`` falls into a uniform
    composition of ``F + 1`` parts and one tag holds a share
    ``theta ~ Beta(1, F)``. The split runs in stages: ``Beta(1, F)`` is
    the product of independent ``Beta(s_{i-1} + 1, s_i - s_{i-1})``
    weights for any ``0 = s_0 < s_1 < ... = F`` (:func:`_thin` keeps
    each), and each stage takes the most flags for which
    ``C(R + s_i, s_i)`` stays in range up to the top of its input,
    where all but ``_STAGE_TAIL`` of the mass lies. At desk sizes one
    stage takes every flag. Each stage moves the law toward 0, so the
    next one reaches further: a row that cannot go on, or that loses
    mass, needs more range than a float has, and raises
    ``OverflowError``. The stages depend on a row's own law, so a row's
    values do not depend on the other rows.
    """
    out, done = law, np.zeros_like(flags)
    ell = np.arange(1, int(flags.max(initial=0)) + 1)
    while (done < flags).any():
        tail = np.cumsum(out[:, ::-1], axis=1)[:, ::-1]
        top = np.count_nonzero(tail >= _STAGE_TAIL, axis=1)[:, None]  # all but the tail lies below
        # ln C(top + s, s) for s = 1 .. max(F): increasing in s
        span = np.cumsum(np.log((top + ell) / ell), axis=1)
        reach = np.minimum(np.count_nonzero(span <= _STAGE_RANGE, axis=1), flags)
        if ((reach <= done) & (done < flags)).any():
            t = int(np.argmax((reach <= done) & (done < flags)))
            raise OverflowError(f"a count of up to {law.shape[-1] - 1} split {flags[t]} ways "
                                "is out of the range of a float")
        step = np.where(done < flags, reach - done, 0)
        out, done = _thin(out, done, step), done + step
    lost = np.abs(law.sum(axis=-1) - out.sum(axis=-1))
    if not (lost <= 1e-9).all():
        raise OverflowError("a split lost mass out of the range of a float")
    return out


def _split_point_masses(counts: np.ndarray, flags: np.ndarray, size: int) -> np.ndarray:
    """:func:`_tag_count_law` of point masses at ``counts``, in closed form, ``size`` wide.

    One of ``F + 1`` tags holds ``k`` of ``L`` samples with probability
    ``F (L)_k / (L + F)_{k+1}`` (falling factorials): ``F / (L + F)`` at
    ``k = 0``, then steps of ``(L - k) / (L - k + F - 1)``, none above 1,
    so the law falls from ``k = 0`` and underflows only where it is
    below every float. With no flag the tag holds all ``L``.
    """
    k = np.arange(size)
    left, f = counts[:, None] - k, flags[:, None]
    steps = np.where(left > 0, left / np.maximum(left + f - 1, 1), 0.0)
    first = f / np.maximum(counts[:, None] + f, 1)
    law = np.cumprod(np.concatenate([first, steps[:, :-1]], axis=1), axis=1)
    return np.where(f > 0, law, k == counts[:, None])


def _trimmed(law: np.ndarray) -> np.ndarray:
    """``law`` without its rows' tails: the entries past all but ``_STAGE_TAIL`` of a row's mass.

    They are set to 0, and the columns no row reaches are dropped, which
    leaves each row's other entries as they are. A split narrows a law,
    so the next one runs over the counts that still carry mass.
    """
    kept = np.cumsum(law[:, ::-1], axis=1)[:, ::-1] >= _STAGE_TAIL  # a prefix of each row
    top = int(np.count_nonzero(kept, axis=1).max(initial=1))
    return np.where(kept, law, 0.0)[:, :min(_wide(top), law.shape[1])]


def _before(terms: np.ndarray) -> np.ndarray:
    """Sums of the entries before each of ``j = 0..L`` along a row, ``terms`` of width ``L``."""
    return np.cumsum(np.concatenate([np.zeros((terms.shape[0], 1)), terms], axis=1), axis=1)


def _excess(a: np.ndarray, b: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """``E[(Y - X)^+]`` per cell of ``a >= b`` kept samples, ``marked`` the law of ``J`` by row.

    ``marked`` may stop short of ``j = 2b``, where ``J`` has no mass left.

    Given ``J = j``, ``Y ~ Hyp(n, b, j)`` is carried along ``j`` as
    draws without replacement and ``X = j - Y``, so the excess is
    ``Σ_{j < 2b} P(J = j) G(j)`` with ``G(j) = E[D_j^+]``,
    ``D_j = 2 Y_j - j``: from ``j = 2b`` on, ``D_j <= 0``. A draw moves
    ``D`` by ``±1``, up with chance ``(b - Y_j) / (n - j)``, so a step
    reads only the top ``P(j) = P(D_j >= 1)`` and the mass ``H(j)`` at
    the edge ``Y_j = ceil(j / 2)``, which is 0 for an even ``j`` and 1
    for an odd one in ``D``::

        P(j + 1) = P(j) + H(j) (b - j/2) / (n - j)                  (j even)
        P(j + 1) = P(j) - H(j) (a - (j - 1)/2) / (n - j)            (j odd)
        G(j + 1) = G(j) (n - j - 1) / (n - j)
                   + ((b - a) P(j) + [j even] H(j) (b - j/2)) / (n - j)

    ``H`` steps by ratios of binomial coefficients, summed as logs, and
    ``G(j) / (n - j)`` is a sum, so a cell costs ``O(b)`` and no loop
    runs over ``j``. Every sum runs in order along a row, and a row's
    entries from ``j = 2b`` on are never read, so a cell's value does
    not depend on the other cells.
    """
    if not b.any():
        return np.zeros(a.size)
    n, a, b = (a + b)[:, None], a[:, None], b[:, None]
    k = np.arange(min(_wide(2 * int(b.max())), marked.shape[1]) - 1)  # the step from j = k to k + 1
    edge = (k + 1) // 2
    even = k % 2 == 0
    step = k < 2 * b - 1
    left = np.maximum(n - k, 1)  # samples not yet drawn
    binomials = np.where(even, (b - edge) / (edge + 1), (a - k + edge) / (k + 1 - edge))
    ratio = binomials * (k + 1) / left
    mass = np.exp(_before(np.log(np.where(step, ratio, 1.0))))[:, :-1]  # H(k)
    up = np.where(step, (b - edge) / left, 0.0)
    top = _before(np.where(even, mass * up, mass * (up - 1)))[:, :-1]  # P(k)
    rise = ((b - a) * top / left + np.where(even, mass * up, 0.0)) / np.maximum(left - 1, 1)
    j = np.arange(k.size + 1)
    walk = _before(np.where(step, rise, 0.0)) * (n - j)  # G(j)
    return np.cumsum(np.where(j < 2 * b, marked[:, :j.size] * walk, 0.0), axis=1)[:, -1]


def _cell_group(a: np.ndarray, b: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Rows ``(E[Z_cell], E[N_cell])`` of cells with ``a >= b`` kept samples and flags ``f1 >= f2``.

    With ``M = (f1 + 1)(f2 + 1)`` sub-bins, ``E[N_cell] = n - M Q_n(1)``,
    where ``Q_n`` is the law of one sub-bin's count ``K`` of ``n = a + b``:
    ``E[K] = n / M``, and ``K`` counts in ``N`` unless it is 1. The row
    tag leaves ``R`` of the ``n`` (:func:`_split_point_masses`), of which
    the column tag keeps exactly one with probability
    ``f2 R / ((R + f2)(R + f2 - 1))``. The statistic's term of a sub-bin
    with ``A`` and ``B`` samples, averaged over its marks, is
    ``f(A, B) = 2 E|X - Y| - g(A) - g(B)``: ``X`` and ``Y`` count its
    marked ``S_p`` and ``S_q`` samples and ``g(i)`` is
    :func:`_walk_means`. ``A`` has law ``Q_a`` and ``B`` law ``Q_b``. The
    marked samples of the sub-bin are themselves one tag of a split, so
    their count ``J`` has the law of ``Bin(n, 1/2)`` split by both tag
    counts, and given ``J = j`` they are a uniform ``j``-subset of the
    cell: ``Y ~ Hyp(n, b, j)``. Then ``E|X - Y| = (a - b) / (2M) +
    2 E[(Y - X)^+]`` (:func:`_excess`), so
    ``E[Z_cell] = M E[f(A, B)] = (a - b) + M (4 E[(Y - X)^+] - E g(A) - E g(B))``.
    ``Q_a`` and ``Q_b`` split their point masses by ``f1`` in closed form
    and by ``f2`` in sums, and ``J`` is split in sums by ``f2``, then
    ``f1``. Each split in sums runs over the counts that carry all but
    ``2^-60`` of its input's mass (:func:`_trimmed`), far below a
    float's precision of the means: a cell costs ``O((f1 + f2 + 1) n)``.
    Every sum runs in a fixed order along a row, so a cell's values do
    not depend on the other cells of the group.
    """
    n = a + b
    size = _wide(int(n.max()) + 1)
    marked = _tag_count_law(_trimmed(_half_binomials(n, size)), f2)
    marked = _tag_count_law(_trimmed(marked), f1)
    excess = _excess(a, b, marked)
    sides = _split_point_masses(np.concatenate([a, b]), np.tile(f1, 2), _wide(int(a.max()) + 1))
    sides = _tag_count_law(_trimmed(sides), np.tile(f2, 2))  # the laws of A, then of B
    walked = np.cumsum(sides * _walk_means(sides.shape[1]), axis=1)[:, -1].reshape(2, -1)
    r, g = np.arange(size), f2[:, None]
    one = np.where(g > 0, g * r / np.maximum((r + g) * (r + g - 1), 1), r == 1)
    single = np.cumsum(_split_point_masses(n, f1, size) * one, axis=1)[:, -1]  # Q_n(1)
    subbins = (f1 + 1) * (f2 + 1)
    return np.stack([(a - b) + subbins * (4 * excess - walked[0] - walked[1]),
                     n - subbins * single], axis=1)


# Entries held by the four laws of a group of cells evaluated at once
# (about 256 KB each).
_GROUP_ENTRIES = 2**15


def cell_means(a: np.ndarray, b: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Rows ``(E[Z_cell], E[N_cell])`` of cells with ``a >= b`` kept samples and flags ``f1, f2``.

    The cells are taken by ``n`` and cut into groups whose four laws
    hold at most about ``_GROUP_ENTRIES`` entries, so a large cell pads
    no small ones, and each group repeats its last cell up to a power of
    two cells. A cell's values do not depend on its group.
    """
    out = np.empty((a.size, 2))
    order = np.argsort(a + b, kind="stable")
    width = _wide((a + b)[order] + 1)  # the laws' widths
    start = 0
    while start < order.size:
        entries = np.arange(4, 4 * (order.size - start) + 1, 4) * width[start:]
        count = max(1, int(np.searchsorted(entries, _GROUP_ENTRIES, side="right")))
        padded = 1 << (count - 1).bit_length()  # its last cell repeated up to a power of two
        if 4 * padded * int(width[start + count - 1]) > _GROUP_ENTRIES:
            count = padded = 1 << (count.bit_length() - 1)
        group = order[start:start + count]
        rows = np.concatenate([group, np.repeat(group[-1:], padded - count)])
        out[group] = _cell_group(a[rows], b[rows], f1[rows], f2[rows])[:count]
        start += count
    return out


# Cells a memo holds before it starts again: 24 bytes each.
_MEMO_CELLS = 2**16


class CellMeanMemo:
    """Sums of :func:`cell_means` over cells, memoised by ``(a, b, F_r, F_c)``.

    Both means are symmetric in ``a, b`` and in ``F_r, F_c``, so a cell's
    key packs ``max(a, b)``, ``min(a, b)``, ``max(F)`` and ``min(F)``
    into one int64. The keys are held sorted, next to their values, at
    the front of two buffers of ``_MEMO_CELLS`` entries, whose pages the
    system maps only as the memo fills them. A call's cells become
    their distinct keys and counts, which are looked up in key order;
    the keys not yet known are evaluated in one call and merged in. A
    value depends on its key alone, so the memo changes no result: a
    cell too large for the key is evaluated each time, and a full memo
    starts again.
    """

    def __init__(self) -> None:
        self._keys = np.empty(_MEMO_CELLS, dtype=np.int64)
        self._values = np.empty((_MEMO_CELLS, 2))
        self.size = 0

    def _insert(self, new: np.ndarray, values: np.ndarray) -> None:
        """Merge sorted ``new`` keys, absent from the memo, and their values into it."""
        if new.size > _MEMO_CELLS:
            return
        if self.size + new.size > _MEMO_CELLS:
            self.size = 0
        keys = self._keys[:self.size]
        at_old = np.arange(self.size) + np.searchsorted(new, keys)
        at_new = np.searchsorted(keys, new) + np.arange(new.size)
        # numpy reads the entries it moves before it writes them.
        self._keys[at_old] = keys
        self._values[at_old] = self._values[:self.size]
        self._keys[at_new] = new
        self._values[at_new] = values
        self.size += new.size

    def sums(self, a: np.ndarray, b: np.ndarray, fr: np.ndarray, fc: np.ndarray) -> np.ndarray:
        """``(Σ E[Z_cell], Σ E[N_cell])`` over cells of ``a`` + ``b`` samples and flags ``fr, fc``."""
        a, b = np.maximum(a, b), np.minimum(a, b)
        f1, f2 = np.maximum(fr, fc), np.minimum(fr, fc)
        if not a.size:
            return np.zeros(2)
        if a.max() >= 2**20 or f1.max() >= 2**11:
            big = (a >= 2**20) | (f1 >= 2**11)
            return (cell_means(a[big], b[big], f1[big], f2[big]).sum(axis=0)
                    + self.sums(a[~big], b[~big], f1[~big], f2[~big]))
        # The temporaries sized by the cells are int64, not bool: numpy
        # keeps freed buffers below 1 KB for reuse, up to 7 of each size,
        # and bool ones would take every size.
        packed = ((a << 21 | b) << 11 | f1) << 11 | f2
        packed.sort()
        starts = np.concatenate([[0], np.flatnonzero(np.diff(packed)) + 1])
        key, count = packed[starts], np.diff(starts, append=packed.size)
        if self.size:
            at = np.minimum(np.searchsorted(self._keys[:self.size], key), self.size - 1)
            means = self._values[at]
            unknown = np.flatnonzero(self._keys[at] - key)  # where the nearest key differs
        else:
            means, unknown = np.empty((key.size, 2)), np.arange(key.size)
        if unknown.size:
            new = key[unknown]
            means[unknown] = cell_means(new >> 43, new >> 22 & (2**21 - 1),
                                        new >> 11 & (2**11 - 1), new & (2**11 - 1))
            self._insert(new, means[unknown])
        return count @ means


# The memo the independence runs share; its values are functions of their keys.
CELL_MEANS = CellMeanMemo()
