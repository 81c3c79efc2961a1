"""Brute-force enumeration oracles, independent of the library code paths.

Everything here follows the operational definitions literally in pure
Python: flattening by scanning a random order, the marked closeness
statistic by dictionary counting, expectations by enumerating every
assignment of the internal randomness (selector vectors, orders,
truncation sizes with exact Poisson weights, markings). The sub-bin
count law of an independence cell is summed in exact rationals, and
the independence runs' finish with drawn sub-bin orders is kept as
the sampled-order reference for the library's exact order average. The mixing
oracle powers the dense truncated kernel and diagonalises it whole, the
point-mass oracle forms every row of ``post @ M``, and the product-walk
oracle forms ``kron`` powers of the dense kernels.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

import replitest.independence as ind
from replitest.flattening import pack_keys, subbin_indices
from replitest.measures import NonNegativeMeasure, measure_2d
from replitest.rng import RngStream


def l1_distance(p: NonNegativeMeasure, q: NonNegativeMeasure) -> float:
    """``sum |p_i - q_i|`` over a shared domain."""
    if p.shape != q.shape:
        raise ValueError(f"domain mismatch: {p.shape} vs {q.shape}")
    return float(np.abs(p.masses - q.masses).sum())


def tv_distance(p: NonNegativeMeasure, q: NonNegativeMeasure) -> float:
    """Total variation distance, ``0.5 * sum |p_i - q_i|`` for distributions."""
    return 0.5 * l1_distance(p, q)


def product_of_marginals(p: NonNegativeMeasure) -> NonNegativeMeasure:
    """The product distribution sharing ``p``'s marginals (2D, normalized ``p``)."""
    if p.ndim != 2:
        raise ValueError("product of marginals is defined for 2D measures")
    rows, cols = p.normalized().marginals()
    return measure_2d(np.outer(rows, cols))


def zc_value(sp, sq, marks) -> int:
    """Marked closeness statistic for one concrete marking.

    ``marks`` is a boolean sequence aligned with ``list(sp) + list(sq)``.
    """
    sp = list(sp)
    sq = list(sq)
    tp0, tp1, tq0, tq1 = Counter(), Counter(), Counter(), Counter()
    for i, x in enumerate(sp):
        (tp0 if marks[i] else tp1)[x] += 1
    for j, y in enumerate(sq):
        (tq0 if marks[len(sp) + j] else tq1)[y] += 1
    support = set(sp) | set(sq)
    total = 0
    for e in support:
        total += (
            abs(tp0[e] - tq0[e])
            + abs(tp1[e] - tq1[e])
            - abs(tp0[e] - tp1[e])
            - abs(tq0[e] - tq1[e])
        )
    return total


def zc_marking_sum(sp, sq) -> int:
    """Sum of the statistic over all 2^k equiprobable markings (exact integer)."""
    k = len(sp) + len(sq)
    total = 0
    for bits in range(2**k):
        marks = [(bits >> i) & 1 for i in range(k)]
        total += zc_value(sp, sq, marks)
    return total


def zc_mean(sp, sq) -> float:
    k = len(sp) + len(sq)
    return zc_marking_sum(sp, sq) / 2**k


def non_singleton(items) -> int:
    counts = Counter(items)
    return sum(c for c in counts.values() if c >= 2)


def flatten_by_definition(values, flags, order):
    """Literal flattening: kept ``(value, #same-value dividers before)`` pairs.

    ``order`` lists sample indices from first to last; ``flags[i] == 1``
    marks sample ``i`` as a divider. Output preserves input order.
    """
    position = {sample: pos for pos, sample in enumerate(order)}
    divider_positions = {}
    for j, w in enumerate(values):
        if flags[j]:
            divider_positions.setdefault(w, []).append(position[j])
    return [
        (v, sum(1 for pos in divider_positions.get(v, ()) if pos < position[i]))
        for i, v in enumerate(values)
        if not flags[i]
    ]


def inverse_cdf_indices(probs, k: int, gen: np.random.Generator) -> np.ndarray:
    """``k`` i.i.d. indices by definition: the first cell whose cdf exceeds ``u``.

    The cdf is built as ``Generator.choice`` builds it, and each of the
    ``k`` uniforms ``u`` comes from one ``gen.random(k)`` call.
    """
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf.searchsorted(gen.random(k), side="right")


@dataclass(frozen=True)
class FlattenAssignment:
    """Flattening selector ``F`` and sample order ``sigma``.

    ``sigma[l]`` is the position of sample ``l`` in the random order;
    it must be a permutation of ``range(len(F))``.
    """

    flags: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        flags = np.asarray(self.flags, dtype=np.int8)
        sigma = np.asarray(self.sigma, dtype=np.int64)
        if flags.shape != sigma.shape or flags.ndim != 1:
            raise ValueError("flags and sigma must be 1D of equal length")
        if not np.all((flags == 0) | (flags == 1)):
            raise ValueError("flags must be binary")
        check = np.zeros(sigma.size, dtype=bool)
        check[sigma] = True
        if not check.all():
            raise ValueError("sigma must be a permutation")
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def random(cls, size: int, alpha: float, rng: RngStream) -> "FlattenAssignment":
        gen = rng.generator()
        flags = (gen.random(size) < alpha).astype(np.int8)
        sigma = gen.permutation(size)
        return cls(flags, sigma)


def flatten_1d(samples, assignment: FlattenAssignment) -> list[tuple[int, int]]:
    """Flatten a 1D multiset; returns kept ``(element, sub_bin)`` pairs in input order."""
    values = np.asarray(samples, dtype=np.int64)
    if values.size != assignment.flags.size:
        raise ValueError("assignment length must match the number of samples")
    subs = subbin_indices(values, assignment.flags, assignment.sigma)
    keep = assignment.flags == 0
    return [(int(v), int(s)) for v, s in zip(values[keep], subs[keep])]


def max_subbin_count(samples) -> int:
    """Largest multiplicity of any flattened element (0 for empty input)."""
    values = np.asarray(samples)
    if values.size == 0:
        return 0
    axis = 0 if values.ndim > 1 else None
    return int(np.unique(values, axis=axis, return_counts=True)[1].max())


def _poisson_pmf(k: int, lam: float) -> float:
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


def branch_mixture(weights, rates, counts) -> tuple[list[float], float]:
    """Branch posterior and mixture pmf at one state, term by term.

    Branch k has mixing weight ``weights[k]`` and Poisson rate
    ``rates[k][i]`` for coordinate i; ``counts[i]`` is that coordinate's
    count.
    """
    joint = []
    for weight, branch_rates in zip(weights, rates):
        term = weight
        for count, rate in zip(counts, branch_rates):
            term *= _poisson_pmf(count, rate)
        joint.append(term)
    total = sum(joint)
    return [term / total for term in joint], total


def _bernoulli_weight(flags, rate: float) -> float:
    ones = sum(flags)
    return rate**ones * (1.0 - rate) ** (len(flags) - ones)


def enumerate_independence_means(
    sp_pairs,
    sq_pairs,
    alpha: float,
    beta: float,
    poisson_mean: float,
    abort_excess_p: float,
    abort_excess_q: float,
) -> tuple[float, float]:
    """Exact ``(E[Z], E[N])`` over all internal randomness of the statistic.

    Enumerates every selector pair, every order on each axis, every
    truncation size pair (with exact Poisson weights; the tail beyond
    the flattened set sizes contributes the abort value 0), and every
    marking. Tractable for a handful of samples.
    """
    sp_pairs = [tuple(s) for s in sp_pairs]
    sq_pairs = [tuple(s) for s in sq_pairs]
    samples = sp_pairs + sq_pairs
    k = len(samples)
    k_p = len(sp_pairs)
    rows = [s[0] for s in samples]
    cols = [s[1] for s in samples]

    orders = list(permutations(range(k)))
    selectors = list(product((0, 1), repeat=k))
    truncation_cache: dict = {}

    def truncated_means(kept_p: tuple, kept_q: tuple) -> tuple[float, float]:
        key = (kept_p, kept_q)
        if key not in truncation_cache:
            z_total = 0.0
            n_total = 0.0
            for ell_p in range(len(kept_p) + 1):
                w_p = _poisson_pmf(ell_p, poisson_mean)
                for ell_q in range(len(kept_q) + 1):
                    w = w_p * _poisson_pmf(ell_q, poisson_mean)
                    trunc_p = kept_p[:ell_p]
                    trunc_q = kept_q[:ell_q]
                    z_total += w * zc_mean(trunc_p, trunc_q)
                    n_total += w * non_singleton(trunc_p + trunc_q)
            # sizes beyond the kept sets abort with value 0
            truncation_cache[key] = (z_total, n_total)
        return truncation_cache[key]

    z_mean = 0.0
    n_mean = 0.0
    identity = [tuple(range(k))]
    for fx in selectors:
        w_fx = _bernoulli_weight(fx, alpha)
        if w_fx == 0.0:
            continue
        # without dividers on an axis every order yields all-zero tags,
        # so a single representative order carries the full weight
        orders_x = orders if any(fx) else identity
        for fy in selectors:
            w_f = w_fx * _bernoulli_weight(fy, beta)
            if w_f == 0.0:
                continue
            orders_y = orders if any(fy) else identity
            keep = [i for i in range(k) if not fx[i] and not fy[i]]
            deficit_p = k_p - sum(1 for i in keep if i < k_p)
            deficit_q = (k - k_p) - sum(1 for i in keep if i >= k_p)
            if deficit_p > abort_excess_p or deficit_q > abort_excess_q:
                continue  # aborted runs contribute 0
            order_weight = 1.0 / (len(orders_x) * len(orders_y))
            for order_x in orders_x:
                row_tags = dict(
                    zip(
                        [i for i in range(k) if not fx[i]],
                        flatten_by_definition(rows, fx, order_x),
                    )
                )
                for order_y in orders_y:
                    col_tags = dict(
                        zip(
                            [i for i in range(k) if not fy[i]],
                            flatten_by_definition(cols, fy, order_y),
                        )
                    )
                    kept_p = tuple(
                        (row_tags[i], col_tags[i]) for i in keep if i < k_p
                    )
                    kept_q = tuple(
                        (row_tags[i], col_tags[i]) for i in keep if i >= k_p
                    )
                    z_part, n_part = truncated_means(kept_p, kept_q)
                    z_mean += w_f * order_weight * z_part
                    n_mean += w_f * order_weight * n_part
    return z_mean, n_mean


def order_average_stats(kept, x_rows, y_cols) -> tuple[Fraction, Fraction]:
    """Exact ``(E[Z], E[N])`` of one independence run over every sub-bin order and marking.

    ``kept`` lists ``(row, col, side)`` per kept sample, side 0 for
    ``S_p``; ``x_rows`` holds the row of each x-flagged divider and
    ``y_cols`` the column of each y-flagged one. Every order of the kept
    samples and x-flagged dividers tags the rows (``flatten_by_definition``),
    every order of the kept samples and y-flagged dividers the columns,
    and every marking scores the tagged keys (``zc_marking_sum``).
    """
    def tag_counts(values, flagged):
        flags = [0] * (len(values) - flagged) + [1] * flagged
        return Counter(
            tuple(tag for _, tag in flatten_by_definition(values, flags, order))
            for order in permutations(range(len(values)))
        )

    row_tags = tag_counts([r for r, _, _ in kept] + list(x_rows), len(x_rows))
    col_tags = tag_counts([c for _, c, _ in kept] + list(y_cols), len(y_cols))
    z = n = Fraction(0)
    for rows, row_weight in row_tags.items():
        for cols, col_weight in col_tags.items():
            keys = [(r, rt, c, ct) for (r, c, _), rt, ct in zip(kept, rows, cols)]
            sp = [key for key, (_, _, side) in zip(keys, kept) if side == 0]
            sq = [key for key, (_, _, side) in zip(keys, kept) if side == 1]
            weight = row_weight * col_weight
            z += weight * Fraction(zc_marking_sum(sp, sq), 2 ** len(kept))
            n += weight * non_singleton(sp + sq)
    total = sum(row_tags.values()) * sum(col_tags.values())
    return z / total, n / total


def _mark_mean_exact(a: int, b: int) -> Fraction:
    """``key_mark_mean(a, b)`` as an exact rational."""
    n = a + b
    w = sum(math.comb(n, k) * abs(k - a) for k in range(n + 1))
    u = sum(math.comb(a, k) * abs(2 * k - a) for k in range(a + 1))
    v = sum(math.comb(b, k) * abs(2 * k - b) for k in range(b + 1))
    return Fraction(2 * w - (u << b) - (v << a), 1 << n)


def _one_tag_law(k: int, count: int, flags: int) -> Fraction:
    """``P(k of count samples take one tag)`` under iid tags of Dirichlet(1, ..., 1) weights.

    ``BetaBin(count; 1, flags)``: the first part of a uniform composition
    of ``count`` into ``flags + 1`` parts, ``C(count - k + F - 1, F - 1) /
    C(count + F, F)``; with no flag every sample takes the one tag.
    """
    if flags == 0:
        return Fraction(int(k == count))
    return Fraction(math.comb(count - k + flags - 1, flags - 1), math.comb(count + flags, flags))


def exact_cell_means(a: int, b: int, f_r: int, f_c: int) -> tuple[Fraction, Fraction]:
    """``(E[Z_cell], E[N_cell])`` of a cell of ``a`` + ``b`` kept samples, in exact rationals.

    ``M = (f_r + 1)(f_c + 1)`` exchangeable sub-bins each hold ``k``
    samples with probability ``Q(k) = Σ_R BetaBin(R; n, 1, f_r)
    BetaBin(k; R, 1, f_c)``, of which ``A ~ Hyp(n, a, k)`` are from ``S_p``:
    ``E[Z_cell] = M Σ_{k>=2} Q(k) H(k)`` with ``H(k) = E f(A, k - A)``, and
    ``E[N_cell] = M Σ_{k>=2} Q(k) k``.
    """
    n = a + b
    subbins = (f_r + 1) * (f_c + 1)
    z = count = Fraction(0)
    for k in range(2, n + 1):
        q = sum(_one_tag_law(r, n, f_r) * _one_tag_law(k, r, f_c) for r in range(k, n + 1))
        h = sum(Fraction(math.comb(a, s) * math.comb(b, k - s), math.comb(n, k))
                * _mark_mean_exact(s, k - s)
                for s in range(max(0, k - b), min(a, k) + 1))
        z += q * h
        count += q * k
    return subbins * z, subbins * count


@functools.lru_cache(maxsize=2**12)
def key_mark_mean(a: int, b: int) -> float:
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


def key_stats(keys: np.ndarray, kept_p: int) -> tuple[float, int]:
    """``(Z, N)`` of the keys; the first ``kept_p`` are from ``S_p``. Overwrites ``keys``.

    ``Z`` is the sum of :func:`key_mark_mean` over the distinct keys and
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
    z = sum(c * key_mark_mean(*divmod(pair, radix))
            for pair, c in zip(pairs.tolist(), count[pairs].tolist()))
    return z, int(size.sum())


def sampled_order_finish(plan, placed, coords, touched) -> tuple[float, int]:
    """``(Z, N)`` of the live runs of an independence chunk plan, with drawn sub-bin orders.

    The finish of ``independence._finish_runs`` before its orders were
    averaged out: the same kept samples, the divider types of the
    placement, then one ``gen.permutation`` of all the chunk's items per
    axis, the plan's next draws, tags the rows and the columns
    (``subbin_indices`` on ``run * radix + coordinate``), and
    :func:`key_stats` scores the packed keys. The marks are averaged
    exactly, as they were.
    """
    runs, dividers, ell, gen = plan.runs, plan.dividers, plan.ell, plan.gen
    div_seg, div_pos, types = placed
    kept = int(ell.sum())
    kept_p = int(ell[:runs].sum())
    div_p = int(dividers[:runs].sum())
    items = kept + div_seg.size
    gap = div_pos - np.arange(div_seg.size)
    gap += np.repeat(np.cumsum(dividers) - dividers, dividers)
    lead = gap < np.repeat(ell, dividers)
    seg = div_seg[lead]
    span = ell + np.bincount(seg, minlength=ell.size)
    span_start = np.cumsum(span) - span
    free = np.ones(int(span.sum()), dtype=bool)
    free[span_start[seg] + div_pos[lead]] = False
    side1 = touched[0].size
    span_start[runs:] -= side1
    at = np.concatenate([
        np.flatnonzero(free) - np.repeat(span_start, ell),
        np.searchsorted(touched[0], div_pos[:div_p]),
        np.searchsorted(touched[1], div_pos[div_p:]) + side1,
    ])
    fx = np.zeros(items, dtype=bool)
    fy = np.zeros(items, dtype=bool)
    fx[kept:], fy[kept:] = types
    seg_run = np.arange(ell.size) % runs
    columns = []
    for axis, flags in ((0, fx), (1, fy)):
        values = coords[axis].take(at)
        base = seg_run * (int(values.max()) + 1)
        values[:kept] += np.repeat(base, ell)
        values[kept:] += base[div_seg]
        tags = subbin_indices(values, flags, gen.permutation(items))
        columns += [values[:kept], tags[:kept]]
    return key_stats(pack_keys(pack_keys(*columns[:2]), *columns[2:]), kept_p)


def sampled_order_average(k, plans, pairs_at) -> tuple[float, float]:
    """``independence._finish_average`` with each chunk finished by :func:`sampled_order_finish`."""
    placed = ind._place_dividers(plans)
    touched = ind._touched_positions(plans, placed)
    coords = pairs_at(touched)
    stats = [sampled_order_finish(plan, where, coords, touched)
             for plan, where in zip(plans, placed)]
    return sum(z for z, _ in stats) / k, sum(n for _, n in stats) / k


def dense_mixing_report(kernel, delta: float, *, initial="all", max_steps=64):
    """Mixing curve, ``tau_delta`` and gap from dense powers of ``transition_matrix``.

    The matrix-power loop and the full ``eigvals`` call of the original
    ``estimate_mixing``; ``tau_delta`` is the first step after which
    the curve stays below ``delta``.
    """
    matrix = kernel.transition_matrix()
    pi = kernel.stationary_vector()

    rows = []
    if initial in ("all", "poisson"):
        rows.extend(kernel.initial_distributions().values())
    dists = np.stack(rows) if rows else np.zeros((0, pi.size))
    use_points = initial in ("all", "point")

    powers = np.eye(pi.size)
    curve = []
    for _ in range(max_steps + 1):
        worst = 0.0
        if dists.size:
            worst = max(worst, float(np.abs(dists - pi).sum(axis=1).max()))
        if use_points:
            worst = max(worst, float(np.abs(powers - pi).sum(axis=1).max()))
        curve.append(worst)
        if worst < delta / 10.0 and len(curve) > 1:
            break
        dists = dists @ matrix if dists.size else dists
        powers = powers @ matrix
    if curve[-1] >= delta:
        raise RuntimeError(
            f"walk did not mix below delta={delta} within {max_steps} steps "
            f"(final distance {curve[-1]:.3g}); raise max_steps"
        )

    eigenvalues = np.sort(np.abs(np.linalg.eigvals(matrix)))[::-1]
    lambda_star = float(eigenvalues[1]) if eigenvalues.size > 1 else 0.0
    tau = next(t for t in range(len(curve) + 1) if all(v < delta for v in curve[t:]))
    return {"tau_delta": tau, "gap_estimate": 1.0 - lambda_star, "curve": curve}


def all_rows_l1(post: np.ndarray, points: np.ndarray, pi: np.ndarray) -> float:
    """``max_i sum_j |(post @ points)[i, j] - pi[j]|`` over every row of ``post``."""
    return float(np.abs(post @ points - pi).sum(axis=1).max())


def dense_product_report(kernels, delta: float, *, max_steps=64):
    """Product-walk mixing curve and ``tau_delta`` from ``kron`` powers of dense kernels.

    The worst point-mass start over the full product chain: at step t
    every row of ``P_1^t (x) P_2^t (x) ...`` is compared with the
    product stationary law. The curve stops after the first step below
    ``delta / 10`` or at ``max_steps``, and does not check that it fell
    below ``delta``.
    """
    matrices = [k.transition_matrix() for k in kernels]
    pi_full = np.ones(1)
    for k in kernels:
        pi_full = np.kron(pi_full, k.stationary_vector())
    powers = [np.eye(m.shape[0]) for m in matrices]
    curve = []
    for _ in range(max_steps + 1):
        full = np.ones((1, 1))
        for p in powers:
            full = np.kron(full, p)
        curve.append(float(np.abs(full - pi_full).sum(axis=1).max()))
        if curve[-1] < delta / 10.0 and len(curve) > 1:
            break
        powers = [p @ m for p, m in zip(powers, matrices)]
    tau = next(t for t in range(len(curve) + 1) if all(v < delta for v in curve[t:]))
    return {"tau_delta": tau, "curve": curve}
