"""Brute-force enumeration oracles, independent of the library code paths.

Everything here follows the operational definitions literally in pure
Python: flattening by scanning a random order, the marked closeness
statistic by dictionary counting, expectations by enumerating every
assignment of the internal randomness (selector vectors, orders,
truncation sizes with exact Poisson weights, markings). The mixing
oracle powers the dense truncated kernel and diagonalises it whole, and
the point-mass oracle forms every row of ``post @ M``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from replitest.flattening import subbin_indices
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
    out = []
    for i, v in enumerate(values):
        if flags[i]:
            continue
        tag = sum(
            1
            for j, w in enumerate(values)
            if flags[j] and w == v and position[j] < position[i]
        )
        out.append((v, tag))
    return out


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
