"""Exact kernels and simulators for the hard-instance sample random walks.

Both walks are one branch mixture (``_BranchMixture``): a bucket's
counts follow a mixture of Poisson branches, and one step draws the
hidden branch from its posterior at the current counts, then fresh
counts from that branch. Each kernel declares only ``_branches()``,
its branch log-weights and per-coordinate rates, and its named Poisson
starts. The transition kernel therefore factors as ``P = Post @ B``,
where ``Post`` (S x r) holds the branch posteriors of the S truncated
states and ``B`` (r x S) the truncated Poisson pmf of each of the r
branches (r = 2 for the coordinate walk, r = 3 for the pair walk).
Everything is computed in log-space, truncated at ``a_max``.

Mixing reports read a kernel only through ``factors() -> (Post, B)``,
whose rows of ``B`` are also the Poisson starts, and
``stationary_vector()``, and never form ``P``. Since
``P^t = Post (B Post)^{t-1} B``, the l1 curves advance through r x S
factors and the nonzero spectrum of ``P`` is the spectrum of the r x r
branch chain ``B Post`` (the data-augmentation duality of Liu, Wong &
Kong, Biometrika 1994). The worst point-mass start is searched only
over the rows of ``Post`` that are vertices of their convex hull: row
i of ``P^t`` is ``Post[i] M_t``, its l1 distance to ``pi`` is convex
in the row ``Post[i]``, and a convex function attains its maximum over
a polytope at a vertex (Rockafellar, *Convex Analysis*, Cor. 32.3.2),
so the curve stays exact. The dense ``transition_matrix`` remains for
exactness checks and for ``product_walk_tau``.

The mixing-time convention follows the unhalved l1 metric
``sum_j |P^t(i, j) - pi(j)| < delta`` (twice the total variation
distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .rng import RngStream

ROW_SUM_TOL = 1e-9


class TruncationError(RuntimeError):
    """Raised when the truncated state space loses too much mass."""


def log_poisson_pmf(k, rate: float) -> np.ndarray:
    k = np.asarray(k, dtype=np.float64)
    if rate == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    # log(k!) once per distinct state; kernels repeat few counts many times.
    states, inverse = np.unique(k, return_inverse=True)
    log_factorial = np.array([math.lgamma(s + 1.0) for s in states])[inverse]
    return -rate + k * math.log(rate) - log_factorial.reshape(k.shape)


def logsumexp(a, keepdims: bool = False) -> np.ndarray:
    """``log(sum(exp(a)))`` over the last axis, shifted by the maximum.

    A row of all ``-inf`` gives ``-inf`` without a warning.
    """
    a = np.asarray(a, dtype=np.float64)
    top = np.max(a, axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - top).sum(axis=-1, keepdims=True)) + top
    return out if keepdims else out[..., 0]


def _default_a_max(rate: float) -> int:
    # Poisson mass beyond 12 standard deviations is < 1e-30.
    return math.ceil(rate + 12.0 * math.sqrt(max(rate, 1.0)) + 30.0)


class _BranchMixture:
    """Two-block Gibbs sampler on the counts of one bucket (Liu, Wong & Kong, 1994).

    A kernel declares ``_branches() -> (log_weights, rates)``, with
    ``rates[k]`` holding branch k's Poisson rate for each coordinate,
    and ``initial_distributions()``, which names the rows of
    ``_branch_pmfs()``.
    """

    def __post_init__(self) -> None:
        if self.a_max < 0:
            top = max(r for rates in self._branches()[1] for r in rates)
            object.__setattr__(self, "a_max", _default_a_max(top))

    def _log_joint(self, *counts) -> np.ndarray:
        """``log(w_k * prod_i Poi(counts[i]; rates[k][i]))`` stacked over branches k.

        The counts broadcast, so a grid passes as open axes and each pmf
        is evaluated once per axis.
        """
        counts = [np.asarray(c, dtype=np.float64) for c in counts]
        parts = []
        for total, rates in zip(*self._branches()):
            for c, rate in zip(counts, rates):
                total = total + log_poisson_pmf(c, rate)
            parts.append(total)
        return np.stack(parts, axis=-1)

    def posterior(self, *counts) -> np.ndarray:
        """``Pr(branch | counts)``, stacked over branches on the last axis."""
        terms = self._log_joint(*counts)
        return np.exp(terms - logsumexp(terms, keepdims=True))

    def stationary(self, *counts) -> np.ndarray:
        return np.exp(logsumexp(self._log_joint(*counts)))

    def _grid(self) -> tuple[np.ndarray, ...]:
        """The truncated counts as open broadcastable axes; results flatten row-major."""
        grid = np.arange(self.a_max + 1, dtype=np.float64)
        return np.ix_(*[grid] * len(self._branches()[1][0]))

    def _branch_pmfs(self) -> list[np.ndarray]:
        """Per branch, the ``kron`` of its truncated Poisson pmfs over the flattened grid."""
        grid = np.arange(self.a_max + 1, dtype=np.float64)
        return [reduce(np.kron, [np.exp(log_poisson_pmf(grid, r)) for r in rates])
                for rates in self._branches()[1]]

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(post, branch)`` with ``post @ branch`` the truncated kernel.

        ``post`` is the (#states, r) branch posterior over the flattened
        grid; ``branch`` row k, the Poisson start named for branch k, is
        branch k's pmf.
        """
        branch = np.stack(list(self.initial_distributions().values()))
        return self.posterior(*self._grid()).reshape(-1, len(branch)), branch

    def transition_matrix(self) -> np.ndarray:
        post, branch = self.factors()
        _check_rows(post, branch)
        return post @ branch

    def stationary_vector(self) -> np.ndarray:
        return _check_mass(self.stationary(*self._grid()).reshape(-1))

    def _draw(self, counts, rng: RngStream) -> list:
        """A posterior branch per state, then one array of fresh Poissons per coordinate."""
        gen = rng.generator()
        counts = np.broadcast_arrays(*(np.asarray(c) for c in counts))
        cdf = np.cumsum(self.posterior(*counts), axis=-1)
        u = gen.random(counts[0].shape)[..., None] * cdf[..., -1:]
        rates = np.array(self._branches()[1])[(cdf <= u).sum(axis=-1)]
        return [gen.poisson(rates[..., i]) for i in range(rates.shape[-1])]


@dataclass(frozen=True)
class CoordKernel(_BranchMixture):
    """Single-coordinate walk for the uniformity hard instance.

    The coordinate count is an even two-branch Poisson mixture with
    rates ``m(1 +/- xi)/n``.
    """

    m: int
    n: int
    xi: float
    a_max: int = -1

    def __post_init__(self) -> None:
        if not 0 <= self.xi < 1:
            raise ValueError("xi must lie in [0, 1)")
        if not (self.m > 0 and self.n > 0):
            raise ValueError("m and n must be positive")
        super().__post_init__()

    @property
    def rate(self) -> float:
        return self.m / self.n

    def branch_rates(self) -> tuple[float, float]:
        return self.rate * (1 + self.xi), self.rate * (1 - self.xi)

    def _branches(self):
        return np.log([0.5, 0.5]), [(r,) for r in self.branch_rates()]

    def transition(self, a, b) -> np.ndarray:
        """``P(a, b)`` in closed form, for scalar or broadcastable integer states."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        lam, up, down = self.rate, np.log1p(self.xi), np.log1p(-self.xi)
        s = a + b
        numer = logsumexp(np.stack([-2 * self.xi * lam + s * up,
                                    2 * self.xi * lam + s * down], axis=-1))
        denom = logsumexp(np.stack([-self.xi * lam + a * up,
                                    self.xi * lam + a * down], axis=-1))
        return np.exp(log_poisson_pmf(b, lam) + numer - denom)

    def posterior_heavy(self, a) -> np.ndarray:
        """``Pr(branch = heavy | count = a)``."""
        return self.posterior(a)[..., 0]

    def step(self, a, rng: RngStream):
        """One walk step from state(s) ``a``: posterior branch, fresh Poisson.

        The result has the shape of ``a``; a scalar state gives an int.
        """
        (out,) = self._draw([a], rng)
        return int(out) if np.ndim(a) == 0 else out

    def initial_distributions(self) -> dict[str, np.ndarray]:
        """The two admissible Poisson initial distributions, truncated."""
        return dict(zip(("poisson-heavy", "poisson-light"), self._branch_pmfs()))


@dataclass(frozen=True)
class ClosenessPairKernel(_BranchMixture):
    """Per-bucket pair walk for the closeness hard instance.

    States are count pairs ``(a, c)``; the generating mixture has a
    heavy branch (rate ``1 - eps`` on both sides, weight ``m/n``) and
    two swapped light branches (rates ``m(2 eps +/- xi)/(2(n-m))``,
    weight ``(n-m)/2n`` each).
    """

    n: int
    m: int
    epsilon: float
    xi: float
    a_max: int = -1

    def __post_init__(self) -> None:
        if not self.m < self.n / 2:
            raise ValueError("pair kernel requires m < n/2")
        super().__post_init__()

    # bench/spans.py wraps these two through vars(ClosenessPairKernel),
    # which holds no inherited name; they can go once it resolves those.
    transition_matrix = _BranchMixture.transition_matrix
    stationary_vector = _BranchMixture.stationary_vector

    def branch_rates(self) -> list[tuple[float, float]]:
        heavy = 1.0 - self.epsilon
        hi = self.m * (2 * self.epsilon + self.xi) / (2.0 * (self.n - self.m))
        lo = self.m * (2 * self.epsilon - self.xi) / (2.0 * (self.n - self.m))
        return [(heavy, heavy), (hi, lo), (lo, hi)]

    def _branches(self):
        light = (self.n - self.m) / (2.0 * self.n)
        return np.log(np.array([self.m / self.n, light, light])), self.branch_rates()

    def transition(self, state: tuple[int, int], next_state: tuple[int, int]) -> float:
        a, c = state
        b, d = next_state
        post = self.posterior(a, c)
        total = 0.0
        for k, (r1, r2) in enumerate(self.branch_rates()):
            total += post[k] * math.exp(
                log_poisson_pmf(np.float64(b), r1) + log_poisson_pmf(np.float64(d), r2)
            )
        return float(total)

    def step(self, state, rng: RngStream):
        """One walk step from pair state(s) ``(a, c)``: posterior branch, fresh Poissons.

        ``a`` and ``c`` may be broadcastable arrays of counts; a scalar
        pair in gives a pair of ints out.
        """
        b, d = self._draw(state, rng)
        return (int(b), int(d)) if np.ndim(b) == 0 else (b, d)

    def initial_distributions(self) -> dict[str, np.ndarray]:
        return dict(zip(("heavy", "light-plus", "light-minus"), self._branch_pmfs()))


def _check_rows(post: np.ndarray, branch: np.ndarray) -> None:
    """Row sums of ``post @ branch`` within ``ROW_SUM_TOL`` of 1, in O(S r)."""
    sums = post @ branch.sum(axis=1)
    if np.any(sums < 1.0 - ROW_SUM_TOL):
        raise TruncationError(
            f"truncated kernel loses mass: min row sum {sums.min():.3e}"
        )
    if np.any(sums > 1.0 + ROW_SUM_TOL):
        raise TruncationError("kernel row sums exceed 1")


def _check_mass(pi: np.ndarray) -> np.ndarray:
    """``pi`` itself, once its mass is within ``ROW_SUM_TOL`` of 1."""
    if pi.sum() < 1.0 - ROW_SUM_TOL:
        raise TruncationError(f"stationary mass {pi.sum()} below tolerance")
    return pi


@dataclass
class MixingReport:
    """l1-to-stationary curve, mixing time, and spectral-gap estimate."""

    delta: float
    tau_delta: int
    gap_estimate: float
    tv_curve: list[tuple[int, float]]
    initial: str


def _curve_tau(curve: Sequence[float], delta: float) -> int:
    # Definition requires the distance to stay below delta forever after.
    tau = len(curve)
    for t in range(len(curve) - 1, -1, -1):
        if curve[t] >= delta:
            return t + 1
        tau = t
    return tau


# Point-mass rows of P^t are formed this many at a time, so a report
# holds O(_ROW_BLOCK * S) floats however large the truncation.
_ROW_BLOCK = 256


def _extreme_rows(post: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows of ``post`` that are vertices of their convex hull.

    The rows are probability vectors, so with r = 2 columns they lie on
    a segment whose ends are the rows with the smallest and largest
    column 1. With r = 3 they lie on the simplex, which columns 1-2
    project one-to-one onto the plane, and Andrew's monotone chain
    (Inf. Proc. Letters 1979) runs over the projected rows. It pops on
    ``cross <= 0``, so a repeated row or one on a hull edge, a convex
    combination of other rows, is dropped. With more columns every row
    is kept.
    """
    rows, r = post.shape
    if r == 2:
        return np.unique([post[:, 1].argmin(), post[:, 1].argmax()])
    if r != 3 or rows < 3:
        return np.arange(rows)
    order = np.lexsort((post[:, 2], post[:, 1]))
    xs, ys = post[order, 1].tolist(), post[order, 2].tolist()
    hull = []
    for sweep in (range(rows), range(rows - 1, -1, -1)):  # lower, then upper half
        half = []
        for i in sweep:
            x, y = xs[i], ys[i]
            while len(half) >= 2:
                o, a = half[-2], half[-1]
                if (xs[a] - xs[o]) * (y - ys[o]) - (ys[a] - ys[o]) * (x - xs[o]) > 0:
                    break
                half.pop()
            half.append(i)
        hull.extend(half[:-1])  # each half ends where the other starts
    return np.sort(order[hull])


def _max_row_l1(post: np.ndarray, points: np.ndarray, pi: np.ndarray) -> float:
    """``max_i sum_j |(post @ points)[i, j] - pi[j]|``, one row block at a time."""
    worst = 0.0
    block = np.empty((min(_ROW_BLOCK, post.shape[0]), pi.size))
    for lo in range(0, post.shape[0], _ROW_BLOCK):
        rows = block[: min(_ROW_BLOCK, post.shape[0] - lo)]
        np.matmul(post[lo : lo + _ROW_BLOCK], points, out=rows)
        rows -= pi
        worst = max(worst, float(np.abs(rows, out=rows).sum(axis=1).max()))
    return worst


def estimate_mixing(
    kernel,
    delta: float,
    *,
    initial: str = "all",
    max_steps: int = 64,
) -> MixingReport:
    """Exact l1 mixing curve and spectral gap of the truncated kernel.

    ``initial`` selects the starting family: ``"poisson"`` for the
    kernel's admissible mixture components, ``"point"`` for the worst
    point mass within the truncation, ``"all"`` for both.

    The kernel enters through ``kernel.factors()``, which gives
    ``P = post @ branch``, and ``kernel.stationary_vector()``; both
    truncate at ``kernel.a_max``. ``P`` itself is never formed. The
    rows of ``branch`` are the Poisson starts, and a start advances as
    ``(dist @ post) @ branch``, O(S r) per step. The point-mass rows
    of ``P^t`` are ``post @ M_t`` with the r x S iterates
    ``M_1 = branch``, ``M_{t+1} = (M_t @ post) @ branch``.
    Their largest l1 distance is taken over the rows of ``post`` that
    are vertices of the rows' convex hull, found once per report: the
    distance is convex in the row, so a convex combination of rows is
    never farther than the farthest of them (Rockafellar, *Convex
    Analysis*, Cor. 32.3.2). Where ``post`` has more than 3 columns
    every row is kept. The gap comes from the eigenvalues of the r x r
    branch chain ``branch @ post``, which are the nonzero eigenvalues
    of ``P``.
    """
    if initial not in ("all", "poisson", "point"):
        raise ValueError("initial must be 'all', 'poisson' or 'point'")
    post, branch = kernel.factors()
    _check_rows(post, branch)
    pi = kernel.stationary_vector()

    dists = branch if initial in ("all", "poisson") else branch[:0]
    use_points = initial in ("all", "point")
    vertices = post[_extreme_rows(post)] if use_points else None

    points = None  # M_t; None stands for P^0 = I
    curve: list[float] = []
    for _ in range(max_steps + 1):
        worst = 0.0
        if dists.size:
            worst = max(worst, float(np.abs(dists - pi).sum(axis=1).max()))
        if use_points and points is None:
            # sum_j |e_i(j) - pi(j)| = 1 - 2 pi(i) + sum(pi)
            worst = max(worst, float(1.0 - 2.0 * pi.min() + pi.sum()))
        elif use_points:
            worst = max(worst, _max_row_l1(vertices, points, pi))
        curve.append(worst)
        if worst < delta / 10.0 and len(curve) > 1:
            break
        dists = (dists @ post) @ branch
        points = branch if points is None else (points @ post) @ branch
    if curve[-1] >= delta:
        raise RuntimeError(
            f"walk did not mix below delta={delta} within {max_steps} steps "
            f"(final distance {curve[-1]:.3g}); raise max_steps"
        )

    eigenvalues = np.sort(np.abs(np.linalg.eigvals(branch @ post)))[::-1]
    lambda_star = float(eigenvalues[1]) if eigenvalues.size > 1 else 0.0
    return MixingReport(
        delta=delta,
        tau_delta=_curve_tau(curve, delta),
        gap_estimate=1.0 - lambda_star,
        tv_curve=list(enumerate(curve)),
        initial=initial,
    )


def product_walk_tau(
    matrices: Sequence[np.ndarray],
    stationaries: Sequence[np.ndarray],
    delta: float,
    max_steps: int = 64,
) -> int:
    """Mixing time of a product walk by exact tensor-product powers.

    Worst case over all product point-mass initial states; intended for
    small per-coordinate truncations.
    """
    powers = [np.eye(m.shape[0]) for m in matrices]
    pi_full = stationaries[0]
    for pi in stationaries[1:]:
        pi_full = np.kron(pi_full, pi)
    curve = []
    for _ in range(max_steps + 1):
        full = powers[0]
        for p in powers[1:]:
            full = np.kron(full, p)
        curve.append(float(np.abs(full - pi_full).sum(axis=1).max()))
        if curve[-1] < delta / 10.0 and len(curve) > 1:
            break
        powers = [p @ m for p, m in zip(powers, matrices)]
    return _curve_tau(curve, delta)
