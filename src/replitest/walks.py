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

Mixing reports read a kernel only through ``factors() -> (Post, B, pi)``,
and never form ``P``. One pass over the truncated grid evaluates each
(branch, coordinate) log-pmf once; from those values come the rows of
``B``, which are also the Poisson starts, and one log-sum-exp over the
branch axis gives both ``Post`` and the stationary law ``pi``. Since
``P^t = Post (B Post)^{t-1} B``, the l1 curves advance through r x S
factors and the nonzero spectrum of ``P`` is the spectrum of the r x r
branch chain ``B Post`` (the data-augmentation duality of Liu, Wong &
Kong, Biometrika 1994). The worst point-mass start is searched only
over hull vertices of the rows of ``Post``: row i of ``P^t`` is
``Post[i] M_t``, its l1 distance to ``pi`` is convex in the row
``Post[i]``, and a convex function attains its maximum over a polytope
at a vertex (Rockafellar, *Convex Analysis*, Cor. 32.3.2). The hull is
taken over the rows snapped to a 2^-46 grid, one row per grid point;
the distance is also 1-Lipschitz in l1, since the rows of ``M_t`` sum
to at most 1, so the curve is exact to within 2^-44 (about 5.7e-14).
The pair walk's 1,936 rows leave 2 vertices at xi = 0 and 22 at
xi = 0.1 and 0.2. A product of walks, one per coordinate, factors
through the Kronecker products of its kernels' factors, so
``product_walk_tau`` is ``estimate_mixing`` on that product. The dense
``transition_matrix`` remains for exactness checks.

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


class NotMixedError(RuntimeError):
    """Raised when a walk is still at or above ``delta`` after ``max_steps`` steps."""

    def __init__(self, delta: float, max_steps: int, final_distance: float) -> None:
        super().__init__(delta, max_steps, final_distance)
        self.delta, self.max_steps, self.final_distance = delta, max_steps, final_distance

    def __str__(self) -> str:
        return (f"walk did not mix below delta={self.delta} within {self.max_steps} steps "
                f"(final distance {self.final_distance:.3g}); raise max_steps")


def log_poisson_pmf(k, rate: float) -> np.ndarray:
    k = np.asarray(k, dtype=np.float64)
    if rate == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    # log(k!) once per distinct state; kernels repeat few counts many times.
    states = np.sort(k, axis=None)
    distinct = np.ones(states.size, dtype=bool)
    distinct[1:] = states[1:] != states[:-1]
    states = states[distinct]
    log_factorial = np.array([math.lgamma(s + 1.0) for s in states.tolist()])
    return -rate + k * math.log(rate) - log_factorial[np.searchsorted(states, k)]


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """``log(sum(exp(a)))`` over ``axis``, shifted by the maximum.

    A slice of all ``-inf`` gives ``-inf`` without a warning.
    """
    a = np.asarray(a, dtype=np.float64)
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - top).sum(axis=axis, keepdims=True)) + top
    return out if keepdims else np.squeeze(out, axis=axis)


def _default_a_max(rate: float) -> int:
    # Poisson mass beyond 12 standard deviations is < 1e-30.
    return math.ceil(rate + 12.0 * math.sqrt(max(rate, 1.0)) + 30.0)


class _BranchMixture:
    """Two-block Gibbs sampler on the counts of one bucket (Liu, Wong & Kong, 1994).

    A kernel declares ``_branches() -> (log_weights, rates)``, with
    ``rates[k]`` holding branch k's Poisson rate for each coordinate,
    and ``initial_distributions()``, which names the rows of the branch
    factor ``factors()[1]``.
    """

    def __post_init__(self) -> None:
        if self.a_max < -1:
            raise ValueError(f"a_max must be >= 0, or -1 for the default, not {self.a_max}")
        if self.a_max == -1:
            top = max(r for rates in self._branches()[1] for r in rates)
            object.__setattr__(self, "a_max", _default_a_max(top))

    def _log_pmfs(self, *counts):
        """Per branch k: ``log w_k`` and ``log Poi(counts[i]; rates[k][i])`` for each i.

        The counts broadcast, so a grid passes as open axes and each pmf
        is evaluated once per axis.
        """
        counts = [np.asarray(c, dtype=np.float64) for c in counts]
        for log_weight, rates in zip(*self._branches()):
            yield log_weight, [log_poisson_pmf(c, rate) for c, rate in zip(counts, rates)]

    def _log_joint(self, *counts) -> np.ndarray:
        """``log(w_k * prod_i Poi(counts[i]; rates[k][i]))`` stacked over branches k."""
        return np.stack([reduce(np.add, logs, log_weight)
                         for log_weight, logs in self._log_pmfs(*counts)], axis=-1)

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

    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(post, branch, pi)`` with ``post @ branch`` the truncated kernel.

        One pass over the grid evaluates each (branch, coordinate)
        log-pmf once. Branch k's start, row k of ``branch``, is the
        outer product of its pmfs over the flattened grid. The log-joint
        of each branch is stacked branch-major, and one log-sum-exp over
        the branch axis gives the (#states, r) posterior ``post`` and the
        truncated stationary law ``pi``. Nothing is cached: each call
        evaluates the grid again, and ``pi``'s mass is not checked.
        """
        starts, terms = [], []
        for log_weight, logs in self._log_pmfs(*self._grid()):
            starts.append(reduce(np.multiply, map(np.exp, logs)).reshape(-1))
            terms.append(reduce(np.add, logs, log_weight).reshape(-1))
        terms = np.stack(terms)
        lse = logsumexp(terms, axis=0, keepdims=True)
        post = np.ascontiguousarray(np.exp(terms - lse).T)
        return post, np.stack(starts), np.exp(lse[0])

    def transition_matrix(self) -> np.ndarray:
        post, branch, _ = self.factors()
        _check_rows(post, branch)
        return post @ branch

    def stationary_vector(self) -> np.ndarray:
        return _check_mass(self.factors()[2])

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
        return dict(zip(("poisson-heavy", "poisson-light"), self.factors()[1]))


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
        # the heavy rate 1 - eps and the light rates m(2 eps +/- xi)/(2(n-m))
        # must not be negative
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), not {self.epsilon}")
        if not 0 <= self.xi <= 2 * self.epsilon:
            raise ValueError(f"xi must lie in [0, 2*epsilon = {2 * self.epsilon}], not {self.xi}")
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
        return dict(zip(("heavy", "light-plus", "light-minus"), self.factors()[1]))


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
    """Sorted indices of rows of ``post`` whose convex hull is within 2^-44 in l1 of every row.

    The rows are probability vectors, so with r = 2 columns they lie on
    a segment whose ends are the rows with the smallest and largest
    column 1. With r = 3 they lie on the simplex, which columns 1-2
    project one-to-one onto the plane. Those columns are snapped to
    integers on a 2^-46 grid, one row is kept per distinct grid point,
    and Andrew's monotone chain (Inf. Proc. Letters 1979) runs over the
    kept points in exact integer arithmetic. It pops on ``cross <= 0``,
    so a point on a hull edge, a convex combination of others, is
    dropped. A row lies within 2^-47 of its grid point in each of the
    two columns, so within 2^-45 in l1 over all three, and every grid
    point lies in the hull of the returned rows' grid points. With more
    columns every row is kept.
    """
    rows, r = post.shape
    if r == 2:
        return np.unique([post[:, 1].argmin(), post[:, 1].argmax()])
    if r != 3:
        return np.arange(rows)
    grid = np.rint(post[:, 1:3] * 2.0**46).astype(np.int64)
    order = np.lexsort((grid[:, 1], grid[:, 0]))
    grid = grid[order]
    distinct = np.ones(rows, dtype=bool)
    distinct[1:] = np.any(grid[1:] != grid[:-1], axis=1)
    order, grid = order[distinct], grid[distinct]
    if order.size < 3:  # one or two grid points: each is a vertex
        return np.sort(order)
    xs, ys = grid[:, 0].tolist(), grid[:, 1].tolist()
    hull = []
    points = order.size
    for sweep in (range(points), range(points - 1, -1, -1)):  # lower, then upper half
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

    The kernel enters only through ``kernel.factors()``, one pass over
    its grid truncated at ``kernel.a_max``, which gives
    ``P = post @ branch`` and the stationary law ``pi``; ``delta`` must
    be finite and positive. ``P`` itself is never formed: for t >= 1,
    ``P^t = post @ M_t`` with the r x S iterates ``M_1 = branch``,
    ``M_{t+1} = (M_t @ post) @ branch``, so every start's row of
    ``P^t`` is a coefficient row times ``M_t``. A Poisson start, a row
    of ``branch``, has its row of the r x r branch chain
    ``chain = branch @ post``. A point mass has its row of ``post``,
    kept only among the rows ``_extreme_rows`` returns, the hull
    vertices of the rows snapped to a 2^-46 grid: the distance is
    convex in the row, so a convex combination of rows is never farther
    than the farthest of them (Rockafellar, *Convex Analysis*,
    Cor. 32.3.2), and it moves by at most a row's l1 shift, so snapping
    costs at most 2^-44 (about 5.7e-14). Where ``post`` has more than 3
    columns every row is kept. One ``_max_row_l1`` call per step scores
    the stacked rows, and the eigenvalues of ``chain``, the nonzero
    eigenvalues of ``P``, give the gap. A truncation that loses mass
    raises ``TruncationError``, and a walk still at or above ``delta``
    after ``max_steps`` steps raises ``NotMixedError``.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be > 0 and finite, not {delta}")
    if initial not in ("all", "poisson", "point"):
        raise ValueError("initial must be 'all', 'poisson' or 'point'")
    post, branch, pi = kernel.factors()
    _check_rows(post, branch)
    _check_mass(pi)

    chain = branch @ post
    rows = []
    start = 0.0  # the distance at t = 0, where P^0 = I
    if initial in ("all", "poisson"):
        rows.append(chain)
        start = float(np.abs(branch - pi).sum(axis=1).max())
    if initial in ("all", "point"):
        rows.append(post[_extreme_rows(post)])
        # sum_j |e_i(j) - pi(j)| = 1 - 2 pi(i) + sum(pi)
        start = max(start, float(1.0 - 2.0 * pi.min() + pi.sum()))
    coeffs = np.concatenate(rows)

    points = branch  # M_t
    curve = [start]
    for _ in range(max_steps):
        curve.append(_max_row_l1(coeffs, points, pi))
        if curve[-1] < delta / 10.0:
            break
        points = (points @ post) @ branch
    if curve[-1] >= delta:
        raise NotMixedError(delta, max_steps, curve[-1])

    eigenvalues = np.sort(np.abs(np.linalg.eigvals(chain)))[::-1]
    lambda_star = float(eigenvalues[1]) if eigenvalues.size > 1 else 0.0
    return MixingReport(
        delta=delta,
        tau_delta=_curve_tau(curve, delta),
        gap_estimate=1.0 - lambda_star,
        tv_curve=list(enumerate(curve)),
        initial=initial,
    )


class _ProductWalk:
    """The product walk, whose coordinates step at once, each by its own kernel.

    By the mixed-product rule ``(A (x) C)(B (x) D) = AB (x) CD``, the
    Kronecker products of the kernels' ``(post, branch, pi)`` factor the
    product kernel ``P_1 (x) P_2 (x) ...`` (Levin, Peres & Wilmer,
    *Markov Chains and Mixing Times*, ch. 20), so ``estimate_mixing``
    reads it as one more factored kernel. It is a plain class, not a
    dataclass: every command and benchmark workload imports this module,
    and generating a dataclass's methods adds about 1 ms to that import.
    """

    def __init__(self, kernels: Sequence) -> None:
        self.kernels = tuple(kernels)

    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(reduce(np.kron, parts) for parts in zip(*(k.factors() for k in self.kernels)))


def product_walk_tau(kernels: Sequence, delta: float, max_steps: int = 64) -> int:
    """Mixing time of the product of the walks of ``kernels``.

    The worst case over all product point-mass starts, from
    ``estimate_mixing`` on the Kronecker-factored product kernel
    (``_ProductWalk``). It raises as ``estimate_mixing`` does when the
    product's truncation loses mass or the walk does not mix within
    ``max_steps``. With more than 3 branch columns in all, every product
    state's row is scored, so the curve is exact.
    """
    return estimate_mixing(_ProductWalk(kernels), delta, initial="point",
                           max_steps=max_steps).tau_delta
