"""Sampling primitives: Poissonized counts, multinomial splits, index samplers.

Count vectors are plain ``numpy`` integer arrays indexed by bucket;
for a pair of distributions on ``[n]`` the concatenated vector over
``[2n]`` carries the first distribution's counts in the first ``n``
entries.

Index samplers of measures invert the cdf. The search for each uniform
starts from a guide table of power-of-two size (the indexed search of
Chen & Asau, 1974) instead of bisecting the whole cdf, and returns
exactly the indices and generator state of ``Generator.choice``. A
measure builds its sampler once and keeps it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .measures import NonNegativeMeasure
from .rng import RngStream

# Counts per bucket; non-negative integers, length = domain size.
CountVector = np.ndarray

# A sampler draws k i.i.d. bucket indices (flat, row-major for 2D domains).
IndexSampler = Callable[[int, np.random.Generator], np.ndarray]

# Forward steps from a guide entry before a draw falls back to bisection.
_GUIDE_STEPS = 4


def sample_counts_poissonized(p: NonNegativeMeasure, m: int, rng: RngStream) -> CountVector:
    """Draw ``T_i ~ Poi(m * p_i)`` independently per bucket.

    Equivalent to drawing ``Poi(m * ||p||_1)`` samples from ``p/||p||_1``
    and counting, which is why unnormalized measures are accepted.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    gen = rng.generator()
    return gen.poisson(m * p.masses).astype(np.int64, copy=False)


def multinomial_split(total: int, k: int, rng: RngStream) -> np.ndarray:
    """Split ``total`` into ``k`` parts with equal cell probabilities."""
    if total < 0:
        raise ValueError("total must be non-negative")
    if k < 1:
        raise ValueError("k must be positive")
    gen = rng.generator()
    return gen.multinomial(total, np.full(k, 1.0 / k)).astype(np.int64)


def _guide_buckets(size: int) -> int:
    """Guide table size of a sampler over ``size`` cells: ``max(P, min(4P, 2**16))``.

    ``P`` is the power of two at or above ``size``. Four buckets per
    cell leave few buckets holding a cell boundary, so most draws take
    no forward step; the cap keeps a large domain's table at ``P``
    entries, one bucket per cell.
    """
    cells = 1 << (size - 1).bit_length()
    return max(cells, min(4 * cells, 1 << 16))


def measure_sampler(p: NonNegativeMeasure) -> IndexSampler:
    """I.i.d. index sampler for the normalized version of ``p``.

    2D measures yield flat row-major cell indices. A draw returns, bit
    for bit, the indices of ``Generator.choice(p.size, size=k, p=probs)``
    and leaves the generator in the same state: both invert the same
    ``cdf`` at ``u = gen.random(k)``. The search starts from a guide table (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, section III.2.4),
    takes a few vectorized forward steps over the draws not yet placed,
    and bisects for any left after ``_GUIDE_STEPS``.

    The sampler is built on the first call for ``p`` and kept on ``p``,
    whose masses are read-only, so later calls return the same sampler.
    """
    sampler = vars(p).get("_sampler")
    if sampler is None:
        sampler = _build_sampler(p)
        object.__setattr__(p, "_sampler", sampler)
    return sampler


def _build_sampler(p: NonNegativeMeasure) -> IndexSampler:
    probs = p.normalized().masses
    # The cdf exactly as ``Generator.choice`` builds it.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    # ``guide[g]`` is the answer at ``u = g/B``, a lower bound for every u
    # in ``[g/B, (g+1)/B)``. B is a power of two, so ``u*B`` and ``g/B``
    # are exact and ``floor(u*B)`` never lands in a later bucket. That
    # answer counts the cdf values at or below g/B, which are those with
    # ``ceil(cdf*B) <= g``, since ``cdf*B`` is exact too.
    buckets = _guide_buckets(probs.size)
    guide = np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1)
    guide = guide[:buckets].cumsum()

    def draw(k: int, gen: np.random.Generator) -> np.ndarray:
        u = gen.random(k)
        j = guide[(u * buckets).astype(np.intp)]
        late = np.flatnonzero(cdf[j] <= u)
        for _ in range(_GUIDE_STEPS):
            if not late.size:
                return j
            j[late] += 1
            late = late[cdf[j[late]] <= u[late]]
        # Many tiny cells in one bucket: finish those draws by bisection.
        j[late] = cdf.searchsorted(u[late], side="right")
        return j

    return draw


def counts_from_indices(indices: np.ndarray, domain_size: int) -> CountVector:
    return np.bincount(indices, minlength=domain_size).astype(np.int64, copy=False)
