"""Sampling primitives: Poissonized counts, multinomial splits, index samplers.

Count vectors are plain ``numpy`` integer arrays indexed by bucket;
for a pair of distributions on ``[n]`` the concatenated vector over
``[2n]`` carries the first distribution's counts in the first ``n``
entries.
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


def sample_counts_poissonized(p: NonNegativeMeasure, m: int, rng: RngStream) -> CountVector:
    """Draw ``T_i ~ Poi(m * p_i)`` independently per bucket.

    Equivalent to drawing ``Poi(m * ||p||_1)`` samples from ``p/||p||_1``
    and counting, which is why unnormalized measures are accepted.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    gen = rng.generator()
    return gen.poisson(m * p.masses).astype(np.int64)


def multinomial_split(total: int, k: int, rng: RngStream) -> np.ndarray:
    """Split ``total`` into ``k`` parts with equal cell probabilities."""
    if total < 0:
        raise ValueError("total must be non-negative")
    if k < 1:
        raise ValueError("k must be positive")
    gen = rng.generator()
    return gen.multinomial(total, np.full(k, 1.0 / k)).astype(np.int64)


def measure_sampler(p: NonNegativeMeasure) -> IndexSampler:
    """I.i.d. index sampler for the normalized version of ``p``.

    2D measures yield flat row-major cell indices.
    """
    probs = p.normalized().masses
    size = probs.size

    def draw(k: int, gen: np.random.Generator) -> np.ndarray:
        return gen.choice(size, size=k, p=probs)

    return draw


def counts_from_indices(indices: np.ndarray, domain_size: int) -> CountVector:
    return np.bincount(indices, minlength=domain_size).astype(np.int64)
