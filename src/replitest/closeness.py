"""Replicable closeness tester for distributions on ``[n]``.

The tester draws four sample batches whose sizes come from an even
multinomial split of ``4m``, computes the signed coincidence statistic

    Z = sum_i |X_i - Y_i| + |X'_i - Y'_i| - |X_i - X'_i| - |Y_i - Y'_i|,

and accepts iff ``Z <= r`` for a threshold ``r`` drawn uniformly from
the middle half of the gap between the completeness ceiling
``C1 * sqrt(m)`` and the soundness floor ``R``. Because Z concentrates
in an interval much narrower than the gap, two runs on fresh samples
but a shared internal string rarely straddle the same threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibrated import CLOSENESS_DESK
from .measures import NonNegativeMeasure
from .rng import RngStream
from .sampling import IndexSampler, counts_from_indices, measure_sampler, multinomial_split
from .verdict import CalibrationError, TesterVerdict, _require_finite, _sample_budget, gap_verdict


def closeness_sample_size(n: int, epsilon: float, rho: float, m_scale: float = 1.0) -> int:
    """Per-batch sample budget ``m`` for the closeness tester.

    ``m = ceil(m_scale * (n^{2/3} rho^{-2/3} eps^{-4/3}
                + sqrt(n) eps^{-2} rho^{-1} + rho^{-2} eps^{-2}))``
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _sample_budget(epsilon, rho, m_scale, lambda: m_scale * (
        n ** (2.0 / 3.0) * rho ** (-2.0 / 3.0) * epsilon ** (-4.0 / 3.0)
        + math.sqrt(n) * epsilon**-2 * rho**-1
        + rho**-2 * epsilon**-2))


def soundness_floor(m: int, n: int, epsilon: float, c2: float) -> float:
    """Far-case statistic floor ``R = C2 * min(eps m, m^2 eps^2 / n, m^{3/2} eps^2 / sqrt(n))``."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return c2 * min(
        epsilon * m,
        m**2 * epsilon**2 / n,
        m**1.5 * epsilon**2 / math.sqrt(n),
    )


def closeness_statistic(x, x_prime, y, y_prime) -> int:
    """The four-batch statistic ``Z``; exact integer."""
    arrays = [np.asarray(a, dtype=np.int64) for a in (x, x_prime, y, y_prime)]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("count vectors must have equal length")
    x, x_prime, y, y_prime = arrays
    z = (
        np.abs(x - y)
        + np.abs(x_prime - y_prime)
        - np.abs(x - x_prime)
        - np.abs(y - y_prime)
    )
    return int(z.sum())


@dataclass(frozen=True)
class ClosenessConfig:
    """Parameters of the closeness tester.

    ``epsilon`` is measured in unhalved l1 (twice the total variation
    distance): the soundness case is ``||p - q||_1 >= epsilon``.
    ``epsilon`` and ``rho`` are nominally in (0, 1/4); the desk-scale
    experiments also run slightly above that range, so only (0, 1) is
    enforced. Construction verifies the gap condition
    ``R >= 8 * C1 * sqrt(m)`` at the configured sample size.
    """

    n: int
    epsilon: float
    rho: float
    c1: float = CLOSENESS_DESK["c1"]
    c2: float = CLOSENESS_DESK["c2"]
    m_scale: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, "c1", "c2")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("C1 and C2 must be positive")
        m = self.sample_size()
        floor = soundness_floor(m, self.n, self.epsilon, self.c2)
        if floor < 8.0 * self.c1 * math.sqrt(m):
            # A larger C2 would also close the gap, but it lifts the floor
            # above the mean statistic of epsilon-far pairs.
            raise CalibrationError(
                f"R = {floor:.3g} < 8*C1*sqrt(m) = {8 * self.c1 * math.sqrt(m):.3g} "
                f"at m = {m}; raise m_scale or lower C1 (R / sqrt(m) grows with m)"
            )

    def sample_size(self) -> int:
        return closeness_sample_size(self.n, self.epsilon, self.rho, self.m_scale)


def _sampler(source: IndexSampler | NonNegativeMeasure, n: int) -> IndexSampler:
    """``source`` itself, or the sampler of a measure that lives on ``[n]``."""
    if not isinstance(source, NonNegativeMeasure):
        return source
    return measure_sampler(source.on((n,)))


def draw_closeness_counts(
    source_p: IndexSampler | NonNegativeMeasure,
    source_q: IndexSampler | NonNegativeMeasure,
    sizes: np.ndarray,
    n: int,
    sample_rng: RngStream,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four count vectors ``(X, X', Y, Y')`` of batch sizes ``sizes``.

    The two batches from ``p`` come in order from the ``sample-1``
    substream of ``sample_rng``, the two from ``q`` from ``sample-2``.
    A measure must live on ``[n]``.
    """
    sampler_p, sampler_q = _sampler(source_p, n), _sampler(source_q, n)
    gen_p = sample_rng.substream("sample-1").generator()
    gen_q = sample_rng.substream("sample-2").generator()
    return (
        counts_from_indices(sampler_p(int(sizes[0]), gen_p), n),
        counts_from_indices(sampler_p(int(sizes[1]), gen_p), n),
        counts_from_indices(sampler_q(int(sizes[2]), gen_q), n),
        counts_from_indices(sampler_q(int(sizes[3]), gen_q), n),
    )


def rep_closeness_test(
    sampler_p: IndexSampler | NonNegativeMeasure,
    sampler_q: IndexSampler | NonNegativeMeasure,
    config: ClosenessConfig,
    rng: RngStream,
    *,
    sample_rng: RngStream | None = None,
) -> TesterVerdict:
    """One full run: split, sample, statistic, random threshold, verdict.

    The multinomial split and the threshold are drawn from ``rng``'s
    internal lineage; the four sample batches come from ``sample_rng``
    (default ``rng.substream("samples")``). Passing the same ``rng``
    with fresh ``sample_rng`` values reruns the tester with shared
    internal randomness, which is the pairing used to measure
    replicability. A measure must live on the configured ``[n]``.
    """
    if sample_rng is None:
        sample_rng = rng.substream("samples")

    m = config.sample_size()
    internal = rng.substream("internal")
    sizes = multinomial_split(4 * m, 4, internal.substream("split"))
    z = closeness_statistic(
        *draw_closeness_counts(sampler_p, sampler_q, sizes, config.n, sample_rng)
    )
    floor = soundness_floor(m, config.n, config.epsilon, config.c2)
    detail = {"m": m, "split": sizes.tolist(), "floor": floor}
    return gap_verdict(z, config.c1 * math.sqrt(m), floor, internal, detail)
