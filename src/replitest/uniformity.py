"""Replicable uniformity tester over ``[n]``.

Uses the centered collision statistic

    Z = sum_i ((T_i - m/n)^2 - T_i),

which has mean zero under the uniform distribution when counts are
Poissonized and mean ``m^2 ||p - u||_2^2`` in general. The verdict
compares Z to a threshold drawn uniformly from the middle half of the
gap between the completeness ceiling ``C1_u * m / sqrt(n)`` and the
soundness floor ``C2_u * m^2 eps^2 / n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibrated import UNIFORMITY_DESK
from .measures import NonNegativeMeasure
from .rng import RngStream
from .sampling import CountVector, IndexSampler, counts_from_indices, sample_counts_poissonized
from .verdict import TesterVerdict, _sample_budget, gap_verdict


def uniformity_sample_size(n: int, epsilon: float, rho: float, m_scale: float = 1.0) -> int:
    """``m = ceil(m_scale * (sqrt(n) eps^-2 rho^-1 + eps^-2 rho^-2))``."""
    if n < 1:
        raise ValueError("n must be positive")
    return _sample_budget(epsilon, rho, m_scale, lambda: m_scale * (
        math.sqrt(n) * epsilon**-2 * rho**-1 + epsilon**-2 * rho**-2))


def uniformity_statistic(counts: CountVector, m: int) -> float:
    """Centered collision statistic; label-invariant by construction."""
    counts = np.asarray(counts, dtype=np.float64)
    rate = m / counts.size
    return float(((counts - rate) ** 2 - counts).sum())


@dataclass(frozen=True)
class UniformityConfig:
    n: int
    epsilon: float
    rho: float
    c1_u: float = UNIFORMITY_DESK["c1_u"]
    c2_u: float = UNIFORMITY_DESK["c2_u"]
    m_scale: float = 1.0

    def __post_init__(self) -> None:
        self.sample_size()  # checks n, epsilon, rho and m_scale
        if self.c1_u < 0 or self.c2_u <= 0:
            raise ValueError("invalid calibration constants")

    def sample_size(self) -> int:
        return uniformity_sample_size(self.n, self.epsilon, self.rho, self.m_scale)

    def completeness_ceiling(self, m: int) -> float:
        return self.c1_u * m / math.sqrt(self.n)

    def soundness_floor(self, m: int) -> float:
        return self.c2_u * m**2 * self.epsilon**2 / self.n

    def is_calibrated(self, m: int | None = None) -> bool:
        m = self.sample_size() if m is None else m
        return self.soundness_floor(m) > self.completeness_ceiling(m)


class UniformityTester:
    """Poissonized uniformity tester with an inspectable decision path."""

    def __init__(self, config: UniformityConfig):
        self.config = config
        self.m = config.sample_size()

    def decide_counts(self, counts: CountVector, internal: RngStream) -> TesterVerdict:
        """Verdict on an externally supplied Poissonized count vector."""
        if np.asarray(counts).size != self.config.n:
            raise ValueError("count vector length must equal n")
        config, m = self.config, self.m
        return gap_verdict(
            uniformity_statistic(counts, m), config.completeness_ceiling(m),
            config.soundness_floor(m), internal, {"m": m},
        )

    def run(
        self,
        source: NonNegativeMeasure | IndexSampler,
        rng: RngStream,
        *,
        sample_rng: RngStream | None = None,
    ) -> TesterVerdict:
        if sample_rng is None:
            sample_rng = rng.substream("samples")
        counts = self._draw_counts(source, sample_rng)
        return self.decide_counts(counts, rng.substream("internal"))

    def _draw_counts(
        self, source: NonNegativeMeasure | IndexSampler, sample_rng: RngStream
    ) -> CountVector:
        if isinstance(source, NonNegativeMeasure):
            if source.shape != (self.config.n,):
                raise ValueError(f"measure shape {source.shape} != configured {(self.config.n,)}")
            return sample_counts_poissonized(source, self.m, sample_rng.substream("sample-1"))
        gen = sample_rng.substream("sample-1").generator()
        total = int(gen.poisson(self.m))
        return counts_from_indices(source(total, gen), self.config.n)


def rep_uniformity_test(
    source: NonNegativeMeasure | IndexSampler,
    config: UniformityConfig,
    rng: RngStream,
    *,
    sample_rng: RngStream | None = None,
) -> TesterVerdict:
    """One full run (Poissonized sampling); a measure must live on the configured ``[n]``."""
    return UniformityTester(config).run(source, rng, sample_rng=sample_rng)
