"""Verdict type, threshold law and accept rule of all testers; their constant and budget checks.

Every tester accepts iff its statistic is at most a threshold drawn
uniformly from its internal randomness (:func:`uniform_threshold`,
:func:`decide`): the randomized threshold of Impagliazzo, Lei, Pitassi
& Sorrell (STOC 2022). The 1D testers draw it in the middle half of the
gap between their ceiling and floor (:func:`gap_verdict`); each
independence stage draws a multiple of its scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .rng import RngStream


class CalibrationError(ValueError):
    """Raised when configured constants leave no valid threshold gap."""


def _require_finite(config: object, *fields: str) -> None:
    """Refuse a nan or infinite constant of a tester config, naming its field."""
    for name in fields:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")


def _sample_budget(epsilon: float, rho: float, m_scale: float, budget: Callable[[], float]) -> int:
    """``ceil(budget())``, a tester's sample budget, after the checks every tester shares.

    ``epsilon`` and ``rho`` must lie in (0, 1) and ``m_scale`` must be
    positive before ``budget`` is called; a budget that is not finite or
    exceeds ``2**62`` raises ``OverflowError``.
    """
    if not (0 < epsilon < 1 and 0 < rho < 1):
        raise ValueError("epsilon and rho must lie in (0, 1)")
    if m_scale <= 0:
        raise ValueError("m_scale must be positive")
    m = budget()
    if not math.isfinite(m) or m > 2**62:
        raise OverflowError("sample size overflows for these parameters")
    return math.ceil(m)


@dataclass(frozen=True)
class TesterVerdict:
    accept: bool
    statistic: float
    threshold: float
    # False when the threshold gap was empty at the configured sample
    # size (deliberately under-sampled runs); the verdict is still the
    # tester's honest output against the degenerate threshold.
    calibrated: bool = True
    detail: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return "accept" if self.accept else "reject"


def uniform_threshold(rng: RngStream, low: float, high: float, scale: float) -> float:
    """The threshold ``U(low, high) scale``, one uniform draw of ``rng``'s generator."""
    return rng.generator().uniform(low, high) * scale


def decide(z: float, r: float, detail: dict, calibrated: bool = True) -> TesterVerdict:
    """The verdict on statistic ``z`` at threshold ``r``: accept iff ``z <= r``."""
    return TesterVerdict(z <= r, float(z), float(r), calibrated, detail)


def draw_gap_threshold(ceiling: float, floor: float, rng: RngStream) -> tuple[float, bool]:
    """Threshold ``r = ceiling + r0 (floor - ceiling)`` with ``r0 ~ U(1/4, 3/4)``.

    The middle half of the gap between the completeness ceiling and the
    soundness floor. An empty gap (an under-sampled run) draws nothing
    and returns ``(ceiling, False)``.
    """
    if floor <= ceiling:
        return ceiling, False
    r = ceiling + uniform_threshold(rng, 0.25, 0.75, floor - ceiling)
    if not ceiling < r < floor:
        raise AssertionError("threshold escaped the calibrated gap")
    return r, True


def gap_verdict(
    z: float, ceiling: float, floor: float, internal: RngStream, detail: dict
) -> TesterVerdict:
    """Accept iff ``z <= r``, with ``r`` drawn from ``internal.substream("threshold")``."""
    r, calibrated = draw_gap_threshold(ceiling, floor, internal.substream("threshold"))
    return decide(z, r, detail, calibrated)
