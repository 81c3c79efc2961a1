"""Verdict type of all testers, and the gap threshold and gap verdict of the 1D testers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .rng import RngStream


class CalibrationError(ValueError):
    """Raised when configured constants leave no valid threshold gap."""


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


def draw_gap_threshold(ceiling: float, floor: float, rng: RngStream) -> tuple[float, bool]:
    """Threshold ``r = ceiling + r0 (floor - ceiling)`` with ``r0 ~ U(1/4, 3/4)``.

    This is the randomized threshold of Impagliazzo, Lei, Pitassi &
    Sorrell (STOC 2022) in the middle half of the gap between the
    completeness ceiling and the soundness floor. An empty gap (an
    under-sampled run) draws nothing and returns ``(ceiling, False)``.
    """
    if floor <= ceiling:
        return ceiling, False
    r = ceiling + rng.generator().uniform(0.25, 0.75) * (floor - ceiling)
    if not ceiling < r < floor:
        raise AssertionError("threshold escaped the calibrated gap")
    return r, True


def gap_verdict(
    z: float, ceiling: float, floor: float, internal: RngStream, detail: dict
) -> TesterVerdict:
    """Accept iff ``z <= r``, with ``r`` drawn from ``internal.substream("threshold")``."""
    r, calibrated = draw_gap_threshold(ceiling, floor, internal.substream("threshold"))
    return TesterVerdict(z <= r, float(z), float(r), calibrated, detail)
