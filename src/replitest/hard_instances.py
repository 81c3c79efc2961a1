"""Generators for the lower-bound meta-distributions.

Uniformity side: a measure family indexed by a perturbation size xi,
where every bucket independently gets mass ``(1+xi)/n`` or ``(1-xi)/n``
with probability 1/2 each. Closeness side: pairs of measures where a
bucket is either "heavy" (equal mass on both sides) or "light" with a
signed imbalance of xi. In both, xi = 0 yields an instance satisfying
the tested property and xi = eps yields a far instance; the full
meta-distribution draws xi uniformly from [0, eps] first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .measures import NonNegativeMeasure, measure_1d
from .rng import RngStream


@dataclass(frozen=True)
class UniformityHardParams:
    """Perturbation family parameters; nominal regime is epsilon < 1/4,
    but the construction stays valid (masses positive) up to 1."""

    n: int
    epsilon: float
    xi: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 <= self.xi <= self.epsilon:
            raise ValueError("xi must lie in [0, epsilon]")


@dataclass(frozen=True)
class ClosenessHardParams:
    """Pair-family parameters; nominal regime is epsilon < 1/4, but the
    construction stays valid (masses non-negative) up to 1."""

    n: int
    m: int
    epsilon: float
    xi: float

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if not self.m < self.n / 2:
            raise ValueError("construction requires the sublinear regime m < n/2")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 <= self.xi <= self.epsilon:
            raise ValueError("xi must lie in [0, epsilon]")


def draw_uniformity_hard(params: UniformityHardParams, rng: RngStream) -> NonNegativeMeasure:
    """One measure with i.i.d. per-bucket masses ``(1 +/- xi)/n``."""
    gen = rng.generator()
    signs = gen.integers(0, 2, size=params.n) * 2 - 1
    return measure_1d((1.0 + params.xi * signs) / params.n)


def draw_meta_uniformity(
    n: int, epsilon: float, rng: RngStream
) -> tuple[float, NonNegativeMeasure]:
    """Draw ``xi ~ U([0, eps])``, then an instance at that xi."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    gen = rng.generator()
    xi = float(gen.uniform(0.0, epsilon)) if epsilon > 0 else 0.0
    # Degenerate epsilon is allowed here so experiments can pin xi = 0.
    params = UniformityHardParams(n, max(epsilon, np.finfo(float).tiny), xi)
    return xi, draw_uniformity_hard(params, rng.substream("instance"))


def draw_closeness_hard(
    params: ClosenessHardParams, rng: RngStream
) -> tuple[NonNegativeMeasure, NonNegativeMeasure]:
    """One measure pair from the three-branch per-bucket mixture.

    Per bucket, independently:
      heavy   (w.p. m/n):        both masses ``(1-eps)/m``
      light + (w.p. (n-m)/2n):   ``((2eps+xi)/(2(n-m)), (2eps-xi)/(2(n-m)))``
      light - (w.p. (n-m)/2n):   the swapped light pair
    """
    n, m, eps, xi = params.n, params.m, params.epsilon, params.xi
    gen = rng.generator()
    heavy_mass = (1.0 - eps) / m
    light_hi = (2.0 * eps + xi) / (2.0 * (n - m))
    light_lo = (2.0 * eps - xi) / (2.0 * (n - m))

    u = gen.random(n)
    heavy = u < m / n
    plus = (~heavy) & (u < m / n + (n - m) / (2.0 * n))

    p = np.where(heavy, heavy_mass, np.where(plus, light_hi, light_lo))
    q = np.where(heavy, heavy_mass, np.where(plus, light_lo, light_hi))
    return measure_1d(p), measure_1d(q)


def draw_meta_closeness(
    n: int, m: int, epsilon: float, rng: RngStream
) -> tuple[float, NonNegativeMeasure, NonNegativeMeasure]:
    """Draw ``xi ~ U([0, eps])``, then a measure pair at that xi."""
    gen = rng.generator()
    xi = float(gen.uniform(0.0, epsilon)) if epsilon > 0 else 0.0
    params = ClosenessHardParams(n, m, epsilon, xi)
    p, q = draw_closeness_hard(params, rng.substream("instance"))
    return xi, p, q


def instance_to_json(params, measures) -> str:
    """Serialize an instance (params + one or more measures) for reruns."""
    payload = {
        "params": {k: getattr(params, k) for k in params.__dataclass_fields__},
        "measures": [m.to_dict() for m in measures],
    }
    return json.dumps(payload)
