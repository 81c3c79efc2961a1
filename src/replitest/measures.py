"""Non-negative measures over finite domains.

Measures are the native objects of the Poissonized sampling model: a
masses vector that need not sum to one. 1D domains are ``[n]``; 2D
domains are ``[n1] x [n2]`` stored row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NonNegativeMeasure:
    """Masses over ``[n]`` or ``[n1] x [n2]`` (row-major flat storage).

    The masses are a read-only copy of the array given, so what is built
    from them once, such as the index sampler that
    ``sampling.measure_sampler`` keeps on the measure, never goes stale.
    """

    masses: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        masses = np.array(self.masses, dtype=float)
        if masses.ndim != 1:
            raise ValueError("masses must be stored flat (row-major)")
        if masses.size != int(np.prod(self.shape)):
            raise ValueError(f"masses length {masses.size} != prod{self.shape}")
        if not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite")
        if np.any(masses < 0):
            raise ValueError("masses must be non-negative")
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    def __reduce__(self):
        # Rebuilt from masses and shape: the copy is read-only again, and
        # a kept sampler, a closure, is not pickled.
        return type(self), (self.masses, self.shape)

    @property
    def size(self) -> int:
        return self.masses.size

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def on(self, shape: tuple[int, ...]) -> "NonNegativeMeasure":
        """``self``, once it lives on the domain ``shape`` a tester is configured for."""
        if self.shape != shape:
            raise ValueError(f"measure shape {self.shape} != configured {shape}")
        return self

    def normalized(self) -> "NonNegativeMeasure":
        total = self.total_mass()
        if total <= 0:
            raise ValueError("cannot normalize a zero measure")
        return NonNegativeMeasure(self.masses / total, self.shape)

    def grid(self) -> np.ndarray:
        """Masses reshaped to ``self.shape`` (2D view for product domains)."""
        return self.masses.reshape(self.shape)

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column marginal masses of a 2D measure."""
        if self.ndim != 2:
            raise ValueError("marginals are defined for 2D measures only")
        g = self.grid()
        return g.sum(axis=1), g.sum(axis=0)

    def to_dict(self) -> dict:
        return {"shape": list(self.shape), "masses": self.masses.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "NonNegativeMeasure":
        return cls(np.asarray(data["masses"], dtype=float), tuple(data["shape"]))


def measure_1d(masses) -> NonNegativeMeasure:
    masses = np.asarray(masses, dtype=float)
    return NonNegativeMeasure(masses, (masses.size,))


def measure_2d(grid) -> NonNegativeMeasure:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ValueError("expected a 2D grid of masses")
    return NonNegativeMeasure(grid.reshape(-1), grid.shape)


def uniform_measure(n: int) -> NonNegativeMeasure:
    return measure_1d(np.full(n, 1.0 / n))


def zipf_measure(n: int, exponent: float = 1.0) -> NonNegativeMeasure:
    """Power-law distribution with mass proportional to ``rank**-exponent``."""
    masses = 1.0 / np.arange(1, n + 1, dtype=float) ** exponent
    return measure_1d(masses / masses.sum())


def half_flat_measure(n: int) -> NonNegativeMeasure:
    """Mass ``2/n`` on the first half of the buckets, zero on the rest.

    Total-variation distance to uniform over ``[n]`` is exactly 1/2,
    which makes it a convenient far instance for closeness tests.
    """
    if n % 2:
        raise ValueError("n must be even")
    masses = np.zeros(n)
    masses[: n // 2] = 2.0 / n
    return measure_1d(masses)


def uniform_product_measure(n1: int, n2: int) -> NonNegativeMeasure:
    return measure_2d(np.full((n1, n2), 1.0 / (n1 * n2)))


def diagonal_measure(n: int) -> NonNegativeMeasure:
    """Uniform on the diagonal of ``[n] x [n]``: maximally correlated."""
    grid = np.zeros((n, n))
    np.fill_diagonal(grid, 1.0 / n)
    return measure_2d(grid)

