"""Randomized flattening: splitting heavy domain elements into sub-bins.

A random subset of the samples (the "flattening" samples, marked by a
binary vector F) act as dividers: under a random order, each kept
sample is tagged with the number of flattening samples of the same
element that precede it. Two kept samples collide only if they share
the element and the tag, so heavy elements are diluted into sub-bins
while distinct elements are never merged. The 2D flattening of the
independence tester (``independence._finish_runs``) tags the row and
column coordinates independently with :func:`subbin_indices` and keeps a
sample only if it was selected on neither axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream


@dataclass(frozen=True)
class FlattenAssignment:
    """Flattening selector ``F`` and sample order ``sigma``.

    ``sigma[l]`` is the position of sample ``l`` in the random order;
    it must be a permutation of ``range(len(F))``.
    """

    flags: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        flags = np.asarray(self.flags, dtype=np.int8)
        sigma = np.asarray(self.sigma, dtype=np.int64)
        if flags.shape != sigma.shape or flags.ndim != 1:
            raise ValueError("flags and sigma must be 1D of equal length")
        if not np.all((flags == 0) | (flags == 1)):
            raise ValueError("flags must be binary")
        check = np.zeros(sigma.size, dtype=bool)
        check[sigma] = True
        if not check.all():
            raise ValueError("sigma must be a permutation")
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def random(cls, size: int, alpha: float, rng: RngStream) -> "FlattenAssignment":
        gen = rng.generator()
        flags = (gen.random(size) < alpha).astype(np.int8)
        sigma = gen.permutation(size)
        return cls(flags, sigma)


def subbin_indices(values: np.ndarray, flags: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-sample tag: flattening samples with the same value strictly before it.

    ``sigma[l]`` is the position of sample ``l`` in the order and must be
    a permutation of ``range(len(values))``. Then ``values * len(values)
    + sigma`` are distinct keys whose single argsort lists the samples by
    value and, within a value, from first to last. Raises
    ``OverflowError`` when those keys do not fit in int64.
    """
    values = np.asarray(values, dtype=np.int64)
    k = values.size
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    if max(-int(values.min()), int(values.max()) + 1) * k > 2**63:
        raise OverflowError("values * len(values) does not fit in int64")
    order = np.argsort(values * k + np.asarray(sigma, dtype=np.int64))
    v = values[order]
    f = np.asarray(flags, dtype=np.int64)[order]
    before = np.cumsum(f) - f
    # ``before`` never decreases, so its running maximum over the group
    # starts (zero elsewhere) is its value at the current group's start.
    new = np.empty(k, dtype=bool)
    new[0] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    out = np.empty(k, dtype=np.int64)
    out[order] = before - np.maximum.accumulate(np.where(new, before, 0))
    return out


def flatten_1d(samples, assignment: FlattenAssignment) -> list[tuple[int, int]]:
    """Flatten a 1D multiset; returns kept ``(element, sub_bin)`` pairs in input order."""
    values = np.asarray(samples, dtype=np.int64)
    if values.size != assignment.flags.size:
        raise ValueError("assignment length must match the number of samples")
    subs = subbin_indices(values, assignment.flags, assignment.sigma)
    keep = assignment.flags == 0
    return [(int(v), int(s)) for v, s in zip(values[keep], subs[keep])]


def pack_keys(*columns: np.ndarray) -> np.ndarray:
    """Pack parallel non-negative integer columns into single int64 keys."""
    if not columns:
        raise ValueError("need at least one column")
    size = columns[0].size
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    key = np.zeros(size, dtype=np.int64)
    for col in columns:
        col = np.asarray(col, dtype=np.int64)
        radix = int(col.max()) + 1 if col.size else 1
        if radix <= 0:
            raise ValueError("columns must be non-negative")
        if key.max(initial=0) > (2**62) // max(radix, 1):
            raise OverflowError("key does not fit in int64; domain too large")
        key = key * radix + col
    return key


def _multiplicities(samples) -> np.ndarray:
    """Multiplicity of each distinct element; rows of 2D input are elements."""
    values = np.asarray(samples)
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    axis = 0 if values.ndim > 1 else None
    return np.unique(values, axis=axis, return_counts=True)[1]


def non_singleton_count(samples) -> int:
    """Number of samples whose element appears at least twice.

    ``N = sum over elements with multiplicity c >= 2 of c``.
    """
    counts = _multiplicities(samples)
    return int(counts[counts >= 2].sum())


def max_subbin_count(samples) -> int:
    """Largest multiplicity of any flattened element (0 for empty input)."""
    return int(_multiplicities(samples).max(initial=0))
