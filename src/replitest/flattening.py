"""Randomized flattening: splitting heavy domain elements into sub-bins.

A random subset of the samples (the "flattening" samples, marked by a
binary vector F) act as dividers: under a random order, each kept
sample is tagged with the number of flattening samples of the same
element that precede it. Two kept samples collide only if they share
the element and the tag, so heavy elements are diluted into sub-bins
while distinct elements are never merged. The 2D flattening of the
independence tester tags the row and column coordinates independently
and keeps a sample only if it was selected on neither axis.

:func:`subbin_indices` is the definition of the tags under one order.
The tester's runs draw no order: they add the exact mean over all
orders (:mod:`.cell_means`), and the test oracles draw orders with
:func:`subbin_indices` as the reference for that mean.
"""

from __future__ import annotations

import numpy as np


def subbin_indices(values: np.ndarray, flags: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-sample tag: flattening samples with the same value strictly before it.

    ``sigma[l]`` is the position of sample ``l`` in the order and must be
    a permutation of ``range(len(values))``. Then ``values * len(values)
    + sigma`` are distinct keys, so one in-place sort of them lists the
    samples by value and, within a value, from first to last, and each
    sorted key splits back into its value and its position. The tags are
    counted in that order and scattered to positions, where sample ``l``
    reads its tag at ``sigma[l]``: that gather applies the inverse of
    ``sigma`` without forming it, so no argsort is needed, and a sort of
    distinct int64 keys costs about half an argsort. For int64 inputs a
    call allocates, besides bool masks, two arrays of ``len(values)``
    int64: the keys, which become the result, and one work array. It
    writes no input. Raises ``OverflowError`` when the keys do not fit
    in int64.
    """
    values = np.asarray(values, dtype=np.int64)
    k = values.size
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    if max(-int(values.min()), int(values.max()) + 1) * k > 2**63:
        raise OverflowError("values * len(values) does not fit in int64")
    sigma = np.asarray(sigma, dtype=np.int64)
    key = values * k
    key += sigma
    key.sort()
    # The work array holds the sorted samples' values, then two int32
    # halves for the counts below (a count is at most k < 2**31).
    work = key // k
    new = np.empty(k, dtype=bool)
    new[0] = True
    np.not_equal(work[1:], work[:-1], out=new[1:])
    work *= k
    key -= work  # now the position of each sorted sample
    flagged = np.zeros(k, dtype=bool)
    flagged[sigma[np.flatnonzero(flags)]] = True
    # Flags before each sample in sorted order, then less those before
    # its value's first sample: ``count`` never decreases, so its running
    # maximum over the value starts (zero elsewhere) is its value at the
    # current value's start.
    count, start = work.view(np.int32).reshape(2, k)
    count[0] = 0
    count[1:] = flagged.take(key[:-1])
    np.cumsum(count, out=count)
    np.multiply(count, new, out=start)
    np.maximum.accumulate(start, out=start)
    count -= start
    start[key] = count
    # sigma is a permutation, so "clip" clips nothing; it only lets take
    # write straight into out, where "raise" would buffer.
    np.take(start, sigma, out=count, mode="clip")
    key[...] = count
    return key


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
        key *= radix
        key += col
    return key


def non_singleton_count(samples) -> int:
    """Number of samples whose element appears at least twice.

    ``N = sum over elements with multiplicity c >= 2 of c``; rows of 2D
    input are elements.
    """
    values = np.asarray(samples)
    if values.size == 0:
        return 0
    axis = 0 if values.ndim > 1 else None
    counts = np.unique(values, axis=axis, return_counts=True)[1]
    return int(counts[counts >= 2].sum())
