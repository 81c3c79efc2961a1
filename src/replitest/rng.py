"""Deterministic, splittable random streams.

Every randomized operation in this package takes an explicit
:class:`RngStream`. A stream is identified by ``(seed, role)``:
streams with the same identity always produce the same draws, and
streams with different roles behave as statistically independent
sources. This is what lets an experiment fix one run's "internal"
randomness (thresholds, markings, splits) while redrawing the sample
randomness, which is the operation every replicability measurement
is built on.

Roles are free-form strings; ``substream`` appends path components,
each non-empty and free of ``/``, so that derived streams ("trial-17",
"sample-2", ...) never collide.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _entropy(seed: int, role: str) -> int:
    # Keyed hash so that role strings map to independent entropy pools
    # deterministically across platforms and processes.
    key = (seed & _MASK64).to_bytes(8, "little")
    digest = hashlib.blake2b(role.encode("utf-8"), digest_size=16, key=key)
    return int.from_bytes(digest.digest(), "little")


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible source of randomness.

    Parameters
    ----------
    seed:
        64-bit experiment seed. Values outside the range are masked.
    role:
        Label identifying what the stream is used for, e.g. ``internal``,
        ``sample-1``, ``threshold``. Streams with distinct roles are
        independent; streams with equal ``(seed, role)`` are identical.
    """

    seed: int
    role: str = "root"

    def substream(self, *labels: object) -> "RngStream":
        """Derive an independent child stream, e.g. ``s.substream("trial", 3)``."""
        parts = [str(x) for x in labels]
        if not parts or any(not part or "/" in part for part in parts):
            raise ValueError(f"substream labels must be non-empty and free of '/': {labels!r}")
        return RngStream(self.seed, f"{self.role}/{'/'.join(parts)}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream.

        Calling this twice returns generators that produce identical
        sequences; derive substreams when fresh draws are needed.
        """
        return np.random.default_rng(np.random.SeedSequence(_entropy(self.seed, self.role)))
