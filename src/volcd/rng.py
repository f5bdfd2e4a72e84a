"""Seedable random streams with open-interval uniform draws.

All randomized code in the package draws from :class:`RngStream` so that a run
is fully reproducible from a single 64-bit seed and independent streams can be
split off for concurrent work.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """Deterministic generator of uniforms on the open interval (0, 1).

    Wraps ``numpy.random.Generator`` (PCG64).  The contract is reproducibility
    per seed and strictly interior uniforms, not a particular bit stream:
    draws that land exactly on 0.0 are redrawn.
    """

    def __init__(self, seed: int | np.random.SeedSequence = 0):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
            self.seed = seed.entropy
        else:
            self.seed = int(seed)
            self._seq = np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def uniform(self) -> float:
        """One uniform in (0, 1)."""
        u = self._gen.random()
        while u == 0.0:
            u = self._gen.random()
        return u

    def uniforms(self, k: int) -> np.ndarray:
        """Vector of k uniforms in (0, 1)."""
        u = self._gen.random(k)
        bad = u == 0.0
        while bad.any():
            u[bad] = self._gen.random(int(bad.sum()))
            bad = u == 0.0
        return u

    def standard_normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def spawn(self, k: int) -> list["RngStream"]:
        """Split off k independent child streams."""
        return [RngStream(s) for s in self._seq.spawn(k)]

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator, for bulk sampling helpers."""
        return self._gen
