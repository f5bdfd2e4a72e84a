"""Seedable random streams with open-interval uniform draws.

All randomized code in the package draws from :class:`RngStream` so that a run
is fully reproducible from a single 64-bit seed.  The determinantal samplers
take their uniforms in vectors, a chunk or a sub-batch at a time, through
:meth:`RngStream.uniforms`; a subset stream is therefore fixed by the seed and
the order in which the sampler asks for those vectors.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """Deterministic generator of uniforms on the open interval (0, 1).

    Wraps ``numpy.random.Generator`` (PCG64).  The contract is reproducibility
    per seed and strictly interior uniforms, not a particular bit stream:
    draws that land exactly on 0.0 are redrawn.
    """

    def __init__(self, seed: int = 0):
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(int(seed)))
        )

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

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator, for bulk sampling helpers."""
        return self._gen
