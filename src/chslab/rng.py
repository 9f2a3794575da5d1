"""Reproducible random streams.

All randomness in the package flows through Philox, a counter-based
generator, keyed by ``(seed, stream)``.  Distinct stream ids give
statistically independent streams from the same seed, so Monte Carlo work
is cut into fixed-size blocks with one sub-stream each: block ``b`` of
stream ``s`` always draws from ``(s, b)``, so its numbers depend only on
the seed and its position, never on how many blocks ran before it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream_rng"]


def stream_rng(seed: int, stream=0) -> np.random.Generator:
    """Return the generator for stream ``stream`` of ``seed``.

    ``stream`` may be an int or a tuple of ints (nested splitting, e.g.
    one sub-stream per Monte Carlo block).
    """
    key = (stream,) if isinstance(stream, int) else tuple(stream)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
