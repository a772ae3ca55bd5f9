"""Bit helpers: pseudo-random payload bits."""

from __future__ import annotations

import numpy as np

__all__ = ["random_bits"]


def random_bits(count: int, rng: np.random.Generator) -> np.ndarray:
    """Return ``count`` uniformly random bits as an int8 array."""
    return rng.integers(0, 2, size=count, dtype=np.int8)
