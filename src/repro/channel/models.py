"""Elementary channel models: complex Gaussian draws and AWGN."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["awgn", "complex_gaussian"]


def complex_gaussian(shape, rng: np.random.Generator, variance: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples with the given variance."""
    if variance < 0:
        raise ConfigurationError(f"variance must be non-negative, got {variance}")
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def awgn(samples: np.ndarray, noise_power: float, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise of the given (linear) power to ``samples``."""
    samples = np.asarray(samples, dtype=complex)
    return samples + complex_gaussian(samples.shape, rng, noise_power)
