"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: full-PHY-heavy or otherwise expensive tests, deselected by "
        "`make test-fast` (pytest -m 'not slow')",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """Factory for generators with distinct but deterministic seeds."""

    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
