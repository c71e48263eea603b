"""Shared fixtures and random market generators."""

import pytest

from zrsim import MarketConfig
from zrsim.verify import random_config, random_theta  # noqa: F401  (re-exported)

GRID11 = tuple(k / 10 for k in range(11))


@pytest.fixture
def bench() -> MarketConfig:
    """Symmetric duopoly used throughout: equal-share ISPs, unequal CP values."""
    return MarketConfig(
        n_cps=2,
        n_isps=2,
        alpha=0.5,
        c=0.5,
        q=(0.4, 1.0),
        p=(1.0, 1.0),
        delta=(1.0, 1.0),
        phi=(0.1, 0.4, 0.4, 0.1),
        psi=(0.2, 0.4, 0.4),
    )
