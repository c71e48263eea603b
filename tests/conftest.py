"""Shared fixtures and random market generators."""

import numpy as np
import pytest

from zrsim import MarketConfig, StrategyMatrix

GRID11 = tuple(k / 10 for k in range(11))


def random_config(
    rng: np.random.Generator,
    n_cps: int | None = None,
    n_isps: int | None = None,
    allow_zero_price: bool = True,
) -> MarketConfig:
    """A valid random market; each price is zero with probability 0.15
    unless ``allow_zero_price`` is off."""
    n_cps = n_cps or int(rng.integers(2, 4))
    n_isps = n_isps or int(rng.integers(1, 4))
    phi = rng.uniform(0.05, 1.0, size=1 << n_cps)
    phi /= phi.sum()
    psi = rng.uniform(0.05, 1.0, size=n_isps + 1)
    psi /= psi.sum()
    p = rng.uniform(0.0, 1.0, size=n_isps)
    if allow_zero_price:
        p[rng.uniform(size=n_isps) < 0.15] = 0.0
    return MarketConfig(
        n_cps=n_cps,
        n_isps=n_isps,
        alpha=float(rng.uniform(0.0, 1.0)),
        c=float(rng.uniform(0.05, 1.0)),
        q=tuple(np.sort(rng.uniform(0.0, 1.0, size=n_cps))),
        p=tuple(p),
        delta=tuple(rng.uniform(0.0, 1.0, size=n_isps)),
        phi=tuple(phi),
        psi=tuple(psi),
    )


def random_theta(rng: np.random.Generator, config: MarketConfig) -> StrategyMatrix:
    """A random profile with the cells of zero-price ISPs set to 1."""
    rows = rng.integers(0, 2, size=(config.n_cps, config.n_isps))
    for j in range(config.n_isps):
        if config.p[j] == 0.0:
            rows[:, j] = 1
    return StrategyMatrix(tuple(tuple(int(v) for v in row) for row in rows))


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
