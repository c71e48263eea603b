"""Shared fixtures, random market generators and reference helpers."""

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np
import pytest

from zrsim import (
    InvalidArgument, MarketConfig, StrategyMatrix, allocate, oracle_allocate, payoffs
)
from zrsim.analysis import _hhi
from zrsim.equilibrium import GAIN_TOL
from zrsim.market import _check_dims, cp_totals
from zrsim.oracle import _payoff_totals

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


def flip(theta: StrategyMatrix, i: int, j: int) -> StrategyMatrix:
    """``theta`` with cell (CP ``i``, ISP ``j``) flipped."""
    rows = [list(row) for row in theta.rows]
    rows[i][j] = 1 - rows[i][j]
    return StrategyMatrix(tuple(map(tuple, rows)))


def hhi(config: MarketConfig, theta: StrategyMatrix) -> float:
    """Herfindahl index of the actual-CP market under ``theta``, one profile
    at a time: sum(X_i^2) / (sum(X_i))^2 over the per-CP sums X of the
    shares rho, so it lies in (0, 1] whatever the market size."""
    return float(_hhi(cp_totals(config, allocate(config, theta).rho[None])[0]))


def oracle_totals(config: MarketConfig, theta: StrategyMatrix) -> tuple[list[float], list[float]]:
    """(CP utilities, ISP revenues), recomputed from the oracle allocation."""
    return _payoff_totals(config, theta.rows, oracle_allocate(config, theta).x_effective.tolist())


def tie_break_winner(config: MarketConfig, profiles: Iterable[StrategyMatrix]) -> StrategyMatrix:
    """The profile README's tie-break selects among ``profiles``, restated
    one profile at a time: the most zero-rating relations, then the most
    relations of the highest-value CP (the later CP on equal values), then
    the most relations of the last ISP, then the lowest binary encoding."""
    high = max(i for i, q in enumerate(config.q) if q == max(config.q))
    return min(profiles, key=lambda theta: (
        -sum(map(sum, theta.rows)),
        -sum(theta.rows[high]),
        -sum(row[-1] for row in theta.rows),
        int(theta.bitstring(), 2),
    ))


def reference_delta_star(
    config: MarketConfig,
    axes: Sequence[Sequence[float]],
    selected_of: Callable[[MarketConfig], StrategyMatrix | None],
) -> tuple[float, ...] | None:
    """The discount game solved naively on the grid ``axes``, one value
    list per ISP: each discount profile's ISP revenues from ``payoffs`` at
    the equilibrium ``selected_of`` gives for its market (a profile without
    one is dropped), the Nash profiles, from which no ISP gains more than
    the engine's margin, GAIN_TOL * total_users, by moving alone along its
    axis, and :func:`documented_delta_star`'s choice among them."""
    revenue = {}
    for delta in itertools.product(*axes):
        market_at = replace(config, delta=delta)
        if (selected := selected_of(market_at)) is not None:
            revenue[delta] = payoffs(market_at, selected).isp_revenue
    tol = GAIN_TOL * config.total_users
    return documented_delta_star(config, [
        delta for delta, rev in revenue.items()
        if not any(
            revenue[dev][j] > rev[j] + tol
            for j, axis in enumerate(axes) for alt in axis
            if (dev := delta[:j] + (alt,) + delta[j + 1:]) in revenue
        )
    ])


def documented_delta_star(
    config: MarketConfig, nash: Iterable[tuple[float, ...]]
) -> tuple[float, ...] | None:
    """The discount profile ``discount_equilibrium`` selects among the Nash
    profiles ``nash``, restated from its docstring: the largest total,
    compared as exact decimals as the grid writes them, then the pricier
    ISP's component (the later ISP on equal prices), then the later ISPs'
    components.  None when there is no Nash profile."""
    pricier = max(range(config.n_isps), key=lambda j: (config.p[j], j))
    return max(
        nash, key=lambda d: (sum(Fraction(str(v)) for v in d), d[pricier], d[::-1]), default=None
    )


def aux_members(mask: int) -> tuple[int, ...]:
    """Actual CP indices bundled in auxiliary CP ``mask``."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def merge_providers(
    config: MarketConfig,
    theta: StrategyMatrix,
    cp_subset: Iterable[int] | None = None,
    isp_subset: Iterable[int] | None = None,
) -> tuple[MarketConfig, StrategyMatrix]:
    """Merge same-profile providers into one, which must preserve every
    allocation.

    Exactly one of ``cp_subset`` / ``isp_subset`` selects the actual
    providers (0-based) to merge.  All selected providers must share an
    identical zero-rating profile (equal rows for CPs, equal columns for
    ISPs); baseline shares add up, and per-bandwidth parameters are taken
    from the lowest-indexed member.  Untouched pair allocations should be
    unchanged and the merged pair's allocation the sum of its
    constituents'.
    """
    _check_dims(config, theta)
    if (cp_subset is None) == (isp_subset is None):
        raise InvalidArgument("exactly one of cp_subset / isp_subset must be given")
    if cp_subset is not None:
        return _merge_cps(config, theta, sorted(set(cp_subset)))
    return _merge_isps(config, theta, sorted(set(isp_subset)))


def _merge_cps(
    config: MarketConfig, theta: StrategyMatrix, subset: list[int]
) -> tuple[MarketConfig, StrategyMatrix]:
    if not subset:
        raise InvalidArgument("cp_subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= config.n_cps:
        raise InvalidArgument(f"cp_subset {subset} out of range")
    rows = {theta.rows[i] for i in subset}
    if len(rows) > 1:
        raise InvalidArgument("merged CPs must share identical zero-rating rows")
    if len(subset) == 1:
        return config, theta

    keep = subset[0]
    dropped = set(subset[1:])
    kept = [i for i in range(config.n_cps) if i not in dropped]
    old_to_new = {i: k for k, i in enumerate(kept)}
    n_new = len(kept)

    def project(mask: int) -> int:
        out = 0
        touches_merged = False
        for i in aux_members(mask):
            if i in dropped or i == keep:
                touches_merged = True
            else:
                out |= 1 << old_to_new[i]
        if touches_merged:
            out |= 1 << old_to_new[keep]
        return out

    phi_new = [0.0] * (1 << n_new)
    for s, share in enumerate(config.phi):
        phi_new[project(s)] += share

    q_new = tuple(config.q[i] for i in kept)
    theta_new = StrategyMatrix(tuple(theta.rows[i] for i in kept))
    config_new = replace(config, n_cps=n_new, q=q_new, phi=tuple(phi_new))
    return config_new, theta_new


def _merge_isps(
    config: MarketConfig, theta: StrategyMatrix, subset: list[int]
) -> tuple[MarketConfig, StrategyMatrix]:
    if not subset:
        raise InvalidArgument("isp_subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= config.n_isps:
        raise InvalidArgument(f"isp_subset {subset} out of range")
    columns = {tuple(theta.rows[i][j] for i in range(config.n_cps)) for j in subset}
    if len(columns) > 1:
        raise InvalidArgument("merged ISPs must share identical zero-rating columns")
    if len(subset) == 1:
        return config, theta

    keep = subset[0]
    dropped = set(subset[1:])
    kept_isps = [j for j in range(config.n_isps) if j not in dropped]
    psi_new = [config.psi[0]]
    for j in kept_isps:
        share = config.psi[j + 1]
        if j == keep:
            share += sum(config.psi[d + 1] for d in dropped)
        psi_new.append(share)
    p_new = tuple(config.p[j] for j in kept_isps)
    delta_new = tuple(config.delta[j] for j in kept_isps)
    theta_new = StrategyMatrix(tuple(tuple(row[j] for j in kept_isps) for row in theta.rows))
    config_new = replace(
        config, n_isps=len(kept_isps), p=p_new, delta=delta_new, psi=tuple(psi_new)
    )
    return config_new, theta_new


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
