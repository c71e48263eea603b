"""Concentration metrics, world comparisons, grid sweeps, and aggregates.

The central comparison is between two hypothetical markets built from the
same parameters: one where zero-rating is unavailable (the all-zero
strategy profile) and one where it is available and the market settles on
the tie-break-selected equilibrium.  Each grid cell of a price sweep
records the selected profile and the deltas in CP utilities, CP market
shares, and the Herfindahl index between the two worlds.  Cells with no
equilibrium carry exactly zero deltas.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import DomainError, InvalidArgument
from .equilibrium import (
    DEFAULT_DELTA_GRID,
    DiscountStatus,
    ZreResult,
    ZreStatus,
    discount_equilibrium,
    enumerate_zre,
)
from .market import (
    MarketConfig, StrategyMatrix, allocate, allocations, masks_containing, profile_cells
)
from .payoff import scores

SIGN_TOL = 1e-12

T = TypeVar("T")


@dataclass(frozen=True)
class SweepRecord:
    """Outcome of one grid cell: selected equilibrium and two-world deltas."""

    prices: tuple[float, ...]
    status: ZreStatus
    selected: StrategyMatrix | None
    delta_utility: tuple[float, ...]
    delta_share: tuple[float, ...]
    delta_hhi: float
    pressure: tuple[bool, ...]


@dataclass(frozen=True)
class SignSummary:
    """Per-CP averages of the sweep deltas with their sign classification.

    Signs are +1 / -1 / 0 with a tolerance of ``SIGN_TOL`` around zero.
    """

    avg_delta_utility: tuple[float, ...]
    avg_delta_share: tuple[float, ...]
    utility_signs: tuple[int, ...]
    share_signs: tuple[int, ...]


def _effective_users_per_cp(config: MarketConfig, x_pair: np.ndarray) -> np.ndarray:
    # Sums over every ISP column including the dummy: a CP's concentration
    # is measured over all of its users, wherever they connect.
    totals = np.empty(config.n_cps)
    for i in range(config.n_cps):
        totals[i] = x_pair[list(masks_containing(i, config.n_cps)), :].sum()
    return totals


def _hhi(totals: np.ndarray) -> float:
    grand = totals.sum()
    if grand <= 0.0:
        raise DomainError("Herfindahl index needs at least one CP with users")
    return float((totals**2).sum() / grand**2)


def _shares(totals: np.ndarray) -> np.ndarray:
    grand = totals.sum()
    if grand <= 0.0:
        raise DomainError("market shares need at least one CP with users")
    return totals / grand


def hhi(config: MarketConfig, theta: StrategyMatrix) -> float:
    """Herfindahl index of the actual-CP market under ``theta``.

    Computed as the normalized sum of squared effective-user counts,
    sum(X_i^2) / (sum(X_i))^2, so the result lies in (0, 1] regardless of
    the raw market size.
    """
    return _hhi(_effective_users_per_cp(config, allocate(config, theta).x_pair))


def market_shares(config: MarketConfig, theta: StrategyMatrix) -> np.ndarray:
    """Effective-user shares among actual CPs (same normalization as hhi)."""
    return _shares(_effective_users_per_cp(config, allocate(config, theta).x_pair))


def hhi_variance_identity(shares: Sequence[float]) -> tuple[float, float]:
    """Herfindahl index of raw shares in two algebraic forms.

    Returns the normalized sum of squares and the equivalent mean-variance
    form 1/N + N * var(shares) / S**2, where S is the raw total.  The two
    agree to roughly 1e-12, which makes the identity an executable check.
    """
    x = np.asarray(shares, dtype=float)
    if x.size == 0:
        raise InvalidArgument("shares must be nonempty")
    total = x.sum()
    if total <= 0.0:
        raise DomainError("shares must have a positive sum")
    normalized = x / total
    sum_of_squares = float((normalized**2).sum())
    variance_form = float(1.0 / x.size + x.size * x.var() / total**2)
    return sum_of_squares, variance_form


def _empty_record(config: MarketConfig) -> SweepRecord:
    """Record of a cell without an equilibrium: both worlds coincide."""
    n = config.n_cps
    return SweepRecord(
        prices=config.p,
        status=ZreStatus.NO_ZRE,
        selected=None,
        delta_utility=(0.0,) * n,
        delta_share=(0.0,) * n,
        delta_hhi=0.0,
        pressure=(False,) * n,
    )


def _record(config: MarketConfig, result: ZreResult) -> SweepRecord:
    """Two-world record of ``config`` from its already-solved ``result``."""
    if result.selected is None:
        return _empty_record(config)
    # Both worlds in one batch: code 0 is the all-zero profile.
    cells = profile_cells([0, result.selected.encoding()], config.n_cps, config.n_isps)
    _, x_pair, users = allocations(config, cells)
    u_base, u_sel = scores(config, cells, users)[0]
    base, sel = (_effective_users_per_cp(config, x) for x in x_pair)
    return SweepRecord(
        prices=config.p,
        status=result.status,
        selected=result.selected,
        delta_utility=tuple(float(v) for v in u_sel - u_base),
        delta_share=tuple(float(v) for v in _shares(sel) - _shares(base)),
        delta_hhi=_hhi(sel) - _hhi(base),
        pressure=result.pressure,
    )


def compare_worlds(config: MarketConfig) -> SweepRecord:
    """One cell's record: selected equilibrium vs. the no-zero-rating world."""
    return _record(config, enumerate_zre(config))


def default_worker_count() -> int:
    return os.cpu_count() or 1


def _sweep(
    cell_fn: Callable[[MarketConfig], T],
    config: MarketConfig,
    p_grid: Sequence[Sequence[float]],
    workers: int | None,
) -> list[T]:
    """``cell_fn`` applied to every Cartesian price-grid point, row-major.

    The pool is capped at the number of cells and of CPUs; a cap of one
    runs the cells in this process.
    """
    if len(p_grid) != config.n_isps:
        raise InvalidArgument(f"p_grid must have one value list per ISP ({config.n_isps})")
    if any(len(axis) == 0 for axis in p_grid):
        raise InvalidArgument("p_grid axes must be nonempty")
    cells = [config.with_prices(prices) for prices in itertools.product(*p_grid)]
    cpus = default_worker_count()
    workers = min(cpus if workers is None else workers, len(cells), cpus)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(cell_fn, cells, chunksize=max(1, len(cells) // workers)))
    return [cell_fn(cell) for cell in cells]


def grid_sweep(
    config: MarketConfig,
    p_grid: Sequence[Sequence[float]],
    workers: int | None = None,
) -> list[SweepRecord]:
    """One record per Cartesian price-grid point, in row-major grid order.

    ``p_grid`` holds one value list per ISP.  Cells are pure and independent;
    ``workers`` > 1 runs them in a process pool while preserving the
    deterministic output ordering.
    """
    return _sweep(compare_worlds, config, p_grid, workers)


@dataclass(frozen=True)
class DiscountCell:
    """One discount-game grid cell: two-world record under the selected
    discount profile, plus the profile itself (None when no discount
    equilibrium exists, in which case the record carries zero deltas)."""

    record: SweepRecord
    delta_star: tuple[float, ...] | None


def _discount_cell(config: MarketConfig, delta_grid: tuple[float, ...]) -> DiscountCell:
    outcome = discount_equilibrium(config, delta_grid)
    if outcome.status is DiscountStatus.NO_DISCOUNT_EQUILIBRIUM:
        return DiscountCell(record=_empty_record(config), delta_star=None)
    record = _record(config.with_delta(outcome.delta_star), outcome.zre)
    return DiscountCell(record=record, delta_star=outcome.delta_star)


def discount_grid_sweep(
    config: MarketConfig,
    p_grid: Sequence[Sequence[float]],
    delta_grid: Sequence[float] = DEFAULT_DELTA_GRID,
    workers: int | None = None,
) -> list[DiscountCell]:
    """Discount-game counterpart of :func:`grid_sweep`.

    Each cell solves the ISP discount game at its prices and records the
    two-world deltas under the selected discount profile.
    """
    delta_grid = tuple(float(v) for v in delta_grid)
    return _sweep(partial(_discount_cell, delta_grid=delta_grid), config, p_grid, workers)


def _sign(value: float) -> int:
    if value > SIGN_TOL:
        return 1
    if value < -SIGN_TOL:
        return -1
    return 0


def aggregate_signs(records: Sequence[SweepRecord]) -> SignSummary:
    """Arithmetic means of the per-CP deltas over a sweep, with signs."""
    if not records:
        raise InvalidArgument("aggregate_signs requires at least one record")
    du = np.mean([r.delta_utility for r in records], axis=0)
    ds = np.mean([r.delta_share for r in records], axis=0)
    return SignSummary(
        avg_delta_utility=tuple(float(v) for v in du),
        avg_delta_share=tuple(float(v) for v in ds),
        utility_signs=tuple(_sign(v) for v in du),
        share_signs=tuple(_sign(v) for v in ds),
    )
