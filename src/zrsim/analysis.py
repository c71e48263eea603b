"""Concentration metrics, world comparisons, grid sweeps, and aggregates.

The central comparison is between two hypothetical markets built from the
same parameters: one where zero-rating is unavailable (the all-zero
strategy profile) and one where it is available and the market settles on
the tie-break-selected equilibrium.  A price sweep gives each grid cell
one :class:`SweepRecord`: the discount profile it was solved at, the
engine's equilibria there, and the deltas in CP utilities, CP market
shares, and the Herfindahl index between the two worlds.  One sweep serves
both run modes, fixed discounts and the ISP discount game on a grid of
discounts, and its records are what ``zrsim sweep`` writes and the verify
battery checks.  Cells with no equilibrium, or with no discount
equilibrium, carry exactly zero deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidArgument
from .equilibrium import ZreResult, solve_grid
from .market import MarketConfig, allocations, cp_totals, profile_cells
from .payoff import ProfileTable, _isp_sums, _scores

SIGN_TOL = 1e-12


@dataclass(frozen=True)
class SweepRecord:
    """The one record of a solved grid cell: the discount profile it was
    solved at, its equilibria and its two-world deltas.

    ``discounts`` is ``config.delta`` at fixed discounts, the selected
    discount profile in the discount game, and None at a cell where no
    discount profile is a Nash equilibrium (NODEQ).  ``zre`` is the cell's
    :class:`~zrsim.equilibrium.ZreResult` from
    :func:`~zrsim.equilibrium.solve_grid`: every equilibrium, the selected
    one and its pressure flags, no equilibrium and None selected where the
    cell has none (NO_ZRE), as at a NODEQ cell.
    """

    prices: tuple[float, ...]
    discounts: tuple[float, ...] | None
    zre: ZreResult
    delta_utility: tuple[float, ...]
    delta_share: tuple[float, ...]
    delta_hhi: float


@dataclass(frozen=True)
class SignSummary:
    """Per-CP averages of the sweep deltas with their sign classification.

    Signs are +1 / -1 / 0 within a tolerance of zero (see :func:`aggregate_signs`).
    """

    avg_delta_utility: tuple[float, ...]
    avg_delta_share: tuple[float, ...]
    utility_signs: tuple[int, ...]
    share_signs: tuple[int, ...]


def _grand(totals: np.ndarray, what: str) -> np.ndarray:
    """The sum of each row of CP totals (along the last axis), refusing a
    row with no users."""
    grand = totals.sum(axis=-1)
    if (grand <= 0.0).any():
        raise DomainError(f"{what} at least one CP with users")
    return grand


def _hhi(totals: np.ndarray) -> np.ndarray:
    """Herfindahl index of each row of CP totals: sum(X_i^2) / sum(X_i)^2.
    The sum is squared by ``float_power``, the C ``pow`` a float's ``**``
    calls, so a row of a stack gets its one-row value bit for bit: ``**``
    on an array multiplies instead, and about one row in a thousand then
    differs in the last bit."""
    return (totals**2).sum(axis=-1) / np.float_power(_grand(totals, "Herfindahl index needs"), 2)


def _shares(totals: np.ndarray) -> np.ndarray:
    """Market shares of each row of CP totals."""
    return totals / _grand(totals, "market shares need")[..., None]


def hhi_variance_identity(shares: Sequence[float]) -> tuple[float, float]:
    """Herfindahl index of raw shares in two algebraic forms.

    Returns the normalized sum of squares and the equivalent mean-variance
    form 1/N + N * var(shares) / S**2, where S is the raw total and var the
    population variance.  The two agree to roughly 1e-12, which makes the
    identity an executable check.  Both forms are summed left to right in
    plain floats: a handful of shares costs no array round-trip.
    """
    x = [float(v) for v in shares]
    n = len(x)
    if n == 0:
        raise InvalidArgument("shares must be nonempty")
    total = sum(x)
    if total <= 0.0:
        raise DomainError("shares must have a positive sum")
    sum_of_squares = sum((v / total) ** 2 for v in x)
    mean = total / n
    var = sum((v - mean) ** 2 for v in x) / n
    return sum_of_squares, 1.0 / n + n * var / total**2


def grid_sweep(
    config: MarketConfig,
    p_grid: Sequence[Sequence[float]],
    delta_grid: Sequence[float] | None = None,
) -> list[SweepRecord]:
    """One record per Cartesian price-grid point, in row-major grid order.

    ``p_grid`` holds one value list per ISP.  Without ``delta_grid`` every
    cell is solved at ``config.delta``; with it every cell plays the ISP
    discount game on that grid.  All cells are solved together by
    :func:`~zrsim.equilibrium.solve_grid`, whose :class:`ZreResult` each
    record holds.

    A cell without a selection counts as the all-zero profile (code 0), so
    both of its worlds coincide and its deltas are exactly zero; a NODEQ
    cell is scored at ``config.delta``, which code 0 does not read.  Shares
    and the Herfindahl index read only the profile's shares rho, so each
    world's deltas are computed once per distinct profile, and each
    selected matrix is encoded once per :class:`ZreResult`, which the cells
    of one outcome share.  Utilities come from the engine's
    :func:`~zrsim.payoff._scores` at L markets, market l reading the row of
    its world: market 0 is the world without zero-rating (which reads
    neither p nor delta: every pair pays q * c per user), the rest each
    cell's selected world."""
    solved = solve_grid(config, p_grid, delta_grid)
    # Keyed on the result objects, which cells of one outcome share.
    outcomes = {id(zre): zre.selected for _, _, zre in solved}
    encoded = {key: 0 if theta is None else theta.encoding() for key, theta in outcomes.items()}
    selected = [encoded[id(zre)] for _, _, zre in solved]
    codes = sorted({0, *selected})
    cells = profile_cells(codes, config.n_cps, config.n_isps)
    rho, _, x_effective = allocations(config, cells)
    totals = cp_totals(config, rho)
    shares, hhis = _shares(totals), _hhi(totals)
    world_deltas = list(zip(map(tuple, (shares - shares[0]).tolist()), (hhis - hhis[0]).tolist()))
    rows = np.searchsorted(codes, [0] + selected)
    prices = np.array([config.p] + [row for row, _, _ in solved])
    deltas = np.array([config.delta] + [config.delta if d is None else d for _, d, _ in solved])
    table = ProfileTable(cells, x_effective, *_isp_sums(config, cells, x_effective))
    u = _scores(config, table, prices.T, deltas.T)[0][:, rows, np.arange(len(rows))].T
    delta_u = (u[1:] - u[0]).tolist()
    return [
        SweepRecord(cell, discounts, zre, tuple(du), *world_deltas[row])
        for (cell, discounts, zre), row, du in zip(solved, rows[1:], delta_u)
    ]


def compare_worlds(config: MarketConfig) -> SweepRecord:
    """One cell's record: selected equilibrium vs. the no-zero-rating world,
    the one-cell case of :func:`grid_sweep`."""
    return grid_sweep(config, [(p,) for p in config.p])[0]


def _sign(value: float, tol: float) -> int:
    return int(value > tol) - int(value < -tol)


def aggregate_signs(records: Sequence[SweepRecord], total_users: float = 1.0) -> SignSummary:
    """Arithmetic means of the per-CP deltas over a sweep, with signs.
    Utilities scale with ``total_users``, so their tolerance does too."""
    if not records:
        raise InvalidArgument("aggregate_signs requires at least one record")
    du = np.mean([r.delta_utility for r in records], axis=0)
    ds = np.mean([r.delta_share for r in records], axis=0)
    return SignSummary(
        avg_delta_utility=tuple(float(v) for v in du),
        avg_delta_share=tuple(float(v) for v in ds),
        utility_signs=tuple(_sign(v, SIGN_TOL * total_users) for v in du),
        share_signs=tuple(_sign(v, SIGN_TOL) for v in ds),
    )
