"""Independent brute-force validator for allocations and equilibria.

Everything here is deliberately recomputed from first principles -- explicit
choice sets per user class and pair-by-pair probability sums -- rather than
through the closed-form allocation path, so agreement between the two routes
is evidence that the closed form was transcribed correctly.  The contract is
naive arithmetic, pair by pair, with one normaliser per choice set: each
class's distribution sums phi * psi over its set once.  The allocation
reads neither prices nor discounts, so each distinct profile's is computed
once per call, under (alpha, phi, psi, total_users), as a pair table of
(CP, ISP, held, effective users) shared across the markets of a batch.  A
profile is scored in one pass over that table, with delta * p taken once
per market, each utility and each revenue a plain-float sum, and one
deviation rule reads those scores cell by cell.  One rule defines an
equilibrium: a profile whose zero-price columns are all 1 and that no flip
breaks.
:func:`oracle_equilibria` applies it to every profile of each market,
:func:`oracle_equilibria_among` to the profiles it is shown.  Only
:func:`find_zre_violation` names the breaking deviation.  The markets are
the caller's: ``zrsim verify`` derives each cell's market from the
scenario's validated one and validates only its prices and discounts
(:meth:`~zrsim.market.MarketConfig.with_cell`).  Nothing here reads
:mod:`zrsim.market`'s lattice or allocation code; only its data types.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

import numpy as np

from .equilibrium import GAIN_TOL
from .errors import InvalidArgument
from .market import AllocationTable, MarketConfig, StrategyMatrix

Rows = tuple[tuple[int, ...], ...]
# A profile's pairs as (CP, ISP, held, effective users), row-major.
Pairs = tuple[tuple[int, int, bool, float], ...]
# A profile's (CP utilities, ISP revenues) in one market.
Scores = tuple[list[float], list[float]]
# A market's ISPs at a zero price and its other cells as (CP, ISP).
Cells = tuple[tuple[int, ...], list[tuple[int, int]]]
# A breaking cell: (CP, ISP, whether the profile holds it, CP gains, ISP gains).
Breach = tuple[int, int, bool, bool, bool]
# A zero-price pattern's profiles and, for each, its flips as (CP, ISP,
# whether the profile holds the cell, index of the flipped profile).
Space = tuple[list[Rows], list[list[tuple[int, int, bool, int]]]]


def _distribution(
    pairs: set[tuple[int, int]], config: MarketConfig
) -> dict[tuple[int, int], float]:
    """The probability of every pair of ``pairs`` for a user restricted to
    them: phi * psi over one normaliser, summed once in the set's order."""
    norm = sum(config.phi[s] * config.psi[j] for s, j in pairs)
    return {(s, j): config.phi[s] * config.psi[j] / norm for s, j in pairs}


def _bundle_zero_rated(theta: StrategyMatrix, mask: int, isp: int) -> bool:
    # Own extension logic: a bundle is zero-rated iff every member CP's
    # stored cell is 1; dummies never are.
    if mask == 0 or isp == 0:
        return False
    for i in range(theta.n_cps):
        if mask >> i & 1 and theta.rows[i][isp - 1] == 0:
            return False
    return True


def sticky_choice_set(config: MarketConfig) -> frozenset[tuple[int, int]]:
    """The full extended choice set of (aux mask, ISP index) pairs, dummies
    included."""
    return frozenset(
        (s, j) for s in range(config.lattice_size) for j in range(config.n_isps + 1)
    )


def elastic_choice_set(config: MarketConfig, theta: StrategyMatrix) -> frozenset[tuple[int, int]]:
    """Zero-rated pairs when any exist, otherwise the full choice set."""
    zero_rated = frozenset(
        (s, j)
        for s in range(config.lattice_size)
        for j in range(config.n_isps + 1)
        if _bundle_zero_rated(theta, s, j)
    )
    return zero_rated or sticky_choice_set(config)


def oracle_allocate(config: MarketConfig, theta: StrategyMatrix) -> AllocationTable:
    """Allocation recomputed directly from the two user classes.

    Sticky users draw from the full choice set and elastic users from the
    zero-rated one; each class is distributed pair by pair, with the
    probabilities of :func:`_distribution`, and the classes are mixed with
    weights (1 - alpha, alpha).
    """
    if theta.n_cps != config.n_cps or theta.n_isps != config.n_isps:
        raise InvalidArgument("strategy matrix does not match the config dimensions")
    sticky = _distribution(set(sticky_choice_set(config)), config)
    elastic = _distribution(set(elastic_choice_set(config, theta)), config)
    rho = np.zeros((config.lattice_size, config.n_isps + 1))
    for s in range(config.lattice_size):
        for j in range(config.n_isps + 1):
            p_sticky = sticky.get((s, j), 0.0)
            p_elastic = elastic.get((s, j), 0.0)
            rho[s, j] = (1.0 - config.alpha) * p_sticky + config.alpha * p_elastic
    x_pair = rho * config.total_users
    x_effective = np.zeros((config.n_cps, config.n_isps))
    for i in range(config.n_cps):
        for j in range(config.n_isps):
            total = 0.0
            for s in range(config.lattice_size):
                if s >> i & 1:
                    total += x_pair[s, j + 1]
            x_effective[i, j] = total
    return AllocationTable(rho=rho, x_pair=x_pair, x_effective=x_effective)


def _payoff_totals(config: MarketConfig, dp: list[float], pairs: Pairs) -> Scores:
    """(CP utilities, ISP revenues) in ``config`` of the profile whose pair
    table is ``pairs``, with ``dp[j] = delta[j] * p[j]``, in one pass over
    its pairs: each CP's utility sums its ISPs in order, each ISP's revenue
    its CPs in order."""
    q, p, c = config.q, config.p, config.c
    utilities = [0.0] * config.n_cps
    revenues = [0.0] * config.n_isps
    for i, j, held, x in pairs:
        if held:
            utilities[i] += (q[i] - dp[j]) * x
            revenues[j] += dp[j] * x
        else:
            utilities[i] += q[i] * x * c
            revenues[j] += p[j] * x * c
    return utilities, revenues


def _discounted_prices(config: MarketConfig) -> list[float]:
    """``delta[j] * p[j]`` of every ISP, as :func:`_payoff_totals` reads it."""
    return [d * p for d, p in zip(config.delta, config.p)]


def _pairs(config: MarketConfig, rows: Rows, allocations: dict) -> Pairs:
    """The pair table of ``rows`` in ``config``: every (CP, ISP) pair as
    (CP, ISP, held, oracle effective users), in row-major order, allocated
    once per ``allocations`` under (alpha, phi, psi, total_users, rows)."""
    key = (config.alpha, config.phi, config.psi, config.total_users, rows)
    if key not in allocations:
        x_eff = oracle_allocate(config, StrategyMatrix(rows)).x_effective.tolist()
        allocations[key] = tuple(
            (i, j, row[j] == 1, x)
            for i, (row, x_row) in enumerate(zip(rows, x_eff))
            for j, x in enumerate(x_row)
        )
    return allocations[key]


class _Table(dict):
    """One market's scores by profile rows, each computed on its first
    lookup, from the pair tables of :func:`_pairs`."""

    def __init__(self, config: MarketConfig, allocations: dict) -> None:
        super().__init__()
        self.config, self.allocations = config, allocations
        self.dp = _discounted_prices(config)

    def __missing__(self, rows: Rows) -> Scores:
        pairs = _pairs(self.config, rows, self.allocations)
        self[rows] = scores = _payoff_totals(self.config, self.dp, pairs)
        return scores


def _cells(config: MarketConfig) -> Cells:
    """The ISPs at a zero price, whose cells are forced to 1, and every
    other cell as (CP, ISP), in row-major order."""
    n, m = config.n_cps, config.n_isps
    forced = tuple(j for j in range(m) if config.p[j] == 0.0)
    return forced, [(i, j) for i in range(n) for j in range(m) if j not in forced]


class Violation(NamedTuple):
    """A single-cell deviation that breaks the equilibrium conditions."""

    cp: int
    isp: int
    move: str  # "cancel" or "establish"
    gainers: tuple[str, ...]  # which side(s) strictly gain from the move


def find_zre_violation(config: MarketConfig, theta: StrategyMatrix) -> Violation | None:
    """First deviation (row-major cell order) that breaks equilibrium, if any.

    A zero-rating relation is a bilateral contract: either party can cancel
    an existing relation on its own, but establishing one takes both.  So a
    1-cell breaks the profile when the CP or the ISP strictly gains from
    canceling it, and a 0-cell breaks it when both strictly gain from
    establishing it ("gain" exceeds the shared GAIN_TOL margin times
    total_users, so tie verdicts agree across the two arithmetic routes).
    Cells forced by a zero ISP price are never deviated.
    """
    broken = _first_violation(config, theta.rows, _Table(config, {}), _cells(config))
    if broken is None:
        return None
    i, j, held, cp_gains, isp_gains = broken
    if not held:
        return Violation(i, j, "establish", ("cp", "isp"))
    gainers = tuple(side for side, gains in (("cp", cp_gains), ("isp", isp_gains)) if gains)
    return Violation(i, j, "cancel", gainers)


def _first_violation(
    config: MarketConfig, rows: Rows, table: _Table, cells: Cells
) -> Breach | None:
    """:func:`find_zre_violation`'s rule on the profile ``rows``, reading it
    and its flips from ``table``, over the market's ``cells`` (forced ISPs,
    free cells) of :func:`_cells`.  The first breaking cell comes back as
    (CP, ISP, held, CP gains, ISP gains)."""
    forced, free = cells
    for j in forced:
        for i in range(config.n_cps):
            if rows[i][j] != 1:
                raise InvalidArgument(f"cell ({i}, {j}) must be 1 because p[{j}] = 0")
    flips = []
    for i, j in free:
        row = rows[i][:j] + (1 - rows[i][j],) + rows[i][j + 1 :]
        flips.append((i, j, rows[i][j] == 1, rows[:i] + (row,) + rows[i + 1 :]))
    return _first_breach(table[rows], flips, table, GAIN_TOL * config.total_users)


def _first_breach(
    base: Scores, flips: list[tuple], scores: list[Scores] | _Table, tol: float
) -> Breach | None:
    """The deviation rule on a profile whose scores are ``base``, over its
    ``flips`` (CP, ISP, held, key of the flip's scores in ``scores``) in
    order: a held relation breaks when either side gains by more than
    ``tol`` from canceling it, a missing one when both gain from
    establishing it."""
    for i, j, held, k in flips:
        flip = scores[k]
        cp_gains = flip[0][i] > base[0][i] + tol
        isp_gains = flip[1][j] > base[1][j] + tol
        if (cp_gains or isp_gains) if held else (cp_gains and isp_gains):
            return i, j, held, cp_gains, isp_gains
    return None


def oracle_verify_zre(config: MarketConfig, theta: StrategyMatrix) -> bool:
    """Re-verify an equilibrium by exhaustive deviation checking."""
    return find_zre_violation(config, theta) is None


def oracle_equilibria_among(
    markets: Iterable[MarketConfig], among: Iterable[Iterable[StrategyMatrix]]
) -> list[tuple[StrategyMatrix, ...]]:
    """Each market's equilibria among the profiles ``among`` shows it, in
    the order shown: the valid ones that no flip breaks, so one that breaks
    a forced cell is none.  Each market scores a profile or flip once, and
    each distinct pair table is built once per call."""
    allocations: dict = {}
    equilibria = []
    for config, thetas in zip(markets, among):
        table = _Table(config, allocations)
        forced, _ = cells = _cells(config)
        equilibria.append(tuple(
            theta for theta in thetas
            if all(row[j] for row in theta.rows for j in forced)
            and _first_violation(config, theta.rows, table, cells) is None
        ))
    return equilibria


def oracle_equilibria(markets: Iterable[MarketConfig]) -> list[tuple[StrategyMatrix, ...]]:
    """Each market's equilibria by exhaustive deviation checks, in row-major
    bit order: every profile whose zero-price columns are all 1 that
    :func:`find_zre_violation` accepts.

    Each zero-price pattern's profiles are listed once per call, in that
    order, with each free cell's flip as a list index.  Each distinct
    profile's pair table is built once per (alpha, phi, psi, total_users),
    every profile is scored once per market into a list, which the
    deviation rule then reads by index, and each equilibrium's matrix is
    built once per call."""
    spaces: dict[tuple, Space] = {}
    allocations: dict = {}
    tables: dict[tuple, list[Pairs]] = {}
    matrices: dict[Rows, StrategyMatrix] = {}
    equilibria = []
    for config in markets:
        forced, free = _cells(config)
        pattern = (config.n_cps, config.n_isps, forced)
        if pattern not in spaces:
            spaces[pattern] = _space(*pattern, free)
        profiles, moves = spaces[pattern]
        key = (config.alpha, config.phi, config.psi, config.total_users, pattern)
        if key not in tables:
            tables[key] = [_pairs(config, rows, allocations) for rows in profiles]
        dp = _discounted_prices(config)
        scores = [_payoff_totals(config, dp, pairs) for pairs in tables[key]]
        tol = GAIN_TOL * config.total_users
        found = []
        for rows, base, flips in zip(profiles, scores, moves):
            if _first_breach(base, flips, scores, tol) is None:
                if rows not in matrices:
                    matrices[rows] = StrategyMatrix(rows)
                found.append(matrices[rows])
        equilibria.append(tuple(found))
    return equilibria


def _space(n: int, m: int, forced: tuple[int, ...], free: list[tuple[int, int]]) -> Space:
    """Every profile of ``n`` rows and ``m`` columns whose ``forced``
    columns are 1, in row-major bit order, and each one's (CP, ISP, held,
    index of the flip) over the ``free`` cells: the free cells are the bits
    of a profile's index, the first the highest."""
    choices = itertools.product(*[(1,) if j in forced else (0, 1) for j in range(m)])
    profiles = list(itertools.product(list(choices), repeat=n))
    bits = [1 << (len(free) - 1 - t) for t in range(len(free))]
    moves = [
        [(i, j, rows[i][j] == 1, k ^ bit) for (i, j), bit in zip(free, bits)]
        for k, rows in enumerate(profiles)
    ]
    return profiles, moves
