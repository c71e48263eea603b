"""Independent brute-force validator for allocations and equilibria.

Everything here is deliberately recomputed from first principles -- explicit
choice sets per user class and pair-by-pair probability sums -- rather than
through the closed-form allocation path, so agreement between the two routes
is evidence that the closed form was transcribed correctly.  The contract is
naive arithmetic, pair by pair, with one normaliser per choice set: each
class's distribution sums phi * psi over its set once.  The allocation reads
neither prices nor discounts, so :func:`oracle_verdicts` computes each
distinct one once per call and shares it across the markets of its batch.
Each call files every distinct profile once under a small integer, its
profile number, with the numbers of its row-major flips, and keys the
shared allocations and each market's table of (utilities, revenues) on
that number.  Each run of consecutive pairs in one market gets one such
table, so a profile is scored once per market however many of its pairs
deviate to it; every deviation is still tested pair by pair.  A profile is
scored in one pass over its (CP, ISP) pairs: each utility and each revenue
is a plain-float sum, pair by pair.  The deviation rule returns the first
breaking cell as a plain tuple, and only :func:`find_zre_violation` turns
it into a :class:`Violation`, so :func:`oracle_verdicts` builds none.  The
markets of a batch are the caller's: ``zrsim verify`` derives each cell's
market from the scenario's validated one and validates only its prices
and discounts (:meth:`~zrsim.market.MarketConfig.with_cell`).  Nothing
here reads :mod:`zrsim.market`'s lattice or allocation code; only its
data types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .equilibrium import GAIN_TOL
from .errors import DomainError, InvalidArgument
from .market import AllocationTable, MarketConfig, StrategyMatrix

Rows = tuple[tuple[int, ...], ...]
# A call's profile book: the number of each distinct profile, the profiles
# by number and, once built, the numbers of each profile's row-major flips.
Book = tuple[dict[Rows, int], list[Rows], list[list[int] | None]]
# A market's zero-price ISPs and its other cells (CP, ISP, row-major position).
Cells = tuple[tuple[int, ...], list[tuple[int, int, int]]]
Totals = Callable[[int], tuple[list[float], list[float]]]
# A breaking cell: (CP, ISP, whether the profile holds it, CP gains, ISP gains).
Breach = tuple[int, int, bool, bool, bool]


@dataclass(frozen=True)
class ChoiceSet:
    """Explicit set of (aux mask, isp index) pairs available to a user class."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise DomainError("choice set must be nonempty")


def choice_probability(
    choice_set: Iterable[tuple[int, int]],
    aux_mask: int,
    isp: int,
    config: MarketConfig,
) -> float:
    """Probability that a user restricted to ``choice_set`` picks a pair.

    ``choice_set`` holds (aux mask, isp index) pairs over the extended
    provider sets; probabilities are proportional to phi * psi and sum to
    one over the set.  Pairs outside the set have probability zero.
    """
    pairs = set(choice_set)
    if not pairs:
        raise DomainError("choice set must be nonempty")
    if not 0 <= aux_mask < config.lattice_size:
        raise InvalidArgument(f"aux mask {aux_mask} out of range")
    if not 0 <= isp <= config.n_isps:
        raise InvalidArgument(f"isp index {isp} out of range")
    return _distribution(pairs, config).get((aux_mask, isp), 0.0)


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


def sticky_choice_set(config: MarketConfig) -> ChoiceSet:
    """The full extended choice set, dummies included."""
    return ChoiceSet(
        frozenset(
            (s, j) for s in range(config.lattice_size) for j in range(config.n_isps + 1)
        )
    )


def elastic_choice_set(config: MarketConfig, theta: StrategyMatrix) -> ChoiceSet:
    """Zero-rated pairs when any exist, otherwise the full choice set."""
    zero_rated = frozenset(
        (s, j)
        for s in range(config.lattice_size)
        for j in range(config.n_isps + 1)
        if _bundle_zero_rated(theta, s, j)
    )
    if zero_rated:
        return ChoiceSet(zero_rated)
    return sticky_choice_set(config)


def oracle_allocate(config: MarketConfig, theta: StrategyMatrix) -> AllocationTable:
    """Allocation recomputed directly from the two user classes.

    Sticky users draw from the full choice set and elastic users from the
    zero-rated one; each class is distributed pair by pair, with the
    probabilities of :func:`choice_probability`, and the classes are mixed
    with weights (1 - alpha, alpha).
    """
    if theta.n_cps != config.n_cps or theta.n_isps != config.n_isps:
        raise InvalidArgument("strategy matrix does not match the config dimensions")
    sticky = _distribution(set(sticky_choice_set(config).pairs), config)
    elastic = _distribution(set(elastic_choice_set(config, theta).pairs), config)
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


def _oracle_totals(config: MarketConfig, theta: StrategyMatrix) -> tuple[list[float], list[float]]:
    """(CP utilities, ISP revenues), recomputed from the oracle allocation."""
    return _payoff_totals(config, theta.rows, oracle_allocate(config, theta).x_effective.tolist())


def _payoff_totals(
    config: MarketConfig, rows: Rows, x_eff: list[list[float]]
) -> tuple[list[float], list[float]]:
    """(CP utilities, ISP revenues) of the profile ``rows`` in ``config``,
    from its oracle effective users ``x_eff``, in one pass over its (CP,
    ISP) pairs: each CP's utility sums its ISPs in order, each ISP's
    revenue its CPs in order."""
    q, p, delta, c = config.q, config.p, config.delta, config.c
    utilities = []
    revenues = [0.0] * config.n_isps
    for i, (row, x_row) in enumerate(zip(rows, x_eff)):
        u = 0.0
        for j, x in enumerate(x_row):
            if row[j]:
                u += (q[i] - delta[j] * p[j]) * x
                revenues[j] += delta[j] * p[j] * x
            else:
                u += q[i] * x * c
                revenues[j] += p[j] * x * c
        utilities.append(u)
    return utilities, revenues


def _file(book: Book, rows: Rows) -> int:
    """The number of the profile ``rows`` in ``book``, filed under the next
    free one if it is new."""
    numbers, profiles, flips = book
    k = numbers.get(rows)
    if k is None:
        k = numbers[rows] = len(profiles)
        profiles.append(rows)
        flips.append(None)
    return k


def _market_totals(config: MarketConfig, allocations: dict[tuple, dict], book: Book) -> Totals:
    """The (utilities, revenues) lookup of one market, keyed on a profile's
    number in ``book``: each entry is computed once, from the allocation of
    that profile, which is itself computed once per ``allocations`` dict,
    filed under (alpha, phi, psi, total_users) and then the number, and
    shared by every market that has those."""
    profiles = book[1]
    table: dict[int, tuple[list[float], list[float]]] = {}
    key = (config.alpha, config.phi, config.psi, config.total_users)
    shared = allocations.setdefault(key, {})

    def totals(k: int) -> tuple[list[float], list[float]]:
        entry = table.get(k)
        if entry is None:
            x_eff = shared.get(k)
            if x_eff is None:
                theta = StrategyMatrix(profiles[k])
                x_eff = shared[k] = oracle_allocate(config, theta).x_effective.tolist()
            entry = table[k] = _payoff_totals(config, profiles[k], x_eff)
        return entry

    return totals


def _cells(config: MarketConfig) -> Cells:
    """The ISPs at a zero price, whose cells are forced to 1, and every
    other cell as (CP, ISP, row-major position), in row-major order."""
    n, m = config.n_cps, config.n_isps
    forced = tuple(j for j in range(m) if config.p[j] == 0.0)
    return forced, [(i, j, i * m + j) for i in range(n) for j in range(m) if j not in forced]


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
    book: Book = ({}, [], [])
    k = _file(book, theta.rows)
    broken = _first_violation(config, k, _cells(config), _market_totals(config, {}, book), book)
    if broken is None:
        return None
    i, j, held, cp_gains, isp_gains = broken
    if not held:
        return Violation(i, j, "establish", ("cp", "isp"))
    gainers = tuple(side for side, gains in (("cp", cp_gains), ("isp", isp_gains)) if gains)
    return Violation(i, j, "cancel", gainers)


def _first_violation(
    config: MarketConfig, k: int, cells: Cells, totals: Totals, book: Book
) -> Breach | None:
    """:func:`find_zre_violation`'s rule on profile number ``k`` of ``book``,
    with the forced columns and free cells ``cells`` of ``config``, reading
    the (utilities, revenues) of the profile and of each flip from
    ``totals``; a profile's row-major flips are filed once per book.  The
    first breaking cell comes back as (CP, ISP, held, CP gains, ISP gains)."""
    rows = book[1][k]
    forced, free = cells
    for j in forced:
        for i in range(config.n_cps):
            if rows[i][j] != 1:
                raise InvalidArgument(f"cell ({i}, {j}) must be 1 because p[{j}] = 0")
    flipped = book[2][k]
    if flipped is None:
        flipped = book[2][k] = [
            _file(book, rows[:i] + (row[:j] + (1 - row[j],) + row[j + 1 :],) + rows[i + 1 :])
            for i, row in enumerate(rows) for j in range(len(row))
        ]
    base_u, base_r = totals(k)
    tol = GAIN_TOL * config.total_users
    for i, j, position in free:
        flip_u, flip_r = totals(flipped[position])
        cp_gains = flip_u[i] > base_u[i] + tol
        isp_gains = flip_r[j] > base_r[j] + tol
        if rows[i][j] == 1:
            if cp_gains or isp_gains:
                return i, j, True, cp_gains, isp_gains
        elif cp_gains and isp_gains:
            return i, j, False, True, True
    return None


def oracle_verify_zre(config: MarketConfig, theta: StrategyMatrix) -> bool:
    """Re-verify an equilibrium by exhaustive deviation checking."""
    return find_zre_violation(config, theta) is None


def oracle_verdicts(pairs: Iterable[tuple[MarketConfig, StrategyMatrix]]) -> list[bool]:
    """:func:`oracle_verify_zre` of each (market, profile) pair, in order.

    Each distinct profile of the call is filed once under a number, with
    the numbers of its row-major flips.  Consecutive pairs with an equal
    market share one table of oracle totals, keyed on that number, so each
    profile or flip is scored once per market; the allocation reads only
    alpha, phi, psi, total_users and the profile, so each distinct one is
    built once per call.  The deviation rule of :func:`find_zre_violation`
    then runs pair by pair."""
    book: Book = ({}, [], [])
    allocations: dict[tuple, dict] = {}
    verdicts = []
    market = None
    for config, theta in pairs:
        if config is not market and config != market:
            market, cells = config, _cells(config)
            totals = _market_totals(config, allocations, book)
        k = _file(book, theta.rows)
        verdicts.append(_first_violation(config, k, cells, totals, book) is None)
    return verdicts
