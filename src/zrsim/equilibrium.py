"""Zero-rating equilibria: enumeration, selection, pressure, dynamics.

A zero-rating relation is a bilateral contract.  Either party can walk away
from an existing relation unilaterally, but establishing one takes both
sides, so a profile is an equilibrium exactly when

* no CP and no ISP strictly gains by canceling one of its existing
  relations, and
* no currently-unrelated (CP, ISP) pair would both strictly gain from
  establishing their relation.

"Gain" is a strict payoff increase; indifferent parties stay put.  An ISP
with price zero (an unlimited plan) is treated as always zero-rating with
every CP: those cells are clamped to 1 and excluded from deviation checks.

Profiles are integer codes (see :mod:`zrsim.market`) scored in batches.
:func:`solve_grid` solves every cell of a scenario's price axes, a point
of the axes and not a market, from one table of effective users, in boxes
of price and discount axes, each market once (bar a later zero-price ISP's
discounts, which give one market): each ISP's payoff terms are
scored once per point of its own axes and broadcast, and stability, the
tie-break and the Nash test run as arrays over the markets.  It returns
equilibria only; :mod:`zrsim.analysis` scores the payoffs of both worlds.
:func:`enumerate_zre` and :func:`discount_equilibrium` return its row of
one cell as it is, so NODEQ is ``delta_star is None`` on every route;
:func:`is_zre` and the dynamics score a profile and its flips, and
:func:`detect_pressure` its counterfactual markets.  The verify battery
reads the engine's verdicts from the sweep's records
(:func:`zrsim.analysis.grid_sweep`).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, InvalidArgument
from .market import (
    MarketConfig, StrategyMatrix, _check_dims, cell_bit, check_unit_interval, profile_cells,
    sub_boxes
)
from .payoff import ProfileTable, _scores, code_scores, profile_table

DEFAULT_DELTA_GRID = tuple(k / 10 for k in range(11))
# Capacity guard: the profile evaluations of one price cell, d**M discount
# profiles (d = 1 at fixed delta) times 2**(N*M) strategy profiles, checked
# before anything is built.  At fixed delta it admits exactly the markets
# of at most 20 cells (2**20 <= 2,000,000 < 2**21): 4x5 and 2x10, not 3x7.
# On the 11-point grid, one cell of a seeded random market (2 cores, Python
# 3.11, numpy 2.4, fresh processes; 45 MB of each peak RSS is the imports):
# 3x3, 681,472 evaluations, 0.05-0.07 s and 48 MB peak RSS; 7x2, the most
# evaluations under the guard (1,982,464), 1.0-1.3 s and 55 MB; not 2x4.
# It bounds every cell of a sweep: in the block of its first zero-price ISP
# (see solve_grid) a cell scores 2**(N*(M-1)) profiles at d**(M-1) deltas.
# The count leaves out the 2**N-bundle allocation of every profile: a 13x1
# cell, 90,112 evaluations, takes 7.7-9.3 s and 50 MB, nearly all of it
# allocating, and a 5x4 enumeration takes 6.4 s and adds 478 MB.
EVALUATION_GUARD = 2_000_000
# A deviation "gains" only when it beats the current payoff by more than
# this margin times total_users: payoffs scale with the market size, so
# the margin does too, and no verdict depends on the unit users are
# counted in.  Grid parameterizations produce exact analytic payoff ties;
# the margin keeps tie verdicts stable across arithmetically different but
# equivalent evaluation routes.  Float noise is ~1e-16; over every
# single-cell deviation (in every market a sweep solves: price cell times
# discount profile) and every discount deviation of the ten shipped
# scenarios (all at total_users 1), scored with linear revenues, no payoff
# gap lies in (1e-12, 1e-6); the ties reach 1.1e-16, and the smallest real
# gap is 2.6e-5 (discount_game).
GAIN_TOL = 1e-9


class DynamicsOutcome(enum.Enum):
    FIXED_POINT = "FIXED_POINT"
    CYCLE = "CYCLE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ZreResult:
    """All equilibria of one market plus the tie-break-selected one; no
    equilibrium and None where the market has none (NO_ZRE)."""

    all_zre: tuple[StrategyMatrix, ...]
    selected: StrategyMatrix | None
    pressure: tuple[bool, ...]


@dataclass(frozen=True)
class DiscountOutcome:
    """Selected discount profile of the ISP discount game and the
    equilibria at it; where no discount profile is a Nash equilibrium
    (NODEQ), None and the NO_ZRE result, as in :func:`solve_grid`'s row."""

    delta_star: tuple[float, ...] | None
    zre: ZreResult


@dataclass(frozen=True)
class BestResponseTrace:
    """Visited profiles of a best-response run and how it ended."""

    outcome: DynamicsOutcome
    visited: tuple[StrategyMatrix, ...]
    cycle_start: int | None = None


def _split_cells(n: int, m: int, zero: tuple[bool, ...]) -> tuple[list, list]:
    """The cells of an N x M profile, row-major, split into those forced to
    1 by the zero-price ISPs ``zero`` and the free ones."""
    forced, free = [], []
    for i, j in itertools.product(range(n), range(m)):
        (forced if zero[j] else free).append((i, j))
    return forced, free


def _checked_free_cells(config: MarketConfig, theta: StrategyMatrix) -> list[tuple[int, int]]:
    """The free cells of ``config``, row-major, once ``theta`` is checked to
    be N x M (a smaller one cannot index the cells) and to hold every forced cell."""
    _check_dims(config, theta)
    forced, free = _split_cells(config.n_cps, config.n_isps, tuple(p == 0.0 for p in config.p))
    for i, j in forced:
        if theta.rows[i][j] != 1:
            raise InvalidArgument(f"cell ({i}, {j}) must be 1 because the ISP price is 0")
    return free


def _breaks(cp_gains, isp_gains, held, zero=False):
    """Whether a single-cell flip breaks a row that holds (``held`` 1) or
    lacks (0) the flipped relation: when CP i's gain (0 or 1) reaches a
    level.  Where ISP j's price is positive the level is 2 - held - ISP j's
    gain, so a held relation breaks when either side gains by canceling it
    and a missing one when both gain by establishing it.  Where it is zero
    (``zero``) the level is 2 held: a row lacking the forced relation is
    never an equilibrium, and a forced relation is never cancelled (ISP j's
    revenue, and so its gain, is 0 there)."""
    return cp_gains >= np.where(zero, 2 * held, 2 - held - isp_gains)


def _stable(
    u: np.ndarray, r: Sequence[np.ndarray], steps: list, p: Sequence, tol: float
) -> np.ndarray:
    """Whether each profile of :func:`_profiles` survives every single-cell
    deviation, per market, from its utilities ``u[i, k, ...]`` and the
    revenues ``r[j][k, ...]`` of each ISP, which may span only that ISP's
    own axes of the market shape (see :func:`~zrsim.payoff._scores`), at
    the prices ``p[j]`` that span ISP j's price axis.

    In that order the flip of the free cell with step s maps row t to
    t ^ s, so the profile axis reshaped to ``(K / 2s, 2, s)`` holds the rows
    lacking the relation in half 0 and those holding it in half 1, and
    reversing the half axis puts each row's flip in its place.  A flip
    gains when it beats the scores with ``tol``, GAIN_TOL times
    total_users, added: the steps run CP by CP, so one buffer holds one
    CP's raised utilities at a time; an ISP's gains are compared on its
    own points.  Each flip is one comparison of the CP's gains, as uint8,
    with the levels of :func:`_breaks`, where a zero price of ISP j (a cell
    forced in some markets only) sets its own."""
    r_bar, u_bar, cp = [r_j + tol for r_j in r], np.empty(u.shape[1:]), None
    unstable = np.zeros(u.shape[1:], dtype=bool)
    held = np.array([0, 1], np.uint8).reshape((2, 1) + (1,) * (u.ndim - 2))
    zero = [np.asarray(p_j) == 0.0 for p_j in p]
    for (i, j), step in steps:
        if i != cp:
            cp = i
            np.add(u[i], tol, out=u_bar)
        cu, cr, cu_bar, cr_bar, out = (
            a.reshape((-1, 2, step) + a.shape[1:])
            for a in (u[i], r[j], u_bar, r_bar[j], unstable)
        )
        cp_gains = np.greater(cu[:, ::-1], cu_bar).view(np.uint8)
        out |= _breaks(cp_gains, cr[:, ::-1] > cr_bar, held, zero[j])
    return ~unstable


def is_zre(config: MarketConfig, theta: StrategyMatrix) -> bool:
    """Whether ``theta`` is a zero-rating equilibrium of ``config``: no flip
    of a free cell breaks it (:func:`_breaks`, the rule :func:`_stable`
    applies to every profile at once).  The profile and its flips are
    scored in one :func:`code_scores` call."""
    free = _checked_free_cells(config, theta)
    bits = [cell_bit(i, j, config.n_cps, config.n_isps) for i, j in free]
    code = theta.encoding()
    u, r = code_scores(config, [code ^ bit for bit in [0] + bits])
    tol = GAIN_TOL * config.total_users
    return not any(
        _breaks(u[i, k] > u[i, 0] + tol, r[j, k] > r[j, 0] + tol, int(code & bit > 0))
        for k, ((i, j), bit) in enumerate(zip(free, bits), 1)
    )


def _profiles(n: int, m: int, zero: tuple[bool, ...]) -> tuple[np.ndarray, list]:
    """Codes of all N x M profiles respecting the forced cells of the
    zero-price ISPs ``zero``, ascending, and the free cells, CP by CP, each
    with its bit in a profile's row of that array (see :func:`_stable`)."""
    forced, free = _split_cells(n, m, zero)
    # Row t holds the free cells' bits in the order of the codes, first
    # free cell most significant, so codes ascend with t and a flip is t ^ step.
    mask = sum(cell_bit(i, j, n, m) for i, j in forced)
    codes = np.flatnonzero(np.arange(1 << (n * m)) & mask == mask)
    return codes, [((i, j), 1 << (len(free) - 1 - rank)) for rank, (i, j) in enumerate(free)]


def enumerate_zre(config: MarketConfig) -> ZreResult:
    """Exhaustively enumerate all equilibria and select one.

    When no equilibrium exists none is selected, NO_ZRE (the market is
    assumed to behave as if zero-rating were unavailable).  Pressure flags
    are computed only for the selected profile.  This is the one-cell case
    of :func:`solve_grid`.
    """
    return solve_grid(config, [(p,) for p in config.p])[0][2]


def _last_argmax(values) -> np.ndarray:
    """The index of the largest of ``values`` along their last axis (the
    highest-value CP, the most expensive ISP); ties go to the later index,
    mirroring the convention that the second provider is the tie-breaker."""
    values = np.asarray(values)
    return values.shape[-1] - 1 - values[..., ::-1].argmax(axis=-1)


def _order(config: MarketConfig, codes, cells: np.ndarray) -> np.ndarray:
    """The indices that sort the distinct profile ``codes`` (with their
    ``cells``) into the tie-break order among equilibria, the winner last.

    The winner has the most zero-rated relations, then the most relations
    of the highest-value CP, then the most of the last ISP, then the lowest
    binary encoding.  The key reads only q and the code, so the winner
    among any subset is its last."""
    n, m = cells.shape[1:]
    # One integer product takes the three counts in mixed radix: a relation
    # weighs (N + 1)(M + 1), N + 1 more in the highest-value CP's row and 1
    # more in the last ISP's column, which hold at most M and N relations.
    weight = np.full((n, m), (n + 1) * (m + 1))
    weight[_last_argmax(config.q)] += n + 1
    weight[:, -1] += 1
    counts = cells.reshape(len(cells), -1) @ weight.ravel()
    return np.lexsort((-np.asarray(codes, dtype=np.int64), counts))


def _cp_rows(n: int, m: int) -> np.ndarray:
    """Codes ``[b, i]`` of row ``b`` of CP ``i`` alone, each of the 2**M rows
    (a CP's cells are m consecutive bits of a code, see cell_bit)."""
    return np.arange(1 << m)[:, None] << (m * np.arange(n)[::-1])


def detect_pressure(config: MarketConfig, selected: StrategyMatrix) -> tuple[bool, ...]:
    """Which CPs hold zero-rating relations only because their competitors do.

    ``selected`` must be an equilibrium.  Pressure needs a competitor: some
    other CP must hold a freely-chosen relation in ``selected``.  The
    counterfactual market removes every other CP's relations (cells forced
    by zero prices stay) and CP ``i`` is under pressure when, alone in that
    market, it strictly prefers some row that drops at least one of its
    selected relations over every row that keeps them all: the relation
    survives only in response to the competition.  Indifference keeps the
    relation (deviations "gain" only past GAIN_TOL times total_users, as
    everywhere).  Forced cells are not choices and never count.  Each
    distinct counterfactual row is scored once, and :func:`_pressure` reads
    it as in a sweep.
    """
    free = _checked_free_cells(config, selected)
    n, m = config.n_cps, config.n_isps
    forced = np.array([(1 << n * m) - 1 - sum(cell_bit(i, j, n, m) for i, j in free)])
    rows = _cp_rows(n, m)
    # Not np.unique: it imports numpy.ma, which a sweep otherwise never loads.
    codes = np.array(sorted(set((forced | rows).ravel().tolist())))
    u = code_scores(config, codes)[0][..., None]
    chosen, tol = np.array([selected.encoding()]), GAIN_TOL * config.total_users
    return tuple(_pressure(u, codes, chosen, forced, rows, tol)[0].tolist())


def _pressure(u, codes, chosen, forced, rows, tol: float) -> np.ndarray:
    """Pressure flags ``[l, i]`` of the selected profiles ``chosen[l]`` (see
    :func:`detect_pressure`) of markets whose zero prices force the cells
    of the code ``forced[l]``, from the utilities ``u[i, k, l]`` of the
    profiles ``codes``, ascending, with the gain margin ``tol``, GAIN_TOL
    times total_users.  CP i's counterfactual codes are ``forced[l] |
    rows[b, i]`` over every row of :func:`_cp_rows`, all among ``codes``; a
    row that repeats a forced bit is a duplicate and leaves both maxima
    unchanged.  A CP holding no free relation keeps them all in every row
    and is never flagged; CPs' free cells are distinct bits, so a CP has a
    competitor exactly when the sum of all CPs' held bits exceeds its own."""
    counterfactual = forced | rows[..., None]
    held = rows[-1][:, None] & ~forced & chosen
    keep = (counterfactual & held) == held
    # [b, i, l], markets innermost as in the scores (see _scores).
    at = np.searchsorted(codes, counterfactual)
    values = u[np.arange(len(u))[:, None], at, np.arange(len(forced))]
    dropping = np.where(keep, -np.inf, values).max(axis=0)
    keeping = np.where(keep, values, -np.inf).max(axis=0)
    return ((held.sum(axis=0) != held) & (dropping > keeping + tol)).T


def best_response_dynamics(
    config: MarketConfig, start: StrategyMatrix, max_steps: int = 1000
) -> BestResponseTrace:
    """Iterate single-agent best responses from ``start``.

    Agents move in a fixed round-robin order: CP rows first, then ISP
    columns.  A move is the agent's own-payoff-maximizing single-cell flip
    among its cells, where canceling needs only the mover's strict gain and
    establishing needs a strict gain for both sides; ties between flips go
    to the lowest row-major cell.  An agent with no strictly-improving
    admissible flip passes.

    The run ends at a fixed point (a full round of passes, which coincides
    with the equilibrium conditions), in a cycle (a revisited profile at the
    same round position), or inconclusively once ``max_steps`` agent turns
    are exhausted.
    """
    free = _checked_free_cells(config, start)
    n, m = config.n_cps, config.n_isps
    agents = [("cp", [(i, j) for i, j in free if i == a]) for a in range(n)]
    agents += [("isp", [(i, j) for i, j in free if j == a]) for a in range(m)]
    tol = GAIN_TOL * config.total_users

    def trace(outcome: DynamicsOutcome, cycle_start: int | None = None) -> BestResponseTrace:
        path = tuple(map(StrategyMatrix, profile_cells(visited, n, m).tolist()))
        return BestResponseTrace(outcome, path, cycle_start)

    state = start.encoding()
    visited = [state]
    seen: dict[tuple[int, int], int] = {}
    for step in range(max_steps):
        pos = step % len(agents)
        key = (pos, state)
        if key in seen:
            # A repeated (turn, profile) pair makes the deterministic run
            # periodic; no intervening change means every agent passed.
            if any(v != state for v in visited[seen[key]:]):
                return trace(DynamicsOutcome.CYCLE, seen[key])
            return trace(DynamicsOutcome.FIXED_POINT)
        seen[key] = len(visited) - 1

        kind, cells = agents[pos]
        u, r = code_scores(config, [state] + [state ^ cell_bit(i, j, n, m) for i, j in cells])
        best_gain, best_cell = tol, None
        for k, (i, j) in enumerate(cells, start=1):
            cp_gain, isp_gain = u[i, k] - u[i, 0], r[j, k] - r[j, 0]
            own_gain, other_gain = (cp_gain, isp_gain) if kind == "cp" else (isp_gain, cp_gain)
            if own_gain > best_gain and (state & cell_bit(i, j, n, m) or other_gain > tol):
                best_gain, best_cell = own_gain, (i, j)
        if best_cell is not None:
            state ^= cell_bit(*best_cell, n, m)
            visited.append(state)
    return trace(DynamicsOutcome.INCONCLUSIVE)


def _axes(config: MarketConfig, p_grid, delta_grid) -> tuple[list, list]:
    """The price axes ``p_grid`` and the discount axes of :func:`solve_grid`,
    ``delta_grid`` sorted and distinct for every ISP or else
    ``config.delta``, checked and held to ``EVALUATION_GUARD`` per cell."""
    n, m = config.n_cps, config.n_isps
    if len(p_grid) != m:
        raise InvalidArgument(f"p_grid must have one value list per ISP ({m})")
    axes = [tuple(map(float, axis)) for axis in p_grid]
    if not all(axes):
        raise InvalidArgument("p_grid axes must be nonempty")
    delta_axes = [(v,) for v in config.delta]
    if delta_grid is not None:
        if not delta_grid:
            raise InvalidArgument("delta_grid must be nonempty")
        values = [float(v) for v in delta_grid]
        # Every value, not the sorted ends: NaN has no place in a sorted order.
        check_unit_interval("delta", values)
        delta_axes = [tuple(sorted(set(values)))] * m
    # Position k of every axis at once, so that a bad price is named by its ISP.
    for values in itertools.zip_longest(*axes, fillvalue=0.0):
        check_unit_interval("p", values)
    work = math.prod(map(len, delta_axes)) << (n * m)
    if work > EVALUATION_GUARD:
        raise CapacityError(
            f"a {n}x{m} cell needs {work} profile evaluations, above the guard of "
            f"{EVALUATION_GUARD}"
        )
    return axes, delta_axes


def _box(config, table, order, steps, cf_rows, prices, deltas, tol: float) -> tuple:
    """The profiles of ``table`` (with their free cells ``steps``) scored
    and tested for stability in the markets of the box ``(P_0, ..., P_{M-1},
    D_0, ..., D_{M-1})`` of price axes ``prices[j]`` and discount axes
    ``deltas[j]``: the stable mask ``[k, ...]``, each market's selected row
    (the stable one last in ``order``), its revenues ``[..., j]``, -inf
    where the market has no equilibrium, and the utilities ``[i, c, ...]``
    of the rows ``cf_rows`` only."""
    ndim = 2 * len(prices)
    along = [np.reshape(v, [-1 if b == a else 1 for b in range(ndim)])
             for a, v in enumerate([*prices, *deltas])]
    p = along[:ndim // 2]
    u, r = _scores(config, table, p, along[ndim // 2:])
    stable = _stable(u, r, steps, p, tol)
    # The first stable row from the end of ``order``; where none is, its
    # last row, whose revenues are then -inf.
    backward = order[::-1]
    selected = backward[stable[backward].argmax(axis=0)]
    revenue = np.empty(selected.shape + (len(r),))
    for j, r_j in enumerate(r):
        # The selected row at each market's point of ISP j's own axes.
        own = np.arange(r_j[0].size).reshape(r_j.shape[1:])
        revenue[..., j] = r_j.reshape(len(r_j), -1)[selected, own]
    revenue[~stable.any(axis=0)] = -np.inf
    return stable, selected, revenue, u[:, cf_rows]


def _nash(revenue: np.ndarray, prefer: np.ndarray, tol: float) -> tuple:
    """The cells with a Nash discount profile, and each one's most preferred
    Nash profile ``d``, from the revenues ``[c_0, ..., c_{M-1}, D_0, ...,
    D_{M-1}, j]`` of a box of cells and discount axes and ``prefer[c, d]``.

    Nash: no ISP gains from a unilateral grid deviation that admits an
    equilibrium.  ISP j's best deviation is the maximum along its discount
    axis; a profile without equilibrium holds -inf and is never a gain, and
    a one-point axis offers no deviation."""
    m = revenue.shape[-1]
    nash = revenue[..., 0] > -np.inf
    for j in range(m):
        if revenue.shape[m + j] > 1:
            r_j = revenue[..., j]
            nash &= ~(r_j.max(axis=m + j, keepdims=True) > r_j + tol)
    nash = nash.reshape(len(prefer), -1)
    found = np.flatnonzero(nash.any(axis=1))
    return found, np.where(nash, prefer, -1)[found].argmax(axis=1)


def solve_grid(
    config: MarketConfig,
    p_grid: Sequence[Sequence[float]],
    delta_grid: Sequence[float] | None = None,
) -> list[tuple[tuple[float, ...], tuple[float, ...] | None, ZreResult]]:
    """Solve ``config`` at every cell of the price axes ``p_grid`` (one
    value list per ISP): one (prices, discount profile, :class:`ZreResult`)
    row per cell, in row-major order, and no cell built as a market.

    Without ``delta_grid`` each cell is solved at ``config.delta``, which
    its row carries; with it each cell plays the ISP discount game on that
    grid (see :func:`discount_equilibrium`), and its row carries the
    selected discount profile, or None where no discount profile is a Nash
    equilibrium (NODEQ).  This is the one place NODEQ is decided.

    One profile table of every profile, row k holding code k (see
    :class:`~zrsim.payoff.ProfileTable`), which reads neither prices nor
    discounts, serves the grid, and each block puts its own rows in the
    tie-break order (see :func:`_order`).  The cells form at most 1 + z
    boxes of axis positions for z ISPs with a zero (so axes may repeat or
    reorder values), one per first zero-price ISP: the all-positive box
    and, per such ISP j, {p_j = 0} x the positive positions before j x
    every position after j, whose profiles hold ISP j's column, where ISP j
    plays only its largest discount and a later ISP's zero is a level of
    the stability test (see :func:`_breaks`).  A box is solved in sub-boxes
    of whole cells (see :func:`~zrsim.market.sub_boxes`) times the discount
    axes, in stages that pass arrays: :func:`_axes` checks and guards,
    :func:`_box` scores each market (a cell too large for one block in
    parts of its discount box), :func:`_nash` picks each cell's discount
    profile, and pressure is flagged at its selected market only.  Cells
    with one outcome share one :class:`ZreResult`, those without an
    equilibrium or a discount equilibrium the NO_ZRE one, and each distinct
    matrix in them is built once, from its row of the table's cells.  A
    block reads its cells' rows, tie ISPs and forced cells through one
    gather of the cell index.  No payoff of either world is returned.

    Raises InvalidArgument without one nonempty axis per ISP, ConfigError
    when a discount or a price lies outside [0, 1], then CapacityError when
    a cell needs more than ``EVALUATION_GUARD`` profile evaluations, all
    before any allocation.
    """
    n, m = config.n_cps, config.n_isps
    axes, delta_axes = _axes(config, p_grid, delta_grid)
    # The table holds every profile, row k holding code k, so that a block's
    # codes index it directly.
    cells = profile_cells(np.arange(1 << (n * m)), n, m)
    table = profile_table(config, cells)
    no_zre = ZreResult((), None, (False,) * n)
    unsolved = config.delta if delta_grid is None else None
    solved = [(row, unsolved, no_zre) for row in itertools.product(*axes)]
    # Each cell's row in ``solved`` and, by that row, its most expensive
    # ISP, which orders its Nash profiles, and the code of the cells its
    # zero-price ISPs force.
    index = np.arange(len(solved)).reshape(tuple(map(len, axes)))
    prices = np.array([row for row, _, _ in solved])
    tie = _last_argmax(prices)
    columns = [sum(cell_bit(i, j, n, m) for i in range(n)) for j in range(m)]
    forced = (prices == 0.0) @ np.array(columns)
    cp_rows = _cp_rows(n, m)
    # prefer[t, ...] places each discount profile in the order of Nash
    # profiles when ISP t is the most expensive (see discount_equilibrium).
    # Totals are rounded so that equal decimal totals tie whatever the order
    # of their terms (0.2 + 0.1 + 0.5 == 0.8, 0.2 + 0.5 + 0.1 < 0.8).
    d = np.array(list(itertools.product(*delta_axes)))
    total = [round(sum(delta), 9) for delta in d.tolist()]
    prefer = np.empty((m, len(d)), dtype=np.int64)
    for t, row in enumerate(prefer):
        row[np.lexsort((*d.T, d[:, t], total))] = np.arange(len(d))
    prefer = prefer.reshape((m,) + tuple(map(len, delta_axes)))
    matrix = functools.cache(lambda code: StrategyMatrix(cells[code].tolist()))
    tol = GAIN_TOL * config.total_users
    for j in range(m + 1):
        # Block j holds the cells whose first zero-price ISP is j: {p_j = 0}
        # x the positive positions before j x every position after j (j = M
        # is the all-positive box).  Its profiles hold ISP j's column, and a
        # later ISP's zero is a level of the stability test (see _breaks).
        box = [[k for k, v in enumerate(axis) if (v == 0.0) == (a == j) or a > j]
               for a, axis in enumerate(axes)]
        if not all(box):
            continue
        codes, steps = _profiles(n, m, tuple(a == j for a in range(m)))
        # The all-positive block scores the table itself, not a copy.
        block_table = table if j == m else ProfileTable(*(column[codes] for column in table))
        order = _order(config, codes, block_table.cells)
        box_index = index[np.ix_(*box)]
        box_tie, box_forced = tie[box_index], forced[box_index]
        # Every counterfactual code of the block's cells (see _pressure).
        patterns = np.array(sorted(set(box_forced.ravel().tolist())))
        cf_codes = np.array(sorted(set((patterns | cp_rows[..., None]).ravel().tolist())))
        block = (block_table, order, steps, np.searchsorted(codes, cf_codes))
        box_prices = [np.take(axis, positions) for axis, positions in zip(axes, box)]
        # Below M, ISP j's delta multiplies p_j = 0, so every value gives the
        # same market; only the largest, which the selection prefers, is
        # solved.  Its axis then has no deviation to gain from.
        cut = tuple(slice(-1, None) if a == j else slice(None) for a in range(m))
        d_axes = [axis[c] for axis, c in zip(delta_axes, cut)]
        deltas = list(itertools.product(*d_axes))
        block_prefer = prefer[(slice(None), *cut)].reshape(m, -1)
        # A market holds K x N utilities; revenues span their ISP's axes only.
        d_shape, entries = tuple(map(len, d_axes)), len(codes) * n
        # Sub-boxes hold whole cells, so that the Nash test of a cell sees all
        # of its discount profiles; a cell too large for a block is scored in
        # parts of its discount box, each written to the sub-box's arrays.
        for sub in sub_boxes(box_index.shape, len(deltas) * entries):
            sub_prices, cell_ks = [v[s] for v, s in zip(box_prices, sub)], box_index[sub]
            shape = cell_ks.shape + d_shape
            stable, selected = np.empty((len(codes),) + shape, bool), np.empty(shape, np.int64)
            revenue, u_cf = np.empty(shape + (m,)), np.empty((n, len(cf_codes)) + shape)
            for part in sub_boxes(d_shape, cell_ks.size * entries):
                put = (..., *part)
                stable[put], selected[put], revenue[put + (slice(None),)], u_cf[put] = _box(
                    config, *block, sub_prices, [a[s] for a, s in zip(d_axes, part)], tol
                )
            found, star = _nash(revenue, block_prefer[box_tie[sub].ravel()], tol)
            if not len(found):
                continue
            at = found * len(deltas) + star
            chosen = selected.ravel()[at]
            held = stable.reshape(len(codes), -1)[:, at].T
            pressure = _pressure(
                u_cf.reshape(n, len(cf_codes), -1)[:, :, at], cf_codes, codes[chosen],
                box_forced[sub].ravel()[found], cp_rows, tol,
            )
            # One result per distinct outcome, shared by the cells that have it.
            results, outcomes = {}, np.hstack([held, pressure])
            for f, k in enumerate(cell_ks.ravel()[found].tolist()):
                if (key := outcomes[f].tobytes()) not in results:
                    results[key] = ZreResult(
                        tuple(map(matrix, codes[held[f]].tolist())), matrix(int(codes[chosen[f]])),
                        tuple(pressure[f].tolist()),
                    )
                solved[k] = (solved[k][0], deltas[star[f]], results[key])
    return solved


def discount_equilibrium(
    config: MarketConfig, delta_grid: Sequence[float] = DEFAULT_DELTA_GRID
) -> DiscountOutcome:
    """Solve the ISP discount game over a discrete grid.

    A discount profile is a Nash equilibrium when it admits an equilibrium
    strategy profile and no ISP can raise its revenue by a unilateral grid
    deviation that also admits one; each profile's revenues are evaluated at
    its tie-break-selected strategy profile.  Among Nash profiles the
    largest is chosen: by total discount (rounded to 9 decimals, so equal
    decimal totals tie), then by the component of the most expensive ISP
    (later index on equal prices), then by the later ISPs' components.
    This is the one-cell case of :func:`solve_grid`, whose row it returns.
    """
    [(_, delta, zre)] = solve_grid(config, [(p,) for p in config.p], delta_grid)
    return DiscountOutcome(delta, zre)
