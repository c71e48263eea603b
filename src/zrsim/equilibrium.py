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
of price and discount axes, each market once: each ISP's payoff terms are
scored once per point of its own axes and broadcast, and stability, the
tie-break and the Nash test run as arrays over the markets.  It returns
equilibria only; :mod:`zrsim.analysis` scores the payoffs of both worlds.
:func:`enumerate_zre` and :func:`discount_equilibrium` are its one-cell
case; :func:`is_zre` and the dynamics score a profile and its flips, and
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

from .errors import CapacityError, ContractViolation, InvalidArgument
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
# 3.11, numpy 2.4, fresh processes; 35 MB of each peak RSS is the imports):
# 3x3, 681,472 evaluations, 0.08-0.10 s and 38 MB peak RSS; 7x2, the most
# evaluations under the guard (1,982,464), 0.6-0.7 s and 46 MB; not 2x4.
# The count leaves out the 2**N-bundle allocation of every profile: a 13x1
# cell, 90,112 evaluations, takes 8.3-8.4 s and 42 MB, nearly all of it
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


class ZreStatus(enum.Enum):
    EQUILIBRIA_FOUND = "EQUILIBRIA_FOUND"
    NO_ZRE = "NO_ZRE"


class DynamicsOutcome(enum.Enum):
    FIXED_POINT = "FIXED_POINT"
    CYCLE = "CYCLE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ZreResult:
    """All equilibria of one market plus the tie-break-selected one."""

    status: ZreStatus
    all_zre: tuple[StrategyMatrix, ...]
    selected: StrategyMatrix | None
    pressure: tuple[bool, ...]


@dataclass(frozen=True)
class DiscountOutcome:
    """Selected discount profile of the ISP discount game and the
    equilibria at it; both None where no discount profile is a Nash
    equilibrium (NODEQ)."""

    delta_star: tuple[float, ...] | None
    zre: ZreResult | None


@dataclass(frozen=True)
class BestResponseTrace:
    """Visited profiles of a best-response run and how it ended."""

    outcome: DynamicsOutcome
    visited: tuple[StrategyMatrix, ...]
    moves: int
    cycle_start: int | None = None


def forced_cells(config: MarketConfig) -> frozenset[tuple[int, int]]:
    """Cells clamped to 1 because the ISP's price is zero."""
    return frozenset(_forced(config.n_cps, config.n_isps, _zero_isps(config.p)))


def _zero_isps(p: Sequence[float]) -> tuple[bool, ...]:
    """Which ISPs have price zero, all that the forced cells read of ``p``."""
    return tuple(v == 0.0 for v in p)


def _forced(n: int, m: int, zero: tuple[bool, ...]) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(m) if zero[j]]


def _check_forced(theta: StrategyMatrix, forced: frozenset[tuple[int, int]]) -> None:
    for i, j in forced:
        if theta.rows[i][j] != 1:
            raise InvalidArgument(f"cell ({i}, {j}) must be 1 because the ISP price is 0")


def _matrix(code: int, config: MarketConfig) -> StrategyMatrix:
    n, m = config.n_cps, config.n_isps
    return StrategyMatrix.from_bitstring(format(int(code), f"0{n * m}b"), n, m)


def _free_cells(n: int, m: int, forced) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(m) if (i, j) not in forced]


def _breaks(cp_gains, isp_gains, held):
    """Whether a single-cell flip that CP i gains from (``cp_gains``) and
    ISP j gains from (``isp_gains``) breaks a profile: a relation it holds
    breaks when either side gains by canceling it, a missing one when both
    gain by establishing it."""
    return cp_gains | isp_gains if held else cp_gains & isp_gains


def _stable(u: np.ndarray, r: Sequence[np.ndarray], steps: list, tol: float) -> np.ndarray:
    """Whether each profile of :func:`_profiles` survives every single-cell
    deviation, per market, from its utilities ``u[i, k, ...]`` and the
    revenues ``r[j][k, ...]`` of each ISP, which may span only that ISP's
    own axes of the market shape (see :func:`~zrsim.payoff._scores`).

    In that order the flip of the free cell with step s maps row t to
    t ^ s, so the profile axis reshaped to ``(K / 2s, 2, s)`` holds the rows
    lacking the relation in half 0 and those holding it in half 1, and
    reversing the half axis puts each row's flip in its place.  A flip
    gains when it beats the scores with ``tol``, GAIN_TOL times
    total_users, added: the steps run CP by CP, so one buffer holds one
    CP's raised utilities at a time; an ISP's gains are compared on its
    own points."""
    r_bar, u_bar, cp = [r_j + tol for r_j in r], np.empty(u.shape[1:]), None
    unstable = np.zeros(u.shape[1:], dtype=bool)
    for (i, j), step in steps:
        if i != cp:
            cp = i
            np.add(u[i], tol, out=u_bar)
        cu, cr, cu_bar, cr_bar, out = (
            a.reshape((-1, 2, step) + a.shape[1:])
            for a in (u[i], r[j], u_bar, r_bar[j], unstable)
        )
        cp_gains, isp_gains = cu[:, ::-1] > cu_bar, cr[:, ::-1] > cr_bar
        for half in (0, 1):
            out[:, half] |= _breaks(cp_gains[:, half], isp_gains[:, half], half)
    return ~unstable


def is_zre(config: MarketConfig, theta: StrategyMatrix) -> bool:
    """Whether ``theta`` is a zero-rating equilibrium of ``config``: no flip
    of a free cell breaks it (:func:`_breaks`, the rule :func:`_stable`
    applies to every profile at once).  The profile and its flips are
    scored in one :func:`code_scores` call."""
    _check_dims(config, theta)
    forced = forced_cells(config)
    _check_forced(theta, forced)
    free = _free_cells(config.n_cps, config.n_isps, forced)
    bits = [cell_bit(i, j, config.n_cps, config.n_isps) for i, j in free]
    code = theta.encoding()
    u, r = code_scores(config, [code ^ bit for bit in [0] + bits])
    tol = GAIN_TOL * config.total_users
    return not any(
        _breaks(u[k, i] > u[0, i] + tol, r[k, j] > r[0, j] + tol, code & bit)
        for k, ((i, j), bit) in enumerate(zip(free, bits), 1)
    )


def _profiles(n: int, m: int, zero: tuple[bool, ...]) -> tuple[np.ndarray, list]:
    """Codes of all N x M profiles respecting the forced cells of the
    zero-price ISPs ``zero``, ascending, and the free cells, CP by CP, each
    with its bit in a profile's row of that array (see :func:`_stable`)."""
    forced = _forced(n, m, zero)
    free = _free_cells(n, m, forced)
    # Row t holds the free cells' bits in the order of the codes, first
    # free cell most significant, so codes ascend with t and a flip is t ^ step.
    mask = sum(cell_bit(i, j, n, m) for i, j in forced)
    codes = np.flatnonzero(np.arange(1 << (n * m)) & mask == mask)
    return codes, [((i, j), 1 << (len(free) - 1 - rank)) for rank, (i, j) in enumerate(free)]


def enumerate_zre(config: MarketConfig) -> ZreResult:
    """Exhaustively enumerate all equilibria and select one.

    When no equilibrium exists the status is NO_ZRE (the market is assumed
    to behave as if zero-rating were unavailable).  Pressure flags are
    computed only for the selected profile.  This is the one-cell case of
    :func:`solve_grid`.
    """
    return solve_grid(config, [(p,) for p in config.p])[0][2]


def _last_argmax(values: Sequence[float]) -> int:
    # The largest value wins (the highest-value CP, the most expensive
    # ISP); ties go to the later index, mirroring the convention that the
    # second provider is the tie-breaker.
    return len(values) - 1 - values[::-1].index(max(values))


def select_zre(all_zre: Sequence[StrategyMatrix], config: MarketConfig) -> StrategyMatrix:
    """Deterministic tie-break among equilibria.

    Maximizes, in order: total zero-rated relations; relations of the
    highest-value CP; relations of the last ISP; then the lowest binary
    encoding settles anything left.
    """
    if not all_zre:
        raise ContractViolation("select_zre requires a nonempty equilibrium set")
    for theta in all_zre:
        _check_dims(config, theta)
    codes = [theta.encoding() for theta in all_zre]
    cells = profile_cells(codes, config.n_cps, config.n_isps)
    return all_zre[_order(config, codes, cells)[-1]]


def _order(config: MarketConfig, codes, cells: np.ndarray) -> np.ndarray:
    """The indices that sort the distinct profile ``codes`` (with their
    ``cells``) into the :func:`select_zre` order, the winner last.  The key
    reads only q and the code, so the winner among any subset is its last."""
    codes = np.asarray(codes, dtype=np.int64)
    hv, last = cells[:, _last_argmax(config.q)].sum(axis=1), cells[:, :, -1].sum(axis=1)
    return np.lexsort((-codes, last, hv, cells.sum(axis=(1, 2))))


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
    _check_dims(config, selected)
    _check_forced(selected, forced_cells(config))
    counterfactual, codes = _counterfactuals(config.n_cps, config.n_isps, _zero_isps(config.p))
    u = code_scores(config, codes)[0].T[..., None]
    chosen, tol = np.array([selected.encoding()]), GAIN_TOL * config.total_users
    return tuple(_pressure(u, codes, chosen, counterfactual, tol)[0].tolist())


def _counterfactuals(n: int, m: int, zero: tuple[bool, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Codes ``[b, i]`` of every row ``b`` CP ``i`` can choose alone in its
    counterfactual market (see :func:`detect_pressure`): the forced cells of
    ``zero`` plus a row of CP ``i`` over the other ISPs, and those codes
    distinct and ascending.  Row 0 holds only the forced cells and the last
    row every free cell of CP ``i``.  These are profiles of :func:`_profiles`."""
    # A CP's cells are m consecutive bits of a code (see cell_bit).
    forced = sum(1 << (m - 1 - j) for j in range(m) if zero[j])
    rows = np.flatnonzero(np.arange(1 << m) & forced == 0)[:, None]
    codes = forced * sum(1 << (m * i) for i in range(n)) + (rows << (m * np.arange(n)[::-1]))
    # Not np.unique: it imports numpy.ma, which a sweep otherwise never loads.
    return codes, np.array(sorted(set(codes.ravel().tolist())))


def _pressure(u, codes, chosen, counterfactual, tol: float) -> np.ndarray:
    """Pressure flags ``[l, i]`` of the selected profiles ``chosen[l]`` (see
    :func:`detect_pressure`), from the utilities ``u[i, k, l]`` of the
    profiles ``codes``, ascending, which include every row of
    ``counterfactual`` (see :func:`_counterfactuals`), with the gain margin
    ``tol``, GAIN_TOL times total_users.  A CP holding no free relation
    keeps them all in every row and is never flagged; CPs' free cells are
    distinct bits, so a CP has a competitor exactly when the sum of all
    CPs' held bits exceeds its own."""
    free = counterfactual[-1] ^ counterfactual[0]
    held = free[:, None] & chosen
    keep = (counterfactual[..., None] & held) == held
    # [b, i, l], markets innermost as in the scores (see _scores).
    rows = u[np.arange(len(free)), np.searchsorted(codes, counterfactual)]
    dropping = np.where(keep, -np.inf, rows).max(axis=0)
    keeping = np.where(keep, rows, -np.inf).max(axis=0)
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
    _check_dims(config, start)
    forced = forced_cells(config)
    _check_forced(start, forced)
    n, m = config.n_cps, config.n_isps
    agents = [("cp", i) for i in range(n)] + [("isp", j) for j in range(m)]
    tol = GAIN_TOL * config.total_users

    def trace(outcome: DynamicsOutcome, cycle_start: int | None = None) -> BestResponseTrace:
        path = tuple(_matrix(code, config) for code in visited)
        return BestResponseTrace(outcome, path, len(visited) - 1, cycle_start)

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

        kind, idx = agents[pos]
        own = [(idx, j) for j in range(m)] if kind == "cp" else [(i, idx) for i in range(n)]
        cells = [cell for cell in own if cell not in forced]
        u, r = code_scores(config, [state] + [state ^ cell_bit(i, j, n, m) for i, j in cells])
        best_gain, best_cell = tol, None
        for k, (i, j) in enumerate(cells, start=1):
            cp_gain, isp_gain = u[k, i] - u[0, i], r[k, j] - r[0, j]
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
    u, r = _scores(config, table, along[:ndim // 2], along[ndim // 2:])
    stable = _stable(u, r, steps, tol)
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

    One profile table (see :class:`~zrsim.payoff.ProfileTable`) and one
    tie-break rank, which read neither prices nor discounts, serve the grid.
    The profiles read only which ISPs have price zero, and the cells of a
    zero pattern form a box of axis positions (so axes may repeat or reorder
    values), solved in sub-boxes of whole cells (see
    :func:`~zrsim.market.sub_boxes`) times the discount axes, in stages that
    pass arrays: :func:`_axes` checks and guards, :func:`_box` scores each
    market once (a cell too large for one block in parts of its discount
    box), :func:`_nash` picks each cell's discount profile, and pressure is
    flagged at its selected market only.  Cells with one outcome share one
    :class:`ZreResult`, those without an equilibrium or a discount
    equilibrium the NO_ZRE one, and each distinct matrix in them is built
    once, from its row of the table's cells.  A group reads its cells'
    rows and tie ISPs through one gather of the cell index.  No payoff of
    either world is returned.

    Raises InvalidArgument without one nonempty axis per ISP, ConfigError
    when a discount or a price lies outside [0, 1], then CapacityError when
    a cell needs more than ``EVALUATION_GUARD`` profile evaluations, all
    before any allocation.
    """
    n, m = config.n_cps, config.n_isps
    axes, delta_axes = _axes(config, p_grid, delta_grid)
    groups = {
        zero: [[k for k, v in enumerate(axis) if (v == 0.0) == z] for axis, z in zip(axes, zero)]
        for zero in itertools.product(*({v == 0.0 for v in axis} for axis in axes))
    }
    profiles = {zero: _profiles(n, m, zero) for zero in groups}
    used = np.zeros(1 << (n * m), dtype=bool)
    for codes, _ in profiles.values():
        used[codes] = True
    all_codes = np.flatnonzero(used)
    cells = profile_cells(all_codes, n, m)
    rank, table = np.argsort(_order(config, all_codes, cells)), profile_table(config, cells)

    no_zre = ZreResult(ZreStatus.NO_ZRE, (), None, (False,) * n)
    unsolved = config.delta if delta_grid is None else None
    solved = [(row, unsolved, no_zre) for row in itertools.product(*axes)]
    # Each cell's row in ``solved`` and, by that row, its most expensive
    # ISP, the later one on equal prices (as _last_argmax), which orders its
    # Nash profiles.
    index = np.arange(len(solved)).reshape(tuple(map(len, axes)))
    tie = m - 1 - np.array([row for row, _, _ in solved])[:, ::-1].argmax(axis=1)
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
    matrix = functools.cache(lambda row: StrategyMatrix(cells[row].tolist()))
    tol = GAIN_TOL * config.total_users
    for zero, box in groups.items():
        codes, steps = profiles[zero]
        # The group's rows in the table and in the select_zre order; a group
        # of every row scores the table itself, not a copy.
        rows = np.searchsorted(all_codes, codes)
        order = np.argsort(rank[rows])
        whole = len(rows) == len(all_codes)
        group_table = table if whole else ProfileTable(*(column[rows] for column in table))
        counterfactual, cf_codes = _counterfactuals(n, m, zero)
        group = (group_table, order, steps, np.searchsorted(codes, cf_codes))
        box_prices = [np.take(axis, positions) for axis, positions in zip(axes, box)]
        box_index = index[np.ix_(*box)]
        box_tie = tie[box_index]
        # A zero-price ISP's delta multiplies p = 0, so every value gives the
        # same market; only the largest, which the selection prefers, is
        # solved.  Its axis then has no deviation to gain from.
        cut = tuple(slice(-1, None) if free else slice(None) for free in zero)
        d_axes = [axis[c] for axis, c in zip(delta_axes, cut)]
        deltas = list(itertools.product(*d_axes))
        group_prefer = prefer[(slice(None), *cut)].reshape(m, -1)
        # A market holds K x N utilities; revenues span their ISP's axes only.
        d_shape, entries = tuple(map(len, d_axes)), len(codes) * n
        # Sub-boxes hold whole cells, so that the Nash test of a cell sees all
        # of its discount profiles; a cell too large for a block is scored in
        # parts of its discount box, each written to the sub-box's arrays.
        for sub in sub_boxes(box_index.shape, len(deltas) * entries):
            prices, cell_ks = [v[s] for v, s in zip(box_prices, sub)], box_index[sub]
            shape = cell_ks.shape + d_shape
            stable, selected = np.empty((len(codes),) + shape, bool), np.empty(shape, np.int64)
            revenue, u_cf = np.empty(shape + (m,)), np.empty((n, len(cf_codes)) + shape)
            for part in sub_boxes(d_shape, cell_ks.size * entries):
                put = (..., *part)
                stable[put], selected[put], revenue[put + (slice(None),)], u_cf[put] = _box(
                    config, *group, prices, [a[s] for a, s in zip(d_axes, part)], tol
                )
            found, star = _nash(revenue, group_prefer[box_tie[sub].ravel()], tol)
            if not len(found):
                continue
            at = found * len(deltas) + star
            chosen = selected.ravel()[at]
            held = stable.reshape(len(codes), -1)[:, at].T
            pressure = _pressure(
                u_cf.reshape(n, len(cf_codes), -1)[:, :, at], cf_codes, codes[chosen],
                counterfactual, tol,
            )
            # One result per distinct outcome, shared by the cells that have it.
            results, outcomes = {}, np.hstack([held, pressure])
            for f, k in enumerate(cell_ks.ravel()[found].tolist()):
                if (key := outcomes[f].tobytes()) not in results:
                    results[key] = ZreResult(
                        ZreStatus.EQUILIBRIA_FOUND, tuple(map(matrix, rows[held[f]].tolist())),
                        matrix(int(rows[chosen[f]])), tuple(pressure[f].tolist()),
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
    This is the one-cell case of :func:`solve_grid`.
    """
    [(_, delta, zre)] = solve_grid(config, [(p,) for p in config.p], delta_grid)
    return DiscountOutcome(delta, None if delta is None else zre)
