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
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapacityError, ContractViolation, InvalidArgument
from .market import MarketConfig, StrategyMatrix
from .payoff import payoffs

ENUMERATION_CELL_GUARD = 20
DEFAULT_DELTA_GRID = tuple(k / 10 for k in range(11))
# Work guard for the discount game: delta profiles x strategy profiles.
DISCOUNT_WORK_GUARD = 2_000_000
# A deviation "gains" only when it beats the current payoff by more than
# this margin.  Grid parameterizations produce exact analytic payoff ties;
# the margin keeps tie verdicts stable across arithmetically different but
# equivalent evaluation routes (float noise is ~1e-16, real gaps >= ~1e-3).
GAIN_TOL = 1e-9


class ZreStatus(enum.Enum):
    EQUILIBRIA_FOUND = "EQUILIBRIA_FOUND"
    NO_ZRE = "NO_ZRE"


class DiscountStatus(enum.Enum):
    EQUILIBRIUM_FOUND = "EQUILIBRIUM_FOUND"
    NO_DISCOUNT_EQUILIBRIUM = "NO_DISCOUNT_EQUILIBRIUM"


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
    """Selected discount profile of the ISP discount game."""

    status: DiscountStatus
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
    return frozenset(
        (i, j)
        for j in range(config.n_isps)
        if config.p[j] == 0.0
        for i in range(config.n_cps)
    )


def _check_forced(theta: StrategyMatrix, forced: frozenset[tuple[int, int]]) -> None:
    for i, j in forced:
        if theta.rows[i][j] != 1:
            raise InvalidArgument(f"cell ({i}, {j}) must be 1 because the ISP price is 0")


def _totals(config: MarketConfig, theta: StrategyMatrix) -> tuple[np.ndarray, np.ndarray]:
    pv = payoffs(config, theta)
    return pv.cp_utility, pv.isp_revenue


class _TotalsMemo:
    """Payoff totals memoized per strategy profile for one config."""

    def __init__(self, config: MarketConfig):
        self.config = config
        self._cache: dict[tuple[tuple[int, ...], ...], tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, theta: StrategyMatrix) -> tuple[np.ndarray, np.ndarray]:
        hit = self._cache.get(theta.rows)
        if hit is None:
            hit = _totals(self.config, theta)
            self._cache[theta.rows] = hit
        return hit


def _is_stable(
    theta: StrategyMatrix,
    forced: frozenset[tuple[int, int]],
    totals: Callable[[StrategyMatrix], tuple[np.ndarray, np.ndarray]],
) -> bool:
    base_u, base_r = totals(theta)
    for i in range(theta.n_cps):
        for j in range(theta.n_isps):
            if (i, j) in forced:
                continue
            flip_u, flip_r = totals(theta.flip(i, j))
            cp_gains = flip_u[i] > base_u[i] + GAIN_TOL
            isp_gains = flip_r[j] > base_r[j] + GAIN_TOL
            if theta.rows[i][j] == 1:
                if cp_gains or isp_gains:
                    return False
            elif cp_gains and isp_gains:
                return False
    return True


def is_zre(config: MarketConfig, theta: StrategyMatrix) -> bool:
    """Whether ``theta`` is a zero-rating equilibrium of ``config``."""
    forced = forced_cells(config)
    _check_forced(theta, forced)
    return _is_stable(theta, forced, _TotalsMemo(config))


def _enumerate_profiles(config: MarketConfig) -> Iterable[StrategyMatrix]:
    """All profiles respecting forced cells, ascending by binary encoding."""
    n, m = config.n_cps, config.n_isps
    cells = n * m
    if cells > ENUMERATION_CELL_GUARD:
        raise CapacityError(
            f"{cells} cells exceed the exhaustive enumeration guard of {ENUMERATION_CELL_GUARD}"
        )
    forced = forced_cells(config)
    free = [(i, j) for i in range(n) for j in range(m) if (i, j) not in forced]
    template = [[1 if (i, j) in forced else 0 for j in range(m)] for i in range(n)]
    for bits in itertools.product((0, 1), repeat=len(free)):
        flat = [row[:] for row in template]
        for (i, j), b in zip(free, bits):
            flat[i][j] = b
        yield StrategyMatrix(tuple(tuple(row) for row in flat))


def enumerate_zre(config: MarketConfig) -> ZreResult:
    """Exhaustively enumerate all equilibria and select one.

    When no equilibrium exists the status is NO_ZRE (the market is assumed
    to behave as if zero-rating were unavailable).  Pressure flags are
    computed only for the selected profile.
    """
    forced = forced_cells(config)
    totals = _TotalsMemo(config)
    found = [
        theta for theta in _enumerate_profiles(config) if _is_stable(theta, forced, totals)
    ]
    if not found:
        return ZreResult(
            status=ZreStatus.NO_ZRE,
            all_zre=(),
            selected=None,
            pressure=(False,) * config.n_cps,
        )
    found.sort(key=lambda t: t.encoding())
    selected = select_zre(found, config)
    pressure = detect_pressure(config, selected)
    return ZreResult(
        status=ZreStatus.EQUILIBRIA_FOUND,
        all_zre=tuple(found),
        selected=selected,
        pressure=pressure,
    )


def _high_value_cp(config: MarketConfig) -> int:
    # Highest q wins; ties go to the later index, mirroring the convention
    # that the second provider is the tie-breaker.
    best = 0
    for i in range(1, config.n_cps):
        if config.q[i] >= config.q[best]:
            best = i
    return best


def select_zre(all_zre: Sequence[StrategyMatrix], config: MarketConfig) -> StrategyMatrix:
    """Deterministic tie-break among equilibria.

    Maximizes, in order: total zero-rated relations; relations of the
    highest-value CP; relations of the last ISP; then the lowest binary
    encoding settles anything left.
    """
    if not all_zre:
        raise ContractViolation("select_zre requires a nonempty equilibrium set")
    hv = _high_value_cp(config)
    last_col = config.n_isps - 1

    def key(theta: StrategyMatrix) -> tuple[int, int, int, int]:
        return (
            theta.count_ones(),
            sum(theta.rows[hv]),
            sum(row[last_col] for row in theta.rows),
            -theta.encoding(),
        )

    return max(all_zre, key=key)


def detect_pressure(config: MarketConfig, selected: StrategyMatrix) -> tuple[bool, ...]:
    """Which CPs hold zero-rating relations only because their competitors do.

    ``selected`` must be an equilibrium.  Pressure needs a competitor: some
    other CP must hold a freely-chosen relation in ``selected``.  The
    counterfactual market removes every other CP's relations (cells forced
    by zero prices stay) and CP ``i`` is under pressure when, alone in that
    market, it strictly prefers some row that drops at least one of its
    selected relations over every row that keeps them all: the relation
    survives only in response to the competition.  Indifference keeps the
    relation (deviations "gain" only past GAIN_TOL, as everywhere).  Forced
    cells are not choices and never count.
    """
    forced = forced_cells(config)
    _check_forced(selected, forced)
    n, m = config.n_cps, config.n_isps
    counterfactual = StrategyMatrix(
        tuple(tuple(1 if (r, j) in forced else 0 for j in range(m)) for r in range(n))
    )
    free_cols = [j for j in range(m) if config.p[j] != 0.0]
    free_relations = [
        [j for j in range(m) if selected.rows[i][j] == 1 and (i, j) not in forced]
        for i in range(n)
    ]
    flags = []
    for i in range(n):
        own_free = free_relations[i]
        competitor_active = any(free_relations[k] for k in range(n) if k != i)
        if not own_free or not competitor_active:
            flags.append(False)
            continue
        u_keep = -np.inf
        u_drop = -np.inf
        for bits in itertools.product((0, 1), repeat=len(free_cols)):
            row = list(counterfactual.rows[i])
            for j, b in zip(free_cols, bits):
                row[j] = b
            u = _totals(config, counterfactual.with_row(i, tuple(row)))[0][i]
            if all(row[j] == 1 for j in own_free):
                u_keep = max(u_keep, u)
            else:
                u_drop = max(u_drop, u)
        flags.append(u_drop > u_keep + GAIN_TOL)
    return tuple(flags)


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
    forced = forced_cells(config)
    _check_forced(start, forced)
    n, m = config.n_cps, config.n_isps
    agents: list[tuple[str, int]] = [("cp", i) for i in range(n)] + [
        ("isp", j) for j in range(m)
    ]
    totals = _TotalsMemo(config)

    state = start
    visited = [start]
    moves = 0
    seen: dict[tuple[int, tuple[tuple[int, ...], ...]], int] = {}
    for step in range(max_steps):
        pos = step % len(agents)
        key = (pos, state.rows)
        if key in seen:
            changed_since = any(v.rows != state.rows for v in visited[seen[key]:])
            # A repeated (turn, profile) pair makes the deterministic run
            # periodic; no intervening change means every agent passed.
            if changed_since:
                return BestResponseTrace(
                    outcome=DynamicsOutcome.CYCLE,
                    visited=tuple(visited),
                    moves=moves,
                    cycle_start=seen[key],
                )
            return BestResponseTrace(
                outcome=DynamicsOutcome.FIXED_POINT, visited=tuple(visited), moves=moves
            )
        seen[key] = len(visited) - 1

        kind, idx = agents[pos]
        cells = (
            [(idx, j) for j in range(m)] if kind == "cp" else [(i, idx) for i in range(n)]
        )
        base_u, base_r = totals(state)
        best_gain = GAIN_TOL
        best_cell = None
        for i, j in cells:
            if (i, j) in forced:
                continue
            flip_u, flip_r = totals(state.flip(i, j))
            own_gain = (flip_u[i] - base_u[i]) if kind == "cp" else (flip_r[j] - base_r[j])
            if own_gain <= GAIN_TOL:
                continue
            if state.rows[i][j] == 0:
                other_gain = (flip_r[j] - base_r[j]) if kind == "cp" else (flip_u[i] - base_u[i])
                if other_gain <= GAIN_TOL:
                    continue
            if own_gain > best_gain:
                best_gain = own_gain
                best_cell = (i, j)
        if best_cell is not None:
            state = state.flip(*best_cell)
            visited.append(state)
            moves += 1
    return BestResponseTrace(
        outcome=DynamicsOutcome.INCONCLUSIVE, visited=tuple(visited), moves=moves
    )


def _expensive_isp(config: MarketConfig) -> int:
    best = 0
    for j in range(1, config.n_isps):
        if config.p[j] >= config.p[best]:
            best = j
    return best


def discount_equilibrium(
    config: MarketConfig, delta_grid: Sequence[float] = DEFAULT_DELTA_GRID
) -> DiscountOutcome:
    """Solve the ISP discount game over a discrete grid.

    A discount profile is a Nash equilibrium when it admits an equilibrium
    strategy profile and no ISP can raise its revenue by a unilateral grid
    deviation that also admits one; each profile's revenues are evaluated at
    its tie-break-selected strategy profile.  Among Nash profiles the
    largest is chosen: by total discount, then by the component of the most
    expensive ISP (later index on equal prices), then by the later ISPs'
    components.
    """
    if not delta_grid:
        raise InvalidArgument("delta_grid must be nonempty")
    grid = _as_sorted_unique(delta_grid)
    m = config.n_isps
    work = len(grid) ** m * (1 << (config.n_cps * m))
    if work > DISCOUNT_WORK_GUARD:
        raise CapacityError(
            f"discount game needs {work} profile evaluations, above the guard "
            f"of {DISCOUNT_WORK_GUARD}"
        )

    # A zero-price ISP's delta multiplies p = 0, so every value gives the
    # same market; only the largest, which the selection below prefers,
    # is solved.  Its deviations then find no revenue and are skipped.
    axes = [grid[-1:] if config.p[j] == 0.0 else grid for j in range(m)]
    results: dict[tuple[float, ...], ZreResult] = {}
    revenues: dict[tuple[float, ...], np.ndarray] = {}
    for delta in itertools.product(*axes):
        candidate = config.with_delta(delta)
        result = enumerate_zre(candidate)
        if result.status is ZreStatus.EQUILIBRIA_FOUND:
            results[delta] = result
            revenues[delta] = payoffs(candidate, result.selected).isp_revenue

    nash: list[tuple[float, ...]] = []
    for delta, rev in revenues.items():
        stable = True
        for j in range(m):
            for alt in grid:
                if alt == delta[j]:
                    continue
                deviation = delta[:j] + (alt,) + delta[j + 1 :]
                dev_rev = revenues.get(deviation)
                if dev_rev is not None and dev_rev[j] > rev[j] + GAIN_TOL:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            nash.append(delta)

    if not nash:
        return DiscountOutcome(
            status=DiscountStatus.NO_DISCOUNT_EQUILIBRIUM, delta_star=None, zre=None
        )
    tie_breaker = _expensive_isp(config)
    delta_star = max(
        nash, key=lambda d: (sum(d), d[tie_breaker], tuple(reversed(d)))
    )
    return DiscountOutcome(
        status=DiscountStatus.EQUILIBRIUM_FOUND,
        delta_star=delta_star,
        zre=results[delta_star],
    )


def _as_sorted_unique(values: Sequence[float]) -> tuple[float, ...]:
    return tuple(sorted({float(v) for v in values}))
