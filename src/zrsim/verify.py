"""Scenario verification battery.

Runs the executable invariants of the model against one scenario: closed
form vs. brute-force oracle agreement, the Herfindahl identities, the
concentration and utility monotonicity statements, the value-ordering
pruning rule, and (when the scenario records them) the expected
no-equilibrium price cells.  Each check reports pass/fail with a short
detail line; checks whose preconditions the scenario does not meet are
skipped.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .analysis import SweepRecord, _hhi, grid_sweep, hhi_variance_identity
from .equilibrium import _last_argmax
from .market import (
    MarketConfig, StrategyMatrix, _members, _rho, allocations, cp_totals, profile_cells
)
from .oracle import oracle_allocate, oracle_equilibria, oracle_equilibria_among
from .scenario import Scenario

ORACLE_TOL = 1e-12
HHI_TOL = 1e-12
# Seeds the battery's own draws, the inputs of the two HHI identity checks
# and the fallback sample of ``oracle-equilibrium``, each from a fresh
# ``random.Random``: numpy's generators would import ``numpy.random``, about
# 18 ms, into every ``zrsim verify``.
VERIFY_SEED = 20240517
# The most oracle work ``oracle-equilibrium`` spends on comparing every
# profile of every cell, counted in deviation tests: each compared profile
# makes one per cell (N x M), and allocating a profile costs about 3 per
# (bundle, ISP) pair of its 2^N x (M + 1) lattice.  A test takes 0.5 to
# 0.8 us on a 2-core x86 host, so the budget is 0.25 to 0.4 s; above it
# the check compares a seeded sample.
ORACLE_PROFILE_BUDGET = 500_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None  # None = skipped
    detail: str


def _seeded_market(rng: random.Random) -> SimpleNamespace:
    """The fields of a valid random market of 2-3 CPs and 1-3 ISPs, named
    as :class:`MarketConfig`'s; each price is zero with probability 0.15.
    The draw order fixes the markets, and with them the gap
    ``hhi-all-or-none`` reports, which reads only their shape, alpha, phi
    and psi, so no market is built."""
    n_cps, n_isps = rng.randint(2, 3), rng.randint(1, 3)
    phi = [rng.uniform(0.05, 1.0) for _ in range(1 << n_cps)]
    psi = [rng.uniform(0.05, 1.0) for _ in range(n_isps + 1)]
    p = [0.0 if rng.random() < 0.15 else rng.random() for _ in range(n_isps)]
    alpha, c = rng.random(), rng.uniform(0.05, 1.0)
    q = sorted(rng.random() for _ in range(n_cps))
    delta = [rng.random() for _ in range(n_isps)]
    phi_sum, psi_sum = sum(phi), sum(psi)
    return SimpleNamespace(
        n_cps=n_cps,
        n_isps=n_isps,
        alpha=alpha,
        c=c,
        q=tuple(q),
        p=tuple(p),
        delta=tuple(delta),
        phi=tuple(v / phi_sum for v in phi),
        psi=tuple(v / psi_sum for v in psi),
    )


def _seeded_profile(rng: random.Random, n_cps: int, prices: tuple[float, ...]) -> StrategyMatrix:
    """A random profile of ``n_cps`` rows with the cells of zero-price ISPs
    set to 1, drawn row by row."""
    return StrategyMatrix(
        tuple(
            tuple(1 if price == 0.0 else rng.randint(0, 1) for price in prices)
            for _ in range(n_cps)
        )
    )


def check_oracle_allocation(scenario: Scenario, records: list[SweepRecord]) -> CheckResult:
    # Neither route reads prices or discounts, so every cell's all-zero and
    # selected profiles are compared once each, on the scenario's market.
    config = scenario.config
    selected = {r.zre.selected for r in records if r.zre.selected is not None}
    thetas = list(selected | {StrategyMatrix.zeros(config.n_cps, config.n_isps)})
    cells = profile_cells([theta.encoding() for theta in thetas], config.n_cps, config.n_isps)
    worst = 0.0
    for rho, theta in zip(allocations(config, cells)[0], thetas):
        diff = np.abs(rho - oracle_allocate(config, theta).rho).max()
        worst = max(worst, float(diff))
    ok = worst < ORACLE_TOL
    return CheckResult("oracle-allocation", ok, f"max |rho - oracle rho| = {worst:.3e}")


def check_oracle_equilibrium(scenario: Scenario, records: list[SweepRecord]) -> CheckResult:
    # The engine's verdict on a profile is whether its cell's record holds
    # it.  A NODEQ cell, whose record holds no discount profile, records no
    # equilibrium because no discount profile is Nash, not because no
    # profile is stable, so it is skipped and counted.  Each other cell
    # compares one set of profiles: every valid one when all of them fit
    # ORACLE_PROFILE_BUDGET, otherwise its recorded equilibria and a seeded
    # sample of 3 (drawn for skipped cells too, so the draws do not depend
    # on the skips), each distinct profile once.  A profile in only one of
    # the record and the oracle's equilibria disagrees once, a recorded one
    # that breaks a forced cell included.  Each compared cell's market is
    # derived here from the scenario's, validating only its record's prices
    # and discounts: no other check reads more than prices.
    config = scenario.config
    n, m = config.n_cps, config.n_isps
    keep = [record.discounts is not None for record in records]
    cells = list(itertools.compress(records, keep))
    markets = [config.with_cell(record.prices, record.discounts) for record in cells]
    compared = sum(2 ** (n * sum(price != 0.0 for price in record.prices)) for record in cells)
    work = n * m * compared + 3 * 2**n * (m + 1) * 2 ** (n * m)
    if work <= ORACLE_PROFILE_BUDGET:
        path = "every profile"
        found = oracle_equilibria(markets)
    else:
        path = f"seeded sample (oracle work {work} over {ORACLE_PROFILE_BUDGET})"
        rng = random.Random(VERIFY_SEED)
        draws = [[_seeded_profile(rng, n, r.prices) for _ in range(3)] for r in records]
        among = [
            dict.fromkeys(record.zre.all_zre + tuple(sample))
            for record, sample in zip(cells, itertools.compress(draws, keep))
        ]
        compared = sum(map(len, among))
        found = oracle_equilibria_among(markets, among)
    disagreements = sum(len(set(r.zre.all_zre) ^ set(f)) for r, f in zip(cells, found))
    detail = f"{path}: {compared} verdicts compared, {disagreements} disagreements"
    skipped = len(records) - len(cells)
    if skipped:
        detail += f", {skipped} NODEQ cells skipped"
    return CheckResult("oracle-equilibrium", disagreements == 0, detail)


def check_hhi_identity(scenario: Scenario, records: list[SweepRecord]) -> CheckResult:
    rng = random.Random(VERIFY_SEED)
    worst = 0.0
    for _ in range(200):
        shares = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 5))]
        a, b = hhi_variance_identity(shares)
        worst = max(worst, abs(a - b))
    ok = worst < HHI_TOL
    return CheckResult("hhi-variance-identity", ok, f"max |forms| gap = {worst:.3e}")


def check_hhi_all_or_none(scenario: Scenario, records: list[SweepRecord]) -> CheckResult:
    rng = random.Random(VERIFY_SEED)
    # The scenario's market and the 100 drawn ones, grouped by shape.
    shapes: dict[tuple[int, int], list[MarketConfig | SimpleNamespace]] = {}
    for cfg in [scenario.config] + [_seeded_market(rng) for _ in range(100)]:
        shapes.setdefault((cfg.n_cps, cfg.n_isps), []).append(cfg)
    worst = 0.0
    for (n, m), group in shapes.items():
        # Market k's all-zero and all-one profiles are rows 2k and 2k + 1.
        cells = profile_cells([0, (1 << (n * m)) - 1] * len(group), n, m)
        phi, psi = np.array([cfg.phi for cfg in group]), np.array([cfg.psi for cfg in group])
        baseline = np.repeat(phi[:, :, None] * psi[:, None, :], 2, axis=0)
        alpha = np.repeat([cfg.alpha for cfg in group], 2)[:, None, None]
        h = _hhi(cp_totals(group[0], _rho(cells, _members(n), baseline, alpha)))
        worst = max(worst, float(np.abs(h[::2] - h[1::2]).max()))
    ok = worst < HHI_TOL
    return CheckResult("hhi-all-or-none", ok, f"max |HHI(0) - HHI(1)| gap = {worst:.3e}")


def _ordered_for_concentration(config: MarketConfig) -> bool:
    singles = [config.phi[1 << i] for i in range(config.n_cps)]
    return all(a <= b for a, b in zip(config.q, config.q[1:])) and all(
        a <= b for a, b in zip(singles, singles[1:])
    )


def check_hhi_nondecreasing(scenario: Scenario, records: list[SweepRecord]) -> CheckResult:
    if not _ordered_for_concentration(scenario.config):
        return CheckResult(
            "hhi-nondecreasing", None, "skipped: values/baselines not co-ordered"
        )
    worst = min(record.delta_hhi for record in records)
    ok = worst >= -HHI_TOL
    return CheckResult("hhi-nondecreasing", ok, f"min delta HHI = {worst:.3e}")


def check_low_value_utility_drop(scenario: Scenario, records: list[SweepRecord]) -> CheckResult:
    config = scenario.config
    if config.n_cps == 1:
        return CheckResult("low-value-utility-drop", None, "skipped: single CP")
    if min(config.q) == max(config.q):
        return CheckResult("low-value-utility-drop", None, "skipped: all CP values equal")
    # The engine's high-value CP: on tied top values, the later one.
    low, high = int(np.argmin(config.q)), _last_argmax(config.q)
    # Utilities scale with the market size, so the noise margin does too.
    tol = HHI_TOL * config.total_users
    hits = 0
    for record in records:
        if record.zre.selected is None:
            continue
        rows = record.zre.selected.rows
        if any(rows[low]) or not any(rows[high]):
            continue
        if any(any(rows[i]) for i in range(config.n_cps) if i not in (low, high)):
            continue
        hits += 1
        if not (record.delta_utility[low] < 0.0 and record.delta_utility[high] >= -tol):
            return CheckResult(
                "low-value-utility-drop",
                False,
                f"violated at prices {record.prices}: deltas {record.delta_utility}",
            )
    return CheckResult("low-value-utility-drop", True, f"{hits} qualifying cells checked")


def check_value_ordering_pruning(scenario: Scenario, records: list[SweepRecord]) -> CheckResult:
    config = scenario.config
    scanned = 0
    for record in records:
        for theta in record.zre.all_zre:
            scanned += 1
            for i in range(config.n_cps):
                for k in range(config.n_cps):
                    if config.q[i] >= config.q[k]:
                        continue
                    for j in range(config.n_isps):
                        if theta.rows[i][j] == 1 and theta.rows[k][j] == 0:
                            return CheckResult(
                                "value-ordering-pruning",
                                False,
                                f"prices {record.prices}: {theta.bitstring()} has a "
                                "low-value-only relation",
                            )
    return CheckResult("value-ordering-pruning", True, f"{scanned} equilibria scanned")


def check_expected_no_zre(scenario: Scenario, records: list[SweepRecord]) -> CheckResult:
    if scenario.expected_no_zre is None:
        return CheckResult("no-zre-cells", None, "skipped: no expectation recorded")
    observed = {r.prices for r in records if r.zre.selected is None}
    expected = set(scenario.expected_no_zre)
    ok = observed == expected
    detail = f"observed {sorted(observed)}" if not ok else f"{len(expected)} cells as expected"
    return CheckResult("no-zre-cells", ok, detail)


ALL_CHECKS = (
    check_oracle_allocation,
    check_oracle_equilibrium,
    check_hhi_identity,
    check_hhi_all_or_none,
    check_hhi_nondecreasing,
    check_low_value_utility_drop,
    check_value_ordering_pruning,
    check_expected_no_zre,
)


def run_battery(scenario: Scenario) -> list[CheckResult]:
    """Every check of ``ALL_CHECKS`` on the records ``zrsim sweep`` writes:
    the list :func:`~zrsim.analysis.grid_sweep` returns for the scenario's
    price grid, in the scenario's mode (the discount game on
    ``scenario.delta_grid`` when it has one), one solve shared by every
    check."""
    records = grid_sweep(scenario.config, scenario.price_grid, scenario.delta_grid)
    return [check(scenario, records) for check in ALL_CHECKS]
