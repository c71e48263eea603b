"""Relabelling and scaling invariants of the grid engine.

The model names no provider, so renaming the ISPs (with their prices,
discounts, baseline shares and price axes) or the CPs (with their values
and the bundle masks of phi) must map every cell's equilibrium set onto
the renamed cell.  At fixed delta only sets are compared: the engine's
"last ISP" tie-break reads the labels by design.  In the discount game each
cell's delta* and selected profile are compared too, except at the cells
where that tie-break decides the outcome, pinned below.  Scaling
``total_users`` scales every payoff and the gain margin alike, so it must
change no verdict.
"""

import itertools
from dataclasses import replace
from pathlib import Path

import pytest

from zrsim import MarketConfig, grid_sweep, load_scenario
from zrsim.equilibrium import solve_grid

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "zrsim" / "scenarios"


def _relabelled(config: MarketConfig, isps: tuple[int, ...], cps: tuple[int, ...]) -> MarketConfig:
    """``config`` with new ISP j the old ISP ``isps[j]`` and new CP i the old
    CP ``cps[i]``."""
    masks = [
        sum(1 << cps[i] for i in range(config.n_cps) if s >> i & 1)
        for s in range(config.lattice_size)
    ]
    return replace(
        config,
        q=[config.q[i] for i in cps],
        p=[config.p[j] for j in isps],
        delta=[config.delta[j] for j in isps],
        phi=[config.phi[old] for old in masks],
        psi=[config.psi[0]] + [config.psi[1 + j] for j in isps],
    )


def _equilibrium_sets(config, price_grid) -> dict:
    return {prices: set(zre.all_zre) for prices, _, zre in solve_grid(config, price_grid)}


def test_fixed_delta_equilibrium_sets_map_under_relabelling():
    # Every ISP and every CP permutation of the nine fixed-discount shipped
    # scenarios, the identity included: 9 x 121 cells x 4 labellings.
    scenarios = [load_scenario(path) for path in sorted(SCENARIOS.glob("*.json"))]
    scenarios = [scenario for scenario in scenarios if scenario.delta_grid is None]
    assert len(scenarios) == 9
    compared = 0
    for scenario in scenarios:
        config, grid = scenario.config, scenario.price_grid
        original = _equilibrium_sets(config, grid)
        for isps in itertools.permutations(range(config.n_isps)):
            for cps in itertools.permutations(range(config.n_cps)):
                renamed = _equilibrium_sets(
                    _relabelled(config, isps, cps), [grid[j] for j in isps]
                )
                assert len(renamed) == len(original)
                for prices, found in original.items():
                    mapped = {
                        tuple(tuple(theta.rows[i][j] for j in isps) for i in cps)
                        for theta in found
                    }
                    cell = tuple(prices[j] for j in isps)
                    assert {theta.rows for theta in renamed[cell]} == mapped, (
                        scenario, isps, cps, prices,
                    )
                    compared += 1
    assert compared == 4356


def test_total_users_scaling_changes_no_verdict():
    # Every shipped scenario, each in its own mode, at four market sizes:
    # the verdicts and the share and Herfindahl deltas read no payoff scale.
    # At 1e-6 an unscaled gain margin changes cells in most scenarios.
    compared = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(path)
        config, grid, deltas = scenario.config, scenario.price_grid, scenario.delta_grid
        unscaled = grid_sweep(config, grid, deltas)
        for factor in (1e-6, 1e-3, 7.0, 1e6):
            scaled = replace(config, total_users=config.total_users * factor)
            for base, record in zip(unscaled, grid_sweep(scaled, grid, deltas), strict=True):
                fields = (record.discounts, record.zre, record.delta_share, record.delta_hhi)
                assert fields == (base.discounts, base.zre, base.delta_share, base.delta_hhi), (
                    path.name, factor, base.prices,
                )
                compared += 1
    assert compared == 10 * 4 * 121


@pytest.mark.parametrize(
    "cell, mirror",
    [
        # The ISPs of discount_game.json are symmetric.  In cell (0.3, 0.5)
        # at delta (1.0, 0.6) the equilibria 0111 and 1011 tie on the first
        # two keys, and "relations of the last ISP" picks 0111 under both
        # labellings.
        ((0.3, 0.5), ((1.0, 1.0), "0111")),
        ((0.3, 0.6), ((0.9, 1.0), "0111")),
    ],
)
def test_tie_break_decides_discount_equilibrium_by_label(cell, mirror):
    # A cell is NODEQ while its mirror image selects a discount profile.
    scenario = load_scenario(SCENARIOS / "discount_game.json")
    solved = {
        prices: (discounts, zre.selected)
        for prices, discounts, zre in solve_grid(scenario.config, [cell, cell], scenario.delta_grid)
    }
    assert solved[cell] == (None, None)
    discounts, selected = solved[cell[::-1]]
    assert (discounts, selected.bitstring()) == mirror


def test_tie_break_selects_the_same_profile_in_mirror_cells():
    # bandwidth_high.json: (0.5, 0.6) and (0.6, 0.5) both have the
    # equilibria {0001, 0010}; the last ISP's relation wins in both, whichever
    # ISP is the pricier.
    scenario = load_scenario(SCENARIOS / "bandwidth_high.json")
    grid = [(0.5, 0.6), (0.5, 0.6)]
    solved = {prices: zre for prices, _, zre in solve_grid(scenario.config, grid)}
    for cell in ((0.5, 0.6), (0.6, 0.5)):
        assert {theta.bitstring() for theta in solved[cell].all_zre} == {"0001", "0010"}
        assert solved[cell].selected.bitstring() == "0001"


def _discount_outcomes(config, price_grid, delta_grid) -> dict:
    return {
        prices: (delta, zre.selected and zre.selected.rows)
        for prices, delta, zre in solve_grid(config, price_grid, delta_grid)
    }


def test_discount_game_outcomes_map_under_relabelling():
    # discount_game.json under every ISP and CP permutation: each cell's
    # delta*, NODEQ verdict (delta* None) and selected profile map onto the
    # renamed cell, except where the "last ISP" tie-break decides, at the
    # cells pinned above and their mirrors, and so only when the ISPs swap.
    scenario = load_scenario(SCENARIOS / "discount_game.json")
    config, grid, deltas = scenario.config, scenario.price_grid, scenario.delta_grid
    original = _discount_outcomes(config, grid, deltas)
    by_label = {(0.3, 0.5), (0.3, 0.6), (0.5, 0.3), (0.6, 0.3)}
    for isps in itertools.permutations(range(config.n_isps)):
        for cps in itertools.permutations(range(config.n_cps)):
            renamed = _discount_outcomes(
                _relabelled(config, isps, cps), [grid[j] for j in isps], deltas
            )
            assert len(renamed) == len(original) == 121
            unmapped = set()
            for prices, (delta, rows) in original.items():
                mapped = (
                    delta and tuple(delta[j] for j in isps),
                    rows and tuple(tuple(rows[i][j] for j in isps) for i in cps),
                )
                if renamed[tuple(prices[j] for j in isps)] != mapped:
                    unmapped.add(prices)
            assert unmapped == (set() if isps == (0, 1) else by_label), (isps, cps)
