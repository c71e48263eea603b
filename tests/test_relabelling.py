"""Relabelling invariants of the grid engine.

The model names no provider, so renaming the ISPs (with their prices,
discounts, baseline shares and price axes) or the CPs (with their values
and the bundle masks of phi) must map every cell's equilibrium set onto
the renamed cell.  Only sets are compared: ``select_zre``'s "last ISP"
tie-break reads the labels by design.
"""

import itertools
from dataclasses import replace
from pathlib import Path

from zrsim import MarketConfig, load_scenario
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
