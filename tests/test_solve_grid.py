"""The scenario-level driver against a per-cell reference.

The reference solves each cell on its own from ``_profiles``,
``code_scores`` and ``_stable``, selects with conftest's
``tie_break_winner``, flags with ``detect_pressure`` and records both
worlds with ``payoffs`` and the one-profile ``hhi`` of conftest: none of it
runs through :func:`zrsim.equilibrium.solve_grid`.  Price axes hold 0.0, so
every set of zero-price ISPs occurs, and with it every block of the driver.
``detect_pressure`` reads its scores as the driver does, so the driver's
flags are also checked against scores of each counterfactual row.
"""

import inspect
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zrsim import (
    CapacityError,
    ConfigError,
    MarketConfig,
    StrategyMatrix,
    SweepRecord,
    ZreResult,
    analysis,
    detect_pressure,
    discount_equilibrium,
    enumerate_zre,
    equilibrium,
    grid_sweep,
    load_scenario,
    market,
    payoff,
    payoffs,
)
from zrsim.equilibrium import GAIN_TOL
from zrsim.payoff import code_scores

from conftest import hhi, random_config, reference_delta_star, tie_break_winner

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "zrsim" / "scenarios"


def _reference_zre(cell: MarketConfig) -> ZreResult:
    n, m = cell.n_cps, cell.n_isps
    codes, steps = equilibrium._profiles(n, m, tuple(p == 0.0 for p in cell.p))
    u, r = code_scores(cell, codes)
    found = codes[equilibrium._stable(u, r, steps, cell.p, GAIN_TOL * cell.total_users)]
    if not len(found):
        return ZreResult((), None, (False,) * n)
    all_zre = tuple(StrategyMatrix.from_bitstring(format(c, f"0{n * m}b"), n, m) for c in found)
    selected = tie_break_winner(cell, all_zre)
    return ZreResult(all_zre, selected, detect_pressure(cell, selected))


def test_profiles_match_their_definition():
    # The reference above reads _profiles, so it is checked here on its own
    # against its definition, at every zero pattern of every shape of at
    # most 9 cells: the codes are the ascending codes holding every forced
    # cell, flipping a free cell's step flips its bit in the code, and the
    # steps run CP by CP, which _stable's one-CP buffer expects.
    for n, m in ((n, m) for n in range(1, 10) for m in range(1, 10) if n * m <= 9):
        for zero in itertools.product((False, True), repeat=m):
            codes, steps = equilibrium._profiles(n, m, zero)
            forced = sum(
                market.cell_bit(i, j, n, m) for i in range(n) for j in range(m) if zero[j]
            )
            assert codes.tolist() == [c for c in range(1 << (n * m)) if c & forced == forced]
            free = [(i, j) for i in range(n) for j in range(m) if not zero[j]]
            assert sorted(cell for cell, _ in steps) == free
            t = np.arange(len(codes))
            for (i, j), step in steps:
                assert (codes[t ^ step] == codes ^ market.cell_bit(i, j, n, m)).all(), (n, m, zero)
            cps = [i for (i, _), _ in steps]
            assert cps == sorted(cps), (n, m, zero)


def _shares(cell: MarketConfig, theta: StrategyMatrix) -> np.ndarray:
    x_pair = market.allocate(cell, theta).x_pair
    return analysis._shares(market.cp_totals(cell, x_pair[None])[0])


def _reference_record(
    cell: MarketConfig, zre: ZreResult | None, discounts: tuple[float, ...] | None
) -> SweepRecord:
    n = cell.n_cps
    if zre is None:
        zre = ZreResult((), None, (False,) * n)
    if zre.selected is None:
        zeros = (0.0,) * n
        return SweepRecord(cell.p, discounts, zre, zeros, zeros, 0.0)
    base, sel = StrategyMatrix.zeros(n, cell.n_isps), zre.selected
    return SweepRecord(
        prices=cell.p,
        discounts=discounts,
        zre=zre,
        delta_utility=tuple(
            float(v) for v in payoffs(cell, sel).cp_utility - payoffs(cell, base).cp_utility
        ),
        delta_share=tuple(float(v) for v in _shares(cell, sel) - _shares(cell, base)),
        delta_hhi=hhi(cell, sel) - hhi(cell, base),
    )


def _reference_discount(cell: MarketConfig, grid: tuple[float, ...]) -> SweepRecord:
    axes = [grid[-1:] if p == 0.0 else grid for p in cell.p]
    star = reference_delta_star(cell, axes, lambda at: _reference_zre(at).selected)
    if star is None:
        return _reference_record(cell, None, None)
    at = replace(cell, delta=star)
    return _reference_record(at, _reference_zre(at), star)


def _cases():
    rng = np.random.default_rng(41)
    high = load_scenario(SCENARIOS / "bandwidth_high.json").config
    bench = load_scenario(SCENARIOS / "benchmark.json").config
    # (config, price axes, discount grid); bandwidth_high at (0.3, 0.3)
    # has no equilibrium and the benchmark at (0.6, 0.8) no discount
    # equilibrium on this grid.
    cases = [
        (high, ((0.0, 0.3), (0.0, 0.3)), (0.5, 1.0)),
        (bench, ((0.0, 0.6), (0.0, 0.8)), (0.2, 0.6, 1.0)),
    ]
    for n, m, count in ((2, 2, 3), (2, 3, 2), (3, 3, 1)):
        for _ in range(count):
            config = random_config(rng, n, m)
            axes = tuple((0.0, float(rng.uniform(0.05, 1.0))) for _ in range(m))
            cases.append((config, axes, (0.5, 1.0)))
    # 0.0 at the front, in the middle and twice, so that a later ISP's zero
    # falls inside an earlier ISP's block; then an axis holding only 0.0, so
    # that no block is all-positive and the blocks force different cells.
    for n in (3, 2):
        config = random_config(rng, n, 3)
        a, b, c, d = (float(v) for v in rng.uniform(0.05, 1.0, size=4))
        cases.append((config, ((0.0, a), (b, 0.0, c), (0.0, d, 0.0)), (0.5, 1.0)))
    config = random_config(rng, 3, 3)
    a, b = (float(v) for v in rng.uniform(0.05, 1.0, size=2))
    cases.append((config, ((a, 0.0), (b, 0.0), (0.0,)), (0.5, 1.0)))
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def references():
    out = []
    for config, axes, grid in CASES:
        cells = [config.with_prices(prices) for prices in itertools.product(*axes)]
        zres = [_reference_zre(cell) for cell in cells]
        records = [_reference_record(cell, zre, cell.delta) for cell, zre in zip(cells, zres)]
        out.append((cells, zres, records, [_reference_discount(cell, grid) for cell in cells]))
    return out


@pytest.mark.parametrize("block_elements", [None, 1, 1000])
def test_driver_equals_per_cell_reference(block_elements, references, monkeypatch):
    # 1 puts every market (and every allocated profile) in a block of its
    # own; 1000 gives ragged blocks.
    if block_elements is not None:
        monkeypatch.setattr(market, "BLOCK_ELEMENTS", block_elements)
    outcomes = set()
    for (config, axes, grid), (cells, zres, records, discounts) in zip(CASES, references):
        swept = grid_sweep(config, axes)
        # The sweep returns price rows; each cell's market is built from its
        # row and discount profile.
        assert [replace(config, p=r.prices, delta=r.discounts) for r in swept] == cells
        assert [r.zre for r in swept] == zres
        assert swept == records
        assert grid_sweep(config, axes, grid) == discounts
        # The driver marks a cell without a discount equilibrium (NODEQ)
        # with no discount profile, at exactly the reference's NODEQ cells.
        rows = equilibrium.solve_grid(config, axes, grid)
        assert [delta is None for _, delta, _ in rows] == [d.discounts is None for d in discounts]
        for cell, zre, discount in zip(cells, zres, discounts):
            assert enumerate_zre(cell) == zre
            outcome = discount_equilibrium(cell, grid)
            assert outcome.delta_star == discount.discounts
            assert outcome.zre == discount.zre
            outcomes.add((zre.selected is None, outcome.delta_star is None))
    # Cells without an equilibrium and without a discount equilibrium occur.
    assert {no_zre for no_zre, _ in outcomes} == {False, True}
    assert {nodeq for _, nodeq in outcomes} == {False, True}
    # discount_game.json at (0.5, 0.5) is NODEQ: its row carries no
    # discount profile, not the template delta (1, 1).
    scenario = load_scenario(SCENARIOS / "discount_game.json")
    [(_, delta, zre)] = equilibrium.solve_grid(scenario.config, [(0.5,), (0.5,)], scenario.delta_grid)
    assert delta is None and zre.selected is None


@pytest.mark.parametrize("block_elements", [1, 1000])
def test_repeated_and_unsorted_axes_solve_each_cell(block_elements, monkeypatch):
    # A block is a box of axis positions, so an axis may repeat values,
    # list them out of order and hold a zero: every record, in both modes,
    # is what its cell gives solved alone.  1 scores every market on its
    # own; 1000 cuts the discount game's blocks into sub-boxes of several
    # cells.
    monkeypatch.setattr(market, "BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(59)
    bench = load_scenario(SCENARIOS / "benchmark.json").config
    # The benchmark has no discount equilibrium at (0.6, 0.8) on this grid.
    cases = [
        (bench, ([0.6, 0.0, 0.6, 1.0], [1.0, 0.8, 0.0, 0.8]), (0.2, 0.6, 1.0)),
        (random_config(rng, 2, 3), ([0.5, 0.0, 0.5], [1.0, 0.0], [0.3, 0.7, 0.3]), (0.5, 1.0)),
    ]
    nodeq = 0
    for config, axes, grid in cases:
        cells = list(itertools.product(*axes))
        fixed, game = grid_sweep(config, axes), grid_sweep(config, axes, grid)
        assert [r.prices for r in fixed] == [r.prices for r in game] == cells
        for prices, record, discount in zip(cells, fixed, game):
            cell = config.with_prices(prices)
            assert record.zre == enumerate_zre(cell)
            assert record == grid_sweep(config, [(p,) for p in prices])[0]
            outcome = discount_equilibrium(cell, grid)
            assert discount.discounts == outcome.delta_star
            assert discount.zre == outcome.zre
            assert discount == grid_sweep(config, [(p,) for p in prices], grid)[0]
            nodeq += outcome.delta_star is None
    assert nodeq > 0


@pytest.mark.parametrize("block_elements", [None, 1, 1000])
def test_every_market_is_scored_once(block_elements, monkeypatch):
    # The scoring stage receives every market of the grid, a price cell at
    # one discount profile, exactly once: also a cell too large for one
    # block, which is scored in parts of its discount box (1 puts every
    # market in a part of its own, 1000 cuts the 8 profiles of a 2x3 cell).
    if block_elements is not None:
        monkeypatch.setattr(market, "BLOCK_ELEMENTS", block_elements)
    box, scored = equilibrium._box, []
    bind = inspect.signature(box).bind

    def counted(*args):
        given = bind(*args).arguments
        axes = [[float(v) for v in axis] for axis in (*given["prices"], *given["deltas"])]
        scored.extend(itertools.product(*axes))
        return box(*args)

    monkeypatch.setattr(equilibrium, "_box", counted)
    bench = load_scenario(SCENARIOS / "benchmark.json").config
    rng = np.random.default_rng(61)
    cases = [
        (bench, ((0.0, 0.3, 0.7), (0.2, 1.0)), (0.0, 0.5, 1.0), 42),
        (random_config(rng, 2, 3), ((0.0, 0.5), (1.0,), (0.0, 0.4)), (0.5, 1.0), 20),
    ]
    for config, axes, grid, markets in cases:
        for delta_grid in (None, grid):
            scored.clear()
            equilibrium.solve_grid(config, axes, delta_grid)
            expected = []
            for prices in itertools.product(*axes):
                # A cell's first zero-price ISP plays only its largest
                # discount; a later one plays its whole axis.
                first = prices.index(0.0) if 0.0 in prices else None
                deltas = [(d,) for d in config.delta] if delta_grid is None else [
                    grid[-1:] if j == first else grid for j in range(len(prices))
                ]
                expected.extend(itertools.product(*[(p,) for p in prices], *deltas))
            assert sorted(scored) == sorted(expected)
        assert len(expected) == markets


def _one_box_cases():
    # Fixed-delta markets of 1-3 x 1-3 with 0.0 first, last or in the
    # middle of every price axis, and a one-value discount grid.
    rng = np.random.default_rng(67)
    cases = []
    for n, m in itertools.product((1, 2, 3), repeat=2):
        axes = []
        for _ in range(m):
            axis = [0.0, *(float(v) for v in rng.uniform(0.05, 1.0, size=2))]
            rng.shuffle(axis)
            axes.append(tuple(axis))
        cases.append((random_config(rng, n, m), tuple(axes), None))
    cases.append((random_config(rng, 2, 2), ((0.0, 0.4), (0.7, 0.0)), (0.6,)))
    return cases


@pytest.mark.parametrize("config, axes, grid", _one_box_cases())
def test_one_box_equals_blocks_of_first_zero_isps(config, axes, grid, monkeypatch):
    # At one discount profile a grid that fits one block at every profile
    # is one box of every profile over every cell, where each zero price,
    # the first ISP's included, is a level of the stability test.  One
    # entry less than that grid needs forces the 1 + z blocks, one per
    # first zero-price ISP and the all-positive one, each in one sub-box;
    # both give the same rows.
    boxes = []
    box = equilibrium._box

    def counted(config, table, order, steps, cf_rows, prices, deltas, tol):
        boxes.append((len(table.cells), tuple(map(len, prices))))
        return box(config, table, order, steps, cf_rows, prices, deltas, tol)

    monkeypatch.setattr(equilibrium, "_box", counted)
    n, m = config.n_cps, config.n_isps
    shape = tuple(map(len, axes))
    one_box = equilibrium.solve_grid(config, axes, grid)
    assert boxes == [(1 << (n * m), shape)]
    # No equilibrium lacks a relation that a zero price forces.
    for prices, _, zre in one_box:
        for theta in zre.all_zre:
            assert all(theta.rows[i][j] for i in range(n) for j in range(m) if prices[j] == 0.0)
    boxes.clear()
    monkeypatch.setattr(market, "BLOCK_ELEMENTS", len(one_box) * (n << (n * m)) - 1)
    assert equilibrium.solve_grid(config, axes, grid) == one_box
    assert len(boxes) == 1 + m
    assert sum(math.prod(cells) for _, cells in boxes) == len(one_box)


def test_zero_price_cell_allocates_only_its_block(monkeypatch):
    # A cell whose first ISP prices at zero is solved in that ISP's block,
    # so its table holds the 2**12 profiles of a 4 x 4 market holding ISP
    # 0's column, not all 2**16; a grid that also holds a positive price
    # solves block M and allocates all of them.
    sizes = []
    table = equilibrium.profile_table

    def counted(config, cells):
        sizes.append(len(cells))
        return table(config, cells)

    monkeypatch.setattr(equilibrium, "profile_table", counted)
    config = random_config(np.random.default_rng(71), 4, 4, allow_zero_price=False)
    cell = config.with_prices((0.0, *config.p[1:]))
    zre = enumerate_zre(cell)
    discount_equilibrium(cell, (0.5, 1.0))
    assert sizes == [1 << 12] * 2
    rows = equilibrium.solve_grid(cell, [(0.0, 0.5), *[(p,) for p in cell.p[1:]]])
    assert sizes[2:] == [1 << 16]
    assert rows[0][2] == zre


def _reference_pressure(cell: MarketConfig, selected: StrategyMatrix) -> tuple[bool, ...]:
    # The definition of detect_pressure, every row of every checked CP's
    # counterfactual market scored on its own by payoffs().
    n, m = cell.n_cps, cell.n_isps
    free = [j for j in range(m) if cell.p[j] != 0.0]
    flags = []
    for i in range(n):
        held = [j for j in free if selected.rows[i][j]]
        competing = any(selected.rows[k][j] for k in range(n) if k != i for j in free)
        if not (held and competing):
            flags.append(False)
            continue
        keeping, dropping = [], []
        for bits in itertools.product((0, 1), repeat=len(free)):
            row = dict(zip(free, bits))
            theta = StrategyMatrix(tuple(
                tuple(1 if j not in row else row[j] if k == i else 0 for j in range(m))
                for k in range(n)
            ))
            utility = payoffs(cell, theta).cp_utility[i]
            (keeping if all(row[j] for j in held) else dropping).append(utility)
        flags.append(max(dropping) > max(keeping) + GAIN_TOL * cell.total_users)
    return tuple(flags)


@pytest.mark.parametrize("block_elements", [None, 1, 1000])
def test_engine_pressure_equals_definition(block_elements, monkeypatch):
    # The engine reads pressure from its blocks' scores; the reference
    # scores each counterfactual row alone, in fixed-delta and discount
    # mode, with 0.0 on every price axis.
    if block_elements is not None:
        monkeypatch.setattr(market, "BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(53)
    flagged = 0
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        config = random_config(rng, n, m)
        axes = tuple((0.0, *rng.uniform(0.05, 1.0, size=2)) for _ in range(m))
        for grid in (None, (0.5, 1.0)):
            for prices, delta, zre in equilibrium.solve_grid(config, axes, grid):
                if zre.selected is not None:
                    cell = replace(config, p=prices, delta=delta)
                    assert zre.pressure == _reference_pressure(cell, zre.selected)
                    flagged += sum(zre.pressure)
    assert flagged > 0


def test_guard_raises_before_any_allocation(monkeypatch):
    def refuse(*args):
        raise AssertionError("allocation started before the capacity guard")

    monkeypatch.setattr(market, "allocations", refuse)
    monkeypatch.setattr(analysis, "allocations", refuse)
    config = MarketConfig(
        n_cps=3, n_isps=7, alpha=0.5, c=0.5,
        q=(0.2, 0.5, 1.0), p=(0.5,) * 7, delta=(1.0,) * 7,
        phi=(0.125,) * 8, psi=(0.125,) * 8,
    )
    with pytest.raises(CapacityError):
        enumerate_zre(config)
    with pytest.raises(CapacityError):
        grid_sweep(config, ((0.0, 0.5),) * 7)
    with pytest.raises(CapacityError):
        grid_sweep(config, ((0.5,),) * 7, (1.0,))


@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
@pytest.mark.parametrize("j", [0, 1])
def test_grid_prices_rejected_before_any_allocation(bad, j, monkeypatch):
    # Every price row is checked as a market checks its prices, before
    # anything is allocated; the bad value sits in the second row, behind
    # a valid one of the same block.
    def refuse(*args):
        raise AssertionError("allocation started before the price check")

    for module in (market, analysis, payoff):
        monkeypatch.setattr(module, "allocations", refuse)
    config = load_scenario(SCENARIOS / "benchmark.json").config
    axes = [(0.5,), (0.5,)]
    axes[j] = (0.5, bad)
    message = rf"p\[{j}\] must lie in \[0, 1\]"
    with pytest.raises(ConfigError, match=message):
        grid_sweep(config, axes)
    with pytest.raises(ConfigError, match=message):
        grid_sweep(config, axes, (0.5, 1.0))


def test_sweep_builds_no_market(monkeypatch):
    # The driver places price rows in blocks by their zero prices and reads
    # nothing else of them, so no MarketConfig is built; benchmark.json's
    # grid holds all four zero-price patterns.
    scenario = load_scenario(SCENARIOS / "benchmark.json")
    built = []
    post_init = MarketConfig.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(MarketConfig, "__post_init__", counted)
    records = grid_sweep(scenario.config, scenario.price_grid)
    assert {tuple(p == 0.0 for p in record.prices) for record in records} == set(
        itertools.product((False, True), repeat=2)
    )
    assert built == []


class Admitted(Exception):
    """Raised by the first step after the capacity guard."""


@pytest.mark.parametrize(
    "n, m, solve, admitted",
    [
        # At fixed delta the guard admits exactly the markets of at most
        # 20 cells: 2**20 <= 2,000,000 < 2**21.
        (4, 5, enumerate_zre, True),
        (2, 10, enumerate_zre, True),
        (3, 7, enumerate_zre, False),
        # On the 11-point grid: 7 x 2 needs 11**2 * 2**14 = 1,982,464
        # evaluations and 3 x 3 681,472; 2 x 4 needs 3,748,096.
        (7, 2, discount_equilibrium, True),
        (3, 3, discount_equilibrium, True),
        (2, 4, discount_equilibrium, False),
    ],
)
def test_guard_boundary(n, m, solve, admitted, monkeypatch):
    # The profile enumeration that follows the guard, and every allocation,
    # raise Admitted, so nothing is solved: an admitted market passed the
    # guard, and a rejected one was refused before anything was allocated.
    def admit(*args):
        raise Admitted

    monkeypatch.setattr(equilibrium, "_profiles", admit)
    for module in (market, payoff, analysis):
        monkeypatch.setattr(module, "allocations", admit)
    config = random_config(np.random.default_rng(n * m), n, m, allow_zero_price=False)
    with pytest.raises(Admitted if admitted else CapacityError):
        solve(config)
