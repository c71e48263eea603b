"""Equilibrium enumeration, selection, pressure, dynamics, discount game."""

import dataclasses
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from zrsim import (
    CapacityError,
    ConfigError,
    ContractViolation,
    DynamicsOutcome,
    InvalidArgument,
    MarketConfig,
    StrategyMatrix,
    ZreStatus,
    best_response_dynamics,
    detect_pressure,
    discount_equilibrium,
    enumerate_zre,
    forced_cells,
    is_zre,
    load_scenario,
    market,
    oracle_verify_zre,
    payoffs,
    select_zre,
)
from zrsim import equilibrium

from conftest import GRID11, flip, random_config

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "zrsim" / "scenarios"


def _reference_discount_outcome(config, grid):
    """The discount game solved naively from per-market public calls: every
    discount profile enumerated and scored on its own, the unilateral
    deviation test, then the documented largest-profile selection.  Returns
    the selected discount profile and strategy profile, both None where no
    discount profile is a Nash equilibrium."""
    m = config.n_isps
    revenue = {}
    for delta in itertools.product(grid, repeat=m):
        market_at = dataclasses.replace(config, delta=delta)
        result = enumerate_zre(market_at)
        if result.status is ZreStatus.EQUILIBRIA_FOUND:
            revenue[delta] = payoffs(market_at, result.selected).isp_revenue
    nash = [
        delta
        for delta, rev in revenue.items()
        if all(
            revenue[dev][j] <= rev[j] + 1e-9
            for j in range(m)
            for alt in grid
            if (dev := delta[:j] + (alt,) + delta[j + 1 :]) in revenue
        )
    ]
    if not nash:
        return None, None
    expensive = max(range(m), key=lambda j: (config.p[j], j))
    # Totals are compared as exact decimals, as the grid writes them.
    star = max(nash, key=lambda d: (sum(Fraction(str(v)) for v in d), d[expensive], d[::-1]))
    selected = enumerate_zre(dataclasses.replace(config, delta=star)).selected
    return star, selected


class TestForcedCells:
    def test_zero_price_forces_column(self, bench):
        config = bench.with_prices((0.0, 0.5))
        assert forced_cells(config) == {(0, 0), (1, 0)}

    def test_positive_prices_force_nothing(self, bench):
        assert forced_cells(bench.with_prices((0.3, 0.7))) == frozenset()

    def test_all_zero_prices_force_everything(self, bench):
        config = bench.with_prices((0.0, 0.0))
        assert forced_cells(config) == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestIsZre:
    def test_no_relations_stable_at_high_prices(self, bench):
        assert is_zre(bench, StrategyMatrix.zeros(2, 2))

    def test_all_relations_stable_when_all_forced(self, bench):
        config = bench.with_prices((0.0, 0.0))
        assert is_zre(config, StrategyMatrix.from_bitstring("1111", 2, 2))

    def test_forced_cell_violation_rejected(self, bench):
        config = bench.with_prices((0.0, 1.0))
        with pytest.raises(InvalidArgument):
            is_zre(config, StrategyMatrix.zeros(2, 2))

    def test_wrong_dims_rejected(self, bench):
        with pytest.raises(InvalidArgument):
            is_zre(bench, StrategyMatrix.from_bitstring("111111", 2, 3))

    def test_matches_exhaustive_payoff_comparison(self, bench):
        # Re-derive the verdict for all 16 profiles from raw payoffs: a
        # 1-cell fails if its CP or ISP gains by canceling, a 0-cell fails
        # if both gain by establishing.
        config = bench.with_prices((0.6, 0.8))
        for bits in itertools.product((0, 1), repeat=4):
            theta = StrategyMatrix((bits[:2], bits[2:]))
            pv = payoffs(config, theta)
            expected = True
            for i in range(2):
                for j in range(2):
                    fv = payoffs(config, flip(theta, i, j))
                    cp_gain = fv.cp_utility[i] > pv.cp_utility[i] + 1e-9
                    isp_gain = fv.isp_revenue[j] > pv.isp_revenue[j] + 1e-9
                    if theta.rows[i][j] and (cp_gain or isp_gain):
                        expected = False
                    if not theta.rows[i][j] and cp_gain and isp_gain:
                        expected = False
            assert is_zre(config, theta) == expected

    def test_low_value_cp_cannot_afford_expensive_relation(self, bench):
        # q_1 < delta * p everywhere on this cell, so any profile giving
        # CP 1 a relation is broken by its own cancellation.
        config = bench.with_prices((0.9, 0.9))
        for bits in itertools.product((0, 1), repeat=4):
            theta = StrategyMatrix((bits[:2], bits[2:]))
            if any(theta.rows[0]):
                assert not is_zre(config, theta)


class TestEnumerateZre:
    def test_benchmark_grid_selects_nine_profiles(self, bench):
        selected = set()
        for p1 in GRID11:
            for p2 in GRID11:
                result = enumerate_zre(bench.with_prices((p1, p2)))
                assert result.status is ZreStatus.EQUILIBRIA_FOUND
                selected.add(result.selected.bitstring())
        admissible = {
            "".join(map(str, bits))
            for bits in itertools.product((0, 1), repeat=4)
            if not (bits[0] == 1 and bits[2] == 0) and not (bits[1] == 1 and bits[3] == 0)
        }
        assert len(selected) == 9
        assert selected <= admissible

    def test_high_usage_coefficient_kills_equilibria(self, bench):
        config = dataclasses.replace(bench, c=0.8)
        missing = {
            (p1, p2)
            for p1 in GRID11
            for p2 in GRID11
            if enumerate_zre(config.with_prices((p1, p2))).status is ZreStatus.NO_ZRE
        }
        assert missing == {(0.3, 0.3), (0.3, 0.4), (0.4, 0.3)}

    def test_minimal_market_profitable_relation(self):
        config = MarketConfig(
            n_cps=1, n_isps=1, alpha=0.5, c=0.5, q=(1.0,), p=(0.5,), delta=(1.0,),
            phi=(0.5, 0.5), psi=(0.5, 0.5),
        )
        result = enumerate_zre(config)
        assert StrategyMatrix(((1,),)) in result.all_zre
        # Both sides strictly prefer the relation, so the empty profile is
        # not an equilibrium here.
        assert StrategyMatrix(((0,),)) not in result.all_zre

    def test_no_zre_result_shape(self, bench):
        config = dataclasses.replace(bench, c=0.8).with_prices((0.3, 0.3))
        result = enumerate_zre(config)
        assert result.status is ZreStatus.NO_ZRE
        assert result.all_zre == ()
        assert result.selected is None
        assert result.pressure == (False, False)

    def test_capacity_guard(self):
        config = MarketConfig(
            n_cps=3, n_isps=7, alpha=0.5, c=0.5,
            q=(0.2, 0.5, 1.0), p=(0.5,) * 7, delta=(1.0,) * 7,
            phi=(0.125,) * 8, psi=(0.125,) * 8,
        )
        with pytest.raises(CapacityError):
            enumerate_zre(config)

    def test_result_is_deterministic(self, bench):
        config = bench.with_prices((0.4, 0.6))
        first = enumerate_zre(config)
        second = enumerate_zre(config)
        assert first == second
        assert first.all_zre == tuple(
            sorted(first.all_zre, key=lambda t: t.encoding())
        )

    def test_members_pass_both_verifiers(self, bench):
        for p1 in (0.1, 0.4, 0.7):
            for p2 in (0.2, 0.5, 1.0):
                cell = bench.with_prices((p1, p2))
                result = enumerate_zre(cell)
                for theta in result.all_zre:
                    assert is_zre(cell, theta)
                    assert oracle_verify_zre(cell, theta)


class TestSelectZre:
    def test_more_relations_win(self, bench):
        zeros = StrategyMatrix.zeros(2, 2)
        ones = StrategyMatrix.from_bitstring("1111", 2, 2)
        assert select_zre([zeros, ones], bench) == ones

    def test_tie_prefers_high_value_cp_then_last_isp(self, bench):
        cp2_isp1 = StrategyMatrix(((0, 0), (1, 0)))
        cp2_isp2 = StrategyMatrix(((0, 0), (0, 1)))
        assert select_zre([cp2_isp1, cp2_isp2], bench) == cp2_isp2
        cp1_isp2 = StrategyMatrix(((0, 1), (0, 0)))
        assert select_zre([cp1_isp2, cp2_isp1], bench) == cp2_isp1

    def test_singleton(self, bench):
        only = StrategyMatrix(((0, 1), (0, 0)))
        assert select_zre([only], bench) == only

    def test_empty_set_rejected(self, bench):
        with pytest.raises(ContractViolation):
            select_zre([], bench)

    def test_wrong_size_rejected(self, bench):
        config = bench.with_prices((0.3, 0.7))
        with pytest.raises(InvalidArgument, match="2x3"):
            select_zre(
                [StrategyMatrix.zeros(2, 3), StrategyMatrix.from_bitstring("111111", 2, 3)], config
            )

    def test_final_tie_break_is_lowest_encoding(self, bench):
        # Equal-value CPs make the value key a tie; "1001" and "0110" also
        # tie on the last column, leaving the encoding to decide.
        config = dataclasses.replace(bench, q=(0.7, 0.7))
        a = StrategyMatrix.from_bitstring("0110", 2, 2)
        b = StrategyMatrix.from_bitstring("1001", 2, 2)
        assert select_zre([a, b], config) == a


class TestDetectPressure:
    def test_no_relations_no_pressure(self, bench):
        result = enumerate_zre(bench.with_prices((1.0, 1.0)))
        assert result.selected == StrategyMatrix.zeros(2, 2)
        assert result.pressure == (False, False)

    def test_low_value_cp_defensive_relation(self, bench):
        # At these prices CP 1 keeps a relation it would strictly prefer to
        # drop if CP 2 had none: its solo optimum is a cheaper row.
        result = enumerate_zre(bench.with_prices((0.2, 0.1)))
        assert any(result.selected.rows[0])
        assert result.pressure[0]

    def test_sole_zero_rater_is_never_pressured(self, bench):
        # CP 2 holds relations while CP 1 has none; without a competitor
        # relation there is nothing to respond to.
        result = enumerate_zre(bench.with_prices((0.5, 0.5)))
        assert result.selected.rows[0] == (0, 0)
        assert any(result.selected.rows[1])
        assert result.pressure == (False, False)

    def test_high_value_cp_matches_competition(self, bench):
        # CP 1 grabs the cheap ISP; CP 2 responds by zero-rating with both,
        # though alone it would stick to the cheap one.
        result = enumerate_zre(bench.with_prices((0.1, 0.5)))
        assert result.selected.bitstring() == "1011"
        assert result.pressure == (False, True)

    @pytest.mark.parametrize(
        "prices, n, m",
        [((0.3, 0.7), 1, 1), ((0.3, 0.7), 2, 3), ((0.3, 0.7), 3, 2), ((0.0, 0.7), 1, 1)],
    )
    def test_wrong_size_rejected(self, bench, prices, n, m):
        # Checked before the forced cells, which a 1x1 matrix cannot index.
        with pytest.raises(InvalidArgument, match=f"{n}x{m}"):
            detect_pressure(bench.with_prices(prices), StrategyMatrix(((1,) * m,) * n))

    def test_voluntary_relations_are_not_pressure(self, bench):
        # CP 2 alone in the market chooses the same relation: no pressure.
        result = enumerate_zre(bench.with_prices((0.5, 0.7)))
        assert result.selected.rows[0] == (0, 0)
        assert any(result.selected.rows[1])
        assert result.pressure == (False, False)


class TestBestResponseDynamics:
    def test_fixed_point_at_equilibrium(self, bench):
        config = bench.with_prices((1.0, 1.0))
        trace = best_response_dynamics(config, StrategyMatrix.zeros(2, 2))
        assert trace.outcome is DynamicsOutcome.FIXED_POINT
        assert trace.moves == 0
        assert trace.visited == (StrategyMatrix.zeros(2, 2),)

    def test_converges_into_equilibrium_set(self, bench):
        config = bench.with_prices((1.0, 1.0))
        trace = best_response_dynamics(config, StrategyMatrix.from_bitstring("1111", 2, 2))
        assert trace.outcome is DynamicsOutcome.FIXED_POINT
        assert trace.visited[-1] in enumerate_zre(config).all_zre

    def test_cycle_when_no_equilibrium_exists(self, bench):
        config = dataclasses.replace(bench, c=0.8).with_prices((0.3, 0.3))
        trace = best_response_dynamics(config, StrategyMatrix.zeros(2, 2))
        assert trace.outcome is DynamicsOutcome.CYCLE
        assert trace.cycle_start is not None

    def test_inconclusive_when_starved_of_steps(self, bench):
        config = dataclasses.replace(bench, c=0.8).with_prices((0.3, 0.3))
        trace = best_response_dynamics(config, StrategyMatrix.zeros(2, 2), max_steps=2)
        assert trace.outcome is DynamicsOutcome.INCONCLUSIVE

    def test_forced_start_required(self, bench):
        config = bench.with_prices((0.0, 1.0))
        with pytest.raises(InvalidArgument):
            best_response_dynamics(config, StrategyMatrix.zeros(2, 2))


class TestDiscountGame:
    def test_outcome_is_on_grid_with_equilibrium(self, bench):
        outcome = discount_equilibrium(bench.with_prices((1.0, 1.0)))
        assert outcome.delta_star is not None
        assert all(d in GRID11 for d in outcome.delta_star)
        assert outcome.zre.status is ZreStatus.EQUILIBRIA_FOUND

    def test_free_isps_keep_full_discount_factor(self, bench):
        outcome = discount_equilibrium(bench.with_prices((0.0, 0.0)))
        assert outcome.delta_star == (1.0, 1.0)

    @pytest.mark.parametrize("prices", [(1.0, 0.0), (0.0, 1.0)])
    def test_free_isp_discount_enters_no_payoff(self, bench, prices):
        # A zero-price ISP's delta multiplies p = 0: no CP or ISP payoff
        # depends on it, whatever the profile and the other ISP's delta.
        config = bench.with_prices(prices)
        free = prices.index(0.0)
        for bits in itertools.product((0, 1), repeat=4):
            theta = StrategyMatrix((bits[:2], bits[2:]))
            if not (theta.rows[0][free] and theta.rows[1][free]):
                continue
            for other in GRID11:
                seen = set()
                for d in GRID11:
                    delta = [other, other]
                    delta[free] = d
                    pv = payoffs(dataclasses.replace(config, delta=delta), theta)
                    seen.add((tuple(pv.cp_utility), tuple(pv.isp_revenue)))
                assert len(seen) == 1, f"theta {theta.bitstring()}, other delta {other}"

    @pytest.mark.parametrize(
        "prices, delta_grid",
        [
            ((1.0, 0.0), GRID11),
            ((0.0, 1.0), GRID11),
            ((1.0, 0.0), (0.0, 0.5)),
            ((0.0, 1.0), (0.0, 0.5)),
        ],
        ids=["prices0", "prices1", "prices0-top0.5", "prices1-top0.5"],
    )
    def test_one_free_isp_keeps_full_discount_factor(self, bench, prices, delta_grid):
        # Its delta changes nothing, so the largest Nash profile has it at
        # the top of the grid.
        outcome = discount_equilibrium(bench.with_prices(prices), delta_grid)
        assert outcome.delta_star[prices.index(0.0)] == delta_grid[-1]

    def test_undercutting_cycles_leave_no_equilibrium(self, bench):
        # Mid-price cells feed an undercutting spiral: each ISP profitably
        # shades its discount below the other's, so no profile is stable.
        outcome = discount_equilibrium(bench.with_prices((0.5, 0.5)))
        assert outcome.delta_star is None
        assert outcome.zre is None

    def test_deterministic(self, bench):
        config = bench.with_prices((0.2, 0.8))
        a = discount_equilibrium(config)
        b = discount_equilibrium(config)
        assert a.delta_star == b.delta_star == (1.0, 0.6)
        assert a.zre.selected == b.zre.selected

    def test_symmetric_prices_symmetric_outcome(self, bench):
        # ISP baselines are equal, so swapping prices mirrors the result.
        fwd = discount_equilibrium(bench.with_prices((1.0, 0.0)))
        rev = discount_equilibrium(bench.with_prices((0.0, 1.0)))
        assert fwd.delta_star == tuple(reversed(rev.delta_star))

    def test_nash_condition_holds(self, bench):
        config = bench.with_prices((0.2, 0.8))
        outcome = discount_equilibrium(config)
        base = payoffs(
            dataclasses.replace(config, delta=outcome.delta_star), outcome.zre.selected
        ).isp_revenue
        for j in range(2):
            for alt in GRID11:
                if alt == outcome.delta_star[j]:
                    continue
                delta = list(outcome.delta_star)
                delta[j] = alt
                result = enumerate_zre(dataclasses.replace(config, delta=delta))
                if result.status is ZreStatus.NO_ZRE:
                    continue
                rev = payoffs(dataclasses.replace(config, delta=delta), result.selected).isp_revenue
                assert rev[j] <= base[j] + 1e-9

    def test_empty_grid_rejected(self, bench):
        with pytest.raises(InvalidArgument):
            discount_equilibrium(bench, delta_grid=())

    @pytest.mark.parametrize("delta_grid", [(0.5, 1.5), (-0.1, 1.0), (float("nan"), 1.0)])
    @pytest.mark.parametrize("prices", [(1.0, 1.0), (0.0, 0.0)])
    def test_out_of_range_grid_rejected(self, bench, delta_grid, prices):
        # Every grid value is checked, also one a free ISP never plays and
        # a NaN, which has no place in the sorted grid.
        with pytest.raises(ConfigError, match=r"delta\[\d\] must lie in \[0, 1\]"):
            discount_equilibrium(bench.with_prices(prices), delta_grid)

    @pytest.mark.parametrize("block_elements", [None, 1, 1000])
    def test_discount_table_rows_equal_per_market_route(self, block_elements, monkeypatch):
        # The boxes a cell's discount game is scored in must reproduce, bit
        # for bit, one enumerate_zre and one payoffs call per discount
        # profile, whatever the block size: a box holds the whole cell when
        # it fits, else parts of its discount box (1 puts every discount
        # profile in a part of its own, 1000 gives parts of 18 profiles of a
        # 2x2 cell and 3 or 6 of a 2x3 one).  A market holds K x N utilities.
        if block_elements is not None:
            monkeypatch.setattr(market, "BLOCK_ELEMENTS", block_elements)
        boxes = []
        box = equilibrium._box

        def recorded(config, table, order, steps, cf_rows, prices, deltas, tol):
            out = box(config, table, order, steps, cf_rows, prices, deltas, tol)
            boxes.append((list(itertools.product(*deltas)), out))
            return out

        monkeypatch.setattr(equilibrium, "_box", recorded)
        bench = load_scenario(SCENARIOS / "benchmark.json").config
        # bandwidth_high at (0.5, 0.5) has discount profiles without any
        # equilibrium (3 on this grid).
        high = load_scenario(SCENARIOS / "bandwidth_high.json").config
        rng = np.random.default_rng(31)
        cases = [
            (bench.with_prices((0.3, 0.7)), GRID11[::2]),
            (bench.with_prices((1.0, 0.0)), GRID11[::3]),
            (high.with_prices((0.5, 0.5)), GRID11[::2]),
        ]
        cases += [(random_config(rng, 2, 2), (0.0, 0.25, 0.5, 0.75, 1.0)) for _ in range(3)]
        cases += [(random_config(rng, 2, 3), (0.2, 0.6, 1.0)) for _ in range(3)]
        without_zre = 0
        for config, grid in cases:
            boxes.clear()
            discount_equilibrium(config, grid)
            n, m = config.n_cps, config.n_isps
            codes, _ = equilibrium._profiles(n, m, equilibrium._zero_isps(config.p))
            entries = len(codes) * n
            rows = {}
            for profiles, (stable, _, revenue, _) in list(boxes):
                assert len(profiles) * entries <= max(entries, market.BLOCK_ELEMENTS)
                for delta, mask, row in zip(
                    profiles, stable.reshape(len(codes), -1).T, revenue.reshape(-1, m)
                ):
                    assert delta not in rows or np.array_equal(rows[delta][1], row)
                    rows[delta] = (mask, row)
            # A zero-price ISP plays only the largest discount.
            axes = [grid[-1:] if p == 0.0 else grid for p in config.p]
            assert sorted(rows) == list(itertools.product(*axes))
            for delta, (mask, row) in rows.items():
                market_at = dataclasses.replace(config, delta=delta)
                result = enumerate_zre(market_at)
                assert list(codes[mask]) == [theta.encoding() for theta in result.all_zre]
                if result.status is ZreStatus.NO_ZRE:
                    assert np.all(row == -np.inf)
                    without_zre += 1
                else:
                    assert np.array_equal(row, payoffs(market_at, result.selected).isp_revenue)
        assert without_zre > 0

    def test_outcome_matches_naive_reference(self):
        # Random draws rarely lack a discount equilibrium on a 3-point
        # grid, so a benchmark cell that does is added, with a free-ISP
        # cell and a bandwidth_high cell where delta = (0.6, 0.6) has no
        # equilibrium.
        rng = np.random.default_rng(37)
        grid = (0.2, 0.6, 1.0)
        bench = load_scenario(SCENARIOS / "benchmark.json").config
        high = load_scenario(SCENARIOS / "bandwidth_high.json").config
        configs = [bench.with_prices(prices) for prices in ((0.6, 0.8), (1.0, 0.0))]
        configs += [high.with_prices((0.5, 0.5))]
        configs += [random_config(rng, n, m) for n, m in ((2, 2), (2, 3)) for _ in range(8)]
        nodeq = set()
        for config in configs:
            outcome = discount_equilibrium(config, grid)
            delta_star, selected = _reference_discount_outcome(config, grid)
            assert (outcome.zre is None) is (delta_star is None)
            assert outcome.delta_star == delta_star
            assert (outcome.zre and outcome.zre.selected) == selected
            nodeq.add(delta_star is None)
        # Both outcomes occur: cells with and without a discount equilibrium.
        assert nodeq == {False, True}

    def test_capacity_guard(self):
        config = MarketConfig(
            n_cps=2, n_isps=4, alpha=0.5, c=0.5, q=(0.4, 1.0),
            p=(0.5,) * 4, delta=(1.0,) * 4,
            phi=(0.25,) * 4, psi=(0.2,) * 5,
        )
        with pytest.raises(CapacityError):
            discount_equilibrium(config)

    def test_equal_decimal_totals_tie(self):
        # Two Nash profiles total 0.8, but 0.2 + 0.1 + 0.5 == 0.8 and
        # 0.2 + 0.5 + 0.1 == 0.7999999999999999: the totals must tie, so the
        # most expensive ISP (index 1) picks its larger component.
        config = MarketConfig(
            n_cps=1, n_isps=3, alpha=0.5887879732735714, c=0.7959504467588875,
            q=(0.4232156789204893,),
            p=(0.35541206774724, 0.8773500003120316, 0.7368299872701154),
            delta=(0.5297433165158719, 0.5416646092275893, 0.9397088139990539),
            phi=(0.7190050088866528, 0.28099499111334725),
            psi=(0.3983912110201472, 0.09843917548246478, 0.11431558973124799,
                 0.38885402376614003),
        )
        grid = (0.1, 0.2, 0.3, 0.4, 0.5)
        outcome = discount_equilibrium(config, grid)
        assert outcome.delta_star == (0.2, 0.5, 0.1)
        assert _reference_discount_outcome(config, grid)[0] == outcome.delta_star


class TestProfileCodeLimit:
    # Profile codes are int64: a market of 64 cells is refused with
    # InvalidArgument, and one of 63 cells still works.
    @pytest.mark.parametrize(
        "call",
        [
            lambda config, theta: is_zre(config, theta),
            lambda config, theta: best_response_dynamics(config, theta, max_steps=20),
            lambda config, theta: select_zre([theta], config),
            lambda config, theta: detect_pressure(config, theta),
        ],
        ids=["is_zre", "best_response_dynamics", "select_zre", "detect_pressure"],
    )
    def test_limit_is_63_cells(self, call):
        big = random_config(np.random.default_rng(1), 8, 8, allow_zero_price=False)
        with pytest.raises(InvalidArgument, match="63"):
            call(big, StrategyMatrix(((1,) * 8,) * 8))
        wide = random_config(np.random.default_rng(1), 7, 9, allow_zero_price=False)
        call(wide, StrategyMatrix(((1,) * 9,) * 7))


class TestGridInvariants:
    def test_value_ordering_pruning(self, bench):
        # No equilibrium anywhere gives the low-value CP a relation the
        # high-value CP lacks on the same ISP.
        for p1 in GRID11[::2]:
            for p2 in GRID11[::2]:
                result = enumerate_zre(bench.with_prices((p1, p2)))
                for theta in result.all_zre:
                    for j in range(2):
                        assert not (theta.rows[0][j] == 1 and theta.rows[1][j] == 0)

    def test_monotone_exit_by_price(self, bench):
        # Along any price axis the low-value CP abandons an ISP no later
        # than the high-value CP does, and both start zero-rated at price 0.
        for p2 in GRID11:
            cp1_on = []
            cp2_on = []
            for p1 in GRID11:
                result = enumerate_zre(bench.with_prices((p1, p2)))
                cp1_on.append(result.selected.rows[0][0])
                cp2_on.append(result.selected.rows[1][0])
            for bits in (cp1_on, cp2_on):
                assert bits[0] == 1
                assert sorted(bits, reverse=True) == bits, f"not a prefix: {bits}"
            assert sum(cp1_on) <= sum(cp2_on)

    def test_forced_cells_always_selected(self, bench):
        for p2 in GRID11[::3]:
            result = enumerate_zre(bench.with_prices((0.0, p2)))
            assert result.selected.rows[0][0] == 1
            assert result.selected.rows[1][0] == 1
