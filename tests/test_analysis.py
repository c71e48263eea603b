"""Concentration metrics, world comparisons, sweeps, aggregates."""

import dataclasses

import numpy as np
import pytest

from zrsim import (
    DomainError,
    InvalidArgument,
    MarketConfig,
    StrategyMatrix,
    aggregate_signs,
    allocate,
    analysis,
    compare_worlds,
    grid_sweep,
    hhi_variance_identity,
    market,
    verify,
)
from zrsim.equilibrium import DEFAULT_DELTA_GRID

from conftest import GRID11, hhi, random_config


class TestHhi:
    def test_symmetric_baseline(self, bench):
        assert hhi(bench, StrategyMatrix.zeros(2, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_all_relations_equal_no_relations(self, bench):
        zeros = hhi(bench, StrategyMatrix.zeros(2, 2))
        ones = hhi(bench, StrategyMatrix.from_bitstring("1111", 2, 2))
        assert ones == pytest.approx(zeros, abs=1e-12)

    def test_near_monopoly_approaches_one(self):
        config = MarketConfig(
            n_cps=2, n_isps=1, alpha=0.5, c=0.5, q=(0.2, 1.0), p=(0.5,),
            delta=(1.0,), phi=(0.001, 0.0005, 0.998, 0.0005), psi=(0.5, 0.5),
        )
        value = hhi(config, StrategyMatrix.zeros(2, 1))
        assert 0.99 < value <= 1.0

    def test_all_or_none_equality_random(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            config = random_config(rng)
            zeros = StrategyMatrix.zeros(config.n_cps, config.n_isps)
            ones = StrategyMatrix(((1,) * config.n_isps,) * config.n_cps)
            assert hhi(config, zeros) == pytest.approx(hhi(config, ones), abs=1e-12)

    def test_stack_equals_row_by_row(self):
        # One array pass over a stack of CP-total rows gives each row's
        # one-row result bit for bit.
        rng = np.random.default_rng(53)
        for width in range(1, 10):
            stack = rng.uniform(0.0, 2.0, size=(30, width))
            hhis, shares = analysis._hhi(stack), analysis._shares(stack)
            assert hhis.shape == (30,) and shares.shape == stack.shape
            for row, h, share in zip(stack, hhis, shares):
                assert analysis._hhi(row).tobytes() == h.tobytes()
                assert analysis._shares(row).tobytes() == share.tobytes()
        # Any row without users refuses the whole stack.
        stack[7] = 0.0
        with pytest.raises(DomainError):
            analysis._hhi(stack)
        with pytest.raises(DomainError):
            analysis._shares(stack)


class TestHhiVarianceIdentity:
    def test_equal_shares(self):
        a, b = hhi_variance_identity((0.5, 0.5))
        assert a == pytest.approx(0.5, abs=1e-15)
        assert b == pytest.approx(0.5, abs=1e-15)

    def test_unequal_shares(self):
        a, b = hhi_variance_identity((0.7, 0.3))
        assert a == pytest.approx(0.58, abs=1e-12)
        assert b == pytest.approx(0.58, abs=1e-12)

    def test_uniform_vector_attains_minimum(self):
        for n in (1, 2, 5, 9):
            a, b = hhi_variance_identity((1.0 / n,) * n)
            assert a == pytest.approx(1.0 / n, abs=1e-12)
            assert b == pytest.approx(1.0 / n, abs=1e-12)

    def test_unnormalized_input(self):
        a, b = hhi_variance_identity((7.0, 3.0))
        assert a == pytest.approx(0.58, abs=1e-12)
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_firm_attains_maximum(self):
        a, b = hhi_variance_identity((1.0, 0.0))
        assert a == pytest.approx(1.0, abs=1e-15)
        assert b == pytest.approx(1.0, abs=1e-15)

    def test_forms_agree_random(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            shares = rng.uniform(0.01, 5.0, size=int(rng.integers(1, 8)))
            a, b = hhi_variance_identity(shares)
            assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_empty_and_zero(self):
        with pytest.raises(InvalidArgument):
            hhi_variance_identity(())
        with pytest.raises(DomainError):
            hhi_variance_identity((0.0, 0.0))

    def test_plain_floats_equal_the_numpy_forms(self, monkeypatch):
        # On the 200 share vectors the verify battery draws, the plain-float
        # sums give exactly the floats of the numpy formula they replace.
        def reference(shares):
            x = np.asarray(shares, dtype=float)
            total = x.sum()
            sum_of_squares = float(((x / total) ** 2).sum())
            return sum_of_squares, float(1.0 / x.size + x.size * x.var() / total**2)

        seen = []

        def recording(shares):
            forms = hhi_variance_identity(shares)
            seen.append((shares, forms))
            return forms

        monkeypatch.setattr(verify, "hhi_variance_identity", recording)
        assert verify.check_hhi_identity(None, []).passed is True
        assert len(seen) == 200
        for shares, forms in seen:
            assert forms == reference(shares)
        with pytest.raises(InvalidArgument):
            hhi_variance_identity([])
        with pytest.raises(DomainError):
            hhi_variance_identity([0.3, -0.5])


class TestCompareWorlds:
    def test_identical_worlds_zero_deltas(self, bench):
        record = compare_worlds(bench.with_prices((1.0, 1.0)))
        assert record.zre.selected == StrategyMatrix.zeros(2, 2)
        assert record.delta_utility == (0.0, 0.0)
        assert record.delta_share == (0.0, 0.0)
        assert record.delta_hhi == 0.0

    def test_lone_high_value_relation_hurts_low_value_cp(self, bench):
        record = compare_worlds(bench.with_prices((0.7, 0.7)))
        assert record.zre.selected.rows[0] == (0, 0)
        assert any(record.zre.selected.rows[1])
        assert record.delta_utility[0] < 0
        assert record.delta_utility[1] >= -1e-12

    def test_no_equilibrium_means_exactly_zero(self, bench):
        config = dataclasses.replace(bench, c=0.8).with_prices((0.3, 0.3))
        record = compare_worlds(config)
        assert record.zre.all_zre == ()
        assert record.zre.selected is None
        assert record.delta_utility == (0.0, 0.0)
        assert record.delta_share == (0.0, 0.0)
        assert record.delta_hhi == 0.0

    def test_shares_sum_to_one(self, bench):
        x_pair = allocate(bench, StrategyMatrix(((0, 0), (1, 0)))).x_pair
        shares = analysis._shares(market.cp_totals(bench, x_pair[None])[0])
        assert shares.sum() == pytest.approx(1.0, abs=1e-12)
        assert shares[1] > shares[0]


class TestGridSweep:
    def test_full_grid_cell_count_and_order(self, bench):
        records = grid_sweep(bench, (GRID11, GRID11))
        assert len(records) == 121
        assert records[0].prices == (0.0, 0.0)
        assert records[1].prices == (0.0, 0.1)  # row-major: p_1 varies slowest
        assert records[-1].prices == (1.0, 1.0)

    def test_single_cell_equals_compare_worlds(self, bench):
        [record] = grid_sweep(bench, ((0.6,), (0.4,)))
        assert record == compare_worlds(bench.with_prices((0.6, 0.4)))

    def test_no_zre_cells_match_reference_set(self, bench):
        config = dataclasses.replace(bench, c=0.8)
        records = grid_sweep(config, (GRID11, GRID11))
        missing = {r.prices for r in records if r.zre.selected is None}
        assert missing == {(0.3, 0.3), (0.3, 0.4), (0.4, 0.3)}

    def test_bad_grid_rejected(self, bench):
        with pytest.raises(InvalidArgument):
            grid_sweep(bench, (GRID11,))
        with pytest.raises(InvalidArgument):
            grid_sweep(bench, (GRID11, ()))


class TestAggregateSigns:
    def test_benchmark_direction_pattern(self, bench):
        signs = aggregate_signs(grid_sweep(bench, (GRID11, GRID11)))
        assert signs.utility_signs == (1, 1)
        assert signs.share_signs == (-1, 1)

    def test_zero_deltas_classified_as_zero(self, bench):
        records = grid_sweep(bench, ((1.0,), (1.0,)))
        signs = aggregate_signs(records)
        assert signs.utility_signs == (0, 0)
        assert signs.share_signs == (0, 0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            aggregate_signs([])


class TestMonotonicity:
    def test_hhi_nondecreasing_on_ordered_benchmark(self, bench):
        records = grid_sweep(bench, (GRID11, GRID11))
        assert min(r.delta_hhi for r in records) >= -1e-12

    def test_hhi_can_drop_when_share_order_flips(self, bench):
        # With the high-value CP holding the smaller baseline, zero-rating
        # narrows the share gap and concentration may genuinely fall.
        config = dataclasses.replace(bench, phi=(0.1, 0.6, 0.2, 0.1))
        records = grid_sweep(config, (GRID11, GRID11))
        assert min(r.delta_hhi for r in records) < -1e-6

    def test_low_value_loss_when_locked_out(self, bench):
        hits = 0
        for record in grid_sweep(bench, (GRID11, GRID11)):
            selected = record.zre.selected
            if selected is None:
                continue
            if not any(selected.rows[0]) and any(selected.rows[1]):
                hits += 1
                assert record.delta_utility[0] < 0
                assert record.delta_utility[1] >= -1e-12
        assert hits > 0


class TestDiscountGridSweep:
    def test_cells_align_with_prices(self, bench):
        records = grid_sweep(bench, ((0.0, 1.0), (0.0, 1.0)), DEFAULT_DELTA_GRID)
        assert [r.prices for r in records] == [
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)
        ]
        by_prices = {r.prices: r for r in records}
        assert by_prices[(0.0, 0.0)].discounts == (1.0, 1.0)

    def test_missing_discount_equilibrium_zeroes_record(self, bench):
        [record] = grid_sweep(bench, ((0.5,), (0.5,)), DEFAULT_DELTA_GRID)
        assert record.discounts is None
        assert record.zre.all_zre == () and record.zre.selected is None
        assert record.delta_utility == (0.0, 0.0)
