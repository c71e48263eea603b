"""Market structure and user allocation."""

import itertools
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zrsim import (
    ConfigError,
    ContractViolation,
    DomainError,
    InvalidArgument,
    MarketConfig,
    StrategyMatrix,
    allocate,
    choice_probability,
    merge_providers,
    oracle_allocate,
)
from zrsim import load_scenario, market
from zrsim.analysis import grid_sweep
from zrsim.market import (
    _bundles_zero_rated, _members, _rho, allocations, aux_members, profile_cells
)

from conftest import random_config, random_theta

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "zrsim" / "scenarios"


class TestMarketConfig:
    def test_benchmark_is_valid(self, bench):
        assert bench.lattice_size == 4
        assert bench.total_users == 1.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 1.2),
            ("alpha", -0.1),
            ("c", 0.0),
            ("c", 1.5),
            ("q", (0.4, 1.2)),
            ("p", (1.0, -0.2)),
            ("delta", (1.0, 1.1)),
            ("phi", (0.1, 0.4, 0.4, 0.2)),  # sums to 1.1
            ("phi", (0.0, 0.5, 0.4, 0.1)),  # zero entry
            ("psi", (0.2, 0.4)),  # wrong length
            ("total_users", 0.0),
        ],
    )
    def test_rejects_bad_values(self, bench, field, value):
        kwargs = {f: getattr(bench, f) for f in (
            "n_cps", "n_isps", "alpha", "c", "q", "p", "delta", "phi", "psi", "total_users"
        )}
        kwargs[field] = value
        with pytest.raises(ConfigError):
            MarketConfig(**kwargs)

    def test_share_sum_tolerance_is_tight(self, bench):
        phi = (0.1 + 1e-6, 0.4, 0.4, 0.1)
        with pytest.raises(ConfigError):
            MarketConfig(
                n_cps=2, n_isps=2, alpha=0.5, c=0.5, q=(0.4, 1.0), p=(1.0, 1.0),
                delta=(1.0, 1.0), phi=phi, psi=(0.2, 0.4, 0.4),
            )

    def test_config_is_hashable_and_replaceable(self, bench):
        assert hash(bench) == hash(bench.with_prices(bench.p))
        moved = bench.with_prices((0.3, 0.7))
        assert moved.p == (0.3, 0.7)
        assert moved.q == bench.q

    @pytest.mark.parametrize("name", ["bandwidth_high", "discount_game"])
    def test_cell_market_is_the_replaced_market(self, name):
        # Every cell of the scenario's sweep, at its record's discounts (the
        # scenario's own at a NODEQ cell), and once more from numpy values
        # and integers: the cell market shares the template's validated
        # fields, yet matches a fully re-validated replace in ==, in hash
        # and field by field, types included.
        scenario = load_scenario(SCENARIOS / f"{name}.json")
        config = scenario.config
        records = grid_sweep(config, scenario.price_grid, scenario.delta_grid)
        assert len(records) == 121
        cells = [(r.prices, config.delta if r.discounts is None else r.discounts) for r in records]
        cells += [(np.array(p), tuple(map(round, d))) for p, d in cells]
        for p, delta in cells:
            cell = config.with_cell(p, delta)
            expected = replace(config, p=p, delta=delta)
            assert cell == expected and hash(cell) == hash(expected)
            for field in fields(MarketConfig):
                got, want = getattr(cell, field.name), getattr(expected, field.name)
                assert repr(got) == repr(want), field.name
                assert type(got) is type(want), field.name
            assert cell.with_prices(p) == expected

    @pytest.mark.parametrize(
        "p,delta",
        [
            ((1.0, -0.2), (1.0, 1.0)),
            ((1.5, 1.0), (1.0, 1.0)),
            ((float("nan"), 1.0), (1.0, 1.0)),
            ((1.0, 1.0), (1.0, 1.1)),
            ((1.0, 1.0), (-0.1, 1.0)),
            ((1.0, 1.0), (1.0, float("nan"))),
            ((1.0,), (1.0, 1.0)),
            ((1.0, 1.0, 1.0), (1.0, 1.0)),
            ((1.0, 1.0), (1.0,)),
        ],
    )
    def test_cell_market_rejects_bad_prices_and_discounts(self, bench, p, delta):
        # Only prices and discounts are checked, with construction's messages.
        with pytest.raises(ConfigError) as built:
            replace(bench, p=p, delta=delta)
        with pytest.raises(ConfigError) as derived:
            bench.with_cell(p, delta)
        assert str(derived.value) == str(built.value)
        if delta == bench.delta:
            with pytest.raises(ConfigError) as moved:
                bench.with_prices(p)
            assert str(moved.value) == str(built.value)


class TestStrategyMatrix:
    def test_bitstring_round_trip(self):
        theta = StrategyMatrix.from_bitstring("0111", 2, 2)
        assert theta.rows == ((0, 1), (1, 1))
        assert theta.bitstring() == "0111"
        assert theta.encoding() == 7

    def test_flip_is_local(self):
        theta = StrategyMatrix.zeros(2, 2).flip(1, 0)
        assert theta.rows == ((0, 0), (1, 0))
        assert theta.flip(1, 0) == StrategyMatrix.zeros(2, 2)

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidArgument):
            StrategyMatrix(((0, 2), (0, 0)))


class TestExtendTheta:
    @staticmethod
    def _extended(theta):
        # Relations extended to the lattice, [s, j]: auxiliary CP s x ISP j,
        # the dummy ISP at column 0.
        return _bundles_zero_rated(theta.as_array()[None] == 1, _members(theta.n_cps))[0]

    def test_bundle_requires_all_members(self):
        ext = self._extended(StrategyMatrix(((1, 0), (1, 1))))
        # bundle {CP1, CP2} = mask 3; ISP indices include the dummy at 0
        assert ext[3, 1] == 1
        assert ext[3, 2] == 0

    def test_dummies_never_zero_rated(self):
        ext = self._extended(StrategyMatrix.ones(2, 2))
        assert ext[0, 1] == 0
        assert ext[3, 0] == 0

    def test_aux_helpers(self):
        assert aux_members(5) == (0, 2)
        # The auxiliary masks whose bundle includes CP 0, and CP 1.
        assert tuple(np.flatnonzero(_members(2)[:, 0])) == (1, 3)
        assert tuple(np.flatnonzero(_members(2)[:, 1])) == (2, 3)


class TestChoiceProbability:
    def test_full_set_gives_baseline_product(self, bench):
        full = {(s, j) for s in range(4) for j in range(3)}
        p = choice_probability(full, 1, 1, bench)
        assert p == pytest.approx(bench.phi[1] * bench.psi[1], abs=1e-15)

    def test_singleton_normalizes_to_one(self, bench):
        assert choice_probability({(2, 1)}, 2, 1, bench) == pytest.approx(1.0)

    def test_symmetric_pair_splits_evenly(self, bench):
        pairs = {(1, 1), (2, 1)}
        assert choice_probability(pairs, 2, 1, bench) == pytest.approx(0.5)

    def test_outside_set_is_zero(self, bench):
        assert choice_probability({(1, 1)}, 2, 1, bench) == 0.0

    def test_empty_set_rejected(self, bench):
        with pytest.raises(DomainError):
            choice_probability(set(), 1, 1, bench)

    def test_iia_ratio_invariance(self, bench):
        small = {(1, 1), (2, 1)}
        large = small | {(3, 2), (0, 0), (1, 2)}
        r_small = choice_probability(small, 1, 1, bench) / choice_probability(small, 2, 1, bench)
        r_large = choice_probability(large, 1, 1, bench) / choice_probability(large, 2, 1, bench)
        assert r_small == pytest.approx(r_large, rel=1e-12)


class TestAllocate:
    def test_no_zero_rating_is_baseline(self, bench):
        table = allocate(bench, StrategyMatrix.zeros(2, 2))
        assert table.rho[1, 1] == pytest.approx(0.16, abs=1e-15)
        expected = np.outer(bench.phi, bench.psi)
        np.testing.assert_allclose(table.rho, expected, atol=1e-15)

    def test_single_relation_concentrates_elastic_users(self, bench):
        # Only the high-value CP zero-rates with ISP 1: the whole elastic
        # mass lands on that pair, on top of its sticky baseline.
        theta = StrategyMatrix.zeros(2, 2).flip(1, 0)
        table = allocate(bench, theta)
        assert table.rho[2, 1] == pytest.approx(0.58, abs=1e-12)
        assert table.x_effective[1, 0] == pytest.approx(0.60, abs=1e-12)
        # cross-check against the independent enumeration route
        oracle = oracle_allocate(bench, theta)
        assert abs(oracle.rho - table.rho).max() < 1e-12

    def test_all_relations_scale_by_common_factor(self, bench):
        table = allocate(bench, StrategyMatrix.ones(2, 2))
        baseline = np.outer(bench.phi, bench.psi)
        ratio = table.rho[1:, 1:] / baseline[1:, 1:]
        assert ratio.max() - ratio.min() < 1e-12

    def test_dimension_mismatch_rejected(self, bench):
        with pytest.raises(InvalidArgument):
            allocate(bench, StrategyMatrix.zeros(3, 2))

    def test_conservation_and_sticky_floor_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            config = random_config(rng)
            theta = random_theta(rng, config)
            table = allocate(config, theta)
            assert table.rho.sum() == pytest.approx(1.0, abs=1e-12)
            assert table.rho.min() >= 0.0
            floor = (1.0 - config.alpha) * np.outer(config.phi, config.psi)
            assert (table.rho - floor).min() > -1e-12

    def test_zero_rating_attracts_users(self):
        # Flipping a cell on strictly raises that pair's effective users
        # whenever any users are elastic.
        rng = np.random.default_rng(11)
        for _ in range(50):
            config = random_config(rng, allow_zero_price=False)
            if config.alpha == 0.0:
                continue
            theta = random_theta(rng, config)
            i = int(rng.integers(config.n_cps))
            j = int(rng.integers(config.n_isps))
            if theta.rows[i][j] == 1:
                theta = theta.flip(i, j)
            before = allocate(config, theta).x_effective[i, j]
            after = allocate(config, theta.flip(i, j)).x_effective[i, j]
            assert after > before

    @given(
        alpha=st.floats(0.0, 1.0),
        bits=st.integers(0, 15),
        total=st.floats(0.5, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_users_scale_linearly(self, alpha, bits, total):
        base = MarketConfig(
            n_cps=2, n_isps=2, alpha=alpha, c=0.5, q=(0.4, 1.0), p=(0.6, 0.3),
            delta=(1.0, 1.0), phi=(0.1, 0.4, 0.4, 0.1), psi=(0.2, 0.4, 0.4),
        )
        import dataclasses

        scaled = dataclasses.replace(base, total_users=total)
        theta = StrategyMatrix.from_bitstring(f"{bits:04b}", 2, 2)
        unit = allocate(base, theta)
        big = allocate(scaled, theta)
        np.testing.assert_allclose(big.x_pair, unit.x_pair * total, atol=1e-12 * total)
        np.testing.assert_allclose(big.rho, unit.rho, atol=1e-15)

    def test_stacked_markets_allocate_as_each_alone(self):
        # Markets of one shape allocated in one call, their baselines and
        # alphas repeated along the profile axis, get every share bit for
        # bit as from their own allocation: all six shapes of the verify
        # battery's draws, with alpha 0, alpha 1 and a zero price among
        # them, at the all-zero, all-one and random profiles.
        rng = np.random.default_rng(61)
        for n, m in itertools.product((2, 3), (1, 2, 3)):
            group = [random_config(rng, n, m) for _ in range(4)]
            group[0] = replace(group[0], alpha=0.0)
            group[1] = replace(group[1], alpha=1.0, p=(0.0,) + group[1].p[1:])
            full = (1 << (n * m)) - 1
            codes = [[0, full, *rng.integers(0, full + 1, size=3).tolist()] for _ in group]
            baseline = np.repeat([np.outer(cfg.phi, cfg.psi) for cfg in group], 5, axis=0)
            alpha = np.repeat([cfg.alpha for cfg in group], 5)[:, None, None]
            cells = profile_cells(sum(codes, []), n, m)
            rho = _rho(cells, _members(n), baseline, alpha)
            for k, cfg in enumerate(group):
                alone = allocations(cfg, profile_cells(codes[k], n, m))[0]
                assert np.array_equal(rho[5 * k : 5 * k + 5], alone), (n, m, k)


class TestMergeProviders:
    def test_merge_equal_isp_columns(self, bench):
        theta = StrategyMatrix(((0, 0), (1, 1)))
        merged_config, merged_theta = merge_providers(bench, theta, isp_subset=(0, 1))
        assert merged_config.n_isps == 1
        assert merged_config.psi == (0.2, pytest.approx(0.8))
        assert merged_theta.rows == ((0,), (1,))
        old = allocate(bench, theta)
        new = allocate(merged_config, merged_theta)
        np.testing.assert_allclose(
            new.x_pair[:, 1], old.x_pair[:, 1] + old.x_pair[:, 2], atol=1e-12
        )
        np.testing.assert_allclose(new.x_pair[:, 0], old.x_pair[:, 0], atol=1e-12)

    def test_singleton_merge_is_identity(self, bench):
        theta = StrategyMatrix(((0, 1), (1, 1)))
        merged_config, merged_theta = merge_providers(bench, theta, cp_subset=(1,))
        assert merged_config == bench
        assert merged_theta == theta

    def test_unequal_profiles_rejected(self, bench):
        theta = StrategyMatrix(((0, 1), (1, 1)))
        with pytest.raises(ContractViolation):
            merge_providers(bench, theta, cp_subset=(0, 1))
        with pytest.raises(ContractViolation):
            merge_providers(bench, theta, isp_subset=(0, 1))

    def test_exactly_one_subset_required(self, bench):
        theta = StrategyMatrix.zeros(2, 2)
        with pytest.raises(InvalidArgument):
            merge_providers(bench, theta)
        with pytest.raises(InvalidArgument):
            merge_providers(bench, theta, cp_subset=(0,), isp_subset=(0,))

    def test_three_isp_merge_matches_reduced_market(self):
        rng = np.random.default_rng(23)
        config = random_config(rng, n_cps=2, n_isps=3, allow_zero_price=False)
        theta = StrategyMatrix.zeros(2, 3)
        merged_config, merged_theta = merge_providers(config, theta, isp_subset=(1, 2))
        old = allocate(config, theta)
        new = allocate(merged_config, merged_theta)
        np.testing.assert_allclose(
            new.x_pair[:, 2], old.x_pair[:, 2] + old.x_pair[:, 3], atol=1e-12
        )
        np.testing.assert_allclose(new.x_pair[:, :2], old.x_pair[:, :2], atol=1e-12)

    def test_cp_merge_additivity_random(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            config = random_config(rng, n_cps=3, n_isps=2)
            subset = sorted(
                rng.choice(3, size=int(rng.integers(2, 4)), replace=False).tolist()
            )
            theta = random_theta(rng, config)
            for i in subset[1:]:
                theta = theta.with_row(i, theta.rows[subset[0]])
            merged_config, merged_theta = merge_providers(config, theta, cp_subset=subset)
            old = allocate(config, theta)
            new = allocate(merged_config, merged_theta)
            summed = np.zeros_like(new.x_pair)
            for s in range(8):
                summed[_project_mask(s, subset), :] += old.x_pair[s, :]
            np.testing.assert_allclose(new.x_pair, summed, atol=1e-12)


def _project_mask(mask: int, merged: list[int]) -> int:
    """Map an old bundle mask onto the lattice after merging `merged` CPs."""
    keep = merged[0]
    dropped = set(merged[1:])
    old_to_new = {}
    idx = 0
    for i in range(3):
        if i not in dropped:
            old_to_new[i] = idx
            idx += 1
    out = 0
    for b in range(3):
        if not mask >> b & 1:
            continue
        if b in dropped or b == keep:
            out |= 1 << old_to_new[keep]
        else:
            out |= 1 << old_to_new[b]
    return out


@pytest.mark.parametrize(
    "shape, entries, block",
    [
        ((4, 4, 4), 1536, 1 << 16),  # wide-market's largest group: 2 boxes of 32 cells
        ((4, 4, 4), 1536, 1000),  # every cell alone
        ((5, 3), 7, 30),
        ((6, 6), 32, 1000),
        ((2, 3, 1331), 1, 1000),  # a cut trailing axis: 665 + 666, not 1000 + 331
        ((3,), 10, 1),
    ],
)
def test_sub_boxes_tile_the_box(shape, entries, block, monkeypatch):
    # Sub-boxes cover every cell exactly once, each within the block (or one
    # cell), and the cut axis is split into near-equal parts, so no sub-box
    # is more than twice as large as another.
    monkeypatch.setattr(market, "BLOCK_ELEMENTS", block)
    seen, sizes = np.zeros(shape, dtype=int), []
    for sub in market.sub_boxes(shape, entries):
        seen[sub] += 1
        sizes.append(seen[sub].size)
        assert sizes[-1] == 1 or sizes[-1] * entries <= block
    assert (seen == 1).all()
    assert max(sizes) - min(sizes) <= min(sizes)
