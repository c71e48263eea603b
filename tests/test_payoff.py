"""CP utilities and ISP revenues."""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from zrsim import StrategyMatrix, allocate, compare_worlds, load_scenario, market, payoff, payoffs
from zrsim.equilibrium import DEFAULT_DELTA_GRID
from zrsim.market import profile_cells
from zrsim.payoff import _scores, code_scores, profile_table

from conftest import random_config, random_theta, reference_payoff_totals

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "zrsim" / "scenarios"


def test_no_zero_rating_utilities(bench):
    # Effective users of each CP over actual ISPs: (0.4+0.1) * (0.4+0.4).
    pv = payoffs(bench, StrategyMatrix.zeros(2, 2))
    assert pv.cp_utility[0] == pytest.approx(0.08, abs=1e-12)
    assert pv.cp_utility[1] == pytest.approx(0.20, abs=1e-12)
    assert pv.isp_revenue[0] == pytest.approx(0.20, abs=1e-12)


def test_zero_margin_relation_pays_nothing(bench):
    # q_1 equals delta_1 * p_1, so the first CP's relation adds an exact
    # zero and its utility is its unrelated pair's term alone.
    config = bench.with_prices((0.4, 1.0))
    theta = StrategyMatrix(((1, 0), (0, 0)))
    x = allocate(config, theta).x_effective
    assert payoffs(config, theta).cp_utility[0] == config.q[0] * x[0, 1] * config.c


def test_single_relation_pair_payoff(bench):
    config = bench.with_prices((0.4, 1.0))
    theta = StrategyMatrix(((0, 0), (1, 0)))
    x = allocate(config, theta).x_effective
    # The second CP's zero-rated pair pays 0.36, its unrelated one q_2 * x * c.
    expected = 0.36 + config.q[1] * x[1, 1] * config.c
    assert payoffs(config, theta).cp_utility[1] == pytest.approx(expected, abs=1e-12)


def test_totals_are_row_and_column_sums(bench):
    # The totals equal the pair payoffs summed in nested loops, utilities by
    # rows and revenues by columns, up to rounding: revenues come from the
    # price-free column sums.  Every fourth random draw has a zero price.
    cases = [(bench, StrategyMatrix(((0, 1), (1, 1))))]
    rng = np.random.default_rng(17)
    for n in range(1, 4):
        for m in range(1, 4):
            for draw in range(40):
                config = random_config(rng, n, m)
                if draw % 4 == 0:
                    p = list(config.p)
                    p[rng.integers(m)] = 0.0
                    config = config.with_prices(p)
                cases.append((config, random_theta(rng, config)))
    for config, theta in cases:
        pv = payoffs(config, theta)
        x = allocate(config, theta).x_effective
        utilities, revenues = reference_payoff_totals(config, theta.rows, x.tolist())
        np.testing.assert_allclose(pv.cp_utility, utilities, atol=1e-15)
        np.testing.assert_allclose(pv.isp_revenue, revenues, atol=1e-15)


def test_payoffs_scale_linearly_in_prices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        config = random_config(rng)
        theta = random_theta(rng, config)
        k = 0.37
        scaled = dataclasses.replace(
            config,
            q=tuple(v * k for v in config.q),
            p=tuple(v * k for v in config.p),
        )
        base = payoffs(config, theta)
        big = payoffs(scaled, theta)
        np.testing.assert_allclose(big.cp_utility, base.cp_utility * k, atol=1e-12)
        np.testing.assert_allclose(big.isp_revenue, base.isp_revenue * k, atol=1e-12)


def test_usage_coefficient_only_touches_unrelated_pairs():
    # The allocation does not read c, so raising c from 0.3 to 0.9 moves each
    # total by 0.6 times its unrelated pairs' q * x (CPs) or p * x (ISPs).
    rng = np.random.default_rng(9)
    for _ in range(20):
        config = random_config(rng, allow_zero_price=False)
        theta = random_theta(rng, config)
        pv_low = payoffs(dataclasses.replace(config, c=0.3), theta)
        pv_high = payoffs(dataclasses.replace(config, c=0.9), theta)
        off_x = np.where(theta.as_array() == 1, 0.0, allocate(config, theta).x_effective)
        cp_moves = 0.6 * np.asarray(config.q) * off_x.sum(axis=1)
        isp_moves = 0.6 * np.asarray(config.p) * off_x.sum(axis=0)
        np.testing.assert_allclose(pv_high.cp_utility - pv_low.cp_utility, cp_moves, atol=1e-15)
        np.testing.assert_allclose(pv_high.isp_revenue - pv_low.isp_revenue, isp_moves, atol=1e-15)


def test_nonnegative_margins_give_nonnegative_utilities():
    rng = np.random.default_rng(13)
    for _ in range(30):
        config = random_config(rng)
        theta = random_theta(rng, config)
        margins_ok = all(
            config.q[i] >= config.delta[j] * config.p[j]
            for i in range(config.n_cps)
            for j in range(config.n_isps)
            if theta.rows[i][j]
        )
        if not margins_ok:
            continue
        assert payoffs(config, theta).cp_utility.min() >= 0.0


def test_dummy_isp_users_generate_no_payoff(bench):
    # The dummy column holds a fifth of all users yet contributes to no sum:
    # utilities equal the q * c * effective-users identity over actual ISPs.
    theta = StrategyMatrix.zeros(2, 2)
    table = allocate(bench, theta)
    pv = payoffs(bench, theta)
    for i in range(2):
        expected = bench.q[i] * bench.c * table.x_effective[i, :].sum()
        assert pv.cp_utility[i] == pytest.approx(expected, abs=1e-15)
    assert table.x_pair[:, 0].sum() == pytest.approx(bench.psi[0], abs=1e-12)


@pytest.mark.parametrize("block_elements", [None, 3, 40])
def test_score_table_rows_equal_payoffs(block_elements, monkeypatch):
    # The batched table must reproduce the one-profile route bit for bit,
    # whatever the block size: 3 puts every profile in a block of its own,
    # 40 gives ragged blocks of 1-3 profiles.
    if block_elements is not None:
        monkeypatch.setattr(market, "BLOCK_ELEMENTS", block_elements)
    block_sizes = []
    allocations = payoff.allocations

    def recorded(config, cells, lattice=None):
        block_sizes.append(len(cells) * config.lattice_size * (config.n_isps + 1))
        return allocations(config, cells, lattice)

    monkeypatch.setattr(payoff, "allocations", recorded)
    shipped = {"benchmark": (0.3, 0.7), "bandwidth_high": (0.3, 0.3), "elasticity_low": (0.0, 0.6)}
    configs = [
        load_scenario(SCENARIOS / f"{name}.json").config.with_prices(prices)
        for name, prices in shipped.items()
    ]
    rng = np.random.default_rng(23)
    configs += [random_config(rng, n, m) for n, m in ((2, 2), (2, 3), (3, 3)) for _ in range(2)]
    for config in configs:
        n, m = config.n_cps, config.n_isps
        codes = np.arange(1 << (n * m))
        u, r = code_scores(config, codes)
        users = profile_table(config, profile_cells(codes, n, m)).users
        for k in codes:
            theta = StrategyMatrix.from_bitstring(format(k, f"0{n * m}b"), n, m)
            pv = payoffs(config, theta)
            assert np.array_equal(u[:, k], pv.cp_utility)
            assert np.array_equal(r[:, k], pv.isp_revenue)
            assert np.array_equal(users[k], allocate(config, theta).x_effective)
        one_profile = config.lattice_size * (m + 1)
        assert max(block_sizes) <= max(one_profile, market.BLOCK_ELEMENTS)
        block_sizes.clear()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_cps, seed", [(1, 1), (2, 1)])
def test_one_utility_summation_at_eight_isps(n_cps, seed):
    # From 8 terms numpy's sum adds pairwise, no longer in ISP order, so a
    # route that summed pair payoffs on its own would round differently:
    # the engine's table, payoffs() and the sweep's delta_u must all come
    # from the one ISP-ordered summation.
    config = random_config(np.random.default_rng(seed), n_cps, 8, allow_zero_price=False)
    record = compare_worlds(config)
    assert record.zre.selected is not None
    without = payoffs(config, StrategyMatrix.zeros(n_cps, 8)).cp_utility
    selected = payoffs(config, record.zre.selected).cp_utility
    u, _ = code_scores(config, [0, record.zre.selected.encoding()])
    assert _same_bits(u[:, 0], without) and _same_bits(u[:, 1], selected)
    assert _same_bits(record.delta_utility, selected - without)


def test_market_batch_keeps_the_arithmetic():
    # Scoring many markets in one call, as a list of L markets or as a box
    # (the product of per-ISP price and discount axes), must give, bit for
    # bit, what one-market calls give, U and every R_j: broadcasting changes
    # the layout only, and each term is the same product added in the same
    # order.  Market axes are innermost in memory, and R_j spans only ISP
    # j's own axes of the box.
    rng = np.random.default_rng(43)
    cases = []
    for n, m in [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3), (3, 3)]:
        config = random_config(rng, n, m)
        prices = rng.uniform(0.0, 1.0, size=(7, m))
        prices[rng.uniform(size=prices.shape) < 0.3] = 0.0
        prices[0] = 0.0
        cases.append((config, prices, rng.uniform(0.0, 1.0, size=(7, m))))
    for name in ("benchmark", "bandwidth_high"):
        scenario = load_scenario(SCENARIOS / f"{name}.json")
        prices = np.array(list(itertools.product(*scenario.price_grid)))
        deltas = np.array(DEFAULT_DELTA_GRID)[rng.integers(0, 11, size=prices.shape)]
        cases.append((scenario.config, prices, deltas))
    for config, prices, deltas in cases:
        n, m = config.n_cps, config.n_isps
        table = profile_table(config, profile_cells(np.arange(1 << (n * m)), n, m))

        def one(p, delta):
            p, delta = (np.asarray(v, dtype=float)[:, None] for v in (p, delta))
            u, r = _scores(config, table, p, delta)
            return u[..., 0], [r_j[:, 0] for r_j in r]

        u, r = _scores(config, table, prices.T, deltas.T)
        assert u.shape == (n, 1 << (n * m), len(prices))
        assert u.strides[-1] == u.itemsize and all(r_j.strides[-1] == u.itemsize for r_j in r)
        for l, (p, delta) in enumerate(zip(prices, deltas)):
            one_u, one_r = one(p, delta)
            assert _same_bits(u[..., l], one_u)
            assert all(_same_bits(r_j[:, l], o) for r_j, o in zip(r, one_r))
        # A box of three prices (the first one zero) and two discounts per
        # ISP: axis j holds ISP j's prices and axis m + j its discounts.
        box = [prices[:3, j] for j in range(m)] + [deltas[:2, j] for j in range(m)]
        along = [
            np.reshape(v, [-1 if b == a else 1 for b in range(2 * m)]) for a, v in enumerate(box)
        ]
        u, r = _scores(config, table, along[:m], along[m:])
        assert u.shape[2:] == (3,) * m + (2,) * m and u.strides[-1] == u.itemsize
        for j, r_j in enumerate(r):
            own = tuple(len(v) if a in (j, m + j) else 1 for a, v in enumerate(box))
            assert r_j.shape[1:] == own
        for at in np.ndindex(u.shape[2:]):
            values = [v[a] for v, a in zip(box, at)]
            one_u, one_r = one(values[:m], values[m:])
            assert _same_bits(u[(...,) + at], one_u)
            for r_j, o in zip(r, one_r):
                assert _same_bits(np.broadcast_to(r_j, u.shape[1:])[(slice(None),) + at], o)


def test_payoffs_score_a_market_past_the_code_limit():
    # payoffs reads the profile's cells, not its int64 code, so it scores a
    # market of 64 cells, which the profile-code routes refuse.
    config = random_config(np.random.default_rng(1), 8, 8, allow_zero_price=False)
    theta = random_theta(np.random.default_rng(2), config)
    pv = payoffs(config, theta)
    x = allocate(config, theta).x_effective
    utilities, revenues = reference_payoff_totals(config, theta.rows, x.tolist())
    np.testing.assert_allclose(pv.cp_utility, utilities, atol=1e-15)
    np.testing.assert_allclose(pv.isp_revenue, revenues, atol=1e-15)
