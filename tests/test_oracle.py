"""Brute-force oracle: choice sets, allocation equivalence, verdicts."""

import ast
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zrsim import (
    InvalidArgument,
    StrategyMatrix,
    allocate,
    elastic_choice_set,
    enumerate_zre,
    find_zre_violation,
    is_zre,
    oracle_allocate,
    oracle_verify_zre,
    sticky_choice_set,
)
from zrsim import load_scenario, oracle, verify
from zrsim.analysis import grid_sweep
from zrsim.equilibrium import GAIN_TOL
from zrsim.oracle import Violation

from conftest import flip, oracle_totals, random_config, random_theta

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "zrsim" / "scenarios"


def test_sticky_set_is_full_lattice(bench):
    pairs = sticky_choice_set(bench)
    assert len(pairs) == 4 * 3
    assert (0, 0) in pairs


def test_elastic_set_tracks_relations(bench):
    theta = StrategyMatrix(((0, 0), (1, 0)))
    pairs = elastic_choice_set(bench, theta)
    # Only the high-value CP's bundle on ISP 1 is zero-rated; the joint
    # bundle is not, because the other CP has no relation there.
    assert pairs == {(2, 1)}
    assert elastic_choice_set(bench, StrategyMatrix.zeros(2, 2)) == sticky_choice_set(bench)


def test_oracle_matches_baseline(bench):
    theta = StrategyMatrix.zeros(2, 2)
    diff = np.abs(oracle_allocate(bench, theta).rho - allocate(bench, theta).rho)
    assert diff.max() < 1e-12


def test_oracle_single_relation_value(bench):
    # Frozen hand value: elastic mass (0.5) all on the one zero-rated pair
    # plus its sticky baseline 0.5 * 0.16.
    theta = StrategyMatrix(((0, 0), (1, 0)))
    table = oracle_allocate(bench, theta)
    assert table.rho[2, 1] == pytest.approx(0.58, abs=1e-12)
    assert table.x_effective[1, 0] == pytest.approx(0.60, abs=1e-12)


def test_allocation_mixes_the_two_choice_probabilities():
    # Each class spreads over its own choice set in proportion to phi * psi,
    # built here from phi, psi and theta: the sticky class over every pair,
    # the elastic class over the zero-rated pairs (a bundle with an ISP
    # whose every member CP zero-rates with it; dummies never are), or over
    # every pair when there are none.  Normalisers summed in another order
    # than the oracle's differ in the last bits, hence the tolerance.  One
    # normaliser per choice set then gives, digit for digit, the mixture of
    # the per-pair choice probabilities of _distribution.
    rng = np.random.default_rng(107)
    for n_cps in range(1, 5):
        for _ in range(5):
            config = random_config(rng, n_cps, int(rng.integers(1, 4)))
            theta = random_theta(rng, config)
            rho = oracle_allocate(config, theta).rho
            pairs = [(s, j) for s in range(config.lattice_size) for j in range(config.n_isps + 1)]
            zero_rated = [
                (s, j) for s, j in pairs
                if s and j and all(theta.rows[i][j - 1] for i in range(n_cps) if s >> i & 1)
            ] or pairs
            weight = {(s, j): config.phi[s] * config.psi[j] for s, j in pairs}
            sticky_norm = sum(weight.values())
            elastic_norm = sum(weight[pair] for pair in zero_rated)
            built = np.zeros_like(rho)
            for s, j in pairs:
                p_elastic = weight[s, j] / elastic_norm if (s, j) in zero_rated else 0.0
                built[s, j] = ((1.0 - config.alpha) * weight[s, j] / sticky_norm
                               + config.alpha * p_elastic)
            np.testing.assert_allclose(rho, built, rtol=1e-14, atol=0.0)
            sticky = oracle._distribution(set(sticky_choice_set(config)), config)
            elastic = oracle._distribution(set(elastic_choice_set(config, theta)), config)
            for s in range(config.lattice_size):
                for j in range(config.n_isps + 1):
                    p_sticky, p_elastic = sticky.get((s, j), 0.0), elastic.get((s, j), 0.0)
                    expected = (1.0 - config.alpha) * p_sticky + config.alpha * p_elastic
                    assert rho[s, j] == expected, (n_cps, s, j)


def test_oracle_imports_no_closed_form():
    # The oracle is evidence only while it shares no arithmetic with the
    # closed-form route: from zrsim it may take the gain margin, the
    # errors and the market's data types, nothing else.
    allowed = {
        "equilibrium": {"GAIN_TOL"},
        "market": {"AllocationTable", "MarketConfig", "StrategyMatrix"},
    }
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, alias.name
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.level == 0:
                top = node.module.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, node.module
            else:
                assert node.level == 1 and node.module is not None, node.module
                if node.module != "errors":
                    assert node.module in allowed, node.module
                    assert names <= allowed[node.module], names - allowed[node.module]


def test_dual_route_allocation_fuzz():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        config = random_config(rng)
        theta = random_theta(rng, config)
        a = allocate(config, theta)
        b = oracle_allocate(config, theta)
        worst = max(worst, float(np.abs(a.rho - b.rho).max()))
        worst = max(worst, float(np.abs(a.x_effective - b.x_effective).max()))
    assert worst < 1e-12


def test_verdicts_agree_fuzz():
    rng = np.random.default_rng(103)
    for _ in range(120):
        config = random_config(rng, n_cps=2, n_isps=2)
        theta = random_theta(rng, config)
        assert is_zre(config, theta) == oracle_verify_zre(config, theta)
    # Every profile of every shape up to 6 cells, at random discounts: the
    # oracle accepts exactly the profiles that is_zre accepts and that the
    # hypercube halves of enumerate_zre keep.  The first draw of each shape
    # has a zero price, so forced cells shape the hypercube; 6-cell shapes,
    # whose oracle runs are the slow ones, get fewer draws.
    shapes = [(n, m) for n in range(1, 7) for m in range(1, 7) if n * m <= 6]
    for n, m in shapes:
        for draw in range(2 if n * m == 6 else 4):
            config = random_config(rng, n_cps=n, n_isps=m)
            if draw == 0:
                p = list(config.p)
                p[rng.integers(m)] = 0.0
                config = config.with_prices(p)
            accepted = []
            for theta in _valid_profiles(config):
                verdict = oracle_verify_zre(config, theta)
                assert is_zre(config, theta) == verdict, (n, m, draw, theta)
                if verdict:
                    accepted.append(theta)
            assert enumerate_zre(config).all_zre == tuple(accepted), (n, m, draw)


def test_oracle_verdicts_equal_one_at_a_time():
    # One call over markets of every shape from 1x1 to 3x3, each shown a
    # few random profiles; every fourth draw also zero-prices an ISP and
    # shows both markets, which share their allocations, the same ones.
    # Each market keeps, in the order shown, the profiles that
    # oracle_verify_zre accepts one at a time, and leaves out one that
    # breaks a forced cell, which oracle_verify_zre refuses.
    rng = np.random.default_rng(311)
    markets, among = [], []
    for draw in range(60):
        config = random_config(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        twins = [config]
        if draw % 4 == 0:
            p = list(config.p)
            p[rng.integers(config.n_isps)] = 0.0
            twins.insert(0, config.with_prices(p))
        thetas = [random_theta(rng, twins[0]) for _ in range(int(rng.integers(1, 6)))]
        markets += twins
        among += [thetas] * len(twins)
    expected = [tuple(t for t in ts if oracle_verify_zre(c, t)) for c, ts in zip(markets, among)]
    assert oracle.oracle_equilibria_among(markets, among) == expected
    assert any(expected) and not all(expected)
    breaker = StrategyMatrix.zeros(markets[0].n_cps, markets[0].n_isps)
    with pytest.raises(InvalidArgument):
        oracle_verify_zre(markets[0], breaker)
    assert oracle.oracle_equilibria_among(markets[:1], [[breaker] + among[0]]) == expected[:1]


def test_oracle_verdicts_keep_alpha_apart():
    # Markets that share phi, psi and total_users but differ in alpha have
    # different allocations, so a call files them apart; a market that
    # differs from another only in prices shares its allocations.  Every
    # profile of each market, with equilibria that differ across alpha.
    base = random_config(np.random.default_rng(0), 2, 2, allow_zero_price=False)
    markets = [replace(base, alpha=alpha) for alpha in (0.0, 0.5, 1.0)]
    markets.append(markets[1].with_prices((0.5, 0.5)))
    thetas = [StrategyMatrix.from_bitstring(format(code, "04b"), 2, 2) for code in range(16)]
    expected = [tuple(t for t in thetas if oracle_verify_zre(c, t)) for c in markets]
    assert len(set(expected[:3])) == 3
    assert oracle.oracle_equilibria_among(markets, [thetas] * 4) == expected


def test_violation_names_the_deviation(bench):
    # At top prices the only equilibrium is all-zero; a lone relation is
    # broken by its CP canceling.
    theta = StrategyMatrix(((0, 0), (1, 0)))
    violation = find_zre_violation(bench, theta)
    assert violation is not None
    assert violation.move == "cancel"
    assert (violation.cp, violation.isp) == (1, 0)
    assert "cp" in violation.gainers
    assert oracle_verify_zre(bench, StrategyMatrix.zeros(2, 2))


def _valid_profiles(config):
    """Every profile of ``config`` whose zero-price columns are all 1, in
    row-major bit order."""
    n, m = config.n_cps, config.n_isps
    forced = [j for j in range(m) if config.p[j] == 0.0]
    thetas = (StrategyMatrix.from_bitstring(format(code, f"0{n * m}b"), n, m)
              for code in range(1 << (n * m)))
    return [t for t in thetas if all(row[j] for row in t.rows for j in forced)]


def test_oracle_verdicts_are_those_of_find_zre_violation(monkeypatch):
    # Neither route builds a Violation, yet their verdicts are exactly the
    # ones find_zre_violation gives profile by profile, on bandwidth_high's
    # 121 battery markets as oracle-equilibrium sends them and over their
    # 1,681 valid profiles (seeded markets: the tests before and after).
    scenario = load_scenario(SCENARIOS / "bandwidth_high.json")
    records = grid_sweep(scenario.config, scenario.price_grid, scenario.delta_grid)
    battery = []
    monkeypatch.setattr(
        verify, "oracle_equilibria",
        lambda markets: battery.extend(markets) or oracle.oracle_equilibria(battery),
    )
    assert verify.check_oracle_equilibrium(scenario, records).passed
    assert len(battery) == 121
    found, valid = oracle.oracle_equilibria(battery), list(map(_valid_profiles, battery))
    assert found == [
        tuple(t for t in ts if find_zre_violation(c, t) is None) for c, ts in zip(battery, valid)
    ]
    assert oracle.oracle_equilibria_among(battery, valid) == found
    assert sum(map(len, valid)) == 1681 and 0 < sum(map(len, found)) < 1681


def test_oracle_equilibria_are_the_accepted_profiles():
    # One call over seeded markets of 1-3 CPs by 1-3 ISPs, every other one
    # with a zero-price ISP and every third at full discounts: each market's
    # list is every valid profile that find_zre_violation accepts, in
    # row-major bit order, and the engine's equilibria.  A rule with its
    # "or" and "and" swapped fails the engine comparison; a flip index aimed
    # at the wrong cell fails the find_zre_violation one.  The candidate
    # route, shown every valid profile in that order after a profile that
    # breaks a forced cell, returns the same tuples.
    rng = np.random.default_rng(313)
    markets = []
    for draw in range(36):
        config = random_config(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        if draw % 3 == 0:
            config = replace(config, delta=(1.0,) * config.n_isps)
        if draw % 2 == 0:
            p = list(config.p)
            p[rng.integers(config.n_isps)] = 0.0
            config = config.with_prices(p)
        markets.append(config)
    assert sum(0.0 in config.p for config in markets) >= 18
    found = oracle.oracle_equilibria(markets)
    assert len(found) == len(markets)
    for config, equilibria in zip(markets, found):
        accepted = [t for t in _valid_profiles(config) if find_zre_violation(config, t) is None]
        assert list(equilibria) == accepted, config
        assert equilibria == enumerate_zre(config).all_zre, config
    sizes = [len(equilibria) for equilibria in found]
    assert max(sizes) > 1
    among = [
        [StrategyMatrix.zeros(c.n_cps, c.n_isps)] * (0.0 in c.p) + _valid_profiles(c)
        for c in markets
    ]
    assert oracle.oracle_equilibria_among(markets, among) == found


@pytest.mark.parametrize(
    "alpha,bits,expected",
    [
        (0.5, "0100", Violation(0, 1, "cancel", ("cp",))),
        (0.0, "0001", Violation(1, 1, "cancel", ("isp",))),
        (0.1, "0101", Violation(0, 1, "cancel", ("cp", "isp"))),
        (0.5, "0000", Violation(1, 0, "establish", ("cp", "isp"))),
    ],
)
def test_violation_fields_of_each_move(bench, alpha, bits, expected):
    # At top prices and a 0.4 discount, a cancel that the CP gains from
    # alone, one the ISP gains from alone, one both gain from, and an
    # establish.  The named sides are exactly those whose oracle totals
    # rise by more than the margin when the cell flips.
    config = replace(bench, alpha=alpha, delta=(0.4, 0.4))
    theta = StrategyMatrix.from_bitstring(bits, 2, 2)
    violation = find_zre_violation(config, theta)
    assert type(violation) is Violation and violation == expected
    i, j = violation.cp, violation.isp
    assert theta.rows[i][j] == (violation.move == "cancel")
    base_u, base_r = oracle_totals(config, theta)
    flip_u, flip_r = oracle_totals(config, flip(theta, i, j))
    tol = GAIN_TOL * config.total_users
    gains = {"cp": flip_u[i] > base_u[i] + tol, "isp": flip_r[j] > base_r[j] + tol}
    assert violation.gainers == tuple(side for side, gain in gains.items() if gain)
    assert oracle.oracle_equilibria_among([config], [[theta]]) == [()]


def test_forced_cells_respected(bench):
    config = bench.with_prices((0.0, 1.0))
    all_forced = StrategyMatrix(((1, 0), (1, 0)))
    assert oracle_verify_zre(config, all_forced) == is_zre(config, all_forced)
    with pytest.raises(InvalidArgument):
        oracle_verify_zre(config, StrategyMatrix.zeros(2, 2))


def test_fully_forced_market_is_trivially_stable(bench):
    config = bench.with_prices((0.0, 0.0))
    assert oracle_verify_zre(config, StrategyMatrix.from_bitstring("1111", 2, 2))
