"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Reference values come from the published duopoly evaluation: the benchmark
equilibrium map, the no-equilibrium cells of the high-usage-coefficient
variant, the reported discount-profile grid, and the direction table of
average utility/share changes.  Numbered criteria:

1. benchmark equilibrium map selects only value-ordering-admissible profiles
2. exact no-equilibrium cell set at c = 0.8
3. discount game vs. the published grid (rows = first ISP's price): every
   cell either matches or its published profile is refuted by a unilateral
   grid deviation gaining >= 1e-3; the four corner anchors are re-checked
   on the oracle route; full per-cell diff artifact
4. direction (sign) table across all parameter variants
5. concentration never drops on share-ordered grids
6. locked-out low-value CP always loses utility
7. Herfindahl identities over randomized configs
8. closed form vs. brute-force oracle equivalence
9. provider-merge additivity
"""

import csv
import dataclasses
import itertools
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import zrsim
from zrsim import (
    MarketConfig,
    StrategyMatrix,
    aggregate_signs,
    allocate,
    enumerate_zre,
    grid_sweep,
    hhi_variance_identity,
    is_zre,
    load_scenario,
    oracle_allocate,
    oracle_verify_zre,
    payoffs,
)
from zrsim.equilibrium import DEFAULT_DELTA_GRID, GAIN_TOL
from zrsim.oracle import oracle_equilibria

from conftest import (
    GRID11, documented_delta_star, hhi, merge_providers, oracle_totals, random_config,
    random_theta, tie_break_winner,
)

BENCH = MarketConfig(
    n_cps=2,
    n_isps=2,
    alpha=0.5,
    c=0.5,
    q=(0.4, 1.0),
    p=(1.0, 1.0),
    delta=(1.0, 1.0),
    phi=(0.1, 0.4, 0.4, 0.1),
    psi=(0.2, 0.4, 0.4),
)

VARIANTS = {
    "benchmark": BENCH,
    "c=0.2": dataclasses.replace(BENCH, c=0.2),
    "c=0.8": dataclasses.replace(BENCH, c=0.8),
    "alpha=0.2": dataclasses.replace(BENCH, alpha=0.2),
    "alpha=0.8": dataclasses.replace(BENCH, alpha=0.8),
    "phi=(0.1,0.2,0.6,0.1)": dataclasses.replace(BENCH, phi=(0.1, 0.2, 0.6, 0.1)),
    "phi=(0.1,0.6,0.2,0.1)": dataclasses.replace(BENCH, phi=(0.1, 0.6, 0.2, 0.1)),
    "psi=(0.2,0.2,0.6)": dataclasses.replace(BENCH, psi=(0.2, 0.2, 0.6)),
    "psi=(0.2,0.6,0.2)": dataclasses.replace(BENCH, psi=(0.2, 0.6, 0.2)),
}

# Published discount-profile grid: row label = first ISP's price, column
# label = second ISP's price, both 0.0..1.0 in steps of 0.1; each cell is the
# printed pair read as (delta_1, delta_2).  The table is transpose-symmetric
# (cell (r, c) is cell (c, r) reversed), so swapping the axes is the same
# error as swapping each pair.  Read this way round, no cell discounts a
# zero-price ISP (whose delta multiplies p = 0 and enters no payoff), and
# wherever only one ISP discounts it is the pricier one.
REFERENCE_DISCOUNTS = """
1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,0.9 1.0,0.8 1.0,0.7 1.0,0.6 1.0,0.5
1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,0.9 1.0,0.8 1.0,0.7 1.0,0.6 1.0,0.5
1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,0.8 1.0,0.7 1.0,0.6 1.0,1.0
1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,0.7 1.0,1.0 1.0,0.6
1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,0.6
1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,0.9 1.0,0.8 1.0,0.7 1.0,0.6
0.9,1.0 0.9,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,0.8 1.0,0.7 1.0,1.0
0.8,1.0 0.8,1.0 0.8,1.0 1.0,1.0 1.0,1.0 0.9,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0 1.0,1.0
0.7,1.0 0.7,1.0 0.7,1.0 0.7,1.0 1.0,1.0 0.8,1.0 0.8,1.0 1.0,1.0 1.0,1.0 1.0,0.9 1.0,0.8
0.6,1.0 0.6,1.0 0.6,1.0 1.0,1.0 1.0,1.0 0.7,1.0 0.7,1.0 1.0,1.0 0.9,1.0 0.9,0.9 0.9,0.8
0.5,1.0 0.5,1.0 1.0,1.0 0.6,1.0 0.6,1.0 0.6,1.0 1.0,1.0 1.0,1.0 0.8,1.0 0.8,0.9 0.8,0.8
"""


def _reference_table() -> dict[tuple[float, float], tuple[float, float]]:
    table = {}
    for r, line in enumerate(REFERENCE_DISCOUNTS.strip().splitlines()):
        for c, cell in enumerate(line.split()):
            d1, d2 = (float(x) for x in cell.split(","))
            table[(r / 10, c / 10)] = (d1, d2)
    return table


# A published discount profile that zrsim does not reproduce must be
# refuted under the documented discount game (``discount_equilibrium``):
# some ISP must raise its revenue, taken at the tie-break-selected
# equilibrium, by at least REFUTATION_MARGIN through a unilateral grid
# deviation.  The smallest refuting gain on the grid is 9.2e-3, so neither
# GAIN_TOL nor float noise decides a verdict.  A published profile that is
# itself a Nash profile but was not selected cannot be refuted and fails.
REFUTATION_MARGIN = 1e-3
# The table's corners, checked a second time on the oracle route.
ANCHORS = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))


class Deviation(NamedTuple):
    gain: float
    isp: int
    delta: float
    before: float
    after: float


def _best_deviation(revenue_of, delta):
    """Most profitable unilateral grid deviation from ``delta``.

    ``revenue_of`` maps a discount profile to the ISP revenues at its
    selected equilibrium, or None when it admits none.  Ties go to the
    first ISP, then the lowest deviation.  None when ``delta`` or every
    deviation from it admits no equilibrium.
    """
    base = revenue_of(delta)
    if base is None:
        return None
    best = None
    for j in range(len(delta)):
        for alt in GRID11:
            if alt == delta[j]:
                continue
            after = revenue_of(delta[:j] + (alt,) + delta[j + 1 :])
            if after is None:
                continue
            gain = after[j] - base[j]
            if best is None or gain > best.gain:
                best = Deviation(gain, j, alt, base[j], after[j])
    return best


def _closed_form_revenues(config):
    def revenue_of(delta):
        market = dataclasses.replace(config, delta=delta)
        result = enumerate_zre(market)
        if result.selected is None:
            return None
        return tuple(float(r) for r in payoffs(market, result.selected).isp_revenue)

    return revenue_of


def _oracle_revenues(config):
    """Selected-equilibrium ISP revenues of every grid discount profile.

    Brute-force route: each market's equilibria by the oracle's deviation
    checks over all profiles that keep zero-price columns at 1 (one
    ``oracle_equilibria`` call over the grid's markets), selection by
    conftest's ``tie_break_winner``, and revenues summed pair by pair from
    the oracle allocation.
    """
    markets = [
        dataclasses.replace(config, delta=d)
        for d in itertools.product(GRID11, repeat=config.n_isps)
    ]
    revenues = {}
    for market, zre in zip(markets, oracle_equilibria(markets)):
        revenues[market.delta] = (
            tuple(oracle_totals(market, tie_break_winner(market, zre))[1]) if zre else None
        )
    return revenues


# discount_equilibrium's choice among Nash profiles, per its docstring.
_documented_selection = documented_delta_star


def _fmt_delta(delta):
    return "NODEQ" if delta is None else ",".join(f"{d:.1f}" for d in delta)


def _admissible_profiles() -> set[str]:
    out = set()
    for bits in itertools.product((0, 1), repeat=4):
        if (bits[0] == 1 and bits[2] == 0) or (bits[1] == 1 and bits[3] == 0):
            continue
        out.add("".join(map(str, bits)))
    return out


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS  ({detail})")


def test_c1_benchmark_equilibrium_map():
    start = time.perf_counter()
    selected = set()
    for p1 in GRID11:
        for p2 in GRID11:
            result = enumerate_zre(BENCH.with_prices((p1, p2)))
            assert result.selected is not None
            bits = result.selected.bitstring()
            selected.add(bits)
            assert not (bits[0] == "1" and bits[2] == "0")
            assert not (bits[1] == "1" and bits[3] == "0")
    elapsed = time.perf_counter() - start
    admissible = _admissible_profiles()
    assert len(admissible) == 9
    assert selected <= admissible
    assert elapsed < 5.0, f"map took {elapsed:.2f}s, target 5s"
    _report(1, f"{len(selected)} admissible profiles selected in {elapsed:.2f}s")


def test_c2_no_equilibrium_cells_exact():
    config = dataclasses.replace(BENCH, c=0.8)
    missing = set()
    for p1 in GRID11:
        for p2 in GRID11:
            if enumerate_zre(config.with_prices((p1, p2))).selected is None:
                missing.add((p1, p2))
    assert missing == {(0.3, 0.3), (0.3, 0.4), (0.4, 0.3)}
    _report(2, "no-equilibrium set matches the reference exactly")


def test_c3_discount_game_reference_grid(tmp_path):
    start = time.perf_counter()
    records = grid_sweep(BENCH, (GRID11, GRID11), DEFAULT_DELTA_GRID)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"discount grid took {elapsed:.1f}s, target 120s"

    computed = {r.prices: r.discounts for r in records}
    reference = _reference_table()
    assert reference.keys() == computed.keys()
    # Transcription check: a zero-price ISP's delta enters no payoff, so the
    # largest-profile selection always gives it 1.0.
    discounted_free = {
        prices: want
        for prices, want in reference.items()
        if any(p == 0.0 and d != 1.0 for p, d in zip(prices, want))
    }
    assert not discounted_free, f"published cells discount a zero-price ISP: {discounted_free}"

    diff_path = tmp_path / "discount_grid_diff.csv"
    outcomes = {}
    unexplained = []
    with diff_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["p_1", "p_2", "computed", "reference", "outcome",
             "isp", "delta_dev", "revenue_before", "revenue_after"]
        )
        for prices in itertools.product(GRID11, GRID11):
            got, want = computed[prices], reference[prices]
            dev = None
            if got == want:
                outcome = "match"
            else:
                dev = _best_deviation(_closed_form_revenues(BENCH.with_prices(prices)), want)
                outcome = "refuted"
                if dev is None or dev.gain < REFUTATION_MARGIN:
                    outcome = "unexplained"
                    unexplained.append((prices, _fmt_delta(got), _fmt_delta(want), dev))
            outcomes[prices] = (outcome, dev)
            line = f"  cell {prices}: reference {_fmt_delta(want)}, computed {_fmt_delta(got)}: {outcome}"
            extra = ["", "", "", ""]
            if dev is not None:
                extra = [dev.isp + 1, dev.delta, f"{dev.before:.6f}", f"{dev.after:.6f}"]
                line += (
                    f" by ISP {dev.isp + 1} moving to {dev.delta:.1f} "
                    f"(revenue {dev.before:.3f} -> {dev.after:.3f})"
                )
            writer.writerow([*prices, _fmt_delta(got), _fmt_delta(want), outcome, *extra])
            print(line)
    counts = {k: sum(o == k for o, _ in outcomes.values()) for k in ("match", "refuted")}
    gains = [dev.gain for o, dev in outcomes.values() if o == "refuted"]
    print(
        f"discount grid diff: {counts['match']}/121 cells match, {counts['refuted']} "
        f"published profiles refuted (smallest gain {min(gains, default=float('nan')):.2e}); "
        f"full table at {diff_path}"
    )
    assert not unexplained, (
        "published profiles neither reproduced nor refuted by a unilateral grid "
        f"deviation gaining >= {REFUTATION_MARGIN}: {unexplained}"
    )

    # Anchors: repeat the refutation and the selection on the oracle route.
    for prices in ANCHORS:
        config = BENCH.with_prices(prices)
        revenues = _oracle_revenues(config)
        nash = []
        for delta, rev in revenues.items():
            if rev is None:
                continue
            dev = _best_deviation(revenues.get, delta)
            if dev is None or dev.gain <= GAIN_TOL * config.total_users:
                nash.append(delta)
        assert computed[prices] == _documented_selection(config, nash), (
            f"anchor {prices}: oracle Nash profiles {nash} select "
            f"{_fmt_delta(_documented_selection(config, nash))}, zrsim gives "
            f"{_fmt_delta(computed[prices])}"
        )
        outcome, dev = outcomes[prices]
        verdict = f"matched by zrsim's {_fmt_delta(computed[prices])}"
        if outcome == "refuted":
            oracle_dev = _best_deviation(revenues.get, reference[prices])
            assert oracle_dev.gain >= REFUTATION_MARGIN
            assert (oracle_dev.isp, oracle_dev.delta) == (dev.isp, dev.delta)
            assert abs(oracle_dev.before - dev.before) < 1e-12
            assert abs(oracle_dev.after - dev.after) < 1e-12
            verdict = (
                f"refuted by ISP {dev.isp + 1} moving to {dev.delta:.1f} "
                f"(revenue {dev.before:.3f} -> {dev.after:.3f}); zrsim selects "
                f"{_fmt_delta(computed[prices])}"
            )
        print(
            f"anchor {prices}: reference {_fmt_delta(reference[prices])} {verdict}; "
            f"same on the oracle route, the documented choice among {len(nash)} Nash profiles"
        )
    _report(
        3,
        f"{counts['match']} cells match, {counts['refuted']} refuted, anchors "
        f"re-checked on the oracle route; sweep {elapsed:.1f}s",
    )


def test_c3_gap_is_cp2_zero_rating_threshold():
    # c3's gap as a pair of numbers on discount_game.json's p_1 = 0 row,
    # where ISP 1's discount multiplies a zero price, so ISP 2 alone picks
    # delta_2, up to the largest one at which CP 2 still zero-rates with it.
    # zrsim: CP 2's utility at 1011 (both relations) and at 1010 (ISP 1
    # only) is equal where delta_2 p_2 is the threshold below, from the
    # allocations alone.  Published: each discounted cell of the row is the
    # largest grid delta_2 with delta_2 p_2 under one threshold, so the row
    # admits the band [largest delta_2 p_2, smallest next-grid delta_2 p_2).
    # Report only: zrsim's threshold lies below the band.
    scenario = load_scenario(Path(zrsim.__file__).parent / "scenarios" / "discount_game.json")
    market = scenario.config.with_prices((0.0, 1.0))
    assert market == BENCH.with_prices((0.0, 1.0))
    both, alone = (
        allocate(market, StrategyMatrix.from_bitstring(bits, 2, 2)).x_effective
        for bits in ("1011", "1010")
    )
    q, c = market.q[1], market.c
    kept = q * both[1, 0] + q * both[1, 1] - q * alone[1, 0] - q * c * alone[1, 1]
    threshold = kept / both[1, 1]
    assert abs(threshold - 0.46632996632996654) < 1e-12
    for delta_2, keeps in ((threshold - 1e-6, True), (threshold + 1e-6, False)):
        cell = dataclasses.replace(market, delta=(1.0, delta_2))
        utility = {
            bits: payoffs(cell, StrategyMatrix.from_bitstring(bits, 2, 2)).cp_utility[1]
            for bits in ("1011", "1010")
        }
        assert (utility["1011"] > utility["1010"]) == keeps
    row = {p2: d for (p1, p2), d in _reference_table().items() if p1 == 0.0 and p2 > 0.0}
    low = max(p2 * d2 for p2, (_, d2) in row.items())
    high = min(p2 * GRID11[GRID11.index(d2) + 1] for p2, (_, d2) in row.items() if d2 < 1.0)
    assert sorted(p2 for p2, (_, d2) in row.items() if d2 < 1.0) == [0.6, 0.7, 0.8, 0.9, 1.0]
    assert abs(low - 0.56) < 1e-12 and abs(high - 0.6) < 1e-12
    assert threshold < low < high
    print(
        f"c3 gap on the p_1 = 0 row: zrsim's CP 2 leaves ISP 2 above delta_2 p_2 = "
        f"{threshold:.5f}; the published row admits [{low:.2f}, {high:.2f})"
    )


def test_c4_direction_table_signs():
    expected = {name: ((1, -1), (1, 1)) for name in VARIANTS}
    expected["c=0.8"] = ((-1, -1), (1, 1))
    for name, config in VARIANTS.items():
        signs = aggregate_signs(grid_sweep(config, (GRID11, GRID11)))
        got = (
            (signs.utility_signs[0], signs.share_signs[0]),
            (signs.utility_signs[1], signs.share_signs[1]),
        )
        assert got == expected[name], f"{name}: got {got}, expected {expected[name]}"
    _report(4, f"{len(VARIANTS)} grids reproduce the direction table")


def test_c5_concentration_never_drops_on_ordered_grids():
    # The non-decreasing concentration statement assumes values and
    # single-CP baselines are ordered the same way; the flipped-share
    # variant violates that hypothesis (and genuinely shows drops, see
    # test_analysis.TestMonotonicity), so the ordered eight are asserted.
    ordered = {
        name: config
        for name, config in VARIANTS.items()
        if config.phi[1] <= config.phi[2]
    }
    assert len(ordered) == 8
    worst = 0.0
    for config in ordered.values():
        for record in grid_sweep(config, (GRID11, GRID11)):
            worst = min(worst, record.delta_hhi)
            assert record.delta_hhi >= -1e-12
    _report(5, f"8 ordered grids, min concentration delta {worst:.3e}")


def test_c6_locked_out_low_value_cp_loses():
    qualifying = 0
    for config in VARIANTS.values():
        for record in grid_sweep(config, (GRID11, GRID11)):
            selected = record.zre.selected
            if selected is None:
                continue
            if any(selected.rows[0]) or not any(selected.rows[1]):
                continue
            qualifying += 1
            assert record.delta_utility[0] < 0.0, f"at {record.prices}"
            assert record.delta_utility[1] >= -1e-12, f"at {record.prices}"
    assert qualifying > 0
    _report(6, f"{qualifying} locked-out cells across all grids")


def test_c7_herfindahl_identities_randomized():
    rng = np.random.default_rng(1009)
    worst_identity = 0.0
    worst_equality = 0.0
    for _ in range(1000):
        config = random_config(rng)
        shares = rng.uniform(0.01, 2.0, size=int(rng.integers(1, 7)))
        a, b = hhi_variance_identity(shares)
        worst_identity = max(worst_identity, abs(a - b))
        zeros = StrategyMatrix.zeros(config.n_cps, config.n_isps)
        ones = StrategyMatrix(((1,) * config.n_isps,) * config.n_cps)
        worst_equality = max(worst_equality, abs(hhi(config, zeros) - hhi(config, ones)))
    assert worst_identity < 1e-12
    assert worst_equality < 1e-12
    _report(
        7,
        f"1000 configs: identity gap {worst_identity:.2e}, "
        f"all-or-none gap {worst_equality:.2e}",
    )


def test_c8_oracle_equivalence_fuzz():
    rng = np.random.default_rng(2003)
    worst = 0.0
    disagreements = 0
    for _ in range(1000):
        config = random_config(rng)
        theta = random_theta(rng, config)
        table = allocate(config, theta)
        oracle = oracle_allocate(config, theta)
        worst = max(worst, float(np.abs(table.rho - oracle.rho).max()))
        worst = max(worst, float(np.abs(table.x_effective - oracle.x_effective).max()))
        if is_zre(config, theta) != oracle_verify_zre(config, theta):
            disagreements += 1
    assert worst < 1e-12
    assert disagreements == 0
    _report(8, f"1000 fuzzed pairs: max error {worst:.2e}, verdicts all agree")


def test_c9_merge_additivity_randomized():
    rng = np.random.default_rng(3001)
    worst = 0.0
    for trial in range(500):
        # Even trials merge two of three ISPs, odd ones two of three CPs,
        # after giving the dropped provider the kept one's profile.
        merge_isps = trial % 2 == 0
        config = random_config(rng, n_cps=2 if merge_isps else 3, n_isps=3 if merge_isps else 2)
        rows = random_theta(rng, config).rows
        keep, drop = subset = sorted(rng.choice(3, size=2, replace=False).tolist())
        if merge_isps:
            theta = StrategyMatrix(tuple(row[:drop] + (row[keep],) + row[drop + 1:] for row in rows))
            merged = merge_providers(config, theta, isp_subset=subset)
        else:
            theta = StrategyMatrix(rows[:drop] + (rows[keep],) + rows[drop + 1:])
            merged = merge_providers(config, theta, cp_subset=subset)
        old, new = allocate(config, theta), allocate(*merged)
        if merge_isps:
            # The merged ISP's column is the sum of its members' columns.
            summed = np.delete(old.x_pair, drop + 1, axis=1)
            summed[:, keep + 1] += old.x_pair[:, drop + 1]
        else:
            # Each auxiliary CP's users go to its members' merged bundle.
            kept = [i for i in range(3) if i != drop]
            summed = np.zeros_like(new.x_pair)
            for s in range(8):
                members = {keep if i == drop else i for i in range(3) if s >> i & 1}
                summed[sum(1 << kept.index(i) for i in members)] += old.x_pair[s]
        worst = max(worst, float(np.abs(new.x_pair - summed).max()))
    assert worst < 1e-12
    _report(9, f"500 randomized merges, max entrywise error {worst:.2e}")
