"""Command-line front end.

Verbs:

* ``zrsim sweep <scenario> --out <dir>`` runs the scenario's price grid and
  writes ``grid.csv`` (one row per cell), ``summary.json`` (per-CP
  aggregates), and, in discount-game mode, ``discounts.csv`` (the selected
  discount profile per cell).
* ``zrsim verify <scenario>`` runs the invariant battery on the records
  ``sweep`` writes (in discount-game mode, the discount game's) and prints
  one pass/fail line per check.
* ``zrsim zre <scenario> --p <prices>`` inspects one cell in the scenario's
  mode, as ``sweep`` records it: in discount-game mode the selected discount
  profile (or NODEQ), then all equilibria at it, the selected one, and the
  pressure flags.

Exit codes: 0 success, 1 failed verification, 2 invalid scenario or usage
(an out-of-range ``--p`` price, and an output directory or file that cannot
be written, included), 3 capacity guard exceeded.
Outputs are byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis import SweepRecord, aggregate_signs, grid_sweep
from .equilibrium import ZreStatus, solve_grid
from .errors import CapacityError, ConfigError
from .scenario import ScenarioError, load_scenario
from .verify import run_battery

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3

_SIGN_WORDS = {1: "up", -1: "down", 0: "zero"}


def fmt_num(x: float) -> str:
    """12-significant-digit decimal form with normalized zero."""
    out = f"{float(x):.12g}"
    return "0" if out == "-0" else out


def _grid_header(n_cps: int, n_isps: int) -> list[str]:
    return (
        [f"p_{j + 1}" for j in range(n_isps)]
        + ["theta"]
        + [f"delta_u_{i + 1}" for i in range(n_cps)]
        + [f"delta_share_{i + 1}" for i in range(n_cps)]
        + ["delta_hhi"]
        + [f"pressure_{i + 1}" for i in range(n_cps)]
    )


def write_grid_csv(records: Sequence[SweepRecord], path: Path, n_cps: int, n_isps: int) -> None:
    """One row per record; each distinct price, world delta (one per selected
    profile) and bitstring is formatted once."""
    price = functools.cache(fmt_num)
    world = functools.cache(lambda share, hhi: [fmt_num(v) for v in share] + [fmt_num(hhi)])
    theta = functools.cache(lambda selected: "NOZRE" if selected is None else selected.bitstring())
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_grid_header(n_cps, n_isps))
        for r in records:
            writer.writerow(
                [price(p) for p in r.prices]
                + [theta(r.zre.selected)]
                + [fmt_num(v) for v in r.delta_utility]
                + world(r.delta_share, r.delta_hhi)
                + [str(int(flag)) for flag in r.zre.pressure]
            )


def write_summary_json(
    records: Sequence[SweepRecord], path: Path, total_users: float = 1.0
) -> None:
    signs = aggregate_signs(records, total_users)
    summary = {
        "cells": len(records),
        "no_zre_prices": [
            [float(fmt_num(p)) for p in r.prices]
            for r in records
            if r.zre.status is ZreStatus.NO_ZRE
        ],
        "per_cp": [
            {
                "cp": i + 1,
                "avg_delta_utility": float(fmt_num(signs.avg_delta_utility[i])),
                "utility_sign": _SIGN_WORDS[signs.utility_signs[i]],
                "avg_delta_share": float(fmt_num(signs.avg_delta_share[i])),
                "share_sign": _SIGN_WORDS[signs.share_signs[i]],
            }
            for i in range(len(signs.avg_delta_utility))
        ],
    }
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _discount_fields(discounts: tuple[float, ...] | None, width: int = 1) -> list[str]:
    """A record's discount profile, one field per ISP, or ``width`` NODEQ
    fields where the cell has no discount equilibrium."""
    return ["NODEQ"] * width if discounts is None else [fmt_num(d) for d in discounts]


def write_discounts_csv(
    records: Sequence[SweepRecord], path: Path, price_grid: Sequence[Sequence[float]]
) -> None:
    """Discount profile per cell; duopolies use a p2-row by p1-column matrix."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if len(price_grid) == 2:
            by_prices = {record.prices: record.discounts for record in records}
            axis1, axis2 = price_grid
            writer.writerow(["p2\\p1"] + [fmt_num(p1) for p1 in axis1])
            for p2 in axis2:
                row = [by_prices[(float(p1), float(p2))] for p1 in axis1]
                writer.writerow([fmt_num(p2)] + [",".join(_discount_fields(d)) for d in row])
        else:
            m = len(price_grid)
            writer.writerow([f"p_{j + 1}" for j in range(m)] + [f"delta_{j + 1}" for j in range(m)])
            for record in records:
                writer.writerow(
                    [fmt_num(p) for p in record.prices] + _discount_fields(record.discounts, m)
                )


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {out_dir}: {exc}") from exc
    names = {key: out_dir / name for key, name in scenario.output_names.items()}
    records = grid_sweep(scenario.config, scenario.price_grid, scenario.delta_grid)
    try:
        if scenario.delta_grid is not None:
            write_discounts_csv(records, names["discounts"], scenario.price_grid)
        write_grid_csv(records, names["grid"], scenario.config.n_cps, scenario.config.n_isps)
        write_summary_json(records, names["summary"], scenario.config.total_users)
    except OSError as exc:
        raise ScenarioError(f"cannot write output: {exc}") from exc
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    results = run_battery(scenario)
    width = max(len(r.name) for r in results)
    failed = skipped = 0
    for r in results:
        if r.passed is None:
            status = "SKIP"
            skipped += 1
        elif r.passed:
            status = "PASS"
        else:
            status = "FAIL"
            failed += 1
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    tally = f"{len(results) - failed - skipped}/{len(results) - skipped} checks passed"
    if skipped:
        tally += f", {skipped} skipped"
    if failed:
        tally += f", {failed} failed"
    print(tally)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_zre(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if len(args.p) != scenario.config.n_isps:
        raise ScenarioError(f"--p needs {scenario.config.n_isps} prices, got {len(args.p)}")
    try:
        [(_, delta, result)] = solve_grid(
            scenario.config, [(p,) for p in args.p], scenario.delta_grid
        )
    except ConfigError as exc:
        raise ScenarioError(str(exc)) from exc
    print(f"prices: {' '.join(fmt_num(p) for p in args.p)}")
    if scenario.delta_grid is not None:
        print(f"discounts: {' '.join(_discount_fields(delta))}")
    print(f"status: {result.status.value}")
    if result.status is ZreStatus.NO_ZRE:
        return EXIT_OK
    print(f"equilibria ({len(result.all_zre)}): "
          + " ".join(t.bitstring() for t in result.all_zre))
    print(f"selected: {result.selected.bitstring()}")
    print("pressure: " + " ".join(str(int(f)) for f in result.pressure))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zrsim",
        description="Zero-rating market simulator: price-grid sweeps, "
        "equilibrium inspection, and invariant verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a scenario's price grid and write artifacts")
    p_sweep.add_argument("scenario", help="path to a scenario JSON file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the invariant battery on a scenario")
    p_verify.add_argument("scenario", help="path to a scenario JSON file")
    p_verify.set_defaults(func=_cmd_verify)

    p_zre = sub.add_parser("zre", help="inspect equilibria at a single price point")
    p_zre.add_argument("scenario", help="path to a scenario JSON file")
    p_zre.add_argument(
        "--p", required=True, nargs="+", type=float, help="one price per ISP"
    )
    p_zre.set_defaults(func=_cmd_zre)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    raise SystemExit(main())
