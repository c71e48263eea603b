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

An option may come before or after the scenario and may read
``--out=<dir>``; ``--p`` takes every following token up to the next ``--``
option, so a negative price reaches the range check.  ``-h`` or ``--help``,
alone or after a verb, prints the usage.  Any other command line prints
``error: <what is wrong>`` and the usage to stderr and exits 2.  ``main``
returns the exit code; it does not raise ``SystemExit``.

Exit codes: 0 success, 1 failed verification, 2 invalid scenario or usage
(an out-of-range ``--p`` price, and an output directory or file that cannot
be written, included), 3 capacity guard exceeded.
Outputs are byte-stable for identical inputs.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

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
    """One line per record, written in one call.  Each distinct price and
    world delta (one per selected profile) is formatted once, and so are
    the theta and pressure fields of each outcome, keyed on the
    :class:`~zrsim.equilibrium.ZreResult` that its cells share.  No field
    needs CSV quoting, so a line is its fields joined by commas."""
    price = functools.cache(fmt_num)
    world = functools.cache(lambda share, hhi: ",".join(map(fmt_num, (*share, hhi))))
    outcomes: dict[int, tuple[str, str]] = {}
    lines = [",".join(_grid_header(n_cps, n_isps))]
    for r in records:
        if (key := id(r.zre)) not in outcomes:
            theta = "NOZRE" if r.zre.selected is None else r.zre.selected.bitstring()
            outcomes[key] = theta, ",".join(str(int(flag)) for flag in r.zre.pressure)
        theta, pressure = outcomes[key]
        lines.append(",".join([
            *map(price, r.prices), theta, *map(fmt_num, r.delta_utility),
            world(r.delta_share, r.delta_hhi), pressure,
        ]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


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


def _cmd_sweep(scenario_path: str, out: str) -> int:
    scenario = load_scenario(scenario_path)
    out_dir = Path(out)
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


def _cmd_verify(scenario_path: str) -> int:
    scenario = load_scenario(scenario_path)
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


def _cmd_zre(scenario_path: str, prices: list[float]) -> int:
    scenario = load_scenario(scenario_path)
    if len(prices) != scenario.config.n_isps:
        raise ScenarioError(f"--p needs {scenario.config.n_isps} prices, got {len(prices)}")
    try:
        [(_, delta, result)] = solve_grid(
            scenario.config, [(p,) for p in prices], scenario.delta_grid
        )
    except ConfigError as exc:
        raise ScenarioError(str(exc)) from exc
    print(f"prices: {' '.join(fmt_num(p) for p in prices)}")
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


class _Verb(NamedTuple):
    run: Callable[..., int]
    option: str | None = None  # required when present; the only option
    metavar: str = ""
    many: bool = False  # the option takes one or more values, not one
    value: Callable[[str], object] = str


# Every verb takes one scenario path, then its option's value(s), if any.
_VERBS = {
    "sweep": _Verb(_cmd_sweep, "--out", "DIR"),
    "verify": _Verb(_cmd_verify),
    "zre": _Verb(_cmd_zre, "--p", "P", many=True, value=float),
}
_HELP = ("-h", "--help")


def _form(verb: str, spec: _Verb) -> str:
    form = f"zrsim {verb} SCENARIO"
    if spec.option:
        form += f" {spec.option} {spec.metavar}"
    if spec.many:
        form += f" [{spec.metavar} ...]"
    return form


_USAGE = "usage: " + "\n       ".join(_form(v, spec) for v, spec in _VERBS.items()) + "\n"


def _cmd_help() -> int:
    print(_USAGE, end="")
    return EXIT_OK


def _usage_error(what: str) -> ScenarioError:
    return ScenarioError(f"{what}\n{_USAGE.rstrip()}")


def _parse(argv: Sequence[str]) -> tuple[Callable[..., int], tuple]:
    """The command and arguments that ``argv`` asks for.

    An option reads as ``--opt=value`` or ``--opt value``, before or after
    the scenario; a many-valued option takes every following token up to
    the next ``--`` token, so negative numbers reach the range check.
    Anything outside these forms raises ScenarioError with the usage.
    """
    if not argv:
        raise _usage_error("missing command")
    verb, *rest = argv
    if verb in _HELP:
        return _cmd_help, ()
    spec = _VERBS.get(verb)
    if spec is None:
        raise _usage_error(f"unknown command {verb!r}")
    if any(token in _HELP for token in rest):
        return _cmd_help, ()
    positionals: list[str] = []
    values: list[str] | None = None
    k = 0
    while k < len(rest):
        token = rest[k]
        k += 1
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, eq, inline = token.partition("=")
        if name != spec.option:
            raise _usage_error(f"unknown option {name} for {verb}")
        if values is not None:
            raise _usage_error(f"{name} given more than once")
        if eq:
            values = [inline] if inline else []
        else:
            values = []
            for value in rest[k : len(rest) if spec.many else k + 1]:
                if value.startswith("--"):
                    break
                values.append(value)
            k += len(values)
        if not values:
            raise _usage_error(f"{name} needs a value")
    if not positionals:
        raise _usage_error(f"{verb} needs a SCENARIO")
    if len(positionals) > 1:
        raise _usage_error(f"unexpected argument {positionals[1]!r}")
    if spec.option is None:
        return spec.run, (positionals[0],)
    if values is None:
        raise _usage_error(f"{verb} needs {spec.option} {spec.metavar}")
    parsed = []
    for value in values:
        try:
            parsed.append(spec.value(value))
        except ValueError:
            raise _usage_error(f"invalid {spec.option} value {value!r}") from None
    return spec.run, (positionals[0], parsed if spec.many else parsed[0])


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its
    exit code; errors, usage errors included, print ``error: ...`` to
    stderr instead of raising."""
    try:
        run, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return run(*args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    raise SystemExit(main())
