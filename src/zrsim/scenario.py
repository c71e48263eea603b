"""Scenario files: schema validation and loading.

A scenario is a JSON document describing one market template plus the price
grid to sweep:

    {
      "market": {
        "n_cps": 2, "n_isps": 2, "alpha": 0.5, "c": 0.5,
        "q": [0.4, 1.0], "delta": [1.0, 1.0],
        "phi": [0.1, 0.4, 0.4, 0.1], "psi": [0.2, 0.4, 0.4]
      },
      "price_grid": [[0.0, 0.1, ...], [0.0, 0.1, ...]],
      "mode": "fixed-delta"
    }

ISP prices are swept, so ``market`` carries no ``p``; the template config is
built at the first grid point.  Optional keys: ``market.total_users``,
``delta_grid`` (discount-game mode only; the default is 0, 0.1, ..., 1),
``expected_no_zre`` (price pairs the verification battery asserts have no
equilibrium; in discount-game mode the battery checks the discount game's
records, so these are the cells with no discount equilibrium), and
``output`` (file-name overrides: ``grid``, ``summary``, ``discounts``;
plain file names inside the output directory, distinct from each other and
from the defaults they do not override).
Unknown keys anywhere are rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .equilibrium import DEFAULT_DELTA_GRID
from .errors import ConfigError, ZrsimError
from .market import MarketConfig

MODES = ("fixed-delta", "discount-game")

_TOP_KEYS = {"market", "price_grid", "mode", "delta_grid", "expected_no_zre", "output"}
_TOP_REQUIRED = {"market", "price_grid", "mode"}
_MARKET_KEYS = {"n_cps", "n_isps", "alpha", "c", "q", "delta", "phi", "psi", "total_users"}
_MARKET_REQUIRED = _MARKET_KEYS - {"total_users"}
_DEFAULT_OUTPUT_NAMES = {
    "grid": "grid.csv",
    "summary": "summary.json",
    "discounts": "discounts.csv",
}
_OUTPUT_KEYS = set(_DEFAULT_OUTPUT_NAMES)


class ScenarioError(ZrsimError, ValueError):
    """A scenario file failed schema validation."""


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: market template, price grid, and run mode.

    ``delta_grid`` is the run mode: None in fixed-delta mode; in
    discount-game mode the file's grid, or ``DEFAULT_DELTA_GRID`` when the
    file gives none.
    """

    config: MarketConfig
    price_grid: tuple[tuple[float, ...], ...]
    delta_grid: tuple[float, ...] | None = None
    expected_no_zre: tuple[tuple[float, ...], ...] | None = None
    output_names: dict[str, str] = field(default_factory=lambda: dict(_DEFAULT_OUTPUT_NAMES))


def _key_line(text: str, key: str) -> str:
    """Best-effort line locator for error messages."""
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return f" (line {lineno})"
    return ""


def _fail(text: str, key: str, message: str) -> None:
    raise ScenarioError(f"{key}: {message}{_key_line(text, key.split('.')[-1])}")


def _require_number(text: str, key: str, value, lo: float, hi: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(text, key, f"expected a number, got {value!r}")
    if not lo <= float(value) <= hi:
        _fail(text, key, f"must lie in [{lo}, {hi}], got {value}")
    return float(value)


def _require_number_list(text: str, key: str, value, lo: float, hi: float) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        _fail(text, key, f"expected a nonempty list of numbers, got {value!r}")
    return tuple(_require_number(text, f"{key}[{k}]", v, lo, hi) for k, v in enumerate(value))


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; raises ScenarioError on failure."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON in {path} (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return parse_scenario(doc, text)


def parse_scenario(doc, text: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        _fail(text, sorted(unknown)[0], "unknown key")
    missing = _TOP_REQUIRED - set(doc)
    if missing:
        raise ScenarioError(f"missing required key: {sorted(missing)[0]}")

    market = doc["market"]
    if not isinstance(market, dict):
        _fail(text, "market", "expected an object")
    if "p" in market:
        _fail(text, "market.p", "prices are swept; use price_grid")
    unknown = set(market) - _MARKET_KEYS
    if unknown:
        _fail(text, f"market.{sorted(unknown)[0]}", "unknown key")
    missing = _MARKET_REQUIRED - set(market)
    if missing:
        _fail(text, f"market.{sorted(missing)[0]}", "missing required key")

    for int_key in ("n_cps", "n_isps"):
        v = market[int_key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            _fail(text, f"market.{int_key}", f"expected an integer >= 1, got {v!r}")
    n_isps = market["n_isps"]

    mode = doc["mode"]
    if mode not in MODES:
        _fail(text, "mode", f"must be one of {MODES}, got {mode!r}")

    grid_raw = doc["price_grid"]
    if not isinstance(grid_raw, list) or len(grid_raw) != n_isps:
        _fail(text, "price_grid", f"expected one value list per ISP ({n_isps})")
    price_grid = tuple(
        _require_number_list(text, f"price_grid[{j}]", axis, 0.0, 1.0)
        for j, axis in enumerate(grid_raw)
    )

    try:
        config = MarketConfig(
            n_cps=market["n_cps"],
            n_isps=n_isps,
            alpha=_require_number(text, "market.alpha", market["alpha"], 0.0, 1.0),
            c=_require_number(text, "market.c", market["c"], 0.0, 1.0),
            q=_require_number_list(text, "market.q", market["q"], 0.0, 1.0),
            p=tuple(axis[0] for axis in price_grid),
            delta=_require_number_list(text, "market.delta", market["delta"], 0.0, 1.0),
            phi=_require_number_list(text, "market.phi", market["phi"], 0.0, 1.0),
            psi=_require_number_list(text, "market.psi", market["psi"], 0.0, 1.0),
            total_users=_require_number(
                text, "market.total_users", market.get("total_users", 1.0), 0.0, math.inf
            ),
        )
    except ConfigError as exc:
        raise ScenarioError(f"market: {exc}{_key_line(text, 'market')}") from exc

    delta_grid = DEFAULT_DELTA_GRID if mode == "discount-game" else None
    if "delta_grid" in doc:
        if mode != "discount-game":
            _fail(text, "delta_grid", "only allowed in discount-game mode")
        delta_grid = _require_number_list(text, "delta_grid", doc["delta_grid"], 0.0, 1.0)

    expected = None
    if "expected_no_zre" in doc:
        raw = doc["expected_no_zre"]
        if not isinstance(raw, list):
            _fail(text, "expected_no_zre", "expected a list of price vectors")
        pairs = []
        for k, entry in enumerate(raw):
            if not isinstance(entry, list) or len(entry) != n_isps:
                _fail(text, f"expected_no_zre[{k}]", f"expected {n_isps} prices")
            pairs.append(
                tuple(
                    _require_number(text, f"expected_no_zre[{k}][{j}]", v, 0.0, 1.0)
                    for j, v in enumerate(entry)
                )
            )
        expected = tuple(pairs)

    output_names = dict(_DEFAULT_OUTPUT_NAMES)
    if "output" in doc:
        out = doc["output"]
        if not isinstance(out, dict):
            _fail(text, "output", "expected an object")
        unknown = set(out) - _OUTPUT_KEYS
        if unknown:
            _fail(text, f"output.{sorted(unknown)[0]}", "unknown key")
        for k, v in out.items():
            if not isinstance(v, str) or not v:
                _fail(text, f"output.{k}", f"expected a nonempty file name, got {v!r}")
            # Names are joined to the output directory: a path would leave it
            # or need directories that do not exist, and no file name holds
            # a NUL.
            if v in (".", "..") or any(ch in v for ch in "/\\\0"):
                _fail(text, f"output.{k}", f"expected a plain file name, got {v!r}")
            output_names[k] = v
        for k, v in out.items():
            others = sorted(key for key, name in output_names.items() if name == v and key != k)
            if others:
                _fail(text, f"output.{k}", f"file name {v!r} is also used by output.{others[0]}")

    return Scenario(
        config=config,
        price_grid=price_grid,
        delta_grid=delta_grid,
        expected_no_zre=expected,
        output_names=output_names,
    )
