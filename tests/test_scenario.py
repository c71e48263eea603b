"""Scenario file validation."""

import json

import pytest

from zrsim import ScenarioError
from zrsim.cli import EXIT_INVALID, main
from zrsim.scenario import load_scenario, parse_scenario

GRID = [round(k / 10, 1) for k in range(11)]


def base_doc() -> dict:
    return {
        "market": {
            "n_cps": 2,
            "n_isps": 2,
            "alpha": 0.5,
            "c": 0.5,
            "q": [0.4, 1.0],
            "delta": [1.0, 1.0],
            "phi": [0.1, 0.4, 0.4, 0.1],
            "psi": [0.2, 0.4, 0.4],
        },
        "price_grid": [GRID, GRID],
        "mode": "fixed-delta",
    }


def test_valid_document_parses():
    scenario = parse_scenario(base_doc())
    assert scenario.config.n_cps == 2
    assert scenario.delta_grid is None
    assert scenario.price_grid[0][3] == 0.3
    assert scenario.output_names["grid"] == "grid.csv"


def test_unknown_top_level_key_rejected():
    doc = base_doc()
    doc["plots"] = True
    with pytest.raises(ScenarioError, match="plots"):
        parse_scenario(doc)


def test_unknown_market_key_rejected():
    doc = base_doc()
    doc["market"]["gamma"] = 1.0
    with pytest.raises(ScenarioError, match="gamma"):
        parse_scenario(doc)


def test_explicit_price_vector_rejected():
    doc = base_doc()
    doc["market"]["p"] = [0.5, 0.5]
    with pytest.raises(ScenarioError, match="price_grid"):
        parse_scenario(doc)


def test_empty_price_axis_rejected():
    doc = base_doc()
    doc["price_grid"] = [GRID, []]
    with pytest.raises(ScenarioError, match="price_grid"):
        parse_scenario(doc)


def test_share_sum_violation_rejected():
    doc = base_doc()
    doc["market"]["phi"] = [0.1, 0.4, 0.4, 0.2]
    with pytest.raises(ScenarioError, match="phi"):
        parse_scenario(doc)


def test_delta_grid_needs_discount_mode():
    doc = base_doc()
    doc["delta_grid"] = [0.5, 1.0]
    with pytest.raises(ScenarioError, match="delta_grid"):
        parse_scenario(doc)
    doc["mode"] = "discount-game"
    assert parse_scenario(doc).delta_grid == (0.5, 1.0)


def test_expected_no_zre_shape_checked():
    doc = base_doc()
    doc["expected_no_zre"] = [[0.3, 0.3], [0.3]]
    with pytest.raises(ScenarioError, match="expected_no_zre"):
        parse_scenario(doc)
    doc["expected_no_zre"] = [[0.3, 0.3]]
    assert parse_scenario(doc).expected_no_zre == ((0.3, 0.3),)


def test_output_names_override():
    doc = base_doc()
    doc["output"] = {"grid": "cells.csv"}
    scenario = parse_scenario(doc)
    assert scenario.output_names["grid"] == "cells.csv"
    assert scenario.output_names["summary"] == "summary.json"
    doc["output"] = {"plots": "x.png"}
    with pytest.raises(ScenarioError, match="output.plots"):
        parse_scenario(doc)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "market": [,]\n}\n', encoding="utf-8")
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(path)


def test_load_reports_key_line(tmp_path):
    doc = base_doc()
    doc["market"]["alpha"] = 3.0
    path = tmp_path / "bad_alpha.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"alpha.*line \d+"):
        load_scenario(path)


def test_missing_file():
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario("/nonexistent/path.json")


def test_non_utf8_file_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(path)
    assert main(["verify", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: cannot read scenario file")


def test_bundled_scenarios_all_valid():
    from importlib import resources

    names = []
    for entry in resources.files("zrsim.scenarios").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name)
            parse_scenario(json.loads(entry.read_text(encoding="utf-8")))
    assert len(names) == 10


@pytest.mark.parametrize(
    "key, value",
    [
        ("c", "abc"),
        ("c", None),
        ("c", "0.5"),
        ("c", True),
        ("total_users", "x"),
        ("total_users", None),
        ("total_users", True),
        ("total_users", float("nan")),
        ("total_users", float("inf")),
    ],
)
def test_market_number_checked(key, value, tmp_path, capsys):
    # Strings, null and booleans are not numbers, and a market size must be
    # finite: each is an invalid scenario, never a traceback or NaN output.
    doc = base_doc()
    doc["market"][key] = value
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        parse_scenario(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def _edit(path: str, value=None, delete: bool = False):
    """An edit of base_doc() setting (or deleting) the dotted key ``path``."""

    def apply(doc: dict) -> dict:
        *parents, key = path.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        if delete:
            del target[key]
        else:
            target[key] = value
        return doc

    return apply


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit("market.alpha", "x"), r"^market\.alpha: expected a number"),
        (lambda doc: [doc], r"^scenario must be a JSON object"),
        (_edit("market", [1, 2]), r"^market: expected an object"),
        (_edit("market.psi", delete=True), r"^market\.psi: missing required key"),
        (_edit("market.n_cps", 0), r"^market\.n_cps: expected an integer >= 1"),
        (_edit("mode", "scan"), r"^mode: must be one of"),
        (_edit("price_grid", [GRID]), r"^price_grid: expected one value list per ISP"),
        (_edit("expected_no_zre", {"p": [0.3, 0.3]}), r"^expected_no_zre: expected a list"),
        (_edit("output", ["grid.csv"]), r"^output: expected an object"),
        (_edit("output", {"grid": ""}), r"^output\.grid: expected a nonempty file name"),
        (_edit("output", {"grid": "sub/grid.csv"}), r"^output\.grid: expected a plain file name"),
        (_edit("output", {"grid": "sub\\grid.csv"}), r"^output\.grid: expected a plain file name"),
        (_edit("output", {"summary": "."}), r"^output\.summary: expected a plain file name"),
        (_edit("output", {"summary": ".."}), r"^output\.summary: expected a plain file name"),
        (
            _edit("output", {"grid": "same.txt", "summary": "same.txt"}),
            r"^output\.grid: file name 'same\.txt' is also used by output\.summary",
        ),
        (
            _edit("output", {"discounts": "grid.csv"}),
            r"^output\.discounts: file name 'grid\.csv' is also used by output\.grid",
        ),
    ],
    ids=[
        "non-number", "document", "market", "missing-key", "n_cps", "mode",
        "price_grid", "expected_no_zre", "output", "output-name", "output-subdir",
        "output-backslash", "output-dot", "output-dotdot", "output-shared", "output-default",
    ],
)
def test_schema_errors_name_the_key(edit, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(edit(base_doc()))
