"""The package's public names, error types, README's library example and
the install metadata in pyproject.toml."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import zrsim
import zrsim.cli
from zrsim import errors

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(zrsim.__file__).resolve().parent


def test_public_names_are_sorted_unique_and_resolve():
    # A stale entry for a removed name breaks `from zrsim import *`.
    names = zrsim.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(zrsim, name)]
    assert missing == []
    namespace = {}
    exec("from zrsim import *", namespace)
    assert set(names) <= namespace.keys()


def test_every_public_name_is_read_outside_the_tests():
    # A public name that only the tests call has no use.  Each must be read
    # on a package line other than __init__.py and its own def or class
    # line, in README.md, or in the benchmark harness.
    lines = [
        line
        for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    outside = [README] + sorted((ROOT / "perfbench").glob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in outside)
    unread = []
    for name in zrsim.__all__:
        word, own = re.compile(rf"\b{name}\b"), re.compile(rf"\s*(def|class) {name}\b")
        if not word.search(text) and not any(
            word.search(line) and not own.match(line) for line in lines
        ):
            unread.append(name)
    assert unread == []


def test_readme_library_example_runs(capsys):
    # The example uses only public names, so it guards their removal too.
    text = README.read_text(encoding="utf-8").split("## Library\n", 1)[1]
    example = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "1010 (False, False)\n"


def test_every_error_type_is_raised_in_the_package():
    # An error type that no code raises is a public name without a use.
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    declared = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and cls.__module__ == errors.__name__
    }
    assert declared - raised - {"ZrsimError"} == set()


def test_benchmark_child_calls_resolve(capsys):
    # perfbench/child.py reads these names directly, in these shapes, so a
    # change that drops one fails here rather than in a benchmark pass.
    path = PACKAGE / "scenarios" / "benchmark.json"
    config = zrsim.load_scenario(path).config.with_prices((0.3, 0.7))
    selected = zrsim.enumerate_zre(config).selected
    zrsim.allocate(dataclasses.replace(config, total_users=1.0 + 1e-9), selected)
    # Its per-call table: a name it cannot find reads 0 there, not an error.
    zrsim.allocate(config, selected)
    zrsim.payoffs(config, selected)
    assert zrsim.is_zre(config, selected)
    assert len(zrsim.detect_pressure(config, selected)) == 2
    assert zrsim.compare_worlds(config).zre.selected == selected
    # The cell has no discount equilibrium (NODEQ) on the default grid.
    outcome = zrsim.discount_equilibrium(config)
    assert outcome.delta_star is None and outcome.zre.selected is None
    theta = zrsim.StrategyMatrix.from_bitstring(selected.bitstring(), 2, 2)
    assert zrsim.oracle_verify_zre(config, theta)
    assert zrsim.cli.main(["zre", str(path), "--p", "0.3", "0.7"]) == 0
    assert capsys.readouterr().out


def test_pyproject_script_and_package_data_resolve():
    # The tests import zrsim from src, so a stale console script or
    # package-data glob would break only an installed copy: the script must
    # name the callable cli.main and the glob must ship every scenario.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    script = project["project"]["scripts"]["zrsim"]
    assert script == "zrsim.cli:main"
    module, attr = script.split(":")
    assert callable(getattr(importlib.import_module(module), attr, None))
    [pattern] = project["tool"]["setuptools"]["package-data"]["zrsim"]
    shipped = set((PACKAGE / "scenarios").iterdir())
    assert shipped and set(PACKAGE.glob(pattern)) == shipped
