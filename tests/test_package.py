"""The package's public names, error types and README's library example."""

import ast
from pathlib import Path

import zrsim
from zrsim import errors

README = Path(__file__).resolve().parent.parent / "README.md"
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
