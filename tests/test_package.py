"""The package's public names and README's library example."""

from pathlib import Path

import zrsim

README = Path(__file__).resolve().parent.parent / "README.md"


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
