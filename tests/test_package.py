"""The package's public names."""

import zrsim


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
