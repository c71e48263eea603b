"""Span tracing of zrsim's layers from outside the package.

``install`` wraps the public functions named in ``TARGETS`` and rebinds the
wrapper wherever a ``zrsim`` module holds the original (its own module,
every ``from .x import f`` copy, and tuples such as the verify battery's
check list), so calls between modules are traced too.  It also wraps
``StrategyMatrix.__post_init__`` to count constructions.  No source file is
changed; the wrapping lives only in the traced process.

Spans (name, start, end, parent) are appended to flat arrays while the
program runs and turned into per-name counts, inclusive times and self
times once it ends.  A span's self time is its duration minus the time its
direct children cover.  The bookkeeping done after a span closes (argument
keys, result counters) falls into its parent's self time; the run reports
the whole cost of tracing as ``trace.overhead_s``.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _allocation_key(config, theta):
    # The inputs the allocation reads; p, q, c and delta do not enter it.
    return (config.phi, config.psi, config.alpha, config.total_users, theta.rows)


def _payoff_key(config, theta):
    return (config, theta.rows)


def _status_is(value: str):
    def check(result) -> bool:
        return getattr(getattr(result, "status", None), "value", None) == value

    return check


# (module, function, span name, distinct-call key, result counter)
TARGETS = (
    ("market", "allocate", "market.allocate", _allocation_key, None),
    ("payoff", "payoffs", "payoff.payoffs", _payoff_key, None),
    ("equilibrium", "enumerate_zre", "equilibrium.enumerate_zre", None,
     ("equilibrium.nozre_markets", _status_is("NO_ZRE"))),
    ("equilibrium", "is_zre", "equilibrium.is_zre", None, None),
    ("equilibrium", "detect_pressure", "equilibrium.detect_pressure", None, None),
    ("equilibrium", "discount_equilibrium", "equilibrium.discount_equilibrium", None,
     ("equilibrium.nodeq_cells", _status_is("NO_DISCOUNT_EQUILIBRIUM"))),
    ("analysis", "compare_worlds", "analysis.compare_worlds", None, None),
    ("analysis", "hhi", "analysis.hhi", None, None),
    ("analysis", "grid_sweep", "analysis.sweep", None, None),
    ("analysis", "discount_grid_sweep", "analysis.sweep", None, None),
    ("oracle", "oracle_allocate", "oracle.oracle_allocate", None, None),
    ("oracle", "oracle_verify_zre", "oracle.oracle_verify_zre", None, None),
    ("scenario", "load_scenario", "scenario.load_scenario", None, None),
    ("cli", "write_grid_csv", "cli.write_artifacts", None, None),
    ("cli", "write_summary_json", "cli.write_artifacts", None, None),
    ("cli", "write_discounts_csv", "cli.write_artifacts", None, None),
) + tuple(
    ("verify", f"check_{check}", f"verify.{check}", None, None)
    for check in (
        "oracle_allocation",
        "oracle_equilibrium",
        "hhi_identity",
        "hhi_all_or_none",
        "hhi_nondecreasing",
        "low_value_utility_drop",
        "value_ordering_pruning",
        "expected_no_zre",
    )
)
CONSTRUCTED = "market.strategy_matrix.constructed"
COUNTERS = tuple(counter[0] for *_, counter in TARGETS if counter) + (CONSTRUCTED,)
_KEYED = {name for _, _, name, key, _ in TARGETS if key}


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self) -> None:
        # Every target is named up front so that one a later version of
        # zrsim no longer has still reports zero calls.
        self.names = list(dict.fromkeys(name for _, _, name, _, _ in TARGETS))
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.keys: defaultdict[str, set[int]] = defaultdict(set)

    def wrap(self, name: str, fn, key=None, counter=None):
        nid = self._ids[name]
        stack, clock = self._stack, perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if key is not None:
                self.keys[name].add(hash(key(*args, **kwargs)))
            if counter is not None and counter[1](result):
                self.counts[counter[0]] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, and for keyed
        spans the share of calls whose key had not been seen before."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_time = dur - covered
        out = {}
        for k, name in enumerate(self.names):
            mine = nid == k
            calls = int(mine.sum())
            out[name] = {
                "calls": calls,
                "s": float(dur[mine].sum()),
                "self_s": float(self_time[mine].sum()),
            }
            if name in _KEYED:
                out[name]["distinct_frac"] = len(self.keys[name]) / calls if calls else 0.0
        return out

    def counters(self) -> dict[str, int]:
        return {name: self.counts[name] for name in COUNTERS}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install(tracer: Tracer) -> None:
    """Trace every target that exists in the imported zrsim package."""
    import zrsim

    for info in pkgutil.iter_modules(zrsim.__path__):
        importlib.import_module(f"zrsim.{info.name}")
    wrapped = {}
    for module, func, name, key, counter in TARGETS:
        original = getattr(sys.modules.get(f"zrsim.{module}"), func, None)
        if isinstance(original, types.FunctionType):
            wrapped[original] = tracer.wrap(name, original, key, counter)
    modules = [m for n, m in sys.modules.items() if n == "zrsim" or n.startswith("zrsim.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                setattr(module, attr, wrapped[value])
            elif isinstance(value, tuple) and any(
                isinstance(v, types.FunctionType) and v in wrapped for v in value
            ):
                setattr(
                    module,
                    attr,
                    tuple(
                        wrapped.get(v, v) if isinstance(v, types.FunctionType) else v
                        for v in value
                    ),
                )

    matrix = getattr(sys.modules.get("zrsim.market"), "StrategyMatrix", None)
    post_init = getattr(matrix, "__post_init__", None)
    if post_init is None:
        return
    counts = tracer.counts

    def counted_post_init(self) -> None:
        counts[CONSTRUCTED] += 1
        post_init(self)

    matrix.__post_init__ = counted_post_init
