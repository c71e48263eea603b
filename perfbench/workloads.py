"""The benchmark's workloads: which scenarios each one sweeps or verifies.

Every workload is a list of ``zrsim`` command lines run in turn inside one
fresh process per pass.  ``verify-battery`` uses a scenario shipped in
``src/zrsim/scenarios``.  ``discount-duopoly`` sweeps the shipped discount
game on a 4 x 4 sub-grid of its prices, so that a run of tens of seconds
holds enough passes for a steady median.  ``wide-market`` is a 3 CP x 3 ISP
scenario generated from the benchmark seed.  Generated scenarios are written
next to the run's outputs, so zrsim only ever sees a scenario file.

Smoke mode shrinks every grid so the whole matrix of workloads runs in
seconds; it keeps the shape of each workload (same verbs, same modes, same
checks) but not its cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("discount-duopoly", "verify-battery", "wide-market")
# The seed whose outputs are stored under reference/.  Other seeds only
# change wide-market; its outputs are then checked against the oracle.
DEFAULT_SEED = 1

# Every second price of discount_game.json's 11-point axis, ends left out:
# 16 cells, 8 of them without a discount equilibrium (54 of the full 121).
DISCOUNT_PRICES = (0.2, 0.4, 0.6, 0.8)
WIDE_PRICES = (0.0, 0.25, 0.5, 0.75, 1.0)
# bandwidth_high pins its no-equilibrium cells at prices 0.3 and 0.4, so the
# reduced verify grid must keep both values on each axis.
SMOKE_AXES = {
    "discount-duopoly": (0.0, 1.0),
    "verify-battery": (0.0, 0.3, 0.4, 1.0),
    "wide-market": (0.5, 1.0),
}
SMOKE_DELTA_GRID = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class Workload:
    """One workload as run by a pass: command lines and expected outputs.

    ``runs`` pairs a stem (the output sub-directory and reference name)
    with a scenario path; ``verb`` is ``sweep`` or ``verify``.
    ``reference`` is true when ``reference/<name>/`` holds the outputs this
    exact input must reproduce; ``oracle`` is true when, lacking one, every
    selected profile is re-verified by the brute-force oracle instead.
    """

    name: str
    verb: str
    runs: tuple[tuple[str, Path], ...]
    reference: bool
    oracle: bool

    def argvs(self, out_dir: Path) -> list[list[str]]:
        if self.verb == "verify":
            return [["verify", str(path)] for _, path in self.runs]
        return [["sweep", str(path), "--out", str(out_dir / stem)] for stem, path in self.runs]


def wide_market_doc(seed: int, axis: tuple[float, ...] = WIDE_PRICES) -> dict:
    """A 3 CP x 3 ISP fixed-delta scenario drawn from ``seed``.

    phi, psi and q are drawn uniformly and phi, psi normalised; q is sorted
    so the CP value order matches the CP index order.  alpha, c and delta
    are those of the shipped benchmark scenario.
    """
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.05, 1.0, size=8)
    psi = rng.uniform(0.05, 1.0, size=4)
    q = np.sort(rng.uniform(0.05, 1.0, size=3))
    return {
        "market": {
            "n_cps": 3,
            "n_isps": 3,
            "alpha": 0.5,
            "c": 0.5,
            "q": [float(v) for v in q],
            "delta": [1.0, 1.0, 1.0],
            "phi": [float(v) for v in phi / phi.sum()],
            "psi": [float(v) for v in psi / psi.sum()],
        },
        "price_grid": [list(axis)] * 3,
        "mode": "fixed-delta",
    }


def _regridded(path: Path, axis: tuple[float, ...], deltas: tuple[float, ...] | None = None) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["price_grid"] = [list(axis)] * len(doc["price_grid"])
    if deltas is not None:
        doc["delta_grid"] = list(deltas)
    return doc


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def build(name: str, seed: int, smoke: bool, root: Path, work: Path) -> Workload:
    """The workload ``name`` for ``seed``; generated scenarios go to ``work``."""
    shipped = root / "src" / "zrsim" / "scenarios"
    if name == "wide-market":
        axis = SMOKE_AXES[name] if smoke else WIDE_PRICES
        path = _write(work / f"wide_market_seed{seed}.json", wide_market_doc(seed, axis))
        reference = not smoke and seed == DEFAULT_SEED
        return Workload(name, "sweep", (("wide_market", path),), reference, not reference)
    if name == "discount-duopoly":
        scenario = shipped / "discount_game.json"
        doc = (_regridded(scenario, SMOKE_AXES[name], SMOKE_DELTA_GRID) if smoke
               else _regridded(scenario, DISCOUNT_PRICES))
        path = _write(work / "discount_game.json", doc)
        # Discount-game grids record the profile at delta*, which the oracle
        # cannot re-check from the scenario alone.
        return Workload(name, "sweep", (("discount_game", path),), not smoke, False)
    path = shipped / "bandwidth_high.json"
    if smoke:
        path = _write(work / "bandwidth_high.json", _regridded(path, SMOKE_AXES[name]))
    return Workload(name, "verify", (("bandwidth_high", path),), False, False)
