"""One fresh measuring process; ``run.py`` starts it and reads its last line.

Between its set-up and its sweeps a pass also times :func:`calibrate`, a
fixed piece of work that does not touch zrsim; ``run.py`` divides set-up
and pass times by it to cancel the host's changing CPU speed.

Modes:

* ``pass SPEC``: time ``import zrsim`` plus ``load_scenario`` of every
  scenario (the set-up), the calibration, then ``zrsim.cli.main(argv)``
  for each command line in turn (the pass).  With ``"trace"`` in the spec
  the pass runs under :mod:`spans` and the per-span summary is returned as
  well.
* ``setup SPEC``: the set-up and the calibration of a pass only.
* ``calibrate``: the calibration only.
* ``calls``: per-call minimum-of-repeats times of the layer functions on
  the shipped benchmark market at p = (0.3, 0.7).
* ``oracle PAIRS``: re-verify every selected profile in the grid.csv of
  each fixed-delta sweep with the independent brute-force oracle.

``SPEC`` is a JSON object with ``scenarios`` and ``argvs``; ``PAIRS`` a JSON
list of [scenario, grid.csv] paths.  The process prints one JSON object as
its last line of standard output.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import resource
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
CALIBRATION_ROUNDS = 6000


@dataclass(frozen=True)
class _Pair:
    rows: object
    cols: object


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Seconds taken by a fixed loop of the kind of work zrsim does.

    Small numpy arrays, masked products, frozen dataclasses and tuple-keyed
    dicts, as in scoring one 2 x 2 profile.  It runs before any sweep of its
    process and with the garbage collector off, so that only the speed the
    host gives the process moves it.
    """
    import numpy as np

    q, p, delta = (0.4, 1.0), (0.3, 0.7), (1.0, 0.9)
    mask = np.array([[True, False], [False, True]])
    seen: dict[tuple, float] = {}
    gc.disable()
    t0 = perf_counter()
    for k in range(rounds):
        qa = np.asarray(q)[:, None]
        dp = (np.asarray(delta) * np.asarray(p))[None, :]
        x = np.full((2, 2), 0.25 + k * 1e-9)
        per_pair = np.where(mask, (qa - dp) * x, qa * x * 0.5)
        pair = _Pair(per_pair.sum(axis=1), per_pair.sum(axis=0))
        seen[(q, p, k & 63)] = float(pair.rows[0]) + float(pair.cols[1])
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


def _import_zrsim():
    import zrsim
    import zrsim.cli

    if SRC not in Path(zrsim.__file__).resolve().parents:
        raise SystemExit(f"zrsim imported from {zrsim.__file__}, not from {SRC}")
    return zrsim


def _setup(spec: dict) -> tuple[object, float]:
    t0 = perf_counter()
    zrsim = _import_zrsim()
    for path in spec["scenarios"]:
        zrsim.load_scenario(path)
    return zrsim, perf_counter() - t0


def run_pass(spec: dict) -> dict:
    zrsim, setup_s = _setup(spec)
    calibration_s = calibrate()
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    wall = 0.0
    exits, stdouts = [], []
    for argv in spec["argvs"]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            t0 = perf_counter()
            code = zrsim.cli.main(argv)
            wall += perf_counter() - t0
        exits.append(code)
        stdouts.append(captured.getvalue())
    result = {
        "setup_s": setup_s,
        "calibration_s": calibration_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exits": exits,
        "stdouts": stdouts,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counts"] = tracer.counters()
        result["span_count"] = len(tracer.start)
        tracer.save(spec["trace"])
    return result


def _min_call_us(fn, repeat: int = 5, budget_s: float = 0.05) -> float:
    t0 = perf_counter()
    fn()
    number = max(1, int(budget_s / max(perf_counter() - t0, 1e-7)))
    best = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (perf_counter() - t0) / number)
    return best * 1e6


def _cold_allocate_us(zrsim, config, theta, repeat: int = 5, number: int = 200) -> float:
    # Each call sees a market size the process has not met before, so no
    # allocation can be reused; the extra digits do not change the work.
    best = float("inf")
    for r in range(repeat):
        configs = [
            replace(config, total_users=1.0 + (r * number + k + 1) * 1e-9)
            for k in range(number)
        ]
        t0 = perf_counter()
        for cfg in configs:
            zrsim.allocate(cfg, theta)
        best = min(best, (perf_counter() - t0) / number)
    return best * 1e6


def per_call() -> dict:
    zrsim = _import_zrsim()
    config = zrsim.load_scenario(SRC / "zrsim" / "scenarios" / "benchmark.json").config
    config = config.with_prices((0.3, 0.7))
    selected = zrsim.enumerate_zre(config).selected
    out = {"market.allocate.call_us": _cold_allocate_us(zrsim, config, selected)}
    calls = {
        "market.allocate.hit_call_us": ("allocate", (config, selected)),
        "payoff.payoffs.call_us": ("payoffs", (config, selected)),
        "equilibrium.is_zre.call_us": ("is_zre", (config, selected)),
        "equilibrium.enumerate_zre.call_us": ("enumerate_zre", (config,)),
        "equilibrium.detect_pressure.call_us": ("detect_pressure", (config, selected)),
        "analysis.compare_worlds.call_us": ("compare_worlds", (config,)),
        "equilibrium.discount_equilibrium.call_us": ("discount_equilibrium", (config,)),
    }
    for metric, (name, args) in calls.items():
        fn = getattr(zrsim, name, None)
        # A function a later version removes reads 0 rather than failing.
        out[metric] = _min_call_us(lambda: fn(*args)) if fn is not None else 0.0
    return out


def oracle_check(pairs: list[list[str]]) -> dict:
    zrsim = _import_zrsim()
    checked = failed = 0
    for scenario_path, grid_path in pairs:
        config = zrsim.load_scenario(scenario_path).config
        with open(grid_path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["theta"] == "NOZRE":
                    continue
                prices = [float(row[f"p_{j + 1}"]) for j in range(config.n_isps)]
                theta = zrsim.StrategyMatrix.from_bitstring(
                    row["theta"], config.n_cps, config.n_isps
                )
                checked += 1
                failed += not zrsim.oracle_verify_zre(config.with_prices(prices), theta)
    return {"checked": checked, "failed": failed}


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "pass":
        result = run_pass(json.loads(argv[1]))
    elif mode == "setup":
        result = {"setup_s": _setup(json.loads(argv[1]))[1], "calibration_s": calibrate()}
    elif mode == "calibrate":
        result = {"calibration_s": calibrate()}
    elif mode == "calls":
        result = per_call()
    elif mode == "oracle":
        result = oracle_check(json.loads(argv[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
