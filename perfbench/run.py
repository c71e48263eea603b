"""Cold-process benchmark of the zrsim command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every timed pass is a fresh Python process (``child.py``) that imports
zrsim from this checkout's ``src`` and times ``zrsim.cli.main`` there, so
no cache survives from one pass to the next: this is what a command-line
user pays.  Workloads are described in ``workloads.py``.

With ``--trace 0`` the run alternates one-worker and pool passes for
``--seconds`` and reports the end-to-end metrics of BENCHMARK.json as
medians over the passes of the run.  The CPU speed a shared host gives the
run drifts by up to 1.6x over seconds to minutes, so times are reported
normalised to one reference speed: each pass time is divided by the mean
time of the calibration loop (``child.calibrate``) timed just before it
and just after it, each set-up time by that of the calibration timed right
after it, and both are scaled by ``CALIBRATION_REF_S``.  The raw medians
are printed beside them as ``raw_*``.  With ``--trace 1`` it makes one
untraced one-worker pass, one pool pass, one traced one-worker pass and
one per-call timing process, and reports the per-layer metrics.
``--smoke`` shrinks every grid so a run takes seconds; it checks outputs
and metric names but its timings mean nothing.

Every pass is checked: exit codes, the meaning of each artifact against
``reference/`` (default seed) or the brute-force oracle (other seeds), and
byte identity of all passes of the run, one-worker and pool alike.
Human-readable lines come first; the last line of standard output is the
JSON result.  Outputs, the result with its environment record and the span
file of a traced pass go to ``.perfbench-out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
REFERENCE = Path(__file__).resolve().parent / "reference"
OUT = ROOT / ".perfbench-out"
WORKERS_ENV = "ZRSIM_WORKERS"
VERIFY_TALLY = "8/8 checks passed"
SETUP_SAMPLES = 15
# Normalised pass times are given at the speed at which child.calibrate()
# takes this long, about its time on an idle 2.1 GHz Xeon core; the value
# only sets the scale of norm_wall_s, norm_wall_s_pool and setup_s.
CALIBRATION_REF_S = 0.08
# Every run must end within 180 s; children still running then are killed.
RUN_BUDGET_S = 170.0


class RunError(Exception):
    """The run cannot produce a result at all."""


@dataclass
class Pass:
    workers: int
    ok: bool
    byte_mismatches: int = 0
    result: dict = field(default_factory=dict)


def _environment(seed: int, pool_workers: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
        "seed": seed,
        "pool_workers": pool_workers,
    }


def _pool_workers() -> int:
    """The default worker count; a ZRSIM_WORKERS above nproc is refused."""
    nproc = len(os.sched_getaffinity(0))
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return min(os.cpu_count() or 1, nproc)
    try:
        n = int(raw)
    except ValueError:
        raise RunError(f"{WORKERS_ENV}={raw!r} is not an integer")
    if not 1 <= n <= nproc:
        raise RunError(f"{WORKERS_ENV}={n} is outside 1..nproc ({nproc})")
    return n


def _reference(name: str) -> dict[str, str]:
    """sha256 per artifact of workload ``name``, after checking the files."""
    manifest = json.loads((REFERENCE / "sha256.json").read_text(encoding="utf-8"))
    prefix = f"{name}/"
    expected = {k[len(prefix):]: v for k, v in manifest.items() if k.startswith(prefix)}
    for rel, digest in expected.items():
        if gate.sha256(REFERENCE / name / rel) != digest:
            raise RunError(f"reference/{name}/{rel} does not match reference/sha256.json")
    return expected


class Runner:
    """Starts the child processes of one run and checks every pass."""

    def __init__(self, workload: workloads.Workload, work: Path):
        self.workload = workload
        self.work = work
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.pool_workers = _pool_workers()
        self.expected = _reference(workload.name) if workload.reference else {}
        self.base_digests: dict[str, str] | None = None
        self.passes: list[Pass] = []
        self.oracle: dict | None = None

    def child(self, args: list[str], workers: int = 1) -> dict | None:
        """Run child.py; its last stdout line, or None if it failed."""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), WORKERS_ENV: str(workers)}
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError(f"child {args[0]} exceeded the run budget of {RUN_BUDGET_S} s")
        if proc.returncode != 0:
            print(f"child {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}", file=sys.stderr)
            return None
        return json.loads(out.strip().splitlines()[-1])

    def spec(self, out_dir: Path) -> dict:
        return {
            "scenarios": [str(path) for _, path in self.workload.runs],
            "argvs": self.workload.argvs(out_dir),
        }

    def run_pass(self, workers: int, trace: Path | None = None) -> Pass:
        out_dir = self.work / f"pass{len(self.passes)}"
        spec = self.spec(out_dir)
        if trace is not None:
            spec["trace"] = str(trace)
        result = self.child(["pass", json.dumps(spec)], workers)
        done = Pass(workers, False) if result is None else self._checked(workers, result, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.passes.append(done)
        return done

    def _checked(self, workers: int, result: dict, out_dir: Path) -> Pass:
        done = Pass(workers, all(code == 0 for code in result["exits"]), result=result)
        if self.workload.verb == "verify":
            done.ok &= all(text.strip().endswith("\n" + VERIFY_TALLY) for text in result["stdouts"])
            return done
        digests = {
            f"{stem}/{path.name}": gate.sha256(path)
            for stem, _ in self.workload.runs
            for path in sorted((out_dir / stem).glob("*"))
        }
        if self.expected:
            done.ok &= self.expected.keys() == digests.keys() and all(
                gate.same_meaning(REFERENCE / self.workload.name / rel, out_dir / rel)
                for rel in self.expected
            )
            done.byte_mismatches = sum(digests.get(k) != v for k, v in self.expected.items())
        elif self.workload.oracle:
            if self.oracle is None:
                pairs = [
                    [str(path), str(out_dir / stem / "grid.csv")] for stem, path in self.workload.runs
                ]
                self.oracle = self.child(["oracle", json.dumps(pairs)]) or {"checked": 0, "failed": 1}
            done.ok &= self.oracle["failed"] == 0 and self.oracle["checked"] > 0
        # Later passes, pool passes included, must repeat the first byte for byte.
        if self.base_digests is None:
            self.base_digests = digests
        done.ok &= bool(digests) and digests == self.base_digests
        return done

    def setup_samples(self, count: int) -> list[tuple[float, float]]:
        """(set-up time, calibration time) of at least ``count`` processes."""
        results = [p.result for p in self.passes if p.result]
        spec = json.dumps(self.spec(self.work / "setup"))
        while len(results) < count:
            result = self.child(["setup", spec])
            if result is None:
                raise RunError("set-up process failed")
            results.append(result)
        return [(r["setup_s"], r["calibration_s"]) for r in results]


def _describe(name: str, values: list[float]) -> str:
    q1, med, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return f"{name:<16} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"


def timed_run(runner: Runner, seconds: float, smoke: bool) -> tuple[dict, list[str], dict]:
    # Pairs of one-worker and pool passes; another pair starts only if, at
    # the pace of the last one, it ends within ``seconds``.  One always runs.
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        runner.run_pass(1)
        runner.run_pass(runner.pool_workers)
        now = perf_counter()
        if smoke or 2 * now - pair_start - start > seconds:
            break
    # A pass's bracket is the calibration of its own process and that of
    # the next process, which for the last pass is a calibration-only one.
    closing = runner.child(["calibrate"])
    if closing is None:
        raise RunError("calibration process failed")
    timed = [p for p in runner.passes if p.result]
    brackets = [p.result["calibration_s"] for p in timed] + [closing["calibration_s"]]
    normalised = [
        CALIBRATION_REF_S * p.result["wall_s"] / ((before + after) / 2)
        for p, before, after in zip(timed, brackets, brackets[1:])
    ]
    one = [(p.result, n) for p, n in zip(timed, normalised) if p.workers == 1]
    pool = [(p.result, n) for p, n in zip(timed, normalised) if p.workers != 1]
    if not one or not pool:
        raise RunError("no pass produced a timing")
    setups = runner.setup_samples(1 if smoke else SETUP_SAMPLES)
    samples = {
        "norm_wall_s": [n for _, n in one],
        "norm_wall_s_pool": [n for _, n in pool],
        "raw_wall_s": [r["wall_s"] for r, _ in one],
        "raw_wall_s_pool": [r["wall_s"] for r, _ in pool],
        "calibration_s": brackets,
        # Set-up runs just before the calibration of its own process.
        "setup_s": [CALIBRATION_REF_S * t / c for t, c in setups],
        "raw_setup_s": [t for t, _ in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r, _ in one],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    failed = sum(not p.ok for p in runner.passes)
    values["ok_frac"] = 1 - failed / len(runner.passes)
    lines = [_describe(name, v) for name, v in samples.items()]
    lines.append(f"{'failed_frac':<16} {failed / len(runner.passes):.6g}")
    return values, lines, samples


def traced_run(runner: Runner) -> tuple[dict, list[str], dict]:
    untraced = runner.run_pass(1)
    pool = runner.run_pass(runner.pool_workers)
    trace_path = runner.work / "spans.npz"
    traced = runner.run_pass(1, trace=trace_path)
    calls = runner.child(["calls"])
    if not (untraced.result and pool.result and traced.result and calls):
        raise RunError("a traced-run process failed")
    values = {**calls, **traced.result["counts"]}
    for name, summary in traced.result["spans"].items():
        values.update({f"{name}.{key}": v for key, v in summary.items()})
    wall, wall_pool = untraced.result["wall_s"], pool.result["wall_s"]
    values["analysis.pool_efficiency"] = wall / (wall_pool * runner.pool_workers)
    values["trace.overhead_s"] = traced.result["wall_s"] - wall
    values["trace.spans"] = traced.result["span_count"]
    values["gate.byte_mismatches"] = sum(p.byte_mismatches for p in runner.passes)
    lines = [
        f"traced pass {traced.result['wall_s']:.6g} s, untraced {wall:.6g} s, "
        f"pool {wall_pool:.6g} s; {traced.result['span_count']} spans in "
        f"{trace_path.relative_to(ROOT)}"
    ]
    return values, lines, {"raw_wall_s": [wall], "raw_wall_s_pool": [wall_pool]}


def _select(values: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, by name with their units."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RunError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced grids, one pass pair")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "zrsim" / "__init__.py").is_file():
            raise RunError(f"no zrsim sources under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        work = OUT / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(workloads.build(args.workload, args.seed, args.smoke, ROOT, work), work)
        env = _environment(args.seed, runner.pool_workers)
        if args.trace:
            values, lines, samples = traced_run(runner)
            metrics = _select(values, bench["per_layer"])
        else:
            values, lines, samples = timed_run(runner, args.seconds, args.smoke)
            metrics = _select(values, bench["end_to_end"])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = sum(not p.ok for p in runner.passes)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.passes),
        "failed": failed,
        "metrics": metrics,
    }
    byte_mismatches = sum(p.byte_mismatches for p in runner.passes)
    record = {**result, "workload": args.workload, "smoke": args.smoke, "env": env,
              "byte_mismatches": byte_mismatches, "oracle": runner.oracle, "samples": samples}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"workload {args.workload}  trace {args.trace}  smoke {int(args.smoke)}")
    print("\n".join(lines))
    print(f"passes {len(runner.passes)}, failed {failed}, "
          f"artifacts differing in bytes (not meaning) from reference: {byte_mismatches}")
    if runner.oracle is not None:
        print(f"oracle: {runner.oracle['checked']} selected profiles re-verified, "
              f"{runner.oracle['failed']} rejected")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
