"""Command-line interface: artifacts, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from zrsim import (
    MarketConfig, Scenario, StrategyMatrix, analysis, load_scenario, oracle, oracle_verify_zre,
    verify,
)
from zrsim.analysis import SweepRecord, grid_sweep
from zrsim.cli import (
    EXIT_CAPACITY, EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_OK, fmt_num, main, write_grid_csv
)
from zrsim.equilibrium import DEFAULT_DELTA_GRID, ZreResult, solve_grid
from zrsim.verify import (
    CheckResult,
    check_low_value_utility_drop,
    check_oracle_equilibrium,
    run_battery,
)

from conftest import random_config

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "zrsim" / "scenarios"


@pytest.fixture
def small_scenario(tmp_path) -> Path:
    doc = {
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
        "price_grid": [[0.2, 0.7, 1.0], [0.2, 0.7]],
        "mode": "fixed-delta",
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def test_fmt_num_stability():
    assert fmt_num(0.1 + 0.2) == "0.3"
    assert fmt_num(-0.0) == "0"
    assert fmt_num(1 / 3) == "0.333333333333"


def test_sweep_writes_grid_and_summary(small_scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", str(small_scenario), "--out", str(out)]) == EXIT_OK
    with (out / "grid.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "p_1", "p_2", "theta",
        "delta_u_1", "delta_u_2", "delta_share_1", "delta_share_2",
        "delta_hhi", "pressure_1", "pressure_2",
    ]
    assert len(rows) == 1 + 6
    assert rows[1][:2] == ["0.2", "0.2"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"] == 6
    assert {e["cp"] for e in summary["per_cp"]} == {1, 2}


def test_sweep_full_benchmark_grid(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", str(SCENARIOS / "benchmark.json"), "--out", str(out)]) == EXIT_OK
    with (out / "grid.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 121
    assert all(row[2] != "NOZRE" for row in rows[1:])


def test_sweep_output_is_byte_stable(small_scenario, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["sweep", str(small_scenario), "--out", str(out1)])
    main(["sweep", str(small_scenario), "--out", str(out2)])
    for name in ("grid.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# sha256 of grid.csv and summary.json for every shipped fixed-delta
# scenario, recorded before the two sweep drivers were merged into one.
# discount_game also lists discounts.csv, recorded before the profile-score
# table replaced per-profile evaluation.
REFERENCE_SHA256 = {
    "bandwidth_high": (
        "5f49ea49cbf8c5836c041d39dcdc853937b8930a53655e97f422203ab75386b1",
        "5c935bc86c76e8e69ec23342dcd077c9c8e774cbb28adf378209c7124e98ffa1",
    ),
    "bandwidth_low": (
        "a2c86f5d2f9335aa70f3ed0c8d916b7917223e26e11e11ee7bad266001ee3da6",
        "b90a9b523ca31d5071ee91f4f954c7cac3a7ff90f25fe9efb829b87d36949085",
    ),
    "benchmark": (
        "fef89587a649bf5cfe3a4fc19995831cc99d1852d4fc51cd9a0207c088643d0a",
        "12cba49e05e343c8fa127ceed482e6e40f1207b35c12e433d70bfb098fb006e5",
    ),
    "cp1_share_high": (
        "cdfaf02c9b587289ebb289fe636cdcf5541161d229eaeb2ac3197b72aa94a834",
        "6005047ed7d9f83c8ba2ea4983873dc06b1f4a0d2c9568a1da2f1faa7c541cdc",
    ),
    "cp1_share_low": (
        "b0129017e26342a2d1c641a37b4286de54d13c4d4e83cee730e66958ff7d3f31",
        "82f374c221bf3a6c6550c66391ddf8463889fe8e3ea84c91170a97c86fd512c1",
    ),
    "discount_game": (
        "db57b3eca442cd965c8514c4aeddd94c55a67adef869f73911c11fe10bb602a9",
        "52be131235b1f33ce5f18bc3d6cf92a6c6e87e14d93115238470e891e6b29798",
        "ceb1b38958e2bba5fe17e161f754c385cc6e949b615cd57600fb22cc9c35780e",
    ),
    "elasticity_high": (
        "3971e493a1d5386690568d739525f50b3c669f5fd1af1e4097acf235e0bc4aba",
        "64971891c203698edfadfe6dd5ea8b175f9fc37b3e265c3ed129fa74642369b8",
    ),
    "elasticity_low": (
        "8b50054ac5769aadfc7995ac3e34d072dba8546280c19d3dd369207a388a356a",
        "c5e44d45004ca50b2036f2a8477719d7b058466ee70ae568fcdad636d9c1a730",
    ),
    "isp1_share_high": (
        "b13312d091af8724b27013e87564fc68122d43667c97380898e024e957fd4827",
        "c0990defd6b7ec0ab470048104bf3298fdbac3487303ed77a96f130e18d340f0",
    ),
    "isp1_share_low": (
        "3c4ab008ec8f32f46cff189af326315fdc7ef542092f53a06bc3f4cac0b17e73",
        "770873864579261f9e2e27d5996f1b5f729c689a43bf29ef77bdbcbc15198c5a",
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SHA256))
def test_shipped_sweeps_match_reference_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(["sweep", str(SCENARIOS / f"{name}.json"), "--out", str(out)]) == EXIT_OK
    files = ("grid.csv", "summary.json", "discounts.csv")[: len(REFERENCE_SHA256[name])]
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files)
    assert digests == REFERENCE_SHA256[name]


def test_sweep_discount_mode_writes_discounts(tmp_path):
    doc = {
        "market": {
            "n_cps": 2, "n_isps": 2, "alpha": 0.5, "c": 0.5,
            "q": [0.4, 1.0], "delta": [1.0, 1.0],
            "phi": [0.1, 0.4, 0.4, 0.1], "psi": [0.2, 0.4, 0.4],
        },
        "price_grid": [[0.0, 0.5, 1.0], [0.0, 1.0]],
        "mode": "discount-game",
    }
    scenario = tmp_path / "disc.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", str(scenario), "--out", str(out)]) == EXIT_OK
    with (out / "discounts.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p2\\p1", "0", "0.5", "1"]
    assert rows[1][0] == "0"
    assert rows[1][1] == "1,1"  # both ISPs free: no effective discount
    by = {(r[0], rows[0][k]): r[k] for r in rows[1:] for k in range(1, 4)}
    assert by[("1", "0.5")] == "NODEQ"  # undercutting cycle at this cell
    assert (out / "grid.csv").exists() and (out / "summary.json").exists()


@pytest.mark.parametrize(
    "price_grid, delta_grid, expected",
    [
        (
            [[0.0, 0.5, 1.0]],
            [0.0, 0.5, 1.0],
            [["0", "1"], ["0.5", "1"], ["1", "0.5"]],
        ),
        (
            [[0.0, 0.4], [0.5], [0.5, 1.0]],
            [0.0, 0.25, 0.5, 0.75, 1.0],
            [
                ["0", "0.5", "0.5", "NODEQ", "NODEQ", "NODEQ"],
                ["0", "0.5", "1", "1", "1", "0.25"],
                ["0.4", "0.5", "0.5", "NODEQ", "NODEQ", "NODEQ"],
                ["0.4", "0.5", "1", "1", "1", "0.25"],
            ],
        ),
    ],
    ids=["1-isp", "3-isp"],
)
def test_sweep_discount_mode_lists_cells_unless_duopoly(price_grid, delta_grid, expected, tmp_path):
    # Without two ISPs there is no price matrix: one row per cell, in grid
    # order, with its prices and its discount profile (or NODEQ per ISP).
    m = len(price_grid)
    doc = {
        "market": {
            "n_cps": 2, "n_isps": m, "alpha": 0.5, "c": 0.5,
            "q": [0.4, 1.0], "delta": [1.0] * m,
            "phi": [0.1, 0.4, 0.4, 0.1], "psi": [0.2] + [0.8 / m] * m,
        },
        "price_grid": price_grid,
        "mode": "discount-game",
        "delta_grid": delta_grid,
    }
    scenario = tmp_path / "disc.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", str(scenario), "--out", str(out)]) == EXIT_OK
    with (out / "discounts.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f"p_{j}" for j in range(1, m + 1)] + [f"delta_{j}" for j in range(1, m + 1)]
    assert rows[1:] == expected


def _lazy_modules(*argvs):
    """Which modules that no command may load a fresh process holds after
    running ``main`` on each argv (each must exit 0).  They are numpy's
    lazily loaded numpy.ma and numpy.random, and argparse, gettext and
    locale, which a cold argparse parser costs (about 2.5 ms, most of it
    the import of locale on its first message lookup)."""
    script = (
        "import json, sys\n"
        "from zrsim.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name in ('argparse', 'gettext', 'locale')\n"
        "             or name.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'random'])))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def _src_env():
    paths = [str(Path(analysis.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def test_sweep_imports_no_lazy_numpy_submodule(tmp_path):
    # numpy.ma and numpy.random load on first use (np.unique, for one,
    # imports numpy.ma), and a cold process without cached bytecode pays
    # about 12 ms for numpy.ma: as much as the solve of a 2x2 sweep.
    # numpy.matrixlib shares the prefix but loads with numpy itself.
    argvs = [
        ["sweep", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path / name)]
        for name in ("benchmark", "discount_game")
    ]
    assert _lazy_modules(*argvs) == "[]"


@pytest.mark.parametrize("verb", ["verify", "sweep"])
def test_verify_and_sweep_import_no_numpy_random(verb, tmp_path):
    # The battery draws its seeded inputs from the standard library's
    # generator, since importing numpy.random alone costs about 18 ms.
    if verb == "verify":
        argv = ["verify", str(SCENARIOS / "bandwidth_high.json")]
    else:
        argv = ["sweep", str(SCENARIOS / "benchmark.json"), "--out", str(tmp_path / "out")]
    assert _lazy_modules(argv) == "[]"


def test_module_entry_point_reads_sys_argv(capsys):
    # python -m zrsim.cli calls main() with no argument, which reads
    # sys.argv[1:]; it must answer as main(argv) does.
    argv = ["zre", str(SCENARIOS / "benchmark.json"), "--p", "0.3", "0.7"]
    result = subprocess.run(
        [sys.executable, "-m", "zrsim.cli", *argv],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert main(argv) == result.returncode == EXIT_OK
    assert capsys.readouterr().out == result.stdout


def test_capacity_guard_exits_3_fast(tmp_path, capsys):
    doc = {
        "market": {
            "n_cps": 3, "n_isps": 7, "alpha": 0.5, "c": 0.5,
            "q": [0.2, 0.5, 1.0], "delta": [1.0] * 7,
            "phi": [0.125] * 8, "psi": [0.125] * 8,
        },
        "price_grid": [[0.5]] * 7,
        "mode": "fixed-delta",
    }
    scenario = tmp_path / "wide.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code = main(["sweep", str(scenario), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    assert code == EXIT_CAPACITY
    assert capsys.readouterr().err.startswith("error:")
    assert elapsed < 1.0


@pytest.mark.parametrize("total_users", [1e-12, 1e-9, 1e9, 1e200])
def test_results_do_not_depend_on_total_users(total_users, tmp_path, capsys):
    # Payoffs scale with total_users, so a gain must beat a margin that
    # scales too, and shares and the Herfindahl index come from rho: the
    # selected profiles, share and HHI deltas and pressure flags are those
    # of the one-user market, no overflow warning is raised, and verify
    # passes as it does there.  Only the utility deltas scale, and the
    # summary reads their signs against a margin that scales with them.
    doc = json.loads((SCENARIOS / "benchmark.json").read_text())
    columns, signs = {}, {}
    for scale in (1.0, total_users):
        doc["market"]["total_users"] = scale
        scenario = tmp_path / f"scale_{scale}.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / f"out_{scale}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sweep", str(scenario), "--out", str(out)]) == EXIT_OK
            capsys.readouterr()
            assert main(["verify", str(scenario)]) == EXIT_OK
        assert capsys.readouterr().out.endswith("\n7/7 checks passed, 1 skipped\n")
        with (out / "grid.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        columns[scale] = [
            {name: v for name, v in row.items() if not name.startswith("delta_u_")} for row in rows
        ]
        summary = json.loads((out / "summary.json").read_text())
        signs[scale] = [(cp["utility_sign"], cp["share_sign"]) for cp in summary["per_cp"]]
    assert columns[total_users] == columns[1.0]
    assert signs[total_users] == signs[1.0]


def test_no_zre_rows_encode_literal_zeros(tmp_path):
    doc = json.loads((SCENARIOS / "bandwidth_high.json").read_text())
    doc["price_grid"] = [[0.3], [0.3]]  # a known no-equilibrium cell
    del doc["expected_no_zre"]
    scenario = tmp_path / "hole.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", str(scenario), "--out", str(out)]) == EXIT_OK
    with (out / "grid.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1][2] == "NOZRE"
    assert rows[1][3:8] == ["0", "0", "0", "0", "0"]


def test_grid_rows_sharing_an_outcome_keep_their_own_fields(tmp_path):
    # Cells of one outcome share one ZreResult, whose theta and pressure
    # fields are formatted once; every other field is the record's own.
    # The bytes are those of a csv.writer rendering of every field.
    theta = StrategyMatrix(((0, 1), (1, 1)))
    shared = ZreResult((theta,), theta, (True, False))
    no_zre = ZreResult((), None, (False, False))
    records = [
        SweepRecord((0.2, 0.7), (1.0, 1.0), shared, (0.125, -0.0), (0.1, -0.1), 0.05),
        SweepRecord((0.7, 0.2), (1.0, 1.0), shared, (-0.25, 1e-13), (0.1, -0.1), 0.05),
        SweepRecord((1.0, 1.0), (1.0, 1.0), no_zre, (0.0, 0.0), (0.0, 0.0), 0.0),
        SweepRecord((0.3, 0.0), (1.0, 1.0), shared, (1 / 3, 0.75), (0.2, -0.2), -0.0),
    ]
    write_grid_csv(records, tmp_path / "grid.csv", 2, 2)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow("p_1 p_2 theta delta_u_1 delta_u_2 delta_share_1 delta_share_2 delta_hhi "
                    "pressure_1 pressure_2".split())
    for r in records:
        writer.writerow(
            [fmt_num(v) for v in r.prices]
            + ["NOZRE" if r.zre.selected is None else r.zre.selected.bitstring()]
            + [fmt_num(v) for v in (*r.delta_utility, *r.delta_share, r.delta_hhi)]
            + [str(int(flag)) for flag in r.zre.pressure]
        )
    assert (tmp_path / "grid.csv").read_bytes() == expected.getvalue().encode("utf-8")
    assert expected.getvalue().splitlines()[1].split(",")[4] == "0"  # the -0.0 delta


USAGE = (
    "usage: zrsim sweep SCENARIO --out DIR\n"
    "       zrsim verify SCENARIO\n"
    "       zrsim zre SCENARIO --p P [P ...]\n"
)
BENCHMARK = str(SCENARIOS / "benchmark.json")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["solve", BENCHMARK],
        ["verify"],
        ["sweep", "--out", "o"],
        ["sweep", BENCHMARK],
        ["sweep", BENCHMARK, "--out"],
        ["sweep", BENCHMARK, "--out="],
        ["zre", BENCHMARK, "--p"],
        ["zre", BENCHMARK, "--p", "0.3", "cheap"],
        ["verify", BENCHMARK, "--out", "o"],
        ["sweep", BENCHMARK, "--o", "o"],
        ["verify", BENCHMARK, BENCHMARK],
        ["sweep", BENCHMARK, "--out", "a", "--out", "b"],
        ["zre", BENCHMARK, "--p", "0.3", "0.7", "--p=0.5"],
    ],
    ids=[
        "no-argument", "unknown-verb", "missing-scenario", "missing-scenario-with-out",
        "missing-out", "out-without-value", "out-empty", "p-without-value", "p-not-a-number",
        "unknown-option", "abbreviated-option", "extra-positional", "repeated-out",
        "repeated-p",
    ],
)
def test_usage_error_exits_2_with_the_usage(argv, tmp_path, capsys, monkeypatch):
    # A command line outside the documented forms is refused before
    # anything is loaded or written: a message and the usage on stderr,
    # exit 2, and no SystemExit.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith("\n" + USAGE)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["sweep", "-h"], ["zre", BENCHMARK, "--p", "0.3", "--help"]]
)
def test_help_prints_the_usage_to_stdout(argv, capsys):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == (USAGE, "")


@pytest.mark.parametrize(
    "form",
    [
        lambda scenario, out: ["sweep", "--out", out, scenario],
        lambda scenario, out: ["sweep", scenario, f"--out={out}"],
    ],
    ids=["out-first", "out-equals"],
)
def test_sweep_option_forms_write_the_same_bytes(form, tmp_path):
    scenario = str(SCENARIOS / "discount_game.json")
    assert main(["sweep", scenario, "--out", str(tmp_path / "documented")]) == EXIT_OK
    assert main(form(scenario, str(tmp_path / "form"))) == EXIT_OK
    documented = sorted((tmp_path / "documented").iterdir())
    assert [p.name for p in documented] == ["discounts.csv", "grid.csv", "summary.json"]
    for path in documented:
        assert (tmp_path / "form" / path.name).read_bytes() == path.read_bytes()


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "fixed-delta"}', encoding="utf-8")
    assert main(["sweep", str(bad), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("under_file", [False, True])
def test_sweep_out_not_a_directory_exits_2(
    under_file, small_scenario, tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("solving started before the output directory was made")

    monkeypatch.setattr(analysis, "solve_grid", refuse)
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "out" if under_file else blocker
    assert main(["sweep", str(small_scenario), "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}")


@pytest.mark.parametrize("artifact", ["grid", "summary", "discounts"])
def test_sweep_write_error_exits_2(artifact, tmp_path, capsys):
    # A directory in the place of an artifact makes its write fail after
    # the grid is solved: a message and exit 2, not a traceback.
    doc = json.loads((SCENARIOS / "discount_game.json").read_text(encoding="utf-8"))
    doc["price_grid"] = [[0.5], [0.5]]
    scenario = tmp_path / "disc.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    blocker = out / load_scenario(scenario).output_names[artifact]
    blocker.mkdir(parents=True)
    assert main(["sweep", str(scenario), "--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and str(blocker) in err


@pytest.mark.parametrize("name", ["../escape.csv", "sub/grid.csv"])
def test_output_name_outside_out_exits_2(name, small_scenario, tmp_path, capsys, monkeypatch):
    # A path as an output name is refused before anything is solved or
    # written: --out is not even created, and nothing lands beside it.
    def refuse(*args):
        raise AssertionError("solving started before the output names were checked")

    monkeypatch.setattr(analysis, "solve_grid", refuse)
    doc = json.loads(small_scenario.read_text(encoding="utf-8"))
    doc["output"] = {"grid": name}
    small_scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run" / "out"
    assert main(["sweep", str(small_scenario), "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: output.grid: expected a plain file name")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["small.json"]


def test_empty_grid_exits_2(tmp_path):
    doc = json.loads((SCENARIOS / "benchmark.json").read_text())
    doc["price_grid"] = [[], []]
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sweep", str(bad), "--out", str(tmp_path / "o")]) == EXIT_INVALID


def test_verify_passes_on_benchmark(capsys):
    assert main(["verify", str(SCENARIOS / "bandwidth_high.json")]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "no-zre-cells" in captured
    assert "FAIL" not in captured


VERIFY_STDOUT = {
    "bandwidth_high": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 1.110e-16\n"
        "PASS  oracle-equilibrium      every profile: 1681 verdicts compared, 0 disagreements\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "PASS  hhi-nondecreasing       min delta HHI = 0.000e+00\n"
        "PASS  low-value-utility-drop  33 qualifying cells checked\n"
        "PASS  value-ordering-pruning  132 equilibria scanned\n"
        "PASS  no-zre-cells            3 cells as expected\n"
        "8/8 checks passed\n"
    ),
    "discount_game": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 2.776e-17\n"
        "PASS  oracle-equilibrium      every profile: 817 verdicts compared, 0 disagreements, "
        "54 NODEQ cells skipped\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "PASS  hhi-nondecreasing       min delta HHI = 0.000e+00\n"
        "PASS  low-value-utility-drop  6 qualifying cells checked\n"
        "PASS  value-ordering-pruning  69 equilibria scanned\n"
        "SKIP  no-zre-cells            skipped: no expectation recorded\n"
        "7/7 checks passed, 1 skipped\n"
    ),
    "bandwidth_low": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 1.110e-16\n"
        "PASS  oracle-equilibrium      every profile: 1681 verdicts compared, 0 disagreements\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "PASS  hhi-nondecreasing       min delta HHI = 0.000e+00\n"
        "PASS  low-value-utility-drop  48 qualifying cells checked\n"
        "PASS  value-ordering-pruning  127 equilibria scanned\n"
        "SKIP  no-zre-cells            skipped: no expectation recorded\n"
        "7/7 checks passed, 1 skipped\n"
    ),
    "benchmark": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 1.110e-16\n"
        "PASS  oracle-equilibrium      every profile: 1681 verdicts compared, 0 disagreements\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "PASS  hhi-nondecreasing       min delta HHI = 0.000e+00\n"
        "PASS  low-value-utility-drop  40 qualifying cells checked\n"
        "PASS  value-ordering-pruning  128 equilibria scanned\n"
        "SKIP  no-zre-cells            skipped: no expectation recorded\n"
        "7/7 checks passed, 1 skipped\n"
    ),
    "cp1_share_high": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 5.551e-17\n"
        "PASS  oracle-equilibrium      every profile: 1681 verdicts compared, 0 disagreements\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "SKIP  hhi-nondecreasing       skipped: values/baselines not co-ordered\n"
        "PASS  low-value-utility-drop  45 qualifying cells checked\n"
        "PASS  value-ordering-pruning  127 equilibria scanned\n"
        "SKIP  no-zre-cells            skipped: no expectation recorded\n"
        "6/6 checks passed, 2 skipped\n"
    ),
    "cp1_share_low": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 5.551e-17\n"
        "PASS  oracle-equilibrium      every profile: 1681 verdicts compared, 0 disagreements\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "PASS  hhi-nondecreasing       min delta HHI = -2.220e-16\n"
        "PASS  low-value-utility-drop  33 qualifying cells checked\n"
        "PASS  value-ordering-pruning  124 equilibria scanned\n"
        "SKIP  no-zre-cells            skipped: no expectation recorded\n"
        "7/7 checks passed, 1 skipped\n"
    ),
    "elasticity_high": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 5.551e-17\n"
        "PASS  oracle-equilibrium      every profile: 1681 verdicts compared, 0 disagreements\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "PASS  hhi-nondecreasing       min delta HHI = 0.000e+00\n"
        "PASS  low-value-utility-drop  40 qualifying cells checked\n"
        "PASS  value-ordering-pruning  127 equilibria scanned\n"
        "SKIP  no-zre-cells            skipped: no expectation recorded\n"
        "7/7 checks passed, 1 skipped\n"
    ),
    "elasticity_low": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 5.551e-17\n"
        "PASS  oracle-equilibrium      every profile: 1681 verdicts compared, 0 disagreements\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "PASS  hhi-nondecreasing       min delta HHI = 0.000e+00\n"
        "PASS  low-value-utility-drop  48 qualifying cells checked\n"
        "PASS  value-ordering-pruning  126 equilibria scanned\n"
        "SKIP  no-zre-cells            skipped: no expectation recorded\n"
        "7/7 checks passed, 1 skipped\n"
    ),
    "isp1_share_high": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 5.551e-17\n"
        "PASS  oracle-equilibrium      every profile: 1681 verdicts compared, 0 disagreements\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "PASS  hhi-nondecreasing       min delta HHI = 0.000e+00\n"
        "PASS  low-value-utility-drop  40 qualifying cells checked\n"
        "PASS  value-ordering-pruning  127 equilibria scanned\n"
        "SKIP  no-zre-cells            skipped: no expectation recorded\n"
        "7/7 checks passed, 1 skipped\n"
    ),
    "isp1_share_low": (
        "PASS  oracle-allocation       max |rho - oracle rho| = 5.551e-17\n"
        "PASS  oracle-equilibrium      every profile: 1681 verdicts compared, 0 disagreements\n"
        "PASS  hhi-variance-identity   max |forms| gap = 2.220e-16\n"
        "PASS  hhi-all-or-none         max |HHI(0) - HHI(1)| gap = 3.331e-16\n"
        "PASS  hhi-nondecreasing       min delta HHI = 0.000e+00\n"
        "PASS  low-value-utility-drop  40 qualifying cells checked\n"
        "PASS  value-ordering-pruning  127 equilibria scanned\n"
        "SKIP  no-zre-cells            skipped: no expectation recorded\n"
        "7/7 checks passed, 1 skipped\n"
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_STDOUT))
def test_verify_stdout_is_pinned(name, capsys):
    # Every detail line, counts and worst gaps included: how the battery
    # shares or batches its work must not change what it reports.
    assert main(["verify", str(SCENARIOS / f"{name}.json")]) == EXIT_OK
    assert capsys.readouterr().out == VERIFY_STDOUT[name]


def test_low_value_utility_drop_margin_scales_with_users():
    # At a million users a high-value CP delta of -1e-9 is rounding noise,
    # -1e-3 a real loss.
    config = MarketConfig(
        n_cps=2, n_isps=2, alpha=0.5, c=0.5, q=(0.4, 1.0), p=(0.5, 0.5), delta=(1.0, 1.0),
        phi=(0.1, 0.4, 0.4, 0.1), psi=(0.2, 0.4, 0.4), total_users=1e6,
    )
    scenario = Scenario(config, ((0.5, 0.5),))
    theta = StrategyMatrix(((0, 0), (1, 0)))
    zre = ZreResult((theta,), theta, (False, False))

    def check(high_delta):
        record = SweepRecord(config.p, config.delta, zre, (-1.0, high_delta), (-0.1, 0.1), 0.01)
        return check_low_value_utility_drop(scenario, [record])

    assert check(-1e-9) == CheckResult("low-value-utility-drop", True, "1 qualifying cells checked")
    assert check(-1e-3).passed is False


def test_verify_checks_on_hand_made_records():
    # Branches no shipped scenario reaches: low-value-utility-drop skips a
    # single-CP market, and a cell where a third CP holds a relation though
    # its deltas would fail; value-ordering-pruning fails an equilibrium in
    # which only the low-value CP zero-rates with an ISP.
    rng = np.random.default_rng(5)
    single, three, two = (random_config(rng, n, m, False) for n, m in ((1, 2), (3, 1), (2, 2)))
    drop, pruning = check_low_value_utility_drop, verify.check_value_ordering_pruning

    def run(check, config, bits, deltas):
        theta = StrategyMatrix.from_bitstring(bits, config.n_cps, config.n_isps)
        zre = ZreResult((theta,), theta, (False,) * config.n_cps)
        record = SweepRecord(config.p, config.delta, zre, deltas, deltas, 0.0)
        return check(Scenario(config, ()), [record])

    skipped = CheckResult("low-value-utility-drop", None, "skipped: single CP")
    assert run(drop, single, "11", (-1.0,)) == skipped
    unqualified = CheckResult("low-value-utility-drop", True, "0 qualifying cells checked")
    assert run(drop, three, "011", (-1.0,) * 3) == unqualified
    assert run(drop, three, "001", (-1.0,) * 3).passed is False
    assert run(pruning, two, "1000", (0.0, 0.0)) == CheckResult(
        "value-ordering-pruning", False, f"prices {two.p}: 1000 has a low-value-only relation"
    )


def test_verify_fails_on_wrong_expectation(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "benchmark.json").read_text())
    doc["expected_no_zre"] = [[0.5, 0.5]]
    scenario = tmp_path / "wrong.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(scenario)]) == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def test_verify_checks_the_discount_game_records():
    # The battery scans the equilibria of the discount game's records, the
    # ones `zrsim sweep` writes, not those of the fixed-delta market.  A
    # discount-game file without a grid plays the default one.  The oracle
    # re-checks each cell in its market at delta*: at the scenario's delta
    # it would disagree.
    assert load_scenario(SCENARIOS / "benchmark.json").delta_grid is None
    scenario = load_scenario(SCENARIOS / "discount_game.json")
    assert scenario.delta_grid == DEFAULT_DELTA_GRID
    results = run_battery(scenario)
    assert [r.name for r in results if r.passed is False] == []
    [oracle] = [r for r in results if r.name == "oracle-equilibrium"]
    assert oracle.detail == (
        "every profile: 817 verdicts compared, 0 disagreements, 54 NODEQ cells skipped"
    )
    [check] = [r for r in results if r.name == "value-ordering-pruning"]
    records = grid_sweep(scenario.config, scenario.price_grid, DEFAULT_DELTA_GRID)
    assert check.detail == f"{sum(len(r.zre.all_zre) for r in records)} equilibria scanned"


def _battery_records(scenario):
    # The records run_battery hands to every check: the sweep's.
    return grid_sweep(scenario.config, scenario.price_grid, scenario.delta_grid)


@pytest.mark.parametrize("name", ["bandwidth_high", "discount_game"])
def test_battery_checks_the_records_sweep_writes(name, monkeypatch):
    # One solve serves the battery: every check receives the very list
    # grid_sweep returned, and each record holds solve_grid's result for
    # its cell, at fixed delta and in the discount game.
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    swept, received = [], []
    real = verify.grid_sweep

    def recording(*args):
        swept.append(real(*args))
        return swept[-1]

    def receiving(check):
        def wrapped(scenario, records):
            received.append(records)
            return check(scenario, records)

        return wrapped

    monkeypatch.setattr(verify, "grid_sweep", recording)
    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(map(receiving, verify.ALL_CHECKS)))
    results = run_battery(scenario)
    [records] = swept
    assert len(received) == len(results) == 8
    assert all(r is records for r in received)
    rows = solve_grid(scenario.config, scenario.price_grid, scenario.delta_grid)
    assert [(r.prices, r.discounts) for r in records] == [(p, d) for p, d, _ in rows]
    assert [r.zre for r in records] == [zre for _, _, zre in rows]
    assert records == grid_sweep(scenario.config, scenario.price_grid, scenario.delta_grid)


def test_verify_allocates_each_profile_once(monkeypatch):
    # The oracle allocation reads neither prices nor discounts, so the
    # battery allocates each of the 16 profiles of the 2x2 market at most
    # once across all 121 cells, though it compares all 1681 valid profiles.
    scenario = load_scenario(SCENARIOS / "bandwidth_high.json")
    records = _battery_records(scenario)
    allocated = []
    real = oracle.oracle_allocate

    def counting(config, theta):
        allocated.append(theta.rows)
        return real(config, theta)

    monkeypatch.setattr(oracle, "oracle_allocate", counting)
    result = check_oracle_equilibrium(scenario, records)
    assert result == CheckResult(
        "oracle-equilibrium", True, "every profile: 1681 verdicts compared, 0 disagreements"
    )
    assert 0 < len(allocated) <= 16
    assert len(set(allocated)) == len(allocated)


def _planted(records, prices, change):
    # The records with ``change`` applied to the equilibria of the cell at
    # ``prices``.
    [k] = [k for k, record in enumerate(records) if record.prices == prices]
    record, out = records[k], list(records)
    zre = dataclasses.replace(record.zre, all_zre=change(record.zre.all_zre))
    out[k] = dataclasses.replace(record, zre=zre)
    return out


def test_verify_catches_a_planted_disagreement():
    # The engine's side is read from the records and every profile of
    # every cell is compared, so a record that drops a real equilibrium or
    # gains a non-equilibrium must fail the check.
    scenario = load_scenario(SCENARIOS / "bandwidth_high.json")
    records = _battery_records(scenario)
    assert check_oracle_equilibrium(scenario, records).passed is True

    def planted(prices, change):
        return check_oracle_equilibrium(scenario, _planted(records, prices, change))

    def drop(theta):
        return lambda all_zre: tuple(t for t in all_zre if t != theta)

    # Dropped: 1111, the lone equilibrium at (0.0, 0.1), and 1010 at
    # (0.1, 0.4).  The seeded sample of 3 profiles per cell (VERIFY_SEED)
    # draws 1010, 1010, 1011 at the first and 1110, 0001, 1100 at the
    # second, neither of them, so a check of equilibria plus that sample
    # passes both.
    for prices, theta in [
        ((0.0, 0.1), StrategyMatrix.from_bitstring("1111", 2, 2)),
        ((0.1, 0.4), StrategyMatrix(((1, 0), (1, 0)))),
    ]:
        dropped = planted(prices, drop(theta))
        assert dropped.passed is False
        assert dropped.detail == "every profile: 1681 verdicts compared, 1 disagreements"
    # Gained: a profile of a cell without zero prices that is no equilibrium.
    [zre] = [record.zre for record in records if record.prices == (0.5, 0.5)]
    extra = next(
        t for code in range(16)
        if (t := StrategyMatrix.from_bitstring(format(code, "04b"), 2, 2)) not in zre.all_zre
    )
    gained = planted((0.5, 0.5), lambda all_zre: all_zre + (extra,))
    assert gained.passed is False and "0 disagreements" not in gained.detail
    # Gained: a profile that breaks a forced cell, which no valid profile
    # matches, counts as a disagreement rather than escaping the check.
    gained = planted((0.0, 0.1), lambda all_zre: all_zre + (StrategyMatrix.zeros(2, 2),))
    assert gained.passed is False and "1 disagreements" in gained.detail


def test_verify_falls_back_to_the_seeded_sample_above_the_budget(monkeypatch):
    # One 4x4 cell has 65,536 profiles, and allocating each one would cost
    # far more than the budget admits, so the check compares the cell's
    # equilibria and 3 seeded profiles, and says so, counting the distinct
    # profiles it shows the oracle.
    config = random_config(np.random.default_rng(3), 4, 4, allow_zero_price=False)
    scenario = Scenario(config, tuple((price,) for price in config.p))
    records = _battery_records(scenario)
    shown = []
    real = verify.oracle_equilibria_among

    def recording(markets, among):
        shown.extend(among)
        return real(markets, among)

    monkeypatch.setattr(verify, "oracle_equilibria_among", recording)
    result = check_oracle_equilibrium(scenario, records)
    [record], [profiles] = records, shown
    assert set(record.zre.all_zre) < set(profiles)
    assert result.passed is True
    assert result.detail.startswith("seeded sample (oracle work ")
    assert result.detail.endswith(
        f" over {verify.ORACLE_PROFILE_BUDGET}): "
        f"{len(set(profiles))} verdicts compared, 0 disagreements"
    )


def test_verify_fallback_sample_keeps_zero_price_columns_at_one(monkeypatch):
    # Above the budget the seeded sample fills a zero-price ISP's column
    # with 1, the only valid choice there, and draws every other cell.
    config = random_config(np.random.default_rng(3), 4, 4, allow_zero_price=False)
    config = config.with_prices((0.0,) + config.p[1:])
    scenario = Scenario(config, tuple((price,) for price in config.p))
    records = _battery_records(scenario)
    shown = []
    real = verify.oracle_equilibria_among

    def recording(markets, among):
        shown.extend(among)
        return real(markets, among)

    monkeypatch.setattr(verify, "oracle_equilibria_among", recording)
    result = check_oracle_equilibrium(scenario, records)
    assert result.passed is True and result.detail.startswith("seeded sample")
    [record], [profiles] = records, shown
    sample = list(profiles)[len(record.zre.all_zre):]
    assert len(sample) == 3
    assert all(row[0] == 1 for theta in sample for row in theta.rows)
    assert {row[j] for theta in sample for row in theta.rows for j in range(1, 4)} == {0, 1}


def test_verify_sample_repeats_offset_no_disagreement(monkeypatch):
    # With a zero budget bandwidth_high takes the seeded-sample path: each
    # compared cell shows the oracle its recorded equilibria and 3 draws,
    # each distinct profile once, though some draws repeat one another or
    # a recorded equilibrium.  A recorded profile that is no equilibrium
    # counts 1, as on the every-profile path: 1010 at (0.0, 0.1), drawn
    # twice there, 0000, which breaks that cell's forced column, and 0011
    # at (0.5, 0.5), which is not drawn.
    monkeypatch.setattr(verify, "ORACLE_PROFILE_BUDGET", 0)
    scenario = load_scenario(SCENARIOS / "bandwidth_high.json")
    records = _battery_records(scenario)
    rng, draw = random.Random(verify.VERIFY_SEED), verify._seeded_profile
    draws = {r.prices: [draw(rng, 2, r.prices) for _ in range(3)] for r in records}
    cells = [r for r in records if r.discounts is not None]
    assert sum(len(set(r.zre.all_zre + tuple(draws[r.prices]))) for r in cells) == 436
    assert [t.bitstring() for t in draws[0.0, 0.1]] == ["1010", "1010", "1011"]
    assert StrategyMatrix.from_bitstring("0011", 2, 2) not in draws[0.5, 0.5]
    head = "seeded sample (oracle work 7300 over 0): "
    assert check_oracle_equilibrium(scenario, records) == CheckResult(
        "oracle-equilibrium", True, f"{head}436 verdicts compared, 0 disagreements"
    )
    for prices, bits, compared in [
        ((0.0, 0.1), "1010", 436), ((0.0, 0.1), "0000", 437), ((0.5, 0.5), "0011", 437)
    ]:
        theta = StrategyMatrix.from_bitstring(bits, 2, 2)
        planted = _planted(records, prices, lambda all_zre: all_zre + (theta,))
        assert check_oracle_equilibrium(scenario, planted) == CheckResult(
            "oracle-equilibrium", False, f"{head}{compared} verdicts compared, 1 disagreements"
        )


def test_verify_sample_lists_each_market_cells_once(monkeypatch):
    # On the seeded-sample path the oracle finds each market's forced and
    # free cells once, not once per profile it tests there.
    monkeypatch.setattr(verify, "ORACLE_PROFILE_BUDGET", 0)
    scenario = load_scenario(SCENARIOS / "bandwidth_high.json")
    records = _battery_records(scenario)
    calls = []
    real = oracle._cells

    def cells(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(oracle, "_cells", cells)
    result = check_oracle_equilibrium(scenario, records)
    assert result.passed is True and result.detail.startswith("seeded sample")
    assert len(calls) == len(set(calls)) == 121


def test_oracle_verdicts_share_work_across_the_battery(monkeypatch):
    # bandwidth_high's every-profile route, as check_oracle_equilibrium
    # takes it: one oracle_equilibria call over its 121 markets at one
    # alpha, phi and psi, whose 1,681 valid profiles are 16 distinct ones.
    # The call allocates each profile once, scores it once per market and
    # builds each equilibrium's matrix once.
    scenario = load_scenario(SCENARIOS / "bandwidth_high.json")
    records = _battery_records(scenario)
    sent, returned, calls = [], [], {"allocate": 0, "totals": 0}
    real_equilibria = oracle.oracle_equilibria
    real_allocate, real_totals = oracle.oracle_allocate, oracle._payoff_totals

    def recording(markets):
        sent.append(list(markets))
        returned.append(real_equilibria(sent[-1]))
        return returned[-1]

    def allocate(config, theta):
        calls["allocate"] += 1
        return real_allocate(config, theta)

    def totals(config, dp, pairs):
        calls["totals"] += 1
        return real_totals(config, dp, pairs)

    monkeypatch.setattr(verify, "oracle_equilibria", recording)
    monkeypatch.setattr(oracle, "oracle_allocate", allocate)
    monkeypatch.setattr(oracle, "_payoff_totals", totals)
    result = check_oracle_equilibrium(scenario, records)
    assert result.detail == "every profile: 1681 verdicts compared, 0 disagreements"
    [markets] = sent
    assert len(set(markets)) == len(markets) == 121
    assert len({(c.alpha, c.phi, c.psi, c.total_users) for c in markets}) == 1
    valid = sum(2 ** (2 * sum(price != 0.0 for price in c.p)) for c in markets)
    assert valid == 1681
    assert calls == {"allocate": 16, "totals": 1681}
    [found] = returned
    assert len({id(theta) for equilibria in found for theta in equilibria}) <= 16
    # The seeded-sample route shows each market its own profiles; one that
    # breaks a forced cell is no equilibrium there, after 100 markets too.
    ones, zeros = StrategyMatrix.from_bitstring("1111", 2, 2), StrategyMatrix.zeros(2, 2)
    shown = markets[:100] + [next(market for market in markets if 0.0 in market.p)]
    found = oracle.oracle_equilibria_among(shown, [[ones]] * 100 + [[zeros, ones]])
    assert found == [(ones,) * oracle_verify_zre(market, ones) for market in shown]


def test_verify_hhi_draws_cover_every_shape(monkeypatch):
    # randint includes its upper bound, unlike numpy's integers: the 100
    # markets of hhi-all-or-none span 2-3 CPs by 1-3 ISPs and include a
    # zero price, and the 200 share vectors of hhi-variance-identity have
    # every length from 1 to 5.  The check allocates its markets in one
    # stacked call per shape, two profiles per market, in draw order with
    # the scenario's market first.
    scenario = load_scenario(SCENARIOS / "benchmark.json")
    markets, stacked, vectors = [], [], []
    real_market, real_rho = verify._seeded_market, verify._rho
    real_identity = verify.hhi_variance_identity

    def seeded_market(rng):
        markets.append(real_market(rng))
        return markets[-1]

    def rho(cells, members, baseline, alpha):
        stacked.append((cells.shape[1:], baseline, alpha))
        return real_rho(cells, members, baseline, alpha)

    def identity(shares):
        vectors.append(shares)
        return real_identity(shares)

    monkeypatch.setattr(verify, "_seeded_market", seeded_market)
    monkeypatch.setattr(verify, "_rho", rho)
    monkeypatch.setattr(verify, "hhi_variance_identity", identity)
    assert verify.check_hhi_all_or_none(scenario, []).passed is True
    assert verify.check_hhi_identity(scenario, []).passed is True
    assert len(markets) == 100
    groups = {}
    for cfg in [scenario.config] + markets:
        groups.setdefault((cfg.n_cps, cfg.n_isps), []).append(cfg)
    assert [shape for shape, _, _ in stacked] == list(groups)
    for (_, baseline, alpha), group in zip(stacked, groups.values()):
        pairs = [np.outer(cfg.phi, cfg.psi) for cfg in group]
        assert np.array_equal(baseline, np.repeat(pairs, 2, axis=0))
        assert alpha.ravel().tolist() == [cfg.alpha for cfg in group for _ in range(2)]
    assert sum(len(alpha) for _, _, alpha in stacked) == 2 * 101
    assert groups[(2, 2)][0] is scenario.config
    assert set(groups) == {(n, m) for n in (2, 3) for m in (1, 2, 3)}
    assert {(cfg.n_cps, cfg.n_isps) for cfg in markets} == set(groups)
    assert any(0.0 in cfg.p for cfg in markets)
    assert len(vectors) == 200
    assert {len(shares) for shares in vectors} == {1, 2, 3, 4, 5}


def test_verify_hhi_draws_are_valid_markets(monkeypatch):
    # hhi-all-or-none reads only the shape, alpha, phi and psi of its 100
    # draws and builds no market from them; each draw still names the
    # fields of a valid MarketConfig, which holds exactly the drawn values.
    draws = []
    real_market = verify._seeded_market

    def seeded_market(rng):
        draws.append(real_market(rng))
        return draws[-1]

    monkeypatch.setattr(verify, "_seeded_market", seeded_market)
    verify.check_hhi_all_or_none(load_scenario(SCENARIOS / "benchmark.json"), [])
    assert len(draws) == 100
    for draw in draws:
        config = MarketConfig(**vars(draw))
        assert all(getattr(config, name) == value for name, value in vars(draw).items())


def test_verify_skips_utility_drop_on_tied_values(tmp_path, capsys):
    # Two CPs of equal value have no low-value CP to lose utility.
    doc = json.loads((SCENARIOS / "benchmark.json").read_text())
    doc["market"]["q"] = [0.7, 0.7]
    scenario = tmp_path / "tied.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(scenario)]) == EXIT_OK
    [line] = [r for r in capsys.readouterr().out.splitlines() if "low-value-utility-drop" in r]
    assert line.startswith("SKIP")
    assert line.endswith("skipped: all CP values equal")


def test_zre_verb_prints_equilibria(capsys):
    code = main(["zre", str(SCENARIOS / "benchmark.json"), "--p", "0.1", "0.5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "selected: 1011" in out
    assert "pressure: 0 1" in out


def test_zre_verb_wrong_price_count(capsys):
    code = main(["zre", str(SCENARIOS / "benchmark.json"), "--p", "0.1"])
    assert code == EXIT_INVALID


@pytest.mark.parametrize("price, shown", [("1.5", "1.5"), ("nan", "nan")])
def test_zre_verb_out_of_range_price_exits_2(price, shown, capsys):
    code = main(["zre", str(SCENARIOS / "benchmark.json"), "--p", price, "0.5"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == f"error: p[0] must lie in [0, 1], got {shown}\n"
    assert captured.out == ""


def test_zre_verb_reports_no_zre(capsys):
    code = main(["zre", str(SCENARIOS / "bandwidth_high.json"), "--p", "0.3", "0.3"])
    assert code == EXIT_OK
    assert "NO_ZRE" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["benchmark", "discount_game"])
def test_zre_verb_answers_what_sweep_records(name, tmp_path, capsys):
    # zre solves its cell in the scenario's mode, as sweep does: in the
    # discount game it shows the selected discount profile (NODEQ where
    # there is none) and the equilibria at it.  A zero-price ISP shows the
    # grid's largest discount, as discounts.csv does.
    path = SCENARIOS / f"{name}.json"
    assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_OK
    with (tmp_path / "grid.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    discounts = {}
    if name == "discount_game":
        with (tmp_path / "discounts.csv").open(encoding="utf-8") as fh:
            [header, *matrix] = csv.reader(fh)
        discounts = {
            (p1, p2): text.replace(",", " ")
            for p2, *cells in matrix
            for p1, text in zip(header[1:], cells)
        }
    assert len(rows) == 121
    for row in rows:
        prices = (row["p_1"], row["p_2"])
        assert main(["zre", str(path), "--p", *prices]) == EXIT_OK
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["prices"] == " ".join(prices)
        assert lines.get("selected", "NOZRE") == row["theta"]
        assert (lines["status"] == "NO_ZRE") == (row["theta"] == "NOZRE")
        assert lines.get("pressure", "0 0") == f"{row['pressure_1']} {row['pressure_2']}"
        assert lines.get("discounts") == discounts.get(prices)


def test_zre_verb_checks_prices_before_the_capacity_guard(tmp_path, capsys):
    # A price outside [0, 1] is bad input on any market: exit 2, though a
    # valid price on this 3 x 7 market exceeds the guard and exits 3.
    doc = {
        "market": {
            "n_cps": 3, "n_isps": 7, "alpha": 0.5, "c": 0.5,
            "q": [0.2, 0.5, 1.0], "delta": [1.0] * 7,
            "phi": [0.125] * 8, "psi": [0.125] * 8,
        },
        "price_grid": [[0.5]] * 7,
        "mode": "fixed-delta",
    }
    scenario = tmp_path / "wide.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["zre", str(scenario), "--p", "1.5"] + ["0.5"] * 6) == EXIT_INVALID
    assert capsys.readouterr().err == "error: p[0] must lie in [0, 1], got 1.5\n"
    assert main(["zre", str(scenario), "--p"] + ["0.5"] * 7) == EXIT_CAPACITY
    assert capsys.readouterr().err.startswith("error: a 3x7 cell needs ")
