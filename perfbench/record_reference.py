"""Write reference/: the default-seed artifacts of every sweep workload.

    python3 perfbench/record_reference.py

Runs ``zrsim sweep`` once per scenario at one worker and stores the
artifacts with their sha256 digests in ``reference/sha256.json``.  The
benchmark compares every pass against these files, so re-record only when
an output change is intended and has been checked.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import workloads
from run import OUT, REFERENCE, ROOT, WORKERS_ENV


def main() -> int:
    shutil.rmtree(REFERENCE, ignore_errors=True)
    work = OUT / "record-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), WORKERS_ENV: "1"}
    manifest = {}
    for name in workloads.NAMES:
        workload = workloads.build(name, workloads.DEFAULT_SEED, False, ROOT, work)
        if not workload.reference:
            continue
        for argv in workload.argvs(REFERENCE / name):
            subprocess.run([sys.executable, "-m", "zrsim.cli", *argv], env=env, check=True)
        for path in sorted((REFERENCE / name).rglob("*")):
            if path.is_file():
                manifest[path.relative_to(REFERENCE).as_posix()] = gate.sha256(path)
    (REFERENCE / "sha256.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(manifest)} reference artifacts recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
