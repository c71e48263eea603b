"""Output correctness: meaning-level comparison of sweep artifacts.

Two artifacts mean the same when every string field (theta bit strings,
NOZRE, NODEQ, pressure flags, discount profiles, sign words, keys and
headers) is identical and every numeric field is within ``NUM_TOL``.  Byte
identity is stricter and is counted separately: a correct reordering of a
floating-point sum may move the 12th significant digit of a value that is
zero up to rounding noise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

NUM_TOL = 1e-12
# Columns whose fields are compared as exact strings even when they parse
# as numbers (bit strings such as "0110", 0/1 flags).
_STRING_COLUMNS = ("theta", "pressure_")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _same_field(ref: str, out: str, exact: bool) -> bool:
    if ref == out:
        return True
    if exact or "," in ref:
        return False
    try:
        return abs(float(ref) - float(out)) <= NUM_TOL
    except ValueError:
        return False


def same_csv(ref_text: str, out_text: str) -> bool:
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    out_rows = list(csv.reader(io.StringIO(out_text)))
    if len(ref_rows) != len(out_rows) or not ref_rows or ref_rows[0] != out_rows[0]:
        return False
    exact = [name.startswith(_STRING_COLUMNS) for name in ref_rows[0]]
    for ref_row, out_row in zip(ref_rows[1:], out_rows[1:]):
        if len(ref_row) != len(out_row):
            return False
        for k, (a, b) in enumerate(zip(ref_row, out_row)):
            if not _same_field(a, b, k < len(exact) and exact[k]):
                return False
    return True


def _same_json(ref, out) -> bool:
    if isinstance(ref, bool) or isinstance(out, bool):
        return ref is out
    if isinstance(ref, (int, float)) and isinstance(out, (int, float)):
        return abs(ref - out) <= NUM_TOL
    if isinstance(ref, dict) and isinstance(out, dict):
        return ref.keys() == out.keys() and all(_same_json(ref[k], out[k]) for k in ref)
    if isinstance(ref, list) and isinstance(out, list):
        return len(ref) == len(out) and all(_same_json(a, b) for a, b in zip(ref, out))
    return ref == out


def same_meaning(ref: Path, out: Path) -> bool:
    """Whether artifact ``out`` means the same as reference artifact ``ref``."""
    if not out.is_file():
        return False
    ref_text = ref.read_text(encoding="utf-8")
    out_text = out.read_text(encoding="utf-8")
    if ref.suffix == ".json":
        try:
            return _same_json(json.loads(ref_text), json.loads(out_text))
        except json.JSONDecodeError:
            return False
    return same_csv(ref_text, out_text)
