"""Output checks: a compact reference per corpus, and what a run must match.

A reference keeps, for every file a run writes, the SHA-256 of its
*skeleton* (the text with every float token replaced by a marker) and the
float tokens themselves.  A run matches when each skeleton is identical,
so ids, integer leads, flags, errors, row order and layout are exact, and
each float is within ``REL_TOL`` of the reference float.  Files without
floats (``dtw_paths.csv``) are therefore checked exactly by digest.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-9

# A float as repr() and json.dumps() write it, or the inf/nan sentinels.
# Integers, dates and identifiers such as ind01 do not match.
_FLOAT = re.compile(
    rb"(?<![\w.])-?(?:\d+\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)(?![\w.])")

_TABLES = ("granger", "ccf", "dtw")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def split_floats(data: bytes) -> tuple[str, list[str]]:
    """(SHA-256 of the text with floats masked, the float tokens in order)."""
    tokens = [t.decode() for t in _FLOAT.findall(data)]
    skeleton = _FLOAT.sub(b"\0", data)
    return hashlib.sha256(skeleton).hexdigest(), tokens


def make_reference(out_dir: Path, inputs: dict[str, str]) -> dict:
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        skeleton, floats = split_floats(path.read_bytes())
        outputs[path.name] = {"skeleton_sha256": skeleton, "floats": floats}
    return {"inputs": inputs, "outputs": outputs}


def write_reference(path: Path, reference: dict) -> None:
    text = json.dumps(reference, sort_keys=True, separators=(",", ":"))
    path.write_bytes(gzip.compress(text.encode(), compresslevel=9, mtime=0))


def read_reference(path: Path) -> dict:
    return json.loads(gzip.decompress(path.read_bytes()))


def _float_close(value: str, ref: str) -> bool:
    a, r = float(value), float(ref)
    if math.isnan(r):
        return math.isnan(a)
    if math.isinf(r):
        return a == r
    return abs(a - r) <= REL_TOL * abs(r)


def compare_outputs(out_dir: Path, reference: dict) -> list[str]:
    """Differences between the files in ``out_dir`` and ``reference``."""
    problems = []
    expected = reference["outputs"]
    written = sorted(p.name for p in out_dir.iterdir())
    if written != sorted(expected):
        problems.append(f"output files {written} != reference {sorted(expected)}")
    for name in sorted(set(written) & set(expected)):
        skeleton, floats = split_floats((out_dir / name).read_bytes())
        ref = expected[name]
        if skeleton != ref["skeleton_sha256"]:
            problems.append(f"{name}: text other than floats differs from the reference")
            continue
        bad = [i for i, (v, r) in enumerate(zip(floats, ref["floats"]))
               if not _float_close(v, r)]
        if bad:
            i = bad[0]
            problems.append(f"{name}: {len(bad)} float(s) off by more than {REL_TOL:g} "
                            f"relative, first #{i}: {floats[i]} vs {ref['floats'][i]}")
    return problems


def read_tables(out_dir: Path, fmt: str) -> dict[str, list[dict]]:
    """Rows of granger/ccf/dtw tables as dicts of text, for either format."""
    tables = {}
    for table in _TABLES:
        path = out_dir / f"{table}.{fmt}"
        if fmt == "csv":
            with path.open(newline="", encoding="utf-8") as fh:
                tables[table] = list(csv.DictReader(fh))
        else:
            tables[table] = json.loads(path.read_text(encoding="utf-8"))
    return tables


def grid_problems(tables: dict[str, list[dict]], methods: tuple[str, ...],
                  cells: int) -> list[str]:
    """A complete grid has one row per cell and method (two for Granger)."""
    rows_per_cell = {"granger": 2 if "granger" in methods else 0,
                     "ccf": 1 if "ccf" in methods else 0,
                     "dtw": 1 if "dtw" in methods else 0}
    return [f"{table}: {len(rows)} rows, expected {rows_per_cell[table] * cells}"
            for table, rows in tables.items()
            if len(rows) != rows_per_cell[table] * cells]


def error_rows(tables: dict[str, list[dict]]) -> tuple[int, int]:
    """(rows with a non-empty error, rows written)."""
    rows = [row for table in tables.values() for row in table]
    return sum(1 for row in rows if row.get("error")), len(rows)


def lead_hits(summary: dict, truth: dict[str, int], stat: str,
              tolerance: float) -> tuple[int, int]:
    """(indicator, wave) cells whose median ``stat`` is within ``tolerance``
    days of the injected lead, and the cells that report ``stat``."""
    hits = total = 0
    for indicator, waves in summary.items():
        for stats in waves.values():
            if stat not in stats:
                continue
            total += 1
            hits += abs(stats[stat]["median"] - truth[indicator]) <= tolerance
    return hits, total
