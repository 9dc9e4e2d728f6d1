"""Deterministic report emission: per-method tables plus a quantile summary.

Identical inputs always produce byte-identical files: rows are ordered by
(trust, indicator, wave, method), float formatting uses ``repr``, and JSON
keys are sorted. Each column of a result table is formatted once, into
text: CSV quoting for strings in CSV, json's own string encoder in JSON.
A CSV row joins its fields; a JSON row fills one template per file that
holds the sorted keys and the layout of ``json.dumps(..., indent=2)``, so
no value passes through json's pure-Python encoder.  ``summary.json`` is
small and is written by ``json.dumps``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from .dtw import path_pairs
from .errors import LeadLagError
from .pipeline import ResultTable

_COMMON_FIELDS = ["trust_id", "indicator", "wave", "method"]
_METHOD_FIELDS = {
    "granger": _COMMON_FIELDS + ["horizon", "f_stat", "p_value", "df_num", "df_den",
                                 "degenerate", "truncated", "provenance", "error"],
    "ccf": _COMMON_FIELDS + ["horizon", "optimal_lead", "ccf_at_optimal",
                             "ccf_at_horizon", "effective_lead", "eroded",
                             "degenerate", "truncated", "provenance", "error"],
    "dtw": _COMMON_FIELDS + ["dtw_median_lead", "dtw_normalized_distance",
                             "effective_lead", "eroded",
                             "degenerate", "truncated", "provenance", "error"],
}
_METHOD_FILES = {"granger": ("granger", "granger14"), "ccf": ("ccf",), "dtw": ("dtw",)}
_INTEGERS = ("df_num", "df_den", "optimal_lead")
_FLAGS = ("eroded", "degenerate", "truncated")

_SUMMARY_STATS = {  # method: its (column, summary label) pairs
    "granger": (("p_value", "granger_p"),),
    "granger14": (("p_value", "granger14_p"),),
    "ccf": (("optimal_lead", "optimal_lead"), ("ccf_at_horizon", "ccf_at_horizon")),
    "dtw": (("dtw_median_lead", "dtw_median_lead"),
            ("dtw_normalized_distance", "dtw_normalized_distance")),
}


def _csv_text(text: str) -> str:
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _text_column(table: ResultTable, field: str, text: Callable[[str], str],
                 absent: str) -> list[str]:
    """One field of every row of ``table`` as output text.

    A string goes through ``text``, a number through ``repr`` (an integer
    field's as an int), a flag becomes ``true`` or ``false``, and a missing
    value ``absent``.  JSON has no Infinity, so the F = +inf sentinel goes
    through ``text`` as its repr: ``"inf"`` in JSON, ``inf`` in CSV.
    """
    n = len(table.trust_ids)
    if field == "trust_id":
        return list(map(text, table.trust_ids))
    values = table.columns.get(field)
    if values is None:  # a field of the whole table, or an absent column
        if field in _FLAGS:
            return ["false"] * n
        value = getattr(table, field, None)
        if value is None:
            return [absent] * n
        return [text(value) if isinstance(value, str) else repr(value)] * n
    if values.dtype.kind in "UO":  # numpy text, or Python strings
        return list(map(text, values.tolist()))
    if values.dtype == bool:
        return ["true" if v else "false" for v in values.tolist()]
    kind = int if field in _INTEGERS else float
    return [absent if v != v else repr(kind(v)) if math.isfinite(v) else text(repr(v))
            for v in values.tolist()]


def _rows(tables: list[ResultTable], fields: list[str], text: Callable[[str], str],
          absent: str) -> list[tuple[str, ...]]:
    """The tables' rows in (trust, indicator, wave, method) order, as tuples of
    ``fields`` text; equal keys keep their input order."""
    tables = sorted(tables, key=lambda table: (table.indicator, table.wave, table.method))
    rows = [(trust, row) for table in tables for trust, row in zip(
        table.trust_ids, zip(*(_text_column(table, f, text, absent) for f in fields)))]
    rows.sort(key=itemgetter(0))  # stable, so each trust keeps the tables' order
    return [row for _, row in rows]


def _write_csv(path: Path, fields: list[str], tables: list[ResultTable]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(fields) + "\n")
        fh.writelines(",".join(row) + "\n" for row in _rows(tables, fields, _csv_text, ""))


def _write_json_rows(path: Path, fields: list[str], tables: list[ResultTable]) -> None:
    """The rows as ``json.dumps(rows, indent=2, sort_keys=True)`` would write
    them, streamed into the file a row at a time."""
    keys = sorted(fields)
    template = "{\n" + ",\n".join(f"    {encode_basestring_ascii(k)}: %s"
                                    for k in keys) + "\n  }"
    rows = _rows(tables, keys, encode_basestring_ascii, "null")
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines((",\n  " if k else "[\n  ") + template % row for k, row in enumerate(rows))
        fh.write("\n]\n" if rows else "[]\n")


def summarize(tables: list[ResultTable]) -> dict:
    """Per-indicator, per-wave quantiles of each method's headline statistic.

    Every (indicator, wave) with rows appears; one without any statistic
    (every cell failed, say) maps to an empty dict.
    """
    summary: dict = {}
    buckets: dict[tuple[str, str, str], list[np.ndarray]] = {}
    for table in tables:
        if table.trust_ids:
            summary.setdefault(table.indicator, {}).setdefault(table.wave, {})
        for column, label in _SUMMARY_STATS.get(table.method, ()):
            values = table.columns.get(column, np.empty(0))
            buckets.setdefault((table.indicator, table.wave, label), []).append(
                values[~np.isnan(values)])
    for (indicator, wave, label), parts in buckets.items():
        values = np.concatenate(parts)
        if values.size:
            q25, median, q75 = _quartiles(values)
            summary[indicator][wave][label] = {"n": values.size, "q25": q25,
                                               "median": median, "q75": q75}
    return summary


def _quartiles(values: np.ndarray) -> list[float]:
    """``[np.quantile(values, q) for q in (0.25, 0.5, 0.75)]`` to the bit, down
    to the sign of a zero, which hangs on where a partition leaves tied -0.0
    and 0.0: numpy's linear method, each quartile from its own partition,
    without the ``numpy.ma`` import that ``np.quantile`` makes."""
    last = len(values) - 1
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        at = last * q
        i, j = (-1, -1) if at >= last else (int(at), int(at) + 1)
        s = np.partition(values, sorted({0, -1, i, j}))
        a, b, t = s[i], s[j], at - i  # past the end numpy weighs from i = -1
        step = b - a
        quartiles.append(float(b - step * (1 - t) if t >= 0.5 else a + step * t))
    return quartiles


def emit_reports(tables: list[ResultTable], out_dir: str | Path,
                 fmt: str = "csv") -> list[Path]:
    """Write granger/ccf/dtw tables and summary.json into ``out_dir``.

    Row order is (trust, indicator, wave, method); reruns on identical
    inputs are byte-identical. A directory or file that cannot be written
    raises the ``OSError``.
    """
    if fmt not in ("csv", "json"):
        raise LeadLagError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write = _write_csv if fmt == "csv" else _write_json_rows
    written: list[Path] = []
    for group, methods in _METHOD_FILES.items():
        path = out / f"{group}.{fmt}"
        write(path, _METHOD_FIELDS[group], [t for t in tables if t.method in methods])
        written.append(path)
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(summarize(tables), indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8")
    written.append(summary_path)
    return written


def write_dtw_paths(path: Path, records: list[tuple]) -> None:
    """Write ``run_analysis``'s DTW path records as CSV, a line per matched pair.

    Records follow (indicator, wave) name order, each in its scope order, and
    each scope's pairs come sorted from :func:`~leadlag.dtw.path_pairs`. A
    record's alignments share its days, so each distinct (query, reference)
    pair is formatted once and every line is a scope's head and one of those
    texts.
    """
    with path.open("w", encoding="utf-8") as fh:
        fh.write("indicator,wave,scope,query_date,ref_date,lead_days\n")
        for ind, wave, scopes, days, match in sorted(records, key=lambda rec: rec[:2]):
            row, i, j = path_pairs(match).T
            m = len(days)
            pairs, pair_of_line = np.unique(i.astype(np.int64) * m + j, return_inverse=True)
            tails = np.array([f"{days[a]},{days[b]},{b - a}\n"
                              for a, b in (divmod(pair, m) for pair in pairs.tolist())],
                             dtype=object)[pair_of_line]
            start = "".join(_csv_text(text) + "," for text in (ind, wave))
            starts = np.searchsorted(row, range(1, len(scopes)))  # rows 1, 2, ... begin
            for scope, block in zip(scopes, np.split(tails, starts)):
                head = start + _csv_text(scope) + ","
                fh.write(head + head.join(block.tolist()))


def write_trust_population(path: Path, populations: dict[str, float]) -> None:
    """Write each trust's catchment population as CSV, in trust id order."""
    lines = ["trust_id,population"]
    lines.extend(f"{_csv_text(trust)},{pop!r}" for trust, pop in sorted(populations.items()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
