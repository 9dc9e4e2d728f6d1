"""Deterministic report emission: per-method tables plus a quantile summary.

Identical inputs always produce byte-identical files: rows are ordered by
(trust, indicator, wave, method), float formatting uses ``repr``, and JSON
keys are sorted. Each column of a result table is formatted once.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from operator import itemgetter
from pathlib import Path

import numpy as np

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
_TEXT = ("trust_id", "indicator", "wave", "method", "provenance", "error")
_INTEGERS = ("horizon", "df_num", "df_den", "optimal_lead")
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


def _column(table: ResultTable, field: str) -> list:
    """One field of every row of ``table`` as JSON values, None where absent."""
    if field in ("trust_id", "error"):
        return list(table.trust_ids) if field == "trust_id" else table.error
    values = table.columns.get(field)
    if values is None:  # a field of the whole table, or an absent column
        value = False if field in _FLAGS else getattr(table, field, None)
        return [value] * len(table.trust_ids)
    if values.dtype == bool:
        return values.tolist()
    # JSON has no Infinity; the F = +inf sentinel becomes its repr string
    return [None if v != v else (int(v) if field in _INTEGERS else v)
            if math.isfinite(v) else repr(v) for v in values.tolist()]


def _csv_column(table: ResultTable, field: str) -> list[str]:
    """One field of every row of ``table`` as CSV text, empty where absent."""
    values = _column(table, field)
    if field in _FLAGS:
        return ["true" if v else "false" for v in values]
    # str of a float is its repr, and of the F = +inf sentinel "inf"
    text = _csv_text if field in _TEXT else str
    return ["" if v is None else text(v) for v in values]


def _rows(tables: list[ResultTable], fields: list[str],
          column: Callable[[ResultTable, str], list]) -> list[tuple]:
    """The tables' rows in (trust, indicator, wave, method) order, as tuples of
    ``column(table, field)`` values; equal keys keep their input order."""
    tables = sorted(tables, key=lambda table: (table.indicator, table.wave, table.method))
    rows = [(trust, row) for table in tables
            for trust, row in zip(table.trust_ids, zip(*(column(table, f) for f in fields)))]
    rows.sort(key=itemgetter(0))  # stable, so each trust keeps the tables' order
    return [row for _, row in rows]


def _write_csv(path: Path, fields: list[str], tables: list[ResultTable]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(fields) + "\n")
        fh.writelines(",".join(row) + "\n" for row in _rows(tables, fields, _csv_column))


def _write_json_rows(path: Path, fields: list[str], tables: list[ResultTable]) -> None:
    payload = [dict(zip(fields, row)) for row in _rows(tables, fields, _column)]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


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
            q25, median, q75 = np.quantile(values, [0.25, 0.5, 0.75]).tolist()
            summary[indicator][wave][label] = {"n": values.size, "q25": q25,
                                               "median": median, "q75": q75}
    return summary


def emit_reports(tables: list[ResultTable], out_dir: str | Path,
                 fmt: str = "csv") -> list[Path]:
    """Write granger/ccf/dtw tables and summary.json into ``out_dir``.

    Row order is (trust, indicator, wave, method); reruns on identical
    inputs are byte-identical.
    """
    if fmt not in ("csv", "json"):
        raise LeadLagError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LeadLagError(f"cannot create output directory {out}: {exc}") from exc

    write = _write_csv if fmt == "csv" else _write_json_rows
    written: list[Path] = []
    try:
        for group, methods in _METHOD_FILES.items():
            path = out / f"{group}.{fmt}"
            write(path, _METHOD_FIELDS[group], [t for t in tables if t.method in methods])
            written.append(path)
        summary_path = out / "summary.json"
        summary_path.write_text(
            json.dumps(summarize(tables), indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8")
        written.append(summary_path)
    except OSError as exc:
        raise LeadLagError(f"cannot write report in {out}: {exc}") from exc
    return written


def write_dtw_paths(path: Path, records: list[tuple]) -> None:
    """Write ``run_analysis``'s DTW path records as CSV, a line per matched pair.

    Blocks follow (indicator, wave) name order; the stable sort keeps each
    block's scope order and each record's sorted pairs.
    """
    with path.open("w", encoding="utf-8") as fh:
        fh.write("indicator,wave,scope,query_date,ref_date,lead_days\n")
        for ind, wave, scope, days, pairs in sorted(records, key=lambda rec: rec[:2]):
            head = f"{ind},{wave},{scope},"
            fh.write("".join([f"{head}{days[i]},{days[j]},{j - i}\n" for i, j in pairs]))
