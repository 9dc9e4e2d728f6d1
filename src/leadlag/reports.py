"""Deterministic report emission: per-method tables plus a quantile summary.

Identical inputs always produce byte-identical files: rows are sorted, float
formatting uses ``repr``, and JSON keys are sorted.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import LeadLagError
from .pipeline import ReportRow

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

_SUMMARY_STATS = (
    ("granger", "p_value", "granger_p"),
    ("granger14", "p_value", "granger14_p"),
    ("ccf", "optimal_lead", "optimal_lead"),
    ("ccf", "ccf_at_horizon", "ccf_at_horizon"),
    ("dtw", "dtw_median_lead", "dtw_median_lead"),
    ("dtw", "dtw_normalized_distance", "dtw_normalized_distance"),
)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, fields: list[str], rows: list[ReportRow]) -> None:
    lines = [",".join(fields)]
    for row in rows:
        record = []
        for f in fields:
            text = _format(getattr(row, f))
            if "," in text or '"' in text or "\n" in text or "\r" in text:
                text = '"' + text.replace('"', '""') + '"'
            record.append(text)
        lines.append(",".join(record))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_safe(value):
    # JSON has no Infinity; the F = +inf sentinel becomes its repr string
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def _write_json_rows(path: Path, fields: list[str], rows: list[ReportRow]) -> None:
    payload = [{f: _json_safe(getattr(row, f)) for f in fields} for row in rows]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


def _quantiles(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "n": int(arr.size),
        "q25": float(np.quantile(arr, 0.25)),
        "median": float(np.quantile(arr, 0.5)),
        "q75": float(np.quantile(arr, 0.75)),
    }


def summarize(rows: list[ReportRow]) -> dict:
    """Per-indicator, per-wave quantiles of each method's headline statistic."""
    summary: dict = {}
    for method, attr, label in _SUMMARY_STATS:
        buckets: dict[tuple[str, str], list[float]] = {}
        for row in rows:
            if row.method != method:
                continue
            value = getattr(row, attr)
            if value is None:
                continue
            buckets.setdefault((row.indicator, row.wave), []).append(float(value))
        for (indicator, wave), values in buckets.items():
            summary.setdefault(indicator, {}).setdefault(wave, {})[label] = \
                _quantiles(values)
    return summary


def emit_reports(rows: list[ReportRow], out_dir: str | Path,
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

    ordered = sorted(rows, key=ReportRow.sort_key)
    written: list[Path] = []
    try:
        for group, methods in _METHOD_FILES.items():
            subset = [r for r in ordered if r.method in methods]
            path = out / f"{group}.{fmt}"
            if fmt == "csv":
                _write_csv(path, _METHOD_FIELDS[group], subset)
            else:
                _write_json_rows(path, _METHOD_FIELDS[group], subset)
            written.append(path)
        summary_path = out / "summary.json"
        summary_path.write_text(
            json.dumps(summarize(ordered), indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8")
        written.append(summary_path)
    except OSError as exc:
        raise LeadLagError(f"cannot write report in {out}: {exc}") from exc
    return written
