"""The column-table writers against the row writers they replaced.

The reference below is the earlier ``leadlag.reports`` row code, copied
verbatim but for the ``reference_`` prefix on its two public functions: it
wrote one ``ReportRow`` per cell, formatting each field through ``_format``
and ``getattr``.  Hypothesis builds result tables with absent
values, infinite and signed statistics, integer columns, flags, text that
needs CSV quoting, non-ASCII names, wave names listed out of name order,
(indicator, wave) pairs whose every cell failed and tables without rows;
``emit_reports`` must write the same bytes as the reference, in CSV and in
JSON, for every file.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from leadlag.errors import LeadLagError
from leadlag.pipeline import ResultTable
from leadlag.reports import emit_reports

from conftest import records


class ReportRow(SimpleNamespace):
    """A record of ``conftest.records`` with the deleted row class's sort key."""

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.trust_id, self.indicator, self.wave, self.method)


# ------------------------------------------------ reference: the row writers

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

_SUMMARY_STATS = {  # method: its (attribute, summary label) pairs
    "granger": (("p_value", "granger_p"),),
    "granger14": (("p_value", "granger14_p"),),
    "ccf": (("optimal_lead", "optimal_lead"), ("ccf_at_horizon", "ccf_at_horizon")),
    "dtw": (("dtw_median_lead", "dtw_median_lead"),
            ("dtw_normalized_distance", "dtw_normalized_distance")),
}


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


def reference_summarize(rows: list[ReportRow]) -> dict:
    """Per-indicator, per-wave quantiles of each method's headline statistic.

    Every (indicator, wave) with rows appears; one without any statistic
    (every cell failed, say) maps to an empty dict.
    """
    summary: dict = {}
    buckets: dict[tuple[str, str, str], list[float]] = {}
    for row in rows:
        summary.setdefault(row.indicator, {}).setdefault(row.wave, {})
        for attr, label in _SUMMARY_STATS.get(row.method, ()):
            value = getattr(row, attr)
            if value is not None:
                buckets.setdefault((row.indicator, row.wave, label), []).append(float(value))
    for (indicator, wave, label), values in buckets.items():
        summary[indicator][wave][label] = _quantiles(values)
    return summary


def reference_emit_reports(rows: list[ReportRow], out_dir: str | Path,
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
            json.dumps(reference_summarize(ordered), indent=2, sort_keys=True,
                       allow_nan=False) + "\n",
            encoding="utf-8")
        written.append(summary_path)
    except OSError as exc:
        raise LeadLagError(f"cannot write report in {out}: {exc}") from exc
    return written


# ------------------------------------------------------------ result tables

TEXT = st.text(max_size=6)  # any characters that UTF-8 can encode
NAMES = st.sampled_from(["a,b", 'say "hi"', "two\nlines", "carriage\rreturn",
                         "crlf\r\nend", "Zürich", "伦敦", "T1", "T10", "T2", ""]) | TEXT
STATS = {
    "granger": ("f_stat", "p_value", "df_num", "df_den"),
    "granger14": ("f_stat", "p_value", "df_num", "df_den"),
    "ccf": ("optimal_lead", "ccf_at_optimal", "ccf_at_horizon", "effective_lead"),
    "dtw": ("dtw_median_lead", "dtw_normalized_distance", "effective_lead"),
}
INTEGERS = ("df_num", "df_den", "optimal_lead")
# summarised columns stay finite (their quantiles of infinities would be NaN,
# which no JSON writer takes); the others take the F = +inf sentinel and -inf
SUMMARISED = ("p_value", "optimal_lead", "ccf_at_horizon", "dtw_median_lead",
              "dtw_normalized_distance")


def stat_values(name: str):
    if name in INTEGERS:
        value = st.integers(-60, 400).map(float)
    elif name in SUMMARISED:
        value = st.floats(-1e6, 1e6)
    else:
        value = st.floats(allow_nan=False)
    return st.none().map(lambda _: np.nan) | value


@st.composite
def result_tables(draw) -> list[ResultTable]:
    trusts = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    indicators = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    waves = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))  # config order
    methods = draw(st.lists(st.sampled_from(sorted(STATS)), min_size=1, unique=True))
    tables = []
    for indicator in indicators:
        for wave in waves:
            failed = draw(st.booleans())  # every cell of the pair failed
            for method in methods:
                ids = draw(st.permutations(trusts))[:draw(st.integers(0, len(trusts)))]
                n = len(ids)
                columns = {}
                for name in STATS[method] + ("eroded", "degenerate", "truncated"):
                    if draw(st.booleans()):
                        continue  # a column left out
                    if name in STATS[method]:
                        if not failed:
                            columns[name] = np.array(draw(st.lists(
                                stat_values(name), min_size=n, max_size=n)), dtype=float)
                    else:
                        columns[name] = np.array(draw(st.lists(
                            st.booleans(), min_size=n, max_size=n)), dtype=bool)
                error = draw(st.lists(TEXT | NAMES, min_size=n, max_size=n))
                horizon = draw(st.none() | st.integers(0, 30))
                tables.append(ResultTable(tuple(ids), indicator, wave, method, horizon,
                                          draw(NAMES), columns, error))
    return draw(st.permutations(tables))


def one_table(trusts, indicator, wave, method, **columns):
    n = len(trusts)
    return ResultTable(tuple(trusts), indicator, wave, method, 14, "p", columns, [""] * n)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(result_tables())
@example([  # waves listed out of name order, +inf F, a pair without statistics
    one_table(["T2", "T1"], "ind", "w2", "granger", f_stat=np.array([np.inf, 1.5]),
              p_value=np.array([0.0, 0.25]), df_num=np.array([3.0, 3.0])),
    one_table(["T1", "T2"], "ind", "w10", "granger", p_value=np.array([0.5, np.nan])),
    one_table(["T1"], "ind", "w1", "ccf", optimal_lead=np.array([np.nan]),
              degenerate=np.array([True])),
])
@example([  # text that JSON escapes: quotes, backslashes, control and non-BMP characters
    ResultTable(('T"1', "T\\2", "T\t3\x00", "\U0001F600"), 'in"d\\', "w\x1f", "dtw", None,
                "p\u2028", {"dtw_median_lead": np.array([1.0, np.nan, -0.0, 5e-324])},
                ['say "no"', "C:\\path\\", "bell\x07\r\n", "\U0001F4A9 \ud7ff\ue000"]),
])
def test_column_writers_match_row_writers(tables):
    rows = [ReportRow(**vars(record)) for record in records(tables)]
    for fmt in ("csv", "json"):
        with tempfile.TemporaryDirectory() as tmp:
            want, got = Path(tmp) / "want", Path(tmp) / "got"
            reference = reference_emit_reports(rows, want, fmt)
            written = emit_reports(tables, got, fmt)
            assert [p.name for p in written] == [p.name for p in reference]
            for path in reference:
                assert (got / path.name).read_bytes() == path.read_bytes(), path.name
