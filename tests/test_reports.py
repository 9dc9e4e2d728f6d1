import csv
import json

import pytest

from leadlag.errors import LeadLagError
from leadlag.pipeline import ReportRow
from leadlag.reports import emit_reports, summarize


def row(**kw):
    base = dict(trust_id="T1", indicator="ind", wave="w1", method="ccf",
                horizon=14, optimal_lead=10, ccf_at_optimal=0.9,
                ccf_at_horizon=0.7, effective_lead=8.0)
    base.update(kw)
    return ReportRow(**base)


def test_empty_rows_write_headers_and_empty_summary(tmp_path):
    written = emit_reports([], tmp_path)
    names = {p.name for p in written}
    assert names == {"granger.csv", "ccf.csv", "dtw.csv", "summary.json"}
    ccf = (tmp_path / "ccf.csv").read_text()
    assert ccf.splitlines() == [
        "trust_id,indicator,wave,method,horizon,optimal_lead,ccf_at_optimal,"
        "ccf_at_horizon,effective_lead,eroded,degenerate,truncated,provenance,error"
    ]
    assert json.loads((tmp_path / "summary.json").read_text()) == {}


def test_single_row_single_line(tmp_path):
    emit_reports([row()], tmp_path)
    lines = (tmp_path / "ccf.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("T1,ind,w1,ccf,14,10,0.9,0.7,8.0,false,false,false")


def test_rerun_byte_identical(tmp_path):
    rows = [row(trust_id=t, optimal_lead=l) for t, l in
            [("T2", 5), ("T1", 7), ("T3", 9)]]
    emit_reports(rows, tmp_path / "a")
    emit_reports(list(reversed(rows)), tmp_path / "b")
    for name in ("granger.csv", "ccf.csv", "dtw.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_rows_sorted_deterministically(tmp_path):
    rows = [row(trust_id="T2"), row(trust_id="T1"), row(trust_id="T1", wave="w0")]
    emit_reports(rows, tmp_path)
    lines = (tmp_path / "ccf.csv").read_text().splitlines()[1:]
    keys = [tuple(line.split(",")[:4]) for line in lines]
    assert keys == sorted(keys)


def test_granger_file_contains_both_horizons(tmp_path):
    rows = [
        ReportRow("T1", "ind", "w1", "granger", horizon=0, f_stat=3.0, p_value=0.04),
        ReportRow("T1", "ind", "w1", "granger14", horizon=14, f_stat=1.0, p_value=0.4),
    ]
    emit_reports(rows, tmp_path)
    lines = (tmp_path / "granger.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "granger14" in lines[2]


def test_summary_quantiles():
    rows = [row(trust_id=f"T{i}", optimal_lead=i) for i in range(1, 6)]
    summary = summarize(rows)
    stats = summary["ind"]["w1"]["optimal_lead"]
    assert stats["n"] == 5
    assert stats["median"] == 3.0
    assert stats["q25"] == 2.0 and stats["q75"] == 4.0


def test_summary_skips_missing_values():
    rows = [row(optimal_lead=None, ccf_at_optimal=None)]
    summary = summarize(rows)
    assert "optimal_lead" not in summary.get("ind", {}).get("w1", {})


def test_json_format(tmp_path):
    emit_reports([row()], tmp_path, fmt="json")
    payload = json.loads((tmp_path / "ccf.json").read_text())
    assert payload[0]["optimal_lead"] == 10
    assert payload[0]["trust_id"] == "T1"


def test_unknown_format_errors(tmp_path):
    with pytest.raises(LeadLagError, match="format"):
        emit_reports([], tmp_path, fmt="tsv")


def test_csv_quotes_commas(tmp_path):
    emit_reports([row(provenance="a,b")], tmp_path)
    line = (tmp_path / "ccf.csv").read_text().splitlines()[1]
    assert '"a,b"' in line


def test_csv_round_trips_quotes_and_line_breaks(tmp_path):
    names = ['a,b', 'say "hi"', "two\nlines", "carriage\rreturn", "crlf\r\nend"]
    emit_reports([row(indicator=name) for name in names], tmp_path)
    with (tmp_path / "ccf.csv").open(newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    assert sorted(r["indicator"] for r in records) == sorted(names)
    assert all(r["optimal_lead"] == "10" for r in records)


def test_json_survives_infinite_f_sentinel(tmp_path):
    rows = [ReportRow("T1", "ind", "w1", "granger", horizon=0,
                      f_stat=float("inf"), p_value=0.0)]
    emit_reports(rows, tmp_path, fmt="json")
    payload = json.loads((tmp_path / "granger.json").read_text())
    assert payload[0]["f_stat"] == "inf"
    assert payload[0]["p_value"] == 0.0
