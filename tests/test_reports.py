import csv
import json
from datetime import date, timedelta

import numpy as np
import pytest

from leadlag.errors import LeadLagError
from leadlag.pipeline import ResultTable
from leadlag.reports import _quartiles, emit_reports, summarize, write_dtw_paths

from conftest import CELL_DEFAULTS
from oracles import write_dtw_paths_per_alignment


def table(trust_id, indicator, wave, method, horizon=None, provenance="", error="",
          **cell):
    """A one-row table; statistics left out or None are absent."""
    columns = {name: np.array([np.nan if value is None else value],
                              dtype=bool if CELL_DEFAULTS[name] is False else float)
               for name, value in cell.items()}
    return ResultTable((trust_id,), indicator, wave, method, horizon, provenance,
                       columns, [error])


def row(**kw):
    base = dict(trust_id="T1", indicator="ind", wave="w1", method="ccf",
                horizon=14, optimal_lead=10, ccf_at_optimal=0.9,
                ccf_at_horizon=0.7, effective_lead=8.0)
    base.update(kw)
    return table(**base)


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
        table("T1", "ind", "w1", "granger", horizon=0, f_stat=3.0, p_value=0.04),
        table("T1", "ind", "w1", "granger14", horizon=14, f_stat=1.0, p_value=0.4),
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


def test_summary_lists_pairs_without_statistics():
    failed = dict(optimal_lead=None, ccf_at_optimal=None, ccf_at_horizon=None,
                  error="preprocessing failed")
    rows = [row(), row(wave="w2", **failed), row(indicator="bad", **failed)]
    summary = summarize(rows)
    assert summary["ind"]["w2"] == {} and summary["bad"] == {"w1": {}}
    assert summary["ind"]["w1"]["optimal_lead"]["n"] == 1


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
    rows = [table("T1", "ind", "w1", "granger", horizon=0,
                  f_stat=float("inf"), p_value=0.0)]
    emit_reports(rows, tmp_path, fmt="json")
    payload = json.loads((tmp_path / "granger.json").read_text())
    assert payload[0]["f_stat"] == "inf"
    assert payload[0]["p_value"] == 0.0


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 100, 101])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_quartiles_match_numpy_to_the_bit(size, ties):
    rng = np.random.default_rng(size)
    for _ in range(20):
        values = (rng.integers(-3, 4, size) / 2.0 if ties
                  else rng.standard_normal(size) * 10.0 ** rng.integers(-5, 5))
        expected = np.quantile(values, [0.25, 0.5, 0.75])
        assert np.array(_quartiles(values)).tobytes() == expected.tobytes(), values


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 12, 101])
def test_quartiles_keep_the_sign_numpy_gives_a_zero(size):
    # -0.0 and 0.0 tie, so the sign of a zero quartile is where numpy's
    # partition for that quantile leaves them, as summary.json's reference has it
    rng = np.random.default_rng(size)
    for values in [np.full(size, -0.0)] + [rng.choice([-0.0, 0.0, 1.0, -1.0], size)
                                            for _ in range(50)]:
        expected = np.array([np.quantile(values, q) for q in (0.25, 0.5, 0.75)])
        assert np.array(_quartiles(values)).tobytes() == expected.tobytes(), values


def _matches(rng, rows: int, n: int, m: int) -> np.ndarray:
    """Random (rows, n, 2) matches: ascending lowest reference indices, each
    query index matching one reference index or two adjacent ones."""
    lo = np.sort(rng.integers(0, m - 1, (rows, n)), axis=1)
    return np.stack([lo, lo + rng.integers(0, 2, (rows, n))], axis=-1).astype(np.int32)


def _days(m: int, offset: int) -> list[str]:
    return [(date(2021, 9, 1) + timedelta(days=offset + t)).isoformat() for t in range(m)]


@pytest.mark.parametrize("seed", range(6))
def test_dtw_paths_batches_match_the_per_alignment_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    records = []
    for ind in ("ind,00", 'say "x"', "plain"):
        for wave in ("wave2", "wave1", "w,3"):
            rows, n = int(rng.integers(3, 6)), int(rng.integers(4, 12))
            m = n + int(rng.integers(0, 8))
            scopes = [f"T,{k:03d}" if k % 2 else f'T"{k:03d}' if k % 3 else f"T{k:03d}"
                      for k in range(rows)]
            records.append((ind, wave, scopes, _days(m, int(rng.integers(0, 60))),
                            _matches(rng, rows, n, m)))
    # a joint alignment of every Trust, and a batch of no kept rows
    records.append(("joint", "wave1", ["all-trusts"], _days(9, 0), _matches(rng, 1, 7, 9)))
    records.append(("none", "wave1", [], _days(9, 0), np.empty((0, 7, 2), np.int32)))
    rng.shuffle(records)
    stacked = np.concatenate([match.reshape(-1, 2) for *_, match in records])
    assert (stacked[:, 0] == stacked[:, 1]).any() and (stacked[:, 0] < stacked[:, 1]).any()

    write_dtw_paths(tmp_path / "batches.csv", records)
    write_dtw_paths_per_alignment(tmp_path / "alignments.csv", [
        (ind, wave, scope, days, match[b])
        for ind, wave, scopes, days, match in records for b, scope in enumerate(scopes)])
    written = (tmp_path / "batches.csv").read_bytes()
    assert written == (tmp_path / "alignments.csv").read_bytes()
    with (tmp_path / "batches.csv").open(newline="", encoding="utf-8") as fh:
        read = {row["scope"] for row in csv.DictReader(fh)}
    assert {"T,001", 'T"002', "T000", "all-trusts"} <= read
