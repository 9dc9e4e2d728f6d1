import csv
import dataclasses
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from datetime import date, datetime
from pathlib import Path

import numpy as np
import pytest
import yaml

import leadlag
from leadlag import cli
from leadlag.cli import main
from leadlag.config import LatencySpec, RunConfig, load_config
from leadlag.corpus import write_corpus
from leadlag.errors import ConfigError, LeadLagError
from leadlag.ingest import read_admissions


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    write_corpus(out, n_trusts=5, n_days=180, n_indicators=3, n_waves=1, seed=11)
    return out


def run_args(corpus, out, extra=()):
    return ["run",
            "--config", str(corpus / "config.yaml"),
            "--admissions", str(corpus / "admissions.csv"),
            "--indicators", str(corpus / "indicators"),
            "--mapping", str(corpus / "mapping.csv"),
            "--population", str(corpus / "population.csv"),
            "--out", str(out), *extra]


def test_run_end_to_end(corpus, tmp_path):
    out = tmp_path / "out"
    assert main(run_args(corpus, out)) == 0
    for name in ("granger.csv", "ccf.csv", "dtw.csv", "summary.json",
                 "trust_population.csv"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert "ind00" in summary
    lead_stats = summary["ind00"]["wave1"]["optimal_lead"]
    assert abs(lead_stats["median"] - 5) <= 1  # ind00 carries the 5-day lead


def test_run_method_subset(corpus, tmp_path):
    out = tmp_path / "out"
    assert main(run_args(corpus, out, ("--methods", "ccf"))) == 0
    assert (out / "granger.csv").read_text().count("\n") == 1  # header only
    assert (out / "ccf.csv").read_text().count("\n") > 1


def test_run_json_format(corpus, tmp_path):
    out = tmp_path / "out"
    assert main(run_args(corpus, out, ("--format", "json"))) == 0
    payload = json.loads((out / "ccf.json").read_text())
    assert payload and payload[0]["method"] == "ccf"


def _as_csv_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def test_json_records_equal_csv_rows(corpus, tmp_path):
    # no latency for ind02 (empty effective leads), one that erodes every ind01 lead
    config = yaml.safe_load((corpus / "config.yaml").read_text())
    del config["latency"]["ind02"]
    config["latency"]["ind01"]["reporting_lag_days"] = 40
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    outs = {fmt: tmp_path / fmt for fmt in ("csv", "json")}
    for fmt, out in outs.items():
        args = run_args(corpus, out, ("--format", fmt))
        args[args.index("--config") + 1] = str(path)
        assert main(args) == 0
    seen = set()
    for name in ("granger", "ccf", "dtw"):
        with (outs["csv"] / f"{name}.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        records = json.loads((outs["json"] / f"{name}.json").read_text(encoding="utf-8"))
        assert rows and len(records) == len(rows), name
        for record, row in zip(records, rows):
            assert list(record) == sorted(row)
            assert {key: _as_csv_text(value) for key, value in record.items()} == row
            seen.update(map(type, record.values()))
            seen.add(record.get("eroded"))
    assert {type(None), bool, int, float, str, True} <= seen


def test_missing_input_exits_input_schema(corpus, tmp_path, capsys):
    args = run_args(corpus, tmp_path / "out")
    args[args.index("--admissions") + 1] = str(corpus / "nope.csv")
    assert main(args) == 2
    assert "error [input-schema]" in capsys.readouterr().err


def test_unexpected_exception_propagates(corpus, tmp_path, monkeypatch, capsys):
    # only the categorized errors become exit codes; a bug keeps its traceback
    def broken_reader(*args, **kwargs):
        raise RuntimeError("reader bug")

    monkeypatch.setattr("leadlag.cli.read_admissions", broken_reader)
    with pytest.raises(RuntimeError, match="reader bug"):
        main(run_args(corpus, tmp_path / "out"))
    assert "error [" not in capsys.readouterr().err


HEADER = b"trust_id,date,admissions\n"


@pytest.mark.parametrize("content, where", [
    (HEADER + b"T0,2021-10-01,5\nT0,2021-10-02,\xff\n", r"not valid UTF-8.*admissions\.csv:3\]"),
    (HEADER + b"T0,2021-10-01,5\nT0,2021-10-02," + b"9" * 200_000 + b"\n",
     r"field larger than field limit.*admissions\.csv:3\]"),
    (b"trust_id,date," + b"a" * 200_000 + b"\nT0,2021-10-01,5\n",
     r"field larger than field limit.*admissions\.csv:1\]"),
    (HEADER + b"T0,2021-10-01,5\nT\x000,2021-10-01,5\n",
     r"holds a NUL.*admissions\.csv:3\]"),
], ids=["undecodable", "oversized-field", "oversized-header", "nul-in-id"])
def test_unreadable_admissions_exit_input_schema(corpus, tmp_path, capsys, content, where):
    bad = tmp_path / "admissions.csv"
    bad.write_bytes(content)
    args = run_args(corpus, tmp_path / "out")
    args[args.index("--admissions") + 1] = str(bad)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "error [input-schema]" in err
    assert re.search(where, err)


def test_undecodable_indicator_line_exits_input_schema(corpus, tmp_path, capsys):
    # past the first chunk the decoder reads, so the error comes mid-file
    indicators = tmp_path / "indicators"
    indicators.mkdir()
    lines = (corpus / "indicators" / "ind00.csv").read_bytes().splitlines(keepends=True)
    lines[599] = lines[599].replace(b",", b",\xe2\x82", 1)  # a truncated euro sign
    (indicators / "ind00.csv").write_bytes(b"".join(lines))
    args = run_args(corpus, tmp_path / "out")
    args[args.index("--indicators") + 1] = str(indicators)
    assert main(args) == 2
    assert re.search(r"error \[input-schema\]: not valid UTF-8.*ind00\.csv:600\]",
                     capsys.readouterr().err)


def test_mapping_of_zero_counts_exits_mapping(corpus, tmp_path, capsys):
    bad = tmp_path / "mapping.csv"
    bad.write_text("ltla_id,trust_id,admissions\nL000,T000,0\nL001,T001,0\n")
    args = run_args(corpus, tmp_path / "out")
    args[args.index("--mapping") + 1] = str(bad)
    assert main(args) == 4
    assert "error [mapping]: all mapping records have zero counts" in capsys.readouterr().err


def test_error_class_carries_its_exit_category(monkeypatch, capsys):
    class CodedError(LeadLagError):
        category, exit_code = "coded", 9

    def fail(args):
        raise CodedError("boom")

    monkeypatch.setattr(cli, "_synth", fail)
    assert main(["synth", "--out", "unused"]) == 9
    assert capsys.readouterr().err == "error [coded]: boom\n"


def test_grouping_with_no_member_present_warns(corpus, tmp_path, caplog):
    groups = tmp_path / "groups.csv"
    groups.write_text("group,member_variable\ncombo,nope\n")
    args = run_args(corpus, tmp_path / "out", ("--methods", "ccf", "--groupings", str(groups)))
    with caplog.at_level(logging.WARNING, logger="leadlag.ingest"):
        assert main(args) == 0
    assert "grouping combo: no member variables present" in caplog.messages
    with (tmp_path / "out" / "ccf.csv").open(newline="", encoding="utf-8") as fh:
        assert {row["indicator"] for row in csv.DictReader(fh)} == {"ind00", "ind01", "ind02"}


def test_grouping_with_an_absent_member_warns(corpus, tmp_path, caplog):
    groups = tmp_path / "groups.csv"
    groups.write_text("group,member_variable\ncombo,ind00\ncombo,ind0x\ncombo,ind9\n")
    args = run_args(corpus, tmp_path / "out", ("--methods", "ccf", "--groupings", str(groups)))
    with caplog.at_level(logging.WARNING, logger="leadlag.ingest"):
        assert main(args) == 0
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "leadlag.ingest" and r.levelno == logging.WARNING]
    assert warnings == ["grouping combo names no variable read: ind0x, ind9"]
    with (tmp_path / "out" / "ccf.csv").open(newline="", encoding="utf-8") as fh:
        assert {row["indicator"] for row in csv.DictReader(fh)} == {"combo", "ind01", "ind02"}


def test_grouping_members_without_common_dates_exit_input_schema(corpus, tmp_path, capsys):
    indicators = tmp_path / "indicators"
    indicators.mkdir()
    (indicators / "ind00.csv").write_bytes((corpus / "indicators" / "ind00.csv").read_bytes())
    # the same LTLAs, a year after ind00 ends
    (indicators / "late.csv").write_text("geo_id,date,variable,value\n" + "".join(
        f"L{i:03d},2023-01-0{day},late,1\n" for i in range(5) for day in (1, 2)))
    groups = tmp_path / "groups.csv"
    groups.write_text("group,member_variable\ncombo,ind00\ncombo,late\n")
    args = run_args(corpus, tmp_path / "out", ("--groupings", str(groups)))
    args[args.index("--indicators") + 1] = str(indicators)
    assert main(args) == 2
    assert ("error [input-schema]: grouping 'combo': member date ranges do not overlap"
            in capsys.readouterr().err)


def test_filter_window_outside_admissions_exits_analysis(corpus, tmp_path, capsys):
    config = yaml.safe_load((corpus / "config.yaml").read_text())
    config.update(admissions_filter_start=date(2030, 1, 1),
                  admissions_filter_end=date(2030, 12, 31))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    args = run_args(corpus, tmp_path / "out")
    args[args.index("--config") + 1] = str(path)
    assert main(args) == 5
    assert "error [analysis]: no trusts retained after filtering" in capsys.readouterr().err


def test_config_names_no_indicator_read_warns(corpus, tmp_path, caplog):
    config = yaml.safe_load((corpus / "config.yaml").read_text())
    config["latency"]["ind0"] = config["latency"].pop("ind00")  # misspelt
    config["indicator_mappings"] = {"ind9": str(corpus / "mapping.csv")}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    args = run_args(corpus, tmp_path / "out", ("--methods", "ccf"))
    args[args.index("--config") + 1] = str(path)
    with caplog.at_level(logging.WARNING, logger="leadlag.pipeline"):
        assert main(args) == 0
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "leadlag.pipeline" and r.levelno == logging.WARNING]
    assert warnings == ["config latency names no indicator read: ind0",
                        "config indicator_mappings names no indicator read: ind9"]
    with (tmp_path / "out" / "ccf.csv").open(newline="", encoding="utf-8") as fh:
        leads = {row["indicator"]: row["effective_lead"] for row in csv.DictReader(fh)}
    assert leads["ind00"] == "" and leads["ind01"] != ""


@pytest.mark.parametrize("entry, key", [
    ("waves: []", "wave"),
    ("horizon_days: abc", "horizon_days"),
    ("loess_span: [1]", "loess_span"),
    ("latency: {ind00: 3}", "config latency ind00: invalid value 3"),
    ("indicator_mappings: [a]", "indicator_mappings"),
    ("trust_exclusions: T001", "trust_exclusions"),
    ("horizon_days: 3.7", "horizon_days"),
    ("horizon_days: true", "horizon_days"),
    ("ccf_window: .inf", "ccf_window"),
    ("loess_span: yes", "loess_span"),
    ("latency: {ind00: {reporting_lag_days: 1.5}}",
     "config latency ind00: invalid value {'reporting_lag_days': 1.5}"),
    ("latency: {ind00: null}", "config latency ind00: invalid value None"),
    ("latency: {ind00: {reporting_lag_days: true}}",
     "config latency ind00: invalid value {'reporting_lag_days': True}"),
    ("latency: {ind00: {release_cadence: [7]}}",
     "config latency ind00: invalid value {'release_cadence': [7]}"),
    ("loess_degree: 3", "loess_degree must be 1 or 2, got 3"),
    ("loess_span: 1.5", "loess_span must be in (0, 1], got 1.5"),
    ("loess_robustness_passes: -2", "loess_robustness_passes must be >= 0, got -2"),
    ("horizon_day: 7", "unknown key 'horizon_day'"),
    ("dtw_mod: univariate", "unknown key 'dtw_mod'"),
    ("latency: {ind00: {reporting_lag: 3}}", "unknown key 'reporting_lag'"),
    ("dtw_mode: joint", "dtw_mode must be multivariate or univariate, got 'joint'"),
    ("dtw_warmup_days: -1", "dtw_warmup_days must be >= 0, got -1"),
    ("min_annual_admissions: 0", "min_annual_admissions must be >= 1, got 0"),
    ("latency: {ind00: {reporting_lag_days: -1}}",
     "config latency ind00: reporting_lag_days must be >= 0, got -1"),
    ("latency: {ind00: {release_cadence: 0}}",
     "config latency ind00: release_cadence must be >= 1, got 0"),
    ("latency: {ind00: {release_cadence: monthly}}", "release cadence 'monthly'"),
    ("admissions_filter_start: first of May", "admissions_filter_start"),
    # date.fromisoformat reads both, but only YYYY-MM-DD is a date here
    ("admissions_filter_start: 20211001",
     "admissions_filter_start: invalid date 20211001"),
    ("waves: [{name: w, start: 2021-W47-4, end: 2022-02-03}]",
     "wave start: invalid date '2021-W47-4'"),
    ("waves: [{name: w, start: 2021-11-01}]", "each wave needs name, start and end"),
    ("waves: [w1]", "each wave needs name, start and end"),
    ("waves: [{name: wave1, start: 2021-11-22, end: 2022-01-23, peak: 2021-12-20}]",
     "config waves: unknown key 'peak'"),
    ("admissions_filter_start: 2021-10-01 10:00:00",
     "admissions_filter_start: invalid date datetime.datetime(2021, 10, 1, 10, 0)"),
    ("waves: [{name: w, start: 2021-11-20 08:00:00, end: 2022-02-03}]",
     "wave start: invalid date datetime.datetime(2021, 11, 20, 8, 0)"),
    ("waves: [{name: w, start: 2021-11-01, end: 2021-11-30},"
     " {name: w, start: 2021-12-01, end: 2021-12-31}]", "wave names must differ: 'w', 'w'"),
    ("{admissions_filter_start: 2022-06-01, admissions_filter_end: 2022-05-31}",
     "admissions_filter_start 2022-06-01 after admissions_filter_end 2022-05-31"),
    # a null, a boolean, a list or a mapping is no text
    ("indicator_mappings: {ind00: null}", "config indicator_mappings ind00: invalid value None"),
    ("indicator_mappings: {ind00: [a.csv]}",
     "config indicator_mappings ind00: invalid value ['a.csv']"),
    ("trust_exclusions: [null]", "config trust_exclusions: invalid value None"),
    ("trust_exclusions: [yes]", "config trust_exclusions: invalid value True"),
    # no id read holds a NUL, so an exclusion holding one names no Trust
    ('trust_exclusions: ["T001\\0"]', "config trust_exclusions: invalid value 'T001\\x00'"),
    ("waves: [{name: null, start: 2021-11-01, end: 2021-11-30}]",
     "wave name: invalid value None"),
    ("dtw_mode: null", "config dtw_mode: invalid value None"),
    # a refused name beside a valid entry quotes only itself
    ("latency: {null: {reporting_lag_days: 1}, ind00: {reporting_lag_days: 2}}",
     "config latency name: invalid value None"),
    ("indicator_mappings: {null: m.csv, ind00: a.csv}",
     "config indicator_mappings name: invalid value None"),
    ("trust_exclusions: [T001, null]", "config trust_exclusions: invalid value None"),
    # only null reads as an empty table; a false, a list or a number is refused
    ("latency: false", "config latency: invalid value False"),
    ("latency: []", "config latency: invalid value []"),
    ("latency: 0", "config latency: invalid value 0"),
], ids=["empty-waves", "horizon-text", "span-list", "latency-number", "mappings-list",
        "exclusions-string", "horizon-fraction", "horizon-bool", "window-inf", "span-bool",
        "latency-fraction", "latency-null", "latency-bool", "cadence-list", "degree-3", "span-above-1", "passes-negative",
        "unknown-key", "unknown-key-dtw", "unknown-latency-key", "dtw-mode", "warmup-negative",
        "threshold-zero", "latency-negative", "cadence-zero", "cadence-unknown",
        "filter-start-date", "filter-start-compact-date", "wave-start-week-date", "wave-without-end",
        "wave-not-mapping", "unknown-wave-key",
        "filter-start-timestamp", "wave-start-timestamp", "wave-names-repeat",
        "filter-window-inverted", "mapping-null", "mapping-list", "exclusion-null",
        "exclusion-bool", "exclusion-nul", "wave-name-null", "dtw-mode-null", "latency-name-null",
        "mapping-name-null", "exclusion-null-beside-valid", "latency-false", "latency-list",
        "latency-zero"])
def test_bad_config_exits_config(corpus, tmp_path, capsys, entry, key):
    # one bad entry in an otherwise valid config
    config = yaml.safe_load((corpus / "config.yaml").read_text())
    config.update(yaml.safe_load(entry))
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config))
    args = run_args(corpus, tmp_path / "out")
    args[args.index("--config") + 1] = str(bad)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "error [config]" in err
    assert key in err
    if "null:" in entry:  # a null name: the valid ind00 entry beside it is not quoted
        assert "ind00" not in err
    if "T001, null" in entry:  # nor is the valid exclusion beside a null one
        assert "T001" not in err


# a value out of range for each field that has a range rule
OUT_OF_RANGE = {"horizon_days": 0, "granger_max_lag": 0, "ccf_window": 0, "dtw_window": 0,
                "min_annual_admissions": 0, "dtw_warmup_days": -1, "loess_robustness_passes": -1,
                "dtw_mode": "joint", "loess_span": 0.0, "loess_degree": 0}


def test_every_run_config_field_has_one_row():
    fields = dataclasses.fields(RunConfig)
    assert set(OUT_OF_RANGE) == {f.name for f in fields if f.metadata["rule"]}
    assert set(WRONG_TYPE) == {f.name for f in fields}


@pytest.mark.parametrize("name, value", OUT_OF_RANGE.items(), ids=list(OUT_OF_RANGE))
def test_run_config_applies_the_range_rules_of_load_config(corpus, tmp_path, name, value):
    config = yaml.safe_load((corpus / "config.yaml").read_text())
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**config, name: value}))
    with pytest.raises(ConfigError) as loaded:
        load_config(path)
    with pytest.raises(ConfigError) as built:  # a library caller's RunConfig
        RunConfig(waves=load_config(corpus / "config.yaml").waves, **{name: value})
    assert str(built.value) == str(loaded.value)
    assert str(built.value).startswith(f"{name} must be ")


# a value of the wrong type for each field, which YAML can write as well as a
# Python caller
WRONG_TYPE = {"waves": [{"name": "w", "start": date(2021, 11, 1)}], "horizon_days": True,
              "granger_max_lag": 14.5, "ccf_window": None, "dtw_window": [35],
              "dtw_warmup_days": 1.5, "dtw_mode": True, "loess_span": True,
              "loess_degree": True, "loess_robustness_passes": "one",
              "trust_exclusions": "T001", "min_annual_admissions": 14.5,
              "admissions_filter_start": datetime(2022, 1, 1, 10, 0),
              "admissions_filter_end": datetime(2022, 12, 31),
              "latency": {"ind00": {"reporting_lag_days": True}},
              "indicator_mappings": {"ind00": None}}


@pytest.mark.parametrize("name, value", WRONG_TYPE.items(), ids=list(WRONG_TYPE))
def test_run_config_parses_each_value_as_load_config_does(corpus, tmp_path, name, value):
    config = yaml.safe_load((corpus / "config.yaml").read_text())
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**config, name: value}))
    with pytest.raises(ConfigError) as loaded:
        load_config(path)
    with pytest.raises(ConfigError) as built:  # a library caller's RunConfig
        RunConfig(**{"waves": load_config(corpus / "config.yaml").waves, name: value})
    assert str(built.value) == str(loaded.value)


@pytest.mark.parametrize("name", ["horizon_days", "loess_span"])
def test_numpy_bool_is_a_value_of_the_wrong_type(corpus, name):
    # int() and float() read np.True_ as 1, and it is no instance of bool
    with pytest.raises(ConfigError, match=f"^config {name}: invalid value "):
        RunConfig(waves=load_config(corpus / "config.yaml").waves, **{name: np.True_})


def test_python_values_are_read_as_their_yaml_forms(corpus):
    # a parser takes its own output back, and a list or a Path as YAML's forms
    config = load_config(corpus / "config.yaml")
    assert dataclasses.replace(config) == config
    listed = dataclasses.replace(config, waves=list(config.waves), trust_exclusions=["T001"],
                                 indicator_mappings={"ind00": Path("m.csv")})
    assert listed == dataclasses.replace(config, trust_exclusions=("T001",),
                                         indicator_mappings={"ind00": "m.csv"})


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config"),
    (b"waves: [\n", "is not valid YAML"),
    (b"- waves\n", "must be a mapping"),
    (b"admissions_filter_start: 2022-13-01\n", "month must be in 1..12"),
    (b"horizon_days: \xff\n", "can't decode byte 0xff"),
    (b"horizon_days: 7\nccf_window: 20\nhorizon_days: 14\n",
     "repeated key 'horizon_days' on line 3"),
    (b"latency:\n  ind00:\n    reporting_lag_days: 1\n    reporting_lag_days: 2\n",
     "repeated key 'reporting_lag_days' on line 4"),
    (b"waves:\n- name: w\n  start: 2021-11-01\n  end: 2022-01-31\n  start: 2021-12-01\n",
     "repeated key 'start' on line 5"),
], ids=["missing", "not-yaml", "not-mapping", "yaml-date-out-of-range", "undecodable",
        "repeated-key", "repeated-latency-key", "repeated-wave-key"])
def test_unloadable_config_exits_config(corpus, tmp_path, capsys, content, message):
    bad = tmp_path / "bad.yaml"
    if content is not None:
        bad.write_bytes(content)
    args = run_args(corpus, tmp_path / "out")
    args[args.index("--config") + 1] = str(bad)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "error [config]" in err and message in err


@pytest.mark.parametrize("methods", [",", "wavelets"])
def test_bad_methods_exit_config_before_any_read(corpus, tmp_path, capsys, methods):
    args = run_args(corpus, tmp_path / "out", ("--methods", methods))
    args[args.index("--admissions") + 1] = str(tmp_path / "nope.csv")
    assert main(args) == 3
    assert "error [config]" in capsys.readouterr().err


def test_unknown_method_exits_config(corpus, tmp_path, capsys):
    assert main(run_args(corpus, tmp_path / "out", ("--methods", "wavelets"))) == 3
    assert "error [config]" in capsys.readouterr().err


@pytest.mark.parametrize("methods", ["", ","])
def test_empty_method_list_exits_config(corpus, tmp_path, capsys, methods):
    out = tmp_path / "out"
    assert main(run_args(corpus, out, ("--methods", methods))) == 3
    err = capsys.readouterr().err
    assert "error [config]" in err and "--methods" in err
    assert not (out / "granger.csv").exists()


def test_unwritable_out_exits_io(corpus, tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    assert main(run_args(corpus, tmp_path / "afile" / "sub")) == 6
    assert "error [io]" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [
    ("--trusts", "8", "--days", "200", "--indicators", "2", "--waves", "2"),
    ("--trusts", "0", "--days", "150", "--indicators", "2", "--waves", "1"),
    ("--trusts", "4", "--days", "150", "--indicators", "0", "--waves", "1"),
    ("--trusts", "4", "--days", "150", "--indicators", "2", "--waves", "0"),
    ("--trusts", "4", "--days", "150", "--indicators", "2", "--waves", "1", "--seed", "-5000"),
    ("--trusts", "4", "--days", "150", "--indicators", "2", "--waves", "1", "--seed", "-1"),
], ids=["short-days", "no-trusts", "no-indicators", "no-waves", "seed-minus-5000", "seed-minus-1"])
def test_synth_bad_sizes_exit_config_and_write_nothing(tmp_path, capsys, sizes):
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), *sizes]) == 3
    assert "error [config]" in capsys.readouterr().err
    assert not corpus.exists()


def test_synth_writes_more_than_1000_trusts_in_sorted_order(tmp_path):
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--trusts", "1001", "--days", "140",
                 "--indicators", "1", "--waves", "1"]) == 0
    ids = read_admissions(corpus / "admissions.csv").geo_ids
    assert len(ids) == 1001 and list(ids) == sorted(ids)
    assert ids[:2] == ("T0000", "T0001") and ids[-1] == "T1000"
    ltlas = [line.split(",")[0] for line in
             (corpus / "population.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert ltlas == ["L" + trust[1:] for trust in ids]


def test_synth_refuses_indicator_files_it_would_not_write(tmp_path, capsys):
    # a run reads every CSV in indicators/, so two left by a 3-indicator corpus
    # would join a 1-indicator corpus of another seed, with no latency in its config
    corpus, fresh = tmp_path / "c", tmp_path / "fresh"
    sizes = ["--trusts", "4", "--days", "150", "--waves", "1"]
    assert main(["synth", "--out", str(corpus), *sizes, "--indicators", "3"]) == 0
    before = {p: p.read_bytes() for p in corpus.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["synth", "--out", str(corpus), *sizes, "--indicators", "1", "--seed", "4"]) == 3
    assert capsys.readouterr().err.rstrip().endswith(
        "holds indicator files this corpus would not write: ind01.csv, ind02.csv")
    assert {p: p.read_bytes() for p in corpus.rglob("*") if p.is_file()} == before
    # the same set of files is written over
    for out in (corpus, fresh):
        assert main(["synth", "--out", str(out), *sizes, "--indicators", "3", "--seed", "4"]) == 0
    assert sorted(p.relative_to(corpus) for p in before) == sorted(
        p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    assert all(p.read_bytes() == (fresh / p.relative_to(corpus)).read_bytes() for p in before)


def test_run_memory(tmp_path):
    # the JSON rows are streamed, a panel that keeps every Trust is not copied,
    # and each indicator's pair is freed before the next is built
    corpus = tmp_path / "c"
    write_corpus(corpus, n_trusts=242, n_days=240, n_indicators=2, n_waves=2)
    args = run_args(corpus, tmp_path / "out", ["--format", "json", "--methods", "dtw"])
    tracemalloc.start()
    try:
        assert main(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


def test_synth_subcommand_roundtrip(tmp_path):
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--trusts", "4", "--days", "150",
                 "--indicators", "2", "--waves", "1", "--seed", "3"]) == 0
    out = tmp_path / "o"
    assert main(run_args(corpus, out)) == 0
    assert (out / "summary.json").exists()


# Runs in a fresh interpreter in which importing scipy fails; numpy.ma is
# never imported either.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from leadlag.cli import main

corpus, out = sys.argv[1:]
assert main(["synth", "--out", corpus, "--trusts", "4", "--days", "150",
             "--indicators", "2", "--waves", "1", "--seed", "3"]) == 0
assert main(["run", "--config", corpus + "/config.yaml",
             "--admissions", corpus + "/admissions.csv",
             "--indicators", corpus + "/indicators",
             "--mapping", corpus + "/mapping.csv",
             "--population", corpus + "/population.csv",
             "--out", out, "--methods", "granger,ccf,dtw", "--export-dtw-paths"]) == 0
with open(out + "/dtw_paths.csv", encoding="utf-8") as fh:
    assert len(fh.readlines()) > 1
assert "numpy.ma" not in sys.modules
"""


def _python(code, *args, blas_threads=None):
    """Run ``code`` in a fresh interpreter, OPENBLAS_NUM_THREADS unset unless given."""
    src = str(Path(leadlag.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = path
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_runtime_needs_no_scipy(tmp_path):
    done = _python(WITHOUT_SCIPY, str(tmp_path / "c"), str(tmp_path / "o"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "o" / "granger.csv").read_text().count("\n") > 1
    done = _python("import sys, leadlag.cli; "
                   "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_export_dtw_paths(corpus, tmp_path):
    out = tmp_path / "out"
    assert main(run_args(corpus, out, ("--export-dtw-paths",))) == 0
    lines = (out / "dtw_paths.csv").read_text().splitlines()
    assert lines[0] == "indicator,wave,scope,query_date,ref_date,lead_days"
    assert len(lines) > 1
    ind, wave, scope, q_date, r_date, lead = lines[1].split(",")
    assert scope == "all-trusts"
    from datetime import date
    assert (date.fromisoformat(r_date) - date.fromisoformat(q_date)).days == int(lead)


def _as_trust_ids(indicators, out):
    """Copy each indicator CSV to ``out`` with its LTLA ids L00i read as Trust ids T00i."""
    out.mkdir()
    for path in sorted(indicators.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        (out / path.name).write_text(
            "".join([lines[0]] + [re.sub("^L", "T", line) for line in lines[1:]]),
            encoding="utf-8")
    return out


@pytest.mark.parametrize("dtw_mode, fmt, extra", [
    ("multivariate", "csv", ("--export-dtw-paths",)),
    ("univariate", "csv", ("--export-dtw-paths",)),
    ("multivariate", "json", ()),
], ids=["multivariate-csv", "univariate-csv", "multivariate-json"])
def test_trust_level_indicators_match_a_one_to_one_mapping(corpus, tmp_path, dtw_mode,
                                                           fmt, extra):
    # the corpus's LTLA L00i becomes Trust T00i: read as trusts, or mapped one to
    # one; each indicator's own ids decide, so a directory may mix the two
    one_to_one = tmp_path / "mapping.csv"
    one_to_one.write_text("ltla_id,trust_id,admissions\n" + "".join(
        f"L{i:03d},T{i:03d},100\n" for i in range(5)))
    trusts = _as_trust_ids(corpus / "indicators", tmp_path / "trust_indicators")
    mixed = tmp_path / "mixed_indicators"
    shutil.copytree(trusts, mixed)
    shutil.copy(corpus / "indicators" / "ind00.csv", mixed)
    config = yaml.safe_load((corpus / "config.yaml").read_text())
    config["dtw_mode"] = dtw_mode
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config))
    outs = {}
    for level, indicators in (("ltla", corpus / "indicators"), ("trust", trusts),
                              ("mixed", mixed)):
        outs[level] = tmp_path / level
        args = run_args(corpus, outs[level], ("--format", fmt, *extra))
        for flag, value in (("--config", config_path), ("--mapping", one_to_one),
                            ("--indicators", indicators)):
            args[args.index(flag) + 1] = str(value)
        assert main(args) == 0
    names = sorted(p.name for p in outs["ltla"].iterdir())
    assert f"dtw.{fmt}" in names and ("dtw_paths.csv" in names) == bool(extra)
    for level in ("trust", "mixed"):
        assert names == sorted(p.name for p in outs[level].iterdir())
        for name in names:
            assert (outs[level] / name).read_bytes() == (outs["ltla"] / name).read_bytes(), \
                (level, name)
        ccf = (outs[level] / f"ccf.{fmt}").read_bytes()
        assert b"no indicator series" not in ccf and b"preprocessing failed" not in ccf


def test_override_files_map_their_indicators_whatever_the_ids(corpus, tmp_path, caplog):
    # an indicator_mappings entry maps its indicator even where the ids are
    # Trust ids, so such an indicator fails preprocessing; no file goes unused
    overrides = {"ind01": tmp_path / "a.csv", "ind00": tmp_path / "b.csv"}
    for override in overrides.values():
        override.write_bytes((corpus / "mapping.csv").read_bytes())
    config = yaml.safe_load((corpus / "config.yaml").read_text())
    config["indicator_mappings"] = {name: str(p) for name, p in overrides.items()}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    trusts = _as_trust_ids(corpus / "indicators", tmp_path / "trust_indicators")
    args = run_args(corpus, tmp_path / "out", ("--methods", "ccf"))
    for flag, value in (("--config", path), ("--indicators", trusts)):
        args[args.index(flag) + 1] = str(value)
    with caplog.at_level(logging.WARNING):
        assert main(args) == 0
    assert not [r for r in caplog.records if r.name == "leadlag.cli"]
    assert not [m for m in caplog.messages if "not used" in m]
    with (tmp_path / "out" / "ccf.csv").open(newline="") as fh:
        errors = {(row["indicator"], row["error"]) for row in csv.DictReader(fh)}
    unknown = "preprocessing failed: panel geo ids unknown to mapping: T000, T001, T002, T003, T004"
    # ind02 has no override, and none of its ids is an LTLA, so it is at Trust level
    assert errors == {("ind00", unknown), ("ind01", unknown), ("ind02", "")}
    # a bad override file still fails the run
    overrides["ind00"].write_text("ltla_id,trust_id,admissions\nL000,T000,0\n")
    assert main(args) == 4


def test_unknown_option_exits_2(corpus, tmp_path, capsys):
    # argparse's usage error, before any input is read
    with pytest.raises(SystemExit) as exc:
        main(run_args(corpus, tmp_path / "out", ("--indicator-level", "trust")))
    assert exc.value.code == 2
    assert "unrecognized arguments: --indicator-level trust" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _rename_in_csv(path, old, new):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [[new if field == old else field for field in row] for row in csv.reader(fh)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_names_with_commas_are_quoted(tmp_path):
    corpus = tmp_path / "c"
    paths = write_corpus(corpus, n_trusts=3, n_days=180, n_indicators=1, n_waves=1, seed=11)
    indicator = corpus / "indicators" / "ind00.csv"
    _rename_in_csv(indicator, "ind00", "ind,00")
    indicator.rename(indicator.with_name("ind,00.csv"))
    for name in ("admissions.csv", "mapping.csv"):
        _rename_in_csv(corpus / name, "T001", "T,001")
    config = yaml.safe_load(paths["config"].read_text())
    config["dtw_mode"] = "univariate"  # one path per Trust, its id as the scope
    paths["config"].write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    assert main(run_args(corpus, out, ("--methods", "dtw", "--export-dtw-paths"))) == 0
    for name, column, value in (("dtw_paths.csv", "scope", "T,001"),
                                ("trust_population.csv", "trust_id", "T,001"),
                                ("dtw_paths.csv", "indicator", "ind,00")):
        with (out / name).open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and all(len(row) == len(header) for row in rows), name
        assert value in {row[header.index(column)] for row in rows}, name


def test_dtw_paths_order_by_name_not_config_order(tmp_path):
    # chronological waves whose names sort the other way round, one path per Trust
    corpus = tmp_path / "c"
    paths = write_corpus(corpus, n_trusts=4, n_days=240, n_indicators=2, n_waves=2, seed=5)
    config = yaml.safe_load(paths["config"].read_text())
    for wave, name in zip(config["waves"], ("wave_b", "wave_a")):
        wave["name"] = name
    config["dtw_mode"] = "univariate"
    paths["config"].write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    assert main(run_args(corpus, out, ("--methods", "dtw", "--export-dtw-paths"))) == 0
    header, *body = (out / "dtw_paths.csv").read_text().splitlines()
    records = []
    for line in body:
        ind, wave, scope, q_date, r_date, _ = line.split(",")
        records.append((ind, wave, scope, date.fromisoformat(q_date),
                        date.fromisoformat(r_date)))
    # the former writer: every record sorted, two dates formatted per line
    assert body == [f"{ind},{wave},{scope},{q},{r},{(r - q).days}"
                    for ind, wave, scope, q, r in sorted(records)]
    assert [rec[:2] for rec in records[:1] + records[-1:]] == [("ind00", "wave_a"),
                                                               ("ind01", "wave_b")]
    assert len({rec[2] for rec in records}) == 4


def test_groupings_file(corpus, tmp_path):
    groups = tmp_path / "groups.csv"
    groups.write_text("group,member_variable\npair,ind00\npair,ind01\n")
    out = tmp_path / "out"
    assert main(run_args(corpus, out, ("--groupings", str(groups)))) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "pair" in summary
    assert "ind00" not in summary


def _rows_by_indicator(out):
    rows: dict[str, list[str]] = {}
    for name in ("granger.csv", "ccf.csv", "dtw.csv"):
        for line in (out / name).read_text().splitlines()[1:]:
            rows.setdefault(line.split(",")[1], []).append(line)
    return rows


def test_indicator_mapping_override(corpus, tmp_path):
    # a second mapping weighting each LTLA's two Trusts the other way round,
    # configured for ind01 only
    header, *lines = (corpus / "mapping.csv").read_text().splitlines()
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("\n".join([header] + [
        f"{ltla},{trust},{100 - int(count)}"
        for ltla, trust, count in (line.split(",") for line in lines)]) + "\n")
    config = yaml.safe_load((corpus / "config.yaml").read_text())
    config["indicator_mappings"] = {"ind01": str(swapped)}
    override = tmp_path / "override.yaml"
    override.write_text(yaml.safe_dump(config))
    outs = {name: tmp_path / name for name in ("plain", "override", "swapped")}
    assert main(run_args(corpus, outs["plain"])) == 0
    args = run_args(corpus, outs["override"])
    args[args.index("--config") + 1] = str(override)
    assert main(args) == 0
    args = run_args(corpus, outs["swapped"])
    args[args.index("--mapping") + 1] = str(swapped)
    assert main(args) == 0
    rows = {name: _rows_by_indicator(out) for name, out in outs.items()}
    assert sorted(rows["override"]) == ["ind00", "ind01", "ind02"]
    for ind, got in rows["override"].items():
        want = rows["swapped" if ind == "ind01" else "plain"][ind]
        assert got == want, ind
    assert rows["override"]["ind01"] != rows["plain"]["ind01"]
    # the Trust populations come from the --mapping file
    assert ((outs["override"] / "trust_population.csv").read_bytes()
            == (outs["plain"] / "trust_population.csv").read_bytes())


def test_whole_numbers_in_config_load(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("waves: [{name: w, start: 2022-01-01, end: 2022-03-01}]\n"
                    "horizon_days: 7.0\nloess_span: 1\ntrust_exclusions: [T001, 7]\n"
                    "latency: {ind00: {reporting_lag_days: 2.0, release_cadence: 7}}\n")
    config = load_config(path)
    assert config.horizon_days == 7 and type(config.horizon_days) is int
    assert config.loess_span == 1.0 and type(config.loess_span) is float
    assert config.trust_exclusions == ("T001", "7")
    assert config.latency["ind00"] == LatencySpec(2, 7)


def test_empty_table_and_list_keys_load_empty(tmp_path):
    # every entry commented out leaves each key null
    path = tmp_path / "config.yaml"
    path.write_text("waves: [{name: w, start: 2022-01-01, end: 2022-03-01}]\n"
                    "latency:\n#  ind00: {reporting_lag_days: 2}\n"
                    "indicator_mappings:\n#  ind00: m.csv\n"
                    "trust_exclusions:\n#  - T001\n")
    config = load_config(path)
    assert (config.latency, config.indicator_mappings, config.trust_exclusions) == ({}, {}, ())


def test_shipped_example_config_loads():
    path = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    config = load_config(path)
    assert [w.name for w in config.waves] == ["BA.1", "BA.2", "BA.4-5"]
    assert config.horizon_days == 14
    assert config.latency["nhs_111"].reporting_lag_days == 2
    assert config.latency["lfd_tests"].release_cadence_days == 7
    # the example documents every field under its key, commented out or not
    keys = set(re.findall(r"^(?:# ?)?(\w+):", path.read_text(encoding="utf-8"), re.MULTILINE))
    assert {f.name for f in dataclasses.fields(RunConfig)} <= keys


def test_deterministic_reruns(corpus, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(run_args(corpus, out_a)) == 0
    assert main(run_args(corpus, out_b)) == 0
    for name in ("granger.csv", "ccf.csv", "dtw.csv", "summary.json",
                 "trust_population.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# the mapping GEMM's shape at study scale, after importing leadlag first
BLAS_PIN = """
import os
import leadlag
import numpy as np

rng = np.random.default_rng(0)
rng.standard_normal((121, 121)).T @ rng.standard_normal((121, 328))
print(os.environ.get("OPENBLAS_NUM_THREADS"))
if os.path.isdir("/proc/self/task"):
    print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")],
                         ids=["unset-pinned", "preset-kept"])
def test_import_sets_blas_threads_unless_preset(preset, expected):
    done = _python(BLAS_PIN, blas_threads=preset)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[0] == expected


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_pinned_process_runs_one_thread_after_a_matmul():
    done = _python(BLAS_PIN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[1] == "1"
