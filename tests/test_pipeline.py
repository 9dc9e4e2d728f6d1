import csv
import json
import logging
from datetime import date, timedelta

import numpy as np
import pytest

from leadlag.cli import main
from leadlag.config import LatencySpec, RunConfig, WaveSpec
from leadlag.corpus import write_corpus
from leadlag.dtw import dtw_align_batch
from leadlag.errors import ConfigError, LeadLagError
from leadlag.geo import build_mapping
from leadlag.granger import GrangerBatch
from leadlag.pipeline import ResultTable, filter_trusts, run_analysis
from leadlag.reports import emit_reports
from leadlag.synth import IndicatorSpec, SynthSpec, generate_admissions, generate_indicators
from leadlag.timeseries import Panel

from conftest import START, panel, records
from oracles import effective_lead

N_DAYS = 210
WAVE1 = WaveSpec("w1", START + timedelta(days=20), START + timedelta(days=88))
WAVE2 = WaveSpec("w2", START + timedelta(days=89), START + timedelta(days=160))


def study_config(**kw):
    base = dict(
        waves=(WAVE1, WAVE2),
        loess_span=0.08,
        admissions_filter_start=START,
        admissions_filter_end=START + timedelta(days=N_DAYS - 1),
    )
    base.update(kw)
    return RunConfig(**base)


def synth_inputs(lead=10, noise_sd=0.02, n_trusts=3):
    spec = SynthSpec(n_trusts=n_trusts, n_days=N_DAYS, peak_day=50.0, rise_width=7.0,
                     fall_width=11.0, amplitude=tuple(80.0 + 20 * i for i in range(n_trusts)),
                     extra_peaks=(70.0,),
                     indicators=(("ind", IndicatorSpec(lead=lead, noise_sd=noise_sd)),),
                     seed=5)
    adm = generate_admissions(spec)
    return adm, generate_indicators(spec, adm)


def identity_mapping(n_trusts=3):
    return build_mapping([(f"L{i:03d}", f"T{i:03d}", 100) for i in range(n_trusts)])


# ------------------------------------------------------------------ config

def test_waves_must_not_overlap():
    with pytest.raises(ConfigError, match="non-overlapping"):
        RunConfig(waves=(WaveSpec("a", START, START + timedelta(days=30)),
                         WaveSpec("b", START + timedelta(days=10),
                                  START + timedelta(days=40))))


def test_wave_start_before_end():
    with pytest.raises(ConfigError):
        WaveSpec("bad", START, START)


def test_numpy_integer_config_value_is_written_as_an_integer(tmp_path):
    # the config reads np.int64(14) as 14, so no report writes its repr
    adm, indicators = synth_inputs()
    config = study_config(horizon_days=np.int64(14), loess_degree=np.int64(1))
    assert type(config.horizon_days) is int and type(config.loess_degree) is int
    emit_reports(run_analysis(config, adm, indicators, None, methods=("ccf",)), tmp_path)
    with (tmp_path / "ccf.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["horizon"] for row in rows} == {"14"}
    assert all("degree=1" in row["provenance"] for row in rows)


# ------------------------------------------------------------- filter_trusts

def _admissions_panel(totals: dict[str, int]) -> Panel:
    series = {}
    for trust, total in totals.items():
        values = np.zeros(30)
        values[:10] = total / 10
        series[trust] = values
    return panel(series, start=date(2022, 1, 1))


def test_filter_removes_below_threshold():
    panel = _admissions_panel({"LOW": 9, "OK": 10, "HIGH": 500})
    config = study_config(admissions_filter_start=date(2022, 1, 1),
                          admissions_filter_end=date(2022, 12, 31))
    out = filter_trusts(panel, config)
    assert out.geo_ids == ("HIGH", "OK")
    assert out.values.sum(axis=1).tolist() == [500, 10]  # 10 is retained, "fewer than 10" removed


def test_filter_applies_exclusion_list():
    panel = _admissions_panel({"A": 100, "B": 100})
    config = study_config(trust_exclusions=("B",),
                          admissions_filter_start=date(2022, 1, 1),
                          admissions_filter_end=date(2022, 12, 31))
    assert filter_trusts(panel, config).geo_ids == ("A",)


def test_filter_all_removed_errors():
    panel = _admissions_panel({"A": 1})
    config = study_config(admissions_filter_start=date(2022, 1, 1),
                          admissions_filter_end=date(2022, 12, 31))
    with pytest.raises(LeadLagError, match="no trusts retained"):
        filter_trusts(panel, config)


# ------------------------------------------------------------ effective_lead

def test_effective_lead_daily_release():
    value, eroded = effective_lead(10, LatencySpec(2, 1))
    assert (value, eroded) == (8.0, False)


def test_effective_lead_weekly_release():
    value, eroded = effective_lead(10, LatencySpec(1, 7))
    assert (value, eroded) == (3.0, False)


def test_effective_lead_floors_at_zero():
    value, eroded = effective_lead(3, LatencySpec(5, 1))
    assert (value, eroded) == (0.0, True)


def test_effective_lead_none_passthrough():
    assert effective_lead(None, LatencySpec(1, 1)) == (None, False)
    assert effective_lead(5, None) == (None, False)


def test_effective_lead_negative_stays_below_statistical():
    value, eroded = effective_lead(-5, LatencySpec(2, 1))
    assert (value, eroded) == (-7.0, False)  # never floored above the statistical lead


# -------------------------------------------------------------- run_analysis

def test_run_warns_of_config_names_that_match_nothing_read(caplog):
    # a library caller is warned as the command line is: an exclusion that
    # names no admissions trust, then a latency or mapping override that
    # names no indicator
    adm, indicators = synth_inputs()
    excluded = adm.geo_ids[1]
    config = study_config(trust_exclusions=("Z1", excluded, "T999"),
                          latency={"ind": LatencySpec(1), "ind0": LatencySpec(2)},
                          indicator_mappings={"ind9": "mapping.csv"})
    with caplog.at_level(logging.WARNING, logger="leadlag.pipeline"):
        tables = run_analysis(config, adm, indicators, None, methods=("ccf",))
    assert excluded not in tables[0].trust_ids and len(tables[0].trust_ids) == 2
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "leadlag.pipeline" and r.levelno == logging.WARNING]
    assert warnings == ["config trust_exclusions names no admissions trust: T999, Z1",
                        "config latency names no indicator read: ind0",
                        "config indicator_mappings names no indicator read: ind9",
                        f"filter_trusts removed 1 trust(s): {excluded} (excluded)"]


def test_recovers_injected_lead_in_ccf_rows():
    adm, indicators = synth_inputs(lead=10)
    rows = records(run_analysis(study_config(), adm, indicators, None,
                                methods=("ccf",)))
    ccf_rows = [r for r in rows if r.method == "ccf" and r.optimal_lead is not None]
    assert ccf_rows
    for row in ccf_rows:
        assert abs(row.optimal_lead - 10) <= 1


def test_row_grid_is_complete():
    adm, indicators = synth_inputs()
    config = study_config()
    rows = records(run_analysis(config, adm, indicators, None))
    # granger yields two rows per cell (horizon 0 and 14), ccf and dtw one each
    expected = len(config.waves) * 3 * len(indicators) * 4
    assert len(rows) == expected
    keys = {(r.trust_id, r.indicator, r.wave, r.method) for r in rows}
    assert len(keys) == expected


def test_constant_indicator_degenerate_rows():
    adm, _ = synth_inputs()
    const = panel({t: np.full(N_DAYS, 3.0) for t in adm.geo_ids})
    rows = records(run_analysis(study_config(), adm, {"flat": const}, None))
    assert rows
    for row in rows:
        assert row.degenerate
        if row.method in ("granger", "granger14", "ccf"):
            assert row.error  # zero variance / collinear design recorded
    methods = {r.method for r in rows}
    assert methods == {"granger", "granger14", "ccf", "dtw"}


def test_indicator_absent_for_wave_gets_truncated_rows():
    adm, indicators = synth_inputs()
    full = indicators["ind"]
    cols = full.day_slice(START, WAVE1.end)
    wave1_only = Panel(full.start_date, full.geo_ids, full.values[:, cols])
    rows = records(run_analysis(study_config(), adm, {"ind": wave1_only}, None))
    w2 = [r for r in rows if r.wave == "w2"]
    assert w2
    for row in w2:
        assert row.truncated
        assert row.p_value is None and row.optimal_lead is None
        assert row.error
    w1 = [r for r in rows if r.wave == "w1" and r.method == "ccf"]
    assert any(r.optimal_lead is not None for r in w1)


@pytest.mark.parametrize("last_day", [130, 88])  # inside the last wave; before it
def test_admissions_that_stop_short_truncate_every_row_of_the_wave(last_day, caplog):
    adm, indicators = synth_inputs()
    cut = Panel(adm.start_date, adm.geo_ids, adm.values[:, :last_day + 1])
    ind = indicators["ind"]
    partial = Panel(ind.start_date, ind.geo_ids[:2], ind.values[:2])  # T002 has no series
    with caplog.at_level(logging.WARNING, logger="leadlag.pipeline"):
        rows = records(run_analysis(study_config(), cut, {"ind": partial}, None))
    assert {r.method for r in rows} == {"granger", "granger14", "ccf", "dtw"}
    assert {r.trust_id for r in rows if r.error == "no indicator series for trust"} == {"T002"}
    for row in rows:
        assert row.truncated == (row.wave == "w2"), row
    last = START + timedelta(days=last_day)
    window = f"only from {WAVE2.start} to {last}" if last >= WAVE2.start else "on no day"
    assert f"indicator ind and admissions cover wave w2 {window}" in caplog.messages
    assert not any("wave w1" in message for message in caplog.messages)


def test_wave_isolation():
    # a perturbation strictly inside wave 1 (away from the global extrema the
    # whole-period scaling is anchored to) must leave every wave-2 row unchanged
    from leadlag.timeseries import loess_smooth

    adm, indicators = synth_inputs()
    base = indicators["ind"]
    values = base.values.copy()
    # falling tail of wave 1, clear of wave 2's warm-up prefix even after
    # the smoothing window spreads the change
    i0 = (WAVE1.start - base.start_date).days + 35
    values[:, i0 : i0 + 8] *= 0.85
    perturbed = Panel(base.start_date, base.geo_ids, values)
    base_s = loess_smooth(base.values, 0.08, 2)
    pert_s = loess_smooth(values, 0.08, 2)
    # precondition: the whole-period scaling anchors stay put
    assert np.array_equal(base_s.min(axis=1), pert_s.min(axis=1))
    assert np.array_equal(base_s.max(axis=1), pert_s.max(axis=1))

    rows_base = records(run_analysis(study_config(), adm, indicators, None))
    rows_pert = records(run_analysis(study_config(), adm, {"ind": perturbed}, None))

    def stats(rows, wave):
        return {
            (r.trust_id, r.method): (r.f_stat, r.p_value, r.optimal_lead,
                                     r.ccf_at_optimal, r.ccf_at_horizon,
                                     r.dtw_median_lead, r.dtw_normalized_distance)
            for r in rows if r.wave == wave
        }

    assert stats(rows_pert, "w2") == stats(rows_base, "w2")
    assert stats(rows_pert, "w1") != stats(rows_base, "w1")


def test_effective_never_exceeds_statistical():
    # every ccf and dtw row's erosion is the per-element oracle's, in both DTW
    # modes; T002 has no indicator series, so it reads no lead and no erosion
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    indicators = {"ind": Panel(ind.start_date, ind.geo_ids[:2], ind.values[:2])}
    latency = LatencySpec(4, 7)  # erodes some leads of about 10 days, not all
    for mode in ("multivariate", "univariate"):
        config = study_config(dtw_mode=mode, latency={"ind": latency})
        rows = [row for row in records(run_analysis(config, adm, indicators, None))
                if row.method in ("ccf", "dtw")]
        assert len(rows) == 3 * 2 * 2  # trusts x waves x methods
        for row in rows:
            statistical = row.optimal_lead if row.method == "ccf" else row.dtw_median_lead
            assert (row.effective_lead, row.eroded) == effective_lead(statistical, latency)
            assert (statistical is None) == (row.trust_id == "T002")
            if statistical is not None:
                assert row.effective_lead <= statistical
        assert {row.eroded for row in rows if row.trust_id != "T002"} == {False, True}


def test_univariate_dtw_mode():
    adm, indicators = synth_inputs()
    rows = records(run_analysis(study_config(dtw_mode="univariate"), adm, indicators,
                                None, methods=("dtw",)))
    leads = [r.dtw_median_lead for r in rows if r.dtw_median_lead is not None]
    assert leads and all(7 <= lead <= 13 for lead in leads)


def test_multivariate_dtw_shared_across_trusts():
    adm, indicators = synth_inputs()
    rows = records(run_analysis(study_config(), adm, indicators, None,
                                methods=("dtw",)))
    for wave in ("w1", "w2"):
        values = {r.dtw_median_lead for r in rows if r.wave == wave}
        assert len(values) == 1  # one joint alignment per indicator and wave


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
def test_robust_loess_runs_end_to_end_and_names_its_passes(mode):
    # bisquare reweighting through the whole pipeline: every cell has finite
    # statistics, which differ from the plain fit's, and says how it was smoothed
    adm, indicators = synth_inputs()
    latency = {"ind": LatencySpec(reporting_lag_days=1)}
    robust = run_analysis(study_config(dtw_mode=mode, latency=latency,
                                       loess_robustness_passes=1), adm, indicators, None)
    plain = run_analysis(study_config(dtw_mode=mode, latency=latency),
                         adm, indicators, None)
    assert robust and [t.method for t in robust] == [t.method for t in plain]
    for r, p in zip(robust, plain):
        assert r.columns["error"].tolist() == [""] * 3
        stats = [name for name, values in r.columns.items() if values.dtype == float]
        assert stats and all(np.isfinite(r.columns[name]).all() for name in stats)
        assert any(not np.array_equal(r.columns[name], p.columns[name]) for name in stats)
        assert r.provenance == p.provenance.replace("degree=2)", "degree=2,passes=1)")
        assert p.provenance.startswith("locf+loess(span=0.08,degree=2)+")


def test_ltla_panel_is_mapped():
    adm, indicators = synth_inputs()
    trust_panel = indicators["ind"]
    ltla_panel = Panel(trust_panel.start_date, tuple(f"L{i:03d}" for i in range(3)),
                       trust_panel.values)
    rows = records(run_analysis(study_config(), adm, {"ind": ltla_panel},
                                identity_mapping(), methods=("ccf",)))
    good = [r for r in rows if r.optimal_lead is not None]
    assert good and all(abs(r.optimal_lead - 10) <= 1 for r in good)


def test_mapping_ltlas_without_a_series_are_logged(caplog):
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    ltla_panel = Panel(ind.start_date, ("L000", "L001"), ind.values[:2])
    with caplog.at_level(logging.WARNING, logger="leadlag.pipeline"):
        run_analysis(study_config(), adm, {"ind": ltla_panel}, identity_mapping(),
                     methods=("ccf",))
    assert "variable ind missing 1 mapping LTLA(s): L002" in caplog.messages


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
def test_indicator_sharing_no_trust_gets_no_series_rows(mode, caplog):
    # no method runs on a batch of no rows, and DTW records nothing; with a
    # mapping, ids that are neither its LTLAs nor Trusts are at Trust level too
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    elsewhere = Panel(ind.start_date, tuple(f"X{i:03d}" for i in range(3)), ind.values)
    for mapping in (None, identity_mapping()):
        caplog.clear()
        paths: list[tuple] = []
        with caplog.at_level(logging.WARNING, logger="leadlag.pipeline"):
            tables = run_analysis(study_config(dtw_mode=mode), adm,
                                  {**indicators, "elsewhere": elsewhere}, mapping,
                                  dtw_paths=paths)
        assert "indicator elsewhere reaches no retained trust" in caplog.messages
        assert not [m for m in caplog.messages if "failed preprocessing" in m]
        rows = [r for r in records(tables) if r.indicator == "elsewhere"]
        assert {r.method for r in rows} == {"granger", "granger14", "ccf", "dtw"}
        assert len(rows) == 4 * len(adm.geo_ids) * len(study_config().waves)
        assert all(r.error == "no indicator series for trust" for r in rows)
        assert paths and {record[0] for record in paths} == {"ind"}


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
def test_dtw_path_records_one_per_batch_with_median_leads(mode):
    # the indicator ends 4 days before wave 1 does, inside wave 2's warm-up, so
    # wave 2 has no coverage, no alignment runs for it and it adds no record
    adm, indicators = synth_inputs()
    full = indicators["ind"]
    early = Panel(full.start_date, full.geo_ids,
                  full.values[:, full.day_slice(START, WAVE2.start - timedelta(days=5))])
    paths: list[tuple] = []
    tables = run_analysis(study_config(dtw_mode=mode), adm, {"ind": early}, None,
                          methods=("dtw",), dtw_paths=paths)
    (w2,) = [table for table in tables if table.wave == "w2"]
    assert set(w2.columns["error"].tolist()) == {"no coverage in wave"}
    (record,) = paths
    ind, wave, scopes, days, match = record
    assert (ind, wave) == ("ind", "w1")
    assert scopes == (list(adm.geo_ids) if mode == "univariate" else ["all-trusts"])
    q_start = max(WAVE1.start - timedelta(days=study_config().dtw_warmup_days),
                  early.start_date, adm.start_date)
    assert days[0] == q_start.isoformat()
    assert match.shape == (len(scopes), (early.end_date - q_start).days + 1, 2)
    assert 0 <= match.min() and match.max() < len(days)


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
@pytest.mark.parametrize("cut", ["ind", "adm"])
def test_series_ending_in_a_warmup_leave_that_wave_to_no_method(cut, mode, monkeypatch):
    # the indicator or the admissions end 4 days before wave 1 does, inside
    # wave 2's warm-up: every wave-2 row of every method reads no coverage,
    # and DTW aligns and records wave 1 alone
    adm, indicators = synth_inputs()
    inputs = {"adm": adm, "ind": indicators["ind"]}
    full = inputs[cut]
    inputs[cut] = Panel(full.start_date, full.geo_ids,
                        full.values[:, full.day_slice(START, WAVE2.start - timedelta(days=5))])
    batches = []

    def counted(*args, **kwargs):
        batches.append(args[0].shape)
        return dtw_align_batch(*args, **kwargs)

    monkeypatch.setattr("leadlag.pipeline.dtw_align_batch", counted)
    paths: list[tuple] = []
    rows = records(run_analysis(study_config(dtw_mode=mode), inputs["adm"],
                                {"ind": inputs["ind"]}, None, dtw_paths=paths))
    assert {r.method for r in rows} == {"granger", "granger14", "ccf", "dtw"}
    assert len(rows) == 4 * len(adm.geo_ids) * 2
    for row in rows:
        assert row.truncated, row
        assert row.error == ("no coverage in wave" if row.wave == "w2" else ""), row
    assert len(batches) == 1
    assert [record[:2] for record in paths] == [("ind", "w1")]


def test_unknown_method_is_config_error():
    adm, indicators = synth_inputs()
    with pytest.raises(ConfigError, match="unknown methods: wavelets"):
        run_analysis(study_config(), adm, indicators, None,
                     methods=("ccf", "wavelets"))


def test_batch_mixing_degenerate_and_missing_trusts():
    # T001's indicator is constant and T002 has none; T000 must come out as
    # it does when analysed alone
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    values = ind.values[:2].copy()
    values[1] = 3.0
    mixed = Panel(ind.start_date, ("T000", "T001"), values)
    rows = records(run_analysis(study_config(), adm, {"ind": mixed}, None))
    alone = records(run_analysis(study_config(), adm,
                                 {"ind": panel({"T000": values[0]}, start=ind.start_date)},
                                 None, methods=("granger", "ccf")))
    by_trust = {t: [r for r in rows if r.trust_id == t] for t in ("T000", "T001", "T002")}
    assert [r for r in by_trust["T000"] if r.method != "dtw"] == \
        [r for r in alone if r.trust_id == "T000"]
    for row in by_trust["T001"]:
        assert row.degenerate
        if row.method != "dtw":
            assert row.error in ("collinear design", "zero variance")
    assert by_trust["T002"]
    for row in by_trust["T002"]:
        assert row.error == "no indicator series for trust"
        assert not row.degenerate and row.p_value is None


def test_kernel_errors_become_rows():
    # a 20-day wave is too short for the horizon-14 Granger test and the
    # +-30-day CCF profile, and a 2-day wave without warm-up for DTW; T001's
    # indicator is constant. A kernel error keeps no column but the error in
    # any table, so not even the flag
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    values = ind.values.copy()
    values[1] = 3.0
    flat = Panel(ind.start_date, ind.geo_ids, values)
    short = WaveSpec("short", START + timedelta(days=40), START + timedelta(days=59))
    tiny = WaveSpec("tiny", START + timedelta(days=100), START + timedelta(days=101))
    config = study_config(waves=(short, tiny), dtw_warmup_days=0)
    rows = records(run_analysis(config, adm, {"flat": flat}, None))
    assert len(rows) == 2 * 3 * 4

    def cells(wave, method):
        return [r for r in rows if r.wave == wave and r.method == method]

    for wave in ("short", "tiny"):
        for method, error in (("granger14", "insufficient observations"),
                              ("ccf", f"lead -30 too large for series of length "
                                      f"{20 if wave == 'short' else 2}")):
            got = cells(wave, method)
            assert [r.error for r in got] == [error] * 3
            assert [r.degenerate for r in got] == [False, False, False]
            assert all(r.p_value is None and r.optimal_lead is None and r.effective_lead is None
                       and not r.truncated and not r.eroded for r in got)
    assert [r.error for r in cells("tiny", "granger")] == ["insufficient observations"] * 3
    assert all(r.p_value is not None for r in cells("short", "granger")
               if r.trust_id != "T001")
    assert all(r.dtw_median_lead is not None for r in cells("short", "dtw"))
    for row in cells("tiny", "dtw"):
        assert row.error == "sequences must have length >= 4"
        assert not row.degenerate and not row.truncated
        assert row.dtw_median_lead is None and row.dtw_normalized_distance is None


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
def test_every_column_has_a_row_per_trust_of_one_kind(mode):
    # the contract that spreading a pair's cells over every Trust relies on,
    # over ok, degenerate, no-series, no-coverage, kernel-error and
    # failed-preprocessing cells: every column is a float, bool or text array
    # with a row per Trust, and every table has the error column
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    values = ind.values[:2].copy()
    values[1] = 3.0  # T001 constant; T002 has no series
    tiny = WaveSpec("tiny", START + timedelta(days=170), START + timedelta(days=171))
    inputs = {"mixed": Panel(ind.start_date, ("T000", "T001"), values),
              "early": Panel(ind.start_date, ind.geo_ids,
                             ind.values[:, ind.day_slice(START, WAVE1.end)]),
              "short": Panel(ind.start_date, ind.geo_ids, ind.values[:, :20])}
    tables = run_analysis(study_config(waves=(WAVE1, WAVE2, tiny), dtw_mode=mode),
                          adm, inputs, None)
    assert len(tables) == 3 * 3 * 4
    for table in tables:
        assert "error" in table.columns
        for name, column in table.columns.items():
            assert column.shape == (len(adm.geo_ids),), (table.method, name)
            assert column.dtype.kind in "fbU", (table.method, name, column.dtype)
    causes = {text.split(":")[0] for table in tables for text in table.columns["error"].tolist()}
    assert causes >= {"", "zero variance", "no indicator series for trust", "no coverage in wave",
                      "insufficient observations", "preprocessing failed"}


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
@pytest.mark.parametrize("zeroed_from", [58, 70])
def test_admissions_zeroed_before_a_wave_give_zero_variance_ccf_and_dtw_rows(zeroed_from, mode):
    # T002's admissions are zero from day 58, before wave 2's warm-up, or from
    # day 70, inside it, where LOESS leaks the drop into the warm-up but not
    # into the wave. Its min-max scaled wave-2 window holds one value (day 58:
    # 0.0482..., whose mean is inexact, so its centred sum of squares is about
    # 3e-33, not 0), and so does its z-scored DTW reference over the wave's
    # days: the row has no correlation and no univariate DTW lead, and the
    # joint alignment keeps its lead and is flagged
    adm, indicators = synth_inputs()
    values = adm.values.copy()
    values[2, zeroed_from:] = 0.0
    zeroed = Panel(adm.start_date, adm.geo_ids, values)
    rows = records(run_analysis(study_config(dtw_mode=mode), zeroed, indicators, None,
                                methods=("ccf", "dtw")))
    w2 = [r for r in rows if r.wave == "w2"]
    assert [(r.trust_id, r.error, r.degenerate) for r in w2 if r.method == "ccf"] == [
        ("T000", "", False), ("T001", "", False), ("T002", "zero variance", True)]
    assert all(r.optimal_lead is None and r.ccf_at_horizon is None
               for r in w2 if r.trust_id == "T002" and r.method == "ccf")
    dtw = [r for r in w2 if r.method == "dtw"]
    if mode == "univariate":
        assert [(r.trust_id, r.error, r.degenerate) for r in dtw] == [
            ("T000", "", False), ("T001", "", False), ("T002", "zero variance", True)]
        assert dtw[2].dtw_median_lead is None and dtw[2].dtw_normalized_distance is None
        assert dtw[2].effective_lead is None
    else:
        assert [(r.error, r.degenerate, r.dtw_median_lead) for r in dtw] == [("", True, 12.0)] * 3


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
def test_narrowest_band_aligns_every_row_with_variance(mode):
    # a band of one day and no warm-up: the reference still covers the query's
    # days, so no row lacks an admissible path
    adm, indicators = synth_inputs()
    rows = records(run_analysis(study_config(dtw_mode=mode, dtw_window=1, dtw_warmup_days=0),
                                adm, indicators, None, methods=("dtw",)))
    assert len(rows) == 3 * 2
    aligned = [row for row in rows if not row.degenerate]
    assert aligned
    for row in aligned:
        assert row.error == ""
        # records read an absent statistic as None, which reads as NaN here
        stats = np.array([row.dtw_median_lead, row.dtw_normalized_distance], dtype=float)
        assert np.isfinite(stats).all()


def test_single_trust_multivariate_dtw_equals_univariate():
    # with one Trust the joint (1, n, 1) series aligns as the univariate row does:
    # the Euclidean local cost of one column is its absolute difference
    adm, indicators = synth_inputs(n_trusts=1)
    out = {}
    for mode in ("multivariate", "univariate"):
        paths: list[tuple] = []
        rows = records(run_analysis(study_config(dtw_mode=mode), adm, indicators, None,
                                    methods=("dtw",), dtw_paths=paths))
        out[mode] = [dict(vars(r), provenance=None) for r in rows], paths
    (multi, multi_paths), (uni, uni_paths) = out["multivariate"], out["univariate"]
    assert [r["dtw_median_lead"] for r in multi] == [9.5, 12.0]
    assert multi == uni
    assert [record[2] for record in multi_paths] == [["all-trusts"]] * 2
    assert [record[2] for record in uni_paths] == [["T000"]] * 2
    for joint, alone in zip(multi_paths, uni_paths):
        assert joint[:2] == alone[:2] and joint[3] == alone[3]
        np.testing.assert_array_equal(joint[4], alone[4])


def test_constant_trust_gets_no_univariate_dtw_lead():
    # T001's indicator is constant: its DTW row reads zero variance and no
    # path, and every other row is as in a run without T001's indicator
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    values = ind.values.copy()
    values[1] = 3.0
    config = study_config(dtw_mode="univariate")
    paths: list[tuple] = []
    rows = records(run_analysis(config, adm, {"ind": Panel(ind.start_date, ind.geo_ids, values)},
                                None, dtw_paths=paths))
    others = Panel(ind.start_date, ("T000", "T002"), values[[0, 2]])
    alone_paths: list[tuple] = []
    alone = records(run_analysis(config, adm, {"ind": others}, None, dtw_paths=alone_paths))
    flat_dtw = [r for r in rows if r.trust_id == "T001" and r.method == "dtw"]
    assert len(flat_dtw) == 2
    for row in flat_dtw:
        assert row.error == "zero variance" and row.degenerate
        assert row.dtw_median_lead is None and row.dtw_normalized_distance is None
    assert [r for r in rows if r.trust_id != "T001"] == [r for r in alone if r.trust_id != "T001"]
    assert [record[2] for record in paths] == [["T000", "T002"]] * 2
    assert len(alone_paths) == 2
    for record, alone_record in zip(paths, alone_paths):
        assert record[:4] == alone_record[:4]
        np.testing.assert_array_equal(record[4], alone_record[4])


def test_constant_trusts_get_no_multivariate_dtw_lead():
    # with every Trust's indicator constant the joint series has nothing to
    # align; with one constant Trust it keeps its alignment and the flag
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    paths: list[tuple] = []
    const = panel({t: np.full(N_DAYS, 3.0) for t in adm.geo_ids}, start=ind.start_date)
    rows = records(run_analysis(study_config(), adm, {"flat": const}, None,
                                methods=("dtw",), dtw_paths=paths))
    assert len(rows) == 3 * 2 and not paths
    for row in rows:
        assert row.error == "zero variance" and row.degenerate
        assert row.dtw_median_lead is None and row.dtw_normalized_distance is None
        assert row.effective_lead is None
    values = ind.values.copy()
    values[1] = 3.0
    rows = records(run_analysis(study_config(), adm,
                                {"ind": Panel(ind.start_date, ind.geo_ids, values)}, None,
                                methods=("dtw",), dtw_paths=paths))
    assert [record[2] for record in paths] == [["all-trusts"]] * 2
    for row in rows:
        assert row.error == "" and row.degenerate and row.dtw_median_lead is not None


def test_horizon_the_wave_cannot_hold_empties_only_ccf_at_horizon():
    # a 200-day horizon is longer than either wave: each ccf row keeps the
    # profile's lead, flags and error of the 14-day run and loses only its
    # correlation at the horizon, while Granger at that horizon has no rows to fit
    adm, indicators = synth_inputs()
    tables = {h: run_analysis(study_config(horizon_days=h), adm, indicators, None)
              for h in (14, 200)}
    long_ccf = [table for table in tables[200] if table.method == "ccf"]
    assert long_ccf and all("ccf_at_horizon" not in table.columns for table in long_ccf)
    fields = ("trust_id", "wave", "optimal_lead", "ccf_at_optimal", "effective_lead",
              "eroded", "degenerate", "error")

    def ccf_rows(h):
        return [tuple(getattr(r, f) for f in fields)
                for r in records(tables[h]) if r.method == "ccf"]

    assert ccf_rows(200) == ccf_rows(14)
    assert all(lead is not None for _, _, lead, *_ in ccf_rows(200))
    assert {r.error for r in records(tables[200]) if r.method == "granger14"} == {
        "insufficient observations"}


@pytest.mark.parametrize("step", ["mapping", "smoothing"])
def test_indicator_failing_preprocessing_keeps_only_the_flag(step):
    # like a kernel error's, every table of an indicator whose mapping or
    # smoothing fails keeps no column but ``error`` and ``truncated``, and every Trust's row
    # names the failure; the other indicator's tables are untouched
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    ltlas = ("L000", "L001", "L002")
    good = Panel(ind.start_date, ltlas, ind.values)
    if step == "mapping":  # an LTLA the mapping lacks
        bad = Panel(ind.start_date, ltlas + ("L999",), np.vstack([ind.values, ind.values[:1]]))
        text, truncated = "panel geo ids unknown to mapping: L999", False
    else:  # 20 days: a 2-point LOESS window, ending before either wave
        bad = Panel(ind.start_date, ltlas, ind.values[:, :20])
        text, truncated = "loess window of 2 points is too small for degree 2", True
    tables = run_analysis(study_config(), adm, {"bad": bad, "good": good}, identity_mapping())
    failed = [table for table in tables if table.indicator == "bad"]
    assert len(failed) == 2 * 4  # waves x (granger, granger14, ccf, dtw)
    for table in failed:
        assert list(table.columns) == ["error", "truncated"]
        assert table.columns["truncated"].tolist() == [truncated] * 3
        assert table.columns["error"].tolist() == [f"preprocessing failed: {text}"] * 3
    assert records(t for t in tables if t.indicator == "good") == records(
        run_analysis(study_config(), adm, {"good": good}, identity_mapping()))


def run_with_short_indicator(tmp_path):
    """Run a 4-Trust corpus plus ``short``, an indicator covering 20 days (a
    2-point LOESS window, so that indicator alone fails); returns the output dir."""
    paths = write_corpus(tmp_path / "in", n_trusts=4, n_days=333, n_indicators=2,
                         n_waves=3, seed=0)
    lines = ["geo_id,date,variable,value"]
    lines += [f"L{i:03d},{START + timedelta(days=t)},short,{1.0 + t + i}"
              for i in range(4) for t in range(20)]
    (tmp_path / "in" / "indicators" / "short.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(paths["config"]),
                 "--admissions", str(paths["admissions"]),
                 "--indicators", str(tmp_path / "in" / "indicators"),
                 "--mapping", str(paths["mapping"]),
                 "--population", str(paths["population"]), "--out", str(out)]) == 0
    return out


def test_indicator_failing_preprocessing_becomes_error_rows(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="leadlag.pipeline"):
        out = run_with_short_indicator(tmp_path)
    assert any("indicator short" in r.getMessage() and "loess window" in r.getMessage()
               for r in caplog.records)
    rows = [row for name in ("granger.csv", "ccf.csv", "dtw.csv")
            for row in csv.DictReader((out / name).read_text().splitlines())]
    short = [row for row in rows if row["indicator"] == "short"]
    assert len(short) == 4 * 3 * 4  # trusts x waves x (granger, granger14, ccf, dtw)
    assert all("loess window of 2 points" in row["error"] for row in short)
    others = [row for row in rows if row["indicator"] != "short"]
    assert {row["indicator"] for row in others} == {"ind00", "ind01"}
    assert len(others) == 2 * len(short)
    assert any(row["optimal_lead"] for row in others if row["method"] == "ccf")


def test_summary_keeps_indicator_without_statistics(tmp_path):
    summary = json.loads((run_with_short_indicator(tmp_path) / "summary.json").read_text())
    assert sorted(summary) == ["ind00", "ind01", "short"]
    assert summary["short"] == {"wave1": {}, "wave2": {}, "wave3": {}}
    assert all(summary[ind][wave] for ind in ("ind00", "ind01")
               for wave in ("wave1", "wave2", "wave3"))


# ------------------------------------------------------------------ records

def test_array_holding_records_compare_by_identity():
    # two records of equal content are two records: comparing or hashing
    # them never reaches their arrays
    makers = [
        lambda: Panel(START, ("T000", "T001"), np.arange(6.0).reshape(2, 3)),
        lambda: build_mapping([("L000", "T000", 10), ("L001", "T001", 20)]),
        lambda: GrangerBatch(np.array([1.5, 2.5]), np.array([0.2, 0.1]),
                             np.array([False, False]), 1, 10),
        lambda: ResultTable(("T000", "T001"), "ind", "w1", "ccf", 14, "p",
                            {"optimal_lead": np.array([3.0, 4.0]), "error": np.array(["", ""])}),
    ]
    for make in makers:
        a, b = make(), make()
        assert not a == b
        assert a in [b, a]
        assert len({a, b}) == 2
