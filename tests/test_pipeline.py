from datetime import date, timedelta

import numpy as np
import pytest

from leadlag.config import LatencySpec, RunConfig, WaveSpec
from leadlag.errors import ConfigError, LeadLagError
from leadlag.geo import build_mapping
from leadlag.pipeline import effective_lead, filter_trusts, run_analysis
from leadlag.synth import IndicatorSpec, SynthSpec, generate_admissions, generate_indicators
from leadlag.timeseries import Panel

from conftest import START, panel

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


# ------------------------------------------------------------- filter_trusts

def _admissions_panel(totals: dict[str, int]) -> Panel:
    series = {}
    for trust, total in totals.items():
        values = np.zeros(30)
        values[:10] = total / 10
        series[trust] = values
    return panel(series, "admissions", start=date(2022, 1, 1))


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

def test_recovers_injected_lead_in_ccf_rows():
    adm, indicators = synth_inputs(lead=10)
    rows = run_analysis(study_config(), adm, indicators, identity_mapping(),
                        methods=("ccf",))
    ccf_rows = [r for r in rows if r.method == "ccf" and r.optimal_lead is not None]
    assert ccf_rows
    for row in ccf_rows:
        assert abs(row.optimal_lead - 10) <= 1


def test_row_grid_is_complete():
    adm, indicators = synth_inputs()
    config = study_config()
    rows = run_analysis(config, adm, indicators, identity_mapping())
    # granger yields two rows per cell (horizon 0 and 14), ccf and dtw one each
    expected = len(config.waves) * 3 * len(indicators) * 4
    assert len(rows) == expected
    keys = {(r.trust_id, r.indicator, r.wave, r.method) for r in rows}
    assert len(keys) == expected


def test_constant_indicator_degenerate_rows():
    adm, _ = synth_inputs()
    const = panel({t: np.full(N_DAYS, 3.0) for t in adm.geo_ids}, "flat")
    rows = run_analysis(study_config(), adm, {"flat": const}, identity_mapping())
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
    wave1_only = Panel(full.level, full.variable, full.start_date, full.geo_ids,
                       full.values[:, cols])
    rows = run_analysis(study_config(), adm, {"ind": wave1_only}, identity_mapping())
    w2 = [r for r in rows if r.wave == "w2"]
    assert w2
    for row in w2:
        assert row.truncated
        assert row.p_value is None and row.optimal_lead is None
        assert row.error
    w1 = [r for r in rows if r.wave == "w1" and r.method == "ccf"]
    assert any(r.optimal_lead is not None for r in w1)


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
    perturbed = Panel(base.level, base.variable, base.start_date, base.geo_ids, values)
    base_s = loess_smooth(base.values, 0.08, 2)
    pert_s = loess_smooth(values, 0.08, 2)
    # precondition: the whole-period scaling anchors stay put
    assert np.array_equal(base_s.min(axis=1), pert_s.min(axis=1))
    assert np.array_equal(base_s.max(axis=1), pert_s.max(axis=1))

    rows_base = run_analysis(study_config(), adm, indicators, identity_mapping())
    rows_pert = run_analysis(study_config(), adm, {"ind": perturbed}, identity_mapping())

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
    adm, indicators = synth_inputs()
    config = study_config(latencies={"ind": LatencySpec(2, 7)})
    rows = run_analysis(config, adm, indicators, identity_mapping())
    for row in rows:
        if row.effective_lead is None:
            continue
        statistical = row.optimal_lead if row.method == "ccf" else row.dtw_median_lead
        assert row.effective_lead <= statistical


def test_univariate_dtw_mode():
    adm, indicators = synth_inputs()
    rows = run_analysis(study_config(dtw_mode="univariate"), adm, indicators,
                        identity_mapping(), methods=("dtw",))
    leads = [r.dtw_median_lead for r in rows if r.dtw_median_lead is not None]
    assert leads and all(7 <= lead <= 13 for lead in leads)


def test_multivariate_dtw_shared_across_trusts():
    adm, indicators = synth_inputs()
    rows = run_analysis(study_config(), adm, indicators, identity_mapping(),
                        methods=("dtw",))
    for wave in ("w1", "w2"):
        values = {r.dtw_median_lead for r in rows if r.wave == wave}
        assert len(values) == 1  # one joint alignment per indicator and wave


def test_ltla_panel_is_mapped():
    adm, indicators = synth_inputs()
    trust_panel = indicators["ind"]
    ltla_panel = Panel("ltla", "ind", trust_panel.start_date,
                       tuple(f"L{i:03d}" for i in range(3)), trust_panel.values)
    rows = run_analysis(study_config(), adm, {"ind": ltla_panel},
                        identity_mapping(), methods=("ccf",))
    good = [r for r in rows if r.optimal_lead is not None]
    assert good and all(abs(r.optimal_lead - 10) <= 1 for r in good)


def test_unknown_method_is_config_error():
    adm, indicators = synth_inputs()
    with pytest.raises(ConfigError, match="unknown methods: wavelets"):
        run_analysis(study_config(), adm, indicators, identity_mapping(),
                     methods=("ccf", "wavelets"))


def test_batch_mixing_degenerate_and_missing_trusts():
    # T001's indicator is constant and T002 has none; T000 must come out as
    # it does when analysed alone
    adm, indicators = synth_inputs()
    ind = indicators["ind"]
    values = ind.values[:2].copy()
    values[1] = 3.0
    mixed = Panel("trust", "ind", ind.start_date, ("T000", "T001"), values)
    rows = run_analysis(study_config(), adm, {"ind": mixed}, identity_mapping())
    alone = run_analysis(study_config(), adm, {"ind": panel({"T000": values[0]}, "ind",
                                                            start=ind.start_date)},
                         identity_mapping(), methods=("granger", "ccf"))
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
