import numpy as np
import pytest

from leadlag.errors import LeadLagError
from leadlag.synth import (
    IndicatorSpec,
    SynthSpec,
    derive_indicator,
    generate_admissions,
    generate_indicators,
    ground_truth,
)

from conftest import row


def spec(**kw):
    base = dict(n_trusts=2, n_days=120, peak_day=50.0, rise_width=8.0,
                fall_width=14.0, amplitude=100.0, seed=1)
    base.update(kw)
    return SynthSpec(**base)


def test_zero_amplitude_gives_zero_panel():
    adm = generate_admissions(spec(amplitude=0.0))
    assert adm.geo_ids == ("T000", "T001")
    assert np.all(adm.values == 0.0)


def test_peak_location():
    adm = generate_admissions(spec(peak_day=50.0))
    values = row(adm, "T000")
    assert int(np.argmax(values)) == 50


def test_identical_parameters_identical_series():
    adm = generate_admissions(spec())
    a = row(adm, "T000")
    b = row(adm, "T001")
    assert np.array_equal(a, b)


def test_per_trust_parameters():
    adm = generate_admissions(spec(amplitude=(50.0, 150.0)))
    peak0 = row(adm, "T000").max()
    peak1 = row(adm, "T001").max()
    assert peak1 == pytest.approx(3 * peak0)
    with pytest.raises(LeadLagError, match="per-trust"):
        generate_admissions(spec(amplitude=(1.0, 2.0, 3.0)))


def test_noiseless_lead_zero_is_bit_identical():
    adm = generate_admissions(spec())
    ind = derive_indicator(adm, lead=0, noise_sd=0.0, decay_rate=0.0)
    assert ind.geo_ids == adm.geo_ids
    assert np.array_equal(ind.values, adm.values)


def test_lead_trims_and_shifts():
    adm = generate_admissions(spec())
    ind = derive_indicator(adm, lead=10)
    assert ind.n_days == 110
    assert ind.start_date == adm.start_date
    assert np.array_equal(row(ind, "T000"), row(adm, "T000")[10:])


def test_negative_lead():
    adm = generate_admissions(spec())
    ind = derive_indicator(adm, lead=-5)
    assert ind.n_days == 115
    assert ind.start_date == adm.start_date.replace(day=adm.start_date.day + 5)
    assert np.array_equal(row(ind, "T000"), row(adm, "T000")[:-5])


def test_lead_too_large_errors():
    adm = generate_admissions(spec())
    with pytest.raises(LeadLagError, match="lead"):
        derive_indicator(adm, lead=120)


def test_noise_determinism():
    adm = generate_admissions(spec())
    a = derive_indicator(adm, 5, noise_sd=0.1, seed=7).values
    b = derive_indicator(adm, 5, noise_sd=0.1, seed=7).values
    c = derive_indicator(adm, 5, noise_sd=0.1, seed=8).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derived_lead_recovered_by_ccf():
    from leadlag.timeseries import minmax_scale
    from leadlag.xcorr import ccf_at_leads, optimal_lead

    s = spec(n_days=210, peak_day=50.0, rise_width=7.0, fall_width=11.0,
             extra_peaks=(60.0, 125.0))
    adm = generate_admissions(s)
    x = derive_indicator(adm, 10).values
    y = adm.values[:, : x.shape[1]]
    leads = np.arange(-30, 31)
    best = optimal_lead(leads, ccf_at_leads(minmax_scale(x)[0], minmax_scale(y)[0], leads)[0])
    assert best[0] == 10


def test_ground_truth_roundtrip():
    s = spec(indicators=(("a", IndicatorSpec(lead=14)),
                         ("b", IndicatorSpec(lead=-3, noise_sd=0.1))))
    assert ground_truth(s) == {"a": 14, "b": -3}
    panels = generate_indicators(s, generate_admissions(s))
    assert set(panels) == {"a", "b"}


def test_indicator_lead_bounds():
    with pytest.raises(LeadLagError, match="lead"):
        IndicatorSpec(lead=36)
