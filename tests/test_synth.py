import hashlib

import numpy as np
import pytest

from leadlag.corpus import write_corpus
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
    from leadlag.xcorr import ccf_at_leads

    from oracles import optimal_lead

    s = spec(n_days=210, peak_day=50.0, rise_width=7.0, fall_width=11.0,
             extra_peaks=(60.0, 125.0))
    adm = generate_admissions(s)
    x = derive_indicator(adm, 10).values
    y = adm.values[:, : x.shape[1]]
    leads = np.arange(-30, 31)
    best = optimal_lead(leads, ccf_at_leads(minmax_scale(x), minmax_scale(y), leads)[0])
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
    with pytest.raises(LeadLagError, match="noise_sd"):
        IndicatorSpec(lead=5, noise_sd=-0.1)


# SHA-256 of every file `leadlag synth` writes for a small corpus.  The
# benchmark generates its inputs with write_corpus, so its bytes must not move.
CORPUS_DIGESTS = {
    "admissions.csv": "a2a9152f2819eea4d9211e59e2dbba5a9179e2d753a52df29a58c4f00dd751eb",
    "config.yaml": "8d053dacbbc1bf8de277e48a290e3e37fe3f7b91f7aefc39e3c0c1710fea814b",
    "indicators/ind00.csv": "8adcb522c13c7408b3400b0da4934e724b5bc134af9a8f46fd2706387c44506a",
    "indicators/ind01.csv": "0713237bec945e7f89d6254d28a5d1a380333f1f56db2cef6ab798d0b06fe44e",
    "mapping.csv": "b56123e08bc8268a1c43209051bc8b8d06061394af110d23902946143f3fe2f7",
    "population.csv": "a5dba0eb9df4e15ced79260d8b69559602694a7b0d7772fa43bea0354596d26e",
}


def test_write_corpus_bytes_are_pinned(tmp_path):
    paths = write_corpus(tmp_path, n_trusts=4, n_days=240, n_indicators=2, n_waves=2, seed=5)
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(CORPUS_DIGESTS)
    assert {key: path.relative_to(tmp_path).as_posix() for key, path in paths.items()} == {
        "admissions": "admissions.csv", "ind00": "indicators/ind00.csv",
        "ind01": "indicators/ind01.csv", "mapping": "mapping.csv",
        "population": "population.csv", "config": "config.yaml"}
    for name, digest in CORPUS_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
