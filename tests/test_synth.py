import hashlib

import numpy as np
import pytest

from leadlag.corpus import write_corpus
from leadlag.errors import ConfigError, LeadLagError
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


@pytest.mark.parametrize("lead", [-7, 0, 9])
def test_indicator_follows_its_formula(lead):
    adm = generate_admissions(spec())
    ind = derive_indicator(adm, lead, decay_rate=0.02)
    offset = (ind.start_date - adm.start_date).days
    assert ind.n_days == adm.n_days - abs(lead)
    for t in range(ind.n_days):
        expected = np.exp(-0.02 * t) * adm.values[:, offset + t + lead]
        assert np.array_equal(ind.values[:, t], expected), t


def test_trust_ids_sort_at_every_count():
    assert SynthSpec(n_trusts=1000).trust_ids()[-1] == "T999"
    ids = SynthSpec(n_trusts=1001).trust_ids()
    assert (ids[0], ids[-1]) == ("T0000", "T1000") and ids == sorted(ids)


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
    # a negative decay rate overflows exp() within 200 days, and NaN passes `< 0`
    for spec_kw, message in ((dict(lead=36), "lead"),
                             (dict(noise_sd=-0.1), "noise_sd must be >= 0"),
                             (dict(noise_sd=float("nan")), "noise_sd must be >= 0"),
                             (dict(decay_rate=-5.0), "decay_rate must be >= 0"),
                             (dict(decay_rate=float("nan")), "decay_rate must be >= 0")):
        with pytest.raises(LeadLagError, match=message):
            IndicatorSpec(**{"lead": 5, **spec_kw})


def test_synth_spec_refuses_a_negative_seed():
    # numpy refuses it only when the first indicator's noise is drawn
    for seed in (-1, -2000):
        with pytest.raises(ConfigError, match=f"^seed must be >= 0, got {seed}$"):
            SynthSpec(seed=seed)


# SHA-256 of every file `leadlag synth` writes for two small corpora: the
# second has an indicator with usership decay (ind04).  The benchmark
# generates its inputs with write_corpus, so its bytes must not move.
PINNED_CORPORA = {
    "4x240x2x2-seed5": (dict(n_trusts=4, n_days=240, n_indicators=2, n_waves=2, seed=5), {
        "admissions.csv": "a2a9152f2819eea4d9211e59e2dbba5a9179e2d753a52df29a58c4f00dd751eb",
        "config.yaml": "8d053dacbbc1bf8de277e48a290e3e37fe3f7b91f7aefc39e3c0c1710fea814b",
        "indicators/ind00.csv": "8adcb522c13c7408b3400b0da4934e724b5bc134af9a8f46fd2706387c44506a",
        "indicators/ind01.csv": "0713237bec945e7f89d6254d28a5d1a380333f1f56db2cef6ab798d0b06fe44e",
        "mapping.csv": "b56123e08bc8268a1c43209051bc8b8d06061394af110d23902946143f3fe2f7",
        "population.csv": "a5dba0eb9df4e15ced79260d8b69559602694a7b0d7772fa43bea0354596d26e",
    }),
    "3x160x6x1-seed11": (dict(n_trusts=3, n_days=160, n_indicators=6, n_waves=1, seed=11), {
        "admissions.csv": "f2ebd2dd34b0e7a661182cc5448e832e45c2c931dbab25ab25f3d5f5bfc70cc6",
        "config.yaml": "d96a7ddbc56a6e15039248d26a2efce65c3934f445ea6c3e79c353bab1d662bb",
        "indicators/ind00.csv": "da1407661f6bdbf15e48d348bc670bc33663ef1551dc70a73eec2ca09dcb5bd3",
        "indicators/ind01.csv": "b3e87855af1bedba7e27bd6a8e9b76615c515a025723a5bbc45d872212d12190",
        "indicators/ind02.csv": "661d49b8560d714f3d46b5c12c6b20c3914bc04c18404410a1cebfa4d8baad08",
        "indicators/ind03.csv": "3f7706cb142ce972010c2cbcad463e6c000d73c3b88675be43deac91a2fc646f",
        "indicators/ind04.csv": "eec1d21fb5428ba1c3660852ab6638e9319880e8b04389f7dd0d301c07801da4",
        "indicators/ind05.csv": "a2afb7132ea10653862366b6b1e209708be6eef8600b37670f184c0f37f2f027",
        "mapping.csv": "c9f0f6a4722f033b8675e71a4b463ee76a4420121dee786aaf4bd52aef2190a5",
        "population.csv": "6ca6a91b25eb69310c75a8625712cac546a31b0c6590d539d64a6c7df6b86ec5",
    }),
}


def test_write_corpus_bytes_are_pinned(tmp_path):
    for corpus, (sizes, digests) in PINNED_CORPORA.items():
        out = tmp_path / corpus
        paths = write_corpus(out, **sizes)
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert written == sorted(digests), corpus
        assert {key: path.relative_to(out).as_posix() for key, path in paths.items()} == {
            name.split("/")[-1].split(".")[0]: name for name in digests}, corpus
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (corpus, name)
