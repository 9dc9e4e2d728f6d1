from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leadlag.config import LatencySpec, RunConfig, WaveSpec
from leadlag.errors import InsufficientDataError, LeadLagError
from leadlag.pipeline import _ccf_cells, effective_leads, run_analysis
from leadlag.timeseries import minmax_scale
from leadlag.xcorr import ccf_at_leads, optimal_leads

from conftest import START, panel, records
from oracles import effective_lead, optimal_lead

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LEADS = np.arange(-30, 31)


def literal_ccf(xv, yv, d):
    """Direct transcription of the delay formula (lead = -d); the reference."""
    n = len(xv)
    mx = sum(xv) / n
    my = sum(yv) / n
    num = 0.0
    for t in range(n):
        if 0 <= t - d < n:
            num += (xv[t] - mx) * (yv[t - d] - my)
    den = (sum((v - mx) ** 2 for v in xv) ** 0.5) * (sum((v - my) ** 2 for v in yv) ** 0.5)
    return num / den


def wave(n, period=50.0):
    return np.sin(2 * np.pi * np.arange(n) / period) + 1.5


def ccf(x, y, leads):
    """Profile of a single pair."""
    return ccf_at_leads([x], [y], leads)[0]


def at(x, y, lead):
    return float(ccf(x, y, [lead])[0])


# --------------------------------------------------------------- ccf_at_leads

def test_self_correlation_is_one():
    s = wave(60)
    assert at(s, s, 0) == pytest.approx(1.0, abs=1e-12)


def test_negated_series_is_minus_one():
    v = np.array([1.0, -2.0, 3.0, -2.0])  # zero mean
    assert at(v, -v, 0) == pytest.approx(-1.0, abs=1e-12)


def test_matches_literal_formula_and_peaks_at_shift():
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    y = np.roll(x, 2)  # y is x two days later
    leads = np.arange(-3, 4)
    values = ccf(x, y, leads)
    for lead, got in zip(leads, values):
        assert got == pytest.approx(literal_ccf(x, y, -lead), abs=1e-12)
    assert leads[np.argmax(values)] == 2


def test_constant_series_reads_nan():
    out = ccf_at_leads([[1.0] * 5, wave(5)], [wave(5), wave(5)], [-1, 0, 1])
    assert np.isnan(out[0]).all()
    assert out[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_constant_series_with_inexact_mean_reads_nan():
    # 0.1 has no exact mean over 20 days, so its centred sum of squares is
    # about 4e-33, not 0: the row is still constant
    out = ccf_at_leads([[0.1] * 20, wave(20)], [wave(20), [0.1] * 20], [-3, 0, 3])
    assert np.isnan(out).all()


def test_row_whose_sum_of_squares_would_underflow_reads_its_correlation():
    # about 1e-340 per day would underflow to a zero sum of squares; a row is
    # scaled by a power of two first, so it reads its correlation on either
    # side, and a constant row of that size still reads NaN
    shape = np.array([1.0, 2.0, 3.0, 5.0, 4.0, 2.0, 1.0, 3.0])
    tiny, flat, s, leads = shape * 1e-170, np.full(8, 1e-170), wave(8), [-2, 0, 2]
    out = ccf_at_leads([tiny, s, flat, s], [s, tiny, s, flat], leads)
    scaled = tiny * 2.0**600
    assert out[:2].tobytes() == ccf_at_leads([scaled, s], [s, scaled], leads).tobytes()
    np.testing.assert_allclose(out[:2], ccf_at_leads([shape, s], [s, shape], leads),
                               rtol=0, atol=1e-12)
    assert np.isnan(out[2:]).all()


def test_row_near_the_largest_float_reads_its_correlation():
    # its sum of squares would overflow to inf and every lead read 0
    shape = [[1.0, 2.0, 3.0, 5.0, 4.0, 2.0, 1.0, 3.0]]
    y = [[1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0]]
    out = ccf_at_leads(np.array(shape) * 1e160, y, [0, 1])
    np.testing.assert_allclose(out, ccf_at_leads(shape, y, [0, 1]), rtol=0, atol=1e-12)
    assert out[0, 0] == pytest.approx(0.6975, abs=1e-4)


# magnitudes that stay normal when scaled by any power of two in [-1000, 1000]
NORMAL_VALUES = st.just(0.0) | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6)


@given(st.integers(6, 20).flatmap(lambda n: st.lists(
           st.lists(NORMAL_VALUES, min_size=n, max_size=n), min_size=2, max_size=2)),
       st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_ccf_does_not_depend_on_a_row_scale(rows, k, j):
    x, y = np.array(rows)
    leads = [-3, -1, 0, 2, 3]
    assert (ccf_at_leads([x * 2.0**k], [y * 2.0**j], leads).tobytes()
            == ccf_at_leads([x], [y], leads).tobytes())


def test_constant_series_errors():
    # the CCF rows of a constant indicator record the zero variance
    adm = panel({"T1": wave(120) * 50, "T2": wave(120, 40.0) * 50})
    flat = panel({"T1": np.full(120, 2.0), "T2": wave(120)})
    config = RunConfig(waves=(WaveSpec("w", START + timedelta(days=20),
                                       START + timedelta(days=100)),),
                       admissions_filter_start=START,
                       admissions_filter_end=START + timedelta(days=119))
    rows = records(run_analysis(config, adm, {"flat": flat}, None, methods=("ccf",)))
    assert [(r.trust_id, r.error, r.degenerate) for r in rows] == [
        ("T1", "zero variance", True), ("T2", "", False)]


def test_large_delay_errors():
    s = wave(10)
    with pytest.raises(InsufficientDataError, match="lead 8 too large"):
        ccf(s, s, [0, 8])


def test_misaligned_or_missing_input_rejected():
    with pytest.raises(LeadLagError, match="aligned"):
        ccf_at_leads([wave(10)], [wave(11)], [0])
    with pytest.raises(LeadLagError, match="aligned"):
        ccf_at_leads(wave(10), wave(10), [0])  # one series per row
    with pytest.raises(LeadLagError, match="complete"):
        ccf_at_leads([[1.0, np.nan, 2.0, 3.0, 4.0]], [wave(5)], [0])
    for bad in (np.inf, -np.inf):
        with pytest.raises(LeadLagError, match="complete"):
            ccf_at_leads([[1.0, bad, 2.0, 3.0, 4.0]], [wave(5)], [0])
        with pytest.raises(LeadLagError, match="complete"):
            ccf_at_leads([wave(5)], [[1.0, 2.0, bad, 3.0, 4.0]], [0])


def test_batched_rows_match_literal_formula():
    # a batch mixing constant and varying rows: each row is its own pair
    rng = np.random.default_rng(14)
    x = rng.normal(size=(5, 40)).cumsum(axis=1)
    y = rng.normal(size=(5, 40)).cumsum(axis=1)
    x[1] = 4.0
    y[3] = -2.0
    leads = np.arange(-6, 7)
    out = ccf_at_leads(x, y, leads)
    assert out.shape == (5, leads.size)
    for k in range(5):
        if k in (1, 3):
            assert np.isnan(out[k]).all()
            continue
        expected = [literal_ccf(x[k], y[k], -lead) for lead in leads]
        assert np.allclose(out[k], expected, rtol=1e-12, atol=1e-14)
        assert np.array_equal(out[k], ccf(x[k], y[k], leads))


# ---------------------------------------------------------------- profiles

def test_profile_peaks_at_zero_for_identical():
    s = wave(80)
    leads = np.arange(-10, 11)
    p = ccf(s, s, leads)
    assert p[10] == pytest.approx(1.0, abs=1e-12)
    assert optimal_lead(leads, p) == (0, pytest.approx(1.0, abs=1e-12))


def test_profile_mirrors_when_roles_swap():
    rng = np.random.default_rng(4)
    core = rng.normal(size=40)
    padded = np.concatenate([np.zeros(15), core, np.zeros(15)])
    shifted = np.roll(padded, 4)
    leads = np.arange(-8, 9)
    p_ab = ccf(padded, shifted, leads)
    p_ba = ccf(shifted, padded, leads)
    assert np.allclose(p_ab, p_ba[::-1], atol=1e-9)


def test_white_noise_profile_small():
    # Monte Carlo oracle: 99th percentile of the max |CCF| over 100 seeds
    pairs = [np.random.default_rng(20_000 + seed).normal(size=(2, 300))
             for seed in range(100)]
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    maxima = np.abs(ccf_at_leads(x, y, LEADS)).max(axis=1)
    assert np.quantile(maxima, 0.99) < 0.25
    assert maxima[0] < 0.25  # the seeded fixture case


def test_autocorrelation_symmetric():
    rng = np.random.default_rng(6)
    padded = np.concatenate([np.zeros(10), rng.normal(size=30), np.zeros(10)])
    p = ccf(padded, padded, np.arange(-9, 10))
    assert np.allclose(p, p[::-1], atol=1e-9)


# --------------------------------------------------------------- optimal_lead

def test_optimal_unique_maximum():
    values = np.linspace(-0.5, 0.5, 31)
    values[27] = 0.9  # lead +12
    assert optimal_lead(np.arange(-15, 16), values) == (12, 0.9)


def test_optimal_none_when_all_negative():
    values = [-0.5, -0.2, -0.9, -0.1, -0.4, -0.3, -0.6]
    assert optimal_lead(np.arange(-3, 4), values) is None
    assert optimal_lead(np.arange(-3, 4), np.full(7, np.nan)) is None


def test_optimal_tie_prefers_positive_small_lead():
    values = np.zeros(7)
    values[0] = 0.8   # lead -3
    values[6] = 0.8   # lead +3
    assert optimal_lead(np.arange(-3, 4), values) == (3, 0.8)


# a few levels, so that rows often tie at their maximum
TIE_LEVELS = st.sampled_from([-0.75, -0.5, 0.0, 0.25, 0.5, 1.0])


@st.composite
def lead_profiles(draw):
    """(leads, profile, latency): rows of ties, all-negative, zero and NaN
    (zero-variance) rows mixed with arbitrary correlations."""
    window = draw(st.integers(0, 5))
    width = 2 * window + 1
    row = st.one_of(
        st.lists(TIE_LEVELS, min_size=width, max_size=width),
        st.lists(st.floats(-1.0, 1.0), min_size=width, max_size=width),
        st.lists(st.floats(-1.0, -1e-12), min_size=width, max_size=width),
        st.just([0.0] * width),
        st.just([np.nan] * width),
    )
    rows = draw(st.lists(row, max_size=8))
    latency = draw(st.none() | st.builds(LatencySpec, st.integers(0, 10), st.integers(1, 7)))
    return np.arange(-window, window + 1), np.array(rows).reshape(len(rows), width), latency


@given(lead_profiles())
@example((np.arange(-3, 4), np.array([[0.8, 0, 0, 0, 0, 0, 0.8]]), None))  # tie at +-L
@example((np.arange(-2, 3), np.array([[0.5, 0.5, -1, 0.5, 0.5], [-0.1] * 5,
                                      [np.nan] * 5, [0.0] * 5]), LatencySpec(2, 7)))
def test_vector_lead_matches_scalar_per_row(case):
    leads, profile, latency = case
    lead, at_lead = optimal_leads(leads, profile)
    eff, eroded = effective_leads(lead, latency)
    for k, values in enumerate(profile):
        best = optimal_lead(leads, values)
        if best is None:
            assert np.isnan(lead[k]) and np.isnan(at_lead[k])
        else:
            assert (lead[k], at_lead[k]) == best
        want_eff, want_eroded = effective_lead(None if best is None else best[0], latency)
        assert (None if np.isnan(eff[k]) else eff[k], eroded[k]) == (want_eff, want_eroded)


@given(st.lists(st.none() | st.integers(-80, 80).map(lambda half: half / 2), max_size=10),
       st.builds(LatencySpec, st.integers(0, 10), st.integers(1, 7)))
def test_vector_effective_lead_matches_scalar(leads, latency):
    # DTW median leads are multiples of one half, and absent where a cell failed
    eff, eroded = effective_leads(np.array([np.nan if v is None else v for v in leads]),
                                  latency)
    assert [(None if np.isnan(e) else e, bool(f)) for e, f in zip(eff, eroded)] == \
        [effective_lead(v, latency) for v in leads]


# ------------------------------------------------------------ fixed horizon

def test_horizon_fourteen_on_shifted_wave():
    # interior bump with near-zero tails keeps the overlap-clipped terms tiny
    t = np.arange(200.0)
    y = np.exp(-((t - 100.0) ** 2) / (2 * 8.0**2))
    x = np.empty(200)
    x[:186] = y[14:]  # indicator sees admissions 14 days early
    x[186:] = y[-1]
    assert at(x, y, 14) == pytest.approx(1.0, abs=0.02)


def test_horizon_zero_identical():
    s = wave(50)
    assert at(s, s, 0) == pytest.approx(1.0, abs=1e-12)


def test_horizon_white_noise_small():
    rng = np.random.default_rng(20_000)
    x, y = rng.normal(size=300), rng.normal(size=300)
    assert abs(at(x, y, 14)) < 0.25


@st.composite
def horizon_cases(draw):
    """(x, y, ccf_window, horizon): rows of n days, constant ones among them, a
    profile window the days hold, and a horizon inside that window, outside it,
    or too long for the days."""
    n = draw(st.integers(4, 40))
    k = draw(st.integers(1, 4))
    value = st.integers(0, 2) | st.floats(-10.0, 10.0)
    x, y = (np.array(draw(st.lists(value, min_size=k * n, max_size=k * n)),
                     dtype=float).reshape(k, n) for _ in range(2))
    return x, y, draw(st.integers(1, n - 3)), draw(st.integers(0, n + 3))


@given(horizon_cases())
@example((np.vstack([wave(40), np.ones(40)]), np.vstack([wave(40, 30.0)] * 2), 30, 14))
@example((wave(40)[None], wave(40, 30.0)[None], 5, 20))  # outside the window
@example((wave(40)[None], wave(40, 30.0)[None], 30, 38))  # too long for the days
def test_ccf_at_horizon_is_the_one_lead_call(case):
    # inside the profile's window or not, the column is the one-lead call's to
    # the bit, and absent where that call refuses the lead; every other column
    # is the same at any horizon
    x, y, window, horizon = case
    config = RunConfig(waves=(WaveSpec("w", START, START + timedelta(days=1)),),
                       ccf_window=window)
    cells, at_zero = (_ccf_cells(config, x, y, h) for h in (horizon, 0))
    try:
        want = ccf_at_leads(x, y, [horizon])[:, 0]
    except InsufficientDataError:
        assert "ccf_at_horizon" not in cells
    else:
        assert cells.pop("ccf_at_horizon").tobytes() == want.tobytes()
    del at_zero["ccf_at_horizon"]
    assert cells.keys() == at_zero.keys()
    assert all(cells[k].tobytes() == at_zero[k].tobytes() for k in cells)


# ----------------------------------------------------------------- properties

def test_bounded_by_one():
    rng = np.random.default_rng(12)
    values = ccf_at_leads(rng.normal(size=(20, 60)), rng.normal(size=(20, 60)),
                          np.arange(-20, 21))
    assert np.all(np.abs(values) <= 1 + 1e-9)


def test_affine_invariance_up_to_sign():
    rng = np.random.default_rng(13)
    x, y = rng.normal(size=80), rng.normal(size=80)
    leads = np.arange(-10, 11)
    base = ccf(x, y, leads)
    for a, b, c, d in [(2.0, 3.0, 0.5, -1.0), (-1.5, 0.0, 2.0, 4.0), (-2.0, 1.0, -3.0, -2.0)]:
        mapped = ccf(a * x + b, c * y + d, leads)
        assert np.allclose(mapped, np.sign(a * c) * base, atol=1e-10)


def test_ccf_result_composition():
    # a lead's column does not depend on the other leads of the call
    s = wave(80)
    leads = np.arange(-10, 11)
    out = ccf(s, s, np.append(leads, 5))
    assert optimal_lead(leads, out[:-1]) == (0, pytest.approx(1.0, abs=1e-12))
    assert out[-1] == out[15]  # lead 5 of the profile
    assert out[-1] == pytest.approx(literal_ccf(s, s, -5), abs=1e-12)


def test_shift_recovery_on_scaled_waves():
    from leadlag.synth import SynthSpec, derive_indicator, generate_admissions

    for L in (5, 10, 20):
        spec = SynthSpec(n_trusts=1, n_days=210, peak_day=50, rise_width=7,
                         fall_width=11, amplitude=100.0, extra_peaks=(60, 125), seed=0)
        adm = generate_admissions(spec)
        x = derive_indicator(adm, L).values
        x_scaled, y_scaled = minmax_scale(np.vstack([x, adm.values[:, : x.shape[1]]]))
        best = optimal_lead(LEADS, ccf(x_scaled, y_scaled, LEADS))
        assert best is not None and best[0] == L
