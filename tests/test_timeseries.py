from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag.errors import InsufficientDataError, LeadLagError
from leadlag.timeseries import (Panel, locf_impute, loess_smooth, minmax_scale, row_median,
                                zscore_scale)

from conftest import START, panel

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NAN = float("nan")


# ---------------------------------------------------------------- containers

def test_timeseries_rejects_empty():
    with pytest.raises(LeadLagError, match="empty series"):
        panel({"T1": []})
    with pytest.raises(LeadLagError, match="empty series"):
        locf_impute([[]])


def test_timeseries_dates_are_consecutive():
    p = panel({"T1": [1, 2, 3]})
    assert p.n_days == 3
    assert p.end_date == START + timedelta(days=2)


def test_panel_rejects_misaligned_series():
    with pytest.raises(LeadLagError, match="misaligned"):
        Panel(START, ("T1", "T2"), np.ones((1, 3)))


def test_panel_requires_a_series():
    with pytest.raises(LeadLagError, match="panel has no series"):
        Panel(START, (), np.ones((0, 3)))


def test_panel_requires_sorted_unique_geo_ids():
    with pytest.raises(LeadLagError, match="sorted"):
        Panel(START, ("T2", "T1"), np.ones((2, 3)))
    with pytest.raises(LeadLagError, match="sorted"):
        Panel(START, ("T1", "T1"), np.ones((2, 3)))
    # numpy's text arrays drop a trailing NUL, so intersect1d would read
    # "T1" and "T1\0" as one Trust
    for geo_ids in (("T1", "T1\0"), ("T\x001",)):
        with pytest.raises(LeadLagError, match="unique and sorted, with no NUL"):
            Panel(START, geo_ids, np.ones((len(geo_ids), 3)))


def test_panel_values_are_read_only():
    p = Panel(START, ("T1",), np.ones((1, 3)))
    with pytest.raises(ValueError):
        p.values[0, 0] = 2.0
    assert panel({"T1": [1, 2]}).values.dtype == float


# ---------------------------------------------------------------------- locf

def test_locf_fills_gaps_forward():
    out = locf_impute([[1, NAN, NAN, 4]])
    assert out.tolist() == [[1, 1, 1, 4]]


def test_locf_backfills_leading_gap():
    out = locf_impute([[NAN, 2, NAN]])
    assert out.tolist() == [[2, 2, 2]]


def test_locf_identity_on_complete():
    out = locf_impute([[5]])
    assert out.tolist() == [[5]]


def test_locf_all_missing_errors():
    with pytest.raises(LeadLagError, match="empty series"):
        locf_impute([[NAN, NAN]])
    with pytest.raises(LeadLagError, match="empty series"):
        locf_impute([[1.0, 2.0], [NAN, NAN]])


def test_locf_rows_are_independent():
    out = locf_impute([[NAN, 1, NAN], [3, NAN, 4]])
    assert out.tolist() == [[1, 1, 1], [3, 3, 4]]


@given(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=1, max_size=40)
       .filter(lambda v: any(x is not None for x in v)))
def test_locf_idempotent(values):
    once = locf_impute(np.array([[np.nan if v is None else v for v in values]]))
    assert not np.isnan(once).any()
    assert np.array_equal(locf_impute(once), once)


# ---------------------------------------------------------------- day slices

def test_slice_full_range_is_identity():
    p = panel({"T1": [1, 2, 3, 4]})
    assert np.array_equal(p.values[:, p.day_slice(START, p.end_date)], p.values)


def test_slice_interior_window():
    p = panel({"T1": range(10)})
    cols = p.day_slice(START + timedelta(days=3), START + timedelta(days=5))
    assert p.values[0, cols].tolist() == [3, 4, 5]


def test_slice_outside_range_errors():
    p = panel({"T1": [1, 2, 3]})
    with pytest.raises(LeadLagError, match="empty slice"):
        p.day_slice(START - timedelta(days=9), START - timedelta(days=5))


def test_slice_start_after_end_errors():
    p = panel({"T1": [1, 2, 3]})
    with pytest.raises(LeadLagError):
        p.day_slice(p.end_date, START)


def test_slice_idempotent():
    p = panel({"T1": range(10)})
    start, end = START + timedelta(days=2), START + timedelta(days=20)  # clipped at the end
    a = p.values[:, p.day_slice(start, end)]
    sub = Panel(start, p.geo_ids, a)
    assert np.array_equal(sub.values[:, sub.day_slice(start, end)], a)
    assert sub.end_date == p.end_date


# ------------------------------------------------------------------- scaling

def test_minmax_basic():
    out = minmax_scale([[2, 4, 6], [-1, 0, 1]])
    assert out.tolist() == [[0, 0.5, 1], [0, 0.5, 1]]


def test_minmax_constant_reads_zero():
    out = minmax_scale([[7, 7, 7], [1, 2, 3]])
    assert out.tolist() == [[0, 0, 0], [0, 0.5, 1]]
    assert out.any(axis=1).tolist() == [False, True]


def test_minmax_requires_complete():
    with pytest.raises(LeadLagError, match="complete"):
        minmax_scale([[1, NAN]])
    for bad in (np.inf, -np.inf):
        with pytest.raises(LeadLagError, match="complete"):
            minmax_scale([[1, bad, 2]])


@given(st.lists(st.floats(-1e5, 1e5), min_size=2, max_size=50)
       .filter(lambda v: max(v) > min(v)))
def test_minmax_range_property(values):
    out = minmax_scale([values])[0]
    assert out.min() == 0.0 and out.max() == 1.0
    assert ((out >= 0) & (out <= 1)).all()


def test_zscore_basic():
    out = zscore_scale([[1, 2, 3]])
    assert np.allclose(out, [[-1, 0, 1]], atol=1e-15)
    out = zscore_scale([[2, 4]])
    assert np.allclose(out, [[-np.sqrt(0.5), np.sqrt(0.5)]], atol=1e-15)


def test_zscore_constant_reads_zero():
    out = zscore_scale([[3, 3, 3], [1, 2, 3]])
    assert out[0].tolist() == [0, 0, 0]
    assert out.any(axis=1).tolist() == [False, True]


def test_zscore_too_short_errors():
    with pytest.raises(InsufficientDataError):
        zscore_scale([[1]])


@given(st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=60)
       .filter(lambda v: max(v) - min(v) > 1e-6))
def test_zscore_moments_property(values):
    out = zscore_scale([values])[0]
    assert abs(out.mean()) < 1e-12
    assert abs(out.std(ddof=1) - 1.0) < 1e-12


# --------------------------------------------------------------------- loess

def smooth(y, **kw):
    """LOESS of a single series."""
    return loess_smooth([y], **kw)[0]


def _naive_loess(y, span, degree):
    # direct per-point weighted polynomial fit, the independent reference
    n = y.size
    q = int(np.ceil(span * n))
    h1 = (q - 1) // 2
    out = np.empty(n)
    for i in range(n):
        lo = min(max(i - h1, 0), n - q)
        idx = np.arange(lo, lo + q)
        dist = np.abs(idx - i).astype(float)
        w = (1 - (dist / dist.max()) ** 3) ** 3
        X = np.vander(idx - i, degree + 1, increasing=True).astype(float)
        sw = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(X * sw[:, None], y[idx] * sw, rcond=None)
        out[i] = beta[0]
    return out


def test_loess_constant_unchanged():
    for span, degree in [(0.3, 1), (0.5, 2), (1.0, 2)]:
        out = smooth([4.0] * 30, span=span, degree=degree)
        assert np.allclose(out, 4.0, atol=1e-9)


def test_loess_reproduces_line():
    y = 2.5 * np.arange(40.0) - 3.0
    for degree in (1, 2):
        out = smooth(y, span=0.3, degree=degree)
        assert np.allclose(out, y, atol=1e-9)


def test_loess_denoises_sine():
    rng = np.random.default_rng(11)
    t = np.linspace(0, 4 * np.pi, 200)
    clean = np.sin(t)
    noisy = clean + rng.normal(0, 0.2, size=200)
    smoothed = smooth(noisy, span=0.15, degree=2)
    mse_raw = np.mean((noisy - clean) ** 2)
    mse_smooth = np.mean((smoothed - clean) ** 2)
    assert mse_smooth < mse_raw


def test_loess_window_too_small_errors():
    with pytest.raises(InsufficientDataError):
        smooth(range(10), span=0.2, degree=2)  # window of 2 points


@pytest.mark.parametrize("kw, message", [
    (dict(span=0.0), "span must be in"),
    (dict(span=1.5), "span must be in"),
    (dict(degree=3), "degree must be 1 or 2"),
], ids=["span-zero", "span-above-1", "degree-3"])
def test_loess_settings_out_of_range_error(kw, message):
    with pytest.raises(LeadLagError, match=message):
        smooth(np.arange(30.0), **kw)


@pytest.mark.parametrize("kernel", [locf_impute, minmax_scale, zscore_scale, loess_smooth])
def test_kernels_take_one_series_per_row(kernel):
    with pytest.raises(LeadLagError, match="one series per row"):
        kernel(np.arange(30.0))


def test_loess_matches_naive_reference():
    rng = np.random.default_rng(5)
    y = rng.normal(size=80).cumsum()
    for span, degree in [(0.15, 2), (0.25, 1), (0.4, 2)]:
        fast = smooth(y, span=span, degree=degree)
        assert np.allclose(fast, _naive_loess(y, span, degree), atol=1e-9)


@given(st.floats(-5, 5).filter(lambda a: abs(a) > 1e-3), st.floats(-10, 10))
@settings(max_examples=25, deadline=None)
def test_loess_commutes_with_affine(a, b):
    rng = np.random.default_rng(7)
    y = rng.normal(size=60).cumsum()
    base = smooth(y, span=0.25, degree=2)
    mapped = smooth(a * y + b, span=0.25, degree=2)
    assert np.allclose(mapped, a * base + b, atol=1e-9)


def _naive_robust_loess(y, span, degree, passes):
    # per-point weighted fits with bisquare reweighting, the robust reference
    n = y.size
    q = int(np.ceil(span * n))
    h1 = (q - 1) // 2
    rob = np.ones(n)
    for _ in range(passes + 1):
        out = np.empty(n)
        for i in range(n):
            lo = min(max(i - h1, 0), n - q)
            idx = np.arange(lo, lo + q)
            dist = np.abs(idx - i).astype(float)
            w = (1 - (dist / dist.max()) ** 3) ** 3 * rob[idx]
            X = np.vander(idx - i, degree + 1, increasing=True).astype(float)
            sw = np.sqrt(w)
            beta, *_ = np.linalg.lstsq(X * sw[:, None], y[idx] * sw, rcond=None)
            out[i] = beta[0]
        resid = y - out
        s6 = 6.0 * np.median(np.abs(resid))
        if s6 == 0.0:
            break
        rob = np.clip(1.0 - (resid / s6) ** 2, 0.0, None) ** 2
    return out


def test_loess_robust_matches_naive_reference():
    rng = np.random.default_rng(8)
    y = rng.normal(size=70).cumsum()
    y[[10, 40]] += 25.0  # outliers the reweighting must discount
    for passes in (1, 2):
        fast = smooth(y, span=0.25, degree=2, robustness_passes=passes)
        assert np.allclose(fast, _naive_robust_loess(y, 0.25, 2, passes), atol=1e-9)
    # an exact fit leaves no residual scale, so the reweighting stops after one fit
    assert smooth(np.zeros(70), span=0.25, degree=2, robustness_passes=2).tolist() == [0.0] * 70


# ----------------------------------------------------------- rows of a panel

def test_row_wise_kernels_match_single_series():
    # a batch mixing constant and varying rows gives each row its own result
    rng = np.random.default_rng(21)
    batch = np.vstack([rng.normal(size=(3, 50)).cumsum(axis=1), np.full((1, 50), 2.5),
                       rng.normal(size=(2, 50))])
    for kernel in (minmax_scale, zscore_scale):
        out = kernel(batch)
        for k, values in enumerate(batch):
            assert np.array_equal(out[k], kernel([values])[0])
            assert out[k].any() == (k != 3)
    # window of 10 points: 4 one-sided fits at the start, 5 at the end; the
    # interior does not depend on the other rows to the last bit
    smoothed = loess_smooth(batch, span=0.2, degree=2)
    for k, values in enumerate(batch):
        alone = smooth(values, span=0.2, degree=2)
        assert np.array_equal(smoothed[k, 4:-5], alone[4:-5])
        assert np.allclose(smoothed[k], alone, rtol=1e-13, atol=1e-13)
        assert np.allclose(smoothed[k], _naive_loess(values, 0.2, 2), atol=1e-9)


def test_loess_repeat_is_bit_identical():
    values = np.random.default_rng(4).standard_normal((3, 61))
    smoothed = loess_smooth(values, span=0.3, degree=2)
    assert loess_smooth(values, span=0.3, degree=2).tobytes() == smoothed.tobytes()


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 76, 77])
def test_row_median_matches_numpy_to_the_bit(size):
    rng = np.random.default_rng(size)
    for values in (rng.standard_normal((5, size)) * 10.0 ** rng.integers(-5, 5, (5, 1)),
                   rng.integers(-3, 4, (5, size)) / 2.0):  # half-integers with ties
        assert row_median(values).tobytes() == np.median(values, axis=1).tobytes()
        assert row_median(values[0]).tobytes() == np.median(values[0]).tobytes()
