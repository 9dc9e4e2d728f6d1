import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import null_space
from scipy.special import betainc, betaincc

from leadlag import granger
from leadlag.errors import InsufficientDataError, LeadLagError
from leadlag.granger import _nested_fits, _upper_tail, granger_test_batch


def granger_one(x, y, **kw):
    """The F statistic, p-value and collinear flag of a batch of one."""
    res = granger_test_batch(np.asarray(x)[None], np.asarray(y)[None], **kw)
    return res.f_stat[0], res.p_value[0], res.collinear[0]


def p_one(f, df1, df2):
    return _upper_tail(np.array([f]), df1, df2)[0]


# ------------------------------------------------------- independent oracles

def gauss_solve(A, b):
    """Dense linear solve by Gaussian elimination with partial pivoting."""
    A = [row[:] for row in A]
    b = list(b)
    n = len(b)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(A[r][col]))
        if abs(A[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular system")
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            factor = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= factor * A[col][c]
            b[r] -= factor * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / A[r][r]
    return x


def normal_equations_fit(y, columns):
    """Reference OLS through explicit (X'X)^-1 X'y."""
    X = np.column_stack([np.ones(len(y))] + list(columns))
    XtX = (X.T @ X).tolist()
    Xty = (X.T @ y).tolist()
    beta = np.array(gauss_solve(XtX, Xty))
    resid = y - X @ beta
    return beta, float(resid @ resid)


def f_density(u, df1, df2):
    log_c = (
        math.lgamma((df1 + df2) / 2) - math.lgamma(df1 / 2) - math.lgamma(df2 / 2)
        + (df1 / 2) * math.log(df1 / df2)
    )
    return math.exp(log_c + (df1 / 2 - 1) * math.log(u)
                    - ((df1 + df2) / 2) * math.log1p(df1 * u / df2))


def quadrature_pvalue(f, df1, df2):
    p, _ = quad(f_density, f, np.inf, args=(df1, df2), epsabs=1e-13, limit=300)
    return p


def lag_columns(xv, zv, m):
    """Lags 1..m of the response series ``zv`` and of ``xv``, aligned to zv[m:]."""
    n_rows = len(zv) - m
    return ([zv[m - j: m - j + n_rows] for j in range(1, m + 1)],
            [xv[m - j: m - j + n_rows] for j in range(1, m + 1)])


def reference_granger(xv, yv, m):
    """Granger F and p built only from the oracle pieces above."""
    n_rows = len(yv) - m
    resp = yv[m:]
    own, other = lag_columns(xv, yv, m)
    _, rss_r = normal_equations_fit(resp, own)
    _, rss_u = normal_equations_fit(resp, own + other)
    df1, df2 = m, n_rows - (2 * m + 1)
    f = ((rss_r - rss_u) / df1) / (rss_u / df2)
    return f, quadrature_pvalue(f, df1, df2)


# ------------------------------------------------------- least-squares fits

def _fits(y, *columns, k=1):
    """For a batch of one: the RSS of y on an intercept plus all ``columns``, the
    RSS that ``columns[k - 1:]`` remove, and the deficiency flag."""
    aug = np.column_stack([np.ones(len(y)), *columns, y])[None]
    rss, drop, deficient = _nested_fits(aug, k)
    return rss[0], drop[0], deficient[0]


def test_ols_exact_fit():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    rss, drop, deficient = _fits(2.0 * x + 3.0, x)
    assert rss < 1e-20
    assert drop == pytest.approx(20.0, rel=1e-12)  # the intercept-only RSS of [3, 5, 7, 9]
    assert not deficient


def test_ols_orthogonal_regressor():
    y = np.array([1.0, -1.0, 1.0, -1.0])
    x = np.array([1.0, 1.0, -1.0, -1.0])
    rss, drop, _ = _fits(y, x)
    assert rss == pytest.approx(4.0, abs=1e-12)
    assert drop == pytest.approx(0.0, abs=1e-12)


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.5, -2.0, 0.5]) + rng.normal(0, 0.3, size=30) + 4.0
    rss, drop, _ = _fits(y, *X.T, k=2)
    _, rss_ref = normal_equations_fit(y, [X[:, j] for j in range(3)])
    _, rss_r_ref = normal_equations_fit(y, [X[:, 0]])
    assert rss == pytest.approx(rss_ref, abs=1e-9)
    assert drop == pytest.approx(rss_r_ref - rss_ref, abs=1e-9)


def test_ols_collinear_errors():
    x = np.arange(10.0)
    assert _fits(np.ones(10), x, 2 * x)[2]
    assert not _fits(np.ones(10), x, x ** 2)[2]
    y = _noisy_wave(60, seed=4)
    assert granger_test_batch(y[None], y[None]).collinear.tolist() == [True]


def test_ols_underdetermined_errors():
    # every row has the same sample size, so too few days fail the whole batch
    rng = np.random.default_rng(6)
    for days in (9, 10):  # 6 or 7 rows cannot leave a residual degree for 7 parameters
        with pytest.raises(InsufficientDataError):
            granger_test_batch(rng.normal(size=(3, days)), rng.normal(size=(3, days)))
    assert granger_test_batch(rng.normal(size=(3, 11)),
                              rng.normal(size=(3, 11))).df_den == 1


# ------------------------------------------------------------- F statistic

def test_f_zero_when_no_improvement():
    # the x lag is orthogonal to the intercept, the own lag and the response,
    # so the unrestricted model fits exactly as well as the restricted one
    z = np.array([1.0, 2.0, 4.0, 3.0, 5.0, 2.0, 6.0, 3.0])
    v = null_space(np.column_stack([np.ones(7), z[:-1], z[1:]]).T)[:, 0]
    res = granger_test_batch(np.append(v, 0.0)[None], z[None], max_lag=1)
    assert 0.0 <= res.f_stat[0] < 1e-12
    assert (res.df_num, res.df_den) == (1, 4)


def test_f_direct_substitution():
    x, y = np.random.default_rng(12).normal(size=(2, 12))
    res = granger_test_batch(x[None], y[None], max_lag=1)
    _, rss_r = normal_equations_fit(y[1:], [y[:-1]])
    _, rss_u = normal_equations_fit(y[1:], [y[:-1], x[:-1]])
    assert (res.df_num, res.df_den) == (1, 8)
    assert res.f_stat[0] == pytest.approx(((rss_r - rss_u) / 1) / (rss_u / 8), rel=1e-9)


def _exact_fit_row(days, seed, horizon=0):
    """x is noise; y shifted by ``horizon`` is zero after three nonzero days, so
    both fits at max_lag 3 are exact."""
    y = np.zeros(days)
    y[: 3 + horizon] = np.arange(1.0, 4.0 + horizon)
    return np.random.default_rng(seed).normal(size=days), y


def test_f_perfect_fit_sentinel():
    x, y = _exact_fit_row(40, seed=3)
    f, p, _ = granger_one(x, y, max_lag=3)
    assert math.isinf(f)
    assert p == 0.0
    assert p_one(math.inf, 3, 13) == 0.0


def _rounding_rows(rows, days, seed):
    """y = t/10 + sin(t/3) obeys an exact AR(3) recursion with an intercept, so
    both models fit it to rounding and the F numerator is rounding noise."""
    t = np.arange(float(days))
    y = np.tile(t / 10 + np.sin(t / 3), (rows, 1))
    return np.random.default_rng(seed).normal(size=(rows, days)), y


def test_f_rounding_numerator_is_nonnegative_without_warning():
    x, y = _rounding_rows(16, 80, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = granger_test_batch(x, y, max_lag=3)
    assert not res.collinear.any()
    assert np.all(res.f_stat >= 0.0)
    assert np.all((res.p_value >= 0.0) & (res.p_value <= 1.0))


# ------------------------------------------------------------ the F tail

def test_pvalue_at_zero_is_one():
    assert p_one(0.0, 3, 10) == pytest.approx(1.0, abs=1e-14)


def test_pvalue_f11_at_one_is_half():
    assert p_one(1.0, 1, 1) == pytest.approx(0.5, abs=1e-10)


def test_pvalue_matches_quadrature():
    assert p_one(4.0, 3, 40) == pytest.approx(quadrature_pvalue(4.0, 3, 40), abs=1e-8)


def test_pvalue_quadrature_grid():
    for f in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for df1 in (1, 2, 3):
            for df2 in (10, 50, 300):
                assert p_one(f, df1, df2) == pytest.approx(
                    quadrature_pvalue(f, df1, df2), abs=1e-8), (f, df1, df2)


def test_pvalue_monotone_in_f():
    ps = [p_one(f, 3, 40) for f in np.linspace(0, 8, 30)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


# ------------------------------------------------- the F tail against scipy

DF1 = (1, 2, 3, 4, 7, 10, 14, 21, 30)
DF2 = (1, 2, 3, 5, 10, 13, 20, 50, 100, 200, 350, 700, 1000, 2000)
TINY = np.finfo(float).tiny
# Below about 1e-300 scipy itself loses digits: at df = (30, 350) and
# F = 812.15, mpmath at 50 digits gives 1.188233034334868e-303, the
# continued fraction agrees to 3e-14, and scipy returns 2.57e-303. So the
# comparison with scipy stops at p = 1e-280.
SCIPY_FLOOR = 1e-280


def scipy_upper_tail(f, df1, df2):
    """scipy's P(F > f), on whichever side of I_x(a, b) = 1 - I_{1-x}(b, a)
    keeps the digits of its argument.

    betainc receives x = df2 / (df2 + df1 f) rounded to a double, which loses
    the digits of 1 - x when f is small: at df = (1, 2000) and f = 1.9e-8 the
    plain betainc call is 5.8e-10 off.
    """
    v = df1 * np.asarray(f, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(v > df2, betainc(df2 / 2, df1 / 2, df2 / (df2 + v)),
                        betaincc(df1 / 2, df2 / 2, v / (df2 + v)))


def assert_matches_scipy(f, df1, df2):
    ref, got = scipy_upper_tail(f, df1, df2), _upper_tail(f, df1, df2)
    checked = ref >= SCIPY_FLOOR
    rel = np.abs(got[checked] - ref[checked]) / ref[checked]
    assert rel.max(initial=0.0) <= 1e-11, (df1, df2, f[checked][rel.argmax()])
    assert np.all(got[~checked] < 1e-270), (df1, df2)
    assert not np.any((got > 0.0) & (got < TINY)), (df1, df2)


@pytest.mark.parametrize("df1", DF1)
def test_upper_tail_matches_scipy_on_grid(df1):
    draws = 10.0 ** np.random.default_rng(df1).uniform(-8.0, 6.0, 200)
    f = np.concatenate([np.logspace(-8.0, 6.0, 141), draws])
    for df2 in DF2:
        assert_matches_scipy(f, df1, df2)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DF1), st.sampled_from(DF2),
       st.lists(st.floats(-8.0, 6.0), min_size=1, max_size=40))
def test_upper_tail_matches_scipy_on_draws(df1, df2, log_f):
    assert_matches_scipy(10.0 ** np.array(log_f), df1, df2)


def test_upper_tail_matches_scipy_on_long_series():
    # Just above x = (a + 1) / (a + b + 2) the tail is 1 - I_{1-x}(b, a),
    # which magnifies an error in log B(a, b) most; at df2 = 5000 taking
    # log B as lgamma(a) + lgamma(b) - lgamma(a + b) is 2.6e-11 off there.
    for df2 in (5000, 20000):
        for df1 in (1, 2, 3, 7):
            a, b = df2 / 2, df1 / 2
            f_switch = ((a + b + 2) / (a + 1) - 1) * df2 / df1
            assert_matches_scipy(f_switch * np.linspace(0.95, 1.0, 201), df1, df2)


def test_upper_tail_below_scipy_floor_matches_mpmath():
    assert p_one(812.15, 30, 350) == pytest.approx(1.188233034334868e-303, rel=1e-11)
    assert p_one(1.9e-8, 1, 2000) == pytest.approx(0.99989003295024178, rel=1e-14)


def test_upper_tail_edges_are_exact():
    f = np.array([0.0, -0.0, 5e-324, np.inf, np.nan])
    through_underflow = np.logspace(0.0, 6.0, 2001)
    for df1 in DF1:
        for df2 in DF2:
            p = _upper_tail(f, df1, df2)
            assert p[:3].tolist() == [1.0, 1.0, 1.0], (df1, df2)
            assert p[3] == 0.0 and math.isnan(p[4]), (df1, df2)
            p = _upper_tail(through_underflow, df1, df2)
            assert not np.any((p > 0.0) & (p < TINY)), (df1, df2)
            assert np.all(np.diff(p) <= 0.0), (df1, df2)
    assert p_one(0.0, 3, 10) == 1.0
    assert p_one(math.inf, 3, 10) == 0.0


def test_upper_tail_row_does_not_depend_on_batch():
    f = np.concatenate([[0.0, np.inf, np.nan, 1e-8, 1e6],
                        10.0 ** np.random.default_rng(3).uniform(-3.0, 3.0, 60)])
    for df1, df2 in ((3, 39), (1, 2000), (30, 13)):
        alone = np.array([_upper_tail(f[i:i + 1], df1, df2)[0] for i in range(len(f))])
        assert np.array_equal(_upper_tail(f, df1, df2), alone, equal_nan=True)


def test_upper_tail_without_convergence_errors(monkeypatch):
    monkeypatch.setattr(granger, "_CF_MAX_TERMS", 2)
    with pytest.raises(LeadLagError, match="did not converge"):
        _upper_tail(np.array([1.0]), 3, 300)


# ------------------------------------------------------------ batches of one

def _noisy_wave(n, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.sin(2 * np.pi * t / 60) + 0.3 * rng.normal(size=n)


def test_perfect_one_step_predictor():
    # exact x_t = y_{t+1}: at max_lag 1 the unrestricted model is an exact fit
    # (at lag 3 the x lags duplicate the y lags and are rejected as collinear)
    y = _noisy_wave(121, seed=8)
    x = np.empty(120)
    x[:] = y[1:]
    _, p, _ = granger_one(x, y[:120], max_lag=1, horizon=0)
    assert p < 1e-6

    rng = np.random.default_rng(9)
    x_jittered = x + 1e-8 * rng.normal(size=120)
    _, p3, _ = granger_one(x_jittered, y[:120], max_lag=3, horizon=0)
    assert p3 < 1e-6


def test_white_noise_size_is_nominal():
    rejections = 0
    reps = 500
    for seed in range(reps):
        rng = np.random.default_rng(10_000 + seed)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        _, p, _ = granger_one(x, y, max_lag=3, horizon=0)
        rejections += p < 0.05
    assert abs(rejections / reps - 0.05) <= 0.03


def test_shifted_ar1_detected_and_matches_reference():
    rng = np.random.default_rng(77)
    n = 150
    y = np.zeros(n + 2)
    for t in range(1, n + 2):
        y[t] = 0.9 * y[t - 1] + rng.normal()
    x = y[2:] + rng.normal(0, 0.05, size=n)  # x_t = y_{t+2} + noise
    yv = y[:n]
    f, p, _ = granger_one(x, yv, max_lag=3, horizon=0)
    assert p < 0.01
    f_ref, p_ref = reference_granger(x, yv, 3)
    assert f == pytest.approx(f_ref, abs=1e-8)
    assert p == pytest.approx(p_ref, abs=1e-8)


def test_granger_matches_oracle_on_seeded_cases():
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        n = 80
        y = rng.normal(size=n).cumsum() * 0.1 + rng.normal(size=n)
        x = np.roll(y, 3) + rng.normal(0, 0.5, size=n)
        f, p, _ = granger_one(x, y, max_lag=3)
        f_ref, p_ref = reference_granger(x, y, 3)
        assert f == pytest.approx(f_ref, abs=1e-8)
        assert p == pytest.approx(p_ref, abs=1e-8)


def test_horizon_shifts_response():
    rng = np.random.default_rng(5)
    n = 120
    y = np.sin(2 * np.pi * np.arange(n) / 40) + 0.1 * rng.normal(size=n)
    x = rng.normal(size=n)
    f, p, _ = granger_one(x, y, max_lag=3, horizon=14)
    # same computation done by hand: response shifted forward by 14
    z = y[14:]
    f_ref, p_ref = reference_granger(x[: n - 14], z, 3)
    assert f == pytest.approx(f_ref, abs=1e-8)
    assert p == pytest.approx(p_ref, abs=1e-8)


def test_identical_series_collinear():
    y = _noisy_wave(100, seed=2)
    f, p, collinear = granger_one(y, y, max_lag=3, horizon=0)
    assert collinear and math.isnan(f) and math.isnan(p)


def test_too_short_series_errors():
    with pytest.raises(InsufficientDataError, match="insufficient"):
        granger_one(np.arange(9.0), np.arange(9.0) ** 2, max_lag=3)
    with pytest.raises(InsufficientDataError, match="insufficient"):
        granger_one(np.arange(40.0), np.arange(40.0) ** 2, max_lag=3, horizon=40)


def test_affine_invariance():
    rng = np.random.default_rng(99)
    for seed in range(10):
        r = np.random.default_rng(seed)
        n = 80
        y = r.normal(size=n).cumsum() * 0.2 + r.normal(size=n)
        x = np.roll(y, 2) + r.normal(0, 0.4, size=n)
        base, _, _ = granger_one(x, y, max_lag=3)
        a, b, c, d = rng.uniform(0.5, 3), rng.uniform(-5, 5), rng.uniform(0.5, 3), rng.uniform(-5, 5)
        mapped, _, _ = granger_one(a * x + b, c * y + d, max_lag=3)
        assert mapped == pytest.approx(base, abs=1e-8)


# -------------------------------------------------------- granger_test_batch

def _mixed_batch(days=90, horizon=0):
    """Rows of every kind the pipeline meets, with the kind of each row."""
    rows, kinds = [], []
    for seed in range(6):
        rng = np.random.default_rng(500 + seed)
        y = rng.normal(size=days).cumsum() * 0.1 + rng.normal(size=days)
        rows.append((np.roll(y, 3) + rng.normal(0, 0.5, size=days), y))
        kinds.append("normal")
    y = _noisy_wave(days, seed=7)
    rows += [(np.full(days, 2.0), y), (y[::-1].copy(), np.full(days, 0.5)),
             (np.roll(y, -horizon), y)]
    kinds += ["collinear"] * 3  # flat x, flat y, x lags identical to the own lags
    rows.append(_exact_fit_row(days, seed=8, horizon=horizon))
    kinds.append("exact")
    x, y = _rounding_rows(8, days, seed=9)
    rows += list(zip(x, y))
    kinds += ["rounding"] * 8
    order = np.random.default_rng(10).permutation(len(rows))  # interleave the kinds
    return (np.array([rows[i][0] for i in order]), np.array([rows[i][1] for i in order]),
            [kinds[i] for i in order])


@pytest.mark.parametrize("horizon", [0, 14])
def test_batch_rows_equal_batch_of_one(horizon):
    x, y, kinds = _mixed_batch(horizon=horizon)
    res = granger_test_batch(x, y, max_lag=3, horizon=horizon)
    for i, kind in enumerate(kinds):
        assert res.collinear[i] == (kind == "collinear"), i
        one = granger_test_batch(x[i:i + 1], y[i:i + 1], max_lag=3, horizon=horizon)
        assert one.collinear[0] == res.collinear[i], i
        assert (one.df_num, one.df_den) == (res.df_num, res.df_den)
        if kind == "collinear":
            assert math.isnan(res.f_stat[i]) and math.isnan(res.p_value[i])
            assert math.isnan(one.f_stat[0]) and math.isnan(one.p_value[0])
            continue
        assert (one.f_stat[0], one.p_value[0]) == (res.f_stat[i], res.p_value[i]), i
        if kind == "exact":
            assert math.isinf(one.f_stat[0]) and one.p_value[0] == 0.0


def test_batch_rows_match_oracle():
    x, y, kinds = _mixed_batch()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning at all
        res = granger_test_batch(x, y, max_lag=3)
    for i, kind in enumerate(kinds):
        if kind == "normal":
            f_ref, p_ref = reference_granger(x[i], y[i], 3)
            assert res.f_stat[i] == pytest.approx(f_ref, abs=1e-8)
            assert res.p_value[i] == pytest.approx(p_ref, abs=1e-8)
        elif kind == "exact":
            assert math.isinf(res.f_stat[i]) and res.p_value[i] == 0.0
    rounding = [i for i, kind in enumerate(kinds) if kind == "rounding"]
    assert all(res.f_stat[i] >= 0.0 and 0.0 <= res.p_value[i] <= 1.0 for i in rounding)


def _lagged_designs(x, y, m, horizon):
    """Each row's restricted and unrestricted designs and its response, built
    column by column."""
    out = []
    for xi, zi in zip(x, y[:, horizon:]):
        own, other = lag_columns(xi, zi, m)
        ones = np.ones(len(zi) - m)
        out.append((np.column_stack([ones] + own), np.column_stack([ones] + own + other),
                    zi[m:]))
    return out


def _lstsq_deficient(design):
    # numpy.linalg.lstsq's rule with its default rcond
    s = np.linalg.svd(design, compute_uv=False)
    return s[-1] <= np.finfo(float).eps * max(design.shape) * s[0]


@pytest.mark.parametrize("horizon", [0, 14])
def test_collinear_mask_is_lstsq_rank_rule(horizon):
    x, y, kinds = _mixed_batch(horizon=horizon)
    res = granger_test_batch(x, y, max_lag=3, horizon=horizon)
    expected = [_lstsq_deficient(d_r) or _lstsq_deficient(d_u)
                for d_r, d_u, _ in _lagged_designs(x, y, 3, horizon)]
    assert res.collinear.tolist() == expected
    assert expected == [kind == "collinear" for kind in kinds]


def _boundary_batch(days=90):
    """Normal rows, exactly collinear rows (x == y, a zero x), and rows whose x
    is y perturbed by 1e-9 ... 1e-16, so that their design's condition number
    steps across lstsq's 1 / (eps n); with the kind of each row."""
    rows, kinds = [], []
    for seed in range(4):
        rng = np.random.default_rng(700 + seed)
        y = rng.normal(size=days).cumsum() * 0.1 + rng.normal(size=days)
        rows.append((np.roll(y, 3) + rng.normal(0, 0.5, size=days), y))
        kinds.append("normal")
    y = _noisy_wave(days, seed=11)
    rows += [(y.copy(), y), (np.zeros(days), y)]
    kinds += ["collinear"] * 2
    noise = np.random.default_rng(12).normal(size=days)
    rows += [(y + 10.0 ** -e * noise, y) for e in np.arange(9.0, 16.5, 0.5)]
    kinds += ["perturbed"] * 15
    order = np.random.default_rng(13).permutation(len(rows))
    return (np.array([rows[i][0] for i in order]), np.array([rows[i][1] for i in order]),
            [kinds[i] for i in order])


def test_rank_screen_equals_lstsq_rule_at_its_boundary(monkeypatch):
    x, y, kinds = _boundary_batch()
    expected = [_lstsq_deficient(d_r) or _lstsq_deficient(d_u)
                for d_r, d_u, _ in _lagged_designs(x, y, 3, 0)]
    perturbed = [e for e, kind in zip(expected, kinds) if kind == "perturbed"]
    assert True in perturbed and False in perturbed  # the rows cross the rule

    sent = []  # the blocks each granger_test_batch call passes to the SVD
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        sent[-1].append(np.array(a))
        return svd(a, *args, **kwargs)

    def run(xs, ys):
        sent.append([])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero pivots stay inside np.errstate
            return granger_test_batch(xs, ys, max_lag=3).collinear

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert run(x, y).tolist() == expected
    for i in range(len(x)):
        assert run(x[i:i + 1], y[i:i + 1]).tolist() == [expected[i]], i
    batch, alone = sent[0], sent[1:]
    assert not any(s for s, kind in zip(alone, kinds) if kind == "normal")
    assert all(s for s, deficient in zip(alone, expected) if deficient)
    # the SVD decides some rows the screen does not clear as full rank
    assert any(s and not deficient for s, deficient in zip(alone, expected))
    # the batch passes exactly the rows that a batch of one passes, in order
    assert len(batch) == 1
    assert np.array_equal(batch[0], np.concatenate([b for s in alone for b in s]))

    normal = [i for i, kind in enumerate(kinds) if kind == "normal"]
    assert not run(x[normal], y[normal]).any()
    assert not run(np.empty((0, 90)), np.empty((0, 90))).size
    assert sent[-2:] == [[], []]


@pytest.mark.parametrize("seed", range(4))
def test_f_matches_lstsq_residuals(seed):
    rng = np.random.default_rng(600 + seed)
    rows, days, m, horizon = 12, int(rng.integers(40, 120)), int(rng.integers(1, 5)), 7 * seed
    y = rng.normal(size=(rows, days)).cumsum(axis=1) * 0.2 + rng.normal(size=(rows, days))
    x = np.roll(y, 2, axis=1) * rng.uniform(0, 1, size=(rows, 1)) + rng.normal(size=(rows, days))
    res = granger_test_batch(x, y, max_lag=m, horizon=horizon)
    assert not res.collinear.any()
    for i, (d_r, d_u, resp) in enumerate(_lagged_designs(x, y, m, horizon)):
        rss_r = np.sum((resp - d_r @ np.linalg.lstsq(d_r, resp, rcond=None)[0]) ** 2)
        rss_u = np.sum((resp - d_u @ np.linalg.lstsq(d_u, resp, rcond=None)[0]) ** 2)
        f_ref = ((rss_r - rss_u) / res.df_num) / (rss_u / res.df_den)
        assert res.f_stat[i] == pytest.approx(f_ref, rel=1e-9), i


def test_batch_shape_and_completeness_errors():
    x = np.random.default_rng(11).normal(size=(3, 40))
    with pytest.raises(LeadLagError, match="aligned"):
        granger_test_batch(x, x[:, :-1])
    with pytest.raises(LeadLagError, match="aligned"):
        granger_test_batch(x[0], x[0])
    for bad in (np.nan, np.inf):
        y = x.copy()
        y[1, 5] = bad
        with pytest.raises(LeadLagError, match="complete, finite"):
            granger_test_batch(x, y)
    with pytest.raises(LeadLagError, match="max_lag must be >= 1, got 0"):
        granger_test_batch(x, x, max_lag=0)
    with pytest.raises(LeadLagError, match="horizon must be >= 0, got -1"):
        granger_test_batch(x, x, horizon=-1)
    empty = granger_test_batch(np.empty((0, 40)), np.empty((0, 40)))
    assert empty.f_stat.shape == empty.collinear.shape == (0,)
