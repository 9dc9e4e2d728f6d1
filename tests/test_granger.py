import math

import numpy as np
import pytest
from scipy.integrate import quad

from leadlag.errors import CollinearDesignError, InsufficientDataError, LeadLagError
from leadlag.granger import OlsFit, f_pvalue, f_statistic, granger_test, ols_fit


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


def reference_granger(xv, yv, m):
    """Granger F and p built only from the oracle pieces above."""
    n_rows = len(yv) - m
    resp = yv[m:]
    own = [yv[m - j: m - j + n_rows] for j in range(1, m + 1)]
    other = [xv[m - j: m - j + n_rows] for j in range(1, m + 1)]
    _, rss_r = normal_equations_fit(resp, own)
    _, rss_u = normal_equations_fit(resp, own + other)
    df1, df2 = m, n_rows - (2 * m + 1)
    f = ((rss_r - rss_u) / df1) / (rss_u / df2)
    return f, quadrature_pvalue(f, df1, df2)


# ------------------------------------------------------------------- ols_fit

def test_ols_exact_fit():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = ols_fit(2.0 * x + 3.0, [x])
    assert np.allclose(fit.coefficients, [3.0, 2.0], atol=1e-12)
    assert fit.rss < 1e-20


def test_ols_orthogonal_regressor():
    y = np.array([1.0, -1.0, 1.0, -1.0])
    x = np.array([1.0, 1.0, -1.0, -1.0])
    fit = ols_fit(y, [x])
    assert abs(fit.coefficients[1]) < 1e-12
    assert fit.rss == pytest.approx(4.0, abs=1e-12)


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.5, -2.0, 0.5]) + rng.normal(0, 0.3, size=30) + 4.0
    fit = ols_fit(y, [X[:, j] for j in range(3)])
    beta_ref, rss_ref = normal_equations_fit(y, [X[:, j] for j in range(3)])
    assert np.allclose(fit.coefficients, beta_ref, atol=1e-9)
    assert fit.rss == pytest.approx(rss_ref, abs=1e-9)


def test_ols_collinear_errors():
    x = np.arange(10.0)
    with pytest.raises(CollinearDesignError, match="collinear"):
        ols_fit(np.ones(10), [x, 2 * x])


def test_ols_underdetermined_errors():
    with pytest.raises(InsufficientDataError):
        ols_fit(np.ones(3), [np.arange(3.0), np.arange(3.0) ** 2])


# --------------------------------------------------------------- f_statistic

def _fit(rss, n, p):
    return OlsFit(np.zeros(p), rss, n, p)


def test_f_zero_when_no_improvement():
    f, df1, df2 = f_statistic(_fit(2.0, 20, 4), _fit(2.0, 20, 7))
    assert f == 0.0
    assert (df1, df2) == (3, 13)


def test_f_direct_substitution():
    f, df1, df2 = f_statistic(_fit(2.0, 12, 1), _fit(1.0, 12, 2))
    assert f == pytest.approx(10.0, abs=1e-12)
    assert (df1, df2) == (1, 10)


def test_f_perfect_fit_sentinel():
    f, _, _ = f_statistic(_fit(1.0, 20, 4), _fit(0.0, 20, 7))
    assert math.isinf(f)
    assert f_pvalue(f, 3, 13) == 0.0


def test_f_negative_numerator_clamps_with_warning():
    with pytest.warns(RuntimeWarning, match="clamping"):
        f, _, _ = f_statistic(_fit(1.0, 20, 4), _fit(1.0 + 1e-9, 20, 7))
    assert f == 0.0


# ------------------------------------------------------------------ f_pvalue

def test_pvalue_at_zero_is_one():
    assert f_pvalue(0.0, 3, 10) == pytest.approx(1.0, abs=1e-14)


def test_pvalue_f11_at_one_is_half():
    assert f_pvalue(1.0, 1, 1) == pytest.approx(0.5, abs=1e-10)


def test_pvalue_matches_quadrature():
    assert f_pvalue(4.0, 3, 40) == pytest.approx(quadrature_pvalue(4.0, 3, 40), abs=1e-8)


def test_pvalue_quadrature_grid():
    for f in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for df1 in (1, 2, 3):
            for df2 in (10, 50, 300):
                assert f_pvalue(f, df1, df2) == pytest.approx(
                    quadrature_pvalue(f, df1, df2), abs=1e-8), (f, df1, df2)


def test_pvalue_monotone_in_f():
    ps = [f_pvalue(f, 3, 40) for f in np.linspace(0, 8, 30)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_pvalue_rejects_nan():
    with pytest.raises(LeadLagError):
        f_pvalue(float("nan"), 2, 10)


# -------------------------------------------------------------- granger_test

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
    res = granger_test(x, y[:120], max_lag=1, horizon=0)
    assert res.p_value < 1e-6

    rng = np.random.default_rng(9)
    x_jittered = x + 1e-8 * rng.normal(size=120)
    res3 = granger_test(x_jittered, y[:120], max_lag=3, horizon=0)
    assert res3.p_value < 1e-6


def test_white_noise_size_is_nominal():
    rejections = 0
    reps = 500
    for seed in range(reps):
        rng = np.random.default_rng(10_000 + seed)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        res = granger_test(x, y, max_lag=3, horizon=0)
        rejections += res.p_value < 0.05
    assert abs(rejections / reps - 0.05) <= 0.03


def test_shifted_ar1_detected_and_matches_reference():
    rng = np.random.default_rng(77)
    n = 150
    y = np.zeros(n + 2)
    for t in range(1, n + 2):
        y[t] = 0.9 * y[t - 1] + rng.normal()
    x = y[2:] + rng.normal(0, 0.05, size=n)  # x_t = y_{t+2} + noise
    yv = y[:n]
    res = granger_test(x, yv, max_lag=3, horizon=0)
    assert res.p_value < 0.01
    f_ref, p_ref = reference_granger(x, yv, 3)
    assert res.f_stat == pytest.approx(f_ref, abs=1e-8)
    assert res.p_value == pytest.approx(p_ref, abs=1e-8)


def test_granger_matches_oracle_on_seeded_cases():
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        n = 80
        y = rng.normal(size=n).cumsum() * 0.1 + rng.normal(size=n)
        x = np.roll(y, 3) + rng.normal(0, 0.5, size=n)
        res = granger_test(x, y, max_lag=3)
        f_ref, p_ref = reference_granger(x, y, 3)
        assert res.f_stat == pytest.approx(f_ref, abs=1e-8)
        assert res.p_value == pytest.approx(p_ref, abs=1e-8)


def test_horizon_shifts_response():
    rng = np.random.default_rng(5)
    n = 120
    y = np.sin(2 * np.pi * np.arange(n) / 40) + 0.1 * rng.normal(size=n)
    x = rng.normal(size=n)
    res = granger_test(x, y, max_lag=3, horizon=14)
    assert res.horizon == 14
    # same computation done by hand: response shifted forward by 14
    z = y[14:]
    f_ref, p_ref = reference_granger(x[: n - 14], z, 3)
    assert res.f_stat == pytest.approx(f_ref, abs=1e-8)
    assert res.p_value == pytest.approx(p_ref, abs=1e-8)


def test_identical_series_collinear():
    y = _noisy_wave(100, seed=2)
    with pytest.raises(CollinearDesignError):
        granger_test(y, y, max_lag=3, horizon=0)


def test_too_short_series_errors():
    with pytest.raises(InsufficientDataError, match="insufficient"):
        granger_test(np.arange(9.0), np.arange(9.0) ** 2, max_lag=3)
    with pytest.raises(InsufficientDataError, match="insufficient"):
        granger_test(np.arange(40.0), np.arange(40.0) ** 2, max_lag=3, horizon=40)


def test_affine_invariance():
    rng = np.random.default_rng(99)
    for seed in range(10):
        r = np.random.default_rng(seed)
        n = 80
        y = r.normal(size=n).cumsum() * 0.2 + r.normal(size=n)
        x = np.roll(y, 2) + r.normal(0, 0.4, size=n)
        base = granger_test(x, y, max_lag=3)
        a, b, c, d = rng.uniform(0.5, 3), rng.uniform(-5, 5), rng.uniform(0.5, 3), rng.uniform(-5, 5)
        mapped = granger_test(a * x + b, c * y + d, max_lag=3)
        assert mapped.f_stat == pytest.approx(base.f_stat, abs=1e-8)
