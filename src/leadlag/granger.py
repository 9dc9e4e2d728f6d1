"""Granger causality via nested OLS models and an F-test.

An indicator ``x`` Granger-leads admissions ``y`` when lags of ``x`` reduce
the residual sum of squares of an autoregression of ``y`` by more than
chance, judged by an F-test on the nested models. The response may first be
shifted forward by a horizon (e.g. admissions in 14 days) so one code path
serves both the same-day and the 14-day test.

``granger_test_batch`` tests every row of a pair of (rows, days) arrays at
once with one stacked QR of ``[1, y lags, x lags, response]``; R's last
column holds both models' residuals (Lovell 1963, JASA 58:993; Golub & Van
Loan, Matrix Computations, 5.3), so the F numerator is never negative.
``numpy.linalg.lstsq``'s rank rule is screened from R and its triangular
inverse, which bound the design's singular values, and only a row the
screen does not clear as full rank takes an SVD, so every decision is the
rule's own.

The F tail is the regularized incomplete beta function, evaluated in numpy
for the whole batch as the continued fraction of Abramowitz & Stegun 26.5.8
(Numerical Recipes, 3rd ed., section 6.4) by the modified Lentz method
(Lentz 1976, Appl. Opt. 15:668).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, LeadLagError
from .timeseries import _row_pair


@dataclass(frozen=True, eq=False)
class GrangerBatch:
    """Per-row F statistics and p-values; rows with a collinear design read NaN."""

    f_stat: np.ndarray = field(repr=False)
    p_value: np.ndarray = field(repr=False)
    collinear: np.ndarray = field(repr=False)
    df_num: int
    df_den: int


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # smallest normal double
_FPMIN = _TINY / _EPS  # Lentz's stand-in for a zero denominator
# A converged Lentz factor still wanders a few ulps around 1 (up to 11 eps
# over df1 <= 1000, df2 <= 10000), so a row is done once a factor comes
# within 16 eps of 1.
_CF_TOL = 16 * _EPS
_CF_MAX_TERMS = 10_000
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# How far inside lstsq's rank rule the screen of _nested_fits clears a row, so
# that rounding in its bounds or in the SVD cannot flip a decision
_SCREEN_MARGIN = 1e3


def _lgamma_rest(z: float) -> float:
    """lgamma(z) minus Stirling's (z - 1/2) log z - z + log sqrt(2 pi)."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LOG_SQRT_2PI
    w = 1.0 / (z * z)  # the asymptotic series to z^-9; the next term is below 2e-14
    return (1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * (-1 / 1680 + w / 1188)))) / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), without the cancellation of lgamma(a) + lgamma(b) - lgamma(a + b)
    when a or b is large."""
    lo, s = min(a, b), a + b
    return (_LOG_SQRT_2PI - 0.5 * math.log(s) + (lo - 0.5) * math.log(lo / s)
            + (s - lo - 0.5) * math.log1p(-lo / s)
            + _lgamma_rest(a) + _lgamma_rest(b) - _lgamma_rest(s))


def _cf_terms(a: float, b: float, m: int) -> tuple[float, float]:
    # coefficients d_2m and d_2m+1 of the fraction of I_x(a, b), over x
    return (m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1)))


def _beta_cf(a: float, b: float, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """The continued fraction of I_xa(a, b) in rows where xb is 0, and of
    I_xb(b, a) in rows where xa is 0, by modified Lentz.

    A row stops after the first pair of terms whose last factor is within
    _CF_TOL of 1, so its value does not depend on the rest of the batch.
    Both arguments must lie below (p + 1) / (p + q + 2) for their I_x(p, q),
    where the fraction converges fast and its first denominator is positive.
    """
    v = np.ones((2, len(xa)))  # Lentz's d and 1/c, row by row
    v[0] -= (a + b) / (a + 1.0) * xa + (a + b) / (b + 1.0) * xb
    h = np.reciprocal(v[0], out=v[0]).copy()
    active = np.ones(len(xa), dtype=bool)
    for m in range(1, _CF_MAX_TERMS + 1):
        for ca, cb in zip(_cf_terms(a, b, m), _cf_terms(b, a, m)):
            w = v * (ca * xa + cb * xb)
            w += 1.0  # the denominators of d and of c
            w[np.abs(w) < _FPMIN] = _FPMIN
            np.reciprocal(w, out=v)
            delta = v[0] * w[1]
            np.multiply(h, delta, out=h, where=active)
        active &= np.abs(delta - 1.0) > _CF_TOL
        if not active.any():
            return h
    raise LeadLagError(f"F tail did not converge in {_CF_MAX_TERMS} terms "
                       f"at degrees of freedom ({2 * b:g}, {2 * a:g})")


def _upper_tail(f: np.ndarray, df1: int, df2: int) -> np.ndarray:
    """P(F > f) for an array of f >= 0; NaN stays NaN, and results below the
    smallest normal double are 0.0.

    P(F > f) = I_x(a, b) with a = df2/2, b = df1/2 and x = 1 / (1 + r),
    r = df1 f / df2. Above x = (a + 1) / (a + b + 2) it is 1 - I_y(b, a) with
    y = 1 - x = 1 / (1 + 1/r), where that fraction converges fast instead.
    """
    a, b = df2 / 2.0, df1 / 2.0
    with np.errstate(divide="ignore", over="ignore"):
        r = f * (df1 / df2) + 0.0  # -0.0 becomes +0.0, so 1/r is +inf at f = 0
        inv_r = 1.0 / r
        # x^a y^b / B(a, b), from log x and log y that keep their digits at both ends
        front = np.exp(-a * np.log1p(r) - b * np.log1p(inv_r) - _log_beta(a, b))
        x, y = 1.0 / (1.0 + r), 1.0 / (1.0 + inv_r)
    switch = (a + 1.0) / (a + b + 2.0)
    lower, upper = x <= switch, x > switch
    # NaN rows are neither, so their fraction is a constant and front keeps them NaN
    q = front * _beta_cf(a, b, np.where(lower, x, 0.0), np.where(upper, y, 0.0))
    q /= np.where(upper, b, a)
    p = np.where(upper, 1.0 - q, q)
    p[p < _TINY] = 0.0  # no subnormals: output checks compare relative differences only
    return p


def _lags(v: np.ndarray, m: int, n_rows: int) -> np.ndarray:
    # (B, n_rows, m): column j-1 is each row lagged by j, aligned to days m..m+n_rows-1
    return sliding_window_view(v, n_rows, axis=1)[:, m - 1::-1].transpose(0, 2, 1)


def _triangular_inverse(r: np.ndarray) -> np.ndarray:
    """The inverse of each upper-triangular (p, p) block of ``r``, by
    back-substitution one row at a time; a zero diagonal gives inf or NaN."""
    inv = np.zeros_like(r)
    for i in range(r.shape[1] - 1, -1, -1):
        row = -np.matmul(r[:, i, None, i + 1:], inv[:, i + 1:])[:, 0]
        row[:, i] = 1.0
        inv[:, i] = row / r[:, i, i, None]
    return inv


def _nested_fits(aug: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From one QR of each ``aug`` = [design | response]: the RSS of the fit on
    every design column, the RSS that the columns after the first ``k`` remove,
    and whether either design is rank deficient by ``numpy.linalg.lstsq``'s rule."""
    r = np.linalg.qr(aug, mode="r")
    n, p = aug.shape[1], aug.shape[2] - 1  # n > p, so lstsq's eps * max(n, columns) is eps * n
    # the design's R is the leading block of R and has the design's singular
    # values; those of its first k columns interlace them, so when the full
    # design passes the rule the restricted one does too (Golub & Van Loan 8.6)
    design = r[:, :p, :p]
    # ||R||_F >= s_max and 1 / ||R^-1||_F <= s_min, so a row where their ratio
    # ||R||_F ||R^-1||_F is below 1 / (_SCREEN_MARGIN eps n) passes the rule
    # (back-substitution errs by about p eps times that ratio); only the
    # others, NaN and inf from a zero pivot included, take the SVD
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = _triangular_inverse(design)
        ratio2 = np.sum(design ** 2, axis=(1, 2)) * np.sum(inv ** 2, axis=(1, 2))
    deficient = ~(ratio2 * (_SCREEN_MARGIN * _EPS * n) ** 2 < 1.0)
    if deficient.any():
        s = np.linalg.svd(design[deficient], compute_uv=False)
        deficient[deficient] = s[:, -1] <= _EPS * n * s[:, 0]
    return r[:, p, -1] ** 2, np.sum(r[:, k:p, -1] ** 2, axis=1), deficient


def granger_test_batch(x, y, max_lag: int = 3, horizon: int = 0) -> GrangerBatch:
    """Test, row by row, whether lags 1..max_lag of ``x`` help predict ``y``.

    ``x`` and ``y`` are complete (rows, days) arrays over the same days. For
    each row the restricted model regresses the response (``y`` shifted
    forward by ``horizon``) on its own lags plus an intercept; the
    unrestricted model adds the indicator lags. The null hypothesis is that
    all indicator-lag coefficients are zero. F is +inf where the
    unrestricted fit is exact; a rank-deficient design marks its row in
    ``collinear``. Every row has the same sample size, so too few days is an
    error for the whole batch.
    """
    if max_lag < 1:
        raise LeadLagError(f"max_lag must be >= 1, got {max_lag}")
    if horizon < 0:
        raise LeadLagError(f"horizon must be >= 0, got {horizon}")
    xv, yv = _row_pair(x, y, "Granger test")
    m = max_lag
    n_rows = yv.shape[1] - horizon - m
    if n_rows <= 2 * m + 1:
        raise InsufficientDataError("insufficient observations")
    z = yv[:, horizon:]
    aug = np.concatenate([np.ones((len(z), n_rows, 1)), _lags(z, m, n_rows),
                          _lags(xv[:, : z.shape[1]], m, n_rows), z[:, m:, None]], axis=2)
    rss_u, drop, collinear = _nested_fits(aug, 1 + m)

    df1, df2 = m, n_rows - (1 + 2 * m)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (drop / df1) / (rss_u / df2)
    f[rss_u == 0.0] = math.inf
    f[collinear] = math.nan
    return GrangerBatch(f, _upper_tail(f, df1, df2), collinear, df1, df2)

