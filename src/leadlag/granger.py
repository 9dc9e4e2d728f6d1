"""Granger causality via nested OLS models and an F-test.

An indicator ``x`` Granger-leads admissions ``y`` when lags of ``x`` reduce
the residual sum of squares of an autoregression of ``y`` by more than
chance, judged by an F-test on the nested models. The response may first be
shifted forward by a horizon (e.g. admissions in 14 days) so one code path
serves both the same-day and the 14-day test.

``granger_test_batch`` tests every row of a pair of (rows, days) arrays at
once, with one stacked least-squares fit per model; ``granger_test`` is its
batch of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import betainc

from .errors import CollinearDesignError, InsufficientDataError, LeadLagError


@dataclass(frozen=True)
class GrangerResult:
    f_stat: float
    p_value: float
    df_num: int
    df_den: int
    max_lag: int
    horizon: int


@dataclass(frozen=True)
class GrangerBatch:
    """Per-row F statistics and p-values; rows with a collinear design read NaN."""

    f_stat: np.ndarray = field(repr=False)
    p_value: np.ndarray = field(repr=False)
    collinear: np.ndarray = field(repr=False)
    df_num: int
    df_den: int


def _upper_tail(f, df1: int, df2: int):
    # P(F > f) = I_x(df2/2, df1/2) with x = df2 / (df2 + df1 f); x = 0 at f = +inf
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def f_pvalue(f: float, df1: int, df2: int) -> float:
    """Upper-tail probability of the F(df1, df2) distribution.

    Computed through the regularized incomplete beta function:
    P(F > f) = I_x(df2/2, df1/2) with x = df2 / (df2 + df1 f).
    """
    if df1 < 1 or df2 < 1:
        raise LeadLagError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if math.isnan(f) or f < 0:
        raise LeadLagError(f"invalid F statistic {f}")
    return float(_upper_tail(f, df1, df2))


def _lags(v: np.ndarray, m: int, n_rows: int) -> np.ndarray:
    # (B, n_rows, m): column j-1 is each row lagged by j, aligned to days m..m+n_rows-1
    return sliding_window_view(v, n_rows, axis=1)[:, m - 1::-1].transpose(0, 2, 1)


def _rss(design: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual sum of squares of each row's least-squares fit, and its rank deficiency.

    One stacked SVD (lagged smooth series are nearly collinear, so normal
    equations are avoided). A singular value at or below
    eps * max(n, p) * s_max counts as zero, as in ``numpy.linalg.lstsq``.
    """
    u, s, _ = np.linalg.svd(design, full_matrices=False)
    deficient = s[:, -1] <= np.finfo(float).eps * max(design.shape[1:]) * s[:, 0]
    proj = np.matmul(response[:, None, :], u)
    resid = response - np.matmul(proj, u.transpose(0, 2, 1))[:, 0]
    return np.einsum("ij,ij->i", resid, resid), deficient


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
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 2 or xv.shape != yv.shape:
        raise LeadLagError("x and y must be aligned (same shape, one series per row)")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise LeadLagError("Granger test requires complete, finite series")
    m = max_lag
    n_rows = yv.shape[1] - horizon - m
    if n_rows <= 2 * m + 1:
        raise InsufficientDataError("insufficient observations")
    z = yv[:, horizon:]
    design = np.concatenate([np.ones((len(z), n_rows, 1)), _lags(z, m, n_rows),
                             _lags(xv[:, : z.shape[1]], m, n_rows)], axis=2)
    rss_r, collinear_r = _rss(design[:, :, : 1 + m], z[:, m:])
    rss_u, collinear_u = _rss(design, z[:, m:])
    collinear = collinear_r | collinear_u

    df1, df2 = m, n_rows - (1 + 2 * m)
    num = rss_r - rss_u
    clamped = (num < 0.0) & (rss_u != 0.0) & ~collinear
    if clamped.any():
        warnings.warn(f"restricted RSS below unrestricted RSS in {clamped.sum()} row(s); "
                      "clamping F to 0", RuntimeWarning, stacklevel=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (np.where(clamped, 0.0, num) / df1) / (rss_u / df2)
    f[rss_u == 0.0] = math.inf
    f[collinear] = math.nan
    return GrangerBatch(f, _upper_tail(f, df1, df2), collinear, df1, df2)


def granger_test(x, y, max_lag: int = 3, horizon: int = 0) -> GrangerResult:
    """Test whether lags 1..max_lag of ``x`` help predict ``y`` at ``horizon``.

    ``x`` and ``y`` are complete daily series over the same days; the batch
    of one of :func:`granger_test_batch`. A rank-deficient design raises
    :class:`CollinearDesignError`.
    """
    if np.ndim(x) != 1 or np.shape(x) != np.shape(y):
        raise LeadLagError("x and y must be aligned (same length)")
    res = granger_test_batch(np.asarray(x)[None], np.asarray(y)[None], max_lag, horizon)
    if res.collinear[0]:
        raise CollinearDesignError("collinear design")
    return GrangerResult(float(res.f_stat[0]), float(res.p_value[0]), res.df_num,
                         res.df_den, max_lag, horizon)
