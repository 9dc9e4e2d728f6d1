"""Granger causality via nested OLS models and an F-test.

An indicator ``x`` Granger-leads admissions ``y`` when lags of ``x`` reduce
the residual sum of squares of an autoregression of ``y`` by more than
chance, judged by an F-test on the nested models. The response may first be
shifted forward by a horizon (e.g. admissions in 14 days) so one code path
serves both the same-day and the 14-day test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .errors import CollinearDesignError, InsufficientDataError, LeadLagError


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit: intercept-first coefficients and residual sum of squares."""

    coefficients: np.ndarray = field(repr=False)
    rss: float
    n_obs: int
    n_params: int


@dataclass(frozen=True)
class GrangerResult:
    f_stat: float
    p_value: float
    df_num: int
    df_den: int
    max_lag: int
    horizon: int


def ols_fit(response: np.ndarray, regressors: list[np.ndarray]) -> OlsFit:
    """Fit ``response`` on an intercept plus the given regressor columns.

    Solved by orthogonal decomposition (lagged smooth series are nearly
    collinear, so normal equations are avoided); a rank-deficient design
    is rejected rather than silently fitted.
    """
    y = np.asarray(response, dtype=float)
    n = y.size
    X = np.column_stack([np.ones(n)] + [np.asarray(c, dtype=float) for c in regressors])
    p = X.shape[1]
    if n <= p:
        raise InsufficientDataError(f"{n} observations cannot identify {p} parameters")
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < p:
        raise CollinearDesignError("collinear design")
    resid = y - X @ beta
    return OlsFit(beta, float(resid @ resid), n, p)


def f_statistic(restricted: OlsFit, unrestricted: OlsFit) -> tuple[float, int, int]:
    """F for the nested-model comparison; +inf sentinel when the full model is exact."""
    if unrestricted.n_params <= restricted.n_params:
        raise LeadLagError("unrestricted model must have more parameters")
    if unrestricted.n_obs != restricted.n_obs:
        raise LeadLagError("models fitted on different sample sizes")
    df1 = unrestricted.n_params - restricted.n_params
    df2 = unrestricted.n_obs - unrestricted.n_params
    if unrestricted.rss == 0.0:
        return math.inf, df1, df2
    num = restricted.rss - unrestricted.rss
    if num < 0.0:
        warnings.warn(
            "restricted RSS below unrestricted RSS; clamping F to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        num = 0.0
    return (num / df1) / (unrestricted.rss / df2), df1, df2


def f_pvalue(f: float, df1: int, df2: int) -> float:
    """Upper-tail probability of the F(df1, df2) distribution.

    Computed through the regularized incomplete beta function:
    P(F > f) = I_x(df2/2, df1/2) with x = df2 / (df2 + df1 f).
    """
    if df1 < 1 or df2 < 1:
        raise LeadLagError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if math.isinf(f) and f > 0:
        return 0.0
    if not math.isfinite(f) or f < 0:
        raise LeadLagError(f"invalid F statistic {f}")
    x = df2 / (df2 + df1 * f)
    return float(betainc(df2 / 2.0, df1 / 2.0, x))


def _lag_matrix(v: np.ndarray, m: int, n_rows: int) -> list[np.ndarray]:
    # column j is the series lagged by j+1, aligned to rows m..m+n_rows-1
    return [v[m - j : m - j + n_rows] for j in range(1, m + 1)]


def granger_test(
    x: np.ndarray,
    y: np.ndarray,
    max_lag: int = 3,
    horizon: int = 0,
) -> GrangerResult:
    """Test whether lags 1..max_lag of ``x`` help predict ``y`` at ``horizon``.

    ``x`` and ``y`` are complete daily series over the same days. The
    restricted model regresses the (shifted) response on its own lags plus
    an intercept; the unrestricted model adds the indicator lags. The null
    hypothesis is that all indicator-lag coefficients are zero.
    """
    if max_lag < 1:
        raise LeadLagError(f"max_lag must be >= 1, got {max_lag}")
    if horizon < 0:
        raise LeadLagError(f"horizon must be >= 0, got {horizon}")
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise LeadLagError("x and y must be aligned (same length)")
    if np.isnan(xv).any() or np.isnan(yv).any():
        raise LeadLagError("granger_test requires complete series")
    if horizon >= yv.size:
        raise InsufficientDataError("insufficient observations")
    z = yv[horizon:]
    xv = xv[: yv.size - horizon]

    m = max_lag
    n_rows = z.size - m
    if n_rows <= 2 * m + 1:
        raise InsufficientDataError("insufficient observations")
    response = z[m:]
    own_lags = _lag_matrix(z, m, n_rows)
    x_lags = _lag_matrix(xv, m, n_rows)

    restricted = ols_fit(response, own_lags)
    unrestricted = ols_fit(response, own_lags + x_lags)
    f, df1, df2 = f_statistic(restricted, unrestricted)
    return GrangerResult(f, f_pvalue(f, df1, df2), df1, df2, m, horizon)
