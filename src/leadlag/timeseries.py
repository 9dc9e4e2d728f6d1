"""Dense daily panels and row-wise preprocessing transforms.

A :class:`Panel` holds one variable at one geographic level as a float
``(n_geo, n_days)`` array: one row per geography id (sorted), one column per
consecutive day from ``start_date``. The transforms take a plain 2-D array,
one series per row, and return new arrays; the scalings also return a
per-row mask of degenerate (constant) rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from math import ceil

import numpy as np

from .errors import EmptySeriesError, EmptySliceError, InsufficientDataError, LeadLagError

GEO_LEVELS = ("ltla", "trust")


@dataclass(frozen=True)
class Panel:
    """One variable at one geographic level: a row per geo id, a column per day.

    The panel keeps ``values`` and makes it read-only; pass an array no other
    code writes to."""

    level: str
    variable: str
    start_date: date
    geo_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.level not in GEO_LEVELS:
            raise LeadLagError(f"unknown geo level {self.level!r}")
        geo_ids = tuple(self.geo_ids)
        if not geo_ids:
            raise LeadLagError("panel has no series")
        if list(geo_ids) != sorted(set(geo_ids)):
            raise LeadLagError("panel geo ids must be unique and sorted")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != len(geo_ids):
            raise LeadLagError(
                f"values of shape {v.shape} misaligned with {len(geo_ids)} geo ids")
        if v.shape[1] < 1:
            raise EmptySeriesError("empty series")
        v.flags.writeable = False
        object.__setattr__(self, "geo_ids", geo_ids)
        object.__setattr__(self, "values", v)

    @property
    def n_days(self) -> int:
        return int(self.values.shape[1])

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=self.n_days - 1)

    def day_slice(self, start: date, end: date) -> slice:
        """Columns of the days in [start, end] that the panel covers."""
        if start > end:
            raise LeadLagError(f"window start {start} after end {end}")
        i0 = max((start - self.start_date).days, 0)
        i1 = min((end - self.start_date).days, self.n_days - 1)
        if i0 > i1:
            raise EmptySliceError("empty slice")
        return slice(i0, i1 + 1)


def _rows(values, op: str, complete: bool = True) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise LeadLagError(f"{op} takes one series per row, got shape {v.shape}")
    if v.shape[1] < 1:
        raise EmptySeriesError("empty series")
    if complete and np.isnan(v).any():
        raise LeadLagError(f"{op} requires a complete series (no missing values)")
    return v


def locf_impute(values) -> np.ndarray:
    """Fill missing values (NaN) by carrying the last observation forward.

    Leading missing values take the row's first observation, so that the
    result is rectangular-safe for matrix methods.
    """
    v = _rows(values, "locf_impute", complete=False)
    observed = ~np.isnan(v)
    if not observed.any(axis=1).all():
        raise EmptySeriesError("empty series")
    first = np.argmax(observed, axis=1)
    idx = np.where(observed, np.arange(v.shape[1]), first[:, None])
    np.maximum.accumulate(idx, axis=1, out=idx)
    return np.take_along_axis(v, idx, axis=1)


# a spread this far below the value magnitude is floating-point noise, not signal
_DEGENERATE_RTOL = 1e-13


def minmax_scale(values) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to [0, 1]; constant rows map to zeros and are flagged.

    Constant within floating-point noise counts as constant (smoothing a
    flat series leaves eps-sized ripples that must not be stretched to 0-1).
    """
    v = _rows(values, "minmax_scale")
    lo = v.min(axis=1, keepdims=True)
    hi = v.max(axis=1, keepdims=True)
    flat = hi - lo <= _DEGENERATE_RTOL * np.maximum(np.abs(hi), np.abs(lo))
    out = (v - lo) / np.where(flat, 1.0, hi - lo)
    out[flat[:, 0]] = 0.0
    return out, flat[:, 0]


def zscore_scale(values) -> tuple[np.ndarray, np.ndarray]:
    """Standardize each row to mean 0, sample (n-1) sd 1; constant rows flagged."""
    v = _rows(values, "zscore_scale")
    if v.shape[1] < 2:
        raise InsufficientDataError("zscore_scale needs at least 2 values")
    mean = v.mean(axis=1, keepdims=True)
    sd = v.std(axis=1, ddof=1, keepdims=True)
    flat = sd <= _DEGENERATE_RTOL * np.abs(mean)
    out = (v - mean) / np.where(flat, 1.0, sd)
    out[flat[:, 0]] = 0.0
    return out, flat[:, 0]


def loess_smooth(
    values,
    span: float = 0.15,
    degree: int = 2,
    robustness_passes: int = 0,
) -> np.ndarray:
    """Locally weighted polynomial smoothing of each row, with tricube weights.

    Each point is fitted by weighted least squares over its ``span``
    fraction of nearest neighbours, evaluated at the point itself. Without
    robustness passes the fit is linear in the data, so one operator per
    (length, window, degree) serves every row.

    Parameters
    ----------
    span : fraction of the series used per local fit, in (0, 1].
    degree : local polynomial degree, 1 or 2.
    robustness_passes : number of bisquare reweighting passes (0 = plain fit).
    """
    v = _rows(values, "loess_smooth")
    if not 0.0 < span <= 1.0:
        raise LeadLagError(f"span must be in (0, 1], got {span}")
    if degree not in (1, 2):
        raise LeadLagError(f"degree must be 1 or 2, got {degree}")
    n = v.shape[1]
    q = int(ceil(span * n))
    if q < degree + 2:
        raise InsufficientDataError(
            f"loess window of {q} points is too small for degree {degree}"
        )
    if robustness_passes <= 0:
        return _loess_linear(v, q, degree)
    return np.array([_loess_robust(y, q, degree, robustness_passes) for y in v])


def _local_weights(n: int, i: int, q: int, degree: int,
                   robustness: np.ndarray | None = None) -> tuple[int, np.ndarray]:
    """(lo, w): the local fit at point ``i`` is ``w @ y[lo:lo + q]``, over the
    ``q`` points nearest ``i``; ``w`` is the intercept row of its pseudo-inverse."""
    lo = min(max(i - (q - 1) // 2, 0), n - q)
    offsets = np.arange(lo - i, lo - i + q, dtype=float)
    u = np.abs(offsets) / np.abs(offsets).max()
    w = (1.0 - u**3) ** 3
    if robustness is not None:
        w = w * robustness[lo : lo + q]
    sw = np.sqrt(w)
    X = np.vander(offsets, degree + 1, increasing=True)
    return lo, np.linalg.pinv(X * sw[:, None])[0] * sw


def _loess_linear(v: np.ndarray, q: int, degree: int) -> np.ndarray:
    # Interior points share the centred fit's kernel, applied to each row as
    # a correlation; that arithmetic does not depend on the other rows, and
    # DTW paths downstream are sensitive to the last bit. The points within
    # half a window of either end get one row of weights each.
    n = v.shape[1]
    h1 = (q - 1) // 2
    h2 = q - 1 - h1
    left = np.array([_local_weights(n, i, q, degree)[1] for i in range(h1)])
    right = np.array([_local_weights(n, i, q, degree)[1] for i in range(n - h2, n)])
    _, kernel = _local_weights(n, h1, q, degree)
    out = np.empty_like(v)
    out[:, :h1] = v[:, :q] @ left.T
    out[:, n - h2 :] = v[:, n - q :] @ right.T
    for smoothed, y in zip(out, v):
        smoothed[h1 : n - h2] = np.correlate(y, kernel, mode="valid")
    return out


def _loess_robust(y: np.ndarray, q: int, degree: int, passes: int) -> np.ndarray:
    n = y.size
    rob = np.ones(n)
    for _ in range(passes + 1):
        out = np.empty(n)
        for i in range(n):
            lo, w = _local_weights(n, i, q, degree, rob)
            out[i] = w @ y[lo : lo + q]
        resid = y - out
        s6 = 6.0 * np.median(np.abs(resid))
        if s6 == 0.0:
            break
        rob = np.clip(1.0 - (resid / s6) ** 2, 0.0, None) ** 2
    return out
