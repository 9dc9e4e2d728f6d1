"""Dense daily panels and row-wise preprocessing transforms.

A :class:`Panel` holds one variable as a float ``(n_geo, n_days)`` array:
one row per geography id (sorted), one column per consecutive day from
``start_date``. The transforms take a plain 2-D array, one series per row,
and return new arrays; the scalings map a constant row to zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from math import ceil

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, LeadLagError


@dataclass(frozen=True)
class Panel:
    """One variable: a row per geo id, a column per day.

    The panel keeps ``values`` and makes it read-only; pass an array no other
    code writes to."""

    start_date: date
    geo_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        geo_ids = tuple(self.geo_ids)
        if not geo_ids:
            raise LeadLagError("panel has no series")
        if list(geo_ids) != sorted(set(geo_ids)):
            raise LeadLagError("panel geo ids must be unique and sorted")
        v = _rows(self.values, "panel", complete=False)
        if v.shape[0] != len(geo_ids):
            raise LeadLagError(
                f"values of shape {v.shape} misaligned with {len(geo_ids)} geo ids")
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
            raise LeadLagError("empty slice")
        return slice(i0, i1 + 1)


def overlap(start: date, end: date, *panels: Panel) -> tuple[date, date] | None:
    """The first and last day of [start, end] that every panel covers, or None."""
    start = max([start] + [p.start_date for p in panels])
    end = min([end] + [p.end_date for p in panels])
    return (start, end) if start <= end else None


def _rows(values, op: str, complete: bool = True) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise LeadLagError(f"{op} takes one series per row, got shape {v.shape}")
    if v.shape[1] < 1:
        raise LeadLagError("empty series")
    if complete and not np.isfinite(v).all():
        raise LeadLagError(f"{op} requires a complete, finite series")
    return v


def _row_pair(x, y, op: str) -> tuple[np.ndarray, np.ndarray]:
    if np.shape(x) != np.shape(y) or np.ndim(x) != 2:
        raise LeadLagError("x and y must be aligned (same shape, one series per row)")
    return _rows(x, op), _rows(y, op)


def locf_impute(values) -> np.ndarray:
    """Fill missing values (NaN) by carrying the last observation forward.

    Leading missing values take the row's first observation, so that the
    result is rectangular-safe for matrix methods.
    """
    v = _rows(values, "locf_impute", complete=False)
    observed = ~np.isnan(v)
    if not observed.any(axis=1).all():
        raise LeadLagError("empty series")
    first = np.argmax(observed, axis=1)
    idx = np.where(observed, np.arange(v.shape[1]), first[:, None])
    np.maximum.accumulate(idx, axis=1, out=idx)
    return np.take_along_axis(v, idx, axis=1)


# a spread this far below the value magnitude is floating-point noise, not signal
_DEGENERATE_RTOL = 1e-13


def minmax_scale(values) -> np.ndarray:
    """Scale each row to [0, 1]; a constant row reads zero.

    Constant within floating-point noise counts as constant (smoothing a
    flat series leaves eps-sized ripples that must not be stretched to 0-1).
    """
    v = _rows(values, "minmax_scale")
    lo = v.min(axis=1, keepdims=True)
    hi = v.max(axis=1, keepdims=True)
    return _scaled(v, lo, hi - lo, np.maximum(np.abs(hi), np.abs(lo)))


def zscore_scale(values) -> np.ndarray:
    """Standardize each row to mean 0, sample (n-1) sd 1; a constant row reads zero."""
    v = _rows(values, "zscore_scale")
    if v.shape[1] < 2:
        raise InsufficientDataError("zscore_scale needs at least 2 values")
    mean = v.mean(axis=1, keepdims=True)
    return _scaled(v, mean, v.std(axis=1, ddof=1, keepdims=True), np.abs(mean))


def _scaled(v: np.ndarray, centre: np.ndarray, spread: np.ndarray,
            size: np.ndarray) -> np.ndarray:
    """``(v - centre) / spread`` by row; a row whose spread is within
    ``_DEGENERATE_RTOL`` of its size reads zero."""
    flat = spread <= _DEGENERATE_RTOL * size
    out = (v - centre) / np.where(flat, 1.0, spread)
    out[flat[:, 0]] = 0.0
    return out


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
    out = _loess_linear(v, q, degree)
    # Cleveland's bisquare reweighting of the residuals, from the plain fit as pass 0
    for _ in range(robustness_passes):
        resid = v - out
        s6 = 6.0 * row_median(np.abs(resid))
        for k in np.flatnonzero(s6):  # an exact fit leaves no residual scale to reweight by
            robustness = np.clip(1.0 - (resid[k] / s6[k]) ** 2, 0.0, None) ** 2
            lo, w = _local_fits(n, np.arange(n), q, degree, robustness)
            out[k] = np.einsum("ij,ij->i", w, sliding_window_view(v[k], q)[lo])
    return out


def _local_fits(n: int, points: np.ndarray, q: int, degree: int,
                robustness: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(lo, w): the local fit at ``points[k]`` is ``w[k] @ y[lo[k]:lo[k] + q]``,
    over the ``q`` points nearest it; ``w[k]`` is the intercept row of the
    pseudo-inverse of its weighted design, all taken in one stacked call."""
    lo = np.clip(points - (q - 1) // 2, 0, n - q)
    offsets = (lo - points)[:, None] + np.arange(q, dtype=float)
    u = np.abs(offsets) / np.abs(offsets).max(axis=1, keepdims=True)
    w = (1.0 - u**3) ** 3
    if robustness is not None:
        w = w * sliding_window_view(robustness, q)[lo]
    sw = np.sqrt(w)
    X = np.stack([np.ones_like(offsets), offsets, offsets * offsets][: degree + 1], axis=-1)
    return lo, np.linalg.pinv(X * sw[:, :, None])[:, 0] * sw


def _loess_linear(v: np.ndarray, q: int, degree: int) -> np.ndarray:
    # Interior points share the centred fit's kernel, applied to each row as
    # a correlation; that arithmetic does not depend on the other rows, and
    # DTW paths downstream are sensitive to the last bit. The points within
    # half a window of either end get one row of weights each.
    n = v.shape[1]
    h1 = (q - 1) // 2
    h2 = q - 1 - h1
    _, w = _local_fits(n, np.r_[:h1, n - h2 : n, h1], q, degree)
    out = np.empty_like(v)
    out[:, :h1] = v[:, :q] @ w[:h1].T
    out[:, n - h2 :] = v[:, n - q :] @ w[h1:-1].T
    for smoothed, y in zip(out, v):
        smoothed[h1 : n - h2] = np.correlate(y, w[-1], mode="valid")
    return out


def row_median(values: np.ndarray) -> np.ndarray:
    """The median along the last axis of an array without NaN, to the bit as
    ``np.median`` computes it; ``np.median`` would import ``numpy.ma``."""
    s = np.sort(values, axis=-1)
    size = s.shape[-1]
    return (s[..., (size - 1) // 2] + s[..., size // 2]) / 2
