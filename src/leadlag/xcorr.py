"""Cross-correlation at a set of leads and optimal-lead extraction.

The correlation at lead ``L`` is corr(x_t, y_{t+L}): a positive lead means
the indicator moves before admissions. It uses full-series means and
denominators with the numerator summed over the overlapping days only,
reproducing the usual surveillance formulation.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError
from .timeseries import _row_pair


def ccf_at_leads(x, y, leads) -> np.ndarray:
    """Correlation of each row of ``x`` with the same row of ``y`` at each lead.

    ``x`` and ``y`` are complete (rows, days) arrays. Returns a (rows, leads)
    array. A row whose ``x`` or ``y`` is constant reads NaN at every lead.
    Constant means max = min: an inexact mean leaves a constant row a tiny
    nonzero sum of squares. Each row is first scaled by the power of two
    that puts its largest magnitude in [0.5, 1): exact for normal values,
    so no sum of squares overflows or underflows to zero.
    """
    xv, yv = (np.ldexp(v, -np.frexp(np.abs(v).max(axis=1, keepdims=True))[1])
              for v in _row_pair(x, y, "cross-correlation"))
    n = xv.shape[1]
    for lead in leads:
        if abs(lead) >= n - 2:
            raise InsufficientDataError(f"lead {lead} too large for series of length {n}")
    xc = xv - xv.mean(axis=1, keepdims=True)
    yc = yv - yv.mean(axis=1, keepdims=True)
    denom = np.sqrt(np.einsum("ij,ij->i", xc, xc)) * np.sqrt(np.einsum("ij,ij->i", yc, yc))
    out = np.empty((xc.shape[0], len(leads)))
    for k, lead in enumerate(leads):
        a, b = max(lead, 0), max(-lead, 0)  # the overlap of x_t and y_{t+lead}
        out[:, k] = np.einsum("ij,ij->i", xc[:, b : n - a], yc[:, a : n - b])
    zero = (xv.max(axis=1) == xv.min(axis=1)) | (yv.max(axis=1) == yv.min(axis=1))
    out /= np.where(zero, 1.0, denom)[:, None]
    out[zero] = np.nan
    return out


def optimal_leads(leads, values) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a (rows, leads) array, for non-empty ``leads``: the lead with
    the maximum non-negative correlation and that correlation, as floats, NaN
    where a row has none. Ties break toward the smallest absolute lead, then
    toward the positive one."""
    leads = np.asarray(leads)
    eligible = values >= 0.0
    vmax = np.where(eligible, values, -np.inf).max(axis=1)
    rank = np.lexsort((-leads, np.abs(leads)))  # ties: smallest |lead|, then positive
    at_max = (eligible & (values == vmax[:, None]))[:, rank]
    found = at_max.any(axis=1)
    return (np.where(found, leads[rank][at_max.argmax(axis=1)], np.nan),
            np.where(found, vmax, np.nan))
