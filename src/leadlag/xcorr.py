"""Cross-correlation at a set of leads and optimal-lead extraction.

The correlation at lead ``L`` is corr(x_t, y_{t+L}): a positive lead means
the indicator moves before admissions. It uses full-series means and
denominators with the numerator summed over the overlapping days only,
reproducing the usual surveillance formulation.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, LeadLagError


def ccf_at_leads(x, y, leads) -> np.ndarray:
    """Correlation of each row of ``x`` with the same row of ``y`` at each lead.

    ``x`` and ``y`` are complete (rows, days) arrays. Returns a (rows, leads)
    array. A row whose ``x`` or ``y`` is constant has no correlation and
    reads NaN.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.ndim != 2:
        raise LeadLagError("x and y must be aligned (same shape, one series per row)")
    if np.isnan(xv).any() or np.isnan(yv).any():
        raise LeadLagError("cross-correlation requires complete series")
    n = xv.shape[1]
    for lead in leads:
        if abs(lead) >= n - 2:
            raise InsufficientDataError(f"delay {-lead} too large for series of length {n}")
    xc = xv - xv.mean(axis=1, keepdims=True)
    yc = yv - yv.mean(axis=1, keepdims=True)
    denom = np.sqrt(np.einsum("ij,ij->i", xc, xc)) * np.sqrt(np.einsum("ij,ij->i", yc, yc))
    out = np.empty((xc.shape[0], len(leads)))
    for k, lead in enumerate(leads):
        if lead >= 0:
            out[:, k] = np.einsum("ij,ij->i", xc[:, : n - lead], yc[:, lead:])
        else:
            out[:, k] = np.einsum("ij,ij->i", xc[:, -lead:], yc[:, : n + lead])
    zero = denom == 0.0
    out /= np.where(zero, 1.0, denom)[:, None]
    out[zero] = np.nan
    return out


def optimal_lead(leads, values) -> tuple[int, float] | None:
    """Lead with the maximum non-negative correlation, or None if all negative.

    Ties break toward the smallest absolute lead, then toward the positive one.
    """
    leads = np.asarray(leads)
    values = np.asarray(values, dtype=float)
    eligible = values >= 0.0
    if not eligible.any():
        return None
    vmax = values[eligible].max()
    at_max = leads[eligible & (values == vmax)]
    best = min(at_max, key=lambda lead: (abs(lead), -lead))
    return int(best), float(vmax)
