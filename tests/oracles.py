"""Scalar and exhaustive reference implementations that the tests compare the kernels with."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from leadlag.config import LatencySpec
from leadlag.dtw import _batch, path_pairs
from leadlag.errors import LeadLagError
from leadlag.reports import _csv_text

_W23 = 2.0 / 3.0

# The DTW productions as forward moves: ((di, dj), cells) with cell offsets
# from the source, in cost-accumulation order. Written out by hand, not
# derived from leadlag.dtw._STEPS, so that the oracle checks that table too.
_FORWARD_STEPS = (
    ((1, 1), ((1, 1, 1.0),)),
    ((2, 3), ((1, 1, _W23), (2, 2, _W23), (2, 3, _W23))),
    ((3, 2), ((1, 1, 1.0), (2, 2, 1.0), (3, 2, 1.0))),
)

_ORACLE_MAX_LEN = 12


class OracleScaleError(LeadLagError):
    """Input exceeds the size the exhaustive oracle can enumerate."""


def _local_cost_matrix(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    if q.ndim == 1:
        return np.abs(q[:, None] - r[None, :])
    return np.sqrt(((q[:, None, :] - r[None, :, :]) ** 2).sum(axis=2))


def brute_force_dtw(query, reference, window: int = 35) -> tuple[float, np.ndarray | None]:
    """Exhaustive-path oracle for ``leadlag.dtw.dtw_align_batch``.

    Same constraints and arithmetic: ``query`` (n,) or (n, k) and
    ``reference`` (m,) or (m, k) are checked as a batch of one, and costs
    accumulate in the same order, so the two agree to the last bit. Returns
    the accumulated cost (+inf where no path is admissible) and the sorted
    (L, 2) int32 pairs (``None`` then), the form ``path_pairs`` gives one
    row of ``dtw_align_batch``. Enumerates every admissible production
    sequence by depth-first search; only feasible for sequences of length
    <= 12.
    """
    q, r = _batch(np.asarray(query)[None], np.asarray(reference)[None], window)
    n, m = q.shape[1], r.shape[1]
    if n > _ORACLE_MAX_LEN or m > _ORACLE_MAX_LEN:
        raise OracleScaleError("oracle scale exceeded")
    d = _local_cost_matrix(q[0], r[0])

    best_cost = np.inf
    best_pairs: list[tuple[int, int]] | None = None

    def walk(i: int, j: int, cost: float, pairs: list[tuple[int, int]]) -> None:
        nonlocal best_cost, best_pairs
        if i == n - 1:
            if cost < best_cost:
                best_cost = cost
                best_pairs = list(pairs)
            return
        for (di, dj), cells in _FORWARD_STEPS:
            if i + di >= n or j + dj >= m:
                continue
            c = cost
            added = 0
            feasible = True
            for ai, aj, w in cells:
                ci, cj = i + ai, j + aj
                if abs(ci - cj) > window:
                    feasible = False
                    break
                c = c + w * d[ci, cj]
                pairs.append((ci, cj))
                added += 1
            if feasible:
                walk(i + di, j + dj, c, pairs)
            del pairs[len(pairs) - added :]

    for j0 in range(min(window, m - 1) + 1):
        walk(0, j0, float(d[0, j0]), [(0, j0)])

    if best_pairs is None:
        return np.inf, None
    return float(best_cost), np.array(sorted(best_pairs), dtype=np.int32)


def scalar_dtw(query, reference, window: int = 35) -> tuple[float, np.ndarray]:
    """Cell-by-cell oracle for one row of ``leadlag.dtw.dtw_align_batch``.

    Fills the accumulated-cost table one cell at a time in plain Python
    floats. Each cell tries the productions of ``_FORWARD_STEPS`` in order,
    accumulating in the kernel's order, and a later production replaces an
    earlier one only if strictly cheaper; of equal-cost end columns the
    lowest wins. Cells outside the sequences or the band cost +inf. Returns
    the cost and the (n, 2) int32 lowest and highest matched reference index
    per query index (all -1 where the cost is +inf), the kernel's ``match``.
    """
    q, r = _batch(np.asarray(query)[None], np.asarray(reference)[None], window)
    n, m = q.shape[1], r.shape[1]
    d = _local_cost_matrix(q[0], r[0]).tolist()

    def local(i: int, j: int) -> float:
        return d[i][j] if 0 <= j < m and abs(i - j) <= window else np.inf

    g = [[local(0, j) for j in range(m)]]  # open begin
    back = [[None] * m]
    for i in range(1, n):
        g.append([np.inf] * m)
        back.append([None] * m)
        for j in range(m):
            for p, ((di, dj), cells) in enumerate(_FORWARD_STEPS):
                si, sj = i - di, j - dj  # the production's source cell
                c = g[si][sj] if si >= 0 and sj >= 0 else np.inf
                for ai, aj, w in cells:
                    c = c + w * local(si + ai, sj + aj)
                if c < g[i][j]:
                    g[i][j], back[i][j] = c, p

    end = 0
    for j in range(1, m):  # open end: the lowest of the cheapest columns
        if g[n - 1][j] < g[n - 1][end]:
            end = j
    match = np.full((n, 2), -1, dtype=np.int32)
    if g[n - 1][end] == np.inf:
        return np.inf, match
    matched: list[list[int]] = [[] for _ in range(n)]
    i, j = n - 1, end
    while i > 0:
        (di, dj), cells = _FORWARD_STEPS[back[i][j]]
        for ai, aj, _ in cells:
            matched[i - di + ai].append(j - dj + aj)
        i, j = i - di, j - dj
    matched[0].append(j)
    match[:] = [(min(js), max(js)) for js in matched]
    return g[n - 1][end], match


def optimal_lead(leads, values) -> tuple[int, float] | None:
    """Per-row oracle for ``leadlag.xcorr.optimal_leads``: the lead with the
    maximum non-negative correlation and that correlation, or None if all
    are negative.

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


def effective_lead(lead_days: float | None,
                   latency: LatencySpec | None) -> tuple[float | None, bool]:
    """Per-element oracle for ``leadlag.pipeline.effective_leads``: the
    operational lead after reporting lag and worst-case release staleness.

    effective = lead - reporting_lag - (release_cadence - 1), floored at 0
    with an eroded flag when the latency consumes the whole lead. The floor
    only applies to non-negative statistical leads; a lagging indicator
    stays negative (effective lead never exceeds the statistical lead).
    """
    if lead_days is None or latency is None:
        return None, False
    eff = float(lead_days) - latency.reporting_lag_days - (latency.release_cadence_days - 1)
    if eff < 0 and lead_days >= 0:
        return 0.0, True
    return eff, False


def write_dtw_paths_per_alignment(path: Path, records: list[tuple]) -> None:
    """Per-alignment oracle for ``leadlag.reports.write_dtw_paths``.

    Takes one (indicator, wave, scope, days, match) record per alignment,
    ``match`` its (n, 2) row, and formats every line on its own; the stable
    sort keeps each (indicator, wave) block's scope order.
    """
    with path.open("w", encoding="utf-8") as fh:
        fh.write("indicator,wave,scope,query_date,ref_date,lead_days\n")
        for ind, wave, scope, days, match in sorted(records, key=lambda rec: rec[:2]):
            head = "".join(_csv_text(text) + "," for text in (ind, wave, scope))
            fh.write("".join([f"{head}{days[i]},{days[j]},{j - i}\n"
                              for i, j in path_pairs(match).tolist()]))
