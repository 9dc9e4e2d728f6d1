"""Exhaustive reference implementations that the tests compare the kernels with."""

from __future__ import annotations

import numpy as np

from leadlag.dtw import _batch
from leadlag.errors import LeadLagError

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
