"""Banded, slope-constrained, open-ended dynamic time warping.

The recursion is the asymmetric variant of the P = 2 slope-constrained
transition table: from g(i, j) the admissible productions are

    g(i-1, j-1) +        d(i, j)
    g(i-2, j-3) + (2/3)*(d(i-1, j-2) + d(i, j-1) + d(i, j))
    g(i-3, j-2) +        d(i-2, j-1) + d(i-1, j) + d(i, j)

and the pipeline divides the cost by the query length to compare alignments.
Every query index is consumed; with open begin/end the path may enter and
leave the reference at any column, so a reference prefix or suffix is
skipped at zero cost. All matched pairs must satisfy the band constraint
|i - j| <= window.

``dtw_align_batch`` runs the dynamic program once for a batch of alignments
of equal lengths (one per Trust, say), holding a few cost rows and int8
backpointers for the band only. An alignment is its accumulated cost and
its matched (query, reference) index pairs, an (L, 2) int array in
ascending order. ``brute_force_dtw`` enumerates every admissible path under
identical constraints and is the verification oracle for the dynamic
program; the two accumulate costs in the same order and agree to the last
bit.
"""

from __future__ import annotations

import numpy as np

from .errors import LeadLagError, OracleScaleError

_W23 = 2.0 / 3.0

# Backward productions: (di, dj, cells); cells are (ri, rj, weight) offsets
# from the destination, in cost-accumulation order.
_STEPS = (
    (1, 1, ((0, 0, 1.0),)),
    (2, 3, ((1, 2, _W23), (0, 1, _W23), (0, 0, _W23))),
    (3, 2, ((2, 1, 1.0), (1, 0, 1.0), (0, 0, 1.0))),
)

# The same productions as forward moves: ((di, dj), cells) with cell offsets
# from the source, in the same accumulation order.
_FORWARD_STEPS = (
    ((1, 1), ((1, 1, 1.0),)),
    ((2, 3), ((1, 1, _W23), (2, 2, _W23), (2, 3, _W23))),
    ((3, 2), ((1, 1, 1.0), (2, 2, 1.0), (3, 2, 1.0))),
)

_ORACLE_MAX_LEN = 12


def _local_cost_matrix(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    if q.ndim == 1:
        return np.abs(q[:, None] - r[None, :])
    return np.sqrt(((q[:, None, :] - r[None, :, :]) ** 2).sum(axis=2))


def _batch(query, reference, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked float arrays: (B, n) and (B, m), or (B, n, k) and (B, m, k)."""
    q = np.asarray(query, dtype=float)
    r = np.asarray(reference, dtype=float)
    if (q.ndim not in (2, 3) or r.ndim != q.ndim or q.shape[0] != r.shape[0]
            or q.shape[2:] != r.shape[2:]):
        raise LeadLagError(f"query {q.shape} and reference {r.shape} must be "
                           "(B, n) and (B, m), or (B, n, k) and (B, m, k)")
    if np.isnan(q).any() or np.isnan(r).any():
        raise LeadLagError("NaN in alignment input")
    if window < 1:
        raise LeadLagError(f"window must be >= 1, got {window}")
    if q.shape[1] < 4 or r.shape[1] < 4:
        raise LeadLagError("sequences must have length >= 4")
    return q, r


def dtw_align_batch(query, reference, window: int = 35, open_begin: bool = True,
                    open_end: bool = True) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Align each query row onto the reference row of the same index.

    ``query`` is (B, n) or (B, n, k) and ``reference`` (B, m) or (B, m, k):
    B independent alignments sharing lengths and band. Returns each row's
    accumulated cost, a (B,) array that reads +inf where a row has no
    admissible path, and a list of each row's matched pairs, a sorted
    (L, 2) int32 array (``None`` where the cost is +inf). The pairs include
    every cell whose local cost the optimal path accumulated. One dynamic
    program runs over all rows at once; it keeps the last three local-cost
    rows and the last four accumulated-cost rows, each (B, m), and int8
    backpointers for the band only, so memory is O(B*m) floats plus
    n*B*(2*window+1) bytes. Costs accumulate per element in the same order
    as :func:`brute_force_dtw`, which it matches to the last bit.
    """
    q, r = _batch(query, reference, window)
    batch, n = q.shape[:2]
    m = r.shape[1]
    w = min(window, max(n, m))  # a wider band admits no further pairs

    g = np.full((4, batch, m), np.inf)  # accumulated cost: row i in slot i % 4
    d = np.empty((3, batch, m))  # local cost: row i in slot i % 3
    back = np.full((n, batch, 2 * w + 1), -1, dtype=np.int8)  # column j at j - i + w
    prod = np.empty((batch, m), dtype=np.int8)
    for i in range(n):
        if q.ndim == 2:
            d_i = np.abs(q[:, i, None] - r, out=d[i % 3])
        else:
            d_i = np.sqrt(((q[:, i, None, :] - r) ** 2).sum(axis=2), out=d[i % 3])
        d_i[:, : max(i - w, 0)] = np.inf
        d_i[:, i + w + 1 :] = np.inf
        row = g[i % 4]
        row.fill(np.inf)
        if i == 0:
            if open_begin:
                row[:] = d_i
            else:
                row[:, 0] = d_i[:, 0]
            continue
        prod.fill(-1)
        for p_idx, (di, dj, cells) in enumerate(_STEPS):
            if i < di:
                continue
            # column j of the candidate sits at j - dj; columns j < dj are unreachable
            cand = g[(i - di) % 4][:, : m - dj]
            for ri, rj, wt in cells:
                cand = cand + wt * d[(i - ri) % 3][:, dj - rj : m - rj]
            better = cand < row[:, dj:]
            np.copyto(row[:, dj:], cand, where=better)
            prod[:, dj:][better] = p_idx
        lo, hi = max(i - w, 0), min(i + w, m - 1)
        if lo <= hi:
            back[i, :, lo - i + w : hi - i + w + 1] = prod[:, lo : hi + 1]

    last = g[(n - 1) % 4]
    ends = np.argmin(last, axis=1) if open_end else np.full(batch, m - 1)
    cost = last[np.arange(batch), ends]
    paths: list[np.ndarray | None] = []
    for b, j_end in enumerate(ends.tolist()):
        if cost[b] == np.inf:
            paths.append(None)
            continue
        path: list[int] = []  # i, j of each pair, from the last pair backwards
        i, j = n - 1, j_end
        while i > 0:
            di, dj, cells = _STEPS[back[i, b, j - i + w]]
            for ri, rj, _ in reversed(cells):
                path += (i - ri, j - rj)
            i, j = i - di, j - dj
        path += (0, j)
        paths.append(np.array(path, dtype=np.int32).reshape(-1, 2)[::-1])
    return cost, paths


def brute_force_dtw(query, reference, window: int = 35, open_begin: bool = True,
                    open_end: bool = True) -> tuple[float, np.ndarray | None]:
    """Exhaustive-path verification oracle; identical constraints and arithmetic.

    ``query`` (n,) or (n, k) and ``reference`` (m,) or (m, k) are checked
    as a batch of one. Returns their alignment in the form of one row of
    :func:`dtw_align_batch`: the accumulated cost (+inf where no path is
    admissible) and the sorted (L, 2) int32 pairs (``None`` then).
    Enumerates every admissible production sequence by depth-first search;
    only feasible for sequences of length <= 12.
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
            if (open_end or j == m - 1) and cost < best_cost:
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

    start_cols = range(min(window, m - 1) + 1) if open_begin else (0,)
    for j0 in start_cols:
        walk(0, j0, float(d[0, j0]), [(0, j0)])

    if best_pairs is None:
        return np.inf, None
    return float(best_cost), np.array(sorted(best_pairs), dtype=np.int32)


def lead_times_from_path(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-query-index lead: matched reference index minus query index.

    ``pairs`` is an (L, 2) array of (query, reference) index pairs, as
    :func:`dtw_align_batch` returns them. Returns the matched query indices
    in ascending order and the lead of each, as float. A query index matched
    to several reference indices collapses to the median matched index.
    Positive lead = indicator ahead of admissions.
    """
    if len(pairs) == 0:
        raise LeadLagError("empty alignment")
    i, j = np.asarray(pairs).T
    order = np.lexsort((j, i))
    i, j = i[order], j[order]
    index, start, count = np.unique(i, return_index=True, return_counts=True)
    # the median of a sorted group is the mean of its middle one or two values
    median = (j[start + (count - 1) // 2] + j[start + count // 2]) / 2
    return index, median - index
