"""Banded, slope-constrained, open-ended dynamic time warping.

The recursion is the asymmetric variant of the P = 2 slope-constrained
transition table: from g(i, j) the admissible productions are

    g(i-1, j-1) +        d(i, j)
    g(i-2, j-3) + (2/3)*(d(i-1, j-2) + d(i, j-1) + d(i, j))
    g(i-3, j-2) +        d(i-2, j-1) + d(i-1, j) + d(i, j)

and the pipeline divides the cost by the query length to compare alignments.
Every query index is consumed; the ends are open, so the path may enter and
leave the reference at any column and a reference prefix or suffix is
skipped at zero cost. All matched pairs must satisfy the Sakoe-Chiba band
constraint |i - j| <= window.

``dtw_align_batch`` runs the dynamic program once for a batch of alignments
of equal lengths (one per Trust, say) in band coordinates, holding a few
cost rows and int8 backpointers for the band only. An alignment is its
accumulated cost and, for each query index, the lowest and highest
reference index it matched; ``path_pairs`` expands that into the matched
(query, reference) index pairs, an (L, 2) int array in ascending order.
``brute_force_dtw`` enumerates every admissible path under identical
constraints and is the verification oracle for the dynamic program; the
two accumulate costs in the same order and agree to the last bit.
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


def dtw_align_batch(query, reference, window: int = 35) -> tuple[np.ndarray, np.ndarray]:
    """Align each query row onto the reference row of the same index.

    ``query`` is (B, n) or (B, n, k) and ``reference`` (B, m) or (B, m, k):
    B independent alignments sharing lengths and band. Returns ``(cost,
    match)``: each row's accumulated cost, a (B,) array that reads +inf
    where a row has no admissible path, and a (B, n, 2) int32 array holding
    the lowest and highest reference index matched to each query index (-1
    where the cost is +inf). The step pattern matches every query index to
    one reference index or to two adjacent ones, so ``match`` is the whole
    alignment; :func:`path_pairs` expands a row into its pairs.

    One dynamic program runs over all rows at once in band coordinates:
    band column c of query row i is reference column i - w + c, and every
    row keeps its 2w + 1 band columns between two columns of +inf, so each
    production reads its candidates and local costs at fixed offsets. Memory
    is the last three local-cost and four accumulated-cost band rows, the
    reference padded with +inf columns, and n*B*(2w+1) int8 backpointers.
    Costs accumulate per element in the same order as
    :func:`brute_force_dtw`, which it matches to the last bit.
    """
    q, r = _batch(query, reference, window)
    batch, n = q.shape[:2]
    m = r.shape[1]
    w = min(window, max(n, m))  # a wider band admits no further pairs
    band = 2 * w + 1

    # reference column j at j + w, so row i's band is ref[:, i : i + band]
    ref = np.full((batch, n + 2 * w) + r.shape[2:], np.inf)
    ref[:, w : w + m] = r[:, : n + w]
    g = np.full((4, batch, band + 2), np.inf)  # accumulated cost: row i in slot i % 4
    d = np.full((3, batch, band + 2), np.inf)  # local cost: row i in slot i % 3
    back = np.full((n, batch, band), -1, dtype=np.int8)
    for i in range(n):
        d_i = d[i % 3][:, 1:-1]
        if q.ndim == 2:
            np.abs(q[:, i, None] - ref[:, i : i + band], out=d_i)
        else:
            np.sqrt(((q[:, i, None, :] - ref[:, i : i + band]) ** 2).sum(axis=2), out=d_i)
        row = g[i % 4][:, 1:-1]
        if i == 0:
            row[:] = d_i  # open begin: the path may enter at any column
            continue
        row.fill(np.inf)
        for p_idx, (di, dj, cells) in enumerate(_STEPS):
            if i < di:
                continue
            # for band column c, cell (i - a, j - b) is at c + 1 + a - b in its slot
            at = 1 + di - dj
            cand = g[(i - di) % 4][:, at : at + band]
            for ri, rj, wt in cells:
                at = 1 + ri - rj
                cand = cand + wt * d[(i - ri) % 3][:, at : at + band]
            better = cand < row
            np.copyto(row, cand, where=better)
            back[i][better] = p_idx

    last = g[(n - 1) % 4][:, 1:-1]
    ends = np.argmin(last, axis=1)  # open end: the cheapest column of the last row
    cost = last[np.arange(batch), ends]
    match = np.full((batch, n, 2), -1, dtype=np.int32)
    for b in np.flatnonzero(cost < np.inf).tolist():
        lo, hi = [0] * n, [0] * n
        i, j = n - 1, n - 1 - w + int(ends[b])
        while i > 0:
            di, dj, cells = _STEPS[back[i, b, j - i + w]]
            for ri, rj, _ in cells:  # ascending, so a query index's last cell is its highest
                hi[i - ri] = j - rj
            for ri, rj, _ in reversed(cells):
                lo[i - ri] = j - rj
            i, j = i - di, j - dj
        lo[0] = hi[0] = j
        match[b, :, 0], match[b, :, 1] = lo, hi
    return cost, match


def path_pairs(match: np.ndarray) -> np.ndarray:
    """One row of ``dtw_align_batch``'s ``match`` as its sorted (L, 2) int32
    (query, reference) index pairs: one pair per query index, two where it
    matched two reference indices."""
    pairs = np.empty((len(match), 2, 2), dtype=np.int32)
    pairs[:, :, 0] = np.arange(len(match))[:, None]
    pairs[:, :, 1] = match
    keep = np.ones((len(match), 2), dtype=bool)
    keep[:, 1] = match[:, 1] != match[:, 0]
    return pairs[keep]


def brute_force_dtw(query, reference, window: int = 35) -> tuple[float, np.ndarray | None]:
    """Exhaustive-path verification oracle; identical constraints and arithmetic.

    ``query`` (n,) or (n, k) and ``reference`` (m,) or (m, k) are checked
    as a batch of one. Returns the accumulated cost (+inf where no path is
    admissible) and the sorted (L, 2) int32 pairs (``None`` then), the form
    :func:`path_pairs` gives one row of :func:`dtw_align_batch`.
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
