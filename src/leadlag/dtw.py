"""Banded, slope-constrained, open-ended dynamic time warping.

The recursion is the asymmetric variant of the P = 2 slope-constrained
transition table: from g(i, j) the admissible productions are

    g(i-1, j-1) +        d(i, j)
    g(i-2, j-3) + (2/3)*(d(i-1, j-2) + d(i, j-1) + d(i, j))
    g(i-3, j-2) +        d(i-2, j-1) + d(i-1, j) + d(i, j)

and the pipeline divides the cost by the query length to compare alignments.
Each sum accumulates left to right, the weighted one as a sum of (2/3)*d
terms. At a tie the earlier production in this list wins, and of end
columns of equal cost the lowest wins. Every query index is consumed; the
ends are open, so the path may enter and leave the reference at any column
and a reference prefix or suffix is skipped at zero cost. All matched pairs must satisfy the Sakoe-Chiba band
constraint |i - j| <= window.

``dtw_align_batch`` runs the dynamic program once for a batch of alignments
of equal lengths (one per Trust, say) in band coordinates, holding a few
cost rows and int8 backpointers for the band only, then follows each row's
backpointers by a pointer chase over their flat array. An alignment is its
accumulated cost and, for each query index, the lowest and highest
reference index it matched; ``path_pairs`` expands that into the matched
(query, reference) index pairs, an (L, 2) int array in ascending order, or
a whole batch at once into (row, query, reference) triples.
The tests check the dynamic program against two oracles that accumulate
costs in the same order and agree to the last bit: one enumerates every
admissible path under identical constraints, and one fills the table cell
by cell with the tie rules above.
"""

from __future__ import annotations

import numpy as np

from .errors import LeadLagError

_W23 = 2.0 / 3.0

# Backward productions: (di, dj, cells); cells are (ri, rj, weight) offsets
# from the destination, in cost-accumulation order.
_STEPS = (
    (1, 1, ((0, 0, 1.0),)),
    (2, 3, ((1, 2, _W23), (0, 1, _W23), (0, 0, _W23))),
    (3, 2, ((2, 1, 1.0), (1, 0, 1.0), (0, 0, 1.0))),
)
# A backpointer is 2 * (production 3 won) + (production 2 beat production 1).
_BACK_STEPS = _STEPS + (_STEPS[2],)


def _reach(cells, ri: int) -> tuple[int, int, int]:
    """(ri, highest rj, lowest rj) of the ``cells`` of a production at query
    offset ri; at an offset the production does not reach back to, those of
    offset 0, so that its entry is written twice with the same values."""
    rjs = [rj for a, rj, _ in cells if a == ri]
    return (ri, max(rjs), min(rjs)) if rjs else _reach(cells, 0)


# per backpointer code (rows) and query offset 0, 1, 2 (columns): the offset
# written, and the reference offsets of the lowest and highest matched column
_RI, _LO, _HI = np.moveaxis(np.array(
    [[_reach(cells, ri) for ri in range(3)] for _, _, cells in _BACK_STEPS]), 2, 0)


def _batch(query, reference, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked float arrays: (B, n) and (B, m), or (B, n, k) and (B, m, k)."""
    q = np.asarray(query, dtype=float)
    r = np.asarray(reference, dtype=float)
    if (q.ndim not in (2, 3) or r.ndim != q.ndim or q.shape[0] != r.shape[0]
            or q.shape[2:] != r.shape[2:]):
        raise LeadLagError(f"query {q.shape} and reference {r.shape} must be "
                           "(B, n) and (B, m), or (B, n, k) and (B, m, k)")
    if not (np.isfinite(q).all() and np.isfinite(r).all()):
        raise LeadLagError("NaN or inf in alignment input")
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
    alignment; :func:`path_pairs` expands a row, or all of them, into pairs.

    One dynamic program runs over all rows at once in band coordinates:
    band column c of query row i is reference column i - w + c, and every
    row keeps its 2w + 1 band columns between two columns of +inf, so each
    production reads its candidates and local costs at fixed offsets. The
    state is band-major: a band row is a (2w + 3, B) block, so the shifted
    slice a production reads is one contiguous block, and the reference is
    padded with +inf to (n + 2w, B) or (n + 2w, B, k). Each query row
    computes its local costs d and (2/3)*d once, and the three productions
    read shifted slices of them; slots of rows before row 0 hold +inf, so a
    production reaching before the first row loses by itself. A later
    production wins only if strictly cheaper (the tie rules above), and the
    backpointer is the int8 code 2 * (production 3 won) + (production 2 beat
    production 1): 0 for production 1, 1 for production 2, 2 or 3 for
    production 3. Memory is the last three d, three (2/3)*d (212 KB at
    B = 121, w = 35) and four accumulated-cost band rows, that reference and
    (n, 2w + 1, B) int8 backpointers. Costs accumulate per element in a
    fixed order, which the oracles in the tests match to the last bit.

    The backtrack is a pointer chase over the flat backpointer array: cell
    (i, c, b) sits at p = (i * (2w + 1) + c) * B + b, and production (di, dj)
    moves p back by the constant (di * (2w + 1) + dj - di) * B, so a step of
    a row's walk is one lookup, one append and one subtraction, until p
    reaches row 0, where the path entered (row 0 holds no backpointers). The
    cells visited by all rows are then decoded at once (i, c and b by
    divmod), and two scatters write the lowest and the highest reference
    index that each visited production matched at each query index it
    consumed, read from tables built from the step pattern. By then the
    band rows are freed: the backtrack holds the backpointers and a few
    int64 values per visited cell.
    """
    q, r = _batch(query, reference, window)
    batch, n = q.shape[:2]
    w = min(window, max(n, r.shape[1]))  # a wider band admits no further pairs
    band = 2 * w + 1
    last, back = _forward(q, r, w)
    ends = np.argmin(last, axis=0)  # open end: the cheapest column of the last row
    cost = last[ends, np.arange(batch)]
    match = np.full((batch, n, 2), -1, dtype=np.int32)
    rows = np.flatnonzero(cost < np.inf)
    # the chase: cell (i, c, b) is back_flat[p], p = (i * band + c) * batch + b
    back_flat = back.reshape(-1)
    code_at = memoryview(back_flat)  # indexes to Python ints, not numpy scalars
    shift = [(di * band + dj - di) * batch for di, dj, _ in _BACK_STEPS]
    top = band * batch  # p < top: row 0, where the path entered
    path, entries = [], []
    for p in (((n - 1) * band + ends[rows]) * batch + rows).tolist():
        while p >= top:
            path.append(p)
            p -= shift[code_at[p]]
        entries.append(p // batch - w)  # row 0: p = c * batch + b, column c - w
    cells = np.array(path, dtype=np.int64)
    codes = back_flat[cells]
    i, c = np.divmod(cells, top)
    c, b = np.divmod(c, batch)
    j = (i + c - w)[:, None]
    at = 2 * ((b * n + i)[:, None] - _RI[codes])  # flat index of (b, i - ri, 0)
    match_flat = match.reshape(-1)
    match_flat[at] = j - _LO[codes]
    at += 1  # each highest column sits next to its lowest
    match_flat[at] = j - _HI[codes]
    match[rows, 0] = np.array(entries)[:, None]
    return cost, match


def _forward(q: np.ndarray, r: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """``dtw_align_batch``'s dynamic program: the accumulated costs of the last
    query row, (2w + 1, B), and the (n, 2w + 1, B) int8 backpointers."""
    batch, n = q.shape[:2]
    m = r.shape[1]
    band = 2 * w + 1
    # reference column j at j + w, so row i's band is ref[i : i + band]
    ref = np.full((n + 2 * w, batch) + r.shape[2:], np.inf)
    ref[w : w + m] = np.moveaxis(r[:, : n + w], 1, 0)
    g = np.full((4, band + 2, batch), np.inf)  # accumulated cost: row i in slot i % 4
    d = np.full((3, band + 2, batch), np.inf)  # local cost: row i in slot i % 3
    d23 = np.full((3, band + 2, batch), np.inf)  # (2/3) * local cost, slotted as d
    back = np.empty((n, band, batch), dtype=np.int8)  # row 0 is never read
    for i in range(n):
        d_i = d[i % 3][1:-1]
        if q.ndim == 2:
            np.abs(q[:, i] - ref[i : i + band], out=d_i)
        else:
            np.sqrt(((q[:, i] - ref[i : i + band]) ** 2).sum(axis=2), out=d_i)
        np.multiply(d_i, _W23, out=d23[i % 3][1:-1])
        row = g[i % 4][1:-1]
        if i == 0:
            row[:] = d_i  # open begin: the path may enter at any column
            continue
        # the productions of _STEPS: for band column c, cell (i - a, j - b)
        # is at c + 1 + a - b in its slot
        d1, d2 = d[(i - 1) % 3], d[(i - 2) % 3]
        d23_0, d23_1 = d23[i % 3], d23[(i - 1) % 3]
        c1 = g[(i - 1) % 4][1:-1] + d_i
        c2 = g[(i - 2) % 4][:-2] + d23_1[:-2]
        c2 += d23_0[:-2]
        c2 += d23_0[1:-1]
        c3 = g[(i - 3) % 4][2:] + d2[2:]
        c3 += d1[2:]
        c3 += d_i
        second = c2 < c1  # strict, so at a tie the earlier production wins
        np.minimum(c1, c2, out=c1)
        third = c3 < c1
        np.minimum(c1, c3, out=row)
        np.add(third, third, out=back[i], dtype=np.int8)
        back[i] += second
    return g[(n - 1) % 4][1:-1].copy(), back  # a copy, so that the band rows are freed


def path_pairs(match: np.ndarray) -> np.ndarray:
    """``dtw_align_batch``'s ``match``, or one row of it, as its matched index
    pairs in ascending order: one pair per query index, two where it matched
    two reference indices.

    A row, (n, 2), gives (L, 2) int32 (query, reference) pairs; a stack,
    (B, n, 2), gives (L, 3) int32 (row, query, reference) triples, its rows'
    pairs one after another.
    """
    keep = np.ones(match.shape, dtype=bool)
    keep[..., 1] = match[..., 1] != match[..., 0]
    cells = np.flatnonzero(keep)
    index = np.unravel_index(cells, match.shape)[:-1]
    return np.column_stack(index + (match.ravel()[cells],)).astype(np.int32)
