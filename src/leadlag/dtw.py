"""Banded, slope-constrained, open-ended dynamic time warping.

The recursion is the asymmetric variant of the P = 2 slope-constrained
transition table: from g(i, j) the admissible productions are

    g(i-1, j-1) +        d(i, j)
    g(i-2, j-3) + (2/3)*(d(i-1, j-2) + d(i, j-1) + d(i, j))
    g(i-3, j-2) +        d(i-2, j-1) + d(i-1, j) + d(i, j)

normalized by the query length. Every query index is consumed; with open
begin/end the path may enter and leave the reference at any column, so a
reference prefix or suffix is skipped at zero cost. All matched pairs must
satisfy the band constraint |i - j| <= window.

``brute_force_dtw`` enumerates every admissible path under identical
constraints and is the verification oracle for the dynamic program; the two
accumulate costs in the same order and agree to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LeadLagError, NoAdmissiblePathError, OracleScaleError

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


@dataclass(frozen=True)
class AlignmentQuery:
    """Query (indicator) vs reference (admissions) alignment request.

    Sequences are (n,) for univariate or (n, columns) for simultaneous
    multi-Trust alignment; column sets must match between the two.
    """

    query: np.ndarray = field(repr=False)
    reference: np.ndarray = field(repr=False)
    window: int = 35
    open_begin: bool = True
    open_end: bool = True

    def __post_init__(self) -> None:
        q = np.asarray(self.query, dtype=float)
        r = np.asarray(self.reference, dtype=float)
        if q.ndim != r.ndim or q.ndim not in (1, 2):
            raise LeadLagError("query and reference must both be 1-D or both 2-D")
        if q.ndim == 2 and q.shape[1] != r.shape[1]:
            raise LeadLagError(
                f"column mismatch: query has {q.shape[1]}, reference {r.shape[1]}"
            )
        if np.isnan(q).any() or np.isnan(r).any():
            raise LeadLagError("NaN in alignment input")
        if self.window < 1:
            raise LeadLagError(f"window must be >= 1, got {self.window}")
        object.__setattr__(self, "query", q)
        object.__setattr__(self, "reference", r)

    @property
    def n_query(self) -> int:
        return self.query.shape[0]

    @property
    def n_reference(self) -> int:
        return self.reference.shape[0]


@dataclass(frozen=True)
class Alignment:
    """Matched index pairs with accumulated and query-normalized cost."""

    pairs: tuple[tuple[int, int], ...]
    cost: float
    normalized: float
    n_query: int
    n_reference: int
    window: int
    open_begin: bool
    open_end: bool


def local_distance(xi: np.ndarray, yj: np.ndarray) -> float:
    """Euclidean distance between matched sample vectors (|x - y| univariate)."""
    a = np.atleast_1d(np.asarray(xi, dtype=float))
    b = np.atleast_1d(np.asarray(yj, dtype=float))
    if a.shape != b.shape:
        raise LeadLagError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(((a - b) ** 2).sum()))


def _local_cost_matrix(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    if q.ndim == 1:
        return np.abs(q[:, None] - r[None, :])
    return np.sqrt(((q[:, None, :] - r[None, :, :]) ** 2).sum(axis=2))


def _band_mask(n: int, m: int, window: int) -> np.ndarray:
    i = np.arange(n)[:, None]
    j = np.arange(m)[None, :]
    return np.abs(i - j) <= window


def _validate(a: AlignmentQuery) -> None:
    if a.n_query < 4 or a.n_reference < 4:
        raise LeadLagError("sequences must have length >= 4")


def _shifted(row: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return row
    out = np.empty_like(row)
    out[:k] = np.inf
    out[k:] = row[:-k]
    return out


def dtw_align(a: AlignmentQuery) -> Alignment:
    """Minimal-cost banded alignment of query onto reference.

    Dynamic program over the banded cost matrix; the backtracked pairs
    include every cell whose local cost the optimal path accumulated.
    """
    _validate(a)
    n, m = a.n_query, a.n_reference
    d = _local_cost_matrix(a.query, a.reference)
    d = np.where(_band_mask(n, m, a.window), d, np.inf)

    g = np.full((n, m), np.inf)
    prod = np.full((n, m), -1, dtype=np.int8)
    if a.open_begin:
        g[0] = d[0]
    else:
        g[0, 0] = d[0, 0]

    for i in range(1, n):
        row = g[i]
        for p_idx, (di, dj, cells) in enumerate(_STEPS):
            if i < di:
                continue
            cand = _shifted(g[i - di], dj)
            for ri, rj, w in cells:
                cand = cand + w * _shifted(d[i - ri], rj)
            better = cand < row
            row[better] = cand[better]
            prod[i][better] = p_idx

    if a.open_end:
        j_end = int(np.argmin(g[n - 1]))
    else:
        j_end = m - 1
    cost = float(g[n - 1, j_end])
    if not np.isfinite(cost):
        raise NoAdmissiblePathError("no admissible path")

    pairs: list[tuple[int, int]] = []
    i, j = n - 1, j_end
    while i > 0:
        di, dj, cells = _STEPS[prod[i, j]]
        for ri, rj, _ in cells:
            pairs.append((i - ri, j - rj))
        i, j = i - di, j - dj
    pairs.append((0, j))
    pairs.sort()
    return Alignment(
        pairs=tuple(pairs),
        cost=cost,
        normalized=cost / n,
        n_query=n,
        n_reference=m,
        window=a.window,
        open_begin=a.open_begin,
        open_end=a.open_end,
    )


def brute_force_dtw(a: AlignmentQuery) -> Alignment:
    """Exhaustive-path verification oracle; identical constraints and arithmetic.

    Enumerates every admissible production sequence by depth-first search;
    only feasible for sequences of length <= 12.
    """
    _validate(a)
    n, m = a.n_query, a.n_reference
    if n > _ORACLE_MAX_LEN or m > _ORACLE_MAX_LEN:
        raise OracleScaleError("oracle scale exceeded")
    d = _local_cost_matrix(a.query, a.reference)
    window = a.window

    best_cost = np.inf
    best_pairs: list[tuple[int, int]] | None = None

    def walk(i: int, j: int, cost: float, pairs: list[tuple[int, int]]) -> None:
        nonlocal best_cost, best_pairs
        if i == n - 1:
            if (a.open_end or j == m - 1) and cost < best_cost:
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

    start_cols = range(min(window, m - 1) + 1) if a.open_begin else (0,)
    for j0 in start_cols:
        walk(0, j0, float(d[0, j0]), [(0, j0)])

    if best_pairs is None:
        raise NoAdmissiblePathError("no admissible path")
    best_pairs.sort()
    return Alignment(
        pairs=tuple(best_pairs),
        cost=float(best_cost),
        normalized=float(best_cost) / n,
        n_query=n,
        n_reference=m,
        window=window,
        open_begin=a.open_begin,
        open_end=a.open_end,
    )


def lead_times_from_path(a: Alignment) -> list[tuple[int, float]]:
    """Per-query-index lead: matched reference index minus query index.

    A query index matched to several reference indices collapses to the
    median matched index. Positive lead = indicator ahead of admissions.
    """
    if not a.pairs:
        raise LeadLagError("empty alignment")
    matched: dict[int, list[int]] = {}
    for i, j in a.pairs:
        matched.setdefault(i, []).append(j)
    return [
        (i, float(np.median(js)) - i)
        for i, js in sorted(matched.items())
    ]
