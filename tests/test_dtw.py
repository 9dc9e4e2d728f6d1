import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leadlag.dtw import (
    Alignment,
    AlignmentQuery,
    brute_force_dtw,
    dtw_align,
    dtw_align_batch,
    lead_times_from_path,
)
from leadlag.errors import LeadLagError, NoAdmissiblePathError, OracleScaleError


def closed(x, y, window=35):
    return AlignmentQuery(x, y, window=window, open_begin=False, open_end=False)


def opened(x, y, window=35):
    return AlignmentQuery(x, y, window=window, open_begin=True, open_end=True)


# ------------------------------------------------------------- local distance
# With closed ends and a band of 1, four points align only along the diagonal,
# so the cost is the sum of the four local distances.

def diagonal_cost(x, y):
    (a,) = dtw_align_batch(np.array([x] * 4)[None], np.array([y] * 4)[None], window=1,
                           open_begin=False, open_end=False)
    assert a.pairs == tuple((i, i) for i in range(4))
    return a.cost


def test_local_distance_scalar():
    assert diagonal_cost(0.0, 0.0) == 0.0
    assert diagonal_cost(3.0, 7.0) == 4 * 4.0


def test_local_distance_euclidean():
    assert diagonal_cost([1.0, 2.0], [4.0, 6.0]) == 4 * 5.0


def test_local_distance_dimension_mismatch():
    with pytest.raises(LeadLagError, match="must be"):
        dtw_align_batch(np.ones((1, 4, 2)), np.ones((1, 4, 3)))


# ----------------------------------------------------------------- dtw_align

def test_identity_alignment_zero_distance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=20)
    for q in (closed(x, x), opened(x, x)):
        a = dtw_align(q)
        assert a.cost == 0.0
        assert a.normalized == 0.0
        assert all(lead == 0.0 for _, lead in lead_times_from_path(a))


def test_delayed_impulse_matches_at_shift():
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    y = np.concatenate([np.zeros(6), x])  # same impulse six days later
    a = dtw_align(opened(x, y))
    impulse_pairs = [(i, j) for i, j in a.pairs if x[i] == 1.0]
    assert impulse_pairs and all(j - i == 6 for i, j in impulse_pairs)
    assert a.normalized == pytest.approx(0.0, abs=1e-12)
    oracle = brute_force_dtw(opened(x, y))
    assert a.cost == oracle.cost


def test_seeded_pair_matches_oracle_exactly():
    rng = np.random.default_rng(10)
    x = rng.normal(size=10)
    y = rng.normal(size=12)
    for q in (closed(x, y), opened(x, y)):
        assert dtw_align(q).cost == brute_force_dtw(q).cost


def test_nan_input_rejected():
    x = np.array([1.0, np.nan, 2.0, 3.0])
    with pytest.raises(LeadLagError, match="NaN"):
        AlignmentQuery(x, np.ones(4))


def test_short_sequence_rejected():
    with pytest.raises(LeadLagError, match="length >= 4"):
        dtw_align(closed(np.ones(3), np.ones(8)))


def test_infeasible_band_errors():
    # closed ends with a huge length gap: the slope cap makes it impossible
    q = closed(np.ones(4), np.arange(12.0), window=35)
    with pytest.raises(NoAdmissiblePathError):
        dtw_align(q)
    with pytest.raises(NoAdmissiblePathError):
        brute_force_dtw(q)


# ------------------------------------------------------------ brute_force_dtw

def test_oracle_identity_five_points():
    x = np.array([1.0, 2.0, 0.5, 3.0, 2.5])
    a = brute_force_dtw(closed(x, x))
    assert a.cost == 0.0


def test_oracle_band_one_forces_diagonal():
    # with a 5-point pair and band 1, the only admissible path is the diagonal
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=5), rng.normal(size=5)
    a = brute_force_dtw(closed(x, y, window=1))
    assert a.pairs == tuple((i, i) for i in range(5))
    d = np.abs(x - y)
    assert a.cost == pytest.approx(float(d[0] + d[1] + d[2] + d[3] + d[4]))
    assert dtw_align(closed(x, y, window=1)).cost == a.cost


def test_oracle_scale_limit():
    with pytest.raises(OracleScaleError, match="oracle scale"):
        brute_force_dtw(closed(np.ones(13), np.ones(13)))


# ------------------------------------------------------------ dtw_align_batch

@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("window", [1, 3, 35])
@pytest.mark.parametrize("open_ends", [True, False])
def test_batch_rows_equal_single_alignments(columns, window, open_ends):
    rng = np.random.default_rng(window * 10 + (columns or 0) + open_ends)
    feasible = 0
    for trial in range(8):
        n = int(rng.integers(4, 40))
        m = max(4, n + int(rng.integers(-window, window + 1)))
        batch = int(rng.integers(3, 8))
        q = rng.normal(size=(batch, n) + ((columns,) if columns else ()))
        r = rng.normal(size=(batch, m) + ((columns,) if columns else ()))
        # flat rows as zscore_scale emits them, mixed in with normal rows
        q[::3] = 0.0
        r[1::3] = 0.0
        batched = dtw_align_batch(q, r, window=window, open_begin=open_ends,
                                  open_end=open_ends)
        assert len(batched) == batch
        for b, got in enumerate(batched):
            query = AlignmentQuery(q[b], r[b], window=window, open_begin=open_ends,
                                   open_end=open_ends)
            if got is None:
                with pytest.raises(NoAdmissiblePathError):
                    dtw_align(query)
                continue
            feasible += 1
            alone = dtw_align(query)
            assert got.pairs == alone.pairs
            assert got.cost == alone.cost
            assert got.normalized == alone.normalized
    assert feasible > 0


def test_batch_without_admissible_path_marks_every_row():
    rng = np.random.default_rng(5)
    q, r = rng.normal(size=(3, 4)), rng.normal(size=(3, 12))
    assert dtw_align_batch(q, r, window=35, open_begin=False, open_end=False) == \
        [None, None, None]
    with pytest.raises(NoAdmissiblePathError):
        dtw_align(closed(q[0], r[0]))


def test_multivariate_alignment_memory():
    # the kernel holds a few (m, columns) cost rows, never the (n, m, columns) cube
    rng = np.random.default_rng(0)
    q = AlignmentQuery(rng.normal(size=(77, 363)), rng.normal(size=(112, 363)), window=35)
    tracemalloc.start()
    try:
        dtw_align(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -------------------------------------------------------- lead time extraction

def test_leads_identity_and_uniform_shift():
    a = Alignment(pairs=tuple((i, i) for i in range(5)), cost=0.0, normalized=0.0,
                  n_query=5, n_reference=5, window=35, open_begin=False, open_end=False)
    assert [lead for _, lead in lead_times_from_path(a)] == [0.0] * 5
    b = Alignment(pairs=tuple((i, i + 6) for i in range(5)), cost=0.0, normalized=0.0,
                  n_query=5, n_reference=11, window=35, open_begin=True, open_end=True)
    assert [lead for _, lead in lead_times_from_path(b)] == [6.0] * 5


def test_leads_median_rule():
    a = Alignment(pairs=((3, 5), (3, 6), (4, 7)), cost=0.0, normalized=0.0,
                  n_query=5, n_reference=8, window=35, open_begin=True, open_end=True)
    leads = dict(lead_times_from_path(a))
    # query 3 matches reference 5 and 6 -> median matched index 5.5
    assert leads[3] == pytest.approx(5.5 - 3)
    assert leads[4] == pytest.approx(3.0)


def median_leads(a):
    matched = {}
    for i, j in a.pairs:
        matched.setdefault(i, []).append(j)
    return [(i, float(np.median(js)) - i) for i, js in sorted(matched.items())]


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 60)), min_size=1,
                max_size=80))
@example([(7, 9), (3, 6), (7, 8), (3, 5), (7, 20), (7, 7), (12, 12)])
def test_leads_equal_median_reference(pairs):
    a = Alignment(pairs=tuple(pairs), cost=0.0, normalized=0.0, n_query=31,
                  n_reference=61, window=35, open_begin=True, open_end=True)
    assert lead_times_from_path(a) == median_leads(a)
    assert lead_times_from_path(replace(a, pairs=tuple(sorted(pairs)))) == median_leads(a)


def test_normalized_distance_division():
    rng = np.random.default_rng(2)
    a = dtw_align(closed(rng.normal(size=10), rng.normal(size=14)))
    assert a.cost > 0.0
    assert a.normalized == a.cost / 10  # divided by the query length


def test_normalized_distance_matches_oracle():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=12), rng.normal(size=12)
    q = opened(x, y)
    assert dtw_align(q).normalized == brute_force_dtw(q).cost / 12


# ----------------------------------------------------------------- properties

def test_randomized_oracle_equivalence():
    rng = np.random.default_rng(42)
    feasible = 0
    for trial in range(60):
        n, m = rng.integers(4, 13, size=2)
        if trial % 2:
            x, y = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        else:
            x, y = rng.normal(size=n), rng.normal(size=m)
        window = (1, 3, 35)[trial % 3]
        open_ends = (trial // 3) % 2 == 0
        q = AlignmentQuery(x, y, window=window, open_begin=open_ends, open_end=open_ends)
        try:
            a = dtw_align(q)
        except NoAdmissiblePathError:
            with pytest.raises(NoAdmissiblePathError):
                brute_force_dtw(q)
            continue
        feasible += 1
        o = brute_force_dtw(q)
        assert a.cost == o.cost
        assert a.normalized == o.normalized
    assert feasible > 20


def test_path_monotone_and_banded():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, y = rng.normal(size=30), rng.normal(size=34)
        a = dtw_align(opened(x, y, window=7))
        assert all(i2 >= i1 and j2 >= j1
                   for (i1, j1), (i2, j2) in zip(a.pairs, a.pairs[1:]))
        assert all(abs(i - j) <= 7 for i, j in a.pairs)
        assert {i for i, _ in a.pairs} == set(range(30))
        assert a.cost >= 0.0


def test_column_permutation_invariance():
    rng = np.random.default_rng(21)
    x, y = rng.normal(size=(10, 3)), rng.normal(size=(11, 3))
    perm = [2, 0, 1]
    a = dtw_align(opened(x, y))
    b = dtw_align(opened(x[:, perm], y[:, perm]))
    assert a.cost == pytest.approx(b.cost, abs=1e-12)


def test_shift_recovery_with_zscore_and_decay():
    import math

    from leadlag.synth import SynthSpec, derive_indicator, generate_admissions
    from leadlag.timeseries import zscore_scale

    spec = SynthSpec(n_trusts=1, n_days=210, peak_day=50, rise_width=7,
                     fall_width=11, amplitude=100.0, extra_peaks=(60, 125), seed=0)
    adm = generate_admissions(spec)
    decay = math.log(2) / 210  # usership halves over the window
    for L in (5, 10, 20):
        ind = derive_indicator(adm, L, decay_rate=decay)
        q, _ = zscore_scale(ind.values)
        r, _ = zscore_scale(adm.values)
        q, r = q[0], r[0]
        a = dtw_align(AlignmentQuery(q, r, window=35, open_begin=True, open_end=True))
        leads = [lead for _, lead in lead_times_from_path(a)]
        assert L - 2 <= np.median(leads) <= L + 2
