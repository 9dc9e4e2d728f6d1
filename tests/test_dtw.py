import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leadlag.dtw import brute_force_dtw, dtw_align_batch, lead_times_from_path
from leadlag.errors import LeadLagError, OracleScaleError

CLOSED = dict(open_begin=False, open_end=False)


def align(x, y, **kw):
    """(cost, pairs) of the batch of one ``x`` onto ``y``."""
    (cost,), (pairs,) = dtw_align_batch(np.asarray(x)[None], np.asarray(y)[None], **kw)
    return cost, pairs


def leads(pairs):
    return lead_times_from_path(pairs)[1].tolist()


# ------------------------------------------------------------- local distance
# With closed ends and a band of 1, four points align only along the diagonal,
# so the cost is the sum of the four local distances.

def diagonal_cost(x, y):
    cost, pairs = align([x] * 4, [y] * 4, window=1, **CLOSED)
    assert pairs.tolist() == [[i, i] for i in range(4)]
    return cost


def test_local_distance_scalar():
    assert diagonal_cost(0.0, 0.0) == 0.0
    assert diagonal_cost(3.0, 7.0) == 4 * 4.0


def test_local_distance_euclidean():
    assert diagonal_cost([1.0, 2.0], [4.0, 6.0]) == 4 * 5.0


def test_local_distance_dimension_mismatch():
    with pytest.raises(LeadLagError, match="must be"):
        dtw_align_batch(np.ones((1, 4, 2)), np.ones((1, 4, 3)))


# -------------------------------------------------------- single alignments

def test_identity_alignment_zero_distance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=20)
    for ends in (CLOSED, {}):
        cost, pairs = align(x, x, **ends)
        assert cost == 0.0
        assert all(lead == 0.0 for lead in leads(pairs))


def test_delayed_impulse_matches_at_shift():
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    y = np.concatenate([np.zeros(6), x])  # same impulse six days later
    cost, pairs = align(x, y)
    impulse_pairs = [(i, j) for i, j in pairs.tolist() if x[i] == 1.0]
    assert impulse_pairs and all(j - i == 6 for i, j in impulse_pairs)
    assert cost / 6 == pytest.approx(0.0, abs=1e-12)
    oracle_cost, _ = brute_force_dtw(x, y)
    assert cost == oracle_cost


def test_seeded_pair_matches_oracle_exactly():
    rng = np.random.default_rng(10)
    x = rng.normal(size=10)
    y = rng.normal(size=12)
    for ends in (CLOSED, {}):
        assert align(x, y, **ends)[0] == brute_force_dtw(x, y, **ends)[0]


def test_nan_input_rejected():
    x = np.array([1.0, np.nan, 2.0, 3.0])
    with pytest.raises(LeadLagError, match="NaN"):
        align(x, np.ones(4))
    with pytest.raises(LeadLagError, match="NaN"):
        brute_force_dtw(x, np.ones(4))


def test_short_sequence_rejected():
    with pytest.raises(LeadLagError, match="length >= 4"):
        align(np.ones(3), np.ones(8), **CLOSED)


def test_infeasible_band_errors():
    # closed ends with a huge length gap: the slope cap makes it impossible
    x, y = np.ones(4), np.arange(12.0)
    assert align(x, y, window=35, **CLOSED) == (np.inf, None)
    assert brute_force_dtw(x, y, window=35, **CLOSED) == (np.inf, None)


# ------------------------------------------------------------ brute_force_dtw

def test_oracle_identity_five_points():
    x = np.array([1.0, 2.0, 0.5, 3.0, 2.5])
    cost, _ = brute_force_dtw(x, x, **CLOSED)
    assert cost == 0.0


def test_oracle_band_one_forces_diagonal():
    # with a 5-point pair and band 1, the only admissible path is the diagonal
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=5), rng.normal(size=5)
    cost, pairs = brute_force_dtw(x, y, window=1, **CLOSED)
    assert pairs.tolist() == [[i, i] for i in range(5)]
    d = np.abs(x - y)
    assert cost == pytest.approx(float(d[0] + d[1] + d[2] + d[3] + d[4]))
    assert align(x, y, window=1, **CLOSED)[0] == cost


def test_oracle_scale_limit():
    with pytest.raises(OracleScaleError, match="oracle scale"):
        brute_force_dtw(np.ones(13), np.ones(13), **CLOSED)


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
        cost, paths = dtw_align_batch(q, r, window=window, open_begin=open_ends,
                                      open_end=open_ends)
        assert cost.shape == (batch,) and len(paths) == batch
        for b, got in enumerate(paths):
            (alone_cost,), (alone,) = dtw_align_batch(q[b:b + 1], r[b:b + 1], window=window,
                                                      open_begin=open_ends,
                                                      open_end=open_ends)
            assert cost[b] == alone_cost
            if got is None:
                assert alone is None and cost[b] == np.inf
                continue
            feasible += 1
            assert np.array_equal(got, alone)
            assert got.dtype == np.int32 and got.shape[1] == 2
    assert feasible > 0


def test_batch_without_admissible_path_marks_every_row():
    rng = np.random.default_rng(5)
    q, r = rng.normal(size=(3, 4)), rng.normal(size=(3, 12))
    cost, paths = dtw_align_batch(q, r, window=35, **CLOSED)
    assert cost.tolist() == [np.inf] * 3
    assert paths == [None, None, None]
    assert brute_force_dtw(q[0], r[0], **CLOSED) == (np.inf, None)


def test_multivariate_alignment_memory():
    # the kernel holds a few (m, columns) cost rows, never the (n, m, columns) cube
    rng = np.random.default_rng(0)
    q, r = rng.normal(size=(77, 363)), rng.normal(size=(112, 363))
    tracemalloc.start()
    try:
        align(q, r, window=35)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -------------------------------------------------------- lead time extraction

def test_leads_identity_and_uniform_shift():
    diagonal = np.array([(i, i) for i in range(5)], dtype=np.int32)
    assert leads(diagonal) == [0.0] * 5
    assert leads(diagonal + [0, 6]) == [6.0] * 5


def test_leads_median_rule():
    index, lead = lead_times_from_path(np.array([(3, 5), (3, 6), (4, 7)], dtype=np.int32))
    by_index = dict(zip(index.tolist(), lead.tolist()))
    # query 3 matches reference 5 and 6 -> median matched index 5.5
    assert by_index[3] == pytest.approx(5.5 - 3)
    assert by_index[4] == pytest.approx(3.0)


def median_leads(pairs):
    matched = {}
    for i, j in pairs:
        matched.setdefault(i, []).append(j)
    return [(i, float(np.median(js)) - i) for i, js in sorted(matched.items())]


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 60)), min_size=1,
                max_size=80))
@example([(7, 9), (3, 6), (7, 8), (3, 5), (7, 20), (7, 7), (12, 12)])
def test_leads_equal_median_reference(pairs):
    for ordered in (pairs, sorted(pairs)):
        index, lead = lead_times_from_path(np.array(ordered, dtype=np.int32))
        assert list(zip(index.tolist(), lead.tolist())) == median_leads(pairs)


def test_normalized_distance_division(monkeypatch):
    from leadlag import pipeline

    from test_pipeline import identity_mapping, study_config, synth_inputs

    batches = []

    def recording(q, r, **kw):
        cost, paths = dtw_align_batch(q, r, **kw)
        batches.append((cost, q.shape[1]))
        return cost, paths

    monkeypatch.setattr(pipeline, "dtw_align_batch", recording)
    adm, indicators = synth_inputs()
    tables = pipeline.run_analysis(study_config(dtw_mode="univariate"), adm, indicators,
                                   identity_mapping(), methods=("dtw",))
    assert len(tables) == len(batches) == 2
    for table, (cost, n) in zip(tables, batches):
        assert cost.min() > 0.0
        # divided by the query length
        assert table.columns["dtw_normalized_distance"].tolist() == (cost / n).tolist()


def test_normalized_distance_matches_oracle():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=12), rng.normal(size=12)
    assert align(x, y)[0] / 12 == brute_force_dtw(x, y)[0] / 12


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
        kw = dict(window=window, open_begin=open_ends, open_end=open_ends)
        cost, pairs = align(x, y, **kw)
        oracle_cost, oracle_pairs = brute_force_dtw(x, y, **kw)
        assert cost == oracle_cost
        assert cost / n == oracle_cost / n
        if pairs is None:
            assert oracle_pairs is None
            continue
        feasible += 1
    assert feasible > 20


def test_path_monotone_and_banded():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, y = rng.normal(size=30), rng.normal(size=34)
        cost, pairs = align(x, y, window=7)
        assert np.all(np.diff(pairs, axis=0) >= 0)
        assert np.all(np.abs(pairs[:, 0] - pairs[:, 1]) <= 7)
        assert set(pairs[:, 0].tolist()) == set(range(30))
        assert cost >= 0.0


def test_column_permutation_invariance():
    rng = np.random.default_rng(21)
    x, y = rng.normal(size=(10, 3)), rng.normal(size=(11, 3))
    perm = [2, 0, 1]
    assert align(x, y)[0] == pytest.approx(align(x[:, perm], y[:, perm])[0], abs=1e-12)


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
        _, pairs = align(q, r, window=35, open_begin=True, open_end=True)
        assert L - 2 <= np.median(leads(pairs)) <= L + 2
