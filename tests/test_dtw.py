import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leadlag.config import WaveSpec
from leadlag.dtw import dtw_align_batch, path_pairs
from leadlag.errors import LeadLagError

from oracles import OracleScaleError, brute_force_dtw, scalar_dtw

# the recursion evaluates every production, also against the +inf slots of
# rows before the first, and makes no unguarded inf or NaN arithmetic
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def align(x, y, window=35):
    """(cost, match) of the batch of one ``x`` onto ``y``."""
    (cost,), (match,) = dtw_align_batch(np.asarray(x)[None], np.asarray(y)[None], window)
    return cost, match


def leads(match):
    """Each query index's lead: its mean (= median) matched reference index minus it."""
    return (match.mean(axis=1) - np.arange(len(match))).tolist()


# ------------------------------------------------------------- local distance
# A point sits on a ramp of step 10, so the diagonal is the only cheap path and
# the cost of four points is the sum of their four local distances.

def diagonal_cost(x, y):
    cost, match = align([np.add(x, 10.0 * i) for i in range(4)],
                        [np.add(y, 10.0 * i) for i in range(4)], window=1)
    assert path_pairs(match).tolist() == [[i, i] for i in range(4)]
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
    cost, match = align(x, x)
    assert cost == 0.0
    assert all(lead == 0.0 for lead in leads(match))


def test_delayed_impulse_matches_at_shift():
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    y = np.concatenate([np.zeros(6), x])  # same impulse six days later
    cost, match = align(x, y)
    impulse_pairs = [(i, j) for i, j in path_pairs(match).tolist() if x[i] == 1.0]
    assert impulse_pairs and all(j - i == 6 for i, j in impulse_pairs)
    assert cost / 6 == pytest.approx(0.0, abs=1e-12)
    oracle_cost, _ = brute_force_dtw(x, y)
    assert cost == oracle_cost


def test_seeded_pair_matches_oracle_exactly():
    rng = np.random.default_rng(10)
    x = rng.normal(size=10)
    y = rng.normal(size=12)
    cost, match = align(x, y)
    oracle_cost, oracle_pairs = brute_force_dtw(x, y)
    assert cost == oracle_cost
    assert np.array_equal(path_pairs(match), oracle_pairs)


def test_nan_input_rejected():
    x = np.array([1.0, np.nan, 2.0, 3.0])
    with pytest.raises(LeadLagError, match="NaN"):
        align(x, np.ones(4))
    with pytest.raises(LeadLagError, match="NaN"):
        brute_force_dtw(x, np.ones(4))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_input_rejected(value):
    # an infinite query value minus the reference's +inf padding is NaN, which
    # np.minimum would carry into the costs
    x = np.array([1.0, value, 2.0, 3.0])
    with pytest.raises(LeadLagError, match="inf in alignment input"):
        align(x, np.ones(6))
    with pytest.raises(LeadLagError, match="inf in alignment input"):
        align(np.ones(6), x)


def test_short_sequence_rejected():
    with pytest.raises(LeadLagError, match="length >= 4"):
        align(np.ones(3), np.ones(8))
    with pytest.raises(LeadLagError, match="window must be >= 1, got 0"):
        align(np.ones(8), np.ones(8), window=0)


def test_infeasible_band_errors():
    # every query index is consumed at a slope of at least 2/3, so a 12-point
    # query cannot fit onto a 4-point reference even with open ends
    x, y = np.ones(12), np.arange(4.0)
    cost, match = align(x, y, window=35)
    assert cost == np.inf and (match == -1).all()
    assert brute_force_dtw(x, y, window=35) == (np.inf, None)


# ------------------------------------------------------------ brute_force_dtw

def test_oracle_identity_five_points():
    x = np.array([1.0, 2.0, 0.5, 3.0, 2.5])
    cost, pairs = brute_force_dtw(x, x)
    assert cost == 0.0
    assert pairs.tolist() == [[i, i] for i in range(5)]


def test_oracle_scale_limit():
    with pytest.raises(OracleScaleError, match="oracle scale"):
        brute_force_dtw(np.ones(13), np.ones(13))


# ------------------------------------------------------------ dtw_align_batch

@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("window", [1, 3, 35])
@pytest.mark.parametrize("ties", [True, False])
def test_batch_rows_equal_single_alignments(columns, window, ties):
    rng = np.random.default_rng(window * 10 + (columns or 0) + ties)
    feasible = 0
    for trial in range(8):
        n = int(rng.integers(4, 40))
        m = max(4, n + int(rng.integers(-window, window + 1)))
        batch = int(rng.integers(3, 8))
        q = rng.normal(size=(batch, n) + ((columns,) if columns else ()))
        r = rng.normal(size=(batch, m) + ((columns,) if columns else ()))
        if ties:  # coarse values make equal-cost productions and end columns common
            q, r = np.round(q), np.round(r)
        # flat rows as zscore_scale emits them, mixed in with normal rows
        q[::3] = 0.0
        r[1::3] = 0.0
        cost, match = dtw_align_batch(q, r, window=window)
        assert cost.shape == (batch,)
        assert match.shape == (batch, n, 2) and match.dtype == np.int32
        for b in range(batch):
            alone_cost, alone = align(q[b], r[b], window=window)
            assert cost[b] == alone_cost
            assert np.array_equal(match[b], alone)
            feasible += cost[b] < np.inf
    assert feasible > 0


@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("window", [1, 3, 35])
def test_batch_matches_cell_by_cell_oracle_on_ties(columns, window):
    # small integer values make equal-cost productions and end columns common,
    # so cost and match agree only if both apply the same tie rules; n <= 6
    # makes productions reach before the first query row
    rng = np.random.default_rng(window * 10 + (columns or 0))
    feasible = 0
    for trial in range(10):
        n = int(rng.integers(4, 7)) if trial < 3 else int(rng.integers(4, 41))
        m = int(rng.integers(max(4, n - 4), min(60, n + 20) + 1))
        batch = int(rng.integers(1, 6))
        extra = (columns,) if columns else ()
        q = rng.integers(0, 3, size=(batch, n) + extra).astype(float)
        r = rng.integers(0, 3, size=(batch, m) + extra).astype(float)
        q[::3] = 0.0  # flat rows as zscore_scale emits them
        cost, match = dtw_align_batch(q, r, window=window)
        for b in range(batch):
            oracle_cost, oracle_match = scalar_dtw(q[b], r[b], window=window)
            assert cost[b] == oracle_cost
            assert np.array_equal(match[b], oracle_match)
            feasible += cost[b] < np.inf
    assert feasible >= 10


def full_scale_batch():
    """A wave's univariate (121, 77) x (121, 112) batch, rows cycling through a
    flat query, a flat reference, coarse values that tie, and normal values."""
    rng = np.random.default_rng(16)
    q, r = rng.normal(size=(121, 77)), rng.normal(size=(121, 112))
    q[::4] = 0.0  # flat rows as zscore_scale emits them
    r[1::4] = 0.0
    q[2::4], r[2::4] = np.round(q[2::4]), np.round(r[2::4])  # ties
    return q, r


def test_full_scale_batch_rows_equal_single_alignments():
    # a wave's univariate batch: every Trust's band column sits next to the
    # other Trusts' in memory, yet each row must align as if alone
    q, r = full_scale_batch()
    cost, match = dtw_align_batch(q, r, window=35)
    assert np.isfinite(cost).all()
    for b in range(len(q)):
        alone_cost, alone = align(q[b], r[b], window=35)
        assert cost[b] == alone_cost
        assert np.array_equal(match[b], alone)


@pytest.mark.parametrize("row", [0, 1, 2, 3, 118, 119, 120])
def test_full_scale_batch_rows_match_cell_by_cell_oracle(row):
    # rows of every kind, the last ones among them, whose cells lie farthest
    # into the flat backpointer array the backtrack chases
    q, r = full_scale_batch()
    cost, match = dtw_align_batch(q, r, window=35)
    oracle_cost, oracle_match = scalar_dtw(q[row], r[row], window=35)
    assert cost[row] == oracle_cost < np.inf
    assert np.array_equal(match[row], oracle_match)


def test_path_pairs_of_a_batch_are_its_rows_pairs_in_order():
    rng = np.random.default_rng(18)
    q, r = np.round(rng.normal(size=(9, 30))), rng.normal(size=(9, 44))
    cost, match = dtw_align_batch(q, r, window=6)
    rows = [path_pairs(row) for row in match]
    assert any(len(pairs) > 30 for pairs in rows)  # some query index matched two
    pairs = path_pairs(match)
    assert pairs.dtype == np.int32
    assert np.array_equal(pairs, np.concatenate(
        [np.column_stack([np.full(len(row), b), row]) for b, row in enumerate(rows)]))


def test_batch_without_admissible_path_marks_every_row():
    rng = np.random.default_rng(5)
    q, r = rng.normal(size=(3, 12)), rng.normal(size=(3, 4))
    cost, match = dtw_align_batch(q, r, window=35)
    assert cost.tolist() == [np.inf] * 3
    assert (match == -1).all()
    assert brute_force_dtw(q[0], r[0]) == (np.inf, None)


@st.composite
def reference_at_least_query(draw):
    """A (B, n[, k]) query and a (B, m[, k]) reference with m >= n >= 4, and a band."""
    batch, n = draw(st.integers(1, 4)), draw(st.integers(4, 16))
    m = n + draw(st.integers(0, 12))
    tail = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    # a coarse grid of values also draws flat rows and tied costs
    values = st.floats(-1e3, 1e3) | st.sampled_from([-1.0, 0.0, 1.0])
    q = draw(hnp.arrays(float, (batch, n) + tail, elements=values))
    r = draw(hnp.arrays(float, (batch, m) + tail, elements=values))
    return q, r, draw(st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(reference_at_least_query())
def test_reference_no_shorter_than_query_always_aligns(case):
    # the diagonal path lies in any band and the ends are open, so a reference
    # at least as long as the query leaves every row an admissible path
    q, r, window = case
    cost, match = dtw_align_batch(q, r, window)
    assert np.isfinite(cost).all()
    assert (match != -1).all()


def test_multivariate_alignment_memory():
    # the kernel holds a few band rows and the padded (n + 2w, columns) reference,
    # never the (n, m, columns) cube
    rng = np.random.default_rng(0)
    q, r = rng.normal(size=(77, 363)), rng.normal(size=(112, 363))
    tracemalloc.start()
    try:
        align(q, r, window=35)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_univariate_alignment_memory():
    # a wave's (121, 77) x (121, 112) batch: a few (2w + 3, B) band rows, the
    # padded reference and (n, 2w + 1, B) int8 backpointers, no (n, m, B) cube
    rng = np.random.default_rng(0)
    q, r = rng.normal(size=(121, 77)), rng.normal(size=(121, 112))
    tracemalloc.start()
    try:
        dtw_align_batch(q, r, window=35)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# -------------------------------------------------------- lead time extraction

def test_leads_identity_and_uniform_shift():
    x = np.arange(8.0) ** 2  # distinct values: the zero-cost path is unique
    cost, match = align(x, x)
    assert cost == 0.0 and match.tolist() == [[i, i] for i in range(8)]
    cost, match = align(x, np.concatenate([-np.ones(6), x]))
    assert cost == 0.0 and match.tolist() == [[i + 6, i + 6] for i in range(8)]
    assert leads(match) == [6.0] * 8


def median_leads(pairs):
    matched = {}
    for i, j in pairs:
        matched.setdefault(i, []).append(j)
    return [float(np.median(js)) - i for i, js in sorted(matched.items())]


def test_leads_equal_median_reference(monkeypatch):
    # the pipeline's lead on a wave short enough for the oracle: 2 warm-up
    # days, 8 reported days and a 2-day reference tail
    from leadlag import pipeline

    from test_pipeline import START, study_config, synth_inputs

    batches = []

    def recording(q, r, window):
        batches.append((q, r, window))
        return dtw_align_batch(q, r, window)

    monkeypatch.setattr(pipeline, "dtw_align_batch", recording)
    wave = WaveSpec("short", START + timedelta(days=26), START + timedelta(days=33))
    adm, indicators = synth_inputs()
    two_matched = 0
    for dtw_mode in ("univariate", "multivariate"):
        config = study_config(waves=(wave,), dtw_mode=dtw_mode, dtw_warmup_days=2,
                              dtw_window=2)
        (table,) = pipeline.run_analysis(config, adm, indicators, None,
                                         methods=("dtw",))
        q, r, window = batches.pop()
        assert q.shape[1] == 10 and r.shape[1] == 12
        expected = []
        for b in range(len(q)):
            cost, pairs = brute_force_dtw(q[b], r[b], window)
            reported = median_leads(pairs.tolist())[2:]
            two_matched += sum(lead % 1 != 0 for lead in reported)
            expected.append(float(np.median(reported)))
        if dtw_mode == "multivariate":  # one joint alignment, shared by the 3 trusts
            expected *= 3
        assert table.columns["dtw_median_lead"].tolist() == expected
    assert two_matched  # some reported query index matched two reference indices


def test_normalized_distance_division(monkeypatch):
    from leadlag import pipeline

    from test_pipeline import study_config, synth_inputs

    batches = []

    def recording(q, r, window):
        cost, match = dtw_align_batch(q, r, window)
        batches.append((cost, q.shape[1]))
        return cost, match

    monkeypatch.setattr(pipeline, "dtw_align_batch", recording)
    adm, indicators = synth_inputs()
    tables = pipeline.run_analysis(study_config(dtw_mode="univariate"), adm, indicators,
                                   None, methods=("dtw",))
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
        cost, match = align(x, y, window=window)
        oracle_cost, oracle_pairs = brute_force_dtw(x, y, window=window)
        assert cost == oracle_cost == scalar_dtw(x, y, window=window)[0]
        assert cost / n == oracle_cost / n
        if oracle_pairs is None:
            assert (match == -1).all()
            continue
        assert np.array_equal(path_pairs(match), oracle_pairs)
        feasible += 1
    assert feasible > 20


def test_path_monotone_and_banded():
    rng = np.random.default_rng(9)
    for window in (1, 3, 7, 35):
        n, m = 30, 34
        q, r = rng.normal(size=(6, n)), rng.normal(size=(6, m))
        cost, match = dtw_align_batch(q, r, window=window)
        for b in np.flatnonzero(cost < np.inf):
            lo, hi = match[b].T
            # one reference index per query index, or two adjacent ones
            assert np.all(lo <= hi) and np.all(hi <= lo + 1)
            assert np.all(hi[:-1] <= lo[1:])  # monotone
            assert lo.min() >= 0 and hi.max() < m
            pairs = path_pairs(match[b])
            assert np.all(np.abs(pairs[:, 0] - pairs[:, 1]) <= window)
            assert pairs.dtype == np.int32
            assert pairs.tolist() == sorted(pairs.tolist())
            assert len(pairs) == n + np.count_nonzero(hi != lo)
            assert cost[b] >= 0.0


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
        q, r = zscore_scale(ind.values)[0], zscore_scale(adm.values)[0]
        _, match = align(q, r, window=35)
        assert L - 2 <= np.median(leads(match)) <= L + 2
