import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag.errors import MappingError
from leadlag.geo import apply_mapping, build_mapping, missing_ltlas, weighted_population
from conftest import panel, row


def weights(m, ltla):
    return m.weights[m.ltla_ids.index(ltla)]


def two_ltla_mapping():
    return build_mapping([("A", "T1", 60), ("A", "T2", 40), ("B", "T1", 10)])


# ------------------------------------------------------------- build_mapping

def test_build_mapping_ratios():
    m = two_ltla_mapping()
    assert weights(m, "A").tolist() == [0.6, 0.4]
    assert weights(m, "B").tolist() == [1.0, 0.0]


def test_build_mapping_zero_row_flagged():
    m = build_mapping([("A", "T1", 5), ("C", "T1", 0)])
    assert m.zero_record_ltlas == frozenset({"C"})
    assert weights(m, "C").tolist() == [0.0]


def test_build_mapping_negative_count_errors():
    with pytest.raises(MappingError, match="negative"):
        build_mapping([("A", "T1", -1)])


def test_build_mapping_empty_errors():
    with pytest.raises(MappingError):
        build_mapping([])


def test_build_mapping_duplicate_records_accumulate():
    m = build_mapping([("A", "T1", 30), ("A", "T1", 30), ("A", "T2", 40)])
    assert weights(m, "A").tolist() == [0.6, 0.4]


def test_row_sums_are_one():
    m = two_ltla_mapping()
    sums = m.weights.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


@given(st.integers(1, 1000))
def test_count_scaling_leaves_weights_unchanged(scale):
    base = build_mapping([("A", "T1", 3), ("A", "T2", 7), ("B", "T2", 2)])
    scaled = build_mapping([("A", "T1", 3 * scale), ("A", "T2", 7 * scale),
                            ("B", "T2", 2 * scale)])
    assert np.allclose(base.weights, scaled.weights, atol=1e-15)


# ------------------------------------------------------------- apply_mapping

def test_apply_mapping_weighted_sum():
    m = build_mapping([("A", "T1", 60), ("A", "T2", 40), ("B", "T1", 50), ("B", "T2", 50)])
    p = panel({"A": [10.0], "B": [20.0]}, level="ltla")
    out = apply_mapping(p, m)
    assert out.level == "trust"
    assert row(out, "T1")[0] == pytest.approx(0.6 * 10 + 0.5 * 20)


def test_apply_mapping_identity_passthrough():
    m = build_mapping([("A", "T1", 9)])
    p = panel({"A": [3.0, 7.0, 1.0]}, level="ltla")
    out = apply_mapping(p, m)
    assert np.array_equal(row(out, "T1"), [3.0, 7.0, 1.0])


def test_apply_mapping_equal_values_sum_weights():
    m = build_mapping([("A", "T1", 30), ("A", "T2", 70), ("B", "T1", 40), ("B", "T2", 60)])
    p = panel({"A": [5.0], "B": [5.0]}, level="ltla")
    out = apply_mapping(p, m)
    s = weights(m, "A")[0] + weights(m, "B")[0]
    assert row(out, "T1")[0] == pytest.approx(s * 5.0)


def test_apply_mapping_unknown_geo_errors():
    m = two_ltla_mapping()
    p = panel({"Z": [1.0]}, level="ltla")
    with pytest.raises(MappingError, match="Z"):
        apply_mapping(p, m)


def test_apply_mapping_reports_missing_ltlas(caplog):
    m = two_ltla_mapping()
    p = panel({"A": [1.0]}, level="ltla")
    assert missing_ltlas(p, m) == ["B"]
    with caplog.at_level("WARNING", logger="leadlag.geo"):
        apply_mapping(p, m)
    assert any("B" in rec.message for rec in caplog.records)


def test_apply_mapping_is_linear():
    rng = np.random.default_rng(3)
    m = build_mapping([("A", "T1", 60), ("A", "T2", 40), ("B", "T1", 10), ("B", "T2", 90)])
    v1 = {g: rng.normal(size=5) for g in "AB"}
    v2 = {g: rng.normal(size=5) for g in "AB"}
    a, b = 2.5, -1.5
    p1 = panel(v1, level="ltla")
    p2 = panel(v2, level="ltla")
    combo = panel({g: a * v1[g] + b * v2[g] for g in "AB"}, level="ltla")
    lhs = apply_mapping(combo, m)
    r1, r2 = apply_mapping(p1, m), apply_mapping(p2, m)
    for t in ("T1", "T2"):
        expect = a * row(r1, t) + b * row(r2, t)
        assert np.allclose(row(lhs, t), expect, atol=1e-12)


# ------------------------------------------------------- weighted_population

def test_weighted_population_single():
    m = build_mapping([("A", "T1", 60), ("A", "T2", 40)])
    pops = weighted_population(m, {"A": 10000})
    assert pops["T1"] == pytest.approx(6000)
    assert pops["T2"] == pytest.approx(4000)


def test_weighted_population_zero_weight_trust():
    m = build_mapping([("A", "T1", 5), ("B", "T2", 0), ("B", "T1", 5)])
    pops = weighted_population(m, {"A": 1000, "B": 1000})
    assert pops["T2"] == 0.0


def test_weighted_population_conserves_total():
    m = build_mapping([("A", "T1", 30), ("A", "T2", 70)])
    pops = weighted_population(m, {"A": 1000})
    assert pops["T1"] == pytest.approx(300)
    assert pops["T2"] == pytest.approx(700)
    assert sum(pops.values()) == pytest.approx(1000, rel=1e-12)


def test_weighted_population_missing_ltla_errors():
    m = two_ltla_mapping()
    with pytest.raises(MappingError, match="B"):
        weighted_population(m, {"A": 100})


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 50)),
                min_size=1, max_size=25).filter(lambda r: any(c > 0 for _, _, c in r)))
def test_population_conservation_property(raw):
    records = [(f"L{l}", f"T{t}", float(c)) for l, t, c in raw]
    m = build_mapping(records)
    pops = {l: 1000.0 + 37 * i for i, l in enumerate(m.ltla_ids)}
    total_in = sum(pops[l] for l in m.ltla_ids if l not in m.zero_record_ltlas)
    total_out = sum(weighted_population(m, pops).values())
    assert total_out == pytest.approx(total_in, rel=1e-9)
