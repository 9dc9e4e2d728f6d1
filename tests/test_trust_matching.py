"""The sorted-array id matching of ``_pair``, ``apply_mapping`` and
``filter_trusts`` against the dict-and-loop code it replaced, kept here as
the reference."""

import logging
from dataclasses import replace
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leadlag import pipeline
from leadlag.config import RunConfig, WaveSpec
from leadlag.errors import LeadLagError, MappingError
from leadlag.geo import GeoMapping, apply_mapping
from leadlag.pipeline import _pair, _smooth, filter_trusts
from leadlag.timeseries import Panel, overlap

from conftest import START

N_DAYS = 24
CONFIG = RunConfig(waves=(WaveSpec("w", START, START + timedelta(days=N_DAYS - 1)),),
                   loess_span=0.5, min_annual_admissions=10,
                   admissions_filter_start=START,
                   admissions_filter_end=START + timedelta(days=N_DAYS - 1))

# prefix ids (T1, T10, T100), non-ASCII ids and any other text without a NUL
ID = st.one_of(
    st.sampled_from(["T1", "T10", "T100", "T2", "\u00e9", "e\u0301", "\u03a91", "T1 "]),
    st.text(st.characters(exclude_characters="\0"), min_size=1, max_size=3))
IDS = st.sets(ID, min_size=1, max_size=8).map(sorted)


def random_panel(geo_ids, seed):
    values = np.random.default_rng(seed).uniform(0, 20, (len(geo_ids), N_DAYS))
    return Panel(START, tuple(geo_ids), values)


def pair_reference(adm_ids, ind_ids):
    """The admissions rows of the shared Trusts, then the indicator's rows of them."""
    index = {geo: i for i, geo in enumerate(ind_ids)}
    shared = [i for i, trust in enumerate(adm_ids) if trust in index]
    return shared, [index[adm_ids[i]] for i in shared]


def apply_mapping_reference(panel, mapping):
    offenders = sorted(set(panel.geo_ids) - set(mapping.ltla_ids))
    if offenders:
        raise MappingError(f"panel geo ids unknown to mapping: {', '.join(offenders)}")
    l_index = {l: i for i, l in enumerate(mapping.ltla_ids)}
    w = mapping.weights[[l_index[g] for g in panel.geo_ids], :]
    return w.T @ panel.values


def filter_reference(panel, config):
    """The kept Trusts and the warning, or None where no warning is logged."""
    window = overlap(config.admissions_filter_start, config.admissions_filter_end, panel)
    totals = (np.zeros(len(panel.geo_ids)) if window is None
              else panel.values[:, panel.day_slice(*window)].sum(axis=1))
    excluded = set(config.trust_exclusions)
    kept, removed = [], []
    for trust, total in zip(panel.geo_ids, totals):
        if trust in excluded:
            removed.append(f"{trust} (excluded)")
        elif total < config.min_annual_admissions:
            removed.append(f"{trust} (total {total:g} in filter window)")
        else:
            kept.append(trust)
    warning = (f"filter_trusts removed {len(removed)} trust(s): {'; '.join(sorted(removed))}"
               if removed else None)
    return tuple(kept), warning


@settings(max_examples=150, deadline=None)
@given(IDS, IDS, st.integers(0, 2**32 - 1))
@example(["T1", "T10"], ["T100", "T2"], 0)  # no shared Trust
@example(["T1", "T10", "\u00e9"], ["T1", "T100", "\u00e9"], 1)
def test_pair_matches_the_dict_reference(adm_ids, ind_ids, seed):
    adm, ind = random_panel(adm_ids, seed), random_panel(ind_ids, seed + 1)
    adm_smooth = np.random.default_rng(seed + 2).normal(size=adm.values.shape)
    shared, ind_rows = pair_reference(adm.geo_ids, ind.geo_ids)
    rows, x, y = _pair(CONFIG, "ind", ind, adm, adm_smooth, None)
    assert rows.tolist() == shared
    if not shared:
        assert x is None and y is None
        return
    trusts = tuple(adm.geo_ids[i] for i in shared)
    assert x.geo_ids == y.geo_ids == trusts
    assert all(type(trust) is str for trust in x.geo_ids)
    assert np.array_equal(x.values, _smooth(ind.values[ind_rows], CONFIG))
    assert np.array_equal(y.values, adm_smooth[shared])


@settings(max_examples=150, deadline=None)
@given(IDS, st.lists(ID, min_size=1, max_size=8, unique=True), st.data())
def test_apply_mapping_matches_the_dict_reference(ltla_ids, panel_ids, data):
    # mostly LTLAs of the mapping; an unknown one is refused by both
    panel_ids = sorted(set(panel_ids[:data.draw(st.integers(0, 2))])
                       | set(data.draw(st.lists(st.sampled_from(ltla_ids), min_size=1))))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mapping = GeoMapping(tuple(ltla_ids), ("A", "B", "C"), rng.uniform(0, 1, (len(ltla_ids), 3)))
    panel = random_panel(panel_ids, seed)
    try:
        expected = apply_mapping_reference(panel, mapping)
    except MappingError as exc:
        with pytest.raises(MappingError) as refused:
            apply_mapping(panel, mapping)
        assert str(refused.value) == str(exc)
        return
    out = apply_mapping(panel, mapping)
    assert out.geo_ids == mapping.trust_ids
    assert np.array_equal(out.values, expected)


@settings(max_examples=150, deadline=None)
@given(IDS, st.data())
def test_filter_trusts_matches_the_loop_reference(trust_ids, data):
    # totals about the threshold of 10, some fractional, and exclusions that
    # name kept, low and unknown Trusts
    totals = data.draw(st.lists(st.sampled_from([0, 3.25, 9, 9.5, 10, 10.125, 12, 1e6]),
                                min_size=len(trust_ids), max_size=len(trust_ids)))
    exclusions = data.draw(st.lists(st.one_of(st.sampled_from(trust_ids), ID), max_size=4))
    values = np.zeros((len(trust_ids), N_DAYS))
    values[:, 3] = totals
    panel = Panel(START, tuple(trust_ids), values)
    config = replace(CONFIG, trust_exclusions=tuple(exclusions))
    kept, warning = filter_reference(panel, config)
    with mock.patch.object(pipeline.logger, "warning") as warn:
        try:
            out = filter_trusts(panel, config)
        except LeadLagError as exc:
            assert not kept and str(exc) == "no trusts retained after filtering"
        else:
            assert out.geo_ids == kept
            assert all(type(trust) is str for trust in out.geo_ids)
            assert np.array_equal(out.values, values[[trust_ids.index(t) for t in kept]])
    logged = [call.args[0] % call.args[1:] for call in warn.call_args_list]
    assert logged == ([warning] if warning else [])


def test_filter_names_an_excluded_trust_below_the_threshold_as_excluded(caplog):
    values = np.zeros((4, N_DAYS))
    values[:, 0] = [2, 50, 3.5, 4]
    panel = Panel(START, ("T1", "T10", "T2", "T3"), values)
    config = replace(CONFIG, trust_exclusions=("T2", "T1"))
    with caplog.at_level(logging.WARNING, logger="leadlag.pipeline"):
        assert filter_trusts(panel, config).geo_ids == ("T10",)
    assert caplog.messages == ["filter_trusts removed 3 trust(s): T1 (excluded); "
                               "T2 (excluded); T3 (total 4 in filter window)"]


def test_filter_trusts_keeping_every_trust_returns_its_panel():
    panel = Panel(START, ("T1", "T2"), np.full((2, N_DAYS), 5.0))
    assert filter_trusts(panel, CONFIG) is panel


def test_pair_sharing_every_trust_takes_the_admissions_rows_uncopied():
    adm = random_panel(["T1", "T2", "T3"], 0)
    adm_smooth = _smooth(adm.values, CONFIG)
    _, _, y = _pair(CONFIG, "ind", random_panel(["T0", "T1", "T2", "T3"], 1), adm,
                    adm_smooth, None)
    assert np.shares_memory(y.values, adm_smooth)
    _, _, y = _pair(CONFIG, "ind", random_panel(["T1", "T3"], 1), adm, adm_smooth, None)
    assert not np.shares_memory(y.values, adm_smooth)
    assert np.array_equal(y.values, adm_smooth[[0, 2]])
