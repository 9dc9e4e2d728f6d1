"""Acceptance gate: every primary criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The statistical fixtures come from the synthetic generator whose injected
leads are exact ground truth.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from leadlag.cli import main as cli_main
from leadlag.config import LatencySpec
from leadlag.corpus import write_corpus
from leadlag.dtw import AlignmentQuery, brute_force_dtw, dtw_align, lead_times_from_path
from leadlag.errors import NoAdmissiblePathError
from leadlag.geo import apply_mapping, build_mapping, weighted_population
from leadlag.granger import f_pvalue, granger_test
from leadlag.pipeline import effective_lead
from leadlag.synth import SynthSpec, derive_indicator, generate_admissions
from leadlag.timeseries import minmax_scale
from leadlag.xcorr import ccf_at_leads, optimal_lead

from conftest import panel, row
from test_granger import reference_granger

LEADS = np.arange(-30, 31)


def report(name: str, ok: bool, detail: str = "") -> None:
    flag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{flag}] {name}{suffix}", flush=True)
    assert ok, f"{name}{suffix}"


def lead_fixture(lead: int, noise_sd: float = 0.0, seed: int = 0):
    """Three-wave epidemic-like series with an indicator exactly `lead` ahead."""
    spec = SynthSpec(n_trusts=1, n_days=210, peak_day=50.0, rise_width=7.0,
                     fall_width=11.0, amplitude=100.0, extra_peaks=(60.0, 125.0),
                     seed=seed)
    adm = generate_admissions(spec)
    ind = derive_indicator(adm, lead, noise_sd=noise_sd, seed=seed)
    return row(ind, "T000"), row(adm, "T000")


def ccf_best_lead(x, y):
    (x_scaled, y_scaled), _ = minmax_scale([x, y[: x.size]])
    return optimal_lead(LEADS, ccf_at_leads([x_scaled], [y_scaled], LEADS)[0])


def test_lead_recovery_ccf():
    started = time.perf_counter()
    exact_ok = True
    for lead in (5, 10, 20):
        best = ccf_best_lead(*lead_fixture(lead))
        exact_ok &= best is not None and best[0] == lead

    noisy_ok = True
    rates = []
    for lead in (5, 10, 20):
        hits = 0
        for rep in range(200):
            best = ccf_best_lead(*lead_fixture(lead, noise_sd=0.1, seed=rep))
            hits += best is not None and abs(best[0] - lead) <= 3
        rates.append(hits / 200)
        noisy_ok &= hits / 200 >= 0.95
    elapsed = time.perf_counter() - started
    report("lead recovery (CCF)",
           exact_ok and noisy_ok and elapsed < 30.0,
           f"exact={exact_ok}, noisy rates={rates}, {elapsed:.1f}s")


def test_lead_recovery_dtw():
    ok = True
    details = []
    for lead in (5, 10, 20):
        x, y = lead_fixture(lead)
        q = AlignmentQuery(x, y, window=35, open_begin=True, open_end=True)
        a = dtw_align(q)
        leads = [l for _, l in lead_times_from_path(a)]
        med = float(np.median(leads))
        details.append(f"L={lead}: median={med:g}, dist={a.normalized:.3g}")
        ok &= lead - 2 <= med <= lead + 2
        ok &= a.normalized < 0.05

    x, _ = lead_fixture(0)
    a = dtw_align(AlignmentQuery(x, x, window=35,
                                 open_begin=True, open_end=True))
    identical_ok = a.normalized == 0.0 and all(l == 0 for _, l in lead_times_from_path(a))
    report("lead recovery (DTW)", ok and identical_ok, "; ".join(details))


def test_dtw_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    infeasible = 0
    for trial in range(200):
        window = (1, 3, 35)[trial % 3]
        n = int(rng.integers(4, 13))
        if window == 1:
            # narrow band tolerates only near-equal lengths
            m = int(np.clip(n + rng.integers(-1, 2), 4, 12))
        else:
            m = int(rng.integers(4, 13))
        multivariate = trial % 2 == 1
        if multivariate:
            x, y = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        else:
            x, y = rng.normal(size=n), rng.normal(size=m)
        open_ends = (trial // 3) % 2 == 0
        q = AlignmentQuery(x, y, window=window,
                           open_begin=open_ends, open_end=open_ends)
        try:
            a = dtw_align(q)
        except NoAdmissiblePathError:
            with pytest.raises(NoAdmissiblePathError):
                brute_force_dtw(q)
            infeasible += 1
            continue
        o = brute_force_dtw(q)
        assert a.cost == o.cost, f"trial {trial}: {a.cost} != {o.cost}"
        assert a.normalized == o.normalized
        checked += 1
    elapsed = time.perf_counter() - started
    report("DTW oracle equivalence",
           checked + infeasible == 200 and elapsed < 60.0,
           f"{checked} exact matches, {infeasible} matched infeasibilities, {elapsed:.1f}s")


def test_granger_correctness():
    oracle_ok = True
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        n = 90
        y = rng.normal(size=n).cumsum() * 0.2 + rng.normal(size=n)
        x = np.roll(y, 2) + rng.normal(0, 0.4, size=n)
        res = granger_test(x, y, max_lag=3)
        f_ref, p_ref = reference_granger(x, y, 3)
        worst = max(worst, abs(res.f_stat - f_ref), abs(res.p_value - p_ref))
        oracle_ok &= abs(res.f_stat - f_ref) <= 1e-8 and abs(res.p_value - p_ref) <= 1e-8

    f11_ok = abs(f_pvalue(1.0, 1, 1) - 0.5) <= 1e-10

    y = np.sin(2 * np.pi * np.arange(121) / 60) + 0.3 * np.random.default_rng(8).normal(size=121)
    x = y[1:].copy()
    predictor_ok = granger_test(x, y[:120], max_lag=1).p_value < 1e-6

    rejections = 0
    for seed in range(500):
        rng = np.random.default_rng(10_000 + seed)
        res = granger_test(rng.normal(size=200), rng.normal(size=200), max_lag=3)
        rejections += res.p_value < 0.05
    size = rejections / 500
    size_ok = abs(size - 0.05) <= 0.03

    report("Granger correctness",
           oracle_ok and f11_ok and predictor_ok and size_ok,
           f"oracle gap={worst:.1e}, size={size:.3f}")


def test_affine_invariance():
    rng = np.random.default_rng(31)
    granger_ok = True
    ccf_ok = True
    for seed in range(50):
        r = np.random.default_rng(500 + seed)
        n = 90
        y = r.normal(size=n).cumsum() * 0.3 + r.normal(size=n)
        x = np.roll(y, 2) + r.normal(0, 0.5, size=n)
        a = rng.choice([-1, 1]) * rng.uniform(0.5, 4)
        c = rng.choice([-1, 1]) * rng.uniform(0.5, 4)
        b, d = rng.uniform(-10, 10, size=2)

        base = granger_test(x, y, max_lag=3)
        mapped = granger_test(a * x + b, c * y + d, max_lag=3)
        granger_ok &= abs(base.f_stat - mapped.f_stat) <= 1e-8

        p_base = ccf_at_leads([x], [y], np.arange(-10, 11))
        p_mapped = ccf_at_leads([a * x + b], [c * y + d], np.arange(-10, 11))
        ccf_ok &= np.max(np.abs(np.abs(p_mapped) - np.abs(p_base))) <= 1e-8
    report("affine invariance", granger_ok and ccf_ok)


def test_mapping_conservation():
    rng = np.random.default_rng(17)
    rows_ok = pop_ok = linear_ok = True
    for seed in range(20):
        r = np.random.default_rng(seed)
        n_l, n_t = int(r.integers(2, 8)), int(r.integers(2, 6))
        records = [(f"L{i}", f"T{j}", float(r.integers(0, 50)))
                   for i in range(n_l) for j in range(n_t)]
        if not any(c > 0 for _, _, c in records):
            records[0] = (records[0][0], records[0][1], 1.0)
        m = build_mapping(records)

        sums = m.weights.sum(axis=1)
        flagged = np.array([l in m.zero_record_ltlas for l in m.ltla_ids])
        rows_ok &= bool(np.all(np.abs(sums[~flagged] - 1.0) <= 1e-12))
        rows_ok &= bool(np.all(sums[flagged] == 0.0))

        pops = {l: float(r.integers(1000, 500_000)) for l in m.ltla_ids}
        total_out = sum(weighted_population(m, pops).values())
        total_in = sum(pops[l] for l in m.ltla_ids if l not in m.zero_record_ltlas)
        pop_ok &= math.isclose(total_out, total_in, rel_tol=1e-9)

        n_days = 15
        v1 = {l: r.normal(size=n_days) for l in m.ltla_ids}
        v2 = {l: r.normal(size=n_days) for l in m.ltla_ids}
        a, b = r.uniform(-3, 3, size=2)
        p1 = panel(v1, level="ltla")
        p2 = panel(v2, level="ltla")
        combo = panel({l: a * v1[l] + b * v2[l] for l in m.ltla_ids}, level="ltla")
        lhs = apply_mapping(combo, m)
        r1, r2 = apply_mapping(p1, m), apply_mapping(p2, m)
        expected = a * r1.values + b * r2.values
        linear_ok &= r1.geo_ids == lhs.geo_ids == m.trust_ids
        linear_ok &= bool(np.allclose(lhs.values, expected, atol=1e-9))
    report("mapping conservation", rows_ok and pop_ok and linear_ok)


def test_end_to_end_determinism_and_scale(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, n_trusts=121, n_days=333, n_indicators=20, n_waves=3, seed=0)

    def run(out: Path) -> float:
        args = ["run",
                "--config", str(corpus / "config.yaml"),
                "--admissions", str(corpus / "admissions.csv"),
                "--indicators", str(corpus / "indicators"),
                "--mapping", str(corpus / "mapping.csv"),
                "--population", str(corpus / "population.csv"),
                "--out", str(out)]
        started = time.perf_counter()
        assert cli_main(args) == 0
        return time.perf_counter() - started

    t1 = run(tmp_path / "out1")
    t2 = run(tmp_path / "out2")

    identical = all(
        (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()
        for name in ("granger.csv", "ccf.csv", "dtw.csv", "summary.json",
                     "trust_population.csv")
    )
    rows = sum(1 for _ in (tmp_path / "out1" / "ccf.csv").open()) - 1
    grid_ok = rows == 3 * 121 * 20
    report("end-to-end determinism and scale",
           identical and grid_ok and t1 < 120.0 and t2 < 120.0,
           f"runs {t1:.1f}s/{t2:.1f}s, {rows} ccf rows, byte-identical={identical}")


def test_effective_lead_semantics():
    nhs111, nhs111_eroded = effective_lead(10, LatencySpec(reporting_lag_days=2,
                                                           release_cadence_days=1))
    lfd, lfd_eroded = effective_lead(10, LatencySpec(reporting_lag_days=1,
                                                     release_cadence_days=7))
    ok = (nhs111, nhs111_eroded) == (8.0, False) and (lfd, lfd_eroded) == (3.0, False)
    floored, eroded = effective_lead(3, LatencySpec(5, 1))
    ok &= (floored, eroded) == (0.0, True)
    report("effective-lead arithmetic", ok,
           f"daily lag2: 10->{nhs111:g}, weekly lag1: 10->{lfd:g}")
