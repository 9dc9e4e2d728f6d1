"""Smoke tests of the benchmark on a tiny corpus (4 Trusts x 160 days x
2 indicators x 1 wave), through the same code path as the real workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

TINY = {"trusts": 4, "days": 160, "indicators": 2, "waves": 1}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _package_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))


def _tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    wl = _tiny(name)
    reference = run.reference_run(wl, 0, tmp_path / "reference")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, report = run.benchmark(name, wl, 0, 0.1, trace, tmp_path / "bench",
                                       reference, 0)
        assert result["correct"], report["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert report["failed_run_ratio"] == 0 and report["error_row_ratio"] == 0
    # traced and untraced runs both ran, with byte-identical outputs (checked
    # per run), and the spans under cli.main cover the traced run
    assert {r["traced"] for r in report["runs"]} == {False, True}
    assert 0.9 < report["trace_coverage"] <= 1.0


def test_check_fails_on_a_float_perturbed_by_1e_6(tmp_path):
    wl = _tiny("study_default")
    reference = run.reference_run(wl, 0, tmp_path / "reference")
    assert checks.compare_outputs(tmp_path / "reference" / "out", reference) == []

    floats = reference["outputs"]["granger.csv"]["floats"]
    i = next(k for k, v in enumerate(floats) if float(v) not in (0.0, float("inf")))
    floats[i] = repr(float(floats[i]) * (1 + 1e-6))
    problems = checks.compare_outputs(tmp_path / "reference" / "out", reference)
    assert len(problems) == 1 and problems[0].startswith("granger.csv: 1 float(s)")

    result, report = run.benchmark("study_default", wl, 0, 0.1, False, tmp_path / "bench",
                                   reference, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] and report["failed_run_ratio"] == 1


def test_skeleton_keeps_everything_but_floats():
    a = b"T001,ind01,wave1,2021-10-01,14,0.25,1e-05,inf,true,\n"
    b = b"T001,ind01,wave1,2021-10-01,14,0.5,2e-05,inf,true,\n"
    assert checks.split_floats(a)[1] == ["0.25", "1e-05", "inf"]
    assert checks.split_floats(a)[0] == checks.split_floats(b)[0]
    c = a.replace(b",14,", b",15,")
    assert checks.split_floats(a)[0] != checks.split_floats(c)[0]
