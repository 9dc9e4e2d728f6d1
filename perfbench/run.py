"""Benchmark for whole ``leadlag run`` batches.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes a synthetic corpus
with the checkout's own ``leadlag.corpus.write_corpus`` and then runs
``leadlag run`` on it in a closed loop with one client: one fresh child
interpreter at a time, each calling ``leadlag.cli.main`` once, until S
seconds have passed.  Every run's outputs are checked against a committed
reference (see checks.py).  Everything it writes goes under ``.bench_work/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced invocation alternates untraced and traced runs, so that the
tracing overhead is measured under the same conditions.  The line before
it is a JSON report: provenance, every run's samples, the ratios that are
0 today (failed runs, error rows) and lead recovery against the injected
ground truth.  A table of every metric goes to stderr.

Workload shapes.  Each workload keeps the paper's per-(indicator, wave)
shape (121 or 363 Trusts x 333 days, 3 waves) but runs 2 indicators (1 for
dtw_univariate) instead of 20, so that five or more runs fit in one
30-second window and seventy invocations fit in under an hour.  Every stage
of a run is per indicator except admissions ingest and smoothing, so times
scale almost linearly in the indicator count.

Times.  A shared host slows a core by up to 1.6x for minutes at a time
(see child.py), so each run's times are rescaled by a calibration kernel
timed in the same child, and reported in seconds of the reference host:
measured seconds x CAL_REF_S / calibration seconds.  The report keeps the
measured seconds and each run's scale factor next to them.

Seeds.  References are committed for corpus seeds 0..REFERENCE_SEEDS-1, and
``--seed N`` generates the corpus of seed ``N % REFERENCE_SEEDS``, so that
every run is checked exactly.  ``make_references.py`` regenerates them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
from tracing import span_stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
REFERENCES = BENCH_DIR / "references"
WORK = ROOT / ".bench_work"

REFERENCE_SEEDS = 4
# Median child.calibrate() time on the 2-core Xeon host the benchmark was
# tuned on.  Times are reported in seconds of that host: measured seconds x
# CAL_REF_S / the calibration time measured next to them.
CAL_REF_S = 0.03
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    trusts: int
    methods: str
    dtw_mode: str
    fmt: str
    export_dtw_paths: bool
    days: int = 333
    indicators: int = 2
    waves: int = 3

    @property
    def cells(self) -> int:
        return self.waves * self.trusts * self.indicators


WORKLOADS = {
    "study_default": Workload(121, "granger,ccf,dtw", "multivariate", "csv", False),
    # one indicator: its runs are the longest, and more of them per window
    # keep the median steady
    "dtw_univariate": Workload(121, "dtw", "univariate", "csv", True, indicators=1),
    "preprocess_wide": Workload(363, "dtw", "multivariate", "json", False),
}


def prepare_inputs(wl: Workload, corpus_seed: int, dest: Path) -> dict[str, Path]:
    """Write the workload's corpus; the program sees only these files."""
    from leadlag.corpus import write_corpus

    paths = write_corpus(dest, n_trusts=wl.trusts, n_days=wl.days,
                         n_indicators=wl.indicators, n_waves=wl.waves,
                         seed=corpus_seed)
    if wl.dtw_mode != "multivariate":
        with paths["config"].open("a", encoding="utf-8") as fh:
            fh.write(f"dtw_mode: {wl.dtw_mode}\n")
    return paths


def input_digests(inputs_dir: Path) -> dict[str, str]:
    return {p.relative_to(inputs_dir).as_posix(): checks.sha256_file(p)
            for p in sorted(inputs_dir.rglob("*")) if p.is_file()}


def leadlag_args(wl: Workload, inputs_dir: Path, out: Path) -> list[str]:
    args = ["run", "--config", str(inputs_dir / "config.yaml"),
            "--admissions", str(inputs_dir / "admissions.csv"),
            "--indicators", str(inputs_dir / "indicators"),
            "--mapping", str(inputs_dir / "mapping.csv"),
            "--population", str(inputs_dir / "population.csv"),
            "--out", str(out), "--format", wl.fmt, "--methods", wl.methods]
    return args + (["--export-dtw-paths"] if wl.export_dtw_paths else [])


def _child(args: list[str], log: Path, timeout: float):
    """Run child.py with ``args``; None when it does not finish in time."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    with log.open("wb") as err:
        try:
            return subprocess.run([sys.executable, str(CHILD), *args], stdout=subprocess.PIPE,
                                  stderr=err, env=env, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return None


def measure_setup(config: Path, log: Path, timeout: float) -> tuple[float, float] | None:
    """Seconds from starting an interpreter until leadlag has loaded ``config``,
    and the calibration time the same child measured right after."""
    start = time.monotonic()
    proc = _child(["setup", str(config)], log, timeout)
    if proc is None or proc.returncode != 0:
        return None
    loaded, calibration = (float(line) for line in proc.stdout.split())
    return loaded - start, calibration


def one_run(wl: Workload, inputs_dir: Path, out: Path, work: Path, run_id: int,
            traced: bool, timeout: float) -> tuple[dict | None, str]:
    """One ``leadlag run`` in a fresh child: (its timings or None, log path)."""
    shutil.rmtree(out, ignore_errors=True)
    result_path = work / f"run{run_id}.json"
    log = work / f"run{run_id}.log"
    proc = _child(["run", str(result_path), str(int(traced)), str(run_id), "--",
                   *leadlag_args(wl, inputs_dir, out)], log, timeout)
    if proc is None or proc.returncode != 0 or not result_path.exists():
        return None, str(log)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result, str(log)


def reference_run(wl: Workload, corpus_seed: int, work: Path) -> dict:
    """Run the workload once on its corpus and keep its outputs as reference."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepare_inputs(wl, corpus_seed, work / "inputs")
    result, log = one_run(wl, work / "inputs", work / "out", work, 0, False, DEADLINE_S)
    if result is None or result["exit_code"] != 0:
        raise RuntimeError(f"reference run failed, see {log}")
    return checks.make_reference(work / "out", input_digests(work / "inputs"))


def output_facts(wl: Workload, out: Path, spec_seed: int) -> tuple[list[str], dict]:
    """Check a run's outputs beyond the reference, and count what they hold."""
    from leadlag.corpus import build_spec
    from leadlag.synth import ground_truth

    tables = checks.read_tables(out, wl.fmt)
    problems = checks.grid_problems(tables, tuple(wl.methods.split(",")), wl.cells)
    errors, rows = checks.error_rows(tables)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    truth = ground_truth(build_spec(wl.trusts, wl.days, wl.indicators, wl.waves, spec_seed))
    ccf_hits = checks.lead_hits(summary, truth, "optimal_lead", 3)
    dtw_hits = checks.lead_hits(summary, truth, "dtw_median_lead", 2)
    paths_file = out / "dtw_paths.csv"
    facts = {
        "rows": rows,
        "error_rows": errors,
        "cells": len({(r["trust_id"], r["indicator"], r["wave"])
                      for table in tables.values() for r in table}),
        "report_bytes": sum((out / f"{t}.{wl.fmt}").stat().st_size for t in tables)
                        + (out / "summary.json").stat().st_size,
        "dtw_path_rows": (paths_file.read_bytes().count(b"\n") - 1
                          if paths_file.exists() else 0),
        "ccf_lead_hits": ccf_hits,
        "dtw_lead_hits": dtw_hits,
    }
    return problems, facts


def _scaled(runs: list[dict], key: str) -> list[float]:
    """A time of each run in reference-host seconds (see CAL_REF_S)."""
    return [r[key] * r["scale"] for r in runs]


def _ratio(hits: tuple[int, int]) -> float | None:
    return hits[0] / hits[1] if hits[1] else None


def _quartiles(values: list[float]) -> dict:
    summary = {"n": len(values), "min": min(values), "median": statistics.median(values),
               "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    # the highest percentile with at least ten samples beyond it
    if len(values) >= 20:
        p = math.floor(100 * (1 - 10 / len(values)))
        summary[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return summary


def layer_values(stats: dict, pairs: int, facts: dict, input_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (overhead is added by the caller)."""
    def span(name: str) -> dict:
        return stats.get(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "errors": 0})

    def mean(name: str, scale: float) -> float:
        s = span(name)
        return s["wall_s"] / s["calls"] * scale if s["calls"] else 0.0

    ingest_s = sum(s["wall_s"] for n, s in stats.items() if n.startswith("ingest."))
    values = {
        "xcorr.delays_per_cell": (span("xcorr.ccf_at_delay")["calls"]
                                  / span("xcorr.ccf_result")["calls"]
                                  if span("xcorr.ccf_result")["calls"] else 0.0),
        "granger.granger_test.mean_us": mean("granger.granger_test", 1e6),
        "timeseries.loess_smooth.mean_us": mean("timeseries.loess_smooth", 1e6),
        "dtw.dtw_align.mean_ms": mean("dtw.dtw_align", 1e3),
        "dtw.pairs": pairs,
        "ingest.rows": input_rows,
        "ingest.rows_per_s": input_rows / ingest_s if ingest_s else 0.0,
        "pipeline.cells": facts["cells"],
        "reports.rows": facts["rows"],
        "reports.bytes_written": facts["report_bytes"],
        "cli.self_s": span("cli.main")["self_s"],
        "cli.dtw_path_rows": facts["dtw_path_rows"],
    }
    for name in stats:
        for key in ("wall_s", "self_s", "calls", "errors"):
            values[f"{name}.{key}"] = stats[name][key]
    return values


def provenance(inputs: dict[str, str]) -> dict:
    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        revision = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "leadlag").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "inputs_sha256": inputs,
    }


def benchmark(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
              work: Path, reference: dict, corpus_seed: int) -> tuple[dict, dict]:
    """Measure one workload; returns (the result line, the report)."""
    began = time.monotonic()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs_dir, out = work / "inputs", work / "out"
    prepare_inputs(wl, corpus_seed, inputs_dir)
    inputs = input_digests(inputs_dir)
    input_rows = sum(p.read_bytes().count(b"\n") - 1
                     for p in inputs_dir.rglob("*.csv"))
    problems = [] if inputs == reference["inputs"] else \
        ["generated inputs differ from the reference inputs of this seed"]

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - began)

    setup: list[float] = []
    setup_raw: list[float] = []

    def take_setup() -> None:
        # one sample between runs, so that the samples span the whole window
        log = work / f"setup{len(setup)}.log"
        value = measure_setup(inputs_dir / "config.yaml", log, remaining())
        if value is None:
            problems.append(f"set-up child failed, see {log}")
        else:
            setup_raw.append(value[0])
            setup.append(value[0] * CAL_REF_S / value[1])

    runs: list[dict] = []
    checked: dict[tuple, list[str]] = {}  # output digests -> problems found in them
    first_outputs = None
    facts: dict = {}
    traced_stats: dict[int, tuple[dict, int]] = {}  # run id -> (span stats, DTW pairs)
    loop_start = time.monotonic()
    while True:
        run_id = len(runs)
        traced = trace and run_id % 2 == 1
        if not trace:
            take_setup()
        if problems:
            break
        result, log = one_run(wl, inputs_dir, out, work, run_id, traced, remaining())
        run = {"id": run_id, "traced": traced, "problems": []}
        if result is None:
            run["problems"].append(f"child failed or timed out, see {log}")
        elif result["exit_code"] != 0:
            run["problems"].append(f"leadlag exited with {result['exit_code']}, see {log}")
        else:
            spans = result.pop("spans", None)
            run.update(result)
            run["scale"] = CAL_REF_S / result["calibration_s"]
            digests = tuple((p.name, checks.sha256_file(p)) for p in sorted(out.iterdir()))
            if digests not in checked:
                found = checks.compare_outputs(out, reference)
                grid, run_facts = output_facts(wl, out, corpus_seed)
                checked[digests] = found + grid
                facts = facts or run_facts
            first_outputs = first_outputs or digests
            run["problems"] += checked[digests]
            if digests != first_outputs:
                run["problems"].append("outputs are not byte-identical to the first run's")
            if spans is not None:
                stats = span_stats(spans)
                for entry in stats.values():
                    entry["wall_s"] *= run["scale"]
                    entry["self_s"] *= run["scale"]
                traced_stats[run_id] = (stats, spans["dtw_pairs"])
        run["ok"] = not run["problems"]
        runs.append(run)
        elapsed = time.monotonic() - loop_start
        if remaining() < 0 or (elapsed >= seconds and (not trace or run_id >= 1)):
            break
    while not trace and not problems and len(setup) < SETUP_REPEATS:
        take_setup()

    ok = [r for r in runs if r["ok"] and not r["traced"]]
    ok_traced = [r for r in runs if r["ok"] and r["traced"]]
    # an invocation stopped by bad inputs or a failed set-up child counts as
    # one more failed attempt
    failed = sum(not r["ok"] for r in runs) + bool(problems)
    attempted = len(runs) + bool(problems)
    correct = failed == 0 and bool(ok) and (bool(ok_traced) or not trace)
    units = _metric_units()
    values: dict[str, float | None] = {}
    if trace and ok and ok_traced:
        layer = [layer_values(*traced_stats[r["id"]], facts, input_rows) for r in ok_traced]
        for metric in units["per_layer"]:
            samples = [v.get(metric, 0) for v in layer]
            values[metric] = statistics.median(samples)
        values["trace_overhead_s"] = (statistics.median(_scaled(ok_traced, "run_s"))
                                      - statistics.median(_scaled(ok, "run_s")))
    elif not trace and ok and setup:
        run_s = statistics.median(_scaled(ok, "run_s"))
        values = {
            "run_s": run_s,
            "cells_per_s": wl.cells / run_s,
            "cpu_s": statistics.median(_scaled(ok, "cpu_s")),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "setup_s": statistics.median(setup),
        }
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m: {"value": values.get(m), "unit": u} for m, u in units[kind].items()}

    report = {
        "workload": name, "shape": asdict(wl), "cells": wl.cells, "seed": seed,
        "corpus_seed": corpus_seed, "trace": trace, "seconds": seconds,
        "provenance": provenance(inputs),
        "problems": problems + [p for r in runs for p in r["problems"]],
        "failed_run_ratio": failed / attempted,
        "error_row_ratio": (facts["error_rows"] / facts["rows"]) if facts.get("rows") else None,
        "ccf_lead_hit_ratio": _ratio(facts["ccf_lead_hits"]) if facts else None,
        "dtw_lead_hit_ratio": _ratio(facts["dtw_lead_hits"]) if facts else None,
        "lead_hits": {k: facts[k] for k in ("ccf_lead_hits", "dtw_lead_hits")} if facts else {},
        "run_s": _quartiles(_scaled(ok, "run_s")) if ok else None,
        "run_s_measured": _quartiles([r["run_s"] for r in ok]) if ok else None,
        "setup_s_measured": setup_raw,
        "setup_s_samples": setup,
        "runs": runs,
    }
    if ok_traced:
        report["traced_run_s"] = _quartiles(_scaled(ok_traced, "run_s"))
        # share of the traced run that cli.main and its child spans cover
        report["trace_coverage"] = statistics.median(
            traced_stats[r["id"]][0].get("cli.main", {}).get("wall_s", 0.0)
            / (r["run_s"] * r["scale"])
            for r in ok_traced)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def _metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _print_table(result: dict, report: dict) -> None:
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    rows += [(key, report[key], "ratio") for key in
             ("failed_run_ratio", "error_row_ratio", "ccf_lead_hit_ratio",
              "dtw_lead_hit_ratio")]
    width = max(len(r[0]) for r in rows)
    print(f"{report['workload']} seed={report['seed']} "
          f"runs={result['attempted']} failed={result['failed']}", file=sys.stderr)
    for name, value, unit in rows:
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {text} {unit}", file=sys.stderr)
    for problem in report["problems"][:10]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "leadlag" / "__init__.py").is_file():
        print(f"error: no leadlag package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    corpus_seed = args.seed % REFERENCE_SEEDS
    reference = checks.read_reference(
        REFERENCES / f"{args.workload}-{corpus_seed}.json.gz")
    result, report = benchmark(args.workload, WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace),
                               WORK / args.workload, reference, corpus_seed)
    (WORK / args.workload / "report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    _print_table(result, report)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
