"""Runtime-only cases: run the command line on the synth corpus and on edited copies of it.

Standard library only, as the runtime-only CI job installs no extras. Run it
where ``leadlag synth --out c --trusts 8 --days 240 --indicators 2 --waves 2``
wrote ``c/``; argv is the command to run (default ``leadlag``), for example
``PYTHONPATH=src python tests/runtime_cases.py python -m leadlag.cli``. Edited
inputs and outputs go to ``c/``. It prints one line per case that passed and
exits non-zero at the first failure, naming the case and the offending values.
"""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

COMMAND = sys.argv[1:] or ["leadlag"]
INPUTS = {"config": "c/config.yaml", "admissions": "c/admissions.csv",
          "indicators": "c/indicators", "mapping": "c/mapping.csv",
          "population": "c/population.csv"}
CONFIGS = ("c/config.yaml", "c/config_univariate.yaml")  # one per DTW mode


class Failed(Exception):
    """A check of a case failed."""


def check(ok, message):
    if not ok:
        raise Failed(message)


def run(out, *options, status=0, **inputs):
    """Run ``leadlag run`` into ``c/<out>``, check its exit code and that it
    imported neither scipy nor numpy.ma (the runtime is numpy and PyYAML), and
    return its stderr."""
    files = [arg for key, path in {**INPUTS, **inputs}.items() for arg in (f"--{key}", path)]
    done = subprocess.run([*COMMAND, "run", *files, "--out", f"c/{out}", *options],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPROFILEIMPORTTIME="1"))
    sys.stderr.writelines(line for line in done.stderr.splitlines(keepends=True)
                          if not line.startswith("import time:"))
    check(done.returncode == status, f"{out} exited {done.returncode}, not {status}")
    imported = re.findall(r"^import time:.*\| +(scipy\S*|numpy\.ma)$", done.stderr, re.M)
    check(not imported, f"{out} imported {sorted(set(imported))}")
    return done.stderr


def derive(source, target, edit):
    """Write ``target``, a copy of the synth file ``source`` edited by ``edit``.

    A config's ``edit`` is YAML text that starts with a top-level key: it
    replaces the line that sets that key, or is appended where no line does.
    A CSV keeps its header, and ``edit`` maps each row to its new fields, or
    to None to drop it.
    """
    Path(target).parent.mkdir(exist_ok=True)
    if source.endswith(".yaml"):
        key = re.escape(edit.partition(":")[0])
        text, found = re.subn(f"^{key}:.*$", lambda _: edit, Path(source).read_text(),
                              count=1, flags=re.M)
        Path(target).write_text(text if found else text + edit + "\n")
        return
    with open(source, newline="") as src, open(target, "w", newline="") as dst:
        reader, writer = csv.reader(src), csv.writer(dst, lineterminator="\n")
        writer.writerow(next(reader))
        writer.writerows(filter(None, map(edit, reader)))


def rows(out, table, **match):
    """The rows of ``c/<out>/<table>.csv`` whose fields equal ``match``."""
    with open(f"c/{out}/{table}.csv", newline="") as fh:
        return [row for row in csv.DictReader(fh) if all(row[k] == v for k, v in match.items())]


def by_wave(out, field, expected):
    """Each granger, ccf and dtw row reads ``expected[wave]`` in ``field``; 64 are wave2."""
    wave2 = 0
    for method in ("granger", "ccf", "dtw"):
        for row in rows(out, method):
            wave2 += row["wave"] == "wave2"
            check(row[field] == expected.get(row["wave"]),
                  f"{out}/{method}.csv {row['wave']} row reads {field}={row[field]!r}")
    check(wave2 == 64, f"{out}: {wave2} wave2 rows, not 64")


def default_run():
    run("out", "--export-dtw-paths")
    check(Path("c/out/granger.csv").stat().st_size > 0, "granger.csv is empty")
    with open("c/out/dtw_paths.csv") as fh:
        check(sum(1 for _ in fh) > 1, "dtw_paths.csv has no path")


def univariate_dtw():
    run("out_univariate", "--methods", "dtw", "--export-dtw-paths", config=CONFIGS[1])
    dtw = rows("out_univariate", "dtw")
    other = {row["provenance"] for row in dtw if "+univariate" not in row["provenance"]}
    check(dtw and not other, f"dtw rows are not univariate: {other}")
    failed = [(row["trust_id"], row["error"]) for row in dtw if row["error"]]
    check(not failed, f"dtw rows read an error: {failed}")
    scopes = {row["scope"] for row in rows("out_univariate", "dtw_paths")}
    check(scopes and all(re.fullmatch("T[0-9]*", scope) for scope in scopes),
          f"dtw_paths.csv scopes are not Trust ids: {scopes}")


def robust_loess():
    derive("c/config.yaml", "c/config_robust.yaml", "loess_robustness_passes: 1")
    run("out_robust", config="c/config_robust.yaml")
    ccf = rows("out_robust", "ccf")
    other = {row["provenance"] for row in ccf if "passes=1" not in row["provenance"]}
    check(ccf and not other, f"ccf rows name no passes=1: {other}")
    failed = [row["error"] for row in ccf if "preprocessing failed" in row["error"]]
    check(not failed, f"robust LOESS failed preprocessing: {failed}")


def repeated_key():
    # the edit replaces the synth config's horizon_days line with two
    derive("c/config.yaml", "c/config_repeated.yaml", "horizon_days: 14\nhorizon_days: 7")
    log = run("out_repeated", status=3, config="c/config_repeated.yaml")
    check("repeated key 'horizon_days'" in log, "the config error names no repeated key")


def long_horizon():
    # a 100-day horizon is longer than the corpus's 61-day waves: each ccf row
    # reads as in default_run's, at the synth config's 14 days, but for the
    # horizon and an empty ccf_at_horizon, and Granger at that horizon has too
    # few observations. The edit, which replaces the synth config's
    # horizon_days line, also excludes a Trust and maps an indicator that the
    # run does not read, the latter with a file whose L000 has no admissions:
    # each is a warning in the log, and no row changes
    derive("c/mapping.csv", "c/mapping_zero.csv",
           lambda row: [*row[:2], "0"] if row[0] == "L000" else row)
    derive("c/config.yaml", "c/config_long.yaml", "horizon_days: 100\n"
           "trust_exclusions: [T999]\nindicator_mappings: {ind9: c/mapping_zero.csv}")
    log = run("out_long", "--methods", "granger,ccf", config="c/config_long.yaml")
    for warning in ("config trust_exclusions names no admissions trust: T999",
                    "config indicator_mappings names no indicator read: ind9",
                    "mapping c/mapping_zero.csv has 1 LTLA(s) with no admissions: L000"):
        check(warning in log, f"out_long logged no {warning!r}")
    long, short = rows("out_long", "ccf"), rows("out", "ccf")
    check(long and len(long) == len(short), f"{len(long)} ccf rows at 100 days, {len(short)} at 14")
    for row, at_14 in zip(long, short):
        want = {**at_14, "horizon": "100", "ccf_at_horizon": ""}
        differ = sorted(k for k in row if row[k] != want[k])
        check(not differ, f"out_long/ccf.csv {row['trust_id']} {row['indicator']} "
                          f"{row['wave']} differs from the 14-day row in {differ}")
    errors = {row["error"] for row in rows("out_long", "granger", method="granger14")}
    check(errors == {"insufficient observations"}, f"out_long granger14 rows read {errors}")


def trust_level():
    # each indicator's own ids decide its level: Trust-id files, and a directory
    # holding an LTLA ind00 next to a Trust-id ind01, reach every Trust
    for path in Path("c/indicators").glob("*.csv"):
        derive(str(path), f"c/trust_indicators/{path.name}",
               lambda row: [re.sub("^L", "T", row[0]), *row[1:]])
    shutil.copytree("c/trust_indicators", "c/mixed_indicators", dirs_exist_ok=True)
    shutil.copy("c/indicators/ind00.csv", "c/mixed_indicators")
    for out, indicators in (("out_trust", "c/trust_indicators"),
                            ("out_mixed", "c/mixed_indicators")):
        run(out, indicators=indicators)
        failed = [row["error"] for row in rows(out, "ccf")
                  if re.search("no indicator series|preprocessing failed", row["error"])]
        check(not failed, f"{out}: indicators did not reach their trusts: {failed}")


def cut_inside_wave():
    # the synth corpus's wave2 is 2022-02-08..2022-04-09, and wave1 ends before the cut
    derive("c/admissions.csv", "c/admissions_cut.csv",
           lambda row: row if row[1] <= "2022-03-15" else None)
    log = run("out_cut", admissions="c/admissions_cut.csv")
    check("cover wave wave2 only from 2022-02-08 to 2022-03-15" in log, "no truncation warning")
    by_wave("out_cut", "truncated", {"wave1": "false", "wave2": "true"})


def cut_in_warmup():
    # cut at 2022-02-01, after wave1 ends (2022-01-19) and inside wave2's DTW
    # warm-up (2022-01-25..2022-02-07): in both DTW modes every wave2 row of
    # every method reads no coverage, and no wave1 row has an error
    derive("c/admissions.csv", "c/admissions_warmup.csv",
           lambda row: row if row[1] <= "2022-02-01" else None)
    for config in CONFIGS:
        out = f"out_warmup_{Path(config).stem}"
        run(out, config=config, admissions="c/admissions_warmup.csv")
        by_wave(out, "error", {"wave1": "", "wave2": "no coverage in wave"})


def constant_series():
    # (a) flat is ind00 with every value 3: in both DTW modes all 16 of its
    # dtw rows read zero variance and no flat wave of summary.json has a DTW
    # lead; (b) T003's admissions are zero from 2022-01-20, before wave2's
    # warm-up: both of its wave2 ccf rows, and both of its wave2 univariate
    # dtw rows, read zero variance
    shutil.copytree("c/indicators", "c/flat_indicators", dirs_exist_ok=True)
    derive("c/indicators/ind00.csv", "c/flat_indicators/flat.csv",
           lambda row: [*row[:2], "flat", "3"])
    for config in CONFIGS:
        out = f"out_flat_{Path(config).stem}"
        run(out, config=config, indicators="c/flat_indicators")
        errors = [row["error"] for row in rows(out, "dtw", indicator="flat")]
        check(errors == ["zero variance"] * 16, f"{out} flat dtw rows read {errors}")
        waves = json.loads(Path(f"c/{out}/summary.json").read_text())["flat"]
        check(not any("dtw_median_lead" in stats for stats in waves.values()),
              f"{out}/summary.json gives flat a DTW lead: {waves}")
    derive("c/admissions.csv", "c/admissions_zeroed.csv",
           lambda row: [*row[:2], "0"] if row[0] == "T003" and row[1] >= "2022-01-20" else row)
    for out, config, method in (("out_zeroed", CONFIGS[0], "ccf"),
                                ("out_zeroed_univariate", CONFIGS[1], "dtw")):
        run(out, "--methods", method, config=config, admissions="c/admissions_zeroed.csv")
        found = [(row["indicator"], row["error"])
                 for row in rows(out, method, trust_id="T003", wave="wave2")]
        check([error for _, error in found] == ["zero variance"] * 2,
              f"{out} T003 wave2 {method} rows read {found}")


def unadmitted_trust():
    # a Trust that the mapping names but the admissions lack reaches no table,
    # and one warning names it
    shutil.copy("c/mapping.csv", "c/mapping_unadmitted.csv")
    with open("c/mapping_unadmitted.csv", "a", newline="") as fh:
        fh.write("L000,T999,5\n")
    log = run("out_unadmitted", mapping="c/mapping_unadmitted.csv")
    warnings = [line for line in log.splitlines() if line.startswith("WARNING") and "T999" in line]
    check(warnings == ["WARNING leadlag.pipeline: mapping names 1 trust(s) the admissions "
                       "lack: T999"], f"out_unadmitted logged {warnings} about T999")
    for method in ("granger", "ccf", "dtw"):
        check(not rows("out_unadmitted", method, trust_id="T999"),
              f"out_unadmitted/{method}.csv has a T999 row")


def stale_indicators():
    # synth into a copy of c/ with one indicator fewer: ind01.csv is not its
    # file, and a run would read it too, so synth refuses and writes nothing
    shutil.copytree("c/indicators", "c/stale/indicators")
    for name in ("config.yaml", "admissions.csv", "mapping.csv", "population.csv"):
        shutil.copy(f"c/{name}", "c/stale")
    before = {path: path.read_bytes() for path in Path("c/stale").rglob("*") if path.is_file()}
    done = subprocess.run([*COMMAND, "synth", "--out", "c/stale", "--trusts", "8", "--days",
                           "240", "--indicators", "1", "--waves", "2"],
                          capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    check(done.returncode == 3, f"synth exited {done.returncode}, not 3")
    check("would not write: ind01.csv\n" in done.stderr, "synth named no stale ind01.csv")
    after = {path: path.read_bytes() for path in Path("c/stale").rglob("*") if path.is_file()}
    changed = sorted(str(path) for path in before.keys() | after.keys()
                     if before.get(path) != after.get(path))
    check(not changed, f"synth changed {changed}")


def main():
    derive(*CONFIGS, "dtw_mode: univariate")
    for case in (default_run, univariate_dtw, robust_loess, repeated_key, long_horizon,
                 trust_level, cut_inside_wave, cut_in_warmup, constant_series, unadmitted_trust,
                 stale_indicators):
        try:
            case()
        except Failed as exc:
            sys.exit(f"FAIL {case.__name__}: {exc}")
        print(f"ok {case.__name__}")


if __name__ == "__main__":
    main()
