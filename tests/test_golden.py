"""Golden outputs: a reduced corpus run end to end in both DTW modes.

The corpus is ``write_corpus(n_trusts=12, n_days=333, n_indicators=6,
n_waves=3, seed=0)`` plus two indicators that pin the flagged rows:
``flat`` (every value 3: zero-variance CCF and DTW rows and collinear
Granger rows) and ``early`` (ind00's rows up to 2022-01-23, so only wave 1
is covered). Each run's files are compared with ``golden/<mode>.json.gz`` by the benchmark's
output check (``perfbench/checks.py``): ids, integer leads, flags, errors
and ``dtw_paths.csv`` exactly, floats within 1e-9 relative.

``python tests/golden/regenerate.py`` rewrites the golden files from the
current code; do that only for an intended output change.  It re-records
only the files that no longer pass, so an intended change to one file does
not re-anchor the floats of the others.
"""

import importlib.util
from pathlib import Path

import pytest

from leadlag.cli import main
from leadlag.corpus import write_corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MODES = ("multivariate", "univariate")
EARLY_END = "2022-01-23"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


def write_inputs(dest: Path, mode: str) -> dict[str, str]:
    """Write the golden corpus for ``mode``; returns the SHA-256 of each file."""
    paths = write_corpus(dest, n_trusts=12, n_days=333, n_indicators=6, n_waves=3, seed=0)
    header, *records = paths["ind00"].read_text(encoding="utf-8").splitlines()
    fields = [line.split(",") for line in records]
    flat = [header] + [f"{geo},{day},flat,3" for geo, day, _, _ in fields]
    early = [header] + [f"{geo},{day},early,{value}" for geo, day, _, value in fields
                        if day <= EARLY_END]
    for name, lines in (("flat", flat), ("early", early)):
        (dest / "indicators" / f"{name}.csv").write_text("\n".join(lines) + "\n",
                                                         encoding="utf-8")
    if mode != "multivariate":
        with paths["config"].open("a", encoding="utf-8") as fh:
            fh.write(f"dtw_mode: {mode}\n")
    return {p.relative_to(dest).as_posix(): checks.sha256_file(p)
            for p in sorted(dest.rglob("*")) if p.is_file()}


def run_golden(inputs: Path, out: Path) -> int:
    return main(["run",
                 "--config", str(inputs / "config.yaml"),
                 "--admissions", str(inputs / "admissions.csv"),
                 "--indicators", str(inputs / "indicators"),
                 "--mapping", str(inputs / "mapping.csv"),
                 "--population", str(inputs / "population.csv"),
                 "--out", str(out), "--export-dtw-paths"])


def golden_reference(out: Path, digests: dict[str, str], old: dict | None) -> dict:
    """The reference for a run's outputs that keeps ``old``'s entry for every
    file that still passes against it."""
    reference = checks.make_reference(out, digests)
    if old is None:
        return reference
    failing = {problem.split(":", 1)[0] for problem in checks.compare_outputs(out, old)}
    reference["outputs"] = {
        name: entry if name in failing else old["outputs"].get(name, entry)
        for name, entry in reference["outputs"].items()}
    return reference


@pytest.mark.parametrize("mode", MODES)
def test_golden_outputs(mode, tmp_path):
    digests = write_inputs(tmp_path / "inputs", mode)
    assert run_golden(tmp_path / "inputs", tmp_path / "out") == 0
    reference = checks.read_reference(GOLDEN / f"{mode}.json.gz")
    assert digests == reference["inputs"]
    assert checks.compare_outputs(tmp_path / "out", reference) == []
    # regenerating from unchanged code rewrites the golden file byte for byte
    regenerated = tmp_path / "regenerated.json.gz"
    checks.write_reference(regenerated, golden_reference(tmp_path / "out", digests, reference))
    assert regenerated.read_bytes() == (GOLDEN / f"{mode}.json.gz").read_bytes()


def test_regeneration_rerecords_only_failing_files(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.csv").write_text("a,0.30000000000000004\n")
    (out / "changed.csv").write_text("a,0.5,new\n")
    (out / "added.csv").write_text("a,1.5\n")
    old = {"inputs": {}, "outputs": {
        "kept.csv": {"skeleton_sha256": checks.split_floats(b"a,0.1\n")[0],
                     "floats": ["0.3"]},
        "changed.csv": {"skeleton_sha256": checks.split_floats(b"a,0.1\n")[0],
                        "floats": ["0.5"]},
        "dropped.csv": {"skeleton_sha256": "", "floats": []}}}
    reference = golden_reference(out, {"x.csv": "digest"}, old)
    assert reference["inputs"] == {"x.csv": "digest"}
    assert reference["outputs"]["kept.csv"] == old["outputs"]["kept.csv"]
    assert reference["outputs"]["changed.csv"]["floats"] == ["0.5"]
    assert reference["outputs"]["changed.csv"] != old["outputs"]["changed.csv"]
    assert sorted(reference["outputs"]) == ["added.csv", "changed.csv", "kept.csv"]
