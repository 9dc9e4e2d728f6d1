"""Golden outputs: a reduced corpus run end to end in both DTW modes.

The corpus is ``write_corpus(n_trusts=12, n_days=333, n_indicators=6,
n_waves=3, seed=0)`` plus two indicators that pin the flagged rows:
``flat`` (every value 3: zero-variance CCF and collinear Granger rows) and
``early`` (ind00's rows up to 2022-01-23, so only wave 1 is covered). Each
run's files are compared with ``golden/<mode>.json.gz`` by the benchmark's
output check (``perfbench/checks.py``): ids, integer leads, flags, errors
and ``dtw_paths.csv`` exactly, floats within 1e-9 relative.

``python tests/golden/regenerate.py`` rewrites the golden files from the
current code; do that only for an intended output change.
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


@pytest.mark.parametrize("mode", MODES)
def test_golden_outputs(mode, tmp_path):
    digests = write_inputs(tmp_path / "inputs", mode)
    assert run_golden(tmp_path / "inputs", tmp_path / "out") == 0
    reference = checks.read_reference(GOLDEN / f"{mode}.json.gz")
    assert digests == reference["inputs"]
    assert checks.compare_outputs(tmp_path / "out", reference) == []
