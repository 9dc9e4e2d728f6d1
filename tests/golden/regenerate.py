"""Rewrite the golden files from the checkout's code.

    PYTHONPATH=src python tests/golden/regenerate.py

Writes golden/<mode>.json.gz for both DTW modes.  Only do this when an
output change is intended, in its own commit, and say why in CHANGES.md.
A file that still passes against the committed reference keeps its entry,
so only the files whose output changed are re-recorded.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import (  # noqa: E402
    GOLDEN, MODES, checks, golden_reference, run_golden, write_inputs)


def main() -> int:
    for mode in MODES:
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
            digests = write_inputs(inputs, mode)
            if run_golden(inputs, out) != 0:
                print(f"leadlag run failed in {mode} mode", file=sys.stderr)
                return 1
            path = GOLDEN / f"{mode}.json.gz"
            old = checks.read_reference(path) if path.exists() else None
            checks.write_reference(path, golden_reference(out, digests, old))
        print(f"wrote {mode}.json.gz", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
