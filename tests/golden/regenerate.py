"""Rewrite the golden files from the checkout's code.

    PYTHONPATH=src python tests/golden/regenerate.py

Writes golden/<mode>.json.gz for both DTW modes.  Only do this when an
output change is intended, in its own commit, and say why in CHANGES.md.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import GOLDEN, MODES, checks, run_golden, write_inputs  # noqa: E402


def main() -> int:
    for mode in MODES:
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
            digests = write_inputs(inputs, mode)
            if run_golden(inputs, out) != 0:
                print(f"leadlag run failed in {mode} mode", file=sys.stderr)
                return 1
            checks.write_reference(GOLDEN / f"{mode}.json.gz",
                                   checks.make_reference(out, digests))
        print(f"wrote {mode}.json.gz", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
