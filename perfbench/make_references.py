"""Regenerate the committed output references from the checkout's code.

    python3 perfbench/make_references.py [WORKLOAD ...]

Writes references/<workload>-<seed>.json.gz for corpus seeds
0..REFERENCE_SEEDS-1.  Only do this when an output change is intended, and
say why in the change that commits the new files.
"""

from __future__ import annotations

import shutil
import sys

import checks
import run


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    for name in names or sorted(run.WORKLOADS):
        for seed in range(run.REFERENCE_SEEDS):
            work = run.WORK / "reference" / f"{name}-{seed}"
            reference = run.reference_run(run.WORKLOADS[name], seed, work)
            checks.write_reference(run.REFERENCES / f"{name}-{seed}.json.gz", reference)
            shutil.rmtree(work)
            print(f"wrote {name}-{seed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
