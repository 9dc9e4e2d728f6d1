"""One measured step of the benchmark, in a fresh interpreter.

    python3 child.py setup CONFIG
        import leadlag, load CONFIG with it, print time.monotonic() on stdout,
        then the calibration time.
    python3 child.py run RESULT TRACE RUN_ID -- LEADLAG_ARGS...
        call leadlag.cli.main(LEADLAG_ARGS) once, with the tracing wrappers
        installed when TRACE is 1, and write its timings (and spans) and the
        calibration time around it to the JSON file RESULT.

The parent puts the package's ``src`` directory on PYTHONPATH.

Calibration.  On a shared host the speed of a core changes by up to 1.6x
for minutes at a time, as other tenants load the sibling hardware thread;
steal time stays near zero, so neither CPU time nor wall time is spared.
Each child therefore times a fixed mix of interpreter and small-array work
(``calibrate``) next to the measured work, and the parent rescales the
measured times by it.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def calibrate(bursts: int = 5) -> float:
    """Mean seconds of one burst of fixed work, over ``bursts`` bursts.

    A burst (about 40 ms) mixes what leadlag spends its time on: interpreter
    loops, short dot products, small least-squares fits and medians.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(90), rng.standard_normal(90)
    design = rng.standard_normal((87, 7))
    start = time.perf_counter()
    for _ in range(bursts):
        seen = {}
        for i in range(2500):
            lag = i % 30
            acc = float(x[lag:] @ y[:90 - lag])
            if i % 8 == 0:
                np.linalg.lstsq(design, y[:87], rcond=None)
                acc += float(np.median(x[:3 + i % 5]))
            seen[i & 255] = acc
    return (time.perf_counter() - start) / bursts


def _setup(config: str) -> None:
    import leadlag  # noqa: F401  (the import is what is measured)
    from leadlag.config import load_config

    load_config(config)
    print(repr(time.monotonic()), flush=True)
    print(repr(calibrate()))


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _run(result_path: str, trace: bool, run_id: int, argv: list[str]) -> int:
    import leadlag.cli

    calibration = calibrate()
    recorder = None
    if trace:
        from tracing import Recorder

        recorder = Recorder(run_id)
        recorder.install()
    try:
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        code = leadlag.cli.main(argv)
        run_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if recorder is not None:
            recorder.restore()
    calibration = (calibration + calibrate()) / 2
    result = {
        "calibration_s": calibration,
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": _cpu_s(after) - _cpu_s(before),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    if recorder is not None:
        result["spans"] = recorder.export()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        _setup(argv[1])
        return 0
    if argv[:1] == ["run"] and len(argv) >= 5 and argv[4] == "--":
        return _run(argv[1], argv[2] == "1", int(argv[3]), argv[5:])
    print("usage: child.py setup CONFIG | run RESULT TRACE RUN_ID -- ARGS...",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
