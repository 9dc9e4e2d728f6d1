"""Timing wrappers around leadlag's public functions, for traced runs.

Each wrapper is patched into the module namespace where its caller looks the
function up (``leadlag.pipeline.loess_smooth``, not ``leadlag.timeseries``),
so only calls made by the program are timed.  A wrapper records one span per
call: name, start, end, parent span and whether the call raised.  Spans stay
in memory and are exported when the run ends.  Nothing in the package is
changed on disk; ``Recorder.restore`` puts the original functions back.
"""

from __future__ import annotations

import importlib
import time

# (module where the caller looks the name up, attribute, span name).
# A name that a later version of the package no longer has is skipped, so a
# traced run keeps working across refactors; its metrics then read 0.
TRACED = (
    ("leadlag.cli", "main", "cli.main"),
    ("leadlag.cli", "load_config", "config.load_config"),
    ("leadlag.cli", "read_admissions", "ingest.read_admissions"),
    ("leadlag.cli", "read_indicator_dir", "ingest.read_indicator_dir"),
    ("leadlag.cli", "read_mapping", "ingest.read_mapping"),
    ("leadlag.cli", "read_population", "ingest.read_population"),
    ("leadlag.cli", "weighted_population", "geo.weighted_population"),
    ("leadlag.cli", "run_analysis", "pipeline.run_analysis"),
    ("leadlag.cli", "emit_reports", "reports.emit_reports"),
    ("leadlag.pipeline", "filter_trusts", "pipeline.filter_trusts"),
    ("leadlag.pipeline", "apply_mapping", "geo.apply_mapping"),
    ("leadlag.pipeline", "loess_smooth", "timeseries.loess_smooth"),
    ("leadlag.pipeline", "minmax_scale", "timeseries.minmax_scale"),
    ("leadlag.pipeline", "zscore_scale", "timeseries.zscore_scale"),
    ("leadlag.pipeline", "slice_window", "timeseries.slice_window"),
    ("leadlag.pipeline", "granger_test", "granger.granger_test"),
    ("leadlag.pipeline", "ccf_result", "xcorr.ccf_result"),
    ("leadlag.xcorr", "ccf_at_delay", "xcorr.ccf_at_delay"),
    ("leadlag.pipeline", "dtw_align", "dtw.dtw_align"),
    ("leadlag.pipeline", "lead_times_from_path", "dtw.lead_times_from_path"),
)


class Recorder:
    """Span store for one run; ``install`` patches, ``restore`` unpatches."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.failed: list[bool] = []
        self.pairs = 0  # matched DTW index pairs, read from dtw_align results
        self._open = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(span)
            self.parent.append(self._open[-1])
            self.failed.append(False)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = True
                raise
            finally:
                self.end[idx] = clock()
                self._open.pop()
            if span == "dtw.dtw_align":
                self.pairs += len(getattr(result, "pairs", ()))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def export(self) -> dict:
        return {"run_id": self.run_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "failed": self.failed,
                "dtw_pairs": self.pairs}


def span_stats(spans: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, wall time (children included), self time, errors.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    duration = [e - s for s, e in zip(spans["start"], spans["end"])]
    child_time = [0.0] * len(duration)
    for idx, parent in enumerate(spans["parent"]):
        if parent >= 0:
            child_time[parent] += duration[idx]
    stats: dict[str, dict[str, float]] = {}
    for idx, name in enumerate(spans["name"]):
        entry = stats.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0,
                                        "errors": 0})
        entry["calls"] += 1
        entry["wall_s"] += duration[idx]
        entry["self_s"] += duration[idx] - child_time[idx]
        entry["errors"] += spans["failed"][idx]
    return stats
