"""Lead-lag analytics between surveillance indicators and hospital admissions."""

import os

# Before numpy loads: every matrix here is small, and an idle OpenBLAS worker slows each stage.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dtw import dtw_align_batch, path_pairs
from .geo import GeoMapping, apply_mapping, build_mapping
from .granger import granger_test_batch
from .ingest import read_indicator_dir
from .pipeline import ResultTable, run_analysis
from .reports import emit_reports, summarize
from .timeseries import Panel, loess_smooth, minmax_scale, zscore_scale
from .xcorr import ccf_at_leads

__all__ = [
    "GeoMapping",
    "Panel",
    "ResultTable",
    "apply_mapping",
    "build_mapping",
    "ccf_at_leads",
    "dtw_align_batch",
    "emit_reports",
    "granger_test_batch",
    "loess_smooth",
    "minmax_scale",
    "path_pairs",
    "read_indicator_dir",
    "run_analysis",
    "summarize",
    "zscore_scale",
]

__version__ = "0.1.0"
