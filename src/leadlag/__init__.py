"""Lead-lag analytics between surveillance indicators and hospital admissions."""

import os

# Before numpy loads: every matrix here is small, and an idle OpenBLAS worker slows each stage.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import LatencySpec, RunConfig, WaveSpec, load_config
from .dtw import dtw_align_batch, path_pairs
from .errors import LeadLagError
from .geo import GeoMapping, apply_mapping, build_mapping, weighted_population
from .granger import GrangerBatch, granger_test_batch
from .pipeline import ResultTable, effective_lead, filter_trusts, run_analysis
from .ingest import (
    apply_groupings,
    read_admissions,
    read_groupings,
    read_indicator_dir,
    read_indicator_file,
    read_mapping,
    read_population,
)
from .reports import emit_reports, summarize
from .synth import IndicatorSpec, SynthSpec, derive_indicator, generate_admissions, ground_truth
from .timeseries import Panel, locf_impute, loess_smooth, minmax_scale, zscore_scale
from .xcorr import ccf_at_leads, optimal_lead

__all__ = [
    "GeoMapping",
    "GrangerBatch",
    "IndicatorSpec",
    "LatencySpec",
    "LeadLagError",
    "Panel",
    "ResultTable",
    "RunConfig",
    "SynthSpec",
    "WaveSpec",
    "apply_groupings",
    "apply_mapping",
    "build_mapping",
    "ccf_at_leads",
    "derive_indicator",
    "dtw_align_batch",
    "effective_lead",
    "emit_reports",
    "filter_trusts",
    "generate_admissions",
    "granger_test_batch",
    "ground_truth",
    "load_config",
    "locf_impute",
    "loess_smooth",
    "minmax_scale",
    "optimal_lead",
    "path_pairs",
    "read_admissions",
    "read_groupings",
    "read_indicator_dir",
    "read_indicator_file",
    "read_mapping",
    "read_population",
    "run_analysis",
    "summarize",
    "weighted_population",
    "zscore_scale",
]

__version__ = "0.1.0"
