"""Lead-lag analytics between surveillance indicators and hospital admissions."""

from .config import LatencySpec, RunConfig, WaveSpec, load_config
from .dtw import (
    Alignment,
    AlignmentQuery,
    brute_force_dtw,
    dtw_align,
    dtw_align_batch,
    lead_times_from_path,
)
from .errors import LeadLagError
from .geo import GeoMapping, apply_mapping, build_mapping, weighted_population
from .granger import GrangerBatch, GrangerResult, f_pvalue, granger_test, granger_test_batch
from .pipeline import ReportRow, effective_lead, filter_trusts, run_analysis
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
    "Alignment",
    "AlignmentQuery",
    "GeoMapping",
    "GrangerBatch",
    "GrangerResult",
    "IndicatorSpec",
    "LatencySpec",
    "LeadLagError",
    "Panel",
    "ReportRow",
    "RunConfig",
    "SynthSpec",
    "WaveSpec",
    "apply_groupings",
    "apply_mapping",
    "brute_force_dtw",
    "build_mapping",
    "ccf_at_leads",
    "derive_indicator",
    "dtw_align",
    "dtw_align_batch",
    "effective_lead",
    "emit_reports",
    "f_pvalue",
    "filter_trusts",
    "generate_admissions",
    "granger_test",
    "granger_test_batch",
    "ground_truth",
    "lead_times_from_path",
    "load_config",
    "locf_impute",
    "loess_smooth",
    "minmax_scale",
    "optimal_lead",
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
