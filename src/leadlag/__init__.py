"""Lead-lag analytics between surveillance indicators and hospital admissions."""

from .config import LatencySpec, RunConfig, WaveSpec, load_config
from .dtw import (
    Alignment,
    AlignmentQuery,
    brute_force_dtw,
    dtw_align,
    lead_times_from_path,
    local_distance,
)
from .errors import LeadLagError
from .geo import GeoMapping, apply_mapping, build_mapping, weighted_population
from .granger import GrangerResult, OlsFit, f_pvalue, f_statistic, granger_test, ols_fit
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
    "GrangerResult",
    "IndicatorSpec",
    "LatencySpec",
    "LeadLagError",
    "OlsFit",
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
    "effective_lead",
    "emit_reports",
    "f_pvalue",
    "f_statistic",
    "filter_trusts",
    "generate_admissions",
    "granger_test",
    "ground_truth",
    "lead_times_from_path",
    "load_config",
    "local_distance",
    "locf_impute",
    "loess_smooth",
    "minmax_scale",
    "ols_fit",
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
