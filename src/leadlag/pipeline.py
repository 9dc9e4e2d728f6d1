"""Orchestration: trust filtering, preprocessing, and the method grid.

``run_analysis`` fills every (wave, trust, indicator) cell. Each (trust x
day) panel is preprocessed once (LOCF at ingest, LOESS smoothing, per-trust
min-max scaling over the whole study period), and then the methods run once
per (indicator, wave): the overlap window is one column slice, the
cross-correlation profile, the Granger tests (one batch at horizon zero and
one at the configured horizon) and the dynamic time warping (one alignment
per trust, or one joint alignment) each cover every trust in one call.
Cells that cannot be computed yield rows carrying flags and an error note
rather than failing the run; so does every cell of an indicator whose
mapping or smoothing fails.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .config import LatencySpec, RunConfig, WaveSpec
from .dtw import dtw_align_batch
from .errors import ConfigError, LeadLagError
from .geo import GeoMapping, apply_mapping
from .granger import granger_test_batch
from .timeseries import Panel, loess_smooth, minmax_scale, overlap, row_median, zscore_scale
from .xcorr import ccf_at_leads, optimal_leads

logger = logging.getLogger(__name__)

METHODS = ("granger", "ccf", "dtw")


@dataclass(frozen=True)
class ResultTable:
    """One method's results for one (indicator, wave), a row per trust.

    Row k belongs to ``trust_ids[k]``. ``columns`` holds the statistics as
    float arrays, NaN where a cell has none (no statistic the methods
    compute is NaN), the flags (eroded, degenerate, truncated) as bool
    arrays, and ``error`` as a text array, empty for the cells that
    succeeded; a column left out is absent, or false, in every row.
    """

    trust_ids: tuple[str, ...]
    indicator: str
    wave: str
    method: str  # granger | granger14 | ccf | dtw
    horizon: int | None
    provenance: str
    columns: dict[str, np.ndarray]


def filter_trusts(panel: Panel, config: RunConfig) -> Panel:
    """Drop excluded trusts and those below the admissions threshold.

    The threshold window is configurable; a trust is kept when its total
    within the window is at least ``min_annual_admissions`` (strictly
    "fewer than" are removed). An excluded id that names no trust is logged.
    """
    window = overlap(config.admissions_filter_start, config.admissions_filter_end, panel)
    totals = (np.zeros(len(panel.geo_ids)) if window is None
              else panel.values[:, panel.day_slice(*window)].sum(axis=1))
    excluded = set(config.trust_exclusions)
    unknown = sorted(excluded - set(panel.geo_ids))
    if unknown:
        logger.warning("config trust_exclusions names no admissions trust: %s", ", ".join(unknown))
    kept: list[int] = []
    removed: list[str] = []
    for i, (trust, total) in enumerate(zip(panel.geo_ids, totals)):
        if trust in excluded:
            removed.append(f"{trust} (excluded)")
        elif total < config.min_annual_admissions:
            removed.append(f"{trust} (total {total:g} in filter window)")
        else:
            kept.append(i)
    if removed:
        logger.warning("filter_trusts removed %d trust(s): %s",
                       len(removed), "; ".join(sorted(removed)))
    if not kept:
        raise LeadLagError("no trusts retained after filtering")
    return Panel(panel.start_date, tuple(panel.geo_ids[i] for i in kept), panel.values[kept])


def effective_leads(lead_days: np.ndarray,
                    latency: LatencySpec | None) -> tuple[np.ndarray, np.ndarray]:
    """Each lead minus reporting lag and worst-case release staleness
    (release_cadence - 1), floored at 0 and flagged eroded where that consumes
    a non-negative lead; a lagging indicator stays negative. A NaN (absent)
    lead stays NaN, and without a latency every lead is NaN."""
    if latency is None:
        return np.full(lead_days.shape, np.nan), np.zeros(lead_days.shape, bool)
    eff = lead_days - latency.reporting_lag_days - (latency.release_cadence_days - 1)
    eroded = (eff < 0) & (lead_days >= 0)
    return np.where(eroded, 0.0, eff), eroded


def check_methods(methods: tuple[str, ...]) -> None:
    """Raise ``ConfigError`` unless ``methods`` names one or more of ``METHODS``."""
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {', '.join(sorted(unknown))}")
    if not methods:
        raise ConfigError(f"no methods to run: --methods needs one of {','.join(METHODS)}")


def run_analysis(
    config: RunConfig,
    admissions: Panel,
    indicators: dict[str, Panel],
    mapping: GeoMapping | None,
    overrides: dict[str, GeoMapping] | None = None,
    methods: tuple[str, ...] = METHODS,
    dtw_paths: list[tuple] | None = None,
) -> list[ResultTable]:
    """Run the configured methods over every (wave, trust, indicator) cell.

    Returns one table per (indicator, wave) and method, each with a row per
    retained trust (the Granger method yields a table at horizon 0 and one
    at the configured horizon), by indicator name, then wave and method in
    configuration order. Pass a list as ``dtw_paths`` to collect one
    (indicator, wave, scopes, days, match) record per DTW batch: ``scopes``
    names the alignments that have a median lead (a Trust id each, or
    ``all-trusts`` for the joint alignment), and ``match`` holds their
    (len(scopes), n, 2) rows of ``dtw_align_batch``'s lowest and highest
    matched reference index per query index, indices into ``days``, the
    window's ISO dates. A batch with no such alignment adds no record. Each
    indicator is mapped from LTLAs to trusts with ``overrides[variable]``
    where given, else with ``mapping``; where that is None, the indicator is
    at trust level already.
    """
    check_methods(methods)
    adm = filter_trusts(admissions, config)
    adm_smooth = _smooth(adm.values, config)
    n = len(adm.geo_ids)

    passes = config.loess_robustness_passes
    loess = (f"locf+loess(span={config.loess_span:g},degree={config.loess_degree}"
             + (f",passes={passes})" if passes > 0 else ")"))
    provenance_linear = f"{loess}+minmax"
    provenance_dtw = f"{loess}+zscore(window)+{config.dtw_mode}"

    # (method, horizon, provenance, the lead column latency erodes) of each
    # table of an (indicator, wave)
    grid = []
    if "granger" in methods:
        grid += [("granger", 0, provenance_linear, None),
                 ("granger14", config.horizon_days, provenance_linear, None)]
    if "ccf" in methods:
        grid.append(("ccf", config.horizon_days, provenance_linear, "optimal_lead"))
    if "dtw" in methods:
        grid.append(("dtw", None, provenance_dtw, "dtw_median_lead"))

    tables: list[ResultTable] = []
    for variable in sorted(indicators):
        ind = indicators[variable]
        try:
            (rows, x, y), failed = _pair(config, variable, ind, adm, adm_smooth,
                                         (overrides or {}).get(variable, mapping)), None
        except LeadLagError as exc:
            logger.warning("indicator %s failed preprocessing and is reported as "
                           "error rows: %s", variable, exc)
            # a failure fills every Trust's row
            rows, x, y, failed = list(range(n)), None, None, f"preprocessing failed: {exc}"
        linear = None  # the min-max scaled (x, y), made by the first linear method
        latency = config.latencies.get(variable)

        for wave in config.waves:
            # the days of the wave that both the indicator and the admissions cover:
            # every row of every method is truncated where they are not the whole wave,
            # and no method runs where they share no day of it or no Trust
            window = overlap(wave.start, wave.end, ind, adm)
            truncated = window != (wave.start, wave.end)
            if truncated:
                logger.warning("indicator %s and admissions cover wave %s %s", variable, wave.name,
                               f"only from {window[0]} to {window[1]}" if window else "on no day")
            for method, horizon, provenance, lead in grid:
                # a failed indicator, no coverage and a kernel error keep no column
                # but the error, not even a flag
                try:
                    if failed or window is None or x is None:
                        raise LeadLagError(failed or "no coverage in wave")
                    if method == "dtw":
                        cells = _dtw_cells(config, x, y, wave, window, variable, dtw_paths)
                    else:
                        linear = linear or tuple(Panel(p.start_date, p.geo_ids,
                                                       minmax_scale(p.values)) for p in (x, y))
                        cells = _linear_cells(config, *linear, window, method, horizon)
                except LeadLagError as exc:
                    cells = {"error": np.full(len(rows), str(exc))}
                columns = _spread(rows, n, cells)
                if lead in columns:
                    columns["effective_lead"], columns["eroded"] = effective_leads(
                        columns[lead], latency)
                columns["truncated"] = np.full(n, truncated)
                tables.append(ResultTable(adm.geo_ids, variable, wave.name, method,
                                          horizon, provenance, columns))

    n_errors = sum(np.count_nonzero(table.columns["error"]) for table in tables)
    if n_errors:
        logger.warning("%d cell(s) recorded an error instead of statistics", n_errors)
    return tables


# a trust without the indicator, by column dtype kind: no statistic, no flag, and why
_NO_SERIES = {"f": np.nan, "b": False, "U": "no indicator series for trust"}


def _spread(rows: list[int], n: int, columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Place a pair's cells among all ``n`` trusts; the others have no indicator."""
    take = np.full(n, len(rows))
    take[rows] = np.arange(len(rows))
    return {name: np.append(values, _NO_SERIES[values.dtype.kind])[take]
            for name, values in columns.items()}


def _pair(config: RunConfig, variable: str, ind: Panel, adm: Panel, adm_smooth: np.ndarray,
          mapping: GeoMapping | None) -> tuple[list[int], Panel | None, Panel | None]:
    """Map an LTLA indicator to trusts (unless ``mapping`` is None, for a trust
    indicator) and smooth it: the admissions rows of the trusts it shares, then
    its and their smoothed panels of those trusts, both None where it shares none."""
    if mapping is not None:
        absent = sorted(set(mapping.ltla_ids) - set(ind.geo_ids))
        ind = apply_mapping(ind, mapping)
        if absent:  # they contribute zero
            logger.warning("variable %s missing %d mapping LTLA(s): %s",
                           variable, len(absent), ", ".join(absent))
    index = {geo: i for i, geo in enumerate(ind.geo_ids)}
    shared = [i for i, trust in enumerate(adm.geo_ids) if trust in index]
    trusts = tuple(adm.geo_ids[i] for i in shared)
    # smoothed also where no trust is shared, so that a series LOESS refuses
    # fails preprocessing either way
    x_smooth = _smooth(ind.values[[index[trust] for trust in trusts]], config)
    if not shared:
        return shared, None, None
    return (shared, Panel(ind.start_date, trusts, x_smooth),
            Panel(adm.start_date, trusts, adm_smooth[shared]))


def _smooth(values: np.ndarray, config: RunConfig) -> np.ndarray:
    return loess_smooth(values, config.loess_span, config.loess_degree,
                        config.loess_robustness_passes)


def _linear_cells(config: RunConfig, x: Panel, y: Panel, window: tuple[date, date],
                  method: str, horizon: int) -> dict[str, np.ndarray]:
    """Cells of one method over the wave's overlap ``window`` of the min-max
    scaled panels ``x`` and ``y``."""
    x, y = (p.values[:, p.day_slice(*window)] for p in (x, y))
    return (_ccf_cells(config, x, y, horizon) if method == "ccf"
            else _granger_cells(config, x, y, horizon))


def _granger_cells(config: RunConfig, x: np.ndarray, y: np.ndarray,
                   horizon: int) -> dict[str, np.ndarray]:
    res = granger_test_batch(x, y, config.granger_max_lag, horizon)
    # collinear rows read NaN in F and p already
    return {"f_stat": res.f_stat, "p_value": res.p_value,
            "df_num": np.where(res.collinear, np.nan, res.df_num),
            "df_den": np.where(res.collinear, np.nan, res.df_den),
            "degenerate": res.collinear,
            "error": np.where(res.collinear, "collinear design", "")}


def _ccf_cells(config: RunConfig, x: np.ndarray, y: np.ndarray,
               horizon: int) -> dict[str, np.ndarray]:
    leads = np.arange(-config.ccf_window, config.ccf_window + 1)
    # the profile's leads, then the fixed horizon in the last column
    values = ccf_at_leads(x, y, np.append(leads, horizon))
    # a constant row reads NaN at every lead, so it has no optimal lead either
    zero = np.isnan(values[:, -1])
    lead, at_lead = optimal_leads(leads, values[:, :-1])
    return {"optimal_lead": lead, "ccf_at_optimal": at_lead,
            "ccf_at_horizon": values[:, -1], "degenerate": zero,
            "error": np.where(zero, "zero variance", "")}


def _dtw_cells(config: RunConfig, x: Panel, y: Panel, wave: WaveSpec, window: tuple[date, date],
               variable: str, dtw_paths: list[tuple] | None) -> dict[str, np.ndarray]:
    """Align indicator against admissions around one wave.

    The query is the wave's covered days, ``window``, after up to
    ``dtw_warmup_days`` of warm-up that both series cover; the reference gets
    an extra tail of up to one band width so leading matches near the wave
    end are not forced to bunch. Rows are z-scored over the alignment window
    so a wave's alignment depends only on data within its own windows.
    Warm-up leads are excluded from the summary. Multivariate mode aligns all
    trusts jointly, one column each, and shares the result across them. A
    row whose z-scored query or reference has max = min over the window's
    days, as CCF tests (jointly: every column of either), reads ``zero
    variance`` with no lead, distance or ``dtw_paths`` scope; a joint series
    with some such columns keeps its alignment. Either is flagged degenerate.
    """
    q_start = overlap(window[0] - timedelta(days=config.dtw_warmup_days), window[1], x, y)[0]
    univariate = config.dtw_mode == "univariate"
    scopes = y.geo_ids if univariate else ["all-trusts"]
    q = zscore_scale(x.values[:, x.day_slice(q_start, window[1])])
    r = zscore_scale(y.values[:, y.day_slice(
        q_start, window[1] + timedelta(days=config.dtw_window))])
    # warm-up leads are not reported; the window's days are query columns [first:n]
    n, first = q.shape[1], (window[0] - q_start).days
    q_flat, r_flat = (v.max(axis=1) == v.min(axis=1) for v in (q[:, first:], r[:, first:n]))
    flat = zero = q_flat | r_flat
    if not univariate:
        flat, zero = flat.any(keepdims=True), q_flat.all(keepdims=True) | r_flat.all(keepdims=True)
        # one (day x trust) series in C order, as the Euclidean local cost's
        # rounding depends on it
        q, r = np.ascontiguousarray(q.T)[None], np.ascontiguousarray(r.T)[None]
    cost, match = dtw_align_batch(q, r, window=config.dtw_window)

    found = (cost < np.inf) & ~zero
    # a query index's lead is its mean matched reference index (the median
    # of its one or two) minus the index
    median = np.full(len(cost), np.nan)
    median[found] = row_median(match[found, first:].mean(axis=2) - np.arange(first, n))
    distance = np.where(found, cost / n, np.nan)  # normalized by the query length
    if dtw_paths is not None and found.any():
        days = [(q_start + timedelta(days=t)).isoformat() for t in range(r.shape[1])]
        dtw_paths.append((variable, wave.name,
                          [scope for scope, keep in zip(scopes, found.tolist()) if keep],
                          days, match[found]))
    columns = {"dtw_median_lead": median, "dtw_normalized_distance": distance,
               "degenerate": flat,
               "error": np.where(zero, "zero variance", np.where(found, "", "no admissible path"))}
    if univariate:
        return columns
    return {name: np.repeat(values, len(y.geo_ids)) for name, values in columns.items()}
