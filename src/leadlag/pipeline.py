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
from functools import cached_property

import numpy as np

from .config import LatencySpec, RunConfig, WaveSpec
from .dtw import dtw_align_batch, lead_times_from_path
from .errors import ConfigError, LeadLagError
from .geo import GeoMapping, apply_mapping
from .granger import granger_test_batch
from .timeseries import Panel, loess_smooth, minmax_scale, zscore_scale
from .xcorr import ccf_at_leads, optimal_leads

logger = logging.getLogger(__name__)

DEFAULT_MAPPING = "__default__"
METHODS = ("granger", "ccf", "dtw")


@dataclass(frozen=True)
class ResultTable:
    """One method's results for one (indicator, wave), a row per trust.

    Row k belongs to ``trust_ids[k]``. ``columns`` holds the statistics as
    float arrays, NaN where a cell has none (no statistic the methods
    compute is NaN), and the flags (eroded, degenerate, truncated) as bool
    arrays; a column left out is absent, or false, in every row. ``error``
    is empty for the cells that succeeded.
    """

    trust_ids: tuple[str, ...]
    indicator: str
    wave: str
    method: str  # granger | granger14 | ccf | dtw
    horizon: int | None
    provenance: str
    columns: dict[str, np.ndarray]
    error: list[str]


# a method helper's cells for the rows of a pair: (columns, error), as in ResultTable
_Cells = tuple[dict[str, np.ndarray], list[str]]


def filter_trusts(panel: Panel, config: RunConfig) -> Panel:
    """Drop excluded trusts and those below the admissions threshold.

    The threshold window is configurable; a trust is kept when its total
    within the window is at least ``min_annual_admissions`` (strictly
    "fewer than" are removed).
    """
    start = max(config.admissions_filter_start, panel.start_date)
    end = min(config.admissions_filter_end, panel.end_date)
    if start <= end:
        totals = panel.values[:, panel.day_slice(start, end)].sum(axis=1)
    else:
        totals = np.zeros(len(panel.geo_ids))
    excluded = set(config.trust_exclusions)
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
    return Panel(panel.level, panel.variable, panel.start_date,
                 tuple(panel.geo_ids[i] for i in kept), panel.values[kept])


def effective_lead(lead_days: float | None,
                   latency: LatencySpec | None) -> tuple[float | None, bool]:
    """Operational lead after reporting lag and worst-case release staleness.

    effective = lead - reporting_lag - (release_cadence - 1), floored at 0
    with an eroded flag when the latency consumes the whole lead. The floor
    only applies to non-negative statistical leads; a lagging indicator
    stays negative (effective lead never exceeds the statistical lead).
    """
    if lead_days is None or latency is None:
        return None, False
    eff = float(lead_days) - latency.reporting_lag_days - (latency.release_cadence_days - 1)
    if eff < 0 and lead_days >= 0:
        return 0.0, True
    return eff, False


def effective_leads(lead_days: np.ndarray,
                    latency: LatencySpec | None) -> tuple[np.ndarray, np.ndarray]:
    """``effective_lead`` of every element; a NaN (absent) lead stays NaN."""
    if latency is None:
        return np.full(lead_days.shape, np.nan), np.zeros(lead_days.shape, bool)
    eff = lead_days - latency.reporting_lag_days - (latency.release_cadence_days - 1)
    eroded = (eff < 0) & (lead_days >= 0)
    return np.where(eroded, 0.0, eff), eroded


def _overlap(start: date, end: date, *panels: Panel) -> tuple[date, date] | None:
    start = max([start] + [p.start_date for p in panels])
    end = min([end] + [p.end_date for p in panels])
    return (start, end) if start <= end else None


@dataclass(frozen=True)
class _Pair:
    """An indicator and the admissions of the trusts both panels have.

    Row k of ``x_smooth`` (LOESS output) belongs to admissions row ``rows[k]``;
    ``y_smooth`` holds every smoothed admissions row."""

    ind: Panel
    adm: Panel
    rows: list[int]
    x_smooth: np.ndarray
    y_smooth: np.ndarray

    @cached_property
    def linear(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Min-max scaled x and y over the whole period, and their constant rows."""
        x, x_flat = minmax_scale(self.x_smooth)
        y, y_flat = minmax_scale(self.y_smooth[self.rows])
        return x, y, x_flat | y_flat

    def linear_window(self, wave: WaveSpec) -> tuple[np.ndarray, ...] | None:
        """Scaled x and y over the wave's overlap window, and their constant rows."""
        window = _overlap(wave.start, wave.end, self.ind, self.adm)
        if window is None:
            return None
        x, y, degenerate = self.linear
        return (x[:, self.ind.day_slice(*window)], y[:, self.adm.day_slice(*window)],
                degenerate)


def run_analysis(
    config: RunConfig,
    admissions: Panel,
    indicators: dict[str, Panel],
    mappings: GeoMapping | dict[str, GeoMapping],
    methods: tuple[str, ...] = METHODS,
    dtw_paths: list[tuple] | None = None,
) -> list[ResultTable]:
    """Run the configured methods over every (wave, trust, indicator) cell.

    Returns one table per (indicator, wave) and method, each with a row per
    retained trust (the Granger method yields a table at horizon 0 and one
    at the configured horizon), by indicator name, then wave and method in
    configuration order. Pass a list as ``dtw_paths`` to collect one
    (indicator, wave, scope, days, pairs) record per alignment: ``pairs``
    are its sorted (query, reference) index pairs into ``days``, the
    window's ISO dates. Records arrive per (indicator, wave) in scope order.
    """
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {', '.join(sorted(unknown))}")
    if isinstance(mappings, GeoMapping):
        mappings = {DEFAULT_MAPPING: mappings}

    adm = filter_trusts(admissions, config)
    adm_smooth = _smooth(adm.values, config)
    n = len(adm.geo_ids)

    span, degree = config.loess_span, config.loess_degree
    provenance_linear = f"locf+loess(span={span:g},degree={degree})+minmax"
    provenance_dtw = (f"locf+loess(span={span:g},degree={degree})+zscore(window)"
                      f"+{config.dtw_mode}")

    grid: list[tuple[str, int | None, str]] = []  # (method, horizon, provenance)
    if "granger" in methods:
        grid += [("granger", 0, provenance_linear),
                 ("granger14", config.horizon_days, provenance_linear)]
    if "ccf" in methods:
        grid.append(("ccf", config.horizon_days, provenance_linear))
    if "dtw" in methods:
        grid.append(("dtw", None, provenance_dtw))

    tables: list[ResultTable] = []
    for variable in sorted(indicators):
        ind = indicators[variable]
        try:
            pair = _pair(config, variable, ind, adm, adm_smooth, mappings)
        except LeadLagError as exc:
            logger.warning("indicator %s failed preprocessing and is reported as "
                           "error rows: %s", variable, exc)
            pair = None
            failed = f"preprocessing failed: {exc}"
        latency = config.latencies.get(variable)

        for wave in config.waves:
            truncated = ind.start_date > wave.start or ind.end_date < wave.end
            if truncated:
                logger.warning("indicator %s does not fully cover wave %s",
                               variable, wave.name)
            for method, horizon, provenance in grid:
                if pair is None:
                    columns, error = {}, [failed] * n
                else:
                    if method == "ccf":
                        cells = _ccf_cells(config, pair, wave, latency)
                    elif method == "dtw":
                        cells = _dtw_cells(config, pair, wave, variable, latency, dtw_paths)
                    else:
                        cells = _granger_cells(config, pair, wave, horizon)
                    columns, error = _spread(pair.rows, n, *cells)
                columns["truncated"] = columns.get("truncated", np.zeros(n, bool)) | truncated
                tables.append(ResultTable(adm.geo_ids, variable, wave.name, method,
                                          horizon, provenance, columns, error))

    n_errors = sum(1 for table in tables for text in table.error if text)
    if n_errors:
        logger.warning("%d cell(s) recorded an error instead of statistics", n_errors)
    return tables


def _spread(rows: list[int], n: int, columns: dict[str, np.ndarray],
            error: list[str]) -> _Cells:
    """Place a pair's cells among all ``n`` trusts; the others have no indicator."""
    take = np.full(n, len(rows))
    take[rows] = np.arange(len(rows))
    error = error + ["no indicator series for trust"]
    return ({name: np.append(values, np.nan if values.dtype == float else False)[take]
             for name, values in columns.items()}, [error[i] for i in take.tolist()])


def _pair(config: RunConfig, variable: str, ind: Panel, adm: Panel,
          adm_smooth: np.ndarray, mappings: dict[str, GeoMapping]) -> _Pair:
    """Map an LTLA indicator to trusts and smooth the rows the admissions share."""
    if ind.level == "ltla":
        gm = mappings.get(variable, mappings.get(DEFAULT_MAPPING))
        if gm is None:
            raise LeadLagError(f"no mapping available for LTLA indicator {variable!r}")
        ind = apply_mapping(ind, gm)
    index = {geo: i for i, geo in enumerate(ind.geo_ids)}
    shared = [i for i, trust in enumerate(adm.geo_ids) if trust in index]
    x_smooth = _smooth(ind.values[[index[adm.geo_ids[i]] for i in shared]], config)
    return _Pair(ind, adm, shared, x_smooth, adm_smooth)


def _smooth(values: np.ndarray, config: RunConfig) -> np.ndarray:
    return loess_smooth(values, config.loess_span, config.loess_degree,
                        config.loess_robustness_passes)


def _granger_cells(config: RunConfig, pair: _Pair, wave: WaveSpec,
                   horizon: int) -> _Cells:
    k = len(pair.rows)
    window = pair.linear_window(wave)
    if window is None:
        return {"truncated": np.ones(k, bool)}, ["no coverage in wave"] * k
    x, y, degenerate = window
    try:
        res = granger_test_batch(x, y, config.granger_max_lag, horizon)
    except LeadLagError as exc:
        return {"degenerate": degenerate}, [str(exc)] * k
    # collinear rows read NaN in F and p already
    return ({"f_stat": res.f_stat, "p_value": res.p_value,
             "df_num": np.where(res.collinear, np.nan, res.df_num),
             "df_den": np.where(res.collinear, np.nan, res.df_den),
             "degenerate": degenerate | res.collinear},
            np.where(res.collinear, "collinear design", "").tolist())


def _ccf_cells(config: RunConfig, pair: _Pair, wave: WaveSpec,
               latency: LatencySpec | None) -> _Cells:
    k = len(pair.rows)
    window = pair.linear_window(wave)
    if window is None:
        return {"truncated": np.ones(k, bool)}, ["no coverage in wave"] * k
    x, y, degenerate = window
    leads = np.arange(-config.ccf_window, config.ccf_window + 1)
    try:
        # the profile's leads, then the fixed horizon in the last column
        values = ccf_at_leads(x, y, np.append(leads, config.horizon_days))
    except LeadLagError as exc:
        return {"degenerate": degenerate}, [str(exc)] * k
    # a constant row reads NaN at every lead, so it has no optimal lead either
    zero = np.isnan(values[:, -1])
    lead, at_lead = optimal_leads(leads, values[:, :-1])
    eff, eroded = effective_leads(lead, latency)
    return ({"optimal_lead": lead, "ccf_at_optimal": at_lead,
             "ccf_at_horizon": values[:, -1], "effective_lead": eff, "eroded": eroded,
             "degenerate": degenerate | zero},
            np.where(zero, "zero variance", "").tolist())


def _dtw_cells(config: RunConfig, pair: _Pair, wave: WaveSpec, variable: str,
               latency: LatencySpec | None, dtw_paths: list[tuple] | None) -> _Cells:
    """Align indicator against admissions around one wave.

    The query covers the wave plus a warm-up prefix; the reference gets an
    extra tail of up to one band width so leading matches near the wave end
    are not forced to bunch. Rows are z-scored over the alignment window so
    a wave's alignment depends only on data within its own windows. Warm-up
    leads are excluded from the summary. Multivariate mode aligns all trusts
    jointly, one column each, and shares the result across them.
    """
    k = len(pair.rows)
    if k == 0:
        return {}, []
    warm_start = wave.start - timedelta(days=config.dtw_warmup_days)
    window = _overlap(warm_start, wave.end, pair.ind, pair.adm)
    if window is None:
        return {}, ["no coverage in wave"] * k
    q_start, q_end = window
    ref_end = min(pair.adm.end_date, q_end + timedelta(days=config.dtw_window))
    q_cols = pair.ind.day_slice(q_start, q_end)
    r_cols = pair.adm.day_slice(q_start, ref_end)
    try:
        q, q_flat = zscore_scale(pair.x_smooth[:, q_cols])
        r, r_flat = zscore_scale(pair.y_smooth[pair.rows, r_cols])
    except LeadLagError as exc:
        return {}, [str(exc)] * k
    flat = q_flat | r_flat
    if config.dtw_mode == "univariate":
        scopes = [pair.adm.geo_ids[row] for row in pair.rows]
    else:
        scopes = ["all-trusts"]
        if k > 1:
            # one (day x trust) series in C order, as the Euclidean local cost's
            # rounding depends on it
            q, r, flat = (np.ascontiguousarray(q.T)[None], np.ascontiguousarray(r.T)[None],
                          flat.any(keepdims=True))
    try:
        alignments = dtw_align_batch(q, r, window=config.dtw_window,
                                     open_begin=True, open_end=True)
    except LeadLagError as exc:
        return {}, [str(exc)] * k

    first_reported = (wave.start - q_start).days
    days = [(q_start + timedelta(days=t)).isoformat() for t in range(r.shape[1])]
    median = np.full(len(alignments), np.nan)
    distance = np.full(len(alignments), np.nan)
    error = [""] * len(alignments)
    for b, (scope, alignment) in enumerate(zip(scopes, alignments)):
        if alignment is None:
            error[b] = "no admissible path"
            continue
        reported = [lead for i, lead in lead_times_from_path(alignment)
                    if i >= first_reported]
        if not reported:
            error[b] = "no reported indices after warm-up exclusion"
            continue
        median[b] = np.median(reported)
        distance[b] = alignment.normalized
        if dtw_paths is not None:
            dtw_paths.append((variable, wave.name, scope, days, alignment.pairs))
    eff, eroded = effective_leads(median, latency)
    columns = {"dtw_median_lead": median, "dtw_normalized_distance": distance,
               "effective_lead": eff, "eroded": eroded,
               "degenerate": flat & ~np.isnan(median)}
    if config.dtw_mode == "univariate":
        return columns, error
    return {name: np.repeat(values, k) for name, values in columns.items()}, error * k
