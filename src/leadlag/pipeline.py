"""Orchestration: trust filtering, preprocessing, and the method grid.

``run_analysis`` fills every (wave, trust, indicator) cell. Each (trust x
day) panel is preprocessed once (LOCF at ingest, LOESS smoothing, per-trust
min-max scaling over the whole study period), and then the methods run once
per (indicator, wave): the overlap window is one column slice, the
cross-correlation profile covers every trust in one call, and the Granger
tests (at horizon zero and at the configured horizon) and univariate
dynamic time warping loop over the rows of that slice. Cells that cannot be
computed yield rows carrying flags and an error note rather than failing
the run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property

import numpy as np

from .config import LatencySpec, RunConfig, WaveSpec
from .dtw import AlignmentQuery, dtw_align, lead_times_from_path
from .errors import CollinearDesignError, ConfigError, LeadLagError
from .geo import GeoMapping, apply_mapping
from .granger import granger_test
from .timeseries import Panel, loess_smooth, minmax_scale, zscore_scale
from .xcorr import ccf_at_leads, optimal_lead

logger = logging.getLogger(__name__)

DEFAULT_MAPPING = "__default__"
METHODS = ("granger", "ccf", "dtw")


@dataclass(frozen=True)
class ReportRow:
    """One method result for one (trust, indicator, wave) cell."""

    trust_id: str
    indicator: str
    wave: str
    method: str  # granger | granger14 | ccf | dtw
    horizon: int | None = None
    f_stat: float | None = None
    p_value: float | None = None
    df_num: int | None = None
    df_den: int | None = None
    optimal_lead: int | None = None
    ccf_at_optimal: float | None = None
    ccf_at_horizon: float | None = None
    dtw_median_lead: float | None = None
    dtw_normalized_distance: float | None = None
    effective_lead: float | None = None
    eroded: bool = False
    degenerate: bool = False
    truncated: bool = False
    provenance: str = ""
    error: str = ""

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.trust_id, self.indicator, self.wave, self.method)


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
) -> list[ReportRow]:
    """Run the configured methods over every (wave, trust, indicator) cell.

    Returns one row per cell and method (the Granger method yields a row at
    horizon 0 and one at the configured horizon). Rows are sorted by
    (trust, indicator, wave, method) so output is deterministic. Pass a list
    as ``dtw_paths`` to collect the matched warping pairs as
    (indicator, wave, scope, query_date, ref_date) records.
    """
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {', '.join(sorted(unknown))}")
    if isinstance(mappings, GeoMapping):
        mappings = {DEFAULT_MAPPING: mappings}

    adm = filter_trusts(admissions, config)
    adm_smooth = _smooth(adm.values, config)

    span, degree = config.loess_span, config.loess_degree
    provenance_linear = f"locf+loess(span={span:g},degree={degree})+minmax"
    provenance_dtw = (f"locf+loess(span={span:g},degree={degree})+zscore(window)"
                      f"+{config.dtw_mode}")

    rows: list[ReportRow] = []
    for variable in sorted(indicators):
        ind = indicators[variable]
        if ind.level == "ltla":
            gm = mappings.get(variable, mappings.get(DEFAULT_MAPPING))
            if gm is None:
                raise LeadLagError(f"no mapping available for LTLA indicator {variable!r}")
            ind = apply_mapping(ind, gm)
        index = {geo: i for i, geo in enumerate(ind.geo_ids)}
        shared = [i for i, trust in enumerate(adm.geo_ids) if trust in index]
        x_smooth = _smooth(ind.values[[index[adm.geo_ids[i]] for i in shared]], config)
        pair = _Pair(ind, adm, shared, x_smooth, adm_smooth)
        latency = config.latencies.get(variable)

        for wave in config.waves:
            truncated = ind.start_date > wave.start or ind.end_date < wave.end
            if truncated:
                logger.warning("indicator %s does not fully cover wave %s",
                               variable, wave.name)
            results: list[tuple[str, int | None, str, list[dict]]] = []
            if "granger" in methods:
                for method, horizon in (("granger", 0), ("granger14", config.horizon_days)):
                    results.append((method, horizon, provenance_linear,
                                    _granger_cells(config, pair, wave, horizon)))
            if "ccf" in methods:
                results.append(("ccf", config.horizon_days, provenance_linear,
                                _ccf_cells(config, pair, wave, latency)))
            if "dtw" in methods:
                results.append(("dtw", None, provenance_dtw,
                                _dtw_cells(config, pair, wave, variable, latency, dtw_paths)))

            for method, horizon, provenance, cells in results:
                found = iter(cells)
                for trust in adm.geo_ids:
                    cell = next(found) if trust in index else {
                        "error": "no indicator series for trust"}
                    rows.append(ReportRow(trust, variable, wave.name, method,
                                          horizon=horizon, provenance=provenance,
                                          **{"truncated": truncated, **cell}))

    n_errors = sum(1 for row in rows if row.error)
    if n_errors:
        logger.warning("%d cell(s) recorded an error instead of statistics", n_errors)
    rows.sort(key=ReportRow.sort_key)
    return rows


def _smooth(values: np.ndarray, config: RunConfig) -> np.ndarray:
    return loess_smooth(values, config.loess_span, config.loess_degree,
                        config.loess_robustness_passes)


def _granger_cells(config: RunConfig, pair: _Pair, wave: WaveSpec,
                   horizon: int) -> list[dict]:
    window = pair.linear_window(wave)
    if window is None:
        return [{"truncated": True, "error": "no coverage in wave"}] * len(pair.rows)
    cells = []
    for x, y, flat in zip(*window):
        try:
            res = granger_test(x, y, config.granger_max_lag, horizon)
        except LeadLagError as exc:
            cells.append({"degenerate": bool(flat) or isinstance(exc, CollinearDesignError),
                          "error": str(exc)})
            continue
        cells.append({"f_stat": res.f_stat, "p_value": res.p_value, "df_num": res.df_num,
                      "df_den": res.df_den, "degenerate": bool(flat)})
    return cells


def _ccf_cells(config: RunConfig, pair: _Pair, wave: WaveSpec,
               latency: LatencySpec | None) -> list[dict]:
    window = pair.linear_window(wave)
    if window is None:
        return [{"truncated": True, "error": "no coverage in wave"}] * len(pair.rows)
    x, y, degenerate = window
    leads = np.arange(-config.ccf_window, config.ccf_window + 1)
    try:
        # the profile's leads, then the fixed horizon in the last column
        values = ccf_at_leads(x, y, np.append(leads, config.horizon_days))
    except LeadLagError as exc:
        return [{"degenerate": bool(flat), "error": str(exc)} for flat in degenerate]
    cells = []
    for profile, flat in zip(values, degenerate):
        if np.isnan(profile[-1]):
            cells.append({"degenerate": True, "error": "zero variance"})
            continue
        best = optimal_lead(leads, profile[:-1])
        lead, at_lead = best if best is not None else (None, None)
        eff, eroded = effective_lead(lead, latency)
        cells.append({"optimal_lead": lead, "ccf_at_optimal": at_lead,
                      "ccf_at_horizon": float(profile[-1]), "effective_lead": eff,
                      "eroded": eroded, "degenerate": bool(flat)})
    return cells


def _dtw_cells(config: RunConfig, pair: _Pair, wave: WaveSpec, variable: str,
               latency: LatencySpec | None, dtw_paths: list[tuple] | None) -> list[dict]:
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
        return []
    warm_start = wave.start - timedelta(days=config.dtw_warmup_days)
    window = _overlap(warm_start, wave.end, pair.ind, pair.adm)
    if window is None:
        return [{"error": "no coverage in wave"}] * k
    q_start, q_end = window
    ref_end = min(pair.adm.end_date, q_end + timedelta(days=config.dtw_window))
    q_cols = pair.ind.day_slice(q_start, q_end)
    r_cols = pair.adm.day_slice(q_start, ref_end)
    try:
        q, q_flat = zscore_scale(pair.x_smooth[:, q_cols])
        r, r_flat = zscore_scale(pair.y_smooth[pair.rows, r_cols])
    except LeadLagError as exc:
        return [{"error": str(exc)}] * k
    flat = q_flat | r_flat
    if config.dtw_mode == "univariate":
        jobs = [(pair.adm.geo_ids[row], q[i], r[i], flat[i])
                for i, row in enumerate(pair.rows)]
    elif k == 1:
        jobs = [("all-trusts", q[0], r[0], flat[0])]
    else:
        # (day x trust) in C order, as the Euclidean local cost's rounding depends on it
        jobs = [("all-trusts", np.ascontiguousarray(q.T), np.ascontiguousarray(r.T),
                 flat.any())]

    first_reported = (wave.start - q_start).days
    cells = []
    for scope, query, reference, degenerate in jobs:
        try:
            alignment = dtw_align(AlignmentQuery(query, reference, window=config.dtw_window,
                                                 open_begin=True, open_end=True))
            leads = lead_times_from_path(alignment)
        except LeadLagError as exc:
            cells.append({"error": str(exc)})
            continue
        reported = [lead for i, lead in leads if i >= first_reported]
        if not reported:
            cells.append({"error": "no reported indices after warm-up exclusion"})
            continue
        median = float(np.median(reported))
        eff, eroded = effective_lead(median, latency)
        cells.append({"dtw_median_lead": median,
                      "dtw_normalized_distance": alignment.normalized,
                      "effective_lead": eff, "eroded": eroded,
                      "degenerate": bool(degenerate)})
        if dtw_paths is not None:
            dtw_paths.extend((variable, wave.name, scope,
                              q_start + timedelta(days=i), q_start + timedelta(days=j))
                             for i, j in alignment.pairs)
    return cells if config.dtw_mode == "univariate" else cells * k
