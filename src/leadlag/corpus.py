"""Emit synthetic corpora in the pipeline's CSV schemas.

Used by the ``leadlag synth`` subcommand and the end-to-end tests: a full
set of input files (admissions, per-indicator LTLA CSVs, mapping,
populations, run config) with known injected leads.
"""

from __future__ import annotations

from datetime import timedelta
from pathlib import Path

import yaml

from .errors import ConfigError
from .synth import START_DATE, IndicatorSpec, SynthSpec, generate_admissions, generate_indicators

_LEAD_CYCLE = (5, 10, 14, 20, 7, 12)
_LATENCY_CYCLE = (
    {"reporting_lag_days": 1, "release_cadence": "daily"},
    {"reporting_lag_days": 2, "release_cadence": "daily"},
    {"reporting_lag_days": 1, "release_cadence": "weekly"},
    {"reporting_lag_days": 3, "release_cadence": "weekly"},
)
_NOISE_SD = 0.05  # every indicator's noise, relative to each trust's peak


def _wave_layout(n_days: int, n_waves: int) -> tuple[list[float], list[tuple[int, int]]]:
    peaks = [(k + 1) * n_days / (n_waves + 1) for k in range(n_waves)]
    spacing = n_days / (n_waves + 1)
    half = int(min(45, spacing / 2 - 10))
    if half < 25:
        raise ConfigError(f"{n_days} days is too short for {n_waves} waves")
    windows = [
        (max(int(p) - half, 0), min(int(p) + half, n_days - 1)) for p in peaks
    ]
    return peaks, windows


def build_spec(n_trusts: int, n_days: int, n_indicators: int, n_waves: int,
               seed: int) -> SynthSpec:
    peaks, _ = _wave_layout(n_days, n_waves)
    indicators = tuple(
        (f"ind{k:02d}", IndicatorSpec(
            lead=_LEAD_CYCLE[k % len(_LEAD_CYCLE)],
            noise_sd=_NOISE_SD,
            decay_rate=0.004 if k % 5 == 4 else 0.0,
        ))
        for k in range(n_indicators)
    )
    amplitudes = tuple(60.0 + (7 * i) % 80 for i in range(n_trusts))
    return SynthSpec(
        n_trusts=n_trusts,
        n_days=n_days,
        peak_day=peaks[0],
        rise_width=6.0,
        fall_width=10.0,
        amplitude=amplitudes,
        extra_peaks=tuple(p - peaks[0] for p in peaks[1:]),
        indicators=indicators,
        seed=seed,
    )


def write_corpus(out_dir: str | Path, n_trusts: int = 121, n_days: int = 333,
                 n_indicators: int = 20, n_waves: int = 3, seed: int = 0) -> dict[str, Path]:
    """Write a complete synthetic input set, row by row; returns the paths written.

    The sizes, the seed and the wave layout are checked before anything is
    written, and so is ``indicators/``: a CSV there that this corpus would not
    write is refused, as a run would read it too.
    """
    for name, value in (("trusts", n_trusts), ("indicators", n_indicators), ("waves", n_waves)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    spec = build_spec(n_trusts, n_days, n_indicators, n_waves, seed)
    start = START_DATE
    out = Path(out_dir)
    # a run reads every CSV there, so one left by a larger corpus would join it
    names = {f"{name}.csv" for name, _ in spec.indicators}
    stale = sorted(p.name for p in (out / "indicators").glob("*.csv") if p.name not in names)
    if stale:
        raise ConfigError(f"{out / 'indicators'} holds indicator files this corpus would "
                          f"not write: {', '.join(stale)}")
    (out / "indicators").mkdir(parents=True, exist_ok=True)
    admissions = generate_admissions(spec)
    trusts = spec.trust_ids()
    ltlas = ["L" + trust[1:] for trust in trusts]
    date_text = [str(start + timedelta(days=i)) for i in range(n_days)]

    paths: dict[str, Path] = {}

    def write(path: Path, header: str, rows) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(row + "\n" for row in rows)
        paths[path.stem] = path

    write(out / "admissions.csv", "trust_id,date,admissions", (
        f"{trust},{date_text[i]},{int(round(values[i]))}"
        for trust, values in zip(trusts, admissions.values) for i in range(n_days)))
    for name, panel in generate_indicators(spec, admissions).items():
        offset = (panel.start_date - start).days
        write(out / "indicators" / f"{name}.csv", "geo_id,date,variable,value", (
            f"{ltla},{date_text[offset + t]},{name},{values[t]:.6g}"
            for ltla, values in zip(ltlas, panel.values) for t in range(values.size)))
    write(out / "mapping.csv", "ltla_id,trust_id,admissions", (
        f"{ltla},{trust},{count}" for i, ltla in enumerate(ltlas)
        for trust, count in ((trusts[i], 70), (trusts[(i + 1) % n_trusts], 30))))
    write(out / "population.csv", "ltla_id,population",
          (f"{ltla},{100000 + 1000 * i}" for i, ltla in enumerate(ltlas)))

    _, windows = _wave_layout(n_days, n_waves)
    config = {
        "waves": [
            {"name": f"wave{k + 1}",
             "start": start + timedelta(days=lo),
             "end": start + timedelta(days=hi)}
            for k, (lo, hi) in enumerate(windows)
        ],
        "horizon_days": 14,
        "granger_max_lag": 3,
        "ccf_window": 30,
        "dtw_window": 35,
        "dtw_warmup_days": 14,
        "loess_span": 0.08,
        "min_annual_admissions": 10,
        "admissions_filter_start": start,
        "admissions_filter_end": start + timedelta(days=n_days - 1),
        "latency": {
            name: dict(_LATENCY_CYCLE[k % len(_LATENCY_CYCLE)])
            for k, (name, _) in enumerate(spec.indicators)
        },
    }
    paths["config"] = out / "config.yaml"
    paths["config"].write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return paths
