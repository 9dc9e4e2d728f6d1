"""Synthetic epidemic-like panels with known injected lead structure.

The generator builds smooth admission waves per trust and derives
indicators that run a fixed number of days ahead of them, optionally with
additive noise and a multiplicative usership-decay trend. Because the
injected lead is known exactly, these fixtures act as the recovery oracle
for the statistical methods and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import LeadLagError
from .timeseries import Panel

MAX_LEAD = 35


@dataclass(frozen=True)
class IndicatorSpec:
    """One synthetic indicator: injected lead, noise level, usership decay.

    ``noise_sd`` is relative to the per-trust peak (i.e. on the 0-1 scaled
    signal); ``decay_rate`` is a per-day exponential decay of usership.
    """

    lead: int
    noise_sd: float = 0.0
    decay_rate: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.lead) > MAX_LEAD:
            raise LeadLagError(f"injected lead {self.lead} outside +/-{MAX_LEAD}")
        if self.noise_sd < 0:
            raise LeadLagError("noise_sd must be >= 0")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic corpus; scalars broadcast across trusts."""

    n_trusts: int = 3
    n_days: int = 200
    peak_day: float | tuple[float, ...] = 90.0
    rise_width: float | tuple[float, ...] = 12.0
    fall_width: float | tuple[float, ...] = 22.0
    amplitude: float | tuple[float, ...] = 100.0
    extra_peaks: tuple[float, ...] = ()  # offsets of further waves, days after peak_day
    indicators: tuple[tuple[str, IndicatorSpec], ...] = ()
    seed: int = 0
    start_date: date = date(2021, 10, 1)

    def per_trust(self, value: float | tuple[float, ...]) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            return np.full(self.n_trusts, float(arr))
        if arr.size != self.n_trusts:
            raise LeadLagError(
                f"per-trust parameter has {arr.size} entries for {self.n_trusts} trusts"
            )
        return arr

    def trust_ids(self) -> list[str]:
        return [f"T{i:03d}" for i in range(self.n_trusts)]


def _bump(t: np.ndarray, peak: float, rise: float, fall: float) -> np.ndarray:
    # asymmetric smooth bump: fast rise, slow decline
    sd = np.where(t < peak, rise, fall)
    return np.exp(-((t - peak) ** 2) / (2.0 * sd**2))


def generate_admissions(spec: SynthSpec) -> Panel:
    """Smooth non-negative daily admission counts per trust."""
    t = np.arange(spec.n_days, dtype=float)
    peaks = spec.per_trust(spec.peak_day)[:, None]
    rises = spec.per_trust(spec.rise_width)[:, None]
    falls = spec.per_trust(spec.fall_width)[:, None]
    amps = spec.per_trust(spec.amplitude)[:, None]
    v = _bump(t, peaks, rises, falls)
    for offset in spec.extra_peaks:
        v = v + _bump(t, peaks + offset, rises, falls)
    return Panel("trust", "admissions", spec.start_date, tuple(spec.trust_ids()), amps * v)


def derive_indicator(
    admissions: Panel,
    lead: int,
    noise_sd: float = 0.0,
    decay_rate: float = 0.0,
    seed: int = 0,
    name: str = "indicator",
) -> Panel:
    """Indicator running ``lead`` days ahead: ind(t) = decay(t) * adm(t + lead) + noise.

    A positive lead trims the series tail (the last ``lead`` admission days
    have no indicator observation); noise sd is relative to each trust's
    peak admissions so it matches a 0-1 scaled signal.
    """
    n = admissions.n_days
    if abs(lead) >= n:
        raise LeadLagError(f"lead {lead} exceeds series length {n}")
    rng = np.random.default_rng(seed)
    if lead >= 0:
        values = admissions.values[:, lead:]
        start = admissions.start_date
    else:
        values = admissions.values[:, :lead]
        start = admissions.start_date + timedelta(days=-lead)
    if decay_rate != 0.0:
        tt = np.arange(values.shape[1], dtype=float)
        values = np.exp(-decay_rate * tt) * values
    if noise_sd > 0.0:
        peak = admissions.values.max(axis=1, keepdims=True)
        sd = noise_sd * np.where(peak > 0, peak, 1.0)
        values = values + rng.normal(0.0, sd, size=values.shape)
    return Panel("trust", name, start, admissions.geo_ids, values)


def generate_indicators(spec: SynthSpec, admissions: Panel) -> dict[str, Panel]:
    """All indicators of the spec, each with its own deterministic noise stream."""
    panels: dict[str, Panel] = {}
    for k, (name, ind) in enumerate(spec.indicators):
        panels[name] = derive_indicator(
            admissions,
            lead=ind.lead,
            noise_sd=ind.noise_sd,
            decay_rate=ind.decay_rate,
            seed=spec.seed + 1000 * (k + 1),
            name=name,
        )
    return panels


def ground_truth(spec: SynthSpec) -> dict[str, int]:
    """Injected lead per indicator, for scoring recovery."""
    return {name: ind.lead for name, ind in spec.indicators}
