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

from .errors import ConfigError, LeadLagError
from .timeseries import Panel

MAX_LEAD = 35
START_DATE = date(2021, 10, 1)  # the first day of every synthetic panel


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
        for name in ("noise_sd", "decay_rate"):
            if not getattr(self, name) >= 0:  # NaN too
                raise LeadLagError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic corpus; every trust shares the wave shape,
    and ``amplitude`` is one scalar or one value per trust."""

    n_trusts: int = 3
    n_days: int = 200
    peak_day: float = 90.0
    rise_width: float = 12.0
    fall_width: float = 22.0
    amplitude: float | tuple[float, ...] = 100.0
    extra_peaks: tuple[float, ...] = ()  # offsets of further waves, days after peak_day
    indicators: tuple[tuple[str, IndicatorSpec], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # each indicator's noise stream is seeded from it, and numpy refuses a negative seed
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def trust_ids(self) -> list[str]:
        # zero-padded to one width, so the ids sort in numeric order
        width = max(3, len(str(self.n_trusts - 1)))
        return [f"T{i:0{width}d}" for i in range(self.n_trusts)]


def _bump(t: np.ndarray, peak: float, rise: float, fall: float) -> np.ndarray:
    # asymmetric smooth bump: fast rise, slow decline
    sd = np.where(t < peak, rise, fall)
    return np.exp(-((t - peak) ** 2) / (2.0 * sd**2))


def generate_admissions(spec: SynthSpec) -> Panel:
    """Smooth non-negative daily admission counts per trust."""
    t = np.arange(spec.n_days, dtype=float)
    v = _bump(t, spec.peak_day, spec.rise_width, spec.fall_width)
    for offset in spec.extra_peaks:
        v = v + _bump(t, spec.peak_day + offset, spec.rise_width, spec.fall_width)
    amps = np.asarray(spec.amplitude, dtype=float)
    if amps.ndim and amps.size != spec.n_trusts:
        raise LeadLagError(f"per-trust parameter has {amps.size} entries "
                           f"for {spec.n_trusts} trusts")
    return Panel(START_DATE, tuple(spec.trust_ids()), np.full(spec.n_trusts, amps)[:, None] * v)


def derive_indicator(
    admissions: Panel,
    lead: int,
    noise_sd: float = 0.0,
    decay_rate: float = 0.0,
    seed: int = 0,
) -> Panel:
    """Indicator running ``lead`` days ahead: ind(t) = decay(t) * adm(t + lead) + noise.

    It covers the n - |lead| days both series share, with decay(t) =
    exp(-decay_rate * t) from its first day; noise sd is relative to each
    trust's peak admissions so it matches a 0-1 scaled signal.
    """
    n = admissions.n_days
    if abs(lead) >= n:
        raise LeadLagError(f"lead {lead} exceeds series length {n}")
    values = admissions.values[:, max(lead, 0):n + min(lead, 0)]
    decay = np.exp(-decay_rate * np.arange(values.shape[1], dtype=float))
    peak = admissions.values.max(axis=1, keepdims=True)
    sd = noise_sd * np.where(peak > 0, peak, 1.0)
    ind = decay * values
    # added in place, so no third (trusts x days) array is held at once
    ind += np.random.default_rng(seed).normal(0.0, sd, size=ind.shape)
    return Panel(admissions.start_date + timedelta(days=max(-lead, 0)), admissions.geo_ids, ind)


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
        )
    return panels


def ground_truth(spec: SynthSpec) -> dict[str, int]:
    """Injected lead per indicator, for scoring recovery."""
    return {name: ind.lead for name, ind in spec.indicators}
