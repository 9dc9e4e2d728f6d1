"""Probabilistic LTLA-to-Trust mapping built from admission record counts.

The weight ``w[ltla][trust]`` is the fraction of admitted patients from an
LTLA who attended that Trust; applying the mapping converts LTLA-level
panels (and populations) to Trust level by weighted sum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import MappingError
from .timeseries import Panel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeoMapping:
    ltla_ids: tuple[str, ...]
    trust_ids: tuple[str, ...]
    weights: np.ndarray = field(repr=False)  # shape (n_ltla, n_trust)
    zero_record_ltlas: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.ltla_ids), len(self.trust_ids)):
            raise MappingError(
                f"weight matrix shape {w.shape} does not match "
                f"{len(self.ltla_ids)} LTLAs x {len(self.trust_ids)} Trusts"
            )
        if (w < 0).any() or (w > 1).any():
            raise MappingError("weights must lie in [0, 1]")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def build_mapping(records: list[tuple[str, str, float]]) -> GeoMapping:
    """Build row-normalized LTLA->Trust weights from (ltla, trust, count) records.

    Counts for the same pair accumulate. LTLAs whose total count is zero get
    an all-zero row and are flagged rather than dropped.
    """
    if not records:
        raise MappingError("no mapping records")
    counts: dict[tuple[str, str], float] = {}
    for ltla, trust, count in records:
        if count < 0:
            raise MappingError(f"negative admission count for ({ltla}, {trust})")
        counts[(ltla, trust)] = counts.get((ltla, trust), 0.0) + float(count)
    ltla_ids = tuple(sorted({l for l, _ in counts}))
    trust_ids = tuple(sorted({t for _, t in counts}))
    mat = np.zeros((len(ltla_ids), len(trust_ids)))
    l_index = {l: i for i, l in enumerate(ltla_ids)}
    t_index = {t: j for j, t in enumerate(trust_ids)}
    for (ltla, trust), count in counts.items():
        mat[l_index[ltla], t_index[trust]] = count
    totals = mat.sum(axis=1)
    if not (totals > 0).any():
        raise MappingError("all mapping records have zero counts")
    zero_rows = totals == 0
    safe = np.where(zero_rows, 1.0, totals)
    mat = mat / safe[:, None]
    zero_ltlas = frozenset(l for l, z in zip(ltla_ids, zero_rows) if z)
    if zero_ltlas:
        logger.warning("mapping has %d LTLA(s) with no admissions: %s",
                       len(zero_ltlas), ", ".join(sorted(zero_ltlas)))
    return GeoMapping(ltla_ids, trust_ids, mat, zero_ltlas)


def missing_ltlas(panel: Panel, mapping: GeoMapping) -> list[str]:
    """Mapping LTLAs that the panel has no series for (they contribute zero)."""
    return sorted(set(mapping.ltla_ids) - set(panel.geo_ids))


def apply_mapping(panel: Panel, mapping: GeoMapping) -> Panel:
    """Convert an LTLA-level panel to Trust level by weighted sum.

    LTLAs in the mapping but absent from the panel contribute zero and are
    reported on the log; panel LTLAs unknown to the mapping are an error.
    """
    if panel.level != "ltla":
        raise MappingError(f"apply_mapping expects an LTLA panel, got {panel.level!r}")
    offenders = sorted(set(panel.geo_ids) - set(mapping.ltla_ids))
    if offenders:
        raise MappingError(f"panel geo ids unknown to mapping: {', '.join(offenders)}")
    absent = missing_ltlas(panel, mapping)
    if absent:
        logger.warning("variable %s missing %d mapping LTLA(s): %s",
                       panel.variable, len(absent), ", ".join(absent))
    l_index = {l: i for i, l in enumerate(mapping.ltla_ids)}
    w = mapping.weights[[l_index[g] for g in panel.geo_ids], :]
    return Panel("trust", panel.variable, panel.start_date, mapping.trust_ids,
                 w.T @ panel.values)


def weighted_population(mapping: GeoMapping, populations: dict[str, float]) -> dict[str, float]:
    """Catchment population per Trust: sum of LTLA populations times weights."""
    missing = sorted(set(mapping.ltla_ids) - set(populations))
    if missing:
        raise MappingError(f"populations missing for LTLA(s): {', '.join(missing)}")
    pop_vec = np.array([populations[l] for l in mapping.ltla_ids], dtype=float)
    if (pop_vec < 0).any():
        raise MappingError("populations must be non-negative")
    totals = pop_vec @ mapping.weights
    return {t: float(totals[j]) for j, t in enumerate(mapping.trust_ids)}
