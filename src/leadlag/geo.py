"""Probabilistic LTLA-to-Trust mapping built from admission record counts.

The weight ``w[ltla][trust]`` is the fraction of admitted patients from an
LTLA who attended that Trust; applying the mapping converts LTLA-level
panels (and populations) to Trust level by weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MappingError
from .timeseries import Panel


@dataclass(frozen=True)
class GeoMapping:
    ltla_ids: tuple[str, ...]
    trust_ids: tuple[str, ...]
    weights: np.ndarray = field(repr=False)  # shape (n_ltla, n_trust)

    def __post_init__(self) -> None:
        if any(list(ids) != sorted(set(ids)) for ids in (self.ltla_ids, self.trust_ids)):
            raise MappingError("mapping LTLA and Trust ids must be unique and sorted")
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

    Counts for the same pair accumulate in record order. LTLAs whose total
    count is zero get an all-zero row rather than being dropped;
    ``read_mapping`` names them in a warning.
    """
    if not records:
        raise MappingError("no mapping records")
    ltla_ids = tuple(sorted({l for l, _, _ in records}))
    trust_ids = tuple(sorted({t for _, t, _ in records}))
    mat = np.zeros((len(ltla_ids), len(trust_ids)))
    l_index = {l: i for i, l in enumerate(ltla_ids)}
    t_index = {t: j for j, t in enumerate(trust_ids)}
    for ltla, trust, count in records:
        if count < 0:
            raise MappingError(f"negative admission count for ({ltla}, {trust})")
        mat[l_index[ltla], t_index[trust]] += count
    totals = mat.sum(axis=1)
    if not (totals > 0).any():
        raise MappingError("all mapping records have zero counts")
    return GeoMapping(ltla_ids, trust_ids, mat / np.where(totals == 0, 1.0, totals)[:, None])


def apply_mapping(panel: Panel, mapping: GeoMapping) -> Panel:
    """Convert an LTLA-level panel to Trust level by weighted sum.

    LTLAs in the mapping but absent from the panel contribute zero; panel
    LTLAs unknown to the mapping are an error.
    """
    offenders = sorted(set(panel.geo_ids) - set(mapping.ltla_ids))
    if offenders:
        raise MappingError(f"panel geo ids unknown to mapping: {', '.join(offenders)}")
    l_index = {l: i for i, l in enumerate(mapping.ltla_ids)}
    w = mapping.weights[[l_index[g] for g in panel.geo_ids], :]
    return Panel(panel.start_date, mapping.trust_ids, w.T @ panel.values)


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
