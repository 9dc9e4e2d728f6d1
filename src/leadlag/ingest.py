"""File-based ingestion of admissions, indicator, mapping and population CSVs.

All readers are strict about schema (header row mandatory, ISO-8601 dates,
finite numbers) and report the offending line number on malformed input.
Panels come out rectangular over each variable's observed date range, with
gaps imputed by last observation carried forward.
"""

from __future__ import annotations

import csv
import logging
import math
from datetime import date
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .geo import GeoMapping, build_mapping
from .timeseries import Panel, locf_impute

logger = logging.getLogger(__name__)


def _records(path: str | Path, header: list[str]):
    """(line number, fields) of each non-empty row; checks header, width, emptiness."""
    spath = str(path)
    try:
        handle = Path(path).open(newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot open file: {exc}", path=spath) from exc
    with handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found != header:
            raise SchemaError(f"expected header {','.join(header)!r}, got {found!r}",
                              path=spath, line=1)
        empty = True
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(f"expected {len(header)} fields, got {len(row)}",
                                  spath, lineno)
            empty = False
            yield lineno, row
    if empty:
        raise SchemaError("no data rows", spath)


def _parse_date(text: str, path: str, line: int) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise SchemaError(f"invalid ISO date {text!r}", path=path, line=line) from None


def _parse_number(text: str, what: str, path: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"{what} {text!r} is not numeric", path, line) from None
    if not math.isfinite(value):
        raise SchemaError(f"{what} {text!r} is not a finite number", path, line)
    return value


def _build_panel(per_geo: dict[str, dict[date, float]], level: str, variable: str) -> Panel:
    start = min(min(obs) for obs in per_geo.values())
    end = max(max(obs) for obs in per_geo.values())
    geo_ids = sorted(per_geo)
    values = np.full((len(geo_ids), (end - start).days + 1), np.nan)
    for row, geo in zip(values, geo_ids):
        obs = per_geo[geo]
        row[[(d - start).days for d in obs]] = list(obs.values())
    return Panel(level, variable, start, tuple(geo_ids), locf_impute(values))


def read_admissions(path: str | Path) -> Panel:
    """Trust-level admissions panel from ``trust_id,date,admissions`` rows."""
    spath = str(path)
    per_trust: dict[str, dict[date, float]] = {}
    for lineno, (trust, d_text, count_text) in _records(path, ["trust_id", "date",
                                                              "admissions"]):
        d = _parse_date(d_text, spath, lineno)
        try:
            count = int(count_text)
        except ValueError:
            raise SchemaError(f"admissions {count_text!r} is not an integer",
                              spath, lineno) from None
        if count < 0:
            raise SchemaError(f"negative admissions {count}", spath, lineno)
        obs = per_trust.setdefault(trust, {})
        if d in obs:
            raise SchemaError(f"duplicate record for ({trust}, {d})", spath, lineno)
        obs[d] = float(count)
    return _build_panel(per_trust, "trust", "admissions")


def read_indicator_file(path: str | Path, level: str = "ltla") -> dict[str, Panel]:
    """Panels per variable from ``geo_id,date,variable,value`` rows."""
    spath = str(path)
    per_var: dict[str, dict[str, dict[date, float]]] = {}
    for lineno, (geo, d_text, variable, value_text) in _records(
            path, ["geo_id", "date", "variable", "value"]):
        d = _parse_date(d_text, spath, lineno)
        value = _parse_number(value_text, "value", spath, lineno)
        obs = per_var.setdefault(variable, {}).setdefault(geo, {})
        if d in obs:
            raise SchemaError(f"duplicate record for ({geo}, {d}, {variable})",
                              spath, lineno)
        obs[d] = value
    return {var: _build_panel(per_geo, level, var) for var, per_geo in per_var.items()}


def read_indicator_dir(directory: str | Path, level: str = "ltla") -> dict[str, Panel]:
    """All indicator panels found in a directory of CSV files."""
    directory = Path(directory)
    panels: dict[str, Panel] = {}
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise SchemaError("no indicator CSV files found", path=str(directory))
    for f in files:
        for var, panel in read_indicator_file(f, level=level).items():
            if var in panels:
                raise SchemaError(f"variable {var!r} appears in more than one file",
                                  path=str(f))
            panels[var] = panel
    return panels


def read_mapping(path: str | Path) -> GeoMapping:
    """LTLA->Trust mapping from ``ltla_id,trust_id,admissions`` count rows."""
    spath = str(path)
    records: list[tuple[str, str, float]] = []
    for lineno, (ltla, trust, count_text) in _records(path, ["ltla_id", "trust_id",
                                                            "admissions"]):
        count = _parse_number(count_text, "count", spath, lineno)
        if count < 0:
            raise SchemaError(f"negative count {count}", spath, lineno)
        records.append((ltla, trust, count))
    return build_mapping(records)


def read_population(path: str | Path) -> dict[str, float]:
    """LTLA residential populations from ``ltla_id,population`` rows."""
    spath = str(path)
    populations: dict[str, float] = {}
    for lineno, (ltla, pop_text) in _records(path, ["ltla_id", "population"]):
        pop = _parse_number(pop_text, "population", spath, lineno)
        if pop < 0:
            raise SchemaError(f"negative population {pop}", spath, lineno)
        if ltla in populations:
            raise SchemaError(f"duplicate LTLA {ltla}", spath, lineno)
        populations[ltla] = pop
    return populations


def read_groupings(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Variable grouping declarations from ``group,member_variable`` rows."""
    spath = str(path)
    groups: dict[str, list[str]] = {}
    for lineno, (group, member) in _records(path, ["group", "member_variable"]):
        members = groups.setdefault(group, [])
        if member in members:
            raise SchemaError(f"member {member!r} repeated in group {group!r}",
                              spath, lineno)
        members.append(member)
    return {g: tuple(m) for g, m in groups.items()}


def apply_groupings(
    panels: dict[str, Panel], groupings: dict[str, tuple[str, ...]]
) -> dict[str, Panel]:
    """Sum member variables into grouped variables; members are consumed.

    Members must share geography level and ids; date ranges intersect.
    """
    out = dict(panels)
    for group, members in groupings.items():
        present = [m for m in members if m in out]
        if not present:
            logger.warning("grouping %s: no member variables present", group)
            continue
        first = out[present[0]]
        for m in present[1:]:
            if out[m].level != first.level or out[m].geo_ids != first.geo_ids:
                raise SchemaError(
                    f"grouping {group!r}: member {m!r} has a different geography")
        start = max(out[m].start_date for m in present)
        end = min(out[m].end_date for m in present)
        if start > end:
            raise SchemaError(f"grouping {group!r}: member date ranges do not overlap")
        total = np.zeros((len(first.geo_ids), (end - start).days + 1))
        for m in present:
            total += out[m].values[:, out[m].day_slice(start, end)]
        for m in present:
            del out[m]
        out[group] = Panel(first.level, group, start, first.geo_ids, total)
    return out
