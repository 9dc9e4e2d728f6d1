"""File-based ingestion of admissions, indicator, mapping and population CSVs.

All readers are strict about schema (header row mandatory, ISO-8601 dates,
finite numbers) and report the offending line number on malformed input.
Panels come out rectangular over each variable's observed date range, with
gaps imputed by last observation carried forward.

Every reader goes through one columnar scan: ``csv.reader`` tokenizes the
rows in short blocks, and C-level calls turn each block into one typed
array per column: ``np.fromiter`` over ``map`` of a code table's lookup
gives int32 first-seen codes for text, and over ``map(float, ...)`` the
float64 numeric column.  The blocks' arrays are joined once per column,
and the checks then run as masks over whole columns.  Python code
runs per row only to find the row that stopped a block: a wrong width
(the strict transpose raised) or a field that is not a number (``float``
raised).  The error raised is that of the earliest offending line; when
one line fails several checks, the check listed first wins.  A byte that
is not UTF-8 is located by reading the file again, on that error only.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from collections import defaultdict
from contextlib import suppress
from datetime import date
from itertools import compress, count, islice
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import SchemaError
from .geo import GeoMapping, build_mapping
from .timeseries import Panel, locf_impute

logger = logging.getLogger(__name__)

# Rows tokenized per block.  A block holds one list per row, and zip(*block)
# adds one iterator per row; at 256 rows the two stay below the default
# gen-0 threshold of 700 tracked objects, so no collection runs while a
# block is alive and its rows never reach the older generations.  At 512
# rows, collections ran on every block and cost about 20% of the reading.
_BLOCK = 256

# what errors="surrogateescape" decodes each byte that is not UTF-8 to, and nothing else
_ESCAPED = re.compile("[\udc80-\udcff]")

# per check: a mask over the rows, and the message for a failing row's fields
_Checks = list[tuple[np.ndarray, Callable[[list[str]], str]]]


class _Columns(NamedTuple):
    """The data rows of one CSV file, column by column."""

    path: str
    lines: np.ndarray               # line number of each data row
    codes: list[np.ndarray | None]  # per text column: first-seen code of each row's text
    names: list[list[str]]          # per column: the text of each code
    numbers: np.ndarray | None      # the numeric column, NaN where not numeric
    not_numeric: np.ndarray         # rows whose numeric field failed to parse
    tail: SchemaError | None        # what stopped tokenizing after the last row


def _tokenizer_error(exc: Exception, spath: str, reader) -> SchemaError:
    if isinstance(exc, UnicodeDecodeError):
        return SchemaError(f"not valid UTF-8: {exc.reason}", spath, _undecodable_line(spath))
    return SchemaError(f"malformed CSV: {exc}", spath, reader.line_num)


def _undecodable_line(path: str) -> int | None:
    """The first line holding a byte that is not UTF-8, numbered as the tokenizer does."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        return next((line for line, text in enumerate(handle, start=1)
                     if _ESCAPED.search(text)), None)


def _scan(path: str | Path, header: list[str], number: int | None = None) -> _Columns:
    """Tokenize a CSV file into columns; ``number`` indexes the numeric column.

    Checks the header and each row's width.  Text columns (every column but
    ``number``) are stored as codes.  Tokenizing stops at the first row of
    the wrong width, at a field that fails to parse as a number, or at an
    error of the tokenizer; the rows read before it are kept for the checks.
    """
    spath = str(path)
    try:
        handle = Path(path).open(newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot open file: {exc}", path=spath) from exc
    width = len(header)
    tables = [defaultdict(count().__next__) for _ in header]
    # per column, and last for the line numbers: an array per block, joined at the end
    parts = [[np.empty(0, np.float64 if i == number else np.int32)] for i in range(width + 1)]
    tail: SchemaError | None = None
    not_numeric: int | None = None
    with handle:
        reader = csv.reader(handle)
        try:
            found = next(reader, None)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _tokenizer_error(exc, spath, reader) from None
        if found != header:
            raise SchemaError(f"expected header {','.join(header)!r}, got {found!r}",
                              path=spath, line=1)
        next_line = 2
        while tail is None and not_numeric is None:
            block: list[list[str]] = []
            try:
                block.extend(islice(reader, _BLOCK))
            except (csv.Error, UnicodeDecodeError) as exc:
                tail = _tokenizer_error(exc, spath, reader)
            if not block:
                break
            lines = np.arange(next_line, next_line + len(block), dtype=np.int32)
            next_line += len(block)
            if not all(block):  # csv.reader yields an empty list for a blank line
                lines = np.fromiter(compress(lines.tolist(), block), np.int32)
                block = list(filter(None, block))
                if not block:
                    continue
            try:
                columns = list(zip(*block, strict=True))
                if len(columns) != width:
                    raise ValueError
            except ValueError:  # a row of the wrong width: keep the rows before it
                cut = next(k for k, row in enumerate(block) if len(row) != width)
                tail = SchemaError(f"expected {width} fields, got {len(block[cut])}",
                                   spath, int(lines[cut]))
                # the rows before it as columns, empty ones when there are none
                columns, lines = list(zip(*block[:cut])) or [()] * width, lines[:cut]
            if number is not None:
                try:
                    parts[number].append(np.fromiter(map(float, columns[number]),
                                                     np.float64, len(lines)))
                except ValueError:  # keep the rows up to the one that failed, as NaN
                    parsed: list[float] = []
                    with suppress(ValueError):
                        parsed.extend(map(float, columns[number]))
                    not_numeric = sum(map(len, parts[width])) + len(parsed)
                    parts[number].append(np.array(parsed + [math.nan]))
                    keep = len(parsed) + 1
                    columns, lines = [c[:keep] for c in columns], lines[:keep]
            for i, column in enumerate(columns):
                if i != number:
                    parts[i].append(np.fromiter(map(tables[i].__getitem__, column),
                                                np.int32, len(lines)))
            parts[width].append(lines)
    *joined, lines = [np.concatenate(p) for p in parts]
    unparsed = np.zeros(lines.size, dtype=bool)
    if not_numeric is not None:
        unparsed[not_numeric] = True
    return _Columns(spath, lines, [c if i != number else None for i, c in enumerate(joined)],
                    [list(t) for t in tables],
                    None if number is None else joined[number], unparsed, tail)


def _fields(path: str, line: int) -> list[str]:
    """The fields of one line, tokenized again to quote them in an error."""
    with open(path, newline="", encoding="utf-8") as handle:
        return next(islice(csv.reader(handle), line - 1, None))


def _check(cols: _Columns, checks: _Checks) -> None:
    """Raise the error of the earliest offending row, in ``checks`` order at a tie.

    A failure that stopped tokenizing comes after every row read.
    """
    hits = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if hits:
        row, k = min(hits)
        line = int(cols.lines[row])
        raise SchemaError(checks[k][1](_fields(cols.path, line)), cols.path, line)
    if cols.tail is not None:
        raise cols.tail
    if not cols.lines.size:
        raise SchemaError("no data rows", cols.path)


def _parse_each(texts: list[str], parse: Callable[[str], float], invalid: float) -> np.ndarray:
    """``parse`` of each distinct text, ``invalid`` where it raises ValueError."""
    out = np.full(len(texts), invalid, dtype=np.float64)
    for i, text in enumerate(texts):
        try:
            out[i] = parse(text)
        except ValueError:
            pass
    return out


def _ordinal(text: str) -> int:
    return date.fromisoformat(text).toordinal()


def _count(text: str) -> float:
    n = int(text)
    try:
        return float(n)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _repeats(key: np.ndarray) -> np.ndarray:
    """Rows whose key equals that of an earlier row."""
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    mask = np.zeros(key.size, dtype=bool)
    mask[order[1:][ordered[1:] == ordered[:-1]]] = True
    return mask


class _Grid(NamedTuple):
    """Where each row lands when the panels of a file are laid end to end."""

    cell: np.ndarray   # flat index of each row's (geo, day) cell; -1 without a date
    size: int          # cells of all panels
    panels: list[tuple[int, tuple[str, ...], int, int]]  # offset, geo ids, start, days


def _grid(cols: _Columns, geo: int, day: int, variable: int | None = None) -> _Grid:
    """Panel layout per variable (one variable without ``variable``).

    Each variable's panel has the geos it observes, in sorted order, and the
    days from its first to its last date.  A row whose date is not an ISO
    date gets cell -1.
    """
    names = cols.names[geo]
    ranked = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(ranked), dtype=np.int32)
    rank[ranked] = np.arange(len(ranked), dtype=np.int32)
    # each distinct date text is parsed once; 0 marks one that is not a date
    ordinals = _parse_each(cols.names[day], _ordinal, 0).astype(np.int32)
    days = ordinals[cols.codes[day]]
    dated = days > 0
    cell = np.full(days.size, -1, dtype=np.int64)
    panels, size = [], 0
    for v in range(1 if variable is None else len(cols.names[variable])):
        rows = dated if variable is None else dated & (cols.codes[variable] == v)
        g, d = rank[cols.codes[geo][rows]], days[rows]
        if not d.size:  # every row of the variable fails the date check
            panels.append((size, (), 0, 0))
            continue
        present = np.bincount(g, minlength=len(ranked)) > 0
        start = int(d.min())
        n_days = int(d.max()) - start + 1
        at = np.cumsum(present)[g] - 1
        at *= n_days
        at += d
        at += size - start
        cell[rows] = at
        geo_ids = tuple(names[ranked[i]] for i in np.flatnonzero(present))
        panels.append((size, geo_ids, start, n_days))
        size += len(geo_ids) * n_days
    return _Grid(cell, size, panels)


def _panels(grid: _Grid, values: np.ndarray, level: str,
            variables: list[str]) -> dict[str, Panel]:
    """One LOCF-imputed panel per variable, scattered from validated rows."""
    flat = np.full(grid.size, np.nan)
    flat[grid.cell] = values
    return {var: Panel(level, var, date.fromordinal(start), geo_ids,
                       locf_impute(flat[offset:offset + len(geo_ids) * n_days]
                                   .reshape(len(geo_ids), n_days)))
            for var, (offset, geo_ids, start, n_days) in zip(variables, grid.panels)}


def read_admissions(path: str | Path) -> Panel:
    """Trust-level admissions panel from ``trust_id,date,admissions`` rows."""
    cols = _scan(path, ["trust_id", "date", "admissions"])
    counts = _parse_each(cols.names[2], _count, math.nan)[cols.codes[2]]
    grid = _grid(cols, 0, 1)
    _check(cols, [
        (grid.cell < 0, lambda f: f"invalid ISO date {f[1]!r}"),
        (np.isnan(counts), lambda f: f"admissions {f[2]!r} is not an integer"),
        (counts < 0, lambda f: f"negative admissions {int(f[2])}"),
        (_repeats(grid.cell),
         lambda f: f"duplicate record for ({f[0]}, {date.fromisoformat(f[1])})"),
        # last: a count too large for a float only fails a row that passes the rest
        (np.isinf(counts), lambda f: f"admissions {f[2]!r} is not a finite number"),
    ])
    return _panels(grid, counts, "trust", ["admissions"])["admissions"]


def read_indicator_file(path: str | Path, level: str = "ltla") -> dict[str, Panel]:
    """Panels per variable from ``geo_id,date,variable,value`` rows."""
    cols = _scan(path, ["geo_id", "date", "variable", "value"], number=3)
    grid = _grid(cols, 0, 1, 2)
    _check(cols, [
        (grid.cell < 0, lambda f: f"invalid ISO date {f[1]!r}"),
        (cols.not_numeric, lambda f: f"value {f[3]!r} is not numeric"),
        (~np.isfinite(cols.numbers), lambda f: f"value {f[3]!r} is not a finite number"),
        (_repeats(grid.cell), lambda f: f"duplicate record for "
                                        f"({f[0]}, {date.fromisoformat(f[1])}, {f[2]})"),
    ])
    return _panels(grid, cols.numbers, level, cols.names[2])


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


def _number_checks(cols: _Columns, what: str, field: int) -> _Checks:
    """The checks shared by numeric fields that must be finite and non-negative."""
    return [
        (cols.not_numeric, lambda f: f"{what} {f[field]!r} is not numeric"),
        (~np.isfinite(cols.numbers), lambda f: f"{what} {f[field]!r} is not a finite number"),
        (cols.numbers < 0, lambda f: f"negative {what} {float(f[field])}"),
    ]


def read_mapping(path: str | Path) -> GeoMapping:
    """LTLA->Trust mapping from ``ltla_id,trust_id,admissions`` count rows."""
    cols = _scan(path, ["ltla_id", "trust_id", "admissions"], number=2)
    _check(cols, _number_checks(cols, "count", 2))
    ltlas, trusts = (map(cols.names[i].__getitem__, cols.codes[i].tolist()) for i in (0, 1))
    return build_mapping(list(zip(ltlas, trusts, cols.numbers.tolist())))


def read_population(path: str | Path) -> dict[str, float]:
    """LTLA residential populations from ``ltla_id,population`` rows."""
    cols = _scan(path, ["ltla_id", "population"], number=1)
    _check(cols, _number_checks(cols, "population", 1) + [
        (_repeats(cols.codes[0]), lambda f: f"duplicate LTLA {f[0]}"),
    ])
    # without repeats, the n-th LTLA first seen is the n-th row
    return dict(zip(cols.names[0], cols.numbers.tolist()))


def read_groupings(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Variable grouping declarations from ``group,member_variable`` rows."""
    cols = _scan(path, ["group", "member_variable"])
    group, member = cols.codes
    _check(cols, [
        (_repeats(group.astype(np.int64) * len(cols.names[1]) + member),
         lambda f: f"member {f[1]!r} repeated in group {f[0]!r}"),
    ])
    members = cols.names[1]
    return {name: tuple(members[m] for m in member[group == g].tolist())
            for g, name in enumerate(cols.names[0])}


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
