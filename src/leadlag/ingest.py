"""File-based ingestion of admissions, indicator, mapping and population CSVs.

All readers are strict about schema (header row mandatory, ``YYYY-MM-DD``
dates, finite numbers) and name the file and line of malformed input.
Panels come out rectangular over each variable's observed date range, with
gaps imputed by last observation carried forward.

Every reader goes through one columnar scan: ``csv.reader`` tokenizes the
rows in short blocks, and ``np.fromiter`` over ``map`` turns each block into
one typed array per column (int32 first-seen codes for text, float64 for
the number).  Only a record the tokenizer cannot read stops the scan; every
other fault is a mask over the rows: a text field holding a byte that is
not UTF-8, a row of the wrong width (read as empty fields), a field that is
not a number (read as NaN), and each reader's own checks.  The earliest
offending row wins, and at a tie the check listed first.  Only then is the
file read again, to name the record's first physical line and quote it.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import defaultdict
from contextlib import suppress
from datetime import date
from itertools import count, islice
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import iso_date
from .errors import SchemaError
from .geo import GeoMapping, build_mapping
from .timeseries import Panel, locf_impute, overlap

logger = logging.getLogger(__name__)

# Rows tokenized per block.  A block holds one list per row, and zip(*block)
# adds one iterator per row; at 256 rows the two stay below the default
# gen-0 threshold of 700 tracked objects, so no collection runs while a
# block is alive and its rows never reach the older generations.  At 512
# rows, collections ran on every block and cost about 20% of the reading.
_BLOCK = 256

# per check: a mask over the rows, and the message for a failing row's fields
_Checks = list[tuple[np.ndarray, Callable[[list[str]], str]]]

# csv.reader stops at a NUL on Python 3.10 and reads it as text on 3.11+;
# a record holding one fails with 3.10's error wherever it is read
_NUL = "malformed CSV: line contains NUL"

# how every reader opens a file: utf-8-sig skips the byte order mark a
# spreadsheet's "CSV UTF-8" starts with
_OPEN = {"newline": "", "encoding": "utf-8-sig", "errors": "surrogateescape"}


class _Columns(NamedTuple):
    """The data rows of one CSV file, column by column."""

    path: str
    codes: list[np.ndarray | None]  # per text column: first-seen code of each row's text
    names: list[list[str]]          # per column: the text of each code
    numbers: np.ndarray | None      # the numeric column, NaN where not numeric
    wrong_width: np.ndarray         # rows of the wrong width, read as empty fields
    not_numeric: np.ndarray         # rows whose numeric field failed to parse
    tail: str | None                # what stopped tokenizing after the last row


def _scan(path: str | Path, header: list[str], number: int | None = None) -> _Columns:
    """Tokenize a CSV file into columns; ``number`` indexes the numeric column.

    Checks the header.  Text columns (every column but ``number``) are stored
    as codes.  Only an error of the tokenizer stops the scan; the rows read
    before it are kept for the checks.  A row of the wrong width is flagged
    and read as empty fields, a field that is not a number as NaN.
    """
    spath = str(path)
    try:
        handle = Path(path).open(**_OPEN)
    except OSError as exc:
        raise SchemaError(f"cannot open file: {exc}", path=spath) from exc
    width = len(header)
    tables = [defaultdict(count().__next__) for _ in header]
    # per column: an array per block, joined at the end
    parts = [[np.empty(0, np.float64 if i == number else np.int32)] for i in range(width)]
    wrong_width: list[int] = []
    not_numeric: list[int] = []
    rows, tail = 0, None
    with handle:
        reader = csv.reader(handle)
        try:
            found = next(reader, None)
        except csv.Error as exc:
            raise SchemaError(f"malformed CSV: {exc}", spath, 1) from None
        if found != header:
            raise SchemaError(_NUL if "\0" in "".join(found or ()) else
                              f"expected header {','.join(header)!r}, got {found!r}", spath, 1)
        records = filter(None, reader)  # csv.reader yields an empty list for a blank line
        while tail is None:
            block: list[list[str]] = []
            try:
                block.extend(islice(records, _BLOCK))
            except csv.Error as exc:
                tail = f"malformed CSV: {exc}"
            if not block:
                break
            try:
                columns = list(zip(*block, strict=True))
                if len(columns) != width:
                    raise ValueError
            except ValueError:  # rows of the wrong width: flag them, read them as empty fields
                wrong_width += [rows + k for k, row in enumerate(block) if len(row) != width]
                columns = list(zip(*(row if len(row) == width else [""] * width
                                     for row in block)))
            if number is not None:
                try:
                    parts[number].append(np.fromiter(map(float, columns[number]),
                                                     np.float64, len(block)))
                except ValueError:  # parse field by field: NaN and flagged where it fails
                    values, failed = _parse_each(columns[number], float)
                    parts[number].append(values)
                    not_numeric += (rows + np.flatnonzero(failed)).tolist()
            for i, column in enumerate(columns):
                if i == number:
                    continue
                if column[-1] == column[0] and column.count(column[0]) == len(column):
                    # one text, as a file's variable column: one code, no per-field lookup
                    parts[i].append(np.full(len(block), tables[i][column[0]], np.int32))
                else:
                    parts[i].append(np.fromiter(map(tables[i].__getitem__, column),
                                                np.int32, len(block)))
            rows += len(block)
    joined = [np.concatenate(p) for p in parts]
    return _Columns(spath, [c if i != number else None for i, c in enumerate(joined)],
                    [list(t) for t in tables], None if number is None else joined[number],
                    np.bincount(wrong_width, minlength=rows) > 0,
                    np.bincount(not_numeric, minlength=rows) > 0, tail)


def _locate(path: str, row: int) -> tuple[int, list[str]]:
    """The first line and the fields of data row ``row``, tokenized again.

    Blank lines are not rows.  Where the tokenizer stops before that row,
    the first line of the record it stopped in, and no fields.
    """
    row += 1  # the header is the first record, on line 1
    with open(path, **_OPEN) as handle:
        reader, line = csv.reader(handle), 1
        with suppress(csv.Error):
            for fields in reader:
                if fields and not row:
                    return line, fields
                row -= bool(fields)
                line = reader.line_num + 1
    return line, []


def _check(cols: _Columns, checks: _Checks) -> None:
    """Raise the error of the earliest offending row, in ``checks`` order at a tie.

    A text field holding a NUL or a byte that is not UTF-8 and a row of the
    wrong width come before ``checks``; a record the tokenizer stopped in
    comes after every row read.  A row holding a NUL fails as a NUL.
    """
    rows = cols.wrong_width.size
    # each text column is checked once per distinct text
    unreadable = np.any([_parse_each(names, _text)[1][codes]
                         for codes, names in zip(cols.codes, cols.names) if codes is not None],
                        axis=0)
    width = len(cols.names)
    checks = [(unreadable, lambda f: "not valid UTF-8"),  # or a NUL, named below
              (cols.wrong_width, lambda f: f"expected {width} fields, got {len(f)}"), *checks]
    hits = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if hits:
        row, k = min(hits)
        line, fields = _locate(cols.path, row)
        # every row holding a NUL fails a check: a text field the first, a number
        # its number check, a row of the wrong width the width check
        raise SchemaError(_NUL if "\0" in "".join(fields) else checks[k][1](fields),
                          cols.path, line)
    if cols.tail is not None:
        raise SchemaError(cols.tail, cols.path, _locate(cols.path, rows)[0])
    if not rows:
        raise SchemaError("no data rows", cols.path)


def _parse_each(texts: Sequence[str], parse: Callable) -> tuple[np.ndarray, np.ndarray]:
    """``parse`` of each text, NaN where it raises ValueError, and where it did."""
    out = np.full(len(texts), np.nan)
    failed = np.zeros(len(texts), dtype=bool)
    for i, text in enumerate(texts):
        try:
            out[i] = parse(text)
        except ValueError:
            failed[i] = True
    return out, failed


def _text(text: str) -> int:
    if "\0" in text:
        raise ValueError
    # surrogateescape decodes a byte that is not UTF-8 to a lone surrogate, which
    # str.encode refuses with a ValueError
    return len(text.encode())


def _ordinal(text: str) -> int:
    return iso_date(text).toordinal()


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


def _grid(cols: _Columns, variable: int | None = None) -> _Grid:
    """Panel layout per variable (one variable without ``variable``).

    Geo ids are column 0 and dates column 1.  Each variable's panel has the
    geos it observes, in sorted order, and the days from its first to its
    last date.  A row whose date is not a ``YYYY-MM-DD`` date gets cell -1.
    """
    names = cols.names[0]
    ranked = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(ranked), dtype=np.int32)
    rank[ranked] = np.arange(len(ranked), dtype=np.int32)
    # each distinct date text is parsed once; 0 marks one that is not a date
    ordinals, undated = _parse_each(cols.names[1], _ordinal)
    days = np.where(undated, 0, ordinals).astype(np.int32)[cols.codes[1]]
    dated = days > 0
    cell = np.full(days.size, -1, dtype=np.int64)
    panels, size = [], 0
    for v in range(1 if variable is None else len(cols.names[variable])):
        rows = dated if variable is None else dated & (cols.codes[variable] == v)
        g, d = rank[cols.codes[0][rows]], days[rows]
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


def _panels(grid: _Grid, values: np.ndarray, variables: list[str]) -> dict[str, Panel]:
    """One LOCF-imputed panel per variable, scattered from validated rows."""
    flat = np.full(grid.size, np.nan)
    flat[grid.cell] = values
    return {var: Panel(date.fromordinal(start), geo_ids,
                       locf_impute(flat[offset:offset + len(geo_ids) * n_days]
                                   .reshape(len(geo_ids), n_days)))
            for var, (offset, geo_ids, start, n_days) in zip(variables, grid.panels)}


def _number_checks(cols: _Columns, what: str, field: int, signed: bool = False) -> _Checks:
    """The checks of a numeric field: finite and, unless ``signed``, non-negative."""
    checks = [
        (cols.not_numeric, lambda f: f"{what} {f[field]!r} is not numeric"),
        (~np.isfinite(cols.numbers), lambda f: f"{what} {f[field]!r} is not a finite number"),
        (cols.numbers < 0, lambda f: f"negative {what} {float(f[field])}"),
    ]
    return checks[:2] if signed else checks


def read_admissions(path: str | Path) -> Panel:
    """Trust-level admissions panel from ``trust_id,date,admissions`` rows."""
    cols = _scan(path, ["trust_id", "date", "admissions"])
    counts = _parse_each(cols.names[2], _count)[0][cols.codes[2]]
    grid = _grid(cols)
    _check(cols, [
        (grid.cell < 0, lambda f: f"invalid ISO date {f[1]!r}"),
        (np.isnan(counts), lambda f: f"admissions {f[2]!r} is not an integer"),
        (counts < 0, lambda f: f"negative admissions {int(f[2])}"),
        (_repeats(grid.cell), lambda f: f"duplicate record for ({f[0]}, {f[1]})"),
        # last: a count too large for a float only fails a row that passes the rest
        (np.isinf(counts), lambda f: f"admissions {f[2]!r} is not a finite number"),
    ])
    return _panels(grid, counts, ["admissions"])["admissions"]


def read_indicator_file(path: str | Path) -> dict[str, Panel]:
    """Panels per variable from ``geo_id,date,variable,value`` rows."""
    cols = _scan(path, ["geo_id", "date", "variable", "value"], number=3)
    grid = _grid(cols, 2)
    _check(cols, [
        (grid.cell < 0, lambda f: f"invalid ISO date {f[1]!r}"),
        *_number_checks(cols, "value", 3, signed=True),
        (_repeats(grid.cell), lambda f: f"duplicate record for ({f[0]}, {f[1]}, {f[2]})"),
    ])
    return _panels(grid, cols.numbers, cols.names[2])


def read_indicator_dir(directory: str | Path) -> dict[str, Panel]:
    """All indicator panels found in a directory of CSV files."""
    directory = Path(directory)
    panels: dict[str, Panel] = {}
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise SchemaError("no indicator CSV files found", path=str(directory))
    for f in files:
        for var, panel in read_indicator_file(f).items():
            if var in panels:
                raise SchemaError(f"variable {var!r} appears in more than one file",
                                  path=str(f))
            panels[var] = panel
    return panels


def read_mapping(path: str | Path) -> GeoMapping:
    """LTLA->Trust mapping from ``ltla_id,trust_id,admissions`` count rows; a
    warning names the file and its LTLAs whose counts are all zero (zero weights)."""
    cols = _scan(path, ["ltla_id", "trust_id", "admissions"], number=2)
    _check(cols, _number_checks(cols, "count", 2))
    ltlas, trusts = (map(cols.names[i].__getitem__, cols.codes[i].tolist()) for i in (0, 1))
    mapping = build_mapping(list(zip(ltlas, trusts, cols.numbers.tolist())))
    zero = [l for l, used in zip(mapping.ltla_ids, mapping.weights.any(axis=1)) if not used]
    if zero:
        logger.warning("mapping %s has %d LTLA(s) with no admissions: %s",
                       path, len(zero), ", ".join(zero))
    return mapping


def read_population(path: str | Path) -> dict[str, float]:
    """LTLA residential populations from ``ltla_id,population`` rows."""
    cols = _scan(path, ["ltla_id", "population"], number=1)
    _check(cols, _number_checks(cols, "population", 1) + [
        (_repeats(cols.codes[0]), lambda f: f"duplicate LTLA {f[0]}"),
    ])
    # without repeats, the n-th LTLA first seen is the n-th row
    return dict(zip(cols.names[0], cols.numbers.tolist()))


def read_groupings(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Variable grouping declarations from ``group,member_variable`` rows, one group per member."""
    cols = _scan(path, ["group", "member_variable"])
    group, member = cols.codes
    _check(cols, [
        (_repeats(group.astype(np.int64) * len(cols.names[1]) + member),
         lambda f: f"member {f[1]!r} repeated in group {f[0]!r}"),
        (_repeats(member), lambda f: f"member {f[1]!r} of group {f[0]!r} is in another group"),
    ])
    members = cols.names[1]
    return {name: tuple(members[m] for m in member[group == g].tolist())
            for g, name in enumerate(cols.names[0])}


def apply_groupings(
    panels: dict[str, Panel], groupings: dict[str, tuple[str, ...]]
) -> dict[str, Panel]:
    """Sum member variables into grouped variables; members are consumed.

    Members must share geo ids; date ranges intersect; no other variable has the group's name.
    """
    out = dict(panels)
    for group, members in groupings.items():
        present = [m for m in members if m in out]
        if not present:
            logger.warning("grouping %s: no member variables present", group)
            continue
        if len(present) < len(members):
            logger.warning("grouping %s names no variable read: %s", group,
                           ", ".join(m for m in members if m not in present))
        if group in out and group not in present:
            raise SchemaError(f"grouping {group!r} would replace a variable that is not its member")
        first = out[present[0]]
        for m in present[1:]:
            if out[m].geo_ids != first.geo_ids:
                raise SchemaError(
                    f"grouping {group!r}: member {m!r} has a different geography")
        window = overlap(date.min, date.max, *(out[m] for m in present))
        if window is None:
            raise SchemaError(f"grouping {group!r}: member date ranges do not overlap")
        total = np.zeros((len(first.geo_ids), (window[1] - window[0]).days + 1))
        for m in present:
            total += out[m].values[:, out[m].day_slice(*window)]
            del out[m]
        out[group] = Panel(window[0], first.geo_ids, total)
    return out
