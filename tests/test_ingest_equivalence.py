"""The columnar readers against the row-at-a-time readers they replaced.

The reference below is the earlier ``leadlag.ingest`` row loop, copied
verbatim but for four rules: a record's line is the first physical line it
spans, a date is exactly ``YYYY-MM-DD``, a text field holding a NUL fails
as ``holds a NUL``, and a grouping member may sit in one group only.
Hypothesis writes small CSV files from valid rows with injected defects
(bad or non-ISO dates, non-numeric, non-finite, negative and non-integer
numbers, NULs, duplicates, wrong widths, blank lines, quoted fields, CRLF
line ends, a wrong header), and each reader must agree with its reference:
equal results when the reference returns, the same error class, message and
line when it raises a ``LeadLagError``, and a ``SchemaError`` where the
reference let any other exception escape.
"""

from __future__ import annotations

import csv
import io
import math
import re
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leadlag import ingest
from leadlag.errors import LeadLagError, SchemaError
from leadlag.geo import GeoMapping, build_mapping
from leadlag.timeseries import Panel, locf_impute


# ------------------------------------------------ reference: the row readers

def _records(path: str | Path, header: list[str], number: int | None = None):
    """(first line, fields) of each non-empty record; checks header, width, emptiness.

    A record's line is the first physical line it spans, as the tokenizer
    counts lines.  Every field but ``number`` is text and may hold no NUL.
    """
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
        lineno = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise SchemaError(f"expected {len(header)} fields, got {len(row)}",
                                      spath, lineno)
                if any("\0" in text for i, text in enumerate(row) if i != number):
                    raise SchemaError("holds a NUL", spath, lineno)
                empty = False
                yield lineno, row
            lineno = reader.line_num + 1
    if empty:
        raise SchemaError("no data rows", spath)


def _parse_date(text: str, path: str, line: int) -> date:
    # exactly YYYY-MM-DD: date.fromisoformat also reads 20220104 and 2022-W01-2
    try:
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            raise ValueError(text)
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


def _build_panel(per_geo: dict[str, dict[date, float]]) -> Panel:
    start = min(min(obs) for obs in per_geo.values())
    end = max(max(obs) for obs in per_geo.values())
    geo_ids = sorted(per_geo)
    values = np.full((len(geo_ids), (end - start).days + 1), np.nan)
    for row, geo in zip(values, geo_ids):
        obs = per_geo[geo]
        row[[(d - start).days for d in obs]] = list(obs.values())
    return Panel(start, tuple(geo_ids), locf_impute(values))


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
    return _build_panel(per_trust)


def read_indicator_file(path: str | Path) -> dict[str, Panel]:
    """Panels per variable from ``geo_id,date,variable,value`` rows."""
    spath = str(path)
    per_var: dict[str, dict[str, dict[date, float]]] = {}
    for lineno, (geo, d_text, variable, value_text) in _records(
            path, ["geo_id", "date", "variable", "value"], number=3):
        d = _parse_date(d_text, spath, lineno)
        value = _parse_number(value_text, "value", spath, lineno)
        obs = per_var.setdefault(variable, {}).setdefault(geo, {})
        if d in obs:
            raise SchemaError(f"duplicate record for ({geo}, {d}, {variable})",
                              spath, lineno)
        obs[d] = value
    return {var: _build_panel(per_geo) for var, per_geo in per_var.items()}


def read_mapping(path: str | Path) -> GeoMapping:
    """LTLA->Trust mapping from ``ltla_id,trust_id,admissions`` count rows."""
    spath = str(path)
    records: list[tuple[str, str, float]] = []
    for lineno, (ltla, trust, count_text) in _records(path, ["ltla_id", "trust_id",
                                                            "admissions"], number=2):
        count = _parse_number(count_text, "count", spath, lineno)
        if count < 0:
            raise SchemaError(f"negative count {count}", spath, lineno)
        records.append((ltla, trust, count))
    return build_mapping(records)


def read_population(path: str | Path) -> dict[str, float]:
    """LTLA residential populations from ``ltla_id,population`` rows."""
    spath = str(path)
    populations: dict[str, float] = {}
    for lineno, (ltla, pop_text) in _records(path, ["ltla_id", "population"], number=1):
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
        if any(member in listed for listed in groups.values()):
            raise SchemaError(f"member {member!r} of group {group!r} is in another group",
                              spath, lineno)
        members.append(member)
    return {g: tuple(m) for g, m in groups.items()}


# ------------------------------------------------------------ CSV generation

GEOS = ["L1", "L2", "T 3", "a,b", 'q"t', "L\n4"]
BAD_GEOS = GEOS + ["L\x001", "L\n\x00"]
VARIABLES = ["calls", "visits", "x,y"]
DATES = ["2022-01-01", "2022-01-02", "2022-01-03", "2022-01-05"]
BAD_DATES = ["2022-13-01", "2022-02-30", "2022-01", "", " 2022-01-01", "NaT",
             "2022-01-01T00", "01/02/2022", "20220104", "2022-W01-2", "2022-01-0\x001"]
NUMBERS = ["1", "2.5", "0", "1e3", " 4 ", "1_0", "+3", "0.1", "5.0"]
BAD_NUMBERS = ["-3", "-0.5", "-0", "nan", "NaN", "inf", "-inf", "1e400", "abc", "",
               "1.2.3", "99999999999999999999", "1" * 400, "1\x00"]

# header, then one strategy per field of a valid row, then one per defect
SCHEMAS = {
    "admissions": (["trust_id", "date", "admissions"],
                   [GEOS, DATES, ["0", "1", "5", "17", "+3", " 7"]],
                   [BAD_GEOS, BAD_DATES, BAD_NUMBERS]),
    "indicator": (["geo_id", "date", "variable", "value"],
                  [GEOS, DATES, VARIABLES, NUMBERS],
                  [BAD_GEOS, BAD_DATES, VARIABLES, BAD_NUMBERS]),
    "mapping": (["ltla_id", "trust_id", "admissions"],
                [GEOS, GEOS, NUMBERS],
                [BAD_GEOS, GEOS, BAD_NUMBERS]),
    "population": (["ltla_id", "population"],
                   [GEOS, NUMBERS],
                   [BAD_GEOS, BAD_NUMBERS]),
    "groupings": (["group", "member_variable"],
                  [VARIABLES, GEOS],
                  [VARIABLES, BAD_GEOS]),
}

READERS = {
    "admissions": (read_admissions, ingest.read_admissions),
    "indicator": (read_indicator_file, ingest.read_indicator_file),
    "mapping": (read_mapping, ingest.read_mapping),
    "population": (read_population, ingest.read_population),
    "groupings": (read_groupings, ingest.read_groupings),
}


@st.composite
def csv_files(draw, kind: str) -> bytes:
    header, valid, defects = SCHEMAS[kind]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.sampled_from(choices)) for choices in valid]
        action = draw(st.sampled_from(["keep"] * 12 + ["defect"] * 3 + ["repeat"] * 2
                                      + ["blank", "short", "long"]))
        if action == "defect":
            i = draw(st.integers(0, len(row) - 1))
            row[i] = draw(st.sampled_from(defects[i]))
        elif action == "repeat" and rows and rows[-1]:
            row = list(draw(st.sampled_from([r for r in rows if r])))
        elif action == "blank":
            row = []
        elif action == "short":
            row = row[:-1]
        elif action == "long":
            row = row + ["extra"]
        rows.append(row)
    if draw(st.sampled_from([False] * 19 + [True])):
        header = header[::-1]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for row in rows:
        if row:
            writer.writerow(row)
        else:
            text.write("\n")
    return text.getvalue().encode("utf-8")


# ---------------------------------------------------------------- comparison

def outcome(reader, path):
    try:
        return reader(path), None
    except Exception as exc:  # noqa: BLE001 - the outcome is compared below
        return None, exc


def assert_same_result(expected, got):
    if isinstance(expected, dict) and expected and isinstance(
            next(iter(expected.values())), Panel):
        assert list(expected) == list(got)
        for name in expected:
            assert_same_result(expected[name], got[name])
    elif isinstance(expected, Panel):
        assert (got.geo_ids, got.start_date) == (expected.geo_ids, expected.start_date)
        assert np.array_equal(got.values, expected.values)
    elif isinstance(expected, GeoMapping):
        assert (got.ltla_ids, got.trust_ids) == (expected.ltla_ids, expected.trust_ids)
        assert np.array_equal(got.weights, expected.weights)
    else:
        assert list(got.items()) == list(expected.items())


def check_equivalent(kind: str, data: bytes) -> None:
    reference, columnar = READERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        path.write_bytes(data)
        expected, expected_exc = outcome(reference, path)
        got, got_exc = outcome(columnar, path)
    if expected_exc is None:
        assert got_exc is None, f"columnar reader raised {got_exc!r}"
        assert_same_result(expected, got)
    elif isinstance(expected_exc, LeadLagError):
        assert type(got_exc) is type(expected_exc)
        assert str(got_exc) == str(expected_exc)
        assert getattr(got_exc, "line", None) == getattr(expected_exc, "line", None)
    else:
        # the reference let this escape as a traceback; the new reader may not
        assert isinstance(got_exc, SchemaError), f"{got_exc!r} for {expected_exc!r}"


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_columnar_readers_match_row_readers(kind, data):
    check_equivalent(kind, data.draw(csv_files(kind)))


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_columnar_readers_match_row_readers_on_short_blocks(kind, block, data):
    # most rows then sit at a block's first or last place
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_BLOCK", block)
        check_equivalent(kind, data.draw(csv_files(kind)))


BLOCK = ingest._BLOCK
POPULATIONS = "ltla_id,population\n" + "".join(f"L{i},{i}\n" for i in range(BLOCK))


def indicator_rows(texts) -> str:
    """An indicator file of (geo, day, variable) rows, day counted from 2022-01-01."""
    return "geo_id,date,variable,value\n" + "".join(
        f"{geo},{date(2022, 1, 1) + timedelta(days=day)},{variable},{k}\n"
        for k, (geo, day, variable) in enumerate(texts))


@pytest.mark.parametrize("kind, text", [
    # a row failing several checks raises the check the row reader made first
    pytest.param("indicator", "geo_id,date,variable,value\nL1,2022-13-01,v,nan\n",
                 id="date-before-value"),
    pytest.param("admissions", "trust_id,date,admissions\nT1,2022-01-01,-2\n"
                 "T1,2022-01-01,x\n", id="negative-before-later-non-integer"),
    # the earliest offending line wins over a later, earlier-listed check
    pytest.param("indicator", "geo_id,date,variable,value\nL1,2022-01-01,v,1\n"
                 "L1,2022-01-01,v,2\nL1,bad,v,3\n", id="duplicate-before-later-date"),
    # rows before a width error are still checked first, and the other way round
    pytest.param("population", "ltla_id,population\nL1,-1\nL2\n", id="row-then-width"),
    pytest.param("population", "ltla_id,population\nL1\nL2,-1\n", id="width-then-row"),
    # blank lines and quoted line breaks count as lines
    pytest.param("mapping", 'ltla_id,trust_id,admissions\n\n"L\n1",T1,5\n\nL2,T1,inf\n',
                 id="line-numbers"),
    pytest.param("population", 'ltla_id,population\n"L\n1",5\nL2,abc\n',
                 id="check-after-a-record-on-two-lines"),
    pytest.param("population", 'ltla_id,population\n"L\n1",5\nL2\n',
                 id="width-after-a-record-on-two-lines"),
    pytest.param("groupings", 'group,member_variable\ng,"a\nb"\ng,"a\nb"\n',
                 id="repeat-of-a-record-on-two-lines"),
    pytest.param("admissions", "trust_id,date,admissions\r\nT1,20220101,1\r\n"
                 "T1,2022-01-01,2\r\n", id="crlf-compact-date-duplicate"),
    # a count too large for a float fails after the duplicate and negative checks
    pytest.param("admissions", "trust_id,date,admissions\nL1,2022-01-03,0\n"
                 "L1,2022-01-03," + "9" * 400 + "\n", id="duplicate-before-huge-count"),
    pytest.param("admissions", "trust_id,date,admissions\nL1,2022-01-03,-" + "9" * 400
                 + "\n", id="huge-negative-count"),
    # more rows than one block
    pytest.param("admissions", "trust_id,date,admissions\n" + "T1,2022-01-01,1\n" * 700,
                 id="duplicate-in-later-block"),
    pytest.param("population", "ltla_id,population\n" + "\n" * 600 + "L1,5\n",
                 id="blocks-of-blank-lines"),
    pytest.param("indicator", "geo_id,date,variable,value\n"
                 + "".join(f"L{i},2022-01-0{1 + i % 5},v,{i}\n" for i in range(600))
                 + "L9,2022-01-02,v,x\n", id="non-numeric-in-later-block"),
    # at the edges of a block: BLOCK data rows fill the first one
    pytest.param("population", POPULATIONS + "L\n", id="width-error-starts-a-block"),
    pytest.param("population", POPULATIONS[:POPULATIONS.rindex("L")] + "L,x\nL9,1\n",
                 id="non-numeric-ends-a-block"),
    pytest.param("population", POPULATIONS + "\n" * BLOCK + "L,-1\n",
                 id="a-block-of-blank-lines"),
    # a block's text columns: one text, or first and last alike but not between
    pytest.param("indicator", indicator_rows(
        ("L1", k, "v") if k in (0, BLOCK - 1) else ("L2", k, "w") for k in range(BLOCK)),
        id="block-ends-agree-middle-differs"),
    pytest.param("indicator", indicator_rows(
        ("L1", k % BLOCK, "v" if k < BLOCK else "w") for k in range(2 * BLOCK)),
        id="variable-changes-at-a-block-edge"),
    pytest.param("indicator", indicator_rows(
        (f"L{k % 3}", k // 6, "vw"[k // 3 % 2]) for k in range(600)),
        id="two-variables"),
    pytest.param("groupings", "group,member_variable\n", id="no-data-rows"),
    pytest.param("groupings", "", id="empty-file"),
])
def test_columnar_readers_match_row_readers_on_edges(kind, text):
    check_equivalent(kind, text.encode("utf-8"))


def test_admissions_too_large_for_a_float_is_a_schema_error(tmp_path):
    path = tmp_path / "adm.csv"
    path.write_text("trust_id,date,admissions\nT1,2022-01-01," + "9" * 400 + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError, match=r"not a finite number.*adm\.csv:2\]"):
        ingest.read_admissions(path)
