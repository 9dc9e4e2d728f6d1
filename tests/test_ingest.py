import logging
import tracemalloc

import pytest

from leadlag.corpus import write_corpus
from leadlag.errors import SchemaError
from leadlag.geo import build_mapping
from leadlag.ingest import (
    apply_groupings,
    read_admissions,
    read_groupings,
    read_indicator_dir,
    read_indicator_file,
    read_mapping,
    read_population,
)

from conftest import panel, row


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- admissions

def test_read_admissions_complete(tmp_path):
    path = write(tmp_path, "adm.csv",
                 "trust_id,date,admissions\n"
                 "T1,2022-01-01,5\nT1,2022-01-02,6\nT1,2022-01-03,7\n"
                 "T2,2022-01-01,1\nT2,2022-01-02,2\nT2,2022-01-03,3\n")
    panel = read_admissions(path)
    assert panel.geo_ids == ("T1", "T2")
    assert panel.n_days == 3
    assert row(panel, "T2").tolist() == [1, 2, 3]


def test_read_admissions_imputes_gap(tmp_path):
    path = write(tmp_path, "adm.csv",
                 "trust_id,date,admissions\n"
                 "T1,2022-01-01,5\nT1,2022-01-03,7\n")
    assert read_admissions(path).values.tolist() == [[5, 5, 7]]


def test_read_admissions_bad_date_reports_line(tmp_path):
    path = write(tmp_path, "adm.csv",
                 "trust_id,date,admissions\nT1,2022-13-01,5\n")
    with pytest.raises(SchemaError, match=r"invalid ISO date.*:2\]"):
        read_admissions(path)


def test_read_admissions_duplicate_errors(tmp_path):
    path = write(tmp_path, "adm.csv",
                 "trust_id,date,admissions\nT1,2022-01-01,5\nT1,2022-01-01,6\n")
    with pytest.raises(SchemaError, match="duplicate"):
        read_admissions(path)


def test_read_admissions_negative_errors(tmp_path):
    path = write(tmp_path, "adm.csv",
                 "trust_id,date,admissions\nT1,2022-01-01,-5\n")
    with pytest.raises(SchemaError, match="negative"):
        read_admissions(path)


def test_read_admissions_non_integer_errors(tmp_path):
    path = write(tmp_path, "adm.csv",
                 "trust_id,date,admissions\nT1,2022-01-01,5.5\n")
    with pytest.raises(SchemaError, match="integer"):
        read_admissions(path)


def test_read_admissions_wrong_header_errors(tmp_path):
    path = write(tmp_path, "adm.csv", "trust,day,n\nT1,2022-01-01,5\n")
    with pytest.raises(SchemaError, match="header"):
        read_admissions(path)


# ---------------------------------------------------------------- indicators

def test_read_indicator_file_single_variable(tmp_path):
    path = write(tmp_path, "ind.csv",
                 "geo_id,date,variable,value\n"
                 "L1,2022-01-01,calls,1.5\nL1,2022-01-02,calls,2.5\n")
    panels = read_indicator_file(path)
    assert set(panels) == {"calls"}
    assert panels["calls"].values.tolist() == [[1.5, 2.5]]


def test_read_indicator_file_multiple_variables(tmp_path):
    path = write(tmp_path, "ind.csv",
                 "geo_id,date,variable,value\n"
                 "L1,2022-01-01,calls,1\nL1,2022-01-01,visits,2\n")
    panels = read_indicator_file(path)
    assert set(panels) == {"calls", "visits"}


def test_read_indicator_selects_variable(tmp_path):
    path = write(tmp_path, "ind.csv",
                 "geo_id,date,variable,value\n"
                 "L1,2022-01-01,calls,1\nL2,2022-01-02,visits,2\nL1,2022-01-03,visits,4\n")
    visits = read_indicator_file(path)["visits"]
    assert visits.geo_ids == ("L1", "L2")
    assert visits.start_date.isoformat() == "2022-01-02"
    assert visits.values.tolist() == [[4.0, 4.0], [2.0, 2.0]]


def test_read_indicator_dir_rejects_duplicates(tmp_path):
    write(tmp_path, "a.csv", "geo_id,date,variable,value\nL1,2022-01-01,calls,1\n")
    write(tmp_path, "b.csv", "geo_id,date,variable,value\nL1,2022-01-01,calls,2\n")
    with pytest.raises(SchemaError, match="more than one file"):
        read_indicator_dir(tmp_path)


def test_read_indicator_dir_empty_errors(tmp_path):
    with pytest.raises(SchemaError, match="no indicator CSV"):
        read_indicator_dir(tmp_path)


def test_read_indicator_file_memory(tmp_path):
    # rows are tokenized in short blocks into typed column buffers, so the
    # file's rows are never all held as Python lists at once
    path = write_corpus(tmp_path, n_trusts=363, n_days=333, n_indicators=1, n_waves=3)["ind00"]
    tracemalloc.start()
    try:
        read_indicator_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


# ------------------------------------------------------- mapping & population

def test_read_mapping(tmp_path):
    path = write(tmp_path, "map.csv",
                 "ltla_id,trust_id,admissions\nL1,T1,60\nL1,T2,40\n")
    m = read_mapping(path)
    assert m.weights.tolist() == [[0.6, 0.4]]


def test_read_mapping_names_the_file_of_zero_count_ltlas(tmp_path, caplog):
    # the reader, which knows the file, warns; building from the records does not
    records = [("C", "T1", 0), ("A", "T1", 5), ("B", "T2", 0)]
    path = write(tmp_path, "map.csv", "ltla_id,trust_id,admissions\n"
                 + "".join(f"{l},{t},{n}\n" for l, t, n in records))
    with caplog.at_level(logging.WARNING, logger="leadlag"):
        m = read_mapping(path)
    assert caplog.messages == [f"mapping {path} has 2 LTLA(s) with no admissions: B, C"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="leadlag"):
        assert build_mapping(records).weights.tolist() == m.weights.tolist()
    assert caplog.messages == []


def test_read_population(tmp_path):
    path = write(tmp_path, "pop.csv", "ltla_id,population\nL1,1000\nL2,2500.5\n")
    assert read_population(path) == {"L1": 1000.0, "L2": 2500.5}


def test_read_population_duplicate_errors(tmp_path):
    path = write(tmp_path, "pop.csv", "ltla_id,population\nL1,1000\nL1,900\n")
    with pytest.raises(SchemaError, match="duplicate"):
        read_population(path)


# ------------------------------------------------------------------ groupings

def test_read_groupings(tmp_path):
    path = write(tmp_path, "groups.csv",
                 "group,member_variable\ncommon,cough\ncommon,fever\nrare,anosmia\n")
    assert read_groupings(path) == {"common": ("cough", "fever"), "rare": ("anosmia",)}


def test_read_groupings_duplicate_member_errors(tmp_path):
    path = write(tmp_path, "groups.csv",
                 "group,member_variable\ncommon,cough\ncommon,cough\n")
    with pytest.raises(SchemaError, match="repeated"):
        read_groupings(path)


def test_read_groupings_member_in_a_second_group_errors(tmp_path):
    # group a would consume ind01, and b would be ind02 alone
    path = write(tmp_path, "groups.csv",
                 "group,member_variable\na,ind01\nb,ind01\nb,ind02\n")
    message = r"member 'ind01' of group 'b' is in another group \[.*groups\.csv:3\]"
    with pytest.raises(SchemaError, match=message):
        read_groupings(path)
    # a repeat within one group is also a second listing: the repeat's message wins
    path = write(tmp_path, "groups.csv", "group,member_variable\na,x\nb,y\na,x\n")
    with pytest.raises(SchemaError, match=r"member 'x' repeated in group 'a' \[.*:4\]"):
        read_groupings(path)


def test_apply_groupings_sums_members():
    panels = {
        "a": panel({"L1": [1.0, 2.0, 3.0]}),
        "b": panel({"L1": [10.0, 20.0, 30.0]}),
        "c": panel({"L1": [5.0, 5.0, 5.0]}),
    }
    out = apply_groupings(panels, {"combo": ("a", "b")})
    assert set(out) == {"combo", "c"}
    assert out["combo"].values.tolist() == [[11.0, 22.0, 33.0]]


def test_apply_groupings_mismatched_geos_error():
    panels = {
        "a": panel({"L1": [1.0]}),
        "b": panel({"L2": [1.0]}),
    }
    with pytest.raises(SchemaError, match="different geography"):
        apply_groupings(panels, {"combo": ("a", "b")})


def test_apply_groupings_must_not_replace_a_variable_it_does_not_consume():
    panels = {name: panel({"L1": [float(i), 1.0]}) for i, name in enumerate(("a", "b", "c"))}
    with pytest.raises(SchemaError, match="'a' would replace a variable that is not its member"):
        apply_groupings(panels, {"a": ("b", "c")})
    # named after one of its own members, the group replaces only what it sums
    out = apply_groupings(panels, {"a": ("a", "b")})
    assert set(out) == {"a", "c"}
    assert out["a"].values.tolist() == [[1.0, 2.0]]


# ------------------------------------------------------- non-finite numbers

@pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "nan"])
def test_read_indicator_file_rejects_non_finite(tmp_path, text):
    path = write(tmp_path, "ind.csv",
                 f"geo_id,date,variable,value\nL1,2022-01-01,calls,1\nL1,2022-01-02,calls,{text}\n")
    with pytest.raises(SchemaError, match=r"not a finite number.*ind\.csv:3\]"):
        read_indicator_file(path)


@pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "nan"])
def test_read_mapping_rejects_non_finite(tmp_path, text):
    path = write(tmp_path, "map.csv", f"ltla_id,trust_id,admissions\nL1,T1,{text}\n")
    with pytest.raises(SchemaError, match=r"not a finite number.*map\.csv:2\]"):
        read_mapping(path)


@pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "nan"])
def test_read_population_rejects_non_finite(tmp_path, text):
    path = write(tmp_path, "pop.csv", f"ltla_id,population\nL1,1000\nL2,{text}\n")
    with pytest.raises(SchemaError, match=r"not a finite number.*pop\.csv:3\]"):
        read_population(path)


# ------------------------------------------------------------ dates and lines

@pytest.mark.parametrize("text", ["20220104", "2022-W01-2"])
def test_read_admissions_accepts_only_yyyy_mm_dd(tmp_path, text):
    # date.fromisoformat reads both, but only YYYY-MM-DD is a date here
    path = write(tmp_path, "adm.csv",
                 f"trust_id,date,admissions\nT1,2022-01-03,5\nT1,{text},5\n")
    with pytest.raises(SchemaError, match=rf"invalid ISO date '{text}' \[.*adm\.csv:3\]"):
        read_admissions(path)


def test_a_byte_order_mark_before_the_header_is_ignored(tmp_path):
    # a spreadsheet saves "CSV UTF-8" with the mark U+FEFF before the header
    def fields(result):
        return (result.start_date, result.geo_ids, result.values.tolist())

    adm = "trust_id,date,admissions\nT1,2022-01-01,5\nT1,2022-01-03,7\nT2,2022-01-01,1\n"
    ind = "geo_id,date,variable,value\nL1,2022-01-01,calls,1.5\nL2,2022-01-02,visits,2\n"
    mapping = "ltla_id,trust_id,admissions\nL1,T1,60\nL1,T2,40\nL2,T2,5\n"
    for name, text in [("adm.csv", adm), ("ind.csv", ind), ("map.csv", mapping)]:
        write(tmp_path, name, text)
        write(tmp_path, "bom_" + name, "\ufeff" + text)
    assert fields(read_admissions(tmp_path / "bom_adm.csv")) == \
        fields(read_admissions(tmp_path / "adm.csv"))
    plain, bom = (read_indicator_file(tmp_path / name) for name in ("ind.csv", "bom_ind.csv"))
    assert {k: fields(p) for k, p in bom.items()} == {k: fields(p) for k, p in plain.items()}
    plain, bom = (read_mapping(tmp_path / name) for name in ("map.csv", "bom_map.csv"))
    assert (bom.ltla_ids, bom.trust_ids, bom.weights.tolist()) == \
        (plain.ltla_ids, plain.trust_ids, plain.weights.tolist())
    # the mark goes before the fields are tokenized, so a quoted first field reads too
    path = write(tmp_path, "pop.csv", '\ufeff"ltla_id",population\nL1,1000\n')
    assert read_population(path) == {"L1": 1000.0}
    path = write(tmp_path, "bad.csv", "\ufefftrust_id,date,admissions\nT1,2022-01-01,5\n"
                                      "T1,2022-13-01,5\n")
    with pytest.raises(SchemaError, match=r"invalid ISO date '2022-13-01' \[.*bad\.csv:3\]"):
        read_admissions(path)


@pytest.mark.parametrize("rows, message, line", [
    ("L2,abc\n", "population 'abc' is not numeric", 4),
    ("L2\n", "expected 2 fields, got 1", 4),
    ("\nL2,1\nL2,7\n", "duplicate LTLA L2", 6),
    ('L2,"' + "9" * 200_000 + '"\n', "malformed CSV: field larger than field limit", 4),
    ('L2,"5\n' + "9" * 200_000 + '"\n', "malformed CSV: field larger than field limit", 4),
], ids=["check", "width", "check-after-blank", "malformed", "malformed-on-two-lines"])
def test_errors_after_a_record_on_two_lines_name_the_physical_line(tmp_path, rows, message,
                                                                   line):
    # the record on lines 2-3 holds a quoted line break
    path = write(tmp_path, "pop.csv", 'ltla_id,population\n"L\n1",5\n' + rows)
    with pytest.raises(SchemaError) as info:
        read_population(path)
    assert str(info.value).startswith(message)
    assert info.value.line == line


def test_earlier_fault_beats_a_later_undecodable_byte(tmp_path):
    # both faults sit in the first 8 KB the decoder reads
    path = tmp_path / "adm.csv"
    path.write_bytes(b"trust_id,date,admissions\nT1,2022-01-01,1\nT1,2022-01-02,-3\n"
                     b"T1,2022-01-03,1\nT1,2022-01-04,\xff\n")
    with pytest.raises(SchemaError, match=r"negative admissions -3 \[.*adm\.csv:3\]"):
        read_admissions(path)


@pytest.mark.parametrize("reader, data, message", [
    # text fields, the dates and admissions counts among them
    (read_admissions, b"trust_id,date,admissions\nT1,2022-01-01,1\nT\xff,2022-01-02,1\n",
     r"not valid UTF-8 \[.*:3\]"),
    (read_admissions, b"trust_id,date,admissions\nT1,2022-01-01,1\nT1,2022-01-02,\xe2\x82\n",
     r"not valid UTF-8 \[.*:3\]"),
    # a numeric field, a row of the wrong width and the header fail their own check
    (read_population, b"ltla_id,population\nL1,1\nL2,5\xff\n",
     r"population '5\\udcff' is not numeric \[.*:3\]"),
    (read_population, b"ltla_id,population\nL1,1\nL2\xff\n", r"expected 2 fields, got 1 \[.*:3\]"),
    (read_population, b"ltla_id,populati\xf6n\nL1,1\n", r"expected header .* \[.*:1\]"),
    # a text field with a bad byte fails before its row's other checks
    (read_population, b"ltla_id,population\nL\xff,-1\n", r"not valid UTF-8 \[.*:2\]"),
], ids=["text", "count", "number", "width", "header", "text-before-number"])
def test_undecodable_byte_fails_its_fields_check(tmp_path, reader, data, message):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    with pytest.raises(SchemaError, match=message):
        reader(path)


@pytest.mark.parametrize("reader, data, message, line", [
    # a text field, the dates and admissions counts among them, fails the text check
    (read_admissions, b"trust_id,date,admissions\nT1,2022-01-01,1\nT\x001,2022-01-02,1\n",
     "holds a NUL", 3),
    (read_admissions, b"trust_id,date,admissions\nT1,2022-01-01,1\nT1,2022-01-0\x002,1\n",
     "holds a NUL", 3),
    (read_admissions, b"trust_id,date,admissions\nT1,2022-01-01,1\nT1,2022-01-02,\x001\n",
     "holds a NUL", 3),
    # a numeric field, a row of the wrong width and the header fail their own check
    (read_population, b"ltla_id,population\nL1,1\nL2,5\x00\n",
     "population '5\\x00' is not numeric", 3),
    (read_population, b"ltla_id,population\nL1,1\nL2\x00\n", "expected 2 fields, got 1", 3),
    (read_population, b"ltla_id,popula\x00tion\nL1,1\n",
     "expected header 'ltla_id,population', got ['ltla_id', 'popula\\x00tion']", 1),
    # the first line of a record on two lines
    (read_population, b'ltla_id,population\nL1,1\n"L\n\x002",5\n', "holds a NUL", 3),
    # a row of the wrong width is read as empty fields, so its NUL fails no text check
    (read_population, b"ltla_id,population\nL\x00\xff,-1,7\nL3,abc\n",
     "expected 2 fields, got 3", 2),
    (read_population, b"ltla_id,population\nL1,-1\nL\x002,5\n", "negative population -1.0", 2),
], ids=["id", "date", "count", "number", "width", "header", "two-lines", "own-faults",
        "earlier-fault"])
def test_nul_is_a_malformed_record(tmp_path, reader, data, message, line):
    # csv.reader reads a NUL as text; the record fails the check of the field it sits in
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    with pytest.raises(SchemaError) as info:
        reader(path)
    assert str(info.value).startswith(message + " [")
    assert info.value.line == line
