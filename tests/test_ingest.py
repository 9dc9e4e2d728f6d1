import pytest

from leadlag.errors import SchemaError
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
    assert panel.level == "trust"
    assert panel.variable == "admissions"
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
    assert panels["calls"].level == "ltla"
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
    assert visits.variable == "visits"
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


# ------------------------------------------------------- mapping & population

def test_read_mapping(tmp_path):
    path = write(tmp_path, "map.csv",
                 "ltla_id,trust_id,admissions\nL1,T1,60\nL1,T2,40\n")
    m = read_mapping(path)
    assert m.weights.tolist() == [[0.6, 0.4]]


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


def test_apply_groupings_sums_members():
    panels = {
        "a": panel({"L1": [1.0, 2.0, 3.0]}, "a", level="ltla"),
        "b": panel({"L1": [10.0, 20.0, 30.0]}, "b", level="ltla"),
        "c": panel({"L1": [5.0, 5.0, 5.0]}, "c", level="ltla"),
    }
    out = apply_groupings(panels, {"combo": ("a", "b")})
    assert set(out) == {"combo", "c"}
    assert out["combo"].variable == "combo"
    assert out["combo"].values.tolist() == [[11.0, 22.0, 33.0]]


def test_apply_groupings_mismatched_geos_error():
    panels = {
        "a": panel({"L1": [1.0]}, "a", level="ltla"),
        "b": panel({"L2": [1.0]}, "b", level="ltla"),
    }
    with pytest.raises(SchemaError, match="different geography"):
        apply_groupings(panels, {"combo": ("a", "b")})


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
