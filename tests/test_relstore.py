import json
import random
import shutil
import sys
from dataclasses import replace
from datetime import date

import pytest

from vpdgate import relstore
from vpdgate.errors import IntegrityError, ParseError
from vpdgate.relstore import dump_dataset, load_dataset, validate_dataset
from vpdgate.timeutil import parse_timestamp


def test_bundled_fixture_counts(fixture_dataset):
    d = fixture_dataset
    assert len(d.subjects) == 7
    assert len(d.assignments) == 4
    assert len(d.carriers) == 2
    assert len(d.objects) == 6
    assert len(d.org_edges) == 3
    assert d.subject_by_name["Peter"].id == "s15"
    assert d.object_by_id["o007"].carrier_id is None  # "-" maps to absent


def test_fixture_is_valid(fixture_dataset):
    assert validate_dataset(fixture_dataset).ok


def test_carrier_day_bounds(fixture_dataset):
    t1 = fixture_dataset.carrier_by_id["t1"]
    assert t1.departure == parse_timestamp("2010-08-11T00:00:00Z")
    assert t1.arrival == parse_timestamp("2010-09-15T23:59:59Z")
    assert t1.waypoints[0] == (49.2827, -123.1207)
    assert t1.waypoints[-1] == (25.7617, -80.1918)


def test_empty_tables_load():
    d = load_dataset("{}")
    assert d.subjects == () and d.objects == ()
    assert validate_dataset(d).ok


def test_dangling_assignment_named():
    doc = {
        "subject": [{"id": "s01", "name": "A", "title": "T", "dept": "X"}],
        "carrier": [{"id": "t1",
                     "origin": {"name": "O", "lat": 0.0, "lon": 0.0},
                     "destination": {"name": "D", "lat": 1.0, "lon": 1.0},
                     "departure": "2010-01-01", "arrival": "2010-01-05"}],
        "assignment": [{"id": "s99", "truck": "t1"}],
    }
    with pytest.raises(IntegrityError, match="s99"):
        load_dataset(doc)


def test_org_cycle_reported():
    doc = {"org_hierarchy": [{"ou": "A", "sub_ou": "B"}, {"ou": "B", "sub_ou": "A"}]}
    with pytest.raises(IntegrityError, match="cycle"):
        load_dataset(doc)
    d = relstore.Dataset(org_edges=(relstore.OrgEdge("A", "B"), relstore.OrgEdge("B", "A")))
    report = validate_dataset(d)
    assert len(report) == 1
    assert report.violations[0].kind == "cycle"


def _org_chain(levels: int, *, closed: bool) -> dict:
    """org_hierarchy u0 -> u1 -> ... of `levels` units, its bottom closed back to u0."""
    edges = [{"ou": f"u{k}", "sub_ou": f"u{k + 1}"} for k in range(levels - 1)]
    if closed:
        edges.append({"ou": f"u{levels - 1}", "sub_ou": "u0"})
    return {"org_hierarchy": edges}


def test_deep_org_chain_loads_and_a_cycle_at_its_bottom_is_reported(tmp_path, capsys):
    from vpdgate import cli

    d = load_dataset(_org_chain(1500, closed=False))
    assert len(d.org_edges) == 1499
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_org_chain(1500, closed=False)))
    assert cli.main(["load", "--data", str(path)]) == 0
    assert "org_edges: 1499" in capsys.readouterr().out

    doc = _org_chain(1500, closed=True)
    cycle = " -> ".join([f"u{k}" for k in range(1500)] + ["u0"])
    with pytest.raises(IntegrityError) as err:
        load_dataset(doc)
    assert str(err.value) == \
        f"org_hierarchy[u0] cycle: organizational units form a cycle: {cycle}"


def test_departure_not_before_arrival_reported(fixture_dataset):
    t1 = fixture_dataset.carrier_by_id["t1"]
    bad = relstore.Dataset(
        carriers=(relstore.CarrierRecord(
            id=t1.id, origin=t1.origin, destination=t1.destination,
            waypoints=t1.waypoints, departure=t1.arrival, arrival=t1.arrival),))
    report = validate_dataset(bad)
    assert [v.kind for v in report] == ["temporal"]


def test_duplicate_keys_reported(fixture_dataset):
    d = fixture_dataset
    dup = relstore.Dataset(subjects=d.subjects + (d.subjects[0],))
    kinds = [v.kind for v in validate_dataset(dup)]
    assert kinds.count("duplicate-key") == 2  # id and name both collide


def test_canonical_round_trip(fixture_dataset):
    text = dump_dataset(fixture_dataset)
    again = load_dataset(text)
    assert dump_dataset(again) == text
    assert again.subject_by_name.keys() == fixture_dataset.subject_by_name.keys()


def test_random_deletion_surfaces_violation(fixture_dataset):
    rng = random.Random(7)
    for _ in range(25):
        d = fixture_dataset
        if rng.random() < 0.5:
            victim = rng.choice([a.subject_id for a in d.assignments])
            broken = relstore.Dataset(
                subjects=tuple(s for s in d.subjects if s.id != victim),
                assignments=d.assignments, carriers=d.carriers,
                objects=d.objects, org_edges=d.org_edges, manifest=d.manifest)
        else:
            victim = rng.choice([a.carrier_id for a in d.assignments])
            broken = relstore.Dataset(
                subjects=d.subjects, assignments=d.assignments,
                carriers=tuple(c for c in d.carriers if c.id != victim),
                objects=d.objects, org_edges=d.org_edges, manifest=d.manifest)
        report = validate_dataset(broken)
        assert any(v.kind == "dangling-reference" and victim in v.message for v in report)
        with pytest.raises(IntegrityError):
            load_dataset(dump_dataset(broken))


def test_csv_bad_header_is_parse_error(tmp_path):
    (tmp_path / "subject.csv").write_text("id,name\n")
    with pytest.raises(ParseError, match="subject.csv"):
        load_dataset(tmp_path)


def test_missing_geocode_is_integrity_error(tmp_path):
    (tmp_path / "carrier.csv").write_text(
        "id,origin,destination,departure,arrival\n"
        "t1,Nowhere,Elsewhere,2010-01-01,2010-01-02\n")
    with pytest.raises(IntegrityError, match="Nowhere"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name", ["logistics", "handover"])
def test_csv_load_equals_the_load_of_its_json_dump(name):
    d = relstore.load_bundled(name)
    assert d == load_dataset(dump_dataset(d))


def _bundled_copy(tmp_path, table: str, line: int, column: str, value: str):
    """The bundled logistics CSV directory with one field of table.csv replaced."""
    root = tmp_path / "logistics"
    shutil.copytree(relstore.bundled_data_dir("logistics"), root)
    path = root / f"{table}.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[line - 1].split(",")
    fields[header.index(column)] = value
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return root


@pytest.mark.parametrize("table, column, value", [
    ("object", "ship_out", "2010-13-45"),
    ("carrier", "departure", "soon"),
], ids=["bad-date", "bad-departure"])
def test_malformed_csv_row_is_parse_error_naming_file_and_line(tmp_path, table, column, value):
    root = _bundled_copy(tmp_path, table, 3, column, value)
    with pytest.raises(ParseError) as err:
        load_dataset(root)
    assert str(err.value).startswith(f"{table}.csv:3: ")


def test_table_view_exposes_strings(fixture_dataset):
    cols, rows = fixture_dataset.table("carrier")
    assert cols == ("id", "origin", "destination", "departure", "arrival")
    t1 = next(r for r in rows if r[0] == "t1")
    assert t1[3] == "2010-08-11T00:00:00Z"
    cols, rows = fixture_dataset.table("subject")
    alice = next(r for r in rows if r[1] == "Alice")
    assert alice[3] is None  # "-" specialty


def test_repeated_object_values_share_one_string():
    # json.loads gives each occurrence its own str; the loader keeps one.
    doc = json.loads(dump_dataset(relstore.load_bundled("logistics")))
    doc["object"] += [dict(row, oid=f"copy-{n}") for n, row in enumerate(doc["object"])]
    d = load_dataset(json.loads(json.dumps(doc)))
    for column in ("name", "sender", "receiver", "carrier_id", "origin", "destination"):
        seen = {}
        for o in d.objects:
            value = getattr(o, column)
            if value is not None:
                assert seen.setdefault(value, value) is value, column


def test_mutation_helpers_produce_new_versions(fixture_dataset):
    d2 = fixture_dataset.with_assignment("s15", "t5")
    assert len(d2.assignments) == len(fixture_dataset.assignments) + 1
    assert len(fixture_dataset.assignments) == 4
    d3 = d2.without_assignment("s15", "t5")
    assert len(d3.assignments) == 4
    d4 = fixture_dataset.with_object_carrier(("o001",), "t5")
    assert d4.object_by_id["o001"].carrier_id == "t5"
    assert fixture_dataset.object_by_id["o001"].carrier_id == "t1"


def test_waypoints_must_span_origin_to_destination():
    doc = {
        "carrier": [{"id": "t9",
                     "origin": {"name": "A", "lat": 0.0, "lon": 0.0},
                     "destination": {"name": "B", "lat": 0.0, "lon": 20.0},
                     "departure": "2010-01-01", "arrival": "2010-01-10",
                     "waypoints": [[3.0, 3.0], [0.0, 20.0]]}],
    }
    with pytest.raises(IntegrityError, match="first waypoint"):
        load_dataset(doc)


def _carrier(**changes) -> dict:
    row = {"id": "t1", "origin": {"name": "O", "lat": 0.0, "lon": 0.0},
           "destination": {"name": "D", "lat": 1.0, "lon": 1.0},
           "departure": "2010-01-01", "arrival": "2010-01-05"}
    return {**row, **changes}


GOLD = {"oid": "o1", "name": "Gold", "sender": "s1", "receiver": "s2"}


@pytest.mark.parametrize("table, rows, message", [
    ("subject", [{"id": "s1", "name": "A", "dept": "X"}, {"id": "s2", "dept": "X"}],
     "subject (row 1): missing key 'name'"),
    ("carrier", [_carrier(origin={"name": "O", "lat": "north", "lon": 0.0})],
     "carrier (row 0): could not convert string to float: 'north'"),
    ("object", [GOLD, {**GOLD, "oid": "o2", "ship_out": "2010-13-45"}],
     "object (row 1): "),  # the rest is date.fromisoformat's, which varies by version
    ("carrier", [_carrier(), _carrier(id="t2", departure="soon")],
     "carrier (row 1): bad timestamp 'soon'"),
    ("carrier", [_carrier(destination="Oslo")], "carrier (row 0): string indices"),
    ("org_hierarchy", [{"ou": "A", "sub_ou": "B"}, {"ou": ["x"], "sub_ou": "y"}],
     "org_hierarchy (row 1): ou must be a string, not list"),
    ("subject", [{"id": "s1", "name": 7, "dept": "X"}],
     "subject (row 0): name must be a string, not int"),
    ("object", [GOLD, {**GOLD, "oid": "o2", "truck": 5}],
     "object (row 1): truck must be a string, not int"),
], ids=["missing-key", "non-numeric-coordinate", "bad-date", "bad-timestamp",
        "non-object-origin", "list-ou", "number-name", "number-truck"])
def test_malformed_json_row_is_parse_error_naming_table_and_row(table, rows, message):
    with pytest.raises(ParseError) as err:
        load_dataset({table: rows})
    assert str(err.value).startswith(message)
    assert err.value.source == table


def test_json_dataset_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(ParseError, match="must be a JSON object"):
        load_dataset(path)


@pytest.mark.parametrize("schema, message", [
    ({"foreign_keys": [{"from": "subject.id", "to": "assignment.id"}, {"to": "object.truck"}]},
     r"^foreign_keys \(row 1\): missing key 'from'$"),
    ({"foreign_keys": ["subject.id"]}, r"^foreign_keys \(row 0\): "),
    ({"corridor_km": "wide"}, r"^corridor_km: could not convert string to float: 'wide'$"),
    ({"waypoints": {"t1": [[49.2, -123.1], [25.7]]}}, r"^waypoints: "),
    ({"waypoints": [[49.2, -123.1]]}, r"^waypoints: "),
    (["subject.id"], r"^a schema must be a JSON object, not list$"),
], ids=["fk-missing-from", "fk-not-an-object", "corridor-not-a-number",
        "waypoint-not-a-pair", "waypoints-not-an-object", "schema-not-an-object"])
def test_malformed_manifest_names_the_field(schema, message):
    with pytest.raises(ParseError, match=message):
        relstore.SchemaManifest.from_dict(schema)


@pytest.mark.parametrize("width", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-9])
def test_a_corridor_width_that_is_not_a_finite_number_at_least_0_is_refused(width):
    message = rf"^corridor_km: must be a finite number >= 0, not {width!r}$"
    with pytest.raises(ParseError, match=message):
        relstore.SchemaManifest(corridor_km=width)
    with pytest.raises(ParseError, match=message):
        replace(relstore.SchemaManifest(), corridor_km=width)
    assert relstore.SchemaManifest(corridor_km=0.0).corridor_km == 0.0
    assert relstore.SchemaManifest.from_dict({"corridor_km": 0}).corridor_km == 0.0


def _goods(n: int, **changes) -> dict:
    return {**GOLD, "oid": f"o{n}", "truck": "-", **changes}


def test_a_repeated_malformed_date_is_reported_at_its_first_row():
    rows = [_goods(n, ship_out="2010-01-02") for n in range(9)]
    for n in (3, 7):
        rows[n]["ship_out"] = "2010-13-45"
    with pytest.raises(ParseError) as err:
        load_dataset({"object": rows})
    assert str(err.value).startswith("object (row 3): ")
    rows[3]["ship_out"] = ["2010-01-02"]  # a text read before does not excuse a non-string
    rows[7]["ship_out"] = "2010-01-02"
    with pytest.raises(ParseError) as err:
        load_dataset({"object": rows})
    assert str(err.value).startswith("object (row 3): ship_out must be a string, not list")


def test_repeated_date_and_truck_texts_load_equal_records():
    texts = ["2010-01-02", " 2010-01-02 ", "2010-02-03", "-", ""]
    rows = [_goods(n, truck=["t1", " t1", "-"][n % 3], ship_out=texts[n % 5],
                   receive_in=texts[(n + 2) % 5]) for n in range(15)]
    carriers = [_carrier()]
    d = load_dataset({"object": rows, "carrier": carriers})

    def day(text):
        text = text.strip()
        return None if text in ("", "-") else date.fromisoformat(text).isoformat()

    assert d.objects == tuple(
        relstore.ObjectRecord(r["oid"], r["name"], r["sender"], r["receiver"],
                              None if r["truck"] == "-" else r["truck"].strip(), "", "",
                              day(r["ship_out"]), day(r["receive_in"])) for r in rows)
    # Equal date texts share one ISO string, in either column.
    shared = {}
    for r, o in zip(rows, d.objects):
        for text, value in ((r["ship_out"], o.ship_out), (r["receive_in"], o.receive_in)):
            assert shared.setdefault(text, value) is value


@pytest.mark.skipif(sys.version_info < (3, 11), reason="date.fromisoformat reads basic form from 3.11")
def test_a_basic_form_date_reads_as_iso_text_everywhere():
    d = load_dataset({"object": [_goods(1, ship_out="20100802")]})
    columns, rows = d.table("object")
    at = columns.index("ship_out")
    assert str(d.objects[0].ship_out) == "2010-08-02"
    assert rows[0][at] == "2010-08-02"
    assert json.loads(dump_dataset(d))["object"][0]["ship_out"] == "2010-08-02"


@pytest.mark.parametrize("table, records", [
    ("subject", "subjects"), ("assignment", "assignments"),
    ("object", "objects"), ("org_hierarchy", "org_edges"),
])
def test_a_record_table_is_its_own_row_view(fixture_dataset, table, records):
    d = fixture_dataset
    rows = d.table(table)[1]
    assert rows is getattr(d, records)
    assert all(len(r) == len(relstore.TABLE_COLUMNS[table]) == len(type(r)._fields)
               for r in rows)


def test_with_object_carrier_changes_only_the_carrier(fixture_dataset):
    d = fixture_dataset
    moved = d.with_object_carrier(("o007", "o001"), "t5")
    truck = relstore.TABLE_COLUMNS["object"].index("truck")
    assert moved.table("object")[1] is moved.objects
    for before, after in zip(d.objects, moved.objects):
        expected = "t5" if before.oid in ("o007", "o001") else before.carrier_id
        assert after == before._replace(carrier_id=expected)
        assert after[truck] == expected
    assert [r.oid for r in moved.index("object", "truck")["t5"]] == ["o001", "o005", "o007"]
    assert d.object_by_id["o001"].carrier_id == "t1"  # the old version is unchanged
