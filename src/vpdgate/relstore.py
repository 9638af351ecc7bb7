"""In-memory relational store for the logistics tables and route geometry.

A Dataset holds the five tables (subject, assignment, carrier, object,
org_hierarchy) plus per-carrier route polylines and the schema manifest
(declared foreign keys, corridor width, waypoint overrides). Datasets are
immutable after load; every mutation helper returns a new version, so
unlimited concurrent readers are safe.

A subject, assignment, object or org_hierarchy record is a NamedTuple
whose fields follow TABLE_COLUMNS, so each record is also the query
evaluator's row: Dataset.table hands out the loaded records themselves.
Only carrier rows are a view, built once per version, because a
CarrierRecord holds places, waypoints and datetimes.

Each version builds its lookup structures lazily and keeps them: the
per-(table, column) hash indexes (Dataset.index), which the query
evaluator probes and linkage reads (a subject's assignments, the org
hierarchy walked down by ou and up by sub_ou, a unit's subjects by dept),
the three unique-key maps, the memo of each supervisor's subordinates
(Dataset.subordinate_closures), and the two memos of linkage.route_verdict:
each subject's route ranges (Dataset.route_ranges) and the bounded memo of
corridor tests, keyed by carrier and location but not by time
(Dataset.corridor_tests). Only org_hierarchy.ou's index is built at load,
by the cycle check; index buckets are shared, so no reader mutates one.
A mutation helper's new version starts with
what the old one built and the mutation cannot change: the structures of
the other tables, the route ranges of every subject but the one whose
assignment changed, and the corridor tests, since no mutation moves a
route or changes the manifest (incremental view maintenance). Everything
else, the subordinate memo included, starts empty, as does every cache of
a replace(d, manifest=...): a wider corridor is never answered from a
narrower one's tests.

Sources are either a directory of CSV files (one per table, headers in
lower_snake_case, plus geocode.csv mapping place names to coordinates and
an optional schema.json), a single JSON document with one array per
table, or an equivalent in-memory dict / JSON string. The CSV reader
turns its rows into that document form, so one builder (_from_doc) makes
the records of both and names a bad row by file and line or table and row.
Object dates are kept as ISO text (a text that is not a date is refused
at its row). Equal text values of the object table share one string
object, and equal date texts one ISO string: each distinct truck or date
text is read once.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import IntegrityError, ParseError, UnknownColumnError, UnknownTableError
from .geo import Point
from .timeutil import day_end, day_start, format_timestamp, parse_date, parse_timestamp

TABLE_COLUMNS: dict[str, tuple[str, ...]] = {
    "subject": ("id", "name", "title", "specialty", "dept"),
    "assignment": ("id", "truck"),
    "carrier": ("id", "origin", "destination", "departure", "arrival"),
    "object": ("oid", "name", "sender", "receiver", "truck",
               "origin", "destination", "ship_out", "receive_in"),
    "org_hierarchy": ("ou", "sub_ou"),
}


def table_columns(table: str) -> tuple[str, ...]:
    """A table's columns; UnknownTableError for a name not in TABLE_COLUMNS."""
    if table not in TABLE_COLUMNS:
        raise UnknownTableError(f"unknown table: {table!r}")
    return TABLE_COLUMNS[table]

DEFAULT_CORRIDOR_KM = 50.0

DEFAULT_FOREIGN_KEYS: tuple[tuple[str, str], ...] = (
    ("subject.id", "assignment.id"),
    ("assignment.truck", "object.truck"),
    ("subject.dept", "org_hierarchy.ou"),
)


@dataclass(frozen=True)
class SchemaManifest:
    """Declared join graph and route-corridor configuration."""

    foreign_keys: tuple[tuple[str, str], ...] = DEFAULT_FOREIGN_KEYS
    corridor_km: float = DEFAULT_CORRIDOR_KM
    waypoints: tuple[tuple[str, tuple[Point, ...]], ...] = ()

    def __post_init__(self):
        # Every way to a manifest (from_dict, replace, construction) passes here.
        if not 0 <= self.corridor_km < math.inf:  # False for NaN
            raise ParseError(f"must be a finite number >= 0, not {self.corridor_km!r}",
                             field="corridor_km")

    def waypoints_for(self, carrier_id: str) -> tuple[Point, ...] | None:
        for cid, points in self.waypoints:
            if cid == carrier_id:
                return points
        return None

    @staticmethod
    def from_dict(doc: dict) -> "SchemaManifest":
        """A manifest from its JSON form; malformed input is a ParseError naming the field."""
        if not isinstance(doc, dict):
            raise ParseError(f"a schema must be a JSON object, not {type(doc).__name__}")
        fks = _doc_rows(doc, "foreign_keys", lambda e: (e["from"], e["to"]))
        where = "waypoints"
        try:
            wps = tuple(
                (cid, tuple((float(lat), float(lon)) for lat, lon in pts))
                for cid, pts in sorted(doc.get("waypoints", {}).items())
            )
            where = "corridor_km"
            corridor_km = float(doc.get("corridor_km", DEFAULT_CORRIDOR_KM))
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(str(exc), field=where) from None
        return SchemaManifest(foreign_keys=fks or DEFAULT_FOREIGN_KEYS,
                              corridor_km=corridor_km, waypoints=wps)

    def to_dict(self) -> dict:
        return {
            "foreign_keys": [{"from": a, "to": b} for a, b in self.foreign_keys],
            "corridor_km": self.corridor_km,
            "waypoints": {cid: [list(p) for p in pts] for cid, pts in self.waypoints},
        }


@dataclass(frozen=True)
class Place:
    name: str
    lat: float
    lon: float

    @property
    def point(self) -> Point:
        return (self.lat, self.lon)


class SubjectRecord(NamedTuple):
    id: str
    name: str
    title: str
    specialty: str | None
    dept: str


class AssignmentRecord(NamedTuple):
    subject_id: str  # column id
    carrier_id: str  # column truck


@dataclass(frozen=True)
class CarrierRecord:
    id: str
    origin: Place
    destination: Place
    waypoints: tuple[Point, ...]
    departure: datetime
    arrival: datetime


class ObjectRecord(NamedTuple):
    oid: str
    name: str
    sender: str
    receiver: str
    carrier_id: str | None  # column truck
    origin: str
    destination: str
    ship_out: str | None  # ISO date text
    receive_in: str | None  # ISO date text


class OrgEdge(NamedTuple):
    ou: str
    sub_ou: str


@dataclass(frozen=True)
class Violation:
    table: str
    key: str
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.table}[{self.key}] {self.kind}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __iter__(self):
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)


@dataclass(frozen=True)
class Dataset:
    subjects: tuple[SubjectRecord, ...] = ()
    assignments: tuple[AssignmentRecord, ...] = ()
    carriers: tuple[CarrierRecord, ...] = ()
    objects: tuple[ObjectRecord, ...] = ()
    org_edges: tuple[OrgEdge, ...] = ()
    manifest: SchemaManifest = field(default_factory=SchemaManifest)

    @cached_property
    def subject_by_name(self) -> dict[str, SubjectRecord]:
        return {s.name: s for s in self.subjects}

    @cached_property
    def carrier_by_id(self) -> dict[str, CarrierRecord]:
        return {c.id: c for c in self.carriers}

    @cached_property
    def object_by_id(self) -> dict[str, ObjectRecord]:
        return {o.oid: o for o in self.objects}

    def assignments_of(self, subject_id: str) -> Sequence[AssignmentRecord]:
        """The subject's assignments in table order: its bucket of the
        assignment table's index on id, not to be mutated."""
        return self.index("assignment", "id").get(subject_id, ())

    @cached_property
    def _tables(self) -> dict[str, tuple[tuple, ...]]:
        return {
            "subject": self.subjects,
            "assignment": self.assignments,
            "carrier": tuple((c.id, c.origin.name, c.destination.name,
                              format_timestamp(c.departure), format_timestamp(c.arrival))
                             for c in self.carriers),
            "object": self.objects,
            "org_hierarchy": self.org_edges,
        }

    def table(self, name: str) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
        """Columns and rows of a table as seen by the query evaluator.

        Values are strings (timestamps/dates in ISO form) or None for
        absent fields. A subject, assignment, object or org_hierarchy row
        is the loaded record itself; only carrier rows are a view built
        from the records (place names and ISO timestamps).
        """
        return table_columns(name), self._tables[name]

    @cached_property
    def _indexes(self) -> dict[tuple[str, str], dict[object, list[tuple]]]:
        return {}

    def index(self, table: str, column: str) -> dict[object, list[tuple]]:
        """Rows of a table keyed by their value in one column.

        Each bucket holds its rows in table order; None is not a key, so
        an absent value finds no rows. The query evaluator probes the
        indexes and linkage reads them. An index is built on the first
        read of (table, column), org_hierarchy.ou's at load by the cycle
        check, and kept with this version. Buckets are shared by every
        reader and every version that carries them, so none is mutated.
        """
        key = (table, column)
        index = self._indexes.get(key)
        if index is None:
            columns, rows = self.table(table)
            if column not in columns:
                raise UnknownColumnError(f"no column {column!r} in {table!r}")
            i = columns.index(column)
            index = {}
            for r in rows:
                index.setdefault(r[i], []).append(r)
            index.pop(None, None)
            self._indexes[key] = index
        return index

    @cached_property
    def subordinate_closures(self) -> dict[str, tuple[frozenset[str], tuple[str, ...]]]:
        """Memo of linkage.subordinates on this version: subject name -> its
        subordinates' names as a set and in subject-id order; at most one
        entry per subject."""
        return {}

    @cached_property
    def route_ranges(self) -> dict[str, tuple]:
        """Memo of each subject's linkage.RouteRanges on this version: subject
        name -> one range per assignment, in assignment order; filled by
        linkage.route_verdict on the subject's first report, at most one
        entry per subject."""
        return {}

    @cached_property
    def corridor_tests(self) -> dict[tuple, bool]:
        """Memo of linkage.route_verdict's corridor test on this version:
        (carrier id, location) -> whether the location lies within the
        manifest's corridor of that carrier's route. Time is not part of
        the key: route_verdict tests windows per call. Filled and bounded
        there, for the lifecycle, supervisor expansion and range gates."""
        return {}

    # Mutation helpers used by the scenario runner; each returns a new version
    # that keeps what this one has built and the change cannot alter.

    def with_assignment(self, subject_id: str, carrier_id: str) -> "Dataset":
        return self._derived("assignment", self.assignments
                             + (AssignmentRecord(subject_id, carrier_id),), subject_id)

    def without_assignment(self, subject_id: str, carrier_id: str) -> "Dataset":
        kept = tuple(a for a in self.assignments
                     if not (a.subject_id == subject_id and a.carrier_id == carrier_id))
        return self._derived("assignment", kept, subject_id)

    def with_object_carrier(self, oids: tuple[str, ...], carrier_id: str | None) -> "Dataset":
        moved = frozenset(oids)
        return self._derived("object", tuple(o._replace(carrier_id=carrier_id)
                                             if o.oid in moved else o for o in self.objects))

    def _derived(self, table: str, rows: tuple, subject_id: str | None = None) -> "Dataset":
        """This version with `table` (assignment or object) holding `rows`.

        The new version starts with this one's lazily built structures of
        the other tables: their lookups, indexes and row views. A changed
        assignment of subject_id drops only that subject's route ranges. No
        mutation changes a route or the manifest, so the corridor tests
        stay true; they are kept while within linkage.VERDICT_MEMO_SIZE.
        A dict that later reads add to is copied, so this version never
        changes; subordinate_closures starts empty.
        """
        from .linkage import VERDICT_MEMO_SIZE  # linkage imports this module

        new = replace(self, **{_RECORDS[table]: rows})
        built, carried = self.__dict__, new.__dict__
        for name, source in _LOOKUP_SOURCES.items():
            if source != table and name in built:
                carried[name] = built[name]
        if "_tables" in built:
            carried["_tables"] = {**built["_tables"], table: rows}
        # Each copy is taken first: a reader may add to this version's dicts meanwhile.
        if "_indexes" in built:
            carried["_indexes"] = {key: index for key, index in dict(built["_indexes"]).items()
                                   if key[0] != table}
        if "route_ranges" in built:
            carried["route_ranges"] = {
                name: ranges for name, ranges in dict(built["route_ranges"]).items()
                if subject_id is None or self.subject_by_name[name].id != subject_id}
        if "corridor_tests" in built and len(built["corridor_tests"]) <= VERDICT_MEMO_SIZE:
            carried["corridor_tests"] = dict(built["corridor_tests"])
        return new


# The Dataset field that holds each table a mutation helper changes.
_RECORDS = {"assignment": "assignments", "object": "objects"}

# Each lazily built lookup of a Dataset, by the table it is built from.
_LOOKUP_SOURCES = {"subject_by_name": "subject", "carrier_by_id": "carrier",
                   "object_by_id": "object"}


def _absent(row: dict, key: str) -> str | None:
    """row[key], or None when it is missing, empty or "-"."""
    value = row.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, not {type(value).__name__}")
    value = value.strip()
    return None if value in ("", "-") else value


def _date(row: dict, key: str) -> str | None:
    """row[key] as an ISO date text; a text that is not a date raises."""
    value = _absent(row, key)
    return None if value is None else parse_date(value).isoformat()


def _read_once(read):
    """read(row, key), remembered per distinct string value of row[key]. Only
    a string read without error is remembered: any other value, and a text
    read refuses, is read (and refused) again at each row."""
    memo: dict = {}
    missing = object()

    def cached(row: dict, key: str):
        text = row.get(key)
        if type(text) is not str:
            return read(row, key)
        value = memo.get(text, missing)
        if value is missing:
            value = memo[text] = read(row, key)
        return value

    return cached


def _parse_bound(text: str, *, end_of_day: bool) -> datetime:
    try:
        if "T" in text or " " in text:
            return parse_timestamp(text)
        d = parse_date(text)
    except ValueError as exc:
        raise ValueError(f"bad timestamp {text!r}: {exc}") from None
    return day_end(d) if end_of_day else day_start(d)


def _read_csv(path: Path, expected: tuple[str, ...]) -> list[dict]:
    """The rows of a CSV file as dicts, each with its line number under "_line"."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = tuple(reader.fieldnames or ())
        if header != expected:
            raise ParseError(f"expected header {','.join(expected)}, got {','.join(header)}",
                             source=path.name, line=1)
        rows = []
        for i, row in enumerate(reader, start=2):
            if any(v is None for v in row.values()) or None in row:
                raise ParseError("wrong number of fields", source=path.name, line=i)
            row["_line"] = i
            rows.append(row)
        return rows


def _load_geocodes(path: Path) -> dict[str, dict]:
    """Place name -> its {name, lat, lon} form, as a JSON carrier row holds it."""
    if not path.exists():
        return {}
    out: dict[str, dict] = {}
    for row in _read_csv(path, ("name", "lat", "lon")):
        try:
            out[row["name"]] = {"name": row["name"], "lat": float(row["lat"]),
                                "lon": float(row["lon"])}
        except ValueError:
            raise ParseError("lat/lon must be decimal degrees",
                             source=path.name, line=row["_line"]) from None
    return out


def _from_csv_dir(root: Path) -> Dataset:
    """The CSV tables read into the JSON document form that _from_doc builds."""
    doc: dict = {name: _read_csv(root / f"{name}.csv", columns)
                 for name, columns in TABLE_COLUMNS.items() if (root / f"{name}.csv").exists()}
    if (root / "schema.json").exists():
        doc["schema"] = read_json(root / "schema.json")
    geocodes = _load_geocodes(root / "geocode.csv")
    for r in doc.get("carrier", ()):
        for field_name in ("origin", "destination"):
            if r[field_name] not in geocodes:
                raise IntegrityError(
                    f"carrier {r['id']!r}: no geocode for {field_name} {r[field_name]!r}")
            r[field_name] = geocodes[r[field_name]]
    return _from_doc(doc)


def _doc_rows(doc: dict, table: str, build) -> tuple:
    """build(row) for each row of doc[table], in order.

    A row that build cannot read (a missing key, a value of the wrong
    type or form) raises ParseError naming its file and line if it is a
    CSV row (which carries "_line"), else its table and index.
    """
    out, r = [], None
    try:
        for r in doc.get(table, ()):
            out.append(build(r))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        message = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        if isinstance(r, dict) and "_line" in r:
            raise ParseError(message, source=f"{table}.csv", line=r["_line"]) from None
        raise ParseError(message, source=table, field=f"row {len(out)}") from None
    return tuple(out)


def _place(doc: dict) -> Place:
    return Place(doc["name"], float(doc["lat"]), float(doc["lon"]))


def _check_text(table: str, records: tuple, **fields: str) -> None:
    """Refuse a text field (name=record attribute) that is not a string, as JSON
    may give, naming table, row and field. One type set per field keeps it cheap."""
    for name, attribute in fields.items():
        get = attrgetter(attribute)
        if set(map(type, map(get, records))) - {str}:
            n = next(n for n, r in enumerate(records) if type(get(r)) is not str)
            raise ParseError(f"{name} must be a string, not {type(get(records[n])).__name__}",
                             source=table, field=f"row {n}")


def _from_doc(doc: dict) -> Dataset:
    if not isinstance(doc, dict):
        raise ParseError(f"a dataset must be a JSON object, not {type(doc).__name__}")
    manifest = SchemaManifest.from_dict(doc["schema"]) if doc.get("schema") \
        else SchemaManifest()

    def carrier(r: dict) -> CarrierRecord:
        cid, origin, destination = r["id"], _place(r["origin"]), _place(r["destination"])
        departure = _parse_bound(r["departure"], end_of_day=False)
        arrival = _parse_bound(r["arrival"], end_of_day=True)
        points = tuple((float(lat), float(lon)) for lat, lon in r.get("waypoints", ()))
        return CarrierRecord(id=cid, origin=origin, destination=destination,
                             waypoints=points or manifest.waypoints_for(cid)
                             or (origin.point, destination.point),
                             departure=departure, arrival=arrival)

    subjects = _doc_rows(doc, "subject", lambda r: SubjectRecord(
        id=r["id"], name=r["name"], title=r.get("title", ""),
        specialty=_absent(r, "specialty"), dept=r["dept"]))
    assignments = _doc_rows(doc, "assignment", lambda r: AssignmentRecord(
        subject_id=r["id"], carrier_id=r["truck"]))
    carriers = _doc_rows(doc, "carrier", carrier)
    # Object columns repeat a few values (goods, subject and carrier ids,
    # places, dates) over many rows: keep one string per distinct value,
    # and read each distinct truck or date text once.
    keep = {}.setdefault

    def one(value):
        return keep(value, value) if type(value) is str else value

    truck = _read_once(lambda r, key: one(_absent(r, key)))
    day = _read_once(_date)
    objects = _doc_rows(doc, "object", lambda r: ObjectRecord(
        r["oid"], one(r["name"]), one(r["sender"]), one(r["receiver"]), truck(r, "truck"),
        one(r.get("origin", "")), one(r.get("destination", "")),
        day(r, "ship_out"), day(r, "receive_in")))
    org_edges = _doc_rows(doc, "org_hierarchy", lambda r: OrgEdge(ou=r["ou"], sub_ou=r["sub_ou"]))
    _check_text("subject", subjects, id="id", name="name", title="title", dept="dept")
    _check_text("assignment", assignments, id="subject_id", truck="carrier_id")
    _check_text("carrier", carriers, id="id", origin="origin.name",
                destination="destination.name")
    _check_text("object", objects, oid="oid", name="name", sender="sender",
                receiver="receiver", origin="origin", destination="destination")
    _check_text("org_hierarchy", org_edges, ou="ou", sub_ou="sub_ou")
    return Dataset(subjects=subjects, assignments=assignments, carriers=carriers,
                   objects=objects, org_edges=org_edges, manifest=manifest)


def read_json(path: Path):
    """The JSON document in a file; text that is not JSON is a ParseError
    naming the file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}", source=path.name) from None


def load_dataset(source: str | Path | dict) -> Dataset:
    """Load and validate a Dataset from a CSV directory, JSON file, JSON text or dict.

    Raises ParseError for malformed input and IntegrityError when any
    dataset invariant is violated.
    """
    if isinstance(source, dict):
        ds = _from_doc(source)
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", source="<text>") from None
        ds = _from_doc(doc)
    else:
        path = Path(source)
        if path.is_dir():
            ds = _from_csv_dir(path)
        elif path.exists():
            ds = _from_doc(read_json(path))
        else:
            raise ParseError(f"no such file or directory: {source}", source=str(source))

    report = validate_dataset(ds)
    if not report.ok:
        raise IntegrityError("; ".join(str(v) for v in report))
    return ds


def validate_dataset(d: Dataset) -> ValidationReport:
    """Check every dataset invariant; violations are data, not errors."""
    out: list[Violation] = []

    seen_ids: set[str] = set()
    seen_names: set[str] = set()
    for s in d.subjects:
        if s.id in seen_ids:
            out.append(Violation("subject", s.id, "duplicate-key", f"duplicate id {s.id!r}"))
        if s.name in seen_names:
            out.append(Violation("subject", s.id, "duplicate-key",
                                 f"duplicate name {s.name!r} (sessions key subjects by name)"))
        seen_ids.add(s.id)
        seen_names.add(s.name)

    carrier_ids: set[str] = set()
    for c in d.carriers:
        if c.id in carrier_ids:
            out.append(Violation("carrier", c.id, "duplicate-key", f"duplicate id {c.id!r}"))
        carrier_ids.add(c.id)
        if c.departure >= c.arrival:
            out.append(Violation("carrier", c.id, "temporal",
                                 f"departure {format_timestamp(c.departure)} is not before "
                                 f"arrival {format_timestamp(c.arrival)}"))
        if len(c.waypoints) < 2:
            out.append(Violation("carrier", c.id, "geometry", "fewer than 2 waypoints"))
        if c.waypoints and c.waypoints[0] != c.origin.point:
            out.append(Violation("carrier", c.id, "geometry",
                                 "first waypoint does not match the origin geocode"))
        if c.waypoints and c.waypoints[-1] != c.destination.point:
            out.append(Violation("carrier", c.id, "geometry",
                                 "last waypoint does not match the destination geocode"))
        for i in range(len(c.waypoints) - 1):
            if c.waypoints[i] == c.waypoints[i + 1]:
                out.append(Violation("carrier", c.id, "geometry",
                                     f"consecutive waypoints {i} and {i + 1} coincide"))
        for lat, lon in c.waypoints:
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                out.append(Violation("carrier", c.id, "geometry",
                                     f"waypoint ({lat}, {lon}) outside valid range"))

    subject_ids = {s.id for s in d.subjects}
    for a in d.assignments:
        if a.subject_id not in subject_ids:
            out.append(Violation("assignment", a.subject_id, "dangling-reference",
                                 f"assignment ({a.subject_id!r}, {a.carrier_id!r}) "
                                 f"references unknown subject {a.subject_id!r}"))
        if a.carrier_id not in carrier_ids:
            out.append(Violation("assignment", a.subject_id, "dangling-reference",
                                 f"assignment ({a.subject_id!r}, {a.carrier_id!r}) "
                                 f"references unknown carrier {a.carrier_id!r}"))

    seen_oids: set[str] = set()
    for o in d.objects:
        if o.oid in seen_oids:
            out.append(Violation("object", o.oid, "duplicate-key", f"duplicate oid {o.oid!r}"))
        seen_oids.add(o.oid)
        if o.carrier_id is not None and o.carrier_id not in carrier_ids:
            out.append(Violation("object", o.oid, "dangling-reference",
                                 f"object {o.oid!r} references unknown carrier {o.carrier_id!r}"))

    cycle = _find_org_cycle(d.index("org_hierarchy", "ou"))
    if cycle:
        out.append(Violation("org_hierarchy", cycle[0], "cycle",
                             "organizational units form a cycle: " + " -> ".join(cycle)))

    return ValidationReport(tuple(out))


def _find_org_cycle(edges: dict[str, list[OrgEdge]]) -> list[str] | None:
    """The first cycle of a depth-first walk in edge order over edges (the
    org_hierarchy index on ou), closed by its first unit; None when acyclic.
    The walk keeps its own stack, so no hierarchy depth reaches the
    recursion limit."""
    done: set[str] = set()
    for root in edges:
        if root in done:
            continue
        path, on_path, stack = [root], {root: 0}, [iter(edges[root])]
        while stack:
            for edge in stack[-1]:
                child = edge.sub_ou
                if child in on_path:
                    return path[on_path[child]:] + [child]
                if child not in done:
                    on_path[child] = len(path)
                    path.append(child)
                    stack.append(iter(edges.get(child, ())))
                    break
            else:
                stack.pop()
                node = path.pop()
                del on_path[node]
                done.add(node)
    return None


def dump_dataset(d: Dataset) -> str:
    """Serialize to the canonical JSON form; load(dump(d)) round-trips bit-identically."""
    doc = {
        "version": 1,
        "subject": [{"id": s.id, "name": s.name, "title": s.title,
                     "specialty": s.specialty or "-", "dept": s.dept}
                    for s in d.subjects],
        "assignment": [{"id": a.subject_id, "truck": a.carrier_id} for a in d.assignments],
        "carrier": [{"id": c.id,
                     "origin": {"name": c.origin.name, "lat": c.origin.lat, "lon": c.origin.lon},
                     "destination": {"name": c.destination.name, "lat": c.destination.lat,
                                     "lon": c.destination.lon},
                     "departure": format_timestamp(c.departure),
                     "arrival": format_timestamp(c.arrival),
                     "waypoints": [list(p) for p in c.waypoints]}
                    for c in d.carriers],
        "object": [{"oid": o.oid, "name": o.name, "sender": o.sender, "receiver": o.receiver,
                    "truck": o.carrier_id or "-", "origin": o.origin,
                    "destination": o.destination,
                    "ship_out": o.ship_out or "-", "receive_in": o.receive_in or "-"}
                   for o in d.objects],
        "org_hierarchy": [{"ou": e.ou, "sub_ou": e.sub_ou} for e in d.org_edges],
        "schema": d.manifest.to_dict(),
    }
    return json.dumps(doc, indent=2) + "\n"


def bundled_data_dir(name: str) -> Path:
    """Path of a dataset directory shipped with the package."""
    return Path(__file__).resolve().parent / "data" / name


def load_bundled(name: str = "logistics") -> Dataset:
    return load_dataset(bundled_data_dir(name))
