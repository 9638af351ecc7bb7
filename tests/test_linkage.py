import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MEXICO_CITY, MIAMI, VANCOUVER
from vpdgate import linkage
from vpdgate.errors import NoChainError, UnknownSubjectError
from vpdgate.queryir import ColEqCol, ColEqContext, ColumnRef
from vpdgate.relstore import Dataset, OrgEdge, SubjectRecord, load_dataset
from vpdgate.timeutil import parse_timestamp

TS = parse_timestamp


def test_location_range_parker(fixture_dataset):
    ranges = linkage.location_range("Parker", fixture_dataset)
    assert len(ranges) == 1
    r = ranges[0]
    assert r.carrier_id == "t1"
    assert r.polyline == (VANCOUVER, MIAMI)
    assert r.t_b == TS("2010-08-11T00:00:00Z")
    assert r.t_e == TS("2010-09-15T23:59:59Z")
    assert r.corridor_km == 50.0


def test_location_range_unassigned(fixture_dataset):
    assert linkage.location_range("Chris", fixture_dataset) == []
    with pytest.raises(UnknownSubjectError):
        linkage.location_range("nobody", fixture_dataset)


def test_location_range_charles(fixture_dataset):
    # Charles holds the (s05, t1) assignment in the bundled data.
    ranges = linkage.location_range("Charles", fixture_dataset)
    assert [r.carrier_id for r in ranges] == ["t1"]


def test_in_range_midpoint(fixture_dataset, t1_midpoint):
    [r] = linkage.location_range("Parker", fixture_dataset)
    assert r.distance_km(t1_midpoint) < 1e-6
    assert linkage.in_range(t1_midpoint, TS("2010-08-20T12:00:00Z"), r)


def test_in_range_bounds_inclusive(fixture_dataset):
    [r] = linkage.location_range("Parker", fixture_dataset)
    assert linkage.in_range(VANCOUVER, TS("2010-08-11T00:00:00Z"), r)
    assert linkage.in_range(MIAMI, TS("2010-09-15T23:59:59Z"), r)
    assert not linkage.in_range(MIAMI, TS("2010-09-16T00:00:00Z"), r)
    assert not linkage.in_range(VANCOUVER, TS("2010-08-10T23:59:59Z"), r)
    assert not linkage.in_range(MEXICO_CITY, TS("2010-08-20T12:00:00Z"), r)


def test_in_range_after_arrival_anywhere(fixture_dataset):
    [r] = linkage.location_range("Parker", fixture_dataset)
    assert not linkage.in_range((0.0, 0.0), TS("2010-09-20T00:00:00Z"), r)


def test_corridor_monotone(fixture_dataset):
    [r] = linkage.location_range("Parker", fixture_dataset)
    rng = random.Random(5)
    t = TS("2010-08-20T12:00:00Z")
    for _ in range(200):
        loc = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        narrow = linkage.in_range(loc, t, r)
        wide = linkage.RouteRange(r.carrier_id, r.polyline, r.t_b, r.t_e,
                                  r.corridor_km * 3)
        if narrow:
            assert linkage.in_range(loc, t, wide)


def test_workflow_chain_to_object(fixture_dataset):
    chain = linkage.workflow("object", fixture_dataset)
    assert chain.tables == ("subject", "assignment", "object")
    assert chain.predicates == (
        ColEqCol(ColumnRef("subject", "id"), ColumnRef("assignment", "id")),
        ColEqCol(ColumnRef("assignment", "truck"), ColumnRef("object", "truck")),
    )


def test_workflow_chain_trivial_and_single_edge(fixture_dataset):
    assert linkage.workflow("subject", fixture_dataset).predicates == ()
    chain = linkage.workflow("org_hierarchy", fixture_dataset)
    assert chain.predicates == (
        ColEqCol(ColumnRef("subject", "dept"), ColumnRef("org_hierarchy", "ou")),)


def test_workflow_unreachable(fixture_dataset):
    with pytest.raises(NoChainError):
        linkage.workflow("carrier", fixture_dataset)


def test_organization(fixture_dataset):
    org = linkage.organization
    assert org("Parker", "Chris", fixture_dataset)
    assert org("Parker", "Charles", fixture_dataset)
    assert not org("Chris", "Parker", fixture_dataset)
    assert not org("Parker", "Parker", fixture_dataset)
    assert not org("Alice", "Bob", fixture_dataset)  # same dept, not subordinate


def test_subordinates(fixture_dataset):
    assert linkage.subordinates("Chris", fixture_dataset) == {"Alice", "Bob", "Parker"}
    assert linkage.subordinates("Parker", fixture_dataset) == set()
    assert linkage.subordinates("Charles", fixture_dataset) == \
        {"Chris", "Adam", "Alice", "Bob", "Parker"}


def test_supervisors_ordered_nearest_first(fixture_dataset):
    assert linkage.supervisors("Parker", fixture_dataset) == ["Chris", "Charles"]


def test_link_workflow(fixture_dataset):
    tables, [branch] = linkage.link("object", "workflow", fixture_dataset)
    chain = linkage.workflow("object", fixture_dataset)
    assert tables == chain.tables == ("subject", "assignment", "object")
    assert branch[0] == ColEqContext(ColumnRef("subject", "name"), "session_user")
    assert branch[1:] == chain.predicates


def test_link_specialty(fixture_dataset):
    tables, [branch] = linkage.link("object", "specialty", fixture_dataset)
    assert tables == ("subject", "object")
    assert branch[1] == ColEqCol(ColumnRef("subject", "specialty"),
                                 ColumnRef("object", "name"))


def test_link_direct_two_branches(fixture_dataset):
    tables, branches = linkage.link("object", "direct", fixture_dataset)
    assert tables == ("subject", "object")
    assert len(branches) == 2
    assert branches[0][1] == ColEqCol(ColumnRef("subject", "id"),
                                      ColumnRef("object", "sender"))
    assert branches[1][1] == ColEqCol(ColumnRef("subject", "id"),
                                      ColumnRef("object", "receiver"))


def test_ranges_pair_up(fixture_dataset):
    d = fixture_dataset
    for s in d.subjects:
        carriers = [d.carrier_by_id[a.carrier_id] for a in d.assignments_of(s.id)]
        assert [(r.carrier_id, r.t_b, r.t_e) for r in linkage.location_range(s.name, d)] == \
            [(c.id, c.departure, c.arrival) for c in carriers]


# ---------------------------------------------------------------------------
# Org DAG properties on random hierarchies
# ---------------------------------------------------------------------------

@st.composite
def _org_datasets(draw):
    n_ous = draw(st.integers(2, 7))
    ous = [f"U{i}" for i in range(n_ous)]
    edges = set()
    # Edges only from lower index to higher: acyclic by construction.
    for child in range(1, n_ous):
        for parent in range(child):
            if draw(st.booleans()):
                edges.add((ous[parent], ous[child]))
    subjects = tuple(
        SubjectRecord(id=f"p{i:02d}", name=f"Sub{i}", title="T",
                      specialty=None, dept=draw(st.sampled_from(ous)))
        for i in range(draw(st.integers(2, 6))))
    return Dataset(subjects=subjects,
                   org_edges=tuple(OrgEdge(a, b) for a, b in sorted(edges)))


@given(_org_datasets())
@settings(max_examples=80, deadline=None)
def test_organization_is_strict_partial_order(d):
    names = [s.name for s in d.subjects]
    for a in names:
        assert not linkage.organization(a, a, d)
    for a in names:
        for b in names:
            if a == b:
                continue
            if linkage.organization(a, b, d):
                assert not linkage.organization(b, a, d)  # antisymmetric on a DAG
            for c in names:
                if linkage.organization(a, b, d) and linkage.organization(b, c, d):
                    assert linkage.organization(a, c, d)


def _closure_walk(d: Dataset, ou: str) -> set[str]:
    """Units below ou: an independent DFS over the edges, no Dataset cache."""
    children = {}
    for e in d.org_edges:
        children.setdefault(e.ou, []).append(e.sub_ou)
    seen, stack = set(), list(children.get(ou, ()))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(children.get(node, ()))
    return seen


@given(_org_datasets())
@settings(max_examples=80, deadline=None)
def test_subordinates_matches_definition(d):
    for s in d.subjects:
        expected = {o.name for o in d.subjects if o.dept in _closure_walk(d, s.dept)}
        assert linkage.subordinates(s.name, d) == expected
        assert expected == {o.name for o in d.subjects
                            if linkage.organization(o.name, s.name, d)}


@given(_org_datasets(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_subordinate_memo_equals_the_closure_walk_in_subject_id_order(d, rnd):
    ids = [s.id for s in d.subjects]
    rnd.shuffle(ids)  # subject-id order differs from name order
    d = replace(d, subjects=tuple(s._replace(id=i) for s, i in zip(d.subjects, ids)))
    by_id = sorted(d.subjects, key=lambda s: s.id)
    for s in d.subjects:
        expected = {o.name for o in d.subjects if o.dept in _closure_walk(d, s.dept)}
        for _ in range(2):  # the second answer comes from the memo
            assert linkage.subordinates(s.name, d) == expected
            assert linkage.subordinates_by_id(s.name, d) == \
                tuple(o.name for o in by_id if o.name in expected)
        assert s.name in d.subordinate_closures


def test_subordinate_closure_is_walked_once_per_dataset_version(fixture_dataset,
                                                                monkeypatch):
    walks = []
    real = linkage._levels
    monkeypatch.setattr(linkage, "_levels",
                        lambda ou, *args: walks.append(ou) or real(ou, *args))
    d = replace(fixture_dataset)  # a version of its own, with an empty memo
    for _ in range(3):
        linkage.subordinates("Charles", d)
        linkage.subordinates_by_id("Charles", d)
    assert walks == ["Operation"]


@pytest.mark.parametrize("mutate", [
    lambda d: d.with_assignment("s06", "t1"),
    lambda d: d.without_assignment("s04", "t1"),
    lambda d: d.with_object_carrier(("o001",), "t5"),
])
def test_a_new_dataset_version_starts_with_an_empty_subordinate_memo(fixture_dataset, mutate):
    d = replace(fixture_dataset)
    linkage.subordinates("Chris", d)
    assert set(d.subordinate_closures) == {"Chris"}
    assert mutate(d).subordinate_closures == {}


def test_a_caller_cannot_change_a_later_subordinate_answer(fixture_dataset):
    d = replace(fixture_dataset)
    names, order = linkage.subordinates("Chris", d), linkage.subordinates_by_id("Chris", d)
    with pytest.raises(AttributeError):
        names.add("Mallory")
    with pytest.raises(AttributeError):
        order.append("Mallory")
    names |= {"Mallory"}  # rebinds the caller's name only
    assert linkage.subordinates("Chris", d) == {"Alice", "Bob", "Parker"}
    assert linkage.subordinates_by_id("Chris", d) == ("Alice", "Bob", "Parker")


def _reference_supervisors(s: str, d: Dataset) -> list[str]:
    """Per-subject ranking: downward edge distance from each other subject's dept."""
    children = {}
    for e in d.org_edges:
        children.setdefault(e.ou, []).append(e.sub_ou)

    def levels(ou):
        out, seen = [], {ou}
        current = {c for c in children.get(ou, ()) if c != ou}
        while current:
            out.append(set(current))
            seen.update(current)
            current = {c for node in current for c in children.get(node, ()) if c not in seen}
        return out

    def distance(s1, s2):
        a, b = d.subject_by_name[s1], d.subject_by_name[s2]
        for depth, level in enumerate(levels(b.dept), start=1):
            if a.dept in level:
                return depth
        return None

    ranked = [(distance(s, other.name), other.name) for other in d.subjects
              if other.name != s and distance(s, other.name) is not None]
    return [name for _, name in sorted(ranked)]


@given(_org_datasets())
@settings(max_examples=150, deadline=None)
def test_supervisors_match_per_subject_distance_ranking(d):
    for s in d.subjects:
        assert linkage.supervisors(s.name, d) == _reference_supervisors(s.name, d)


def test_manifest_waypoint_override():
    doc = {
        "subject": [{"id": "s1", "name": "Ann", "title": "Driver", "dept": "Ops"}],
        "assignment": [{"id": "s1", "truck": "t9"}],
        "carrier": [{"id": "t9",
                     "origin": {"name": "A", "lat": 0.0, "lon": 0.0},
                     "destination": {"name": "B", "lat": 0.0, "lon": 20.0},
                     "departure": "2010-01-01", "arrival": "2010-01-10"}],
        "schema": {"corridor_km": 10.0,
                   "waypoints": {"t9": [[0.0, 0.0], [5.0, 10.0], [0.0, 20.0]]}},
    }
    d = load_dataset(doc)
    [r] = linkage.location_range("Ann", d)
    assert r.polyline == ((0.0, 0.0), (5.0, 10.0), (0.0, 20.0))
    assert r.corridor_km == 10.0
    detour = (5.0, 10.0)
    assert linkage.in_range(detour, TS("2010-01-05T00:00:00Z"), r)
    # Without the override the detour apex is far outside the 10 km corridor.
    direct = linkage.RouteRange(r.carrier_id, ((0.0, 0.0), (0.0, 20.0)),
                                r.t_b, r.t_e, r.corridor_km)
    assert not linkage.in_range(detour, TS("2010-01-05T00:00:00Z"), direct)


def test_corridor_km_argument_overrides_manifest(fixture_dataset):
    # The CLI's --corridor-km overrides the manifest, the one source of the width.
    manifest = replace(fixture_dataset.manifest, corridor_km=2000.0)
    wide = linkage.location_range("Parker", replace(fixture_dataset, manifest=manifest))
    assert wide[0].corridor_km == 2000.0
    assert linkage.in_range(MEXICO_CITY, TS("2010-08-20T12:00:00Z"), wide[0])


def test_workflow_chain_is_computed_once_per_manifest(fixture_dataset, monkeypatch):
    linkage._chain.cache_clear()
    built = []
    fk_graph = linkage._fk_graph

    def counting(foreign_keys):
        built.append(foreign_keys)
        return fk_graph(foreign_keys)

    monkeypatch.setattr(linkage, "_fk_graph", counting)
    d = fixture_dataset
    chain = linkage.workflow("object", d)
    assert chain == linkage.JoinChain(
        (ColEqCol(ColumnRef("subject", "id"), ColumnRef("assignment", "id")),
         ColEqCol(ColumnRef("assignment", "truck"), ColumnRef("object", "truck"))),
        ("subject", "assignment", "object"))
    # A derived version shares the manifest, so it reuses the chain.
    derived = d.with_assignment("s04", "t5")
    assert linkage.workflow("object", derived) is chain
    assert linkage.link("object", "workflow", derived)[0] == chain.tables
    assert linkage.workflow("org_hierarchy", derived).tables == ("subject", "org_hierarchy")
    assert len(built) == 2  # one graph per chain computed: object, org_hierarchy
    for _ in range(2):
        with pytest.raises(NoChainError):
            linkage.workflow("carrier", d)
    assert len(built) == 4  # a missing chain is not cached
    # Another manifest gets its own chains.
    wider = replace(d, manifest=replace(d.manifest, foreign_keys=d.manifest.foreign_keys
                                        + (("assignment.truck", "carrier.id"),)))
    assert linkage.workflow("carrier", wider).tables == ("subject", "assignment", "carrier")
    assert linkage.workflow("object", wider) == chain
    assert built[4:] == [wider.manifest.foreign_keys] * 2
