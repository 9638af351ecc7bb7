"""A mutation's new Dataset version keeps what the old one built and the
mutation cannot change, and answers as a version built from scratch.

with_assignment, without_assignment and with_object_carrier carry the
lookups, indexes and row views of the tables they leave alone, the route
ranges of every other subject, and the corridor tests into the new
version. Each derived version is compared with replace(derived), which
has the same records and empty caches; reading it must leave its
parent's caches as they were. The replay test counts the work the carry
saves.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import linkage, relstore, sessionctx, simharness
from vpdgate.relstore import TABLE_COLUMNS
from vpdgate.simharness import load_scenario, run_scenario

from randgen import FAR_POINT_POOL, random_dataset


def _reports(d) -> list[tuple]:
    """(subject, location, time) reports: every route end and a far point, at
    no time, at each departure and after every arrival."""
    points = [p for c in d.carriers for p in (c.origin.point, c.destination.point)]
    times = [None, *(c.departure for c in d.carriers),
             *(c.arrival.replace(year=c.arrival.year + 1) for c in d.carriers)]
    return [(s.name, p, t) for s in d.subjects for p in (*points, FAR_POINT_POOL[0])
            for t in times]


def _read(d, reports) -> dict:
    """Everything the checks compare, read through d's caches."""
    return {
        "index": {(t, c): d.index(t, c) for t, columns in TABLE_COLUMNS.items()
                  for c in columns},
        "verdicts": [linkage.route_verdict(*report, d) for report in reports],
        "assignments": {s.id: d.assignments_of(s.id) for s in d.subjects},
        "objects": d.object_by_id,
        "org": {s.name: (linkage.supervisors(s.name, d), linkage.subordinates_by_id(s.name, d))
                for s in d.subjects},
    }


def _caches(d) -> dict:
    """A copy of each cache d has built, deep enough to see a later change."""
    out = {}
    for name, value in vars(d).items():
        if name not in d.__dataclass_fields__:
            out[name] = dict(value) if isinstance(value, dict) else value
    return out


# One mutation: (kind, two numbers that pick its subject, carrier or objects).
_mutations = st.lists(st.tuples(st.sampled_from(["join", "leave", "handover"]),
                                st.integers(0, 99), st.integers(0, 99)), max_size=6)


def _mutate(d, kind: str, a: int, b: int):
    if kind == "join" and d.carriers:
        return d.with_assignment(d.subjects[a % len(d.subjects)].id,
                                 d.carriers[b % len(d.carriers)].id)
    if kind == "leave" and d.assignments:
        gone = d.assignments[a % len(d.assignments)]
        return d.without_assignment(gone.subject_id, gone.carrier_id)
    targets = [None, *(c.id for c in d.carriers)]
    return d.with_object_carrier(tuple(o.oid for o in d.objects[a % 3::2]),
                                 targets[b % len(targets)])


def _emptied(d) -> list:
    """(parent, derived) pairs: every assignment of the subject with the most
    left one at a time (the last leave takes that subject's last carrier),
    then every object handed over to no carrier."""
    pairs = []
    if d.assignments:
        subject_id = Counter(a.subject_id for a in d.assignments).most_common(1)[0][0]
        while d.assignments_of(subject_id):
            carrier_id = d.assignments_of(subject_id)[-1].carrier_id
            pairs.append((d, d.without_assignment(subject_id, carrier_id)))
            d = pairs[-1][1]
    pairs.append((d, d.with_object_carrier(tuple(o.oid for o in d.objects), None)))
    return pairs


def _check(parent, derived, reports) -> None:
    """derived answers as a version with its records and empty caches, and
    reading it leaves parent's caches as they were."""
    assert derived.subordinate_closures == {}
    before = _caches(parent)
    assert _read(derived, reports) == _read(replace(derived), reports)
    assert _caches(parent) == before


@given(st.integers(0, 10_000), _mutations, st.lists(st.booleans(), min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_a_derived_version_answers_as_a_fresh_one_and_leaves_its_parent_alone(seed, mutations,
                                                                               checked):
    d = random_dataset(random.Random(seed))
    reports = _reports(d)
    _read(d, reports)
    for step, (kind, a, b) in enumerate(mutations):
        derived = _mutate(d, kind, a, b)
        if checked[step]:  # else derived passes on only what it carried, unread
            _check(d, derived, reports)
        d = derived
    for parent, derived in _emptied(d):
        _check(parent, derived, reports)


# A small replay: queries between a join, a leave and a handover, each run
# by a subject whose session must not be opened per step.
COUNTED_STEPS = [
    {"at": "2010-07-02T00:00:00Z", "action": "move", "subject": "Victor",
     "lat": 31.2304, "lon": 121.4737},
    {"at": "2010-07-02T00:00:00Z", "action": "move", "subject": "Xavier",
     "lat": 47.6062, "lon": -122.3321},
    {"at": "2010-07-02T01:00:00Z", "action": "login", "subject": "Victor"},
    {"at": "2010-07-02T01:00:00Z", "action": "login", "subject": "Xavier"},
    {"at": "2010-07-02T01:00:00Z", "action": "login", "subject": "Zoe"},
    {"at": "2010-07-03T00:00:00Z", "action": "query", "subject": "Zoe",
     "text": "select * from object"},
    {"at": "2010-07-04T00:00:00Z", "action": "join", "subject": "Victor", "carrier": "truck1"},
    {"at": "2010-07-04T01:00:00Z", "action": "query", "subject": "Zoe",
     "text": "select * from object"},
    {"at": "2010-07-05T00:00:00Z", "action": "leave", "subject": "Xavier", "carrier": "ship1"},
    {"at": "2010-07-05T01:00:00Z", "action": "query", "subject": "Zoe",
     "text": "select * from object"},
    {"at": "2010-07-21T00:00:00Z", "action": "handover", "objects": ["g001"],
     "from": "ship1", "to": "truck1"},
    {"at": "2010-07-21T01:00:00Z", "action": "query", "subject": "Zoe",
     "text": "select * from object"},
]


def test_a_replay_opens_no_session_and_carries_corridor_tests_and_indexes(handover_dataset,
                                                                          monkeypatch):
    calls = Counter()
    step_of = []  # the action of each step applied so far
    builds = []  # (step number, table) of each index built

    real_open = sessionctx.open_session

    def open_session(*args, **kwargs):
        calls["open_session"] += 1
        return real_open(*args, **kwargs)

    for module in (sessionctx, simharness):
        if getattr(module, "open_session", None) is real_open:
            monkeypatch.setattr(module, "open_session", open_session)

    real_corridor = linkage.RouteRange.in_corridor

    def in_corridor(self, loc):
        calls[self.carrier_id, loc] += 1
        return real_corridor(self, loc)

    real_index = relstore.Dataset.index

    def index(self, table, column):
        if (table, column) not in self._indexes:
            builds.append((len(step_of), table))
        return real_index(self, table, column)

    real_apply = simharness._apply

    def apply(d, positions, logged_in, i, step, partial_log=()):
        step_of.append(step.action)
        return real_apply(d, positions, logged_in, i, step, partial_log)

    monkeypatch.setattr(linkage.RouteRange, "in_corridor", in_corridor)
    monkeypatch.setattr(relstore.Dataset, "index", index)
    monkeypatch.setattr(simharness, "_apply", apply)
    result = run_scenario(load_scenario({"name": "counted", "steps": COUNTED_STEPS}),
                          replace(handover_dataset))

    assert len(result.events) > 0 and len(result.query_results) == 4
    assert calls.pop("open_session", 0) == 0
    assert calls and max(calls.values()) == 1, calls  # one test per (carrier, location)
    built = {n: {table for step, table in builds if step == n} for n in range(len(step_of) + 1)}
    queries = [n for n, action in enumerate(step_of, start=1) if action == "query"]
    assert "object" in built[queries[0]]
    # A join or leave re-decides its subject, which reads the assignment
    # index before the query does: count from the mutation through the query.
    after = {step_of[n - 2]: built[n - 1] | built[n] for n in queries[1:]}
    assert after == {"join": {"assignment"}, "leave": {"assignment"}, "handover": {"object"}}
