"""The memos: parse per query text, rewrite template per Select shape
(FROM list and projection, no literal), column scope per FROM list and
projection.

A warm memo must not change any outcome or explain text, must never keep
a failure, must hold one entry per Select shape whatever the number of
subjects, and must stay within its bound.
"""

from __future__ import annotations

import random
import sys
from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import engine, linkage, queryir, vpdrewrite
from vpdgate.errors import UnknownColumnError, UnknownSubjectError, UnsupportedFeatureError, \
    VpdGateError
from vpdgate.queryir import ColumnRef, TableRef, parse_query, render_query
from vpdgate.relstore import TABLE_COLUMNS, load_dataset
from vpdgate.sessionctx import SessionContext, open_session
from vpdgate.vpdrewrite import HEAD_OF_OU_POLICY, rewrite

from randgen import BASE_TIME, CITIES, crossed_contexts, random_contexts, random_dataset

TEXTS = (
    "select * from object",
    "select oid, name from object where name = 'Timber'",  # a user condition
    "select o.oid, o.name from object o where o.name = 'Steel'",  # an alias
    "select object.name from object union select object.oid from object",  # a UNION
    "select s.name, o.oid from subject s, object o where o.sender = s.id",
)


def clear_memos() -> None:
    queryir.parse_query.cache_clear()
    queryir._columns.cache_clear()
    vpdrewrite._templates.clear()


def _observed(d, ctx, text, kwargs, *, cold: bool = False) -> tuple:
    """Everything a request returns and explains, or the error it raises;
    cold clears every memo before each call."""
    try:
        if cold:
            clear_memos()
        outcome = engine.run_query(d, ctx, text, **kwargs)
    except VpdGateError as exc:
        return ("raises", type(exc).__name__, str(exc))
    vpd = outcome.vpd
    closed = vpd.closed_query
    if cold:
        clear_memos()
    return (outcome.state, outcome.rows.schema, outcome.rows.rows, render_query(vpd.query),
            None if closed is None else render_query(closed), vpd.provenance,
            outcome.entailed, outcome.witness, engine.explain(d, ctx, text, **kwargs))


@st.composite
def _request(draw):
    d = random_dataset(random.Random(draw(st.integers(0, 10_000))))
    contexts = (crossed_contexts if draw(st.booleans()) else random_contexts)(
        random.Random(draw(st.integers(0, 100))), d)
    supervisors = [s.name for s in d.subjects if linkage.subordinates(s.name, d)]
    names = supervisors if supervisors and draw(st.booleans()) else [s.name for s in d.subjects]
    sessions = {s.name: contexts.get(s.name) or open_session(s.name, None, None, d,
                                                             session_id=f"w-{s.id}",
                                                             opened_at=BASE_TIME)
                for s in d.subjects}
    kwargs = dict(chain_mode=draw(st.sampled_from(linkage.CHAIN_MODES)),
                  supervisor_mode=draw(st.sampled_from(linkage.SUPERVISOR_MODES)),
                  contexts=contexts,
                  policies=draw(st.sampled_from(((), (HEAD_OF_OU_POLICY,)))))
    return d, sessions, draw(st.sampled_from(names)), draw(st.sampled_from(TEXTS)), kwargs


@given(_request())
@settings(max_examples=300, deadline=None)
def test_warm_memos_change_no_outcome_and_no_explain_text(case):
    d, sessions, name, text, kwargs = case
    cold = _observed(d, sessions[name], text, kwargs, cold=True)
    # Warm every memo with the other subjects' requests of the same shape,
    # wired and wireless, so the request reuses what they left.
    clear_memos()
    for other, ctx in sessions.items():
        if other != name:
            _observed(d, ctx, text, kwargs)
    assert _observed(d, sessions[name], text, kwargs) == cold


def _people(n: int):
    """n field subjects on one carrier, no hierarchy."""
    a, b = CITIES[0], CITIES[1]
    return load_dataset({
        "subject": [{"id": f"p{i:03d}", "name": f"Person{i}", "title": "Driver",
                     "specialty": "Timber", "dept": "Field"} for i in range(n)],
        "assignment": [{"id": f"p{i:03d}", "truck": "c1"} for i in range(n)],
        "carrier": [{"id": "c1", "origin": {"name": a[0], "lat": a[1], "lon": a[2]},
                     "destination": {"name": b[0], "lat": b[1], "lon": b[2]},
                     "departure": "2010-08-01T00:00:00Z", "arrival": "2010-08-09T00:00:00Z"}],
        "object": [{"oid": f"o{i}", "name": "Timber", "sender": "p000", "receiver": "p001",
                    "truck": "c1", "origin": "-", "destination": "-", "ship_out": "-",
                    "receive_in": "-"} for i in range(4)],
        "org_hierarchy": [],
    })


def test_two_hundred_subjects_leave_one_entry_per_shape():
    d = _people(200)
    carrier = d.carriers[0]
    clear_memos()
    text = "select oid, name from object where name = 'Timber'"
    for s in d.subjects:
        wired = open_session(s.name, None, None, d)
        wireless = open_session(s.name, carrier.waypoints[0], carrier.departure, d)
        assert len(engine.run_query(d, wired, text).rows) == 4
        assert len(engine.run_query(d, wireless, text).rows) == 4
    assert queryir.parse_query.cache_info().currsize == 1
    assert queryir._columns.cache_info().currsize == 1
    assert len(vpdrewrite._templates) == 2  # one wired, one wireless
    for key in vpdrewrite._templates:
        tables, projection, mode, foreign_keys, wireless = key
        assert tables == (TableRef("object"),) and mode == "workflow"
        assert projection == (ColumnRef(None, "oid"), ColumnRef(None, "name"))
        assert foreign_keys == d.manifest.foreign_keys and isinstance(wireless, bool)


def test_distinct_literals_share_one_template():
    """The template key is the Select's FROM list and projection: a
    condition's literal is bound per request, so it is not part of it."""
    d = _people(2)
    ctx = open_session("Person0", None, None, d)
    clear_memos()
    for i in range(40):
        name = "Timber" if i % 2 else f"G{i}"
        outcome = engine.run_query(d, ctx, f"select oid, name from object where name = '{name}'")
        assert len(outcome.rows) == (4 if i % 2 else 0)
        assert outcome.vpd.provenance[-1] == "user-conditions:1"
        assert render_query(outcome.vpd.query).endswith(f"object.name = '{name}'")
    assert queryir.parse_query.cache_info().currsize == 21
    assert len(vpdrewrite._templates) == 1
    assert "Timber" not in repr(vpdrewrite._templates)


def test_user_union_wider_than_the_recursion_limit():
    """No memo key holds the user's UNION, so hashing one never recurses
    through it."""
    d = _people(2)
    ctx = open_session("Person0", None, None, d)
    width = sys.getrecursionlimit() + 200
    text = " union ".join(f"select oid from object where name = 'G{i % 3}'"
                          for i in range(width - 1)) + " union select oid from object"
    clear_memos()
    for _ in range(2):  # cold, then warm
        outcome = engine.run_query(d, ctx, text)
        assert sorted(outcome.rows.rows) == [(f"o{i}",) for i in range(4)]
        assert outcome.vpd.provenance.count("union-request") == width - 1
        trace = engine.explain(d, ctx, text)
        assert "verdict: GRANTED" in trace
    assert len(vpdrewrite._templates) == 1


def test_no_memo_grows_past_its_bound():
    d = _people(2)
    ctx = open_session("Person0", None, None, d)
    clear_memos()
    bound = max(queryir.PARSE_MEMO_SIZE, queryir.SCOPE_MEMO_SIZE, vpdrewrite.TEMPLATE_MEMO_SIZE)
    # Distinct texts, templates and projections: a distinct column triple each.
    triples = islice(permutations(TABLE_COLUMNS["object"], 3), bound + 50)
    for i, columns in enumerate(triples):
        engine.run_query(d, ctx, f"select {', '.join(columns)} from object o "
                                 f"where o.name = 'G{i}'")
        assert queryir.parse_query.cache_info().currsize <= queryir.PARSE_MEMO_SIZE
        assert queryir._columns.cache_info().currsize <= queryir.SCOPE_MEMO_SIZE
        assert len(vpdrewrite._templates) <= vpdrewrite.TEMPLATE_MEMO_SIZE
    assert queryir.parse_query.cache_info().currsize == queryir.PARSE_MEMO_SIZE
    assert queryir._columns.cache_info().currsize == queryir.SCOPE_MEMO_SIZE


def test_unknown_subject_raises_after_its_shape_is_warm():
    d = _people(2)
    carrier = d.carriers[0]
    q = parse_query("select * from object")
    for location, timestamp in ((None, None), (carrier.waypoints[0], carrier.departure)):
        known = open_session("Person0", location, timestamp, d)
        rewrite(q, known, d)
        unknown = SessionContext(session_id="x", user="Nobody", location=location,
                                 timestamp=timestamp, opened_at=BASE_TIME)
        with pytest.raises(UnknownSubjectError):
            rewrite(q, unknown, d)
        with pytest.raises(UnknownSubjectError):
            engine.run_query(d, unknown, q)


@pytest.mark.parametrize("text, error, kept", [
    ("select nosuch from object", UnknownColumnError, 0),
    # The shape is valid and kept; its condition is qualified per request.
    ("select * from object where nosuch = 'x'", UnknownColumnError, 1),
    ("select * from object a, object b", UnsupportedFeatureError, 0),
])
def test_a_query_that_fails_to_rewrite_raises_every_time(text, error, kept):
    d = _people(2)
    ctx = open_session("Person0", None, None, d)
    clear_memos()
    for _ in range(3):
        with pytest.raises(error):
            engine.run_query(d, ctx, text)
        assert len(vpdrewrite._templates) == kept
