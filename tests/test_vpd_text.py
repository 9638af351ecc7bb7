"""What `vpdgate vpd` prints is a query vpdgate evaluates to the same rows.

A generated VPD, its query and a supervisor's closed form, must render
to text that parses back to a query that renders to the same text and
evaluates to the same rows under the request's own context. The
property runs over randgen datasets, with subject names that are not
identifiers or are keywords, every chain mode, both supervisor modes,
wired and wireless sessions (on and off route), and user literals that
need quoting or that are numbers.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import engine, linkage
from vpdgate.queryir import evaluate, parse_query, render_query
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import parse_timestamp

from conftest import MIAMI, VANCOUVER
from randgen import FAR_POINT_POOL, GOODS, midpoint, random_contexts, random_dataset

# Each {} is one user literal, inserted as text.
TEMPLATES = (
    "select * from object where object.name = {}",
    "select oid, name from object where name = {} and destination = {}",
    "select object.oid from object where oid = {} union select object.name from object "
    "where name = {}",
    "select object.* from object, subject where subject.name = sys_context:session_user "
    "and subject.specialty = {}",
    "select * from object where truck in (select truck from assignment where id = {})",
)

# Strings that need quoting: quotes, keywords, separators, other scripts.
AWKWARD = ("O'Brien", "''", "a UNION select * from object", "x AND y = 'z'", " ", "",
           "sys_context:session_user", "Timber; drop", "Ærø 東京", "line\nbreak")


def _quoted(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


_string = st.one_of(st.sampled_from(GOODS + ["p01", "c1", "-"]), st.sampled_from(AWKWARD),
                    st.text(alphabet=st.sampled_from("ab' ;(),.=-*\n"), max_size=8))
# Numbers as a user types them: integers, and decimals far below and above 1.
_number = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.builds(lambda zeros, digits: f"0.{'0' * zeros}{digits}",
              st.integers(0, 25), st.integers(1, 999)),
    st.builds(lambda digits, zeros: f"-{digits}{'0' * zeros}.5",
              st.integers(1, 999), st.integers(0, 25)),
)
_literal = st.one_of(_string.map(_quoted), _number)


@st.composite
def _request(draw):
    d = random_dataset(random.Random(draw(st.integers(0, 10_000))), awkward_names=True)
    s = draw(st.sampled_from(d.subjects))
    contexts = random_contexts(random.Random(draw(st.integers(0, 100))), d)
    session = draw(st.sampled_from(("wired", "on-route", "off-route")))
    if session == "wired" or not d.carriers:
        ctx = open_session(s.name, None, None, d)
    else:
        carrier = draw(st.sampled_from(d.carriers))
        d = d.with_assignment(s.id, carrier.id)
        point = carrier.waypoints[0] if session == "on-route" else FAR_POINT_POOL[0]
        ctx = open_session(s.name, point, carrier.departure, d)
    template = draw(st.sampled_from(TEMPLATES))
    text = template.format(*(draw(_literal) for _ in range(template.count("{}"))))
    kwargs = dict(chain_mode=draw(st.sampled_from(linkage.CHAIN_MODES)),
                  supervisor_mode=draw(st.sampled_from(linkage.SUPERVISOR_MODES)),
                  contexts=contexts)
    return d, ctx, text, kwargs


@given(_request())
@settings(max_examples=200, deadline=None)
def test_vpd_text_parses_back_to_a_query_with_the_same_text_and_rows(case):
    d, ctx, text, kwargs = case
    vpd = engine.run_query(d, ctx, text, **kwargs).vpd
    for q in (vpd.query, vpd.closed_query):
        if q is None:
            continue
        printed = render_query(q)
        reparsed = parse_query(printed)
        assert render_query(reparsed) == printed
        assert evaluate(reparsed, d, ctx).rows == evaluate(q, d, ctx).rows



def test_a_range_gate_whose_subject_is_not_an_identifier_parses_back(fixture_dataset):
    """Parker renamed Parker Lee, on route in the t1 window: the gate quotes the
    name, and the text parses back to the same query and rows."""
    d = replace(fixture_dataset, subjects=tuple(
        s._replace(name="Parker Lee") if s.name == "Parker" else s
        for s in fixture_dataset.subjects))
    ctx = open_session("Parker Lee", midpoint(VANCOUVER, MIAMI),
                       parse_timestamp("2010-08-20T12:00:00Z"), d)
    outcome = engine.run_query(d, ctx, "select * from object")
    assert outcome.state.valid and len(outcome.rows.rows) == 4
    printed = render_query(outcome.vpd.query)
    assert "IN range('Parker Lee', location)" in printed
    reparsed = parse_query(printed)
    assert reparsed == outcome.vpd.query
    assert evaluate(reparsed, d, ctx).rows == outcome.rows.rows
