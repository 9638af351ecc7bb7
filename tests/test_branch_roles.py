"""Rewritten branches keep their predicates by role.

A supervisor's subordinate branches and its closed form differ from its
own branches only in the rewrite's range gates and session identity; the
user's own conditions are copied verbatim, `sys_context` included. So a
VPD only ever shrinks the request, and the union and the closed form
agree whenever no subordinate is known-invalid.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vpdgate import engine, linkage
from vpdgate.lifecycle import build_vpd, check_validity
from vpdgate.queryir import evaluate, parse_query
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import parse_timestamp
from vpdgate.vpdrewrite import expand_supervisor, rewrite, subordinate_known_invalid

from conftest import MEXICO_CITY, MIAMI
from randgen import FAR_POINT_POOL, random_contexts, random_dataset

SESSION_USER = "select object.* from object, subject where subject.name = sys_context:session_user"


def test_user_range_condition_survives_in_subordinate_branches(fixture_dataset):
    # Charles rides t1 and reports from its destination inside its window;
    # Alice's only carrier, t5, is nowhere near Miami.
    d = fixture_dataset
    ctx = open_session("Charles", MIAMI, parse_timestamp("2010-09-10T12:00:00Z"), d)
    text = "select * from object where sys_context:l in range(Alice, location)"
    assert len(evaluate(parse_query(text), d, ctx)) == 0
    outcome = engine.run_query(d, ctx, text)
    assert outcome.state.valid and linkage.subordinates("Charles", d)
    assert len(outcome.rows) == 0


def test_session_user_condition_means_the_same_in_union_and_closed_form(fixture_dataset,
                                                                        chris_wired):
    d = fixture_dataset
    v = build_vpd(chris_wired, d, SESSION_USER)
    union, closed = evaluate(v.query, d, chris_wired), evaluate(v.closed_query, d, chris_wired)
    assert union.sorted_rows() == closed.sorted_rows() == ()  # Chris rides nothing
    ridden = d.with_assignment("s06", "t1")
    v = build_vpd(chris_wired, ridden, SESSION_USER)
    union = evaluate(v.query, ridden, chris_wired)
    assert union.sorted_rows() == evaluate(v.closed_query, ridden, chris_wired).sorted_rows()
    assert len(union) == 4  # t1's objects, through Chris's own branch only


def test_explain_reads_the_roles_not_the_request(fixture_dataset, chris_wired):
    trace = engine.explain(fixture_dataset, chris_wired, SESSION_USER)
    injected = trace.split("injected predicates:\n", 1)[1].split("\nexpansion:", 1)[0]
    assert injected.splitlines() == ["  subject.name = 'Chris'",
                                     "  subject.id = assignment.id",
                                     "  assignment.truck = object.truck"]
    union = trace.split("\nexpansion:\n", 1)[1].split("\nprovenance:", 1)[0].splitlines()
    assert union[2] == ("    SELECT object.* FROM subject, assignment, object "
                        "WHERE subject.name = 'Alice' AND subject.id = assignment.id "
                        "AND assignment.truck = object.truck "
                        "AND subject.name = sys_context:session_user")


@pytest.mark.parametrize("call", [
    lambda d, ctx, contexts: check_validity("Chris", ctx, d, "Strict", contexts),
    lambda d, ctx, contexts: expand_supervisor(
        "Chris", rewrite(parse_query("select * from object"), ctx, d), d,
        contexts=contexts, supervisor_mode="Strict"),
    lambda d, ctx, contexts: engine.run_query(d, ctx, supervisor_mode="Strict",
                                              contexts=contexts),
])
def test_unknown_supervisor_mode_is_refused(fixture_dataset, chris_wired, call):
    # Neither narrative (drop Parker) nor strict (revoke Chris): refused.
    contexts = {"Parker": open_session("Parker", MEXICO_CITY,
                                       parse_timestamp("2010-08-20T12:00:00Z"), fixture_dataset)}
    assert subordinate_known_invalid("Parker", fixture_dataset, contexts)
    with pytest.raises(ValueError, match="unknown supervisor mode: 'Strict'"):
        call(fixture_dataset, chris_wired, contexts)


# ---------------------------------------------------------------------------
# Property: the VPD shrinks the request; union and closed form agree
# ---------------------------------------------------------------------------

@st.composite
def _case(draw):
    """A randgen supervisor, wired or wireless, asking with user conditions on sys_context."""
    d = random_dataset(random.Random(draw(st.integers(0, 10_000))))
    supervisors = [s for s in d.subjects if linkage.subordinates(s.name, d)]
    assume(supervisors)
    s = draw(st.sampled_from(supervisors))
    other = draw(st.sampled_from([o.name for o in d.subjects if o.name != s.name]))
    session = draw(st.sampled_from(("wired", "on-route", "off-route")))
    conditions = ["subject.name = sys_context:session_user"]
    if session == "wired" or not d.carriers:  # a wired session reports no l or t
        ctx = open_session(s.name, None, None, d)
    else:
        conditions += [f"sys_context:l in range({other}, location)",
                       f"sys_context:t in range({other}, time)"]
        carrier = draw(st.sampled_from(d.carriers))
        d = d.with_assignment(s.id, carrier.id)
        point = carrier.waypoints[0] if session == "on-route" else FAR_POINT_POOL[0]
        ctx = open_session(s.name, point, carrier.departure, d)
    conditions = draw(st.lists(st.sampled_from(conditions), min_size=1, max_size=2,
                               unique=True))
    text = "select object.* from object, subject where " + " and ".join(conditions)
    contexts = random_contexts(random.Random(draw(st.integers(0, 100))), d)
    return (d, ctx, text, draw(st.sampled_from(linkage.CHAIN_MODES)),
            draw(st.sampled_from(linkage.SUPERVISOR_MODES)), contexts)


@given(_case())
@settings(max_examples=200, deadline=None)
def test_vpd_shrinks_the_request_and_both_forms_agree(case):
    d, ctx, text, chain, mode, contexts = case
    outcome = engine.run_query(d, ctx, text, chain_mode=chain, supervisor_mode=mode,
                               contexts=contexts)
    request = evaluate(parse_query(text), d, ctx)
    assert outcome.rows.schema == request.schema
    assert set(outcome.rows.rows) <= set(request.rows)
    vpd = outcome.vpd
    if not any(subordinate_known_invalid(sub, d, contexts)
               for sub in linkage.subordinates(ctx.user, d)):
        assert set(evaluate(vpd.query, d, ctx).rows) == \
            set(evaluate(vpd.closed_query, d, ctx).rows)
