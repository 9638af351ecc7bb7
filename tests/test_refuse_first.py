"""A refused request does no join.

engine.run_query decides the verdict first and materializes the VPD only
for a granted request, or inside entails when a constraint policy must
check the rows. A refused request returns no rows with the schema its
VPD would have, derived from the VPD's Selects (vpdrewrite.vpd_schema).
These tests count the joins, pin the schema to the granted request's,
pin the declared change (a WHERE clause that fails only when evaluated
no longer raises for a refused request), and check the outcome and the
explain text against the order the pipeline used before: materialize,
entail, then blank. explain prints no rows, so it joins only when a
constraint policy must check them. A refused strict supervisor builds
nothing from its subordinates (no groups, no pinned Select, no verdict
outside the validity check), and reading its VPD afterwards gives what
an eager expansion built.
"""

from __future__ import annotations

import random
import traceback
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import engine, lifecycle, linkage, queryir, vpdrewrite
from vpdgate.errors import VpdGateError
from vpdgate.lifecycle import DENIED, GRANTED, REVOKED, build_vpd, check_validity
from vpdgate.queryir import RowSet, parse_query, render_query, union_branches
from vpdgate.relstore import TABLE_COLUMNS, load_dataset
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import parse_timestamp
from vpdgate.vpdrewrite import (HEAD_OF_OU_POLICY, DomainPolicy, entails, materialize,
                                rewrite)

from conftest import MEXICO_CITY, MIAMI
from randgen import crossed_contexts, random_contexts, random_dataset
from test_grouped_vpd import QUERIES, _expected_union_text, _wide_org

AUG_20 = parse_timestamp("2010-08-20T12:00:00Z")  # inside t1's window
SEP_1 = parse_timestamp("2010-09-01T00:00:00Z")  # inside t1's window, after t5's
SEP_20 = parse_timestamp("2010-09-20T00:00:00Z")  # after t1's arrival
ANCHORAGE = (61.2181, -149.9003)  # on t5's route, ~2000 km from t1's

OBJECT_SCHEMA = tuple(f"object.{c}" for c in TABLE_COLUMNS["object"])

REQUESTS = (
    ("select * from object", "workflow"),
    ("select oid, name from object where name = 'Gold'", "direct"),
    ("select object.name from object union select object.oid from object", "specialty"),
)


def _counted(monkeypatch):
    """Calls of materialize and of the one-Select evaluator, while patched."""
    calls = {"materialize": 0, "select": 0}
    real_materialize, real_select = vpdrewrite.materialize, queryir._select

    def materialize_(*args, **kwargs):
        calls["materialize"] += 1
        return real_materialize(*args, **kwargs)

    def select_(*args, **kwargs):
        calls["select"] += 1
        return real_select(*args, **kwargs)

    monkeypatch.setattr(vpdrewrite, "materialize", materialize_)
    monkeypatch.setattr(engine, "materialize", materialize_)
    monkeypatch.setattr(queryir, "_select", select_)
    return calls


CASES = ("out-of-route", "out-of-time", "crossed", "no-assignment", "strict-revoked")


def _refused_case(d, name):
    """(dataset, session, run_query keywords) refused and the same subject granted,
    and the refusal's state and reason."""
    crossed = d.with_assignment("s04", "t5")  # Parker rides t1 and t5
    t1_start = d.carrier_by_id["t1"].waypoints[0]
    parker_on = open_session("Parker", t1_start, AUG_20, d)
    parker_off = {"Parker": open_session("Parker", MEXICO_CITY, AUG_20, d)}
    chris = open_session("Chris", None, None, d)
    return {
        "out-of-route": (d, open_session("Parker", MEXICO_CITY, AUG_20, d), {},
                         parker_on, {}, REVOKED, "out-of-route"),
        "out-of-time": (d, open_session("Parker", t1_start, SEP_20, d), {},
                        parker_on, {}, REVOKED, "out-of-time"),
        "crossed": (crossed, open_session("Parker", ANCHORAGE, SEP_1, crossed), {},
                    open_session("Parker", t1_start, AUG_20, crossed), {},
                    REVOKED, "out-of-route"),
        "no-assignment": (d, open_session("Adam", MIAMI, SEP_1, d), {},
                          open_session("Adam", None, None, d), {}, DENIED, "no-assignment"),
        "strict-revoked": (d, chris, {"supervisor_mode": "strict", "contexts": parker_off},
                           chris, {"supervisor_mode": "narrative", "contexts": parker_off},
                           REVOKED, "strict-subordinate-invalid"),
    }[name]


@pytest.mark.parametrize("case", CASES)
def test_refused_request_does_no_join_and_keeps_the_granted_schema(fixture_dataset,
                                                                   monkeypatch, case):
    d, refused, refused_kw, granted, granted_kw, state, reason = \
        _refused_case(fixture_dataset, case)
    for text, chain in REQUESTS:
        allowed = engine.run_query(d, granted, text, chain_mode=chain, **granted_kw)
        assert allowed.state.state == GRANTED

        calls = _counted(monkeypatch)
        outcome = engine.run_query(d, refused, text, chain_mode=chain, **refused_kw)
        monkeypatch.undo()
        assert calls == {"materialize": 0, "select": 0}
        assert (outcome.state.state, outcome.state.reason) == (state, reason)
        assert outcome.rows == RowSet(allowed.rows.schema, ())
        assert (outcome.entailed, outcome.witness) == (True, None)


def _first_row(v, rows, d, contexts):
    """A constraint every non-empty VPD violates, so that witnesses are compared too."""
    return rows.rows[0] if rows.rows else None


def test_refused_request_with_constraint_policies_is_joined_once_and_keeps_its_witness(
        fixture_dataset, monkeypatch):
    d = fixture_dataset
    chris = open_session("Chris", None, None, d)
    contexts = {"Parker": open_session("Parker", MEXICO_CITY, AUG_20, d)}
    monkeypatch.setitem(vpdrewrite.CONSTRAINT_CHECKS, "first-row", _first_row)
    first_row = DomainPolicy(id="first-row", constraint="first-row")
    calls = _counted(monkeypatch)
    outcome = engine.run_query(d, chris, "select * from object", supervisor_mode="strict",
                               contexts=contexts, policies=(HEAD_OF_OU_POLICY, first_row))
    assert calls["materialize"] == 1
    assert outcome.state.state == REVOKED and outcome.rows == RowSet(OBJECT_SCHEMA, ())
    assert outcome.entailed is False and outcome.witness is not None


@pytest.mark.parametrize("mode, state", [("narrative", GRANTED), ("strict", REVOKED)])
def test_explain_joins_only_for_a_constraint_policy(fixture_dataset, monkeypatch, mode, state):
    d = fixture_dataset
    chris = open_session("Chris", None, None, d)
    contexts = {"Parker": open_session("Parker", MEXICO_CITY, AUG_20, d)}
    kwargs = dict(supervisor_mode=mode, contexts=contexts)
    for policies, joins in (((), 0), ((HEAD_OF_OU_POLICY,), 1)):
        calls = _counted(monkeypatch)
        text = engine.explain(d, chris, "select * from object", policies=policies, **kwargs)
        monkeypatch.undo()
        assert calls["materialize"] == joins
        assert f"verdict: {state} " in text and "entailment: satisfied" in text
        outcome = engine.run_query(d, chris, "select * from object", policies=policies,
                                   **kwargs)
        assert outcome.state.state == state and outcome.entailed


# ---------------------------------------------------------------------------
# A refused strict supervisor builds nothing from its subordinates
# ---------------------------------------------------------------------------

AUG_5 = parse_timestamp("2010-08-05T00:00:00Z")  # inside every carrier window of _wide_org


def _wide_org_with_lead():
    """_wide_org with a leaf-tier manager, Lead, over Unit1 (Field1, Field51, ...)."""
    doc = _wide_org()
    doc["subject"].append({"id": "q0", "name": "Lead", "title": "Manager",
                           "specialty": "-", "dept": "Lead-unit"})
    doc["org_hierarchy"] += [{"ou": "Root", "sub_ou": "Lead-unit"},
                             {"ou": "Lead-unit", "sub_ou": "Unit1"}]
    return load_dataset(doc)


def test_refused_strict_supervisor_builds_nothing_from_its_subordinates(monkeypatch):
    d = _wide_org_with_lead()
    contexts = {"Field1": open_session("Field1", MEXICO_CITY, AUG_5, d)}  # rides c1, off route
    real_groups, real_select = vpdrewrite._union_groups, vpdrewrite.Branch.select
    real_invalid = vpdrewrite.subordinate_known_invalid
    for who in ("Boss", "Lead"):
        subs = linkage.subordinates_by_id(who, d)
        ctx = open_session(who, None, None, d)
        groups_built, pinned, deciders = [], [], []

        def groups_(*args):
            groups_built.append(args)
            return real_groups(*args)

        def select_(branch, name=None, gated=True):
            pinned.append(name)
            return real_select(branch, name, gated)

        def invalid_(s, d, contexts):
            deciders.append({frame.name for frame in traceback.extract_stack()})
            return real_invalid(s, d, contexts)

        monkeypatch.setattr(vpdrewrite, "_union_groups", groups_)
        monkeypatch.setattr(vpdrewrite.Branch, "select", select_)
        monkeypatch.setattr(vpdrewrite, "subordinate_known_invalid", invalid_)
        monkeypatch.setattr(lifecycle, "subordinate_known_invalid", invalid_)
        outcome = engine.run_query(d, ctx, "select * from object", supervisor_mode="strict",
                                   contexts=contexts)
        monkeypatch.undo()

        assert (outcome.state.state, outcome.state.reason) == \
            (REVOKED, "strict-subordinate-invalid")
        assert outcome.rows == RowSet(OBJECT_SCHEMA, ())
        assert groups_built == [] and not set(pinned) & set(subs)
        assert deciders and all("check_validity" in names and "expand_supervisor" not in names
                                for names in deciders)

        # Read afterwards, the VPD is the one an eager expansion built.
        base = rewrite(parse_query("select * from object"), ctx, d)
        assert outcome.vpd.provenance == base.provenance + (
            "supervisor:strict", f"subordinates:{','.join(subs)}")
        assert [(sel, list(pin[1]), pin[0]) for sel, pin in outcome.vpd.groups] == \
            [(sel, [who, *subs], 0) for sel in union_branches(base.query)]
        assert render_query(outcome.vpd.query) == _expected_union_text(base, d, who)


def test_narrative_vpd_keeps_the_verdicts_of_the_map_it_was_built_under(fixture_dataset):
    d = fixture_dataset
    chris = open_session("Chris", None, None, d)
    contexts = {"Parker": open_session("Parker", MEXICO_CITY, AUG_20, d)}
    outcome = engine.run_query(d, chris, "select * from object", contexts=contexts)
    built = build_vpd(chris, d, "select * from object", contexts=dict(contexts))
    contexts.clear()  # the caller's map changes after the request returned
    assert "dropped-invalid:Parker" in outcome.vpd.provenance
    assert outcome.vpd.provenance == built.provenance
    assert render_query(outcome.vpd.query) == render_query(built.query)
    assert outcome.vpd.groups == built.groups


# ---------------------------------------------------------------------------
# Declared change: a refused request is not evaluated, so it does not raise
# ---------------------------------------------------------------------------

TWO_COLUMN_SUBQUERY = "select * from object where oid in (select oid, name from object)"
MIXED_ARITY = "select object.oid from object union select object.oid, object.name from object"


def test_revoked_request_whose_where_fails_only_when_evaluated_is_refused(fixture_dataset):
    d = fixture_dataset
    chris = open_session("Chris", None, None, d)
    contexts = {"Parker": open_session("Parker", MEXICO_CITY, AUG_20, d)}
    outcome = engine.run_query(d, chris, TWO_COLUMN_SUBQUERY, supervisor_mode="strict",
                               contexts=contexts)
    assert (outcome.state.state, outcome.rows) == (REVOKED, RowSet(OBJECT_SCHEMA, ()))
    # Granted, or joined for a constraint policy, the WHERE clause still fails.
    with pytest.raises(VpdGateError, match="IN subquery must project exactly one column"):
        engine.run_query(d, chris, TWO_COLUMN_SUBQUERY, supervisor_mode="narrative",
                         contexts=contexts)
    with pytest.raises(VpdGateError, match="IN subquery must project exactly one column"):
        engine.run_query(d, chris, TWO_COLUMN_SUBQUERY, supervisor_mode="strict",
                         contexts=contexts, policies=(HEAD_OF_OU_POLICY,))


@pytest.mark.parametrize("who", ["chris-strict", "chris-narrative", "parker-off", "parker-on"])
def test_union_of_different_arity_raises_whatever_the_verdict(fixture_dataset, who):
    d = fixture_dataset
    contexts = {"Parker": open_session("Parker", MEXICO_CITY, AUG_20, d)}
    ctx, mode = {
        "chris-strict": (open_session("Chris", None, None, d), "strict"),
        "chris-narrative": (open_session("Chris", None, None, d), "narrative"),
        "parker-off": (contexts["Parker"], "narrative"),
        "parker-on": (open_session("Parker", d.carrier_by_id["t1"].waypoints[0], AUG_20, d),
                      "narrative"),
    }[who]
    with pytest.raises(VpdGateError, match="UNION branches have different arity: 1 vs 2"):
        engine.run_query(d, ctx, MIXED_ARITY, supervisor_mode=mode, contexts=contexts)
    with pytest.raises(VpdGateError, match="UNION branches have different arity: 1 vs 2"):
        engine.explain(d, ctx, MIXED_ARITY, supervisor_mode=mode, contexts=contexts)


@pytest.mark.parametrize("mode, state", [("narrative", GRANTED), ("strict", REVOKED)])
def test_explain_does_not_evaluate_the_where_clause(fixture_dataset, mode, state):
    """Declared: explain does no join without a constraint policy, so a
    WHERE clause that fails only when evaluated does not raise there,
    granted or refused; with a policy it is joined and raises."""
    d = fixture_dataset
    chris = open_session("Chris", None, None, d)
    contexts = {"Parker": open_session("Parker", MEXICO_CITY, AUG_20, d)}
    text = engine.explain(d, chris, TWO_COLUMN_SUBQUERY, supervisor_mode=mode,
                          contexts=contexts)
    assert f"verdict: {state} " in text
    with pytest.raises(VpdGateError, match="IN subquery must project exactly one column"):
        engine.explain(d, chris, TWO_COLUMN_SUBQUERY, supervisor_mode=mode,
                       contexts=contexts, policies=(HEAD_OF_OU_POLICY,))


# ---------------------------------------------------------------------------
# Equivalence with the materialize-entail-blank order
# ---------------------------------------------------------------------------

def _materialize_then_blank(d, ctx, query=None, *, chain_mode="workflow",
                            supervisor_mode="narrative", contexts=None, policies=()):
    """run_query as it was before refusing first: every VPD joined, then blanked."""
    if isinstance(query, str):
        query = parse_query(query)
    state = check_validity(ctx.user, ctx, d, supervisor_mode, contexts)
    vpd = build_vpd(ctx, d, query, chain_mode=chain_mode,
                    supervisor_mode=supervisor_mode, contexts=contexts)
    rows = materialize(vpd, d, ctx)
    entailed, witness = entails(policies, vpd, d, ctx, contexts=contexts, rows=rows)
    if not state.valid:
        rows = RowSet(rows.schema, ())
    return engine.QueryOutcome(state=state, vpd=vpd, rows=rows, entailed=entailed,
                               witness=witness)


def _decide_joining_every_vpd(d, ctx, query, chain_mode, supervisor_mode, contexts,
                               policies, *, join):
    """engine._decide, the steps explain takes, as before refusing first."""
    return _materialize_then_blank(d, ctx, query, chain_mode=chain_mode,
                                   supervisor_mode=supervisor_mode, contexts=contexts,
                                   policies=policies)


def _observed(outcome) -> tuple:
    return (outcome.state, outcome.rows.schema, outcome.rows.rows, outcome.entailed,
            outcome.witness, render_query(outcome.vpd.query), outcome.vpd.provenance)


@st.composite
def _request(draw):
    """A randgen request: random or crossed reports, often from a supervisor, either
    supervisor mode, any chain; with no policy, the head-of-OU policy, or that and
    _first_row (by name, registered while the test runs)."""
    d = random_dataset(random.Random(draw(st.integers(0, 10_000))))
    crossed = draw(st.booleans())
    contexts = (crossed_contexts if crossed else random_contexts)(
        random.Random(draw(st.integers(0, 100))), d)
    supervisors = [s.name for s in d.subjects if linkage.subordinates(s.name, d)]
    if supervisors and draw(st.booleans()):
        names = supervisors
    else:
        names = sorted(contexts) if crossed and contexts else [s.name for s in d.subjects]
    name = draw(st.sampled_from(names))
    ctx = contexts.get(name) or open_session(name, None, None, d)
    kwargs = dict(chain_mode=draw(st.sampled_from(linkage.CHAIN_MODES)),
                  supervisor_mode=draw(st.sampled_from(linkage.SUPERVISOR_MODES)),
                  contexts=contexts)
    return d, ctx, draw(st.sampled_from(QUERIES)), kwargs, draw(st.integers(0, 2))


@given(_request())
@settings(max_examples=500, deadline=None)
def test_refusing_first_changes_no_outcome_and_no_explain_text(case):
    d, ctx, text, kwargs, n_policies = case
    with mock.patch.dict(vpdrewrite.CONSTRAINT_CHECKS, {"first-row": _first_row}):
        first_row = DomainPolicy(id="first-row", constraint="first-row")
        kwargs["policies"] = (HEAD_OF_OU_POLICY, first_row)[:n_policies]
        outcome = engine.run_query(d, ctx, text, **kwargs)
        reference = _materialize_then_blank(d, ctx, text, **kwargs)
        assert _observed(outcome) == _observed(reference)
        text_now = engine.explain(d, ctx, text, **kwargs)
        with mock.patch.object(engine, "_decide", _decide_joining_every_vpd):
            assert text_now == engine.explain(d, ctx, text, **kwargs)
