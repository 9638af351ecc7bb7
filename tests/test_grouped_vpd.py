"""Grouped supervisor VPDs, their lazily built text, and the memoized subordinate verdicts.

A supervisor's VPD is evaluated as its groups, (Select, pin) pairs with
one join each, without building a Select per subordinate; the UNION text
is built only when read. These tests pin the text to goldens, check the
grouped rows against the built union and the nested-loop reference,
check that subordinate verdicts follow Dataset versions and that the
corridor memo behind them stays within its bound, and that the
head-of-OU check and run_query's single materialization agree with the
per-subject originals.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vpdgate import engine, linkage, oracle, vpdrewrite
from vpdgate.errors import UnknownColumnError
from vpdgate.lifecycle import build_vpd, check_validity
from vpdgate.queryir import evaluate, parse_query, render_query, union_branches
from vpdgate.relstore import load_dataset
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import parse_timestamp
from vpdgate.vpdrewrite import (
    HEAD_OF_OU_POLICY,
    DomainPolicy,
    VpdDefinition,
    entails,
    expand_supervisor,
    materialize,
    rewrite,
    subordinate_known_invalid,
)

from conftest import MEXICO_CITY
from randgen import FAR_POINT_POOL, random_contexts, random_dataset
from test_union_eval import WIDE, _wide_org

Q = "select * from object"
SAN_DIEGO = (32.7157, -117.1611)  # end of carrier t5's route, far off t1's
AUG_20 = parse_timestamp("2010-08-20T12:00:00Z")  # inside both t1's and t5's windows


# ---------------------------------------------------------------------------
# Goldens: the printed union and explain text of the fixture's Chris
# ---------------------------------------------------------------------------

def _parker_off(d):
    return {"Parker": open_session("Parker", MEXICO_CITY, AUG_20, d)}


def test_supervisor_union_matches_golden(fixture_dataset, chris_wired, golden_dir):
    v = expand_supervisor("Chris", rewrite(parse_query(Q), chris_wired, fixture_dataset),
                          fixture_dataset)
    assert render_query(v.query) + "\n" == \
        (golden_dir / "vpd_supervisor_union.sql").read_text()


@pytest.mark.parametrize("mode, chain, text", [
    ("narrative", "workflow", Q),
    ("strict", "direct", "select * from object where object.name = 'Gold'"),
])
def test_supervisor_explain_matches_golden(fixture_dataset, chris_wired, golden_dir,
                                           mode, chain, text):
    trace = engine.explain(fixture_dataset, chris_wired, text, chain_mode=chain,
                           supervisor_mode=mode, contexts=_parker_off(fixture_dataset),
                           policies=(HEAD_OF_OU_POLICY,))
    assert trace + "\n" == (golden_dir / f"explain_supervisor_{mode}.txt").read_text()


# ---------------------------------------------------------------------------
# Grouped evaluation against the built union and the nested-loop reference
# ---------------------------------------------------------------------------

QUERIES = (
    Q,
    "select object.oid, object.name from object where object.name = 'Timber'",
    "select object.name from object",  # names repeat: bag and set results differ
    "select * from object union select * from object",  # equal shapes merge
    "select object.name from object union select object.oid from object",
    # The user's own session-identity condition, copied verbatim into every branch.
    "select object.* from object, subject where subject.name = sys_context:session_user",
)


@st.composite
def _supervisor_case(draw):
    """A randgen supervisor, wired or wireless (on route or off), with a request."""
    d = random_dataset(random.Random(draw(st.integers(0, 10_000))))
    supervisors = [s for s in d.subjects if linkage.subordinates(s.name, d)]
    assume(supervisors)
    s = draw(st.sampled_from(supervisors))
    contexts = random_contexts(random.Random(draw(st.integers(0, 100))), d)
    session = draw(st.sampled_from(("wired", "on-route", "off-route")))
    if session == "wired" or not d.carriers:
        ctx = open_session(s.name, None, None, d)
    else:
        carrier = draw(st.sampled_from(d.carriers))
        d = d.with_assignment(s.id, carrier.id)  # a moving supervisor; its gates can hold
        point = carrier.waypoints[0] if session == "on-route" else FAR_POINT_POOL[0]
        ctx = open_session(s.name, point, carrier.departure, d)
    return (d, ctx, draw(st.sampled_from(QUERIES)), draw(st.sampled_from(linkage.CHAIN_MODES)),
            draw(st.sampled_from(("narrative", "strict"))), contexts)


@given(_supervisor_case())
@settings(max_examples=200, deadline=None)
def test_grouped_materialize_equals_built_union_and_oracle(case):
    d, ctx, text, chain, mode, contexts = case
    vpd = build_vpd(ctx, d, text, chain_mode=chain, supervisor_mode=mode, contexts=contexts)
    rows = materialize(vpd, d, ctx)
    built = evaluate(vpd.query, d, ctx)
    assert rows.schema == built.schema
    if len(union_branches(rewrite(parse_query(text), ctx, d, mode=chain).query)) == 1:
        assert rows.rows == built.rows
    else:  # the built union lists its branches subordinate by subordinate
        assert Counter(rows.rows) == Counter(built.rows)
        assert len(set(rows.rows)) == len(rows.rows)
    assert Counter(rows.rows) == Counter(oracle.nested_loop_evaluate(vpd.query, d, ctx).rows)
    if len(union_branches(vpd.query)) > 1:
        assert vpd.groups is not None


def test_session_user_request_is_materialized_without_the_union(fixture_dataset, monkeypatch):
    text = "select object.* from object, subject where subject.name = sys_context:session_user"
    d = fixture_dataset.with_assignment("s06", "t1")  # Chris rides t1 himself
    sessions = (open_session("Chris", None, None, d),
                open_session("Chris", d.carrier_by_id["t1"].waypoints[0], AUG_20, d))

    def no_union(*args, **kwargs):
        raise AssertionError("the union was built")

    monkeypatch.setattr(vpdrewrite, "_expanded_union", no_union)
    cases = [(ctx, chain, build_vpd(ctx, d, text, chain_mode=chain))
             for ctx in sessions for chain in linkage.CHAIN_MODES]
    materialized = [materialize(vpd, d, ctx) for ctx, _, vpd in cases]
    monkeypatch.undo()

    # Every branch keeps the condition naming Chris, so only his own
    # workflow chain (he rides t1) yields rows: he has no specialty, and
    # the fixture's staff send and receive nothing.
    assert [bool(rows.rows) for rows in materialized] == \
        [chain == "workflow" for _, chain, _ in cases]
    for (ctx, chain, vpd), rows in zip(cases, materialized):
        assert vpd.groups is not None, chain
        assert Counter(rows.rows) == Counter(oracle.nested_loop_evaluate(vpd.query, d, ctx).rows)


def test_grouped_form_merges_as_the_built_union(fixture_dataset, chris_wired):
    d = fixture_dataset
    base = rewrite(parse_query("select * from object union select * from object"),
                   chris_wired, d, mode="direct")
    v = expand_supervisor("Chris", base, d, contexts=_parker_off(d))
    assert len(union_branches(v.query)) == 4 * 3  # 4 base branches, Chris, Alice, Bob
    # A wired supervisor's own branches are its subordinates' shapes: the
    # sender and receiver branches as rewritten, each pinned at the
    # session-identity slot to every name.
    assert [sel for sel, _ in v.groups] == union_branches(base.query)[:2]
    assert [pin for _, pin in v.groups] == [(0, dict.fromkeys(["Chris", "Alice", "Bob"]))] * 2


def test_supervisor_with_every_subordinate_dropped_keeps_bag_semantics(fixture_dataset):
    d = fixture_dataset.with_assignment("s06", "t1")  # Chris rides t1 himself
    contexts = {name: open_session(name, MEXICO_CITY, AUG_20, d)
                for name in ("Alice", "Bob", "Parker")}  # all off route
    ctx = open_session("Chris", None, None, d)
    v = build_vpd(ctx, d, "select object.truck from object", contexts=contexts)
    assert "dropped-invalid:Alice,Bob,Parker" in v.provenance
    rows = materialize(v, d, ctx).rows
    assert rows == evaluate(v.query, d, ctx).rows == (("t1",),) * 4  # one Select: a bag


def _expected_union_text(base, d, s: str) -> str:
    """The union as text, pinned branch by branch: s first, then subordinates by id."""
    subs = sorted(linkage.subordinates(s, d), key=lambda n: d.subject_by_name[n].id)
    session = "subject.name = sys_context:session_user"
    texts = [render_query(b) for b in union_branches(base.query)]
    return " UNION ".join(t.replace(session, f"subject.name = '{name}'")
                          for name in [s, *subs] for t in texts)


def test_root_run_query_builds_no_select_per_subordinate(monkeypatch):
    d = load_dataset(_wide_org())
    ctx = open_session("Boss", None, None, d)

    def no_union(*args, **kwargs):
        raise AssertionError("the union was built")

    real_select = vpdrewrite.Branch.select

    def own_only(branch, who=None, gated=True):
        if who not in (None, "Boss"):
            raise AssertionError(f"a branch was built for {who}")
        return real_select(branch, who, gated)

    monkeypatch.setattr(vpdrewrite, "_expanded_union", no_union)
    monkeypatch.setattr(vpdrewrite.Branch, "select", own_only)
    outcomes = {(chain, mode): engine.run_query(d, ctx, Q, chain_mode=chain,
                                                supervisor_mode=mode)
                for chain in ("workflow", "direct") for mode in ("narrative", "strict")}
    monkeypatch.undo()

    for (chain, mode), outcome in outcomes.items():
        assert outcome.state.valid and len(outcome.rows) > 0
        base = rewrite(parse_query(Q), ctx, d, mode=chain)
        assert render_query(outcome.vpd.query) == _expected_union_text(base, d, "Boss")
        built = evaluate(outcome.vpd.query, d, ctx).rows
        if chain == "workflow":  # one base branch
            assert outcome.rows.rows == built
        else:  # sender and receiver: the built union lists them subordinate by subordinate
            assert Counter(outcome.rows.rows) == Counter(built)
            assert len(set(outcome.rows.rows)) == len(outcome.rows.rows)

    trace = engine.explain(d, ctx, Q)
    expansion = trace.split("\nexpansion:\n", 1)[1].split("\nprovenance:", 1)[0]
    base = rewrite(parse_query(Q), ctx, d)
    expected = _expected_union_text(base, d, "Boss").split(" UNION ")
    assert expansion.splitlines() == ["  UNION", *(f"    {t}" for t in expected)]
    assert len(expected) == WIDE + 1
    closed_form = outcomes["workflow", "narrative"].vpd.closed_query
    closed = trace.split("\nclosed form:\n", 1)[1].splitlines()
    assert closed == ["  UNION", *(f"    {render_query(b)}" for b in union_branches(closed_form))]


# ---------------------------------------------------------------------------
# Subordinate verdict memo
# ---------------------------------------------------------------------------

def _known_invalid_unmemoized(s, d, contexts) -> bool:
    """subordinate_known_invalid as it was before the memo."""
    ctx = (contexts or {}).get(s)
    if ctx is None or not ctx.wireless:
        return False
    ranges = linkage.location_range(s, d)
    if not ranges:
        return False
    return not any(linkage.in_range(ctx.location, ctx.timestamp, r) for r in ranges)


def test_verdict_memo_follows_dataset_versions(fixture_dataset):
    d = fixture_dataset.without_assignment("s04", "t5")  # a fresh version, empty memo
    contexts = {"Parker": open_session("Parker", SAN_DIEGO, AUG_20, d)}
    assert subordinate_known_invalid("Parker", d, contexts)  # on t1 only: off route

    on_t5 = d.with_assignment("s04", "t5")
    assert not subordinate_known_invalid("Parker", on_t5, contexts)
    off_again = on_t5.without_assignment("s04", "t5")
    assert subordinate_known_invalid("Parker", off_again, contexts)

    # Each version still answers from its own memo.
    assert subordinate_known_invalid("Parker", d, contexts)
    assert not subordinate_known_invalid("Parker", on_t5, contexts)
    for version in (d, on_t5, off_again):
        assert subordinate_known_invalid("Parker", version, contexts) == \
            _known_invalid_unmemoized("Parker", version, contexts)
    assert check_validity("Chris", open_session("Chris", None, None, on_t5), on_t5,
                          "strict", contexts).valid
    assert not check_validity("Chris", open_session("Chris", None, None, off_again),
                              off_again, "strict", contexts).valid


def test_verdict_memo_stays_within_its_limit(fixture_dataset, monkeypatch):
    # The corridor memo is keyed by (carrier, location), not by time: each
    # report moves, so that every in-window report adds entries.
    monkeypatch.setattr(linkage, "VERDICT_MEMO_SIZE", 3)
    d = fixture_dataset.with_assignment("s04", "t5")
    memo = d.corridor_tests
    sizes = []
    for k in range(12):
        t = parse_timestamp(f"2010-08-{10 + k:02d}T12:00:00Z")
        where = (SAN_DIEGO[0] + 0.25 * k, SAN_DIEGO[1])
        contexts = {"Parker": open_session("Parker", where, t, d)}
        assert subordinate_known_invalid("Parker", d, contexts) == \
            _known_invalid_unmemoized("Parker", d, contexts)
        assert len(memo) <= 3
        sizes.append(len(memo))
    assert 3 in sizes and any(b < a for a, b in zip(sizes, sizes[1:])), sizes


@given(st.integers(0, 10_000), st.integers(0, 100))
@settings(max_examples=150, deadline=None)
def test_memoized_verdicts_equal_unmemoized(seed, ctx_seed):
    d = random_dataset(random.Random(seed))
    # Two reports per subject on one version: the memo must tell them apart.
    maps = [random_contexts(random.Random(ctx_seed + k), d) for k in range(2)]
    for s in d.subjects:
        subs = sorted(linkage.subordinates(s.name, d), key=lambda n: d.subject_by_name[n].id)
        if not subs:
            continue
        ctx = open_session(s.name, None, None, d)
        for contexts in maps * 2:  # the second round answers from the memo
            dropped = [n for n in subs if _known_invalid_unmemoized(n, d, contexts)]
            v = build_vpd(ctx, d, Q, supervisor_mode="narrative", contexts=contexts)
            tags = [p for p in v.provenance if p.startswith("dropped-invalid:")]
            assert tags == ([f"dropped-invalid:{','.join(dropped)}"] if dropped else [])
            assert check_validity(s.name, ctx, d, "strict", contexts).valid == (not dropped)


# ---------------------------------------------------------------------------
# Head-of-OU containment in one pass over the objects
# ---------------------------------------------------------------------------

def _reachable_oids_per_subject(subject_name, d) -> set:
    """The per-subject scan the head-of-OU check used before, row by row."""
    subj = d.subject_by_name.get(subject_name)
    if subj is None:
        return set()
    out = set()
    carriers = {a.carrier_id for a in d.assignments_of(subj.id)}
    for o in d.objects:
        if o.carrier_id is not None and o.carrier_id in carriers:
            out.add(o.oid)
        if subj.id in (o.sender, o.receiver):
            out.add(o.oid)
        if subj.specialty is not None and subj.specialty == o.name:
            out.add(o.oid)
    return out


def _head_of_ou_per_subject(v, rows, d, contexts):
    try:
        oids = rows.column("object.oid")
    except UnknownColumnError:
        return None
    allowed = _reachable_oids_per_subject(v.subject, d)
    for sub in linkage.subordinates(v.subject, d):
        allowed |= _reachable_oids_per_subject(sub, d)
    for row, oid in zip(rows.rows, oids):
        if oid not in allowed:
            return row
    return None


@given(st.integers(0, 10_000), st.integers(0, 1000))
@settings(max_examples=200, deadline=None)
def test_head_of_ou_check_matches_per_subject_scan(seed, order_seed):
    d = random_dataset(random.Random(seed))
    everything = evaluate(parse_query(Q), d)
    rows = list(everything.rows)
    random.Random(order_seed).shuffle(rows)
    shuffled = type(everything)(everything.schema, tuple(rows))
    check = vpdrewrite.CONSTRAINT_CHECKS["head-of-ou-containment"]
    for s in d.subjects:
        v = VpdDefinition(subject=s.name, location_dependent=False, time_dependent=False,
                          given_provenance=("hand-built",))
        for candidate in (everything, shuffled):
            assert check(v, candidate, d, None) == \
                _head_of_ou_per_subject(v, candidate, d, None)


# ---------------------------------------------------------------------------
# run_query materializes once with constraint policies
# ---------------------------------------------------------------------------

def test_run_query_materializes_once_with_constraint_policies(fixture_dataset, chris_wired,
                                                              monkeypatch):
    monkeypatch.setitem(vpdrewrite.CONSTRAINT_CHECKS, "first-row",
                        lambda v, rows, d, contexts: rows.rows[0] if rows.rows else None)
    first_row = DomainPolicy(id="first-row", constraint="first-row")
    d, contexts = fixture_dataset, _parker_off(fixture_dataset)
    for policies in ((HEAD_OF_OU_POLICY,), (HEAD_OF_OU_POLICY, first_row)):
        for mode in ("narrative", "strict"):  # strict revokes Chris: rows are blanked
            alone = entails(policies, build_vpd(chris_wired, d, Q, supervisor_mode=mode,
                                                contexts=contexts),
                            d, chris_wired, contexts=contexts)
            calls = []
            real = vpdrewrite.materialize

            def counting(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(vpdrewrite, "materialize", counting)
            monkeypatch.setattr(engine, "materialize", counting)
            outcome = engine.run_query(d, chris_wired, Q, supervisor_mode=mode,
                                       contexts=contexts, policies=policies)
            monkeypatch.setattr(vpdrewrite, "materialize", real)
            monkeypatch.setattr(engine, "materialize", real)
            assert len(calls) == 1
            assert (outcome.entailed, outcome.witness) == alone
            assert outcome.state.valid == (mode == "narrative")
            assert bool(outcome.rows.rows) == outcome.state.valid
    assert alone[1] is not None  # the first-row constraint found a witness
