"""One route verdict: the VPD's range gates decide a report as the lifecycle does.

A wireless subject's VPD carries `sys_context:l IN range(s, location)` and
`sys_context:t IN range(s, time)`. The gates of one Select that name the
same subject are decided together, by linkage.route_verdict, the function
check_validity also asks, so evaluating the VPD never returns rows for a
report the lifecycle refuses. These tests pin a crossed report (position
on one carrier's route, time in another carrier's window), the
lone-gate meaning, and the property over random instances, with the
nested-loop reference deciding gates by its own carrier walk. The
corridor test is memoized per (carrier, location) and the window tested
per call, so one position asked at several times, or under a wider
corridor, must still be decided as a fresh version decides it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import linkage, oracle
from vpdgate.lifecycle import REVOKED, build_vpd, check_validity
from vpdgate.oracle import nested_loop_evaluate
from vpdgate.queryir import evaluate, parse_query
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import parse_timestamp
from vpdgate.vpdrewrite import materialize

from conftest import MEXICO_CITY, MIAMI
from randgen import crossed_contexts, random_contexts, random_dataset

ANCHORAGE = (61.2181, -149.9003)  # on t5's route, ~2000 km from t1's
SEP_1 = parse_timestamp("2010-09-01T00:00:00Z")  # in t1's window, after t5's
AUG_15 = parse_timestamp("2010-08-15T00:00:00Z")  # in both t1's and t5's windows


@pytest.fixture()
def parker_on_t1_and_t5(fixture_dataset):
    return fixture_dataset.with_assignment("s04", "t5")


def test_crossed_report_is_refused_by_the_vpd_itself(parker_on_t1_and_t5):
    d = parker_on_t1_and_t5
    ctx = open_session("Parker", ANCHORAGE, SEP_1, d)
    state = check_validity("Parker", ctx, d)
    assert (state.state, state.reason) == (REVOKED, "out-of-route")

    vpd = build_vpd(ctx, d)
    assert len(evaluate(vpd.query, d, ctx)) == 0
    assert len(materialize(vpd, d, ctx)) == 0
    assert len(nested_loop_evaluate(vpd.query, d, ctx)) == 0


def test_route_verdict_reasons(parker_on_t1_and_t5, fixture_dataset):
    d = parker_on_t1_and_t5
    late = parse_timestamp("2010-09-20T00:00:00Z")
    assert linkage.route_verdict("Parker", ANCHORAGE, SEP_1, d) == "out-of-route"
    assert linkage.route_verdict("Parker", MIAMI, SEP_1, d) == "in-range"
    assert linkage.route_verdict("Parker", MIAMI, late, d) == "out-of-time"
    assert linkage.route_verdict("Adam", MIAMI, SEP_1, d) == "no-assignment"
    # An absent key is not constrained.
    assert linkage.route_verdict("Parker", ANCHORAGE, None, d) == "in-range"
    assert linkage.route_verdict("Parker", None, SEP_1, d) == "in-range"
    assert linkage.route_verdict("Parker", None, late, d) == "out-of-time"
    assert linkage.route_verdict("Parker", ANCHORAGE, None, fixture_dataset) == "out-of-route"


LONE_GATE_QUERIES = [
    ("select object.oid from subject, assignment, object",
     ("subject.id = assignment.id", "assignment.truck = object.truck")),
    ("select oid from object", ()),
]


def _with_where(head: str, preds) -> str:
    return head + (" where " + " and ".join(preds) if preds else "")


@pytest.mark.parametrize("head,preds", LONE_GATE_QUERIES)
@pytest.mark.parametrize("key,kind", [("l", "location"), ("t", "time")])
def test_lone_gate_keeps_its_meaning(parker_on_t1_and_t5, head, preds, key, kind):
    """A lone gate constrains only its own key: the crossed report passes it."""
    d = parker_on_t1_and_t5
    ctx = open_session("Parker", ANCHORAGE, SEP_1, d)
    gate = f"sys_context:{key} IN range(Parker, {kind})"
    gated = parse_query(_with_where(head, (gate, *preds)))
    ungated = parse_query(_with_where(head, preds))
    rows = evaluate(gated, d, ctx)
    assert len(rows) > 0
    assert rows.rows == evaluate(ungated, d, ctx).rows
    assert Counter(nested_loop_evaluate(gated, d, ctx).rows) == Counter(rows.rows)

    late = open_session("Parker", ANCHORAGE, parse_timestamp("2010-09-20T00:00:00Z"), d)
    far = open_session("Parker", (-75.0, 10.0), SEP_1, d)
    refused = late if key == "t" else far
    assert len(evaluate(gated, d, refused)) == 0
    assert len(nested_loop_evaluate(gated, d, refused)) == 0


@given(st.integers(0, 10_000), st.integers(0, 100))
@settings(max_examples=150, deadline=None)
def test_refused_wireless_requests_evaluate_to_no_rows(seed, ctx_seed):
    d = random_dataset(random.Random(seed))
    contexts = random_contexts(random.Random(ctx_seed), d)
    crossed = crossed_contexts(random.Random(ctx_seed), d)
    for name, ctx in [*contexts.items(), *crossed.items()]:
        if not ctx.wireless:
            continue
        valid = check_validity(name, ctx, d, contexts=contexts).valid
        for mode in linkage.CHAIN_MODES:
            vpd = build_vpd(ctx, d, chain_mode=mode, contexts=contexts)
            rows = evaluate(vpd.query, d, ctx)
            if not valid:
                assert len(rows) == 0, (name, mode)
                assert len(materialize(vpd, d, ctx)) == 0, (name, mode)
            assert Counter(rows.rows) == Counter(nested_loop_evaluate(vpd.query, d, ctx).rows)


@given(st.integers(0, 10_000), st.integers(0, 100))
@settings(max_examples=150, deadline=None)
def test_route_verdict_is_in_range_over_the_subjects_ranges(seed, ctx_seed):
    """route_verdict and in_range decide a report by the same two tests,
    and agree with the oracle's own carrier walk; a None key is not tested."""
    d = random_dataset(random.Random(seed))
    contexts = [*random_contexts(random.Random(ctx_seed), d).values(),
                *crossed_contexts(random.Random(ctx_seed), d).values()]
    reports = [(c.user, c.location, c.timestamp) for c in contexts]
    reports += [(s, None, t) for s, _, t in reports] + [(s, loc, None) for s, loc, _ in reports]
    for s, loc, t in reports:
        ranges = linkage.location_range(s, d)
        verdict = linkage.route_verdict(s, loc, t, d)
        if loc is not None and t is not None:
            granted = any(linkage.in_range(loc, t, r) for r in ranges)
        else:
            granted = any((t is None or r.in_window(t)) and (loc is None or r.in_corridor(loc))
                          for r in ranges)
        assert (verdict == "in-range") == granted == oracle._route_valid(s, loc, t, d)
        assert (verdict == "no-assignment") == (not ranges)
        assert (verdict == "out-of-time") == (
            bool(ranges) and t is not None and not any(r.in_window(t) for r in ranges))


# ---------------------------------------------------------------------------
# The corridor memo: keyed by (carrier, location), windows tested per call
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("first", ["t5-window", "t1-window"])
def test_one_position_under_two_windows(parker_on_t1_and_t5, first):
    """Anchorage is in t5's corridor and far from t1's. Once a time in t5's
    window has stored both carriers' corridor tests, a time in t1's window
    alone must still be refused, and in the other order granted."""
    d = replace(parker_on_t1_and_t5)  # one version with empty memos
    asked = {"t5-window": AUG_15, "t1-window": SEP_1}
    order = [first, *(k for k in asked if k != first)]
    answers = {k: linkage.route_verdict("Parker", ANCHORAGE, asked[k], d) for k in order}
    assert answers == {"t5-window": "in-range", "t1-window": "out-of-route"}
    assert d.corridor_tests == {("t1", ANCHORAGE): False, ("t5", ANCHORAGE): True}
    assert set(d.route_ranges) == {"Parker"}
    # Asked again, from the memo: the same answers.
    assert {k: linkage.route_verdict("Parker", ANCHORAGE, asked[k], d) for k in asked} == answers


def test_a_wider_corridor_is_a_new_version(fixture_dataset):
    """--corridor-km replaces the manifest: the new version does not read the
    narrower corridor's tests."""
    d = replace(fixture_dataset)
    assert linkage.route_verdict("Parker", MEXICO_CITY, AUG_15, d) == "out-of-route"
    assert d.corridor_tests == {("t1", MEXICO_CITY): False}
    wide = replace(d, manifest=replace(d.manifest, corridor_km=2000.0))
    assert linkage.route_verdict("Parker", MEXICO_CITY, AUG_15, wide) == "in-range"
    assert linkage.route_verdict("Parker", MEXICO_CITY, AUG_15, d) == "out-of-route"


@given(st.integers(0, 10_000), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_a_position_reported_at_many_times(seed, ctx_seed):
    """Each report position is asked again at every reported time: the
    verdict from the shared memo equals a fresh version's and the oracle's."""
    d = random_dataset(random.Random(seed))
    contexts = [*random_contexts(random.Random(ctx_seed), d).values(),
                *crossed_contexts(random.Random(ctx_seed), d).values()]
    wireless = [c for c in contexts if c.wireless]
    times = [None, *sorted({c.timestamp for c in wireless})]
    for c in wireless:
        for t in times:
            verdict = linkage.route_verdict(c.user, c.location, t, d)
            assert verdict == linkage.route_verdict(c.user, c.location, t, replace(d))
            assert (verdict == "in-range") == oracle._route_valid(c.user, c.location, t, d)
