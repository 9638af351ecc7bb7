"""UNION evaluation: wide supervisor unions, explicit pins, bag/set semantics.

A supervisor's VPD is a UNION with one branch per subordinate. These
tests check UNION evaluation against per-branch evaluation and the
nested-loop reference, that evaluate_groups pins the predicate it is
told to, and that a union far wider than Python's recursion limit
evaluates, prints and explains.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import engine, oracle
from vpdgate.lifecycle import DEFAULT_QUERY, build_vpd
from vpdgate.queryir import (
    ColEqCol,
    ColEqConst,
    ColumnRef,
    InRange,
    RangeRef,
    Select,
    TableRef,
    Union,
    evaluate,
    evaluate_groups,
    render_query,
    union_branches,
)
from vpdgate.relstore import load_dataset
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import parse_timestamp

from conftest import MEXICO_CITY
from randgen import BASE_TIME, FAR_POINT_POOL, random_contexts, random_dataset

WIDE = 5000  # subordinates of the root; the bar set for large hierarchies


def _wide_org() -> dict:
    """A root manager over WIDE field subjects in 50 sub-units, 12 objects."""
    carriers = [{
        "id": f"c{k}",
        "origin": {"name": "Bergen", "lat": 60.3913, "lon": 5.3221},
        "destination": {"name": "Calais", "lat": 50.9513, "lon": 1.8587},
        "departure": "2010-08-01T00:00:00Z", "arrival": "2010-08-10T00:00:00Z",
    } for k in range(3)]
    subjects = [{"id": "p0", "name": "Boss", "title": "Manager", "specialty": "-",
                 "dept": "Root"}]
    subjects += [{"id": f"p{k}", "name": f"Field{k}", "title": "Driver",
                  "specialty": "-", "dept": f"Unit{k % 50}"} for k in range(1, WIDE + 1)]
    objects = [{"oid": f"b{k:03d}", "name": "Timber", "sender": f"p{k * 7}",
                "receiver": f"p{k * 11 + 1}", "truck": f"c{k % 3}", "origin": "Bergen",
                "destination": "Calais", "ship_out": "-", "receive_in": "-"}
               for k in range(12)]
    return {
        "subject": subjects,
        "assignment": [{"id": f"p{k}", "truck": f"c{k % 3}"} for k in range(1, 40)],
        "carrier": carriers,
        "object": objects,
        "org_hierarchy": [{"ou": "Root", "sub_ou": f"Unit{k}"} for k in range(50)],
    }


def _union(branches):
    q = branches[0]
    for b in branches[1:]:
        q = Union(q, b)
    return q


def _per_branch(branches, d, ctx=None) -> frozenset:
    """The reference: the set union of each branch evaluated on its own."""
    return frozenset().union(*(evaluate(b, d, ctx).as_set() for b in branches))


def test_root_with_5000_subordinates_evaluates_prints_and_explains():
    d = load_dataset(_wide_org())
    ctx = open_session("Boss", None, None, d)
    for chain_mode in ("workflow", "direct"):
        by_mode = {}
        for supervisor_mode in ("narrative", "strict"):
            outcome = engine.run_query(d, ctx, "select * from object", chain_mode=chain_mode,
                                       supervisor_mode=supervisor_mode)
            assert outcome.state.valid
            assert len(union_branches(outcome.vpd.query)) > WIDE
            by_mode[supervisor_mode] = outcome.rows
        rows = by_mode["narrative"]
        assert len(rows) == len(set(rows.rows)) > 0
        assert rows.as_set() == by_mode["strict"].as_set()
        assert rows.as_set() == evaluate(outcome.vpd.closed_query, d, ctx).as_set()
        if chain_mode == "workflow":
            assert rows.as_set() == _per_branch(union_branches(outcome.vpd.query), d, ctx)
        text = render_query(outcome.vpd.query)
        assert text.count(" UNION ") == len(union_branches(outcome.vpd.query)) - 1

    trace = engine.explain(d, ctx, "select * from object")
    expansion = trace.split("\nexpansion:\n", 1)[1].split("\nprovenance:", 1)[0]
    lines = expansion.splitlines()
    assert lines[0] == "  UNION"
    assert len(lines) == WIDE + 2 and all(line.startswith("    SELECT ") for line in lines[1:])


def test_render_of_wide_left_deep_union_joins_branch_renders():
    branches = [Select(projection=(ColumnRef(None, "oid"),), tables=(TableRef("object"),),
                       where=(ColEqConst(ColumnRef("object", "name"), f"g{k}"),))
                for k in range(WIDE)]
    q = _union(branches)
    assert union_branches(q) == branches
    assert render_query(q) == " UNION ".join(render_query(b) for b in branches)


def test_evaluate_groups_pins_the_named_predicate_not_the_first_literal(fixture_dataset):
    d = fixture_dataset
    oid, destination, truck = (ColumnRef("object", c) for c in ("oid", "destination", "truck"))
    sel = Select(projection=(oid,), tables=(TableRef("object"),),
                 where=(ColEqConst(destination, "New York"), ColEqConst(truck, "t5")))
    assert evaluate(sel, d).rows == ()  # nothing bound for New York rides t5
    pinned = evaluate_groups([(sel, (1, dict.fromkeys(["t5", "t1"])))], d)
    assert pinned.rows == (("o002",),)  # the truck is pinned, the destination still holds
    branches = [Select(sel.projection, sel.tables, (sel.where[0], ColEqConst(truck, t)))
                for t in ("t5", "t1")]
    assert pinned.as_set() == _per_branch(branches, d)


# ---------------------------------------------------------------------------
# UNION evaluation against per-branch evaluation and the nested-loop oracle
# ---------------------------------------------------------------------------

NAME = ColumnRef("object", "name")
PROJECTION = (NAME,)  # object names repeat, so bag and set results differ


def _templates(d) -> list:
    """Branch shapes: (tables, column of the pinned constant, other predicates)."""
    s_name, s_dept = ColumnRef("subject", "name"), ColumnRef("subject", "dept")
    return [
        (("subject", "assignment", "object"), s_name,
         (ColEqCol(ColumnRef("subject", "id"), ColumnRef("assignment", "id")),
          ColEqCol(ColumnRef("assignment", "truck"), ColumnRef("object", "truck")))),
        (("subject", "object"), s_name,
         (ColEqCol(ColumnRef("subject", "id"), ColumnRef("object", "sender")),)),
        (("subject", "object"), s_dept,
         (ColEqCol(ColumnRef("subject", "specialty"), NAME),)),
        (("object",), NAME, ()),
        (("object",), ColumnRef("object", "truck"), ()),
    ]


def _constants(d, column: ColumnRef) -> list:
    cols, rows = d.table(column.qualifier)
    i = cols.index(column.column)
    return sorted({r[i] for r in rows if r[i] is not None}) + ["nobody", None]


@st.composite
def _union_case(draw):
    """A randgen dataset, a context, and a UNION whose branches often share a shape."""
    d = random_dataset(random.Random(draw(st.integers(0, 10_000))))
    contexts = random_contexts(random.Random(draw(st.integers(0, 100))), d)
    wireless = sorted(name for name, c in contexts.items() if c.wireless)
    ctx = contexts[draw(st.sampled_from(wireless))] if wireless else None
    templates = _templates(d)
    branches = []
    for _ in range(draw(st.integers(2, 8))):
        tables, pinned, rest = draw(st.sampled_from(templates))
        where = (ColEqConst(pinned, draw(st.sampled_from(_constants(d, pinned)))),) + rest
        if draw(st.integers(0, 3)) == 0:  # a second constant: a different shape
            extra = draw(st.sampled_from(templates[3:]))[1]
            where += (ColEqConst(extra, draw(st.sampled_from(_constants(d, extra)))),)
        if ctx is not None and draw(st.booleans()):
            gated = draw(st.sampled_from([s.name for s in d.subjects]))
            where = (InRange("l", RangeRef(gated, "location")),
                     InRange("t", RangeRef(gated, "time"))) + where
        branches.append(Select(projection=PROJECTION,
                               tables=tuple(TableRef(t) for t in tables), where=where))
    return d, ctx, _union(branches)


@given(_union_case())
@settings(max_examples=150, deadline=None)
def test_grouped_union_equals_per_branch_union_and_oracle(case):
    d, ctx, q = case
    rows = evaluate(q, d, ctx)
    assert len(rows.rows) == len(set(rows.rows))
    assert rows.as_set() == _per_branch(union_branches(q), d, ctx)
    assert rows.as_set() == oracle.nested_loop_evaluate(q, d, ctx).as_set()


@given(_union_case())
@settings(max_examples=100, deadline=None)
def test_select_keeps_duplicates(case):
    d, ctx, q = case
    for b in union_branches(q):
        assert Counter(evaluate(b, d, ctx).rows) == \
            Counter(oracle.nested_loop_evaluate(b, d, ctx).rows)
    everything = Select(projection=PROJECTION, tables=(TableRef("object"),))
    assert len(evaluate(everything, d).rows) == len(d.objects)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_wireless_supervisor_with_failing_gates_gets_subordinate_rows(seed):
    d = random_dataset(random.Random(seed))
    for s in d.subjects:
        ctx = open_session(s.name, FAR_POINT_POOL[0], BASE_TIME, d)
        vpd = build_vpd(ctx, d, DEFAULT_QUERY, supervisor_mode="strict")
        branches = union_branches(vpd.query)
        own = [b for b in branches if any(isinstance(p, InRange) for p in b.where)]
        if vpd.closed_query is None or any(evaluate(b, d, ctx).rows for b in own):
            continue  # no subordinates, or the supervisor's own gates hold
        subordinate_rows = _per_branch([b for b in branches if b not in own], d, ctx)
        rows = evaluate(vpd.query, d, ctx).as_set()
        assert rows == subordinate_rows
        assert rows == oracle.nested_loop_evaluate(vpd.query, d, ctx).as_set()


def test_off_route_supervisor_keeps_subordinate_rows(fixture_dataset):
    d = fixture_dataset
    ctx = open_session("Charles", MEXICO_CITY, parse_timestamp("2010-08-20T12:00:00Z"), d)
    vpd = build_vpd(ctx, d, DEFAULT_QUERY, supervisor_mode="strict")
    own, *subordinates = union_branches(vpd.query)
    assert any(isinstance(p, InRange) for p in own.where)
    assert not evaluate(own, d, ctx).rows
    rows = evaluate(vpd.query, d, ctx).as_set()
    assert rows and rows == _per_branch(subordinates, d, ctx)
