from vpdgate.oracle import brute_force_accessible, nested_loop_evaluate
from vpdgate.queryir import ColEqConst, ColumnRef, Select, TableRef, Union, evaluate
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import parse_timestamp


def test_oracle_parker_workflow(fixture_dataset, parker_mobile):
    ids, trace = brute_force_accessible("Parker", parker_mobile, fixture_dataset)
    assert ids == {"o001", "o002", "o003", "o004"}
    permitted = {t.object_id: t.via for t in trace if t.permitted}
    assert permitted["o001"] == "own-chain"
    denied = [t for t in trace if not t.permitted]
    assert all(t.via is None for t in denied)
    assert {t.object_id for t in denied} == {"o005", "o007"}


def test_oracle_chris_supervisor(fixture_dataset, chris_wired):
    ids, trace = brute_force_accessible("Chris", chris_wired, fixture_dataset)
    assert ids == {"o001", "o002", "o003", "o004", "o005"}
    vias = {t.object_id: t.via for t in trace if t.permitted}
    assert vias["o005"].startswith("subordinate-chain(")


def test_oracle_out_of_time_is_empty(fixture_dataset, t1_midpoint):
    ctx = open_session("Parker", t1_midpoint,
                       parse_timestamp("2010-09-20T00:00:00Z"), fixture_dataset)
    ids, _ = brute_force_accessible("Parker", ctx, fixture_dataset)
    assert ids == set()


def test_oracle_direct_peter(fixture_dataset):
    ctx = open_session("Peter", None, None, fixture_dataset)
    ids, trace = brute_force_accessible("Peter", ctx, fixture_dataset, "direct")
    assert ids == {"o005"}
    assert {t.via for t in trace if t.permitted} == {"direct-sender"}


def test_oracle_specialty(fixture_dataset, parker_mobile):
    ids, _ = brute_force_accessible("Parker", parker_mobile, fixture_dataset, "specialty")
    assert ids == {"o001"}


def test_oracle_strict_supervisor(fixture_dataset, chris_wired):
    off = open_session("Parker", (19.4326, -99.1332),
                       parse_timestamp("2010-09-20T00:00:00Z"), fixture_dataset)
    contexts = {"Parker": off}
    ids, _ = brute_force_accessible("Chris", chris_wired, fixture_dataset,
                                    "workflow", "strict", contexts)
    assert ids == set()
    ids, _ = brute_force_accessible("Chris", chris_wired, fixture_dataset,
                                    "workflow", "narrative", contexts)
    assert ids == {"o001", "o002", "o003", "o004", "o005"}


def test_oracle_matches_pipeline_for_moving_supervisor(fixture_dataset, t1_midpoint):
    # Charles holds both an assignment (t1) and subordinates; his wireless
    # session is gated by the route check and still unions the subordinates.
    from vpdgate import engine

    ctx = open_session("Charles", t1_midpoint,
                       parse_timestamp("2010-08-20T12:00:00Z"), fixture_dataset)
    ids, _ = brute_force_accessible("Charles", ctx, fixture_dataset)
    assert ids == {"o001", "o002", "o003", "o004", "o005"}
    rows = engine.run_query(fixture_dataset, ctx).rows
    assert set(rows.column("object.oid")) == ids

    late = open_session("Charles", t1_midpoint,
                        parse_timestamp("2010-09-20T00:00:00Z"), fixture_dataset)
    ids, _ = brute_force_accessible("Charles", late, fixture_dataset)
    assert ids == set()
    rows = engine.run_query(fixture_dataset, late).rows
    assert len(rows) == 0


def test_nested_loop_evaluates_a_union_wider_than_the_recursion_limit(fixture_dataset):
    d = fixture_dataset
    oid, name = ColumnRef("object", "oid"), ColumnRef("object", "name")
    branches = [Select(projection=(oid,), tables=(TableRef("object"),),
                       where=(ColEqConst(name, o.name),))
                for _ in range(250) for o in d.objects]
    q = branches[0]
    for b in branches[1:]:  # left-deep, as the parser builds it: 1500 branches
        q = Union(q, b)
    rows = nested_loop_evaluate(q, d)
    assert rows.rows == tuple((o.oid,) for o in d.objects)
    assert rows == evaluate(q, d)
