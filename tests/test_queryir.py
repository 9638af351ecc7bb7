import random

import pytest
from hypothesis import given, settings, strategies as st

from vpdgate import oracle
from vpdgate.errors import (
    QuerySyntaxError,
    UnboundContextKeyError,
    UnknownColumnError,
    UnknownTableError,
    UnsupportedFeatureError,
)
from vpdgate.queryir import (
    ColEqCol,
    ColEqConst,
    ColEqContext,
    ColumnRef,
    InRange,
    InSubquery,
    RangeRef,
    STAR,
    Select,
    TableRef,
    Union,
    evaluate,
    parse_query,
    render_query,
)
from vpdgate.relstore import TABLE_COLUMNS, load_dataset


def test_parse_star_select():
    q = parse_query("select * from object")
    assert q == Select(projection=(STAR,), tables=(TableRef("object"),))


def test_render_canonical():
    assert render_query(parse_query("select * from object")) == "SELECT * FROM object"


def test_constant_predicate_rejected():
    with pytest.raises(UnsupportedFeatureError):
        parse_query("select * from object where 1=0")


@pytest.mark.parametrize("text", [
    "select * from object where a = 1 or b = 2",
    "select * from object order by name",
    "select count(name) from object",
    "select * from object join subject on subject.id = object.sender",
    "select * from object where oid > 'o001'",
    "select distinct name from object",
])
def test_unsupported_sql_rejected(text):
    with pytest.raises(UnsupportedFeatureError):
        parse_query(text)


def test_syntax_error_carries_position():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("select from object")
    assert err.value.position == 7


def test_parse_supervisor_closed_form(golden_dir):
    text = (golden_dir / "vpd_supervisor_closed.sql").read_text().strip()
    q = parse_query(text)
    assert isinstance(q, Union)
    assert isinstance(q.left, Select) and isinstance(q.right, Select)
    subqueries = [p for p in q.right.where if isinstance(p, InSubquery)]
    assert len(subqueries) == 1
    assert subqueries[0].query.tables == (TableRef("org_hierarchy"),)


def test_wired_golden_render(golden_dir):
    chain = Select(
        projection=(ColumnRef("object", "*"),),
        tables=(TableRef("subject"), TableRef("assignment"), TableRef("object")),
        where=(
            ColEqContext(ColumnRef("subject", "name"), "session_user"),
            ColEqCol(ColumnRef("subject", "id"), ColumnRef("assignment", "id")),
            ColEqCol(ColumnRef("assignment", "truck"), ColumnRef("object", "truck")),
        ))
    golden = (golden_dir / "vpd_wired.sql").read_text()
    assert render_query(chain) + "\n" == golden


def test_union_renders_single_keyword():
    a = parse_query("select oid from object")
    u = Union(a, a)
    assert render_query(u).count("UNION") == 1


def test_range_predicate_round_trip():
    text = "SELECT * FROM object WHERE sys_context:l IN range(Parker, location)"
    q = parse_query(text)
    assert q.where == (InRange("l", RangeRef("Parker", "location")),)
    assert render_query(q) == text


def test_aliases_preserved():
    q = parse_query("select s.name from subject s, object o where s.id = o.sender")
    assert q.tables == (TableRef("subject", "s"), TableRef("object", "o"))
    assert render_query(q) == \
        "SELECT s.name FROM subject s, object o WHERE s.id = o.sender"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_eval_workflow_chain_for_parker(fixture_dataset, parker_wired, golden_dir):
    q = parse_query((golden_dir / "vpd_wired.sql").read_text())
    rows = evaluate(q, fixture_dataset, parker_wired)
    assert sorted(set(rows.column("oid"))) == ["o001", "o002", "o003", "o004"]


def test_eval_specialty_join(fixture_dataset, parker_wired):
    q = parse_query(
        "select object.* from subject, object "
        "where subject.name = sys_context:session_user "
        "and subject.specialty = object.name")
    rows = evaluate(q, fixture_dataset, parker_wired)
    assert sorted(set(rows.column("oid"))) == ["o001"]


def test_eval_empty_dataset():
    d = load_dataset("{}")
    rows = evaluate(parse_query("select * from object"), d, None)
    assert len(rows) == 0


def test_eval_unknown_table(fixture_dataset):
    with pytest.raises(UnknownTableError):
        evaluate(parse_query("select * from nothing"), fixture_dataset, None)


def test_eval_unknown_column(fixture_dataset):
    with pytest.raises(UnknownColumnError):
        evaluate(parse_query("select * from object where object.badcol = 'x'"),
                 fixture_dataset, None)


def test_eval_unbound_context_key(fixture_dataset, parker_wired):
    q = parse_query("select * from object where sys_context:t IN range(Parker, time)")
    with pytest.raises(UnboundContextKeyError):
        evaluate(q, fixture_dataset, parker_wired)


def test_absent_compares_unequal(fixture_dataset, parker_wired):
    # o007 has no truck; joining on truck equality must never produce it,
    # and absent = absent must not match either.
    q = parse_query("select object.* from object, assignment "
                    "where object.truck = assignment.truck")
    rows = evaluate(q, fixture_dataset, parker_wired)
    assert "o007" not in set(rows.column("oid"))


def test_union_deduplicates(fixture_dataset):
    q = parse_query("select oid from object union select oid from object")
    rows = evaluate(q, fixture_dataset, None)
    assert len(rows) == len(set(rows.rows)) == 6


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_COLUMNS_BY_TABLE = {t: cols for t, cols in TABLE_COLUMNS.items()}


@st.composite
def _queries(draw, allow_union: bool = True):
    tables = draw(st.lists(st.sampled_from(sorted(_COLUMNS_BY_TABLE)),
                           min_size=1, max_size=2, unique=True))
    refs = [ColumnRef(t, c) for t in tables for c in _COLUMNS_BY_TABLE[t]]
    projection = draw(st.one_of(
        st.just((STAR,)),
        st.lists(st.sampled_from(refs), min_size=1, max_size=3).map(tuple),
        st.sampled_from(tables).map(lambda t: (ColumnRef(t, "*"),)),
    ))
    preds = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(refs), st.sampled_from(refs))
          .map(lambda ab: ColEqCol(*ab)),
        st.tuples(st.sampled_from(refs),
                  st.one_of(st.text(alphabet="abco' 01", min_size=0, max_size=5),
                            st.integers(-5, 99)))
          .map(lambda av: ColEqConst(*av)),
        st.sampled_from(refs).map(lambda r: ColEqContext(r, "session_user")),
        st.sampled_from(refs).map(
            lambda r: InSubquery(r, Select(projection=(ColumnRef(None, "oid"),),
                                           tables=(TableRef("object"),)))),
    ), max_size=3))
    select = Select(projection=projection,
                    tables=tuple(TableRef(t) for t in tables),
                    where=tuple(preds))
    if allow_union and draw(st.booleans()):
        other = draw(_queries(allow_union=False))
        return Union(select, other)
    return select


@given(_queries())
@settings(max_examples=150, deadline=None)
def test_parse_render_parse_fixpoint(q):
    text = render_query(q)
    once = parse_query(text)
    assert parse_query(render_query(once)) == once
    assert once == q


def test_float_literals_print_without_an_exponent():
    """Regression: repr() printed 1e-05 and 1.2345678901234569e+23, which the
    tokenizer refuses, so such a query's (and VPD's) text did not parse back."""
    for literal in ("0.00001", "-0.000000000000000000001", "123456789012345678901234.5",
                    "10000000000000000.0", "0.0001", "0.1", "-0.0", "7"):
        q = parse_query(f"select * from object where oid = {literal}")
        printed = render_query(q)
        assert "e" not in printed.split(" = ")[1]
        assert parse_query(printed) == q, printed
        assert render_query(parse_query(printed)) == printed


def _random_small_dataset(rng):
    from randgen import random_dataset
    return random_dataset(rng)


def test_union_is_set_union_of_branches(fixture_dataset):
    a = parse_query("select oid from object where object.truck = 't1'")
    b = parse_query("select oid from object where object.truck = 't5'")
    u = Union(a, b)
    ra = evaluate(a, fixture_dataset, None).as_set()
    rb = evaluate(b, fixture_dataset, None).as_set()
    ru = evaluate(u, fixture_dataset, None)
    assert ru.as_set() == ra | rb
    assert len(ru.rows) == len(set(ru.rows))


def test_monotone_under_row_addition(fixture_dataset):
    q = parse_query("select object.* from subject, assignment, object "
                    "where subject.id = assignment.id "
                    "and assignment.truck = object.truck")
    before = evaluate(q, fixture_dataset, None).as_set()
    grown = fixture_dataset.with_assignment("s15", "t5")
    after = evaluate(q, grown, None).as_set()
    assert before <= after


def test_evaluator_matches_nested_loop_reference(fixture_dataset):
    rng = random.Random(99)
    queries = [
        "select * from object",
        "select object.* from subject, assignment, object "
        "where subject.id = assignment.id and assignment.truck = object.truck",
        "select subject.name, object.name from subject, object "
        "where subject.specialty = object.name",
        "select oid from object where object.truck = 't1' "
        "union select oid from object where object.truck = 't5'",
        "select * from subject where subject.dept in "
        "(select sub_ou from org_hierarchy where ou = 'Operation')",
        "select * from subject, org_hierarchy where subject.dept = org_hierarchy.sub_ou",
    ]
    datasets = [fixture_dataset] + [_random_small_dataset(random.Random(i))
                                    for i in range(8)]
    for d in datasets:
        for text in queries:
            q = parse_query(text)
            fast = evaluate(q, d, None)
            slow = oracle.nested_loop_evaluate(q, d, None)
            assert fast.schema == slow.schema
            assert sorted(fast.rows, key=repr) == sorted(slow.rows, key=repr), text


def test_union_arity_mismatch_rejected(fixture_dataset):
    from vpdgate.errors import VpdGateError
    q = parse_query("select oid from object union select ou, sub_ou from org_hierarchy")
    with pytest.raises(VpdGateError, match="arity"):
        evaluate(q, fixture_dataset, None)


def test_monotone_under_row_addition_randomized():
    rng = random.Random(21)
    q = parse_query("select object.* from subject, assignment, object "
                    "where subject.id = assignment.id "
                    "and assignment.truck = object.truck")
    for seed in range(12):
        d = _random_small_dataset(random.Random(seed))
        if not d.carriers or not d.subjects:
            continue
        before = evaluate(q, d, None).as_set()
        grown = d.with_assignment(rng.choice(d.subjects).id,
                                  rng.choice(d.carriers).id)
        assert before <= evaluate(q, grown, None).as_set()
