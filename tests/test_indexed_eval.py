"""Index-probed evaluation and the per-version lookup maps of a Dataset.

The evaluator takes a binding's candidate rows from Dataset.index
buckets instead of scanning its table, and linkage reads cached org and
assignment maps. These tests check the indexed join against the
nested-loop reference as bags, the cached maps against linear scans,
that every derived version gets its own caches, and that row order does
not depend on the interpreter's hash seed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import linkage, oracle
from vpdgate.queryir import (
    STAR,
    ColEqCol,
    ColEqConst,
    ColEqContext,
    ColumnRef,
    InSubquery,
    Select,
    TableRef,
    evaluate,
)
from vpdgate.relstore import TABLE_COLUMNS, OrgEdge
from vpdgate.sessionctx import open_session

from randgen import BASE_TIME, random_dataset

# Column pairs that share values, so joins over them find rows.
LINKED = (
    ("subject", "id", "assignment", "id"),
    ("assignment", "truck", "object", "truck"),
    ("assignment", "truck", "carrier", "id"),
    ("object", "truck", "carrier", "id"),
    ("subject", "dept", "org_hierarchy", "ou"),
    ("subject", "dept", "org_hierarchy", "sub_ou"),
    ("subject", "specialty", "object", "name"),
    ("subject", "id", "object", "sender"),
    ("subject", "id", "object", "receiver"),
)

NULLABLE = (("object", "truck"), ("subject", "specialty"))


def _values(d, table: str, column: str) -> list:
    cols, rows = d.table(table)
    i = cols.index(column)
    return sorted({r[i] for r in rows if r[i] is not None})


@st.composite
def _column(draw, bindings):
    alias, table = draw(st.sampled_from(bindings))
    if draw(st.integers(0, 2)) == 0:
        column = draw(st.sampled_from([c for t, c in NULLABLE if t == table]
                                      or list(TABLE_COLUMNS[table])))
    else:
        column = draw(st.sampled_from(TABLE_COLUMNS[table]))
    return alias, table, column


@st.composite
def _constant(draw, d, table: str, column: str):
    return draw(st.sampled_from(_values(d, table, column) + ["nobody", 1, 0, 2.5, -1.0]))


@st.composite
def _subquery(draw, d):
    table = draw(st.sampled_from(sorted(TABLE_COLUMNS)))
    column = draw(st.sampled_from(TABLE_COLUMNS[table]))
    where = ()
    if draw(st.booleans()):
        other = draw(st.sampled_from(TABLE_COLUMNS[table]))
        where = (ColEqConst(ColumnRef(table, other), draw(_constant(d, table, other))),)
    return Select(projection=(ColumnRef(table, column),), tables=(TableRef(table),),
                  where=where)


@st.composite
def _select_case(draw):
    """A randgen dataset with duplicate rows, a wireless context and a random Select."""
    d = random_dataset(random.Random(draw(st.integers(0, 10_000))))
    for a in d.assignments[:draw(st.integers(0, 2))]:
        d = d.with_assignment(a.subject_id, a.carrier_id)  # a duplicate row
    subject = draw(st.sampled_from(d.subjects))
    t = draw(st.sampled_from([BASE_TIME] + [c.departure for c in d.carriers]))
    ctx = open_session(subject.name, (10.0, 20.0), t, d, opened_at=BASE_TIME)

    n = draw(st.integers(1, 3))
    if n > 1 and draw(st.booleans()):
        t1, c1, t2, c2 = draw(st.sampled_from(LINKED))
        tables = [t1, t2] + [draw(st.sampled_from(sorted(TABLE_COLUMNS)))] * (n - 2)
        links = [(0, c1, 1, c2)]
    else:
        tables = [draw(st.sampled_from(sorted(TABLE_COLUMNS))) for _ in range(n)]
        links = []
    if draw(st.booleans()):
        tables.reverse()
        links = [(n - 1 - i, ci, n - 1 - j, cj) for i, ci, j, cj in links]
    bindings = [(f"b{k}", t) for k, t in enumerate(tables)]

    where = [ColEqCol(ColumnRef(bindings[i][0], ci), ColumnRef(bindings[j][0], cj))
             for i, ci, j, cj in links]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("const", "const", "context", "in", "eq")))
        alias, table, column = draw(_column(bindings))
        ref = ColumnRef(alias, column)
        if kind == "const":
            where.append(ColEqConst(ref, draw(_constant(d, table, column))))
        elif kind == "context":
            where.append(ColEqContext(ref, draw(st.sampled_from(("session_user", "t", "l")))))
        elif kind == "in":
            where.append(InSubquery(ref, draw(_subquery(d))))
        else:
            alias2, _, column2 = draw(_column(bindings))
            where.append(ColEqCol(ref, ColumnRef(alias2, column2)))
    where = draw(st.permutations(where))

    if draw(st.booleans()):
        projection = (STAR,)
    else:
        projection = tuple(ColumnRef(a, c) for a, _, c in
                           draw(st.lists(_column(bindings), min_size=1, max_size=3)))
    q = Select(projection=projection,
               tables=tuple(TableRef(t, a) for a, t in bindings), where=tuple(where))
    return d, ctx, q


@given(_select_case())
@settings(max_examples=400, deadline=None)
def test_indexed_select_equals_nested_loop_as_bags(case):
    d, ctx, q = case
    got = evaluate(q, d, ctx)
    want = oracle.nested_loop_evaluate(q, d, ctx)
    assert got.schema == want.schema
    assert Counter(got.rows) == Counter(want.rows)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_assignments_of_equals_linear_scan(seed):
    d = random_dataset(random.Random(seed))
    for a in d.assignments[:2]:
        d = d.with_assignment(a.subject_id, a.carrier_id)
    for s in d.subjects + (d.subjects[0]._replace(id="nobody"),):
        assert list(d.assignments_of(s.id)) == \
            [a for a in d.assignments if a.subject_id == s.id]


def test_index_buckets_keep_table_order_and_skip_none(fixture_dataset):
    d = fixture_dataset.with_assignment("s04", "t1")
    cols, rows = d.table("assignment")
    assert d.index("assignment", "truck")["t1"] == \
        [r for r in rows if r[1] == "t1"]
    assert len(d.index("assignment", "id")["s04"]) == 2
    assert None not in d.index("object", "truck")
    assert d.index("object", "truck") is d.index("object", "truck")


# ---------------------------------------------------------------------------
# Every version gets its own caches
# ---------------------------------------------------------------------------

PARKER_OBJECTS = Select(
    projection=(ColumnRef("object", "oid"),),
    tables=(TableRef("subject"), TableRef("assignment"), TableRef("object")),
    where=(ColEqConst(ColumnRef("subject", "name"), "Parker"),
           ColEqCol(ColumnRef("subject", "id"), ColumnRef("assignment", "id")),
           ColEqCol(ColumnRef("assignment", "truck"), ColumnRef("object", "truck"))))


def _oids(q, d) -> list:
    return sorted(r[0] for r in evaluate(q, d).rows)


def test_derived_versions_rebuild_indexes_and_leave_the_old_one_alone(fixture_dataset):
    d = replace(fixture_dataset)  # a fresh version, so the shared fixture keeps no caches
    before = _oids(PARKER_OBJECTS, d)
    assert before == ["o001", "o002", "o003", "o004"]
    assert linkage.supervisors("Parker", d) == ["Chris", "Charles"]
    assert [a.carrier_id for a in d.assignments_of("s04")] == ["t1"]

    added = d.with_assignment("s04", "t5")
    assert _oids(PARKER_OBJECTS, added) == before + ["o005"]
    assert [a.carrier_id for a in added.assignments_of("s04")] == ["t1", "t5"]

    removed = d.without_assignment("s04", "t1")
    assert _oids(PARKER_OBJECTS, removed) == []
    assert removed.assignments_of("s04") == ()

    moved = d.with_object_carrier(("o001", "o005"), "t1")
    assert _oids(PARKER_OBJECTS, moved) == ["o001", "o002", "o003", "o004", "o005"]
    unloaded = d.with_object_carrier(("o002",), None)
    assert _oids(PARKER_OBJECTS, unloaded) == ["o001", "o003", "o004"]

    reorganized = replace(d, org_edges=d.org_edges + (OrgEdge("IT", "Trucking"),))
    assert linkage.supervisors("Parker", reorganized) == ["Adam", "Chris", "Charles"]
    assert linkage.subordinates("Adam", reorganized) == {"Alice", "Bob", "Parker"}

    for derived in (added, removed, moved, unloaded, reorganized):
        assert Counter(evaluate(PARKER_OBJECTS, derived).rows) == \
            Counter(oracle.nested_loop_evaluate(PARKER_OBJECTS, derived).rows)
    assert _oids(PARKER_OBJECTS, d) == before
    assert linkage.supervisors("Parker", d) == ["Chris", "Charles"]
    assert linkage.subordinates("Adam", d) == set()
    assert [a.carrier_id for a in d.assignments_of("s04")] == ["t1"]


# ---------------------------------------------------------------------------
# Row order does not depend on the hash seed
# ---------------------------------------------------------------------------

_PRINT_ROWS = """
from vpdgate import lifecycle, queryir, relstore, sessionctx
d = relstore.load_bundled("logistics")
ctx = sessionctx.open_session("Charles", None, None, d)
for text in ("select * from object", "select oid, name from object where truck = 't1'"):
    for mode in ("workflow", "direct"):
        vpd = lifecycle.build_vpd(ctx, d, text, chain_mode=mode)
        print(queryir.evaluate(vpd.query, d, ctx).rows)
        print(queryir.evaluate(vpd.closed_query, d, ctx).rows)
"""


def test_union_rows_do_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (str(src),
                                                            os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", _PRINT_ROWS], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("o00") > 8

