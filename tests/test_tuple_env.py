"""Flat tuple environments in the evaluator.

A joined environment is one tuple of its bound rows in FROM order, each
binding at its own column offset, and projection picks columns from it
by offset. These cases are the ones where an offset or the shape of a
projected row can go wrong: two aliases of one table, one projected
column, a column projected twice, a qualified star next to a column, a
star over several bindings and a UNION of such selects. Each is checked against the nested-loop
reference as a bag, and every row must be a tuple as wide as the schema.
"""

from __future__ import annotations

from collections import Counter

import pytest

from vpdgate import oracle
from vpdgate.queryir import evaluate, parse_query

SELF_JOIN = "SELECT s1.name, s2.name, s2.dept FROM subject s1, subject s2 WHERE s1.dept = s2.dept"
FOUR_BINDINGS = ("FROM subject, assignment, object, carrier WHERE subject.id = assignment.id"
                 " AND assignment.truck = object.truck AND object.truck = carrier.id")

CASES = {
    "self-join": SELF_JOIN,
    "self-join, probed": "SELECT a.id, b.id FROM assignment a, assignment b WHERE a.truck = b.truck",
    "self-join, equality after a cross": (
        "SELECT o1.oid, a.id, o2.oid FROM object o1, assignment a, object o2"
        " WHERE o1.truck = a.truck AND a.truck = o2.truck AND o1.name = 'Gold'"),
    "one column": "SELECT oid FROM object, assignment WHERE object.truck = assignment.truck",
    "one column of a later binding": (
        "SELECT assignment.truck FROM subject, assignment WHERE subject.id = assignment.id"),
    "one column, self-join": "SELECT s2.name FROM subject s1, subject s2 WHERE s1.dept = s2.dept",
    "same column twice": "SELECT name, name, subject.name FROM subject WHERE dept = 'Trucking'",
    "same column twice across a join": (
        "SELECT object.truck, oid, object.truck FROM assignment, object"
        " WHERE assignment.truck = object.truck"),
    "qualified star, then a column": (
        "SELECT assignment.*, name FROM subject, assignment WHERE subject.id = assignment.id"),
    "a column, then a qualified star": (
        "SELECT name, assignment.* FROM subject, assignment WHERE subject.id = assignment.id"),
    "star over four bindings": "SELECT * " + FOUR_BINDINGS,
    "qualified stars in FROM order": (
        "SELECT subject.*, assignment.*, object.*, carrier.* " + FOUR_BINDINGS),
    "qualified stars out of FROM order": (
        "SELECT carrier.*, subject.*, assignment.*, object.* " + FOUR_BINDINGS),
    "star over three bindings with two aliases": (
        "SELECT * FROM subject s, assignment a, subject s2"
        " WHERE s.id = a.id AND s.dept = s2.dept"),
    "union of self-joins": (
        "SELECT * FROM subject s1, subject s2 WHERE s1.dept = s2.dept AND s1.name = 'Parker'"
        " UNION SELECT * FROM subject s1, subject s2 WHERE s1.dept = s2.dept"
        " AND s1.name = 'Charles'"),
    "union of one-column selects": (
        "SELECT oid FROM object WHERE truck = 't1' UNION SELECT oid FROM object, assignment"
        " WHERE object.truck = assignment.truck AND assignment.id = 's02'"),
    "union of mixed projections": (
        SELF_JOIN + " UNION SELECT name, name, dept FROM subject"
        " UNION SELECT a.truck, o.oid, o.name FROM assignment a, object o"
        " WHERE a.truck = o.truck"),
}


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_flat_environment_rows_equal_nested_loop(text, fixture_dataset):
    q = parse_query(text)
    got = evaluate(q, fixture_dataset)
    want = oracle.nested_loop_evaluate(q, fixture_dataset)
    assert got.schema == want.schema
    assert got.rows, "a case with no rows checks nothing"
    assert all(type(r) is tuple and len(r) == len(got.schema) for r in got.rows)
    assert Counter(got.rows) == Counter(want.rows)

