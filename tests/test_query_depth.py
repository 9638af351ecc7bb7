"""Query nesting is bounded where the text enters.

The parser is recursive descent, and every walker of a parsed query
(render_query, the AST's hash, rewrite, evaluate) recurses once per
nested IN-subquery. queryir.MAX_SELECT_DEPTH bounds the nesting in the
parser, so a deeper query is one QuerySyntaxError, and a query at the
limit passes every walker with room to spare under the recursion limit.
"""

from __future__ import annotations

import pytest

from vpdgate import engine, queryir, relstore
from vpdgate.cli import main
from vpdgate.errors import QuerySyntaxError
from vpdgate.queryir import parse_query, render_query
from vpdgate.sessionctx import open_session

DATA = str(relstore.bundled_data_dir("logistics"))


def nested(depth: int) -> str:
    """A query of `depth` SELECTs, each but the innermost holding the next by IN."""
    text = "select oid from object"
    for _ in range(depth - 2):
        text = f"select oid from object where oid in ({text})"
    return f"select * from object where oid in ({text})" if depth > 1 else "select * from object"


@pytest.fixture(scope="module")
def logistics():
    return relstore.load_bundled("logistics")


def test_a_query_at_the_limit_passes_every_walker(logistics):
    text = nested(queryir.MAX_SELECT_DEPTH)
    query = parse_query(text)
    assert parse_query(render_query(query)) == query
    hash(query)
    # Chris is a supervisor: his request is expanded over his subordinates
    # and explain renders the expansion and the closed form too.
    ctx = open_session("Chris", None, None, logistics)
    outcome = engine.run_query(logistics, ctx, text)
    assert outcome.state.valid and len(outcome.rows) > 0
    assert "verdict: GRANTED" in engine.explain(logistics, ctx, text)


@pytest.mark.parametrize("depth", [queryir.MAX_SELECT_DEPTH + 1, 400])
def test_a_deeper_query_is_refused_by_the_parser(logistics, depth):
    text = nested(depth)
    ctx = open_session("Chris", None, None, logistics)
    for call in (lambda: parse_query(text),
                 lambda: engine.run_query(logistics, ctx, text),
                 lambda: engine.explain(logistics, ctx, text)):
        with pytest.raises(QuerySyntaxError, match=f"more than {queryir.MAX_SELECT_DEPTH}"):
            call()


def test_a_union_of_queries_at_the_limit_is_not_nested():
    """UNION branches are siblings: each starts again at depth one."""
    text = " union ".join([nested(queryir.MAX_SELECT_DEPTH).replace("*", "oid", 1)] * 3)
    assert len(queryir.union_branches(parse_query(text))) == 3


def test_the_cli_prints_one_error_line_for_a_deeper_query(capsys):
    code = main(["query", "--data", DATA, "--subject", "Chris",
                 nested(queryir.MAX_SELECT_DEPTH + 1)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(queryir.MAX_SELECT_DEPTH) in err
