"""The printed VPD runs in SQLite and returns the evaluator's rows.

A third, executable reference for the VPD text: stdlib sqlite3 runs the
rendered `vpd.query` and a supervisor's `vpd.closed_query`, and the rows
must equal, as multisets, what vpdgate evaluates for the same request.

* Each Dataset is loaded into an in-memory database, one table per
  TABLE_COLUMNS entry, rows from Dataset.table. The columns have no
  declared type, so SQLite applies no affinity, and a text '5' never
  equals 5, as in the evaluator.
* `sys_context:<key>` becomes the named parameter `:<key>`.
* A range-gate pair `sys_context:l IN range(s, location) AND
  sys_context:t IN range(s, time)` becomes a call of a registered
  function that decides the report with the oracle's own carrier walk
  (oracle._route_valid), so the reference shares no decision code with
  linkage. The report's l and t are its parameters.

SQL gives no row order, so rows compare as multisets; tests/test_join_order.py
pins the order. A shape whose rewrite raises prints no VPD, so there is
nothing to run; the test checks that such a shape raises for every
subject and verdict alike.
"""

from __future__ import annotations

import random
import re
import sqlite3
from collections import Counter

from vpdgate import linkage, oracle
from vpdgate.errors import NoChainError, UnknownColumnError
from vpdgate.lifecycle import build_vpd
from vpdgate.queryir import evaluate, render_query
from vpdgate.relstore import TABLE_COLUMNS
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import format_timestamp, parse_timestamp
from vpdgate.vpdrewrite import materialize

from randgen import random_contexts, random_dataset

SEEDS = range(200)

# User queries on object, carrier and assignment. Only workflow links the
# subject to assignment, and no chain mode to carrier, on the default
# manifest; those shapes raise at rewrite.
TEXTS = (
    "select * from object",
    "select * from object o, carrier c where o.truck = c.id",
    "select object.* from object, subject where subject.name = sys_context:session_user",
    "select * from carrier",
    "select a.truck from assignment a where a.truck = 'c2'",
)

_NAME = r"'(?:[^']|'')*'|[^\W\d]\w*"
_TEXT = re.compile(
    rf"(?P<literal>'(?:[^']|'')*')"
    rf"|sys_context:l IN range\((?P<subject>{_NAME}), location\) "
    rf"AND sys_context:t IN range\((?P=subject), time\)"
    r"|sys_context:(?P<key>\w+)")


def _sql(text: str) -> str:
    """The rendered VPD as SQLite text: gates as route_valid calls, context
    keys as named parameters; string literals are kept as they are."""
    def swap(m: re.Match) -> str:
        if m["literal"]:
            return m["literal"]
        if m["subject"]:
            subject = m["subject"]
            if not subject.startswith("'"):
                subject = f"'{subject}'"
            return f"route_valid({subject}, :l_lat, :l_lon, :t)"
        return f":{m['key']}"
    return _TEXT.sub(swap, text)


def _database(d) -> sqlite3.Connection:
    db = sqlite3.connect(":memory:")
    for table, columns in TABLE_COLUMNS.items():
        db.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
        db.executemany(f"INSERT INTO {table} VALUES ({', '.join('?' * len(columns))})",
                       d.table(table)[1])

    def route_valid(subject, lat, lon, t):
        location = None if lat is None else (lat, lon)
        timestamp = None if t is None else parse_timestamp(t)
        return oracle._route_valid(subject, location, timestamp, d)

    db.create_function("route_valid", 4, route_valid, deterministic=True)
    return db


def _parameters(ctx) -> dict:
    lat, lon = ctx.location if ctx.location is not None else (None, None)
    t = None if ctx.timestamp is None else format_timestamp(ctx.timestamp)
    return {"session_user": ctx.user, "l_lat": lat, "l_lon": lon, "t": t}


def test_sql_keeps_literals_and_swaps_gates_and_keys():
    text = ("SELECT object.* FROM subject, object WHERE sys_context:l IN range('O''Sub 1', "
            "location) AND sys_context:t IN range('O''Sub 1', time) AND subject.name = "
            "sys_context:session_user AND object.name = 'sys_context:t IN range(x, time)'")
    assert _sql(text) == (
        "SELECT object.* FROM subject, object WHERE route_valid('O''Sub 1', :l_lat, :l_lon, :t)"
        " AND subject.name = :session_user AND object.name = 'sys_context:t IN range(x, time)'")
    assert _sql("sys_context:l IN range(select, location) AND sys_context:t IN "
                "range(select, time)") == \
        "route_valid('select', :l_lat, :l_lon, :t)"


def test_the_printed_vpd_returns_the_evaluators_rows_in_sqlite():
    compared, gated, closed = 0, 0, 0
    refused: dict[tuple[str, str], set[str]] = {}  # (text, mode) -> the errors it raised
    built: set[tuple[str, str]] = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        d = random_dataset(rng, awkward_names=seed % 2 == 1)
        contexts = random_contexts(rng, d)
        db = _database(d)
        for s in d.subjects:
            ctx = contexts.get(s.name) or open_session(s.name, None, None, d)
            supervisor = bool(linkage.subordinates(s.name, d))
            for supervisor_mode in linkage.SUPERVISOR_MODES if supervisor else ("narrative",):
                for mode in linkage.CHAIN_MODES:
                    for text in TEXTS:
                        try:
                            v = build_vpd(ctx, d, text, chain_mode=mode,
                                          supervisor_mode=supervisor_mode, contexts=contexts)
                        except (NoChainError, UnknownColumnError) as e:
                            refused.setdefault((text, mode), set()).add(str(e))
                            continue
                        built.add((text, mode))
                        forms = [(v.query, materialize(v, d, ctx).rows)]
                        if v.closed_query is not None:
                            forms.append((v.closed_query, evaluate(v.closed_query, d, ctx).rows))
                        for query, rows in forms:
                            sql = _sql(render_query(query))
                            got = db.execute(sql, _parameters(ctx)).fetchall()
                            assert Counter(got) == Counter(rows), (seed, s.name, mode, sql)
                            compared += 1
                            gated += "route_valid(" in sql
                        closed += len(forms) - 1
        db.close()
    # A shape whose rewrite raises does so for every subject and verdict, with one error.
    assert not built & refused.keys()
    assert all(len(errors) == 1 for errors in refused.values()), refused
    assert {text for text, _ in built} == set(TEXTS) - {"select * from carrier"}
    assert compared > 10_000 and gated > 1000 and closed > 1000, (compared, gated, closed)
