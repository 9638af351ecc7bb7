"""Restricted query language: AST, parser, canonical printer, evaluator.

The grammar is the minimal closure of the queries the engine rewrites:

    query   := select (UNION select)*
    select  := SELECT proj FROM table [alias] (, table [alias])* [WHERE conj]
    proj    := '*' | item (, item)*            item := col | table.'*'
    conj    := pred (AND pred)*
    pred    := col = col
             | col = literal
             | col = sys_context:key
             | col IN ( query )
             | sys_context:key IN range(subject, location|time)

A range gate's subject is an identifier or, for a name that is not one,
a string literal.

The range gates of a Select naming one subject are decided together,
as one report, by linkage.route_verdict, as the lifecycle decides it; a
key with no gate is not constrained.

Keywords are case-insensitive, identifiers case-sensitive. UNION has set
semantics (duplicates eliminated). Anything outside the subset (OR,
ordering, grouping, aggregates, non-equality comparisons, constant-only
predicates) is rejected at parse time. Absent values (None) compare
unequal to everything, including each other.

UNIONs of any width are walked iteratively (union_branches), so printing
and evaluating them never recurses per branch. evaluate_groups evaluates
(Select, pin) pairs, each as one streamed join; a pin binds one named
predicate of its Select to a set of values, so a supervisor's VPD is
evaluated as a few pinned joins without building its wide UNION. Joins
read candidate rows from the Dataset's lazily built per-column indexes
instead of scanning tables, so a request costs in proportion to the rows
it touches. A joined row is one flat tuple of its bound rows, projected
by a C-level itemgetter; see _join. union_schema gives the schema those
pairs, or a UNION's branches, evaluate to without joining them.

A binding with both a `col = literal/context` filter and an equality to
an already-bound binding takes its candidates from the smaller side:
the join index probed per environment, when the estimated environments
times that index's mean bucket is below the filter's bucket, else the
filter's bucket hashed on the join column (_join). Both sides give each
join value's rows in table order, so the choice never changes the rows
or their order.

Parsing and evaluation are pure; Query and RowSet values are immutable.
A parse is kept per query text (PARSE_MEMO_SIZE), and a Select's column
scope per FROM list and projection (SCOPE_MEMO_SIZE); neither depends
on a Dataset, whose tables always have the columns of TABLE_COLUMNS.
The parser refuses a text whose SELECTs nest more than MAX_SELECT_DEPTH
deep, so no walker of a parsed query recurses past Python's limit.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter

from .errors import (
    QuerySyntaxError,
    UnknownColumnError,
    UnknownTableError,
    UnsupportedFeatureError,
    VpdGateError,
)
from .relstore import table_columns
from .sessionctx import CONTEXT_KEYS, context_lookup
from .timeutil import format_timestamp

RANGE_KINDS = ("location", "time")

PARSE_MEMO_SIZE = 256  # query texts whose parse is kept, least recently used dropped first
MAX_SELECT_DEPTH = 64  # SELECTs nested by IN, the outermost counted; deeper texts are refused
SCOPE_MEMO_SIZE = 256  # (FROM list, projection) pairs whose column scope is kept


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnRef:
    qualifier: str | None
    column: str  # "*" for a qualified star in projections

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.column}" if self.qualifier else self.column


@dataclass(frozen=True)
class TableRef:
    table: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.table

    def __str__(self) -> str:
        return f"{self.table} {self.alias}" if self.alias else self.table


@dataclass(frozen=True)
class ColEqCol:
    a: ColumnRef
    b: ColumnRef


@dataclass(frozen=True)
class ColEqConst:
    a: ColumnRef
    value: str | int | float


@dataclass(frozen=True)
class ColEqContext:
    a: ColumnRef
    key: str


@dataclass(frozen=True)
class RangeRef:
    subject: str
    kind: str  # "location" | "time"


@dataclass(frozen=True)
class InRange:
    key: str  # "l" | "t"
    range: RangeRef


@dataclass(frozen=True)
class InSubquery:
    a: ColumnRef
    query: "Query"


Predicate = ColEqCol | ColEqConst | ColEqContext | InRange | InSubquery


@dataclass(frozen=True)
class Select:
    projection: tuple[ColumnRef, ...]  # (ColumnRef(None, "*"),) for bare *
    tables: tuple[TableRef, ...]
    where: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class Union:
    left: "Query"
    right: "Query"


Query = Select | Union

STAR = ColumnRef(None, "*")


def union_branches(q: Query) -> list[Select]:
    """The Select branches of a UNION tree, left to right, without recursion.

    A Select is its own single branch. Trees of any shape and width are
    walked with an explicit stack, so a supervisor's union of thousands
    of branches never reaches Python's recursion limit.
    """
    out: list[Select] = []
    stack: list[Query] = [q]
    while stack:
        node = stack.pop()
        if isinstance(node, Union):
            stack += (node.right, node.left)
        else:
            out.append(node)
    return out


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|!=|<>|[*,()=.:;<>-])
    """,
    re.VERBOSE,
)

_UNSUPPORTED_KEYWORDS = {
    "OR", "ORDER", "GROUP", "HAVING", "JOIN", "LEFT", "RIGHT", "INNER", "OUTER",
    "CROSS", "ON", "NOT", "LIKE", "BETWEEN", "LIMIT", "OFFSET", "DISTINCT",
    "EXISTS", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "NULL", "IS",
}

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "UNION", "IN", "AS"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "string" | "number" | "op" | "eof"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # select() calls on the stack

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text.upper() == word

    def accept_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        tok = self.peek()
        if not self.accept_keyword(word):
            raise QuerySyntaxError(f"expected {word}, found {tok.text!r}", tok.pos)

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.next()
        raise QuerySyntaxError(f"expected {op!r}, found {tok.text!r}", tok.pos)

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.next()
            return True
        return False

    def ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise QuerySyntaxError(f"expected {what}, found {tok.text!r}", tok.pos)
        upper = tok.text.upper()
        if upper in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeatureError(f"{tok.text!r} is outside the supported subset")
        if upper in _KEYWORDS:
            raise QuerySyntaxError(f"expected {what}, found keyword {tok.text!r}", tok.pos)
        return self.next()

    # grammar -----------------------------------------------------------

    def query(self) -> Query:
        node: Query = self.select()
        while self.accept_keyword("UNION"):
            node = Union(node, self.select())
        return node

    def top(self) -> Query:
        node = self.query()
        self.accept_op(";")
        tok = self.peek()
        if tok.kind != "eof":
            if tok.kind == "ident" and tok.text.upper() in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedFeatureError(
                    f"{tok.text!r} is outside the supported subset")
            raise QuerySyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def select(self) -> Select:
        self.depth += 1
        if self.depth > MAX_SELECT_DEPTH:
            raise QuerySyntaxError(f"query nests SELECTs more than {MAX_SELECT_DEPTH} deep",
                                   self.peek().pos)
        self.expect_keyword("SELECT")
        projection = self.projection()
        self.expect_keyword("FROM")
        tables = [self.table_ref()]
        while self.accept_op(","):
            tables.append(self.table_ref())
        where: tuple = ()
        if self.accept_keyword("WHERE"):
            preds = [self.predicate()]
            while self.accept_keyword("AND"):
                preds.append(self.predicate())
            where = tuple(preds)
        self.depth -= 1
        return Select(projection=projection, tables=tuple(tables), where=where)

    def projection(self) -> tuple[ColumnRef, ...]:
        if self.accept_op("*"):
            return (STAR,)
        items = [self.projection_item()]
        while self.accept_op(","):
            items.append(self.projection_item())
        return tuple(items)

    def projection_item(self) -> ColumnRef:
        name = self.ident("column")
        if self.peek().kind == "op" and self.peek().text == "(":
            raise UnsupportedFeatureError(
                f"function call {name.text!r}(...) is outside the supported subset")
        if self.accept_op("."):
            if self.accept_op("*"):
                return ColumnRef(name.text, "*")
            col = self.ident("column")
            return ColumnRef(name.text, col.text)
        return ColumnRef(None, name.text)

    def table_ref(self) -> TableRef:
        table = self.ident("table")
        self.accept_keyword("AS")
        tok = self.peek()
        if tok.kind == "ident" and tok.text.upper() not in _KEYWORDS \
                and tok.text.upper() not in _UNSUPPORTED_KEYWORDS:
            return TableRef(table.text, self.next().text)
        return TableRef(table.text)

    def column_ref(self) -> ColumnRef:
        name = self.ident("column")
        if self.accept_op("."):
            col = self.ident("column")
            return ColumnRef(name.text, col.text)
        return ColumnRef(None, name.text)

    def predicate(self) -> Predicate:
        tok = self.peek()
        if tok.kind in ("number", "string") or (tok.kind == "op" and tok.text == "-"):
            raise UnsupportedFeatureError("constant-only predicates are rejected")
        if tok.kind == "ident" and tok.text == "sys_context":
            return self.range_predicate()
        col = self.column_ref()
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text in ("<", ">", "<=", ">=", "!=", "<>"):
            raise UnsupportedFeatureError(
                f"comparison {nxt.text!r} is outside the supported subset (equality only)")
        if self.accept_keyword("IN"):
            self.expect_op("(")
            sub = self.query()
            self.expect_op(")")
            return InSubquery(col, sub)
        self.expect_op("=")
        rhs = self.peek()
        if rhs.kind == "string":
            self.next()
            return ColEqConst(col, rhs.text[1:-1].replace("''", "'"))
        negative = self.accept_op("-")
        if negative and self.peek().kind != "number":
            raise QuerySyntaxError("expected number after '-'", self.peek().pos)
        if self.peek().kind == "number":
            rhs = self.next()
            value = float(rhs.text) if "." in rhs.text else int(rhs.text)
            return ColEqConst(col, -value if negative else value)
        if rhs.kind == "ident" and rhs.text == "sys_context":
            self.next()
            self.expect_op(":")
            key = self.ident("context key")
            if key.text not in CONTEXT_KEYS:
                raise QuerySyntaxError(f"unknown context key {key.text!r}", key.pos)
            return ColEqContext(col, key.text)
        return ColEqCol(col, self.column_ref())

    def range_predicate(self) -> InRange:
        self.next()  # sys_context
        self.expect_op(":")
        key = self.ident("context key")
        if key.text not in ("l", "t"):
            raise QuerySyntaxError(
                f"only sys_context:l or sys_context:t can be range-checked, got {key.text!r}",
                key.pos)
        self.expect_keyword("IN")
        fn = self.ident("range")
        if fn.text != "range":
            raise QuerySyntaxError(f"expected range(...), found {fn.text!r}", fn.pos)
        self.expect_op("(")
        if self.peek().kind == "string":
            subject = self.next().text[1:-1].replace("''", "'")
        else:
            subject = self.ident("subject name").text
        self.expect_op(",")
        kind = self.ident("range kind")
        if kind.text not in RANGE_KINDS:
            raise QuerySyntaxError(f"range kind must be location or time, got {kind.text!r}",
                                   kind.pos)
        self.expect_op(")")
        return InRange(key.text, RangeRef(subject, kind.text))


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_query(text: str) -> Query:
    """Parse query text into an AST; parse-print-parse is a fixpoint.

    The AST is immutable, so one parse per text is kept and shared
    (PARSE_MEMO_SIZE texts); a text that fails to parse raises every time.
    """
    return _Parser(text).top()


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

def _render_literal(value: str | int | float) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    text = repr(value)
    if "e" in text:  # the tokenizer reads a number's digits in place, without an exponent
        text = format(Decimal(text), "f")
        text = text if "." in text else text + ".0"
    return text


def _render_name(name: str) -> str:
    """A range gate's subject: bare when it reads back as that one
    identifier, else a string literal (the parser takes both)."""
    m = _TOKEN_RE.fullmatch(name)
    if m is not None and m.lastgroup == "ident" \
            and name.upper() not in _KEYWORDS | _UNSUPPORTED_KEYWORDS:
        return name
    return _render_literal(name)


def render_predicate(p: Predicate) -> str:
    """One predicate's canonical text, as a WHERE clause prints it."""
    if isinstance(p, ColEqCol):
        return f"{p.a} = {p.b}"
    if isinstance(p, ColEqConst):
        return f"{p.a} = {_render_literal(p.value)}"
    if isinstance(p, ColEqContext):
        return f"{p.a} = sys_context:{p.key}"
    if isinstance(p, InRange):
        return f"sys_context:{p.key} IN range({_render_name(p.range.subject)}, {p.range.kind})"
    if isinstance(p, InSubquery):
        return f"{p.a} IN ({render_query(p.query)})"
    raise TypeError(f"not a predicate: {p!r}")


def render_query(q: Query) -> str:
    """Canonical text: upper-case keywords, one predicate per AND, stable order.

    A UNION of any width renders its branches joined by " UNION ",
    without recursing once per Union node.
    """
    return " UNION ".join(_render_select(b) for b in union_branches(q))


def _render_select(q: Select) -> str:
    parts = ["SELECT ", ", ".join(str(c) for c in q.projection),
             " FROM ", ", ".join(str(t) for t in q.tables)]
    if q.where:
        parts += [" WHERE ", " AND ".join(render_predicate(p) for p in q.where)]
    return "".join(parts)


# ---------------------------------------------------------------------------
# RowSet
# ---------------------------------------------------------------------------

def row_sort_key(row: tuple):
    return tuple((v is None, type(v).__name__, str(v)) for v in row)


@dataclass(frozen=True)
class RowSet:
    schema: tuple[str, ...]
    rows: tuple[tuple, ...]

    def sorted_rows(self) -> tuple[tuple, ...]:
        """Deterministic canonical ordering for comparisons."""
        return tuple(sorted(self.rows, key=row_sort_key))

    def as_set(self) -> frozenset:
        return frozenset(self.rows)

    def column(self, name: str) -> list:
        """Column values by exact qualified name or unique unqualified suffix."""
        if name in self.schema:
            idx = self.schema.index(name)
        else:
            matches = [i for i, s in enumerate(self.schema) if s.endswith("." + name)]
            if not matches:
                raise UnknownColumnError(f"no column {name!r} in {self.schema}")
            if len(matches) > 1:
                raise UnknownColumnError(f"ambiguous column {name!r} in {self.schema}")
            idx = matches[0]
        return [row[idx] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

class _Scope:
    """Column resolution and joined-environment offsets (see _join) of a FROM list."""

    def __init__(self, tables: tuple[TableRef, ...]):
        self.bindings: list[str] = []
        self.tables: dict[str, str] = {}
        self.columns: dict[str, tuple[str, ...]] = {}
        for t in tables:
            binding = t.binding
            if binding in self.columns:
                raise UnknownTableError(f"duplicate table binding {binding!r}")
            self.bindings.append(binding)
            self.tables[binding] = t.table
            self.columns[binding] = table_columns(t.table)
        *starts, self.width = accumulate((len(self.columns[b]) for b in self.bindings), initial=0)
        self.offsets = dict(zip(self.bindings, starts))

    def resolve(self, ref: ColumnRef) -> tuple[str, int]:
        if ref.qualifier is not None:
            if ref.qualifier not in self.columns:
                raise UnknownTableError(
                    f"column {ref} references {ref.qualifier!r}, which is not in FROM")
            cols = self.columns[ref.qualifier]
            if ref.column not in cols:
                raise UnknownColumnError(f"no column {ref.column!r} in {ref.qualifier!r}")
            return ref.qualifier, cols.index(ref.column)
        hits = [(b, self.columns[b].index(ref.column))
                for b in self.bindings if ref.column in self.columns[b]]
        if not hits:
            raise UnknownColumnError(f"no column {ref.column!r} in FROM tables")
        if len(hits) > 1:
            raise UnknownColumnError(f"column {ref.column!r} is ambiguous")
        return hits[0]


def _context_value(ctx, key: str):
    value = context_lookup(ctx, key)
    if isinstance(value, datetime):
        return format_timestamp(value)
    return value


def _gates_hold(q: Select, dataset, ctx) -> bool:
    """Whether ctx passes q's range gates: one route_verdict per subject."""
    reported: dict[str, dict[str, object]] = {}
    for p in q.where:
        if isinstance(p, InRange):
            reported.setdefault(p.range.subject, {})[p.key] = context_lookup(ctx, p.key)
    if not reported:
        return True
    from . import linkage  # local: linkage depends on this module's AST types
    return all(linkage.route_verdict(s, keys.get("l"), keys.get("t"), dataset)
               == linkage.REASON_IN_RANGE for s, keys in reported.items())


def evaluate(q: Query, dataset, ctx=None) -> RowSet:
    """Bag-semantics evaluation of a Select, set semantics for UNION.

    A UNION of any width evaluates without recursion: its branches are
    evaluated in order, and each distinct row is kept at its first
    occurrence (evaluate_groups with no pins). Joins stream.
    """
    if isinstance(q, Union):
        return evaluate_groups([(b, None) for b in union_branches(q)], dataset, ctx)
    schema, rows = _select(q, dataset, ctx)
    return RowSet(schema, tuple(rows))


def evaluate_groups(groups, dataset, ctx=None) -> RowSet:
    """Set union of (Select, pin) pairs, each evaluated as one join, in order.

    pin is None or the (k, values) form _select takes: the Select's k-th
    predicate is evaluated as membership of its column in values, so one
    pinned Select stands for the UNION of its copies with that predicate
    set to each value (σ[P ∧ a=c1] ∪ σ[P ∧ a=c2] = σ[P ∧ a∈{c1,c2}]); the
    caller names the pinned predicate. Rows keep their first occurrence,
    so the same pairs always give the same rows in the same order.
    """
    schema: tuple[str, ...] | None = None
    parts = []
    for sel, pin in groups:
        branch_schema, rows = _select(sel, dataset, ctx, pin)
        schema = _same_arity(schema, branch_schema)
        parts.append(rows)
    return RowSet(schema, tuple(dict.fromkeys(chain.from_iterable(parts))))


def union_schema(selects) -> tuple[str, ...]:
    """The schema the UNION of selects evaluates to, derived without joining:
    the first Select's columns. Raises VpdGateError, as evaluating them
    does, when two Selects differ in arity."""
    schema: tuple[str, ...] | None = None
    for sel in selects:
        schema = _same_arity(schema, _columns(sel.tables, sel.projection)[1])
    return schema


def _same_arity(schema: tuple[str, ...] | None, branch_schema: tuple[str, ...]):
    """A UNION's schema after one more branch: the first branch's schema;
    a branch of another arity is an error."""
    if schema is None:
        return branch_schema
    if len(branch_schema) != len(schema):
        raise VpdGateError(
            f"UNION branches have different arity: {len(schema)} vs {len(branch_schema)}")
    return schema


@lru_cache(maxsize=SCOPE_MEMO_SIZE)
def _columns(tables: tuple[TableRef, ...], projection: tuple[ColumnRef, ...]
             ) -> tuple[_Scope, tuple[str, ...], tuple[int, ...]]:
    """A Select's scope, its schema, and each projected column's
    joined-environment offset, from its FROM list and projection alone;
    kept for SCOPE_MEMO_SIZE pairs. The scope is only read after this."""
    scope = _Scope(tables)
    schema, flat = zip(*_projection_targets(projection, scope))
    return scope, schema, flat


def _select(q: Select, dataset, ctx, pin: tuple[int, dict] | None = None):
    """Schema and streamed projected rows of one Select.

    With pin = (k, values), q.where[k] (an equality of a column with a
    literal or a context key) is evaluated as membership of that column
    in values instead. Membership values are insertion-ordered dicts
    (O(1) `in`, and an iteration order that does not depend on the hash
    seed, so neither does the row order).
    """
    scope, schema, flat = _columns(q.tables, q.projection)

    # Row-independent gates first: a refused report empties the result.
    if not _gates_hold(q, dataset, ctx):
        return schema, iter(())

    # Pre-resolve predicate columns and constants.
    equalities: list[tuple[tuple[str, int], tuple[str, int]]] = []
    filters: list[tuple[tuple[str, int], object]] = []
    memberships: list[tuple[tuple[str, int], dict]] = []
    for k, pred in enumerate(q.where):
        if pin is not None and k == pin[0]:
            memberships.append((scope.resolve(pred.a), pin[1]))
        elif isinstance(pred, ColEqCol):
            equalities.append((scope.resolve(pred.a), scope.resolve(pred.b)))
        elif isinstance(pred, ColEqConst):
            filters.append((scope.resolve(pred.a), pred.value))
        elif isinstance(pred, ColEqContext):
            filters.append((scope.resolve(pred.a), _context_value(ctx, pred.key)))
        elif isinstance(pred, InSubquery):
            inner = evaluate(pred.query, dataset, ctx)
            if len(inner.schema) != 1:
                raise VpdGateError("IN subquery must project exactly one column")
            memberships.append((scope.resolve(pred.a),
                                dict.fromkeys(v for v in inner.column(inner.schema[0])
                                              if v is not None)))

    env = _join(scope, dataset, equalities, filters, memberships)
    if len(flat) == 1:
        return schema, zip(map(itemgetter(flat[0]), env))  # zip wraps each value in a 1-tuple
    return schema, map(itemgetter(*flat), env)


def _projection_targets(projection: tuple[ColumnRef, ...],
                        scope: _Scope) -> list[tuple[str, int]]:
    """(schema name, offset in the joined environment) of each projected column."""
    targets: list[tuple[str, int]] = []
    for item in projection:
        if item.column == "*":
            bindings = scope.bindings if item.qualifier is None else [item.qualifier]
            for b in bindings:
                if b not in scope.columns:
                    raise UnknownTableError(f"{item} references {b!r}, which is not in FROM")
                targets += ((f"{b}.{col}", scope.offsets[b] + i)
                            for i, col in enumerate(scope.columns[b]))
        else:
            b, i = scope.resolve(item)
            targets.append((f"{b}.{scope.columns[b][i]}", scope.offsets[b] + i))
    return targets


def _join(scope: _Scope, dataset, equalities, filters, memberships) -> Iterator[tuple]:
    """Incremental join over the FROM bindings, in FROM order.

    An environment is one flat tuple, the rows bound so far concatenated
    in FROM order: a step yields `e + r`, and joins and filters read
    `e[scope.offsets[b] + i]`. A binding's candidate rows come from the
    dataset's per-column indexes (Dataset.index), not a table scan:

    * with a `col = literal/context` filter, the index bucket of its
      first such filter, unless probing is cheaper (below);
    * else with a membership, the buckets of the membership's values;
    * else, when an equality links it to an already-bound binding, the
      bucket of each environment's join value, probed per environment.

    Only a binding with none of these is scanned. Its remaining filters
    and memberships are checked per candidate row, and candidates taken
    from a filter or membership are hashed on the join column when an
    equality links them to the bound bindings.

    Candidate source of a binding with a filter and an equality to a
    bound binding: the filter's bucket costs its size; probing costs the
    estimated environments so far (the product of the bound bindings'
    candidate counts) times the join index's mean bucket (rows / keys).
    When probing costs less, the join index is probed and every filter
    and membership is checked on each row (a field subject's one or two
    carriers against a good's name bucket); else the bucket is hashed (a
    supervisor pinned to hundreds of subordinates). Either way each join
    value's rows come in table order, so the rows and their order are
    the same. The environments stream through one generator per step, so
    no step holds them all.
    """
    bound: set[str] = set()
    env: Iterator[tuple] = iter(((),))
    pending_eq = list(equalities)
    estimate = 1.0  # environments so far: the bound bindings' candidate counts multiplied

    for binding in scope.bindings:
        own_filters = [(i, value) for (b, i), value in filters if b == binding]
        own_memberships = [(i, values) for (b, i), values in memberships if b == binding]
        table, columns = scope.tables[binding], scope.columns[binding]

        ni = None  # the join column, when an equality links a bound binding
        for eq in pending_eq:
            (b1, i1), (b2, i2) = eq
            if b1 in bound and b2 == binding:
                bound_at, ni = scope.offsets[b1] + i1, i2
            elif b2 in bound and b1 == binding:
                bound_at, ni = scope.offsets[b2] + i2, i1
            else:
                continue
            pending_eq.remove(eq)
            break

        if own_filters:
            i, value = own_filters[0]
            rows = dataset.index(table, columns[i]).get(value, ())
            # A non-empty join index's mean bucket is at least one row, so
            # probing can only be cheaper than a bucket of more rows than
            # there are environments; only then is the join index read.
            if (ni is not None and len(rows) > estimate
                    and estimate * _mean_bucket(dataset, table, columns[ni]) < len(rows)):
                rows = None  # probe the join index, every filter checked per row
            else:
                own_filters.pop(0)
        elif own_memberships:
            i, values = own_memberships.pop(0)
            index = dataset.index(table, columns[i])
            rows = [r for v in values for r in index.get(v, ())]
        elif ni is None:
            rows = dataset.table(table)[1]
        else:
            rows = None  # probed per environment below
        keep = _row_test(own_filters, own_memberships)

        if rows is None:
            env = _probe(env, dataset.index(table, columns[ni]), bound_at, keep)
            estimate *= _mean_bucket(dataset, table, columns[ni])
        else:
            if keep is not None:
                rows = [r for r in rows if keep(r)]
            estimate *= len(rows)
            if ni is None:
                env = _cross(env, rows)
            else:
                env = _probe(env, _by_join_value(rows, ni), bound_at)
        bound.add(binding)

        # Apply any remaining equalities that just became fully bound.
        for eq in list(pending_eq):
            (b1, i1), (b2, i2) = eq
            if b1 in bound and b2 in bound:
                env = _where_equal(env, scope.offsets[b1] + i1, scope.offsets[b2] + i2)
                pending_eq.remove(eq)

    return env


def _mean_bucket(dataset, table: str, column: str) -> float:
    """Rows per key of the table's index on column; 0 for an empty index."""
    index = dataset.index(table, column)
    return len(dataset.table(table)[1]) / len(index) if index else 0.0


def _row_test(filters, memberships):
    """The test of a candidate row against its binding's remaining filters
    and memberships; None when there are none."""
    if not filters and not memberships:
        return None
    return lambda r: (all(r[i] is not None and r[i] == value for i, value in filters)
                      and all(r[i] in values for i, values in memberships))


def _by_join_value(rows, at: int) -> dict:
    """Rows hashed on their value at `at`, each bucket in row order; no None key."""
    by_value: dict = {}
    for r in rows:
        if r[at] is not None:
            by_value.setdefault(r[at], []).append(r)
    return by_value


def _cross(env, rows) -> Iterator[tuple]:
    return (e + r for e in env for r in rows)


def _probe(env, by_value: dict, at: int, keep=None) -> Iterator[tuple]:
    # by_value holds no None key, so an absent join value finds no rows.
    if keep is None:
        return (e + r for e in env for r in by_value.get(e[at], ()))
    return (e + r for e in env for r in by_value.get(e[at], ()) if keep(r))


def _where_equal(env, at1: int, at2: int) -> Iterator[tuple]:
    return (e for e in env if e[at1] is not None and e[at1] == e[at2])
