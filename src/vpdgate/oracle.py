"""Brute-force reference implementation of object accessibility.

Used by tests to validate the rewrite pipeline. Everything here is
re-derived by direct enumeration over the relstore records: route
validity walks assignments and carriers row by row (_route_valid, also
for nested_loop_evaluate's range gates), subordination is a plain DFS
over org edges, and chains are membership tests. None of the query,
linkage or rewrite code paths are used. The spherical distance
primitive is shared (geo module), since two float implementations would
disagree at the corridor boundary.

Deliberately O(subjects x objects x hierarchy); correctness over speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import datetime

from . import geo
from .errors import UnknownColumnError, UnknownSubjectError, UnknownTableError, VpdGateError
from .queryir import (ColEqCol, ColEqConst, ColEqContext, InRange, InSubquery, RowSet, Select,
                      Union)
from .relstore import Dataset
from .sessionctx import context_lookup
from .timeutil import format_timestamp


@dataclass(frozen=True)
class AccessTuple:
    subject: str
    object_id: str
    permitted: bool
    via: str | None = None  # enumerated path; None when not permitted


def _subject_record(name: str, d: Dataset):
    for s in d.subjects:
        if s.name == name:
            return s
    raise UnknownSubjectError(name)


def _carriers_of(subject_id: str, d: Dataset) -> list:
    cids = [a.carrier_id for a in d.assignments if a.subject_id == subject_id]
    return [c for c in d.carriers for cid in cids if c.id == cid]


def _route_valid(name: str, location, timestamp, d: Dataset) -> bool:
    """Joint check: some assigned carrier accepts the reported (l, t); None is not checked."""
    subj = _subject_record(name, d)
    for carrier in _carriers_of(subj.id, d):
        if timestamp is not None and not (carrier.departure <= timestamp <= carrier.arrival):
            continue
        if location is None or geo.polyline_distance_km(location, carrier.waypoints) \
                <= d.manifest.corridor_km:
            return True
    return False


def _descendant_ous(dept: str, d: Dataset) -> set[str]:
    below: set[str] = set()
    stack = [e.sub_ou for e in d.org_edges if e.ou == dept]
    while stack:
        node = stack.pop()
        if node in below:
            continue
        below.add(node)
        stack.extend(e.sub_ou for e in d.org_edges if e.ou == node)
    return below


def _subordinate_names(name: str, d: Dataset) -> list[str]:
    dept = _subject_record(name, d).dept
    below = _descendant_ous(dept, d)
    return sorted(s.name for s in d.subjects if s.dept in below)


def _known_invalid(name: str, d: Dataset, contexts) -> bool:
    ctx = (contexts or {}).get(name)
    if ctx is None or ctx.location is None or ctx.timestamp is None:
        return False
    subj = _subject_record(name, d)
    if not _carriers_of(subj.id, d):
        return False
    return not _route_valid(name, ctx.location, ctx.timestamp, d)


def _own_objects(name: str, mode: str, d: Dataset) -> dict[str, str]:
    """object id -> via label, for one subject's own linkage in a mode."""
    subj = _subject_record(name, d)
    out: dict[str, str] = {}
    if mode == "workflow":
        carrier_ids = {c.id for c in _carriers_of(subj.id, d)}
        for o in d.objects:
            if o.carrier_id is not None and o.carrier_id in carrier_ids:
                out[o.oid] = "own-chain"
    elif mode == "specialty":
        for o in d.objects:
            if subj.specialty is not None and subj.specialty == o.name:
                out[o.oid] = "own-chain"
    elif mode == "direct":
        for o in d.objects:
            if o.sender == subj.id:
                out[o.oid] = "direct-sender"
            elif o.receiver == subj.id:
                out[o.oid] = "direct-receiver"
    else:
        raise VpdGateError(f"unknown chain mode {mode!r}")
    return out


def brute_force_accessible(s: str, ctx, d: Dataset, mode: str = "workflow",
                           supervisor_mode: str = "narrative",
                           contexts=None) -> tuple[set[str], list[AccessTuple]]:
    """Enumerate the objects subject s may access under its context.

    Returns the permitted object-id set and a per-object trace. No query
    machinery: validity and chains are checked record by record.
    """
    wireless = ctx is not None and ctx.location is not None and ctx.timestamp is not None

    valid = True
    if wireless:
        valid = _route_valid(s, ctx.location, ctx.timestamp, d)
    elif supervisor_mode == "strict":
        valid = not any(_known_invalid(sub, d, contexts)
                        for sub in _subordinate_names(s, d))

    permitted: dict[str, str] = {}
    if valid:
        permitted.update(_own_objects(s, mode, d))
        for sub in _subordinate_names(s, d):
            if supervisor_mode == "narrative" and _known_invalid(sub, d, contexts):
                continue
            for oid, _ in _own_objects(sub, mode, d).items():
                permitted.setdefault(oid, f"subordinate-chain({sub})")

    trace = [AccessTuple(s, o.oid, o.oid in permitted, permitted.get(o.oid))
             for o in d.objects]
    return set(permitted), trace


def nested_loop_evaluate(q, d: Dataset, ctx=None):
    """Reference query evaluator: plain cross product plus predicate filter.

    Exists so the production evaluator's join strategy can be checked
    against an implementation too simple to be wrong. Shares only the
    AST node types with the production path; range gates are decided by
    _route_valid, one report per subject. A UNION's tree is walked with an
    explicit stack, so its width is not bounded by the recursion limit.
    """
    if isinstance(q, Select):
        return _nested_loop_select(q, d, ctx)
    results, stack = [], [q]
    while stack:
        node = stack.pop()
        if isinstance(node, Union):
            stack += (node.right, node.left)
        else:
            results.append(_nested_loop_select(node, d, ctx))
    schema = results[0].schema
    if any(len(r.schema) != len(schema) for r in results):
        raise VpdGateError("UNION branches have different arity")
    return RowSet(schema, tuple(dict.fromkeys(row for r in results for row in r.rows)))


def _nested_loop_select(q: Select, d: Dataset, ctx) -> RowSet:
    bindings = [t.binding for t in q.tables]
    columns = {}
    rows = {}
    for t in q.tables:
        cols, data = d.table(t.table)
        columns[t.binding] = cols
        rows[t.binding] = data

    def resolve(ref):
        if ref.qualifier is not None:
            if ref.qualifier not in columns:
                raise UnknownTableError(f"{ref.qualifier!r} not in FROM")
            if ref.column not in columns[ref.qualifier]:
                raise UnknownColumnError(f"{ref}")
            return ref.qualifier, columns[ref.qualifier].index(ref.column)
        hits = [(b, columns[b].index(ref.column)) for b in bindings
                if ref.column in columns[b]]
        if len(hits) != 1:
            raise UnknownColumnError(f"{ref.column!r} resolves to {len(hits)} columns")
        return hits[0]

    def ctx_value(key):
        value = context_lookup(ctx, key)
        return format_timestamp(value) if isinstance(value, datetime) else value

    def holds(pred, env) -> bool:
        if isinstance(pred, ColEqCol):
            (ba, ia), (bb, ib) = resolve(pred.a), resolve(pred.b)
            va, vb = env[ba][ia], env[bb][ib]
            return va is not None and va == vb
        if isinstance(pred, ColEqConst):
            b, i = resolve(pred.a)
            return env[b][i] is not None and env[b][i] == pred.value
        if isinstance(pred, ColEqContext):
            b, i = resolve(pred.a)
            return env[b][i] is not None and env[b][i] == ctx_value(pred.key)
        if isinstance(pred, InSubquery):
            inner = nested_loop_evaluate(pred.query, d, ctx)
            values = {r[0] for r in inner.rows if r[0] is not None}
            b, i = resolve(pred.a)
            return env[b][i] in values
        raise VpdGateError(f"not a predicate: {pred!r}")

    targets = []
    for item in q.projection:
        if item.column == "*":
            for b in (bindings if item.qualifier is None else [item.qualifier]):
                for i, col in enumerate(columns[b]):
                    targets.append((b, col, i))
        else:
            b, i = resolve(item)
            targets.append((b, columns[b][i], i))

    schema = tuple(f"{b}.{c}" for b, c, _ in targets)

    # The range gates naming one subject are one report, checked once.
    reported: dict[str, dict] = {}
    for pred in q.where:
        if isinstance(pred, InRange):
            reported.setdefault(pred.range.subject, {})[pred.key] = context_lookup(ctx, pred.key)
    if not all(_route_valid(s, keys.get("l"), keys.get("t"), d)
               for s, keys in reported.items()):
        return RowSet(schema, ())

    out = []
    for combo in itertools.product(*(rows[b] for b in bindings)):
        env = dict(zip(bindings, combo))
        if all(holds(p, env) for p in q.where if not isinstance(p, InRange)):
            out.append(tuple(env[b][i] for b, _, i in targets))
    return RowSet(schema, tuple(out))
