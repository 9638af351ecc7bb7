"""Link discovery between a requesting subject and target data.

Four kinds of linkage drive the access predicates:

* route ranges   - the planned polyline and time window of every carrier
                   a subject is assigned to (location_range), with a
                   configurable corridor width for "along the route";
                   in_range and route_verdict, the one decision of a
                   reported (l, t), share its window and corridor tests;
* workflow       - the shortest declared foreign-key chain from the
                   subject table to a target table;
* organization   - transitive subordination over the org_hierarchy DAG;
* direct/specialty - sender/receiver identity or specialty/name match.

All functions are pure over an immutable Dataset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from datetime import datetime
from operator import attrgetter

from . import geo
from .errors import NoChainError, UnknownSubjectError
from .geo import Point
from .queryir import ColEqCol, ColEqContext, ColumnRef, Predicate
from .relstore import Dataset

CHAIN_MODES = ("workflow", "specialty", "direct")
SUPERVISOR_MODES = ("narrative", "strict")

SUBJECT_TABLE = "subject"


@dataclass(frozen=True)
class RouteRange:
    """Spatial corridor and time window of one carrier assignment."""

    carrier_id: str
    polyline: tuple[Point, ...]
    t_b: datetime
    t_e: datetime
    corridor_km: float

    def distance_km(self, loc: Point) -> float:
        return geo.polyline_distance_km(loc, self.polyline)

    def in_window(self, t: datetime) -> bool:
        """t within [t_b, t_e], bounds inclusive."""
        return self.t_b <= t <= self.t_e

    def in_corridor(self, loc: Point) -> bool:
        """loc at most corridor_km from the planned polyline."""
        return self.distance_km(loc) <= self.corridor_km


@dataclass(frozen=True)
class JoinChain:
    """Ordered equality predicates connecting subject to a target table."""

    predicates: tuple[ColEqCol, ...]
    tables: tuple[str, ...]  # traversal order, starts at subject


def _subject(name: str, d: Dataset):
    try:
        return d.subject_by_name[name]
    except KeyError:
        raise UnknownSubjectError(name) from None


def location_range(s: str, d: Dataset) -> list[RouteRange]:
    """One RouteRange per assignment of subject s, as wide as the manifest's
    corridor; empty when unassigned."""
    subj = _subject(s, d)
    width = d.manifest.corridor_km
    out = []
    for a in d.assignments_of(subj.id):
        c = d.carrier_by_id[a.carrier_id]
        out.append(RouteRange(carrier_id=c.id, polyline=c.waypoints,
                              t_b=c.departure, t_e=c.arrival, corridor_km=width))
    return out


def in_range(loc: Point, t: datetime, r: RouteRange) -> bool:
    """True iff t is within r's window and loc within its corridor."""
    return r.in_window(t) and r.in_corridor(loc)


REASON_IN_RANGE = "in-range"
REASON_OUT_OF_ROUTE = "out-of-route"
REASON_OUT_OF_TIME = "out-of-time"
REASON_NO_ASSIGNMENT = "no-assignment"

VERDICT_MEMO_SIZE = 8192  # corridor tests kept per Dataset version before the memo is emptied


def route_verdict(s: str, loc: Point | None, t: datetime | None, d: Dataset) -> str:
    """Whether the report (loc, t) grants s, as a lifecycle reason; the only
    code that decides one. "in-range" when one carrier of s has t in its
    window and loc in its corridor (in_range's two tests); else "no-assignment",
    "out-of-time" (no window contains t) or "out-of-route". A None key is
    not constrained.

    The window test runs on every call. A corridor test does not depend on
    the clock, so its outcome is kept per Dataset version, keyed by
    (carrier, location) (Dataset.corridor_tests, emptied at
    VERDICT_MEMO_SIZE entries): a subject who has not moved is not measured
    again when only the time changes. Carriers are tested in assignment
    order, and only those in window, up to the first hit. s's RouteRanges
    are built once per version (Dataset.route_ranges).
    """
    ranges = d.route_ranges.get(s)
    if ranges is None:  # racing threads store equal tuples
        ranges = d.route_ranges[s] = tuple(location_range(s, d))
    verdict = REASON_OUT_OF_TIME if ranges else REASON_NO_ASSIGNMENT
    memo = d.corridor_tests
    for r in ranges:
        if t is not None and not r.in_window(t):
            continue
        if loc is None:
            return REASON_IN_RANGE
        key = (r.carrier_id, loc)
        hit = memo.get(key)
        if hit is None:
            hit = r.in_corridor(loc)
            if len(memo) >= VERDICT_MEMO_SIZE:
                memo.clear()
            memo[key] = hit  # racing threads store the same outcome
        if hit:
            return REASON_IN_RANGE
        verdict = REASON_OUT_OF_ROUTE
    return verdict


def _fk_graph(foreign_keys: tuple[tuple[str, str], ...]) -> dict[str, list[tuple[str, str, str]]]:
    """table -> [(neighbor, own column, neighbor column)], from declared FKs."""
    graph: dict[str, list[tuple[str, str, str]]] = {}
    for left, right in foreign_keys:
        lt, lc = left.split(".", 1)
        rt, rc = right.split(".", 1)
        graph.setdefault(lt, []).append((rt, lc, rc))
        graph.setdefault(rt, []).append((lt, rc, lc))
    for neighbors in graph.values():
        neighbors.sort()
    return graph


def workflow(target: str, d: Dataset) -> JoinChain:
    """Shortest declared join chain from the subject table to target.

    Ties are broken by lexicographic table order so the chain is
    deterministic for a given manifest. Each chain is computed once per
    target and set of declared foreign keys.
    """
    return _chain(target, d.manifest.foreign_keys)


@functools.cache
def _chain(target: str, foreign_keys: tuple[tuple[str, str], ...]) -> JoinChain:
    if target == SUBJECT_TABLE:
        return JoinChain((), (SUBJECT_TABLE,))
    graph = _fk_graph(foreign_keys)
    # BFS; the frontier is expanded in sorted order, so the first path
    # reaching the target is the lexicographically least shortest path.
    frontier: list[tuple[tuple[str, ...], tuple[ColEqCol, ...]]] = [((SUBJECT_TABLE,), ())]
    seen = {SUBJECT_TABLE}
    while frontier:
        next_frontier = []
        for path, preds in frontier:
            here = path[-1]
            for neighbor, own_col, their_col in graph.get(here, ()):
                if neighbor in seen:
                    continue
                step = ColEqCol(ColumnRef(here, own_col), ColumnRef(neighbor, their_col))
                if neighbor == target:
                    return JoinChain(preds + (step,), path + (neighbor,))
                next_frontier.append((path + (neighbor,), preds + (step,)))
        seen.update(p[-1] for p, _ in next_frontier)
        frontier = next_frontier
    raise NoChainError(f"no declared chain links {SUBJECT_TABLE!r} to {target!r}")


def _levels(start: str, d: Dataset, near: str, far: str) -> list[set[str]]:
    """Units reachable from start over org_hierarchy edges, each followed
    from its `near` column to its `far` one (ou to sub_ou is down), grouped
    by minimum edge count, level 1 first; start is in none."""
    edges, step = d.index("org_hierarchy", near), attrgetter(far)
    levels: list[set[str]] = []
    seen = {start}
    current = {n for n in map(step, edges.get(start, ())) if n != start}
    while current:
        levels.append(current)
        seen.update(current)
        current = {n for node in current for n in map(step, edges.get(node, ()))
                   if n not in seen}
    return levels


def sub_ou_levels(ou: str, d: Dataset) -> list[set[str]]:
    """Sub-units below ou grouped by minimum edge distance (level 1 first)."""
    return _levels(ou, d, "ou", "sub_ou")


def organization(s1: str, s2: str, d: Dataset) -> bool:
    """True iff s1 is a (transitive, strict) subordinate of s2."""
    _subject(s1, d)  # an unknown s1 raises, as an unknown s2 does
    return s1 in _subordinates(s2, d)[0]


def subordinates(s: str, d: Dataset) -> frozenset[str]:
    """All subject names s' with organization(s', s)."""
    return _subordinates(s, d)[0]


def subordinates_by_id(s: str, d: Dataset) -> tuple[str, ...]:
    """subordinates(s, d) in subject-id order, the order of a supervisor's union."""
    return _subordinates(s, d)[1]


def _subordinates(s: str, d: Dataset) -> tuple[frozenset[str], tuple[str, ...]]:
    """s's subordinates as a name set and in subject-id order, found once
    per Dataset version (Dataset.subordinate_closures) from the levels
    below s's dept. Both are immutable, so no caller can change a later
    answer."""
    memo = d.subordinate_closures
    entry = memo.get(s)
    if entry is None:
        by_dept = d.index(SUBJECT_TABLE, "dept")
        names = frozenset(other.name for level in _levels(_subject(s, d).dept, d, "ou", "sub_ou")
                          for ou in level for other in by_dept.get(ou, ()))
        entry = (names, tuple(sorted(names, key=lambda name: d.subject_by_name[name].id)))
        memo[s] = entry  # racing threads store equal entries
    return entry


def supervisors(s: str, d: Dataset) -> list[str]:
    """Subjects s is subordinate to, nearest first, ties by name: the
    levels above s's dept, where a unit's level is its minimum edge
    distance down to s's dept."""
    by_dept = d.index(SUBJECT_TABLE, "dept")
    return [name for level in _levels(_subject(s, d).dept, d, "sub_ou", "ou")
            for name in sorted(other.name for ou in level for other in by_dept.get(ou, ()))]


def link(target: str, mode: str, d: Dataset) -> list[tuple[Predicate, ...]]:
    """Join-predicate conjunctions binding the session's subject to target rows.

    Every conjunction starts with the session-identity predicate, so a
    session can never act for another subject by query text, and names
    no subject itself: one result serves every subject of a session. The
    result is a list of branches: workflow and specialty produce one,
    direct produces two (sender match, receiver match) that the rewriter
    joins with UNION.
    """
    session = ColEqContext(ColumnRef(SUBJECT_TABLE, "name"), "session_user")
    if mode == "workflow":
        chain = workflow(target, d)
        return [(session, *chain.predicates)]
    if mode == "specialty":
        pred = ColEqCol(ColumnRef(SUBJECT_TABLE, "specialty"), ColumnRef(target, "name"))
        return [(session, pred)]
    if mode == "direct":
        sender = ColEqCol(ColumnRef(SUBJECT_TABLE, "id"), ColumnRef(target, "sender"))
        receiver = ColEqCol(ColumnRef(SUBJECT_TABLE, "id"), ColumnRef(target, "receiver"))
        return [(session, sender), (session, receiver)]
    raise ValueError(f"unknown chain mode: {mode!r}")


def link_tables(target: str, mode: str, d: Dataset) -> tuple[str, ...]:
    """FROM tables a link-mode rewrite needs, in canonical chain order."""
    if mode == "workflow":
        return workflow(target, d).tables
    if mode in ("specialty", "direct"):
        return (SUBJECT_TABLE, target) if target != SUBJECT_TABLE else (SUBJECT_TABLE,)
    raise ValueError(f"unknown chain mode: {mode!r}")
