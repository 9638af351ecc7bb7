"""Rewrites user queries into per-subject virtual private databases.

A rewrite widens the FROM clause with the subject table and the declared
join chain, then prepends access predicates to the user's own condition:

* wireless sessions (location and time reported) get the two range
  gates `sys_context:l IN range(user, location)` and
  `sys_context:t IN range(user, time)`, which the evaluator decides
  together, as the lifecycle does (linkage.route_verdict), so the VPD
  itself returns no rows for a refused report;
* every rewrite gets the session-identity predicate
  `subject.name = sys_context:session_user`, which names no subject;
* the chain-mode predicates follow (workflow join chain, specialty/name
  match, or sender/receiver identity as a two-branch UNION);
* the user's original conjunction comes last.

The projection keeps the user query's column scope: `select * from
object` projects `object.*` after rewriting, so a VPD result has the
same schema as the request and the VPD can only ever shrink it.

Only the range gates name the subject, and only the user's conditions
hold the request's literals. Everything else a rewrite derives from a
Select (column scope, projection, FROM tables, identity, chain and most
of the provenance) is one template per Select shape: its FROM list and
projection, the chain mode, the manifest's foreign keys and whether the
session is wireless. Templates are kept in a bounded memo
(TEMPLATE_MEMO_SIZE), so it grows with the number of shapes, not of
subjects or literals; no key holds a literal, a subject, a session, a
context value or a Dataset. Per request, rewrite qualifies the user's
conditions, checks that the subject exists and, for a wireless
session, adds the two gates naming it.

Every column the rewrite names is resolved by queryir's one rule
(_Scope.qualify): the request's in its own FROM scope, linkage's in the
branch's. So a bad table or column, a chain column the target lacks
and a self-join raise at rewrite, whatever the verdict; only an IN
subquery's contents and an unbound context key raise when evaluated,
for a granted request alone.

Each rewritten branch keeps its predicates by role (Branch): the range
gates, the session identity, the chain predicates and the user's own
conditions, copied verbatim. Supervisors (subjects with subordinates in
the org hierarchy) are expanded from those roles alone: a subordinate's
branch is the supervisor's without the range gates and with the identity
pinned to the subordinate's name, and the closed form replaces the
identity by department membership through IN-subqueries over
org_hierarchy, one nesting level per hierarchy level. The user's
conditions are never rewritten, `sys_context:session_user` and range
conditions included, so the VPD only ever shrinks the request.

A VPD (VpdDefinition) is a value: the subject, the rewrite's
provenance, the base branches and, for a supervisor, its expansion
(Expansion). Its UNION, groups, provenance and closed form are rebuilt
from those fields on each read, so a refused request, which reads none
of them, costs only its decision. A supervisor's VPD is evaluated as the
(Select, pin) pairs of its UNION (queryir.evaluate_groups): each base
branch pinned at its identity to the supervisor, and the same branch
without its range gates pinned at its identity to every kept
subordinate. Narrative mode decides which subordinates are kept when it
expands; whether a subordinate's reported context fails the route check
is linkage.route_verdict's decision (subordinate_known_invalid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import linkage
from .errors import UnknownColumnError, UnknownSubjectError, UnsupportedFeatureError
from .queryir import (
    ColEqCol,
    ColEqConst,
    ColEqContext,
    ColumnRef,
    InRange,
    InSubquery,
    Predicate,
    Query,
    RangeRef,
    RowSet,
    Select,
    STAR,
    TableRef,
    Union,
    _Scope,
    evaluate,
    evaluate_groups,
    union_branches,
    union_schema,
)
from .relstore import Dataset
from .sessionctx import SessionContext

ContextMap = dict  # subject name -> SessionContext
Groups = tuple[tuple[Select, tuple[int, dict]], ...]  # queryir.evaluate_groups' input


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One rewritten branch, its predicates kept by role, in WHERE order."""

    projection: tuple[ColumnRef, ...]
    tables: tuple[TableRef, ...]
    gates: tuple[InRange, ...]  # the session's range gates; none when wired
    identity: ColEqContext  # subject.name = sys_context:session_user (linkage.link)
    chain: tuple[Predicate, ...]  # the rest of linkage.link's conjunction
    user: tuple[Predicate, ...]  # the request's own conditions, verbatim

    def select(self, who: str | InSubquery | None = None, gated: bool = True) -> Select:
        """The branch as a Select. `who` replaces the identity: a name pins
        it to that subject, a predicate (department membership) takes its
        place. gated=False drops the range gates."""
        identity = (self.identity if who is None else
                    ColEqConst(self.identity.a, who) if isinstance(who, str) else who)
        return Select(projection=self.projection, tables=self.tables,
                      where=(self.gates if gated else ()) + (identity,) + self.chain + self.user)


class Expansion(NamedTuple):
    """What a supervisor's VPD was expanded from: the mode, every
    subordinate (linkage.subordinates_by_id), the kept and the dropped ones
    in subject-id order, and the Dataset version the closed form reads."""

    mode: str
    subordinates: tuple[str, ...]
    kept: tuple[str, ...]
    dropped: tuple[str, ...]
    dataset: Dataset


class VpdDefinition(NamedTuple):
    """A subject's VPD as the values it is built from: whether it depends
    on the reported location and time, the rewrite's own provenance, the
    base branches by role (Branch) in union order and, for a supervisor,
    its `expansion` (None for a single subject). Every Select of the VPD
    is a base branch, pinned or without its gates, so the branches give
    its schema (vpd_schema).

    `query`, `provenance`, `groups` (a supervisor's (Select, pin) pairs,
    queryir.evaluate_groups) and `closed_query` are rebuilt from the
    fields on each read, so a caller reads each once.
    """

    subject: str
    location_dependent: bool
    time_dependent: bool
    given_provenance: tuple[str, ...]
    branches: tuple[Branch, ...] = ()
    expansion: Expansion | None = None

    @property
    def query(self) -> Query:
        e = self.expansion
        if e is not None:
            return _expanded_union(self.branches, self.subject, e.kept)
        return _union_of([b.select() for b in self.branches])

    @property
    def provenance(self) -> tuple[str, ...]:
        e = self.expansion
        if e is None:
            return self.given_provenance
        out = self.given_provenance + (f"supervisor:{e.mode}",
                                       f"subordinates:{','.join(e.subordinates)}")
        return out + (f"dropped-invalid:{','.join(e.dropped)}",) if e.dropped else out

    @property
    def groups(self) -> Groups | None:
        """The supervisor's (Select, pin) pairs; None otherwise."""
        e = self.expansion
        return None if e is None else _union_groups(self.branches, self.subject, e.kept)

    @property
    def closed_query(self) -> Query | None:
        """The supervisor's closed form; None otherwise."""
        e = self.expansion
        return None if e is None else _closed_union(self.branches, self.subject, e.dataset)


@dataclass(frozen=True)
class Privilege:
    action: str  # "read" | "write" | "grant" | "admin"
    sign: str  # "+" | "-"
    scope: str = "object"  # "object" | "system"

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValueError(f"privilege sign must be + or -, got {self.sign!r}")
        if self.scope not in ("object", "system"):
            raise ValueError(f"privilege scope must be object or system, got {self.scope!r}")


@dataclass(frozen=True)
class InferenceRule:
    """premise (action, sign) implies conclusion (action, sign), same scope."""

    premise: tuple[str, str]
    conclusion: tuple[str, str]


WRITE_IMPLIES_READ = InferenceRule(premise=("write", "+"), conclusion=("read", "+"))
DEFAULT_RULES: tuple[InferenceRule, ...] = (WRITE_IMPLIES_READ,)


@dataclass(frozen=True)
class DomainPolicy:
    """A pre-defined policy every rewritten query must satisfy: `constraint`
    names a built-in extensional check (CONSTRAINT_CHECKS) run against the
    materialized VPD rows."""

    id: str
    constraint: str

    def __post_init__(self):
        if self.constraint not in CONSTRAINT_CHECKS:
            raise ValueError(f"unknown constraint {self.constraint!r}")


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

def _qualified(p: Predicate, scope: _Scope) -> Predicate:
    """p with each column resolved in scope and named by its table
    (_Scope.qualify); an IN subquery keeps its own scope."""
    if isinstance(p, ColEqCol):
        return ColEqCol(scope.qualify(p.a), scope.qualify(p.b))
    if isinstance(p, ColEqConst):
        return ColEqConst(scope.qualify(p.a), p.value)
    if isinstance(p, ColEqContext):
        return ColEqContext(scope.qualify(p.a), p.key)
    if isinstance(p, InSubquery):
        return InSubquery(scope.qualify(p.a), p.query)
    return p


def _scoped_projection(q: Select, scope: _Scope) -> tuple[ColumnRef, ...]:
    """Pin the user's projection to its original table scope."""
    out: list[ColumnRef] = []
    for item in q.projection:
        if item == STAR:
            out.extend(ColumnRef(t, "*") for t in scope.tables.values())
        elif item.column == "*":
            out.append(ColumnRef(scope.tables.get(item.qualifier, item.qualifier), "*"))
        else:
            out.append(scope.qualify(item))
    return tuple(out)


@dataclass(frozen=True)
class _Template:
    """What rewriting one Select derives from its shape alone: the scope
    of its FROM list, which its conditions are qualified in, its branches
    without range gates or user conditions, and the provenance before and
    after its `user-conditions` entry."""

    scope: _Scope
    branches: tuple[Branch, ...]
    head: tuple[str, ...]
    tail: tuple[str, ...]


TEMPLATE_MEMO_SIZE = 256  # Select shapes kept before the memo is emptied

# (FROM list, projection, chain mode, foreign keys, wireless) ->
# _Template; no key holds a literal, a subject or a Dataset.
_templates: dict[tuple, _Template] = {}


def rewrite(q: Query, ctx: SessionContext, d: Dataset,
            mode: str = "workflow") -> VpdDefinition:
    """Rewrite a user query into the requesting subject's VPD definition.

    Wireless sessions get range gates; wired sessions get the plain
    linked form. The mode selects how the subject is tied to the target
    table (workflow chain, specialty match, or direct sender/receiver).

    Each Select's branches come from its shape's template (_template),
    built once; per request rewrite only checks the subject, qualifies
    the user's conditions, literals included, and adds a wireless
    session's two gates, which name ctx.user. A Select that fails to
    rewrite is not kept, so it raises on every call.
    """
    wireless = ctx.wireless
    gates: tuple[InRange, ...] = ()
    if wireless:
        gates = (InRange("l", RangeRef(ctx.user, "location")),
                 InRange("t", RangeRef(ctx.user, "time")))
    branches, provenance = (), ()
    for n, sel in enumerate(union_branches(q)):
        t = _template(sel, mode, d, wireless)
        user = tuple(_qualified(p, t.scope) for p in sel.where)
        part = t.branches
        if gates or user:
            part = tuple(Branch(b.projection, b.tables, gates, b.identity, b.chain, user)
                         for b in part)
        branches += part
        provenance += (t.head + ((f"user-conditions:{len(user)}",) if user else ())
                       + t.tail + (("union-request",) if n else ()))
    if ctx.user not in d.subject_by_name:
        raise UnknownSubjectError(ctx.user)
    return VpdDefinition(ctx.user, wireless, wireless, provenance, branches)


def _template(q: Select, mode: str, d: Dataset, wireless: bool) -> _Template:
    """q's shape's template, from the memo or built and kept. Building it
    reads only d's foreign keys and the tables' columns. It refuses a
    self-join, links (NoChainError), then qualifies the projection and
    linkage's predicates, so a chain column the target lacks raises here."""
    key = (q.tables, q.projection, mode, d.manifest.foreign_keys, wireless)
    template = _templates.get(key)
    if template is not None:
        return template
    user_tables = [t.table for t in q.tables]
    if len(set(user_tables)) < len(user_tables):
        raise UnsupportedFeatureError("self-joins cannot be rewritten")
    chain_tables, conjunctions = linkage.link(user_tables[0], mode, d)
    from_tables = list(chain_tables) + [t for t in user_tables if t not in chain_tables]

    scope = _Scope(q.tables)
    projection = _scoped_projection(q, scope)
    tables = tuple(TableRef(t) for t in from_tables)
    own = _Scope(tables)
    branches = tuple(Branch(projection, tables, (), _qualified(identity, own),
                            tuple(_qualified(p, own) for p in rest), ())
                     for identity, *rest in conjunctions)

    head = (f"mode:{mode}",) + (("range-gates",) if wireless else ()) + ("session-predicate",)
    tail = (f"union-branches:{len(branches)}",) if len(branches) > 1 else ()
    template = _Template(scope, branches, head, tail)
    if len(_templates) >= TEMPLATE_MEMO_SIZE:
        _templates.clear()
    _templates[key] = template  # racing threads store equal templates
    return template


# ---------------------------------------------------------------------------
# Supervisor expansion
# ---------------------------------------------------------------------------

def _union_of(selects: list[Select]) -> Query:
    """Left-deep UNION of the selects, the shape the parser builds."""
    out: Query = selects[0]
    for s in selects[1:]:
        out = Union(out, s)
    return out


def subordinate_known_invalid(s: str, d: Dataset, contexts: ContextMap | None) -> bool:
    """True when s has a reported wireless context that fails the route check.

    Subjects with no reported context (or a wired one) count as valid:
    revocation is driven by known state, never by absence of it. A
    subject with no assignment is not moving, so it cannot be
    route-invalid. The verdict is linkage.route_verdict's.
    """
    ctx = (contexts or {}).get(s)
    if ctx is None or not ctx.wireless:
        return False
    return linkage.route_verdict(s, ctx.location, ctx.timestamp, d) not in (
        linkage.REASON_IN_RANGE, linkage.REASON_NO_ASSIGNMENT)


def expand_supervisor(s: str, base: VpdDefinition, d: Dataset, *,
                      contexts: ContextMap | None = None,
                      supervisor_mode: str = "narrative") -> VpdDefinition:
    """Union a subject's VPD with its transitive subordinates' VPDs; a
    subject without subordinates gets `base` back.

    Branches are built from the base branches' roles (Branch): a
    subordinate's branch is the supervisor's without the range gates and
    with the identity pinned to the subordinate's name; the user's
    conditions are copied verbatim. In narrative mode subordinates whose
    reported context fails the route check are dropped, decided here, so
    the VPD keeps the verdicts of the contexts map it was built under.
    Strict mode reads no contexts map and keeps every subordinate. The
    closed form (VpdDefinition.closed_query) replaces the identity by
    department membership over org_hierarchy; both forms evaluate
    identically whenever no subordinate is known-invalid.

    The VPD holds the subordinates as its `expansion` and derives nothing
    from them here. So expanding costs the narrative verdicts alone, and
    a strict expansion, which keeps the subordinate tuple itself, O(1)
    once the subordinates are known (linkage.subordinates_by_id).
    """
    if supervisor_mode not in linkage.SUPERVISOR_MODES:
        raise ValueError(f"unknown supervisor mode: {supervisor_mode!r}")
    subs = linkage.subordinates_by_id(s, d)
    if not subs:
        return base

    kept, dropped = subs, ()
    if supervisor_mode == "narrative":
        kept, dropped = [], []
        for sub in subs:
            (dropped if subordinate_known_invalid(sub, d, contexts) else kept).append(sub)
        kept, dropped = tuple(kept), tuple(dropped)
    return VpdDefinition(s, base.location_dependent, base.time_dependent, base.provenance,
                         base.branches, Expansion(supervisor_mode, subs, kept, dropped, d))


def _expanded_union(branches: tuple[Branch, ...], s: str, kept: tuple[str, ...]) -> Query:
    """The supervisor's own branches (gates kept), then each kept
    subordinate's gate-free branches, pinned by name."""
    return _union_of([b.select(s) for b in branches]
                     + [b.select(sub, gated=False) for sub in kept for b in branches])


def _closed_union(branches: tuple[Branch, ...], s: str, d: Dataset) -> Query:
    """The own branches, then per hierarchy level the gate-free branches
    with the identity replaced by department membership: subject.dept IN
    the level's sub-OU selection, which wraps the level above's selection
    (shared, not rebuilt: the AST is immutable)."""
    closed = [b.select(s) for b in branches]
    dept = d.subject_by_name[s].dept
    above: Predicate = ColEqConst(ColumnRef(None, "ou"), dept)  # org_hierarchy.ou one level up
    for _ in linkage.sub_ou_levels(dept, d):
        level = Select(projection=(ColumnRef(None, "sub_ou"),),
                       tables=(TableRef("org_hierarchy"),), where=(above,))
        membership = InSubquery(ColumnRef("subject", "dept"), level)
        closed += [b.select(membership, gated=False) for b in branches]
        above = InSubquery(ColumnRef(None, "ou"), level)
    return _union_of(closed)


def _union_groups(branches: tuple[Branch, ...], s: str, kept: tuple[str, ...]) -> Groups | None:
    """The (Select, pin) pairs that evaluate as the expanded union, without building it.

    Each base branch is one Select pinned at its identity to the
    supervisor, and one without its range gates pinned at its identity to
    every kept subordinate; equal Selects merge in first-seen order (a
    wired supervisor's own Selects are its subordinates'). None when the
    union is one Select, which has bag semantics.
    """
    if len(branches) == 1 and not kept:
        return None
    groups: dict[Select, tuple[int, dict]] = {}
    for b in branches:
        groups.setdefault(b.select(), (len(b.gates), {}))[1][s] = None
    if kept:
        for b in branches:
            groups.setdefault(b.select(gated=False), (0, {}))[1].update(dict.fromkeys(kept))
    return tuple(groups.items())


# ---------------------------------------------------------------------------
# Materialization and entailment
# ---------------------------------------------------------------------------

def materialize(v: VpdDefinition, d: Dataset, ctx: SessionContext) -> RowSet:
    """Evaluate the VPD, by its groups when it has them; a supervisor's
    groups are built here.

    A wireless VPD's range gates refuse what the lifecycle refuses; a
    strict supervisor revoked for a subordinate is refused only by the
    caller's validity gate. engine.run_query calls this for a granted
    request alone; a refused one is joined only when a constraint policy
    must check its rows (entails)."""
    groups = v.groups
    if groups is not None:
        return evaluate_groups(groups, d, ctx)
    return evaluate(v.query, d, ctx)


def vpd_schema(v: VpdDefinition) -> tuple[str, ...]:
    """The schema materialize(v) returns, derived without joining from the
    base branches' FROM tables and projections, which every Select of v
    shares. It builds no Select and reads no group."""
    return union_schema(v.branches)


def _check_head_of_ou(v: VpdDefinition, rows: RowSet, d: Dataset,
                      contexts: ContextMap | None) -> tuple | None:
    """Every object in the VPD must be reachable by the subject or a subordinate.

    An object is reachable when it rides a carrier one of them is
    assigned to, one of them sends or receives it, or its name is one of
    their specialties; all objects are checked in one pass. Abstains (no
    witness) when the materialized schema carries no object identity
    column to check against.
    """
    try:
        oids = rows.column("object.oid")
    except UnknownColumnError:
        return None
    principals = [d.subject_by_name[n]
                  for n in linkage.subordinates(v.subject, d) | {v.subject}]
    ids = {p.id for p in principals}
    carriers = {a.carrier_id for p in principals for a in d.assignments_of(p.id)}
    specialties = {p.specialty for p in principals if p.specialty is not None}
    allowed = {o.oid for o in d.objects
               if (o.carrier_id is not None and o.carrier_id in carriers)
               or o.sender in ids or o.receiver in ids or o.name in specialties}
    for row, oid in zip(rows.rows, oids):
        if oid not in allowed:
            return row
    return None


CONSTRAINT_CHECKS = {
    "head-of-ou-containment": _check_head_of_ou,
}

HEAD_OF_OU_POLICY = DomainPolicy(id="head-of-ou", constraint="head-of-ou-containment")


def entails(policies, v: VpdDefinition, d: Dataset, ctx: SessionContext, *,
            contexts: ContextMap | None = None,
            rows: RowSet | None = None) -> tuple[bool, tuple | None]:
    """Check the materialized VPD against every policy's constraint.

    Returns (True, None) when all constraints hold (vacuously for no
    policies), else (False, witness_row) for the first violation. Pass
    `rows` when the VPD is already materialized; else it is materialized
    here, and only when a policy is given.
    """
    if not policies:
        return True, None
    if rows is None:
        rows = materialize(v, d, ctx)
    for policy in policies:
        witness = CONSTRAINT_CHECKS[policy.constraint](v, rows, d, contexts)
        if witness is not None:
            return False, witness
    return True, None


# ---------------------------------------------------------------------------
# Privilege inference
# ---------------------------------------------------------------------------

def infer_closure(granted, rules: tuple[InferenceRule, ...] = DEFAULT_RULES
                  ) -> tuple[frozenset, int]:
    """Close a privilege set under the inference rules.

    Returns the closure and the number of productive passes (passes
    that added at least one privilege).
    """
    current = set(granted)
    passes = 0
    while True:
        added = set()
        for rule in rules:
            for priv in current:
                if (priv.action, priv.sign) == rule.premise and priv.scope == "object":
                    inferred = Privilege(action=rule.conclusion[0],
                                         sign=rule.conclusion[1], scope=priv.scope)
                    if inferred not in current:
                        added.add(inferred)
        if not added:
            return frozenset(current), passes
        current |= added
        passes += 1


def infer_privileges(granted, rules: tuple[InferenceRule, ...] = DEFAULT_RULES) -> frozenset:
    return infer_closure(granted, rules)[0]
