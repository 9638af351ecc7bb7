"""The request pipeline: validity gate, rewrite, then materialize and entail.

run_query is the one pipeline: the CLI, the scenario runner and the
privacy residual go through it. It contains no authorization logic of
its own, it only sequences lifecycle and vpdrewrite calls. The verdict
comes first, so a refused request does no join: it returns no rows,
with the schema its VPD would have, and its VPD is materialized only
when a constraint policy must check its rows. explain takes the same
steps (_decide) and prints no rows, so it joins only for a constraint
policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .lifecycle import GrantState, build_vpd, check_validity
from .queryir import (Query, RowSet, parse_query, render_predicate, render_query,
                      row_sort_key, union_branches)
from .relstore import Dataset
from .sessionctx import SessionContext
from .vpdrewrite import ContextMap, VpdDefinition, entails, materialize, vpd_schema


@dataclass(frozen=True)
class QueryOutcome:
    state: GrantState
    vpd: VpdDefinition
    rows: RowSet
    entailed: bool
    witness: tuple | None


def run_query(d: Dataset, ctx: SessionContext, query: str | Query | None = None, *,
              chain_mode: str = "workflow", supervisor_mode: str = "narrative",
              contexts: ContextMap | None = None, policies=()) -> QueryOutcome:
    """Decide, rewrite and, when granted, materialize one request
    (None: lifecycle.DEFAULT_QUERY).

    A refused request gets an empty RowSet with its VPD's schema
    (vpd_schema), and its VPD is joined only inside entails, when a
    constraint policy is set. So a WHERE clause that fails only when
    evaluated raises for a granted request and not for a refused one; a
    UNION whose branches differ in arity raises either way.
    """
    return _decide(d, ctx, query, chain_mode, supervisor_mode, contexts, policies, join=True)


def _decide(d: Dataset, ctx: SessionContext, query: str | Query | None, chain_mode: str,
            supervisor_mode: str, contexts: ContextMap | None, policies, *,
            join: bool) -> QueryOutcome:
    """The verdict, the VPD and its entailment; with join, a granted
    request's rows, else no rows with the VPD's schema (vpd_schema).
    Without join the VPD is materialized only inside entails, for a
    constraint policy."""
    if isinstance(query, str):
        query = parse_query(query)
    state = check_validity(ctx.user, ctx, d, supervisor_mode, contexts)
    vpd = build_vpd(ctx, d, query, chain_mode=chain_mode,
                    supervisor_mode=supervisor_mode, contexts=contexts)
    rows = materialize(vpd, d, ctx) if join and state.valid else None
    entailed, witness = entails(policies, vpd, d, ctx, contexts=contexts, rows=rows)
    if rows is None:
        rows = RowSet(vpd_schema(vpd), ())
    return QueryOutcome(state=state, vpd=vpd, rows=rows, entailed=entailed, witness=witness)


def privacy_residual(a: str, b: str, ctx_a: SessionContext, ctx_b: SessionContext,
                     d: Dataset, *, mode_a: str = "workflow", mode_b: str = "workflow",
                     supervisor_mode: str = "narrative",
                     contexts: ContextMap | None = None) -> RowSet:
    """Rows private to a relative to b: a's whole view minus b's, as sets.

    An invalid VPD contributes the empty set."""
    rows_a = run_query(d, ctx_a, chain_mode=mode_a, supervisor_mode=supervisor_mode,
                       contexts=contexts).rows
    rows_b = run_query(d, ctx_b, chain_mode=mode_b, supervisor_mode=supervisor_mode,
                       contexts=contexts).rows
    residual = set(rows_a.rows) - set(rows_b.rows)
    return RowSet(rows_a.schema, tuple(sorted(residual, key=row_sort_key)))


def _union_lines(q: Query) -> list[str]:
    """A Select as one line; a UNION as a "UNION" line and its branches indented once."""
    branches = union_branches(q)
    if len(branches) == 1:
        return [render_query(q)]
    return ["UNION", *(f"  {render_query(b)}" for b in branches)]


def explain(d: Dataset, ctx: SessionContext, query: str | Query, *,
            chain_mode: str = "workflow", supervisor_mode: str = "narrative",
            contexts: ContextMap | None = None, policies=()) -> str:
    """Human-readable derivation trace for one request: the injected
    predicates, the expansion, provenance, verdict and entailment, and a
    supervisor's closed form.

    It takes run_query's steps (_decide) but prints no rows, so it joins
    the VPD only when a constraint policy must check its rows (entails),
    once; without one, explain does no join. So, as for a refused
    request in run_query, a WHERE clause that fails only when evaluated
    does not raise here, and a UNION whose branches differ in arity does.
    """
    if isinstance(query, str):
        query = parse_query(query)
    outcome = _decide(d, ctx, query, chain_mode, supervisor_mode, contexts, policies,
                      join=False)
    vpd = outcome.vpd
    # The first branch without the user's conditions; a supervisor's own
    # branch has its identity pinned to its name.
    first = replace(vpd.branches[0], user=())
    injected = first.select(vpd.subject if vpd.expansion is not None else None).where

    lines = [
        f"subject: {ctx.user}",
        f"original: {render_query(query)}",
        f"mode: {chain_mode} (supervisor: {supervisor_mode})",
        "injected predicates:",
        *(f"  {render_predicate(p)}" for p in injected),
        "expansion:",
        *(f"  {line}" for line in _union_lines(vpd.query)),
        f"provenance: {', '.join(vpd.provenance)}",
        f"verdict: {outcome.state.state} ({outcome.state.reason})",
        f"entailment: {'satisfied' if outcome.entailed else 'VIOLATED'}",
    ]
    if outcome.witness is not None:
        lines.append(f"witness: {outcome.witness}")
    if vpd.expansion is not None:
        lines.append("closed form:")
        lines.extend(f"  {line}" for line in _union_lines(vpd.closed_query))
    return "\n".join(lines)
