"""Grant/revoke lifecycle of per-subject VPDs.

A wireless session (reported location and time) is GRANTED exactly when
some carrier assignment of the subject accepts the report: distance to
the planned polyline within the corridor and the time inside
[departure, arrival], both inclusive, checked jointly per carrier. That
decision is linkage.route_verdict, the same function the VPD's own range
gates ask, so the rewritten query refuses what the lifecycle refuses. A
wired session is granted; with subordinates it is a supervisor whose
union shrinks and grows as subordinate validity changes. Two supervisor
modes exist:

* narrative (default): invalid subordinates are dropped from the
  supervisor's union, the supervisor itself stays granted;
* strict: any moving subordinate whose known context fails the route
  check revokes the supervisor wholesale. No VPD text expresses this
  revocation; engine.run_query enforces it by deciding first and not
  evaluating the VPD of a revoked request.

States and events are plain values; nothing here caches a
materialization across context or dataset changes.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path

from . import linkage
from .errors import UnknownSubjectError
from .linkage import REASON_IN_RANGE, REASON_NO_ASSIGNMENT, SUPERVISOR_MODES
from .queryir import Select, STAR, TableRef, parse_query
from .relstore import Dataset
from .sessionctx import SessionContext
from .timeutil import format_timestamp, parse_timestamp
from .vpdrewrite import (
    ContextMap,
    VpdDefinition,
    expand_supervisor,
    rewrite,
    subordinate_known_invalid,
)

GRANTED = "GRANTED"
REVOKED = "REVOKED"
DENIED = "DENIED"

GRANT = "GRANT"
REVOKE = "REVOKE"
DENY = "DENY"
VPD_CHANGED = "VPD_CHANGED"

REASON_STRICT_SUBORDINATE = "strict-subordinate-invalid"

EVENT_LOG_VERSION = 1

_WIRELESS_STATE = {REASON_IN_RANGE: GRANTED, REASON_NO_ASSIGNMENT: DENIED}

DEFAULT_QUERY = Select(projection=(STAR,), tables=(TableRef("object"),))


@dataclass(frozen=True)
class GrantState:
    subject: str
    session_id: str
    state: str  # GRANTED | REVOKED | DENIED
    since: datetime
    reason: str

    @property
    def valid(self) -> bool:
        return self.state == GRANTED


@dataclass(frozen=True)
class AccessEvent:
    at: datetime
    subject: str
    transition: str  # GRANT | REVOKE | DENY | VPD_CHANGED
    reason: str
    vpds: tuple[str, ...]


def check_validity(s: str, ctx: SessionContext, d: Dataset,
                   mode: str = "narrative", contexts: ContextMap | None = None) -> GrantState:
    """Stateless validity decision for subject s under context ctx.

    A wireless session takes the joint route/time verdict of
    linkage.route_verdict as its reason: GRANTED when in range, DENIED
    with no assignment, REVOKED otherwise. Wired sessions follow the
    supervisor rules of the selected mode.
    """
    if mode not in SUPERVISOR_MODES:
        raise ValueError(f"unknown supervisor mode: {mode!r}")
    if s not in d.subject_by_name:
        raise UnknownSubjectError(s)
    since = ctx.timestamp or ctx.opened_at

    if ctx.wireless:
        reason = linkage.route_verdict(s, ctx.location, ctx.timestamp, d)
        state = _WIRELESS_STATE.get(reason, REVOKED)
        return GrantState(s, ctx.session_id, state, since, reason)

    if mode == "strict" and any(subordinate_known_invalid(sub, d, contexts)
                                for sub in linkage.subordinates_by_id(s, d)):
        return GrantState(s, ctx.session_id, REVOKED, since, REASON_STRICT_SUBORDINATE)
    return GrantState(s, ctx.session_id, GRANTED, since, REASON_IN_RANGE)


def on_context_update(s: str, new_ctx: SessionContext, d: Dataset,
                      prior: GrantState | None, *, mode: str = "narrative",
                      contexts: ContextMap | None = None) -> tuple[GrantState, list[AccessEvent]]:
    """Recompute validity after a context change and emit transition events.

    GRANT fires on the invalid-to-valid edge, REVOKE on valid-to-invalid,
    DENY on a first evaluation that is already invalid; no event when
    validity is unchanged. Supervisors of s additionally receive a
    VPD_CHANGED event whenever s's validity flips.
    """
    state = check_validity(s, new_ctx, d, mode, contexts)
    at = state.since

    was_valid = prior is not None and prior.valid
    never_granted = prior is None or prior.state == DENIED
    if state.state == DENIED and not never_granted:
        # Previously valid subjects are revoked, not denied.
        state = replace(state, state=REVOKED)

    events: list[AccessEvent] = []
    flipped = False
    if state.valid and not was_valid:
        events.append(AccessEvent(at, s, GRANT, state.reason, (s,)))
        flipped = True
    elif not state.valid and was_valid:
        events.append(AccessEvent(at, s, REVOKE, state.reason, (s,)))
        flipped = True
    elif not state.valid and prior is None:
        events.append(AccessEvent(at, s, DENY, state.reason, (s,)))

    if flipped:
        for sup in linkage.supervisors(s, d):
            events.append(AccessEvent(at, sup, VPD_CHANGED, state.reason, (sup, s)))
    return state, events


# ---------------------------------------------------------------------------
# VPD construction
# ---------------------------------------------------------------------------

def build_vpd(ctx: SessionContext, d: Dataset, query=None, *,
              chain_mode: str = "workflow", supervisor_mode: str = "narrative",
              contexts: ContextMap | None = None) -> VpdDefinition:
    """Rewrite (and, for subjects with subordinates, expand) a request."""
    if isinstance(query, str):
        query = parse_query(query)
    return expand_supervisor(ctx.user, rewrite(query or DEFAULT_QUERY, ctx, d, chain_mode), d,
                             contexts=contexts, supervisor_mode=supervisor_mode)


# ---------------------------------------------------------------------------
# Event log (JSON lines, stable field order)
# ---------------------------------------------------------------------------

def event_to_dict(e: AccessEvent) -> dict:
    return {
        "v": EVENT_LOG_VERSION,
        "at": format_timestamp(e.at),
        "subject": e.subject,
        "transition": e.transition,
        "reason": e.reason,
        "vpds": list(e.vpds),
    }


def event_from_dict(doc: dict) -> AccessEvent:
    return AccessEvent(at=parse_timestamp(doc["at"]), subject=doc["subject"],
                       transition=doc["transition"], reason=doc["reason"],
                       vpds=tuple(doc["vpds"]))


def render_event_log(events: list[AccessEvent]) -> str:
    out = io.StringIO()
    for e in events:
        out.write(json.dumps(event_to_dict(e), separators=(", ", ": ")))
        out.write("\n")
    return out.getvalue()


def write_event_log(events: list[AccessEvent], path: str | Path) -> None:
    Path(path).write_text(render_event_log(events), encoding="utf-8")


def read_event_log(path: str | Path) -> list[AccessEvent]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [event_from_dict(json.loads(line)) for line in lines if line.strip()]
