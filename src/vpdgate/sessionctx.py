"""Per-session context: session user, reported location, reported time.

A SessionContext is the record consulted when a query references
sys_context keys. Location and time are client-reported and trusted as
reported; the engine only checks them against planned routes, it does
not verify them against any positioning infrastructure. A context with
no location/time models a wired (non-moving) login.

Contexts are immutable; re-login creates a new session id.
"""

from __future__ import annotations

import uuid
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import UnboundContextKeyError, UnknownSubjectError
from .geo import Point, as_point
from .timeutil import as_utc

CONTEXT_KEYS = ("session_user", "l", "t")


@dataclass(frozen=True)
class SessionContext:
    session_id: str
    user: str
    location: Point | None
    timestamp: datetime | None
    opened_at: datetime

    @property
    def wireless(self) -> bool:
        """True when both location and time are reported."""
        return self.location is not None and self.timestamp is not None


def open_session(user: str, location: Point | None, timestamp: datetime | None,
                 dataset, *, session_id: str | None = None,
                 opened_at: datetime | None = None) -> SessionContext:
    """Open a session for an existing subject.

    Absent location/time is a wired login; such a session can evaluate
    queries that never touch sys_context:l or sys_context:t. Naive
    datetimes are taken as UTC.
    """
    if user not in dataset.subject_by_name:
        raise UnknownSubjectError(user)
    location = as_point(location) if location is not None else None
    if timestamp is not None:
        timestamp = as_utc(timestamp)
    return SessionContext(
        session_id=session_id or uuid.uuid4().hex,
        user=user,
        location=location,
        timestamp=timestamp,
        opened_at=as_utc(opened_at) if opened_at else timestamp or datetime.now(timezone.utc),
    )


def context_lookup(ctx: SessionContext, key: str):
    """Bound value of a context key; raises UnboundContextKeyError when absent."""
    if key not in CONTEXT_KEYS:
        raise ValueError(f"not a context key: {key!r}")
    if key == "session_user":
        return ctx.user
    value = ctx.location if key == "l" else ctx.timestamp
    if value is None:
        raise UnboundContextKeyError(key)
    return value


def latest_by_user(contexts: Iterable[SessionContext]) -> dict[str, SessionContext]:
    """The last context per user in iteration order (insertion order wins)."""
    return {ctx.user: ctx for ctx in contexts}
