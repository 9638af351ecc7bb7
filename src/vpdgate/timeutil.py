"""ISO-8601 UTC timestamp helpers.

Python 3.10's fromisoformat does not accept the 'Z' suffix, and the
canonical wire format here is always UTC with 'Z'.
"""

from __future__ import annotations

from datetime import date, datetime, timezone


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    return as_utc(datetime.fromisoformat(text.replace("Z", "+00:00")))


def as_utc(dt: datetime) -> datetime:
    """The same instant in UTC; a naive datetime is taken as UTC."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def parse_date(text: str) -> date:
    return date.fromisoformat(text)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def day_start(d: date) -> datetime:
    return datetime(d.year, d.month, d.day, 0, 0, 0, tzinfo=timezone.utc)


def day_end(d: date) -> datetime:
    return datetime(d.year, d.month, d.day, 23, 59, 59, tzinfo=timezone.utc)
