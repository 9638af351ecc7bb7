import pytest
from hypothesis import given, settings, strategies as st

from vpdgate.errors import UnboundContextKeyError, UnknownSubjectError
from vpdgate.sessionctx import context_lookup, latest_by_user, open_session
from vpdgate.timeutil import parse_timestamp


def test_open_wireless_session(fixture_dataset, t1_midpoint):
    t = parse_timestamp("2010-08-20T12:00:00Z")
    ctx = open_session("Parker", t1_midpoint, t, fixture_dataset)
    assert ctx.wireless
    assert context_lookup(ctx, "session_user") == "Parker"
    assert context_lookup(ctx, "l") == t1_midpoint
    assert context_lookup(ctx, "t") == t


def test_open_wired_session(fixture_dataset):
    ctx = open_session("Chris", None, None, fixture_dataset)
    assert not ctx.wireless
    assert context_lookup(ctx, "session_user") == "Chris"
    with pytest.raises(UnboundContextKeyError):
        context_lookup(ctx, "l")
    with pytest.raises(UnboundContextKeyError):
        context_lookup(ctx, "t")


def test_unknown_subject(fixture_dataset):
    with pytest.raises(UnknownSubjectError):
        open_session("nobody", None, None, fixture_dataset)


def test_bad_location_rejected(fixture_dataset):
    with pytest.raises(ValueError):
        open_session("Parker", (95.0, 10.0), None, fixture_dataset)


def test_invalid_key_rejected(fixture_dataset):
    ctx = open_session("Parker", None, None, fixture_dataset)
    with pytest.raises(ValueError):
        context_lookup(ctx, "password")


def test_relogin_changes_session_id(fixture_dataset):
    a = open_session("Parker", None, None, fixture_dataset)
    b = open_session("Parker", None, None, fixture_dataset)
    assert a.session_id != b.session_id


@given(lat=st.floats(-90, 90, allow_nan=False),
       lon=st.floats(-180, 180, allow_nan=False),
       seconds=st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_lookup_echoes_inputs(fixture_dataset, lat, lon, seconds):
    from datetime import timedelta
    t = parse_timestamp("2005-01-01T00:00:00Z") + timedelta(seconds=seconds)
    ctx = open_session("Bob", (lat, lon), t, fixture_dataset)
    assert context_lookup(ctx, "l") == (lat, lon)
    assert context_lookup(ctx, "t") == t
    assert context_lookup(ctx, "session_user") == "Bob"


def test_registry_latest_by_user(fixture_dataset):
    a = open_session("Parker", None, None, fixture_dataset, session_id="a")
    b = open_session("Parker", None, None, fixture_dataset, session_id="b")
    assert latest_by_user([a, b])["Parker"].session_id == "b"


def test_naive_datetimes_are_taken_as_utc(fixture_dataset, t1_midpoint):
    from vpdgate import engine
    aware = parse_timestamp("2010-08-20T12:00:00Z")
    naive = aware.replace(tzinfo=None)
    for t in (aware, parse_timestamp("2010-09-20T00:00:00Z")):
        by_kind = []
        for reported in (t, t.replace(tzinfo=None)):
            ctx = open_session("Parker", t1_midpoint, reported, fixture_dataset,
                               opened_at=naive)
            assert ctx.timestamp == t and ctx.opened_at == aware
            outcome = engine.run_query(fixture_dataset, ctx, "select * from object")
            by_kind.append((outcome.state.state, outcome.state.reason,
                            outcome.rows.sorted_rows()))
        assert by_kind[0] == by_kind[1]
    assert by_kind[0][0] == "REVOKED"
