import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MEXICO_CITY, MIAMI, VANCOUVER
from vpdgate import engine, lifecycle
from vpdgate.errors import UnknownSubjectError
from vpdgate.lifecycle import (
    DENIED,
    GRANTED,
    REVOKED,
    check_validity,
    on_context_update,
    read_event_log,
    render_event_log,
    write_event_log,
)
from vpdgate.engine import privacy_residual
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import parse_timestamp

TS = parse_timestamp


def ctx_at(d, user, loc, t, sid="s1"):
    return open_session(user, loc, TS(t) if t else None, d, session_id=sid)


def test_granted_mid_route(fixture_dataset, t1_midpoint):
    ctx = ctx_at(fixture_dataset, "Parker", t1_midpoint, "2010-08-20T12:00:00Z")
    state = check_validity("Parker", ctx, fixture_dataset)
    assert state.state == GRANTED and state.reason == "in-range"


def test_revoked_out_of_time_anywhere(fixture_dataset, t1_midpoint):
    for loc in (t1_midpoint, VANCOUVER, MIAMI, MEXICO_CITY):
        ctx = ctx_at(fixture_dataset, "Parker", loc, "2010-09-20T00:00:00Z")
        state = check_validity("Parker", ctx, fixture_dataset)
        assert state.state == REVOKED and state.reason == "out-of-time"


def test_revoked_out_of_route(fixture_dataset):
    ctx = ctx_at(fixture_dataset, "Parker", MEXICO_CITY, "2010-08-20T12:00:00Z")
    state = check_validity("Parker", ctx, fixture_dataset)
    assert state.state == REVOKED and state.reason == "out-of-route"


def test_time_checked_first_when_both_fail(fixture_dataset):
    ctx = ctx_at(fixture_dataset, "Parker", MEXICO_CITY, "2010-09-20T00:00:00Z")
    assert check_validity("Parker", ctx, fixture_dataset).reason == "out-of-time"


def test_wireless_without_assignment_denied(fixture_dataset):
    ctx = ctx_at(fixture_dataset, "Peter", VANCOUVER, "2010-08-20T12:00:00Z")
    state = check_validity("Peter", ctx, fixture_dataset)
    assert state.state == DENIED and state.reason == "no-assignment"


def test_wired_sessions_granted(fixture_dataset):
    for user in ("Parker", "Chris", "Peter"):
        ctx = open_session(user, None, None, fixture_dataset)
        assert check_validity(user, ctx, fixture_dataset).state == GRANTED


def test_unknown_subject(fixture_dataset, parker_wired):
    with pytest.raises(UnknownSubjectError):
        check_validity("nobody", parker_wired, fixture_dataset)


def test_strict_vs_narrative_supervisor(fixture_dataset, chris_wired):
    off = ctx_at(fixture_dataset, "Parker", MEXICO_CITY, "2010-09-20T00:00:00Z")
    contexts = {"Parker": off}
    strict = check_validity("Chris", chris_wired, fixture_dataset, "strict", contexts)
    assert strict.state == REVOKED and strict.reason == "strict-subordinate-invalid"
    narrative = check_validity("Chris", chris_wired, fixture_dataset, "narrative", contexts)
    assert narrative.state == GRANTED


def test_idempotent_check(fixture_dataset, parker_mobile):
    a = check_validity("Parker", parker_mobile, fixture_dataset)
    b = check_validity("Parker", parker_mobile, fixture_dataset)
    assert a == b


def test_update_grant_then_revoke_events(fixture_dataset, t1_midpoint):
    on = ctx_at(fixture_dataset, "Parker", t1_midpoint, "2010-08-20T12:00:00Z")
    state, events = on_context_update("Parker", on, fixture_dataset, None)
    assert state.state == GRANTED
    assert [(e.transition, e.subject) for e in events] == \
        [("GRANT", "Parker"), ("VPD_CHANGED", "Chris"), ("VPD_CHANGED", "Charles")]

    off = ctx_at(fixture_dataset, "Parker", MEXICO_CITY, "2010-08-20T13:00:00Z")
    state, events = on_context_update("Parker", off, fixture_dataset, state)
    assert state.state == REVOKED
    assert [(e.transition, e.subject) for e in events] == \
        [("REVOKE", "Parker"), ("VPD_CHANGED", "Chris"), ("VPD_CHANGED", "Charles")]
    assert events[1].vpds == ("Chris", "Parker")


def test_update_no_change_no_events(fixture_dataset, t1_midpoint):
    on = ctx_at(fixture_dataset, "Parker", t1_midpoint, "2010-08-20T12:00:00Z")
    state, _ = on_context_update("Parker", on, fixture_dataset, None)
    later = ctx_at(fixture_dataset, "Parker", t1_midpoint, "2010-08-21T12:00:00Z")
    state2, events = on_context_update("Parker", later, fixture_dataset, state)
    assert state2.state == GRANTED and events == []


def test_update_first_evaluation_denied(fixture_dataset):
    ctx = ctx_at(fixture_dataset, "Peter", VANCOUVER, "2010-08-20T12:00:00Z")
    state, events = on_context_update("Peter", ctx, fixture_dataset, None)
    assert state.state == DENIED
    assert [e.transition for e in events] == ["DENY"]


def test_assignment_added_grants(fixture_dataset):
    ctx = ctx_at(fixture_dataset, "Peter", (61.2181, -149.9003), "2010-08-15T00:00:00Z")
    state, events = on_context_update("Peter", ctx, fixture_dataset, None)
    assert state.state == DENIED
    joined = fixture_dataset.with_assignment("s15", "t5")
    state2, events = on_context_update("Peter", ctx, joined, state)
    assert state2.state == GRANTED
    assert [e.transition for e in events] == ["GRANT"]


def test_monotone_revocation_past_arrival(fixture_dataset):
    import random
    rng = random.Random(11)
    t = "2010-09-16T00:00:01Z"  # beyond every window of Parker's carriers
    for _ in range(50):
        loc = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        ctx = ctx_at(fixture_dataset, "Parker", loc, t)
        assert check_validity("Parker", ctx, fixture_dataset).state == REVOKED


def test_residual_parker_vs_peter(fixture_dataset, parker_mobile):
    peter = open_session("Peter", None, None, fixture_dataset)
    res = privacy_residual("Parker", "Peter", parker_mobile, peter,
                           fixture_dataset, mode_b="direct")
    assert sorted(set(res.column("object.oid"))) == ["o001", "o002", "o003", "o004"]


def test_residual_against_invalid_is_full_vpd(fixture_dataset, parker_mobile):
    off = ctx_at(fixture_dataset, "Bob", MEXICO_CITY, "2010-08-20T12:00:00Z", sid="b1")
    res = privacy_residual("Parker", "Bob", parker_mobile, off, fixture_dataset)
    assert sorted(set(res.column("object.oid"))) == ["o001", "o002", "o003", "o004"]


def test_residual_same_carrier_crews_empty_both_ways(fixture_dataset, t1_midpoint):
    parker = ctx_at(fixture_dataset, "Parker", t1_midpoint, "2010-08-20T12:00:00Z", "p")
    bob = ctx_at(fixture_dataset, "Bob", t1_midpoint, "2010-08-20T12:00:00Z", "b")
    ab = privacy_residual("Parker", "Bob", parker, bob, fixture_dataset)
    ba = privacy_residual("Bob", "Parker", bob, parker, fixture_dataset)
    assert len(ab) == 0 and len(ba) == 0


def test_event_log_round_trip(tmp_path, fixture_dataset, t1_midpoint):
    on = ctx_at(fixture_dataset, "Parker", t1_midpoint, "2010-08-20T12:00:00Z")
    _, events = on_context_update("Parker", on, fixture_dataset, None)
    path = tmp_path / "events.jsonl"
    write_event_log(events, path)
    lines = path.read_text().splitlines()
    assert all(json.loads(line)["v"] == 1 for line in lines)
    assert list(json.loads(lines[0])) == ["v", "at", "subject", "transition",
                                          "reason", "vpds"]
    assert read_event_log(path) == events
    assert render_event_log(events) == render_event_log(read_event_log(path))


def test_narrative_equals_strict_when_all_valid(fixture_dataset, chris_wired, t1_midpoint):
    on_route = {
        name: ctx_at(fixture_dataset, name, t1_midpoint, "2010-08-20T12:00:00Z",
                     sid=f"c-{name}")
        for name in ("Parker", "Bob")
    }
    on_route["Alice"] = ctx_at(fixture_dataset, "Alice", (61.2181, -149.9003),
                               "2010-08-15T00:00:00Z", sid="c-Alice")
    kwargs = dict(contexts=on_route)
    narrative = engine.run_query(fixture_dataset, chris_wired,
                                 supervisor_mode="narrative", **kwargs).rows
    strict = engine.run_query(fixture_dataset, chris_wired,
                              supervisor_mode="strict", **kwargs).rows
    assert narrative.as_set() == strict.as_set()
    assert sorted(set(narrative.column("object.oid"))) == \
        ["o001", "o002", "o003", "o004", "o005"]


def test_context_immutability(fixture_dataset, parker_mobile):
    import dataclasses
    with pytest.raises(dataclasses.FrozenInstanceError):
        parker_mobile.user = "Chris"


# The strict check decides subordinates in subject-id order and stops at
# the first known-invalid one, so which subordinates it decides must not
# depend on str hashing.
_STRICT_CALLS = """
import random
from vpdgate import lifecycle, linkage
from vpdgate.sessionctx import open_session
from randgen import random_contexts, random_dataset
decided = []
real = lifecycle.subordinate_known_invalid

def counted(s, d, contexts):
    decided.append(s)
    return real(s, d, contexts)

lifecycle.subordinate_known_invalid = counted
for seed in range(200):
    d = random_dataset(random.Random(seed))
    contexts = random_contexts(random.Random(seed), d)
    for s in d.subjects:
        if linkage.subordinates(s.name, d):
            ctx = open_session(s.name, None, None, d)
            state = lifecycle.check_validity(s.name, ctx, d, "strict", contexts)
            print(s.name, state.state, len(decided), decided[-1:])
"""


def test_strict_check_decides_the_same_subordinates_under_any_hash_seed():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, (str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH"))))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _STRICT_CALLS], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(" REVOKED ") > 20
