import json
import random
import tempfile
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import lifecycle, linkage, oracle, relstore, simharness
from vpdgate.errors import ScenarioError
from vpdgate.lifecycle import (DENIED, DENY, GRANT, GRANTED, REVOKE, REVOKED, VPD_CHANGED,
                               AccessEvent)
from vpdgate.sessionctx import SessionContext, open_session
from vpdgate.simharness import load_scenario, run_scenario, validate_scenario
from vpdgate.timeutil import parse_timestamp

from randgen import random_dataset, random_scenario

SCENARIO_PATH = relstore.bundled_data_dir("scenarios") / "ship_truck_handover.json"


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(SCENARIO_PATH)


def test_bundled_scenario_validates(scenario, handover_dataset):
    assert validate_scenario(scenario, handover_dataset).ok


def test_empty_scenario_empty_log(handover_dataset):
    result = run_scenario(simharness.Scenario("empty", ()), handover_dataset)
    assert result.events == [] and result.final_states == {}


def test_single_subject_past_arrival_revokes(handover_dataset):
    doc = {
        "name": "expiry",
        "steps": [
            {"at": "2010-07-02T00:00:00Z", "action": "move", "subject": "Victor",
             "lat": 31.2304, "lon": 121.4737},
            {"at": "2010-07-02T01:00:00Z", "action": "login", "subject": "Victor"},
            {"at": "2010-07-25T00:00:00Z", "action": "move", "subject": "Victor",
             "lat": 31.2304, "lon": 121.4737},
        ],
    }
    result = run_scenario(load_scenario(doc), handover_dataset)
    transitions = [(e.transition, e.subject) for e in result.events
                   if e.transition in ("GRANT", "REVOKE")]
    assert transitions == [("GRANT", "Victor"), ("REVOKE", "Victor")]
    revokes = [e for e in result.events if e.transition == "REVOKE"]
    assert revokes[0].reason == "out-of-time"


def test_unknown_carrier_flagged(scenario, handover_dataset):
    doc = {"name": "bad", "steps": [
        {"at": "2010-07-02T00:00:00Z", "action": "join", "subject": "Dana",
         "carrier": "zeppelin9"}]}
    sc = load_scenario(doc)
    report = validate_scenario(sc, handover_dataset)
    assert len(report) == 1
    assert report.violations[0].kind == "unresolvable-reference"
    with pytest.raises(ScenarioError):
        run_scenario(sc, handover_dataset)


def test_out_of_order_steps_flagged_but_runnable(handover_dataset):
    doc = {"name": "shuffled", "steps": [
        {"at": "2010-07-03T00:00:00Z", "action": "login", "subject": "Zoe"},
        {"at": "2010-07-02T00:00:00Z", "action": "login", "subject": "Bruno"},
    ]}
    sc = load_scenario(doc)
    report = validate_scenario(sc, handover_dataset)
    assert any(v.kind == "time-regression" for v in report)
    result = run_scenario(sc, handover_dataset)
    assert [e.subject for e in result.events] == ["Bruno", "Zoe"]


def test_permutation_safety(scenario, handover_dataset):
    doc = json.loads(SCENARIO_PATH.read_text())
    # Reverse blocks of distinct timestamps; equal stamps keep file order.
    by_stamp = {}
    for step in doc["steps"]:
        by_stamp.setdefault(step["at"], []).append(step)
    shuffled = [s for stamp in sorted(by_stamp, reverse=True) for s in by_stamp[stamp]]
    permuted = load_scenario({"name": doc["name"], "steps": shuffled})
    base = run_scenario(scenario, handover_dataset)
    other = run_scenario(permuted, handover_dataset)
    assert lifecycle.render_event_log(base.events) == \
        lifecycle.render_event_log(other.events)


def test_each_session_is_the_one_open_session_gives(scenario, handover_dataset, monkeypatch):
    seen = []
    real = simharness.on_context_update

    def update(s, ctx, d, prior, **kwargs):
        seen.append((s, ctx, d))
        return real(s, ctx, d, prior, **kwargs)

    monkeypatch.setattr(simharness, "on_context_update", update)
    run_scenario(scenario, handover_dataset)
    assert len(seen) > 100
    for s, ctx, d in seen:
        assert ctx == open_session(s, ctx.location, ctx.timestamp, d, session_id=ctx.session_id,
                                   opened_at=ctx.opened_at)
        assert ctx.session_id == f"sim-{d.subject_by_name[s].id}"


def _hand_built(steps) -> simharness.Scenario:
    return simharness.Scenario("hand-built", tuple(simharness.ScenarioStep(**s) for s in steps))


def test_a_hand_built_scenario_takes_a_naive_clock_as_utc(scenario, handover_dataset):
    naive = simharness.Scenario("naive", tuple(replace(step, at=step.at.replace(tzinfo=None))
                                               for step in scenario.steps))
    assert lifecycle.render_event_log(run_scenario(naive, handover_dataset).events) == \
        lifecycle.render_event_log(run_scenario(scenario, handover_dataset).events)


def test_a_hand_built_bad_location_is_refused_when_a_session_uses_it(handover_dataset):
    at = parse_timestamp("2010-07-02T00:00:00Z")
    bad = [dict(at=at, action="move", subject="Victor", location=(95.0, 121.4737))]
    login = [dict(at=at + timedelta(hours=1), action="login", subject="Victor")]
    assert run_scenario(_hand_built(bad), handover_dataset).events == []
    with pytest.raises(ValueError, match="outside valid range"):
        run_scenario(_hand_built(bad + login), handover_dataset)
    as_list = [dict(bad[0], location=[31.2304, 121.4737])]
    result = run_scenario(_hand_built(as_list + login), handover_dataset)
    assert [e.transition for e in result.events] == ["GRANT", "VPD_CHANGED"]


def test_handover_moves_objects(scenario, handover_dataset):
    result = run_scenario(scenario, handover_dataset)
    assert result.dataset.object_by_id["g001"].carrier_id == "truck1"
    assert handover_dataset.object_by_id["g001"].carrier_id == "ship1"


def test_handover_requires_source_carrier(handover_dataset):
    doc = {"name": "bad-handover", "steps": [
        {"at": "2010-07-02T00:00:00Z", "action": "handover",
         "objects": ["g001"], "from": "truck1", "to": "ship1"}]}
    sc = load_scenario(doc)
    assert not validate_scenario(sc, handover_dataset).ok
    with pytest.raises(ScenarioError) as err:
        run_scenario(sc, handover_dataset)
    assert err.value.partial_log == []


def test_supervisors_see_query_results(scenario, handover_dataset):
    result = run_scenario(scenario, handover_dataset)
    assert result.query_results == [
        ("2010-07-10T01:00:00+00:00", "Zoe", ("g001", "g002")),
        ("2010-07-27T01:00:00+00:00", "Bruno", ("g001", "g002")),
    ]


def test_grant_revoke_balance(scenario, handover_dataset):
    result = run_scenario(scenario, handover_dataset)
    balance: dict[str, int] = {}
    for e in result.events:
        if e.transition == "GRANT":
            balance[e.subject] = balance.get(e.subject, 0) + 1
        elif e.transition == "REVOKE":
            balance[e.subject] = balance.get(e.subject, 0) - 1
    for subject, state in result.final_states.items():
        expected = 1 if state.valid else 0
        assert balance.get(subject, 0) == expected, subject


@pytest.mark.parametrize("subject, carrier", [
    ("Dana", "ship1"),  # others are on ship1, Dana is on no carrier
    ("Victor", "truck1"),  # Victor is on ship1 only
])
def test_leave_a_carrier_the_subject_is_not_on(subject, carrier, handover_dataset):
    sc = load_scenario({"name": "bad-leave", "steps": [
        {"at": "2010-07-02T00:00:00Z", "action": "leave", "subject": subject,
         "carrier": carrier}]})
    assert not validate_scenario(sc, handover_dataset).ok
    with pytest.raises(ScenarioError, match=f"'{subject}' is not on '{carrier}'"):
        run_scenario(sc, handover_dataset)


def test_leave_twice_fails_the_second_time(handover_dataset):
    leave = {"action": "leave", "subject": "Victor", "carrier": "ship1"}
    once = [{"at": "2010-07-02T00:00:00Z", **leave}]
    result = run_scenario(load_scenario({"name": "leave-once", "steps": once}), handover_dataset)
    assert result.dataset.assignments_of("m02") == ()
    twice = once + [{"at": "2010-07-03T00:00:00Z", **leave}]
    with pytest.raises(ScenarioError, match="'Victor' is not on 'ship1'"):
        run_scenario(load_scenario({"name": "leave-twice", "steps": twice}), handover_dataset)


def test_query_before_login_is_reported_and_named(handover_dataset):
    sc = load_scenario({"name": "early-query", "steps": [
        {"at": "2010-07-02T00:00:00Z", "action": "login", "subject": "Bruno"},
        {"at": "2010-07-02T01:00:00Z", "action": "query", "subject": "Zoe",
         "text": "select * from object"}]})
    report = validate_scenario(sc, handover_dataset)
    assert [(v.key, v.kind) for v in report] == [("1", "unresolvable-reference")]
    with pytest.raises(ScenarioError, match=r"^step 1 \(query @ .*'Zoe' has no open session"):
        run_scenario(sc, handover_dataset)


AT = "2010-07-03T00:00:00Z"


def _move(**fields):
    return {"at": AT, "action": "move", "subject": "Victor", **fields}


def _query(**fields):
    return {"at": AT, "action": "query", "subject": "Zoe", **fields}


@pytest.mark.parametrize("step, message", [
    ({"at": AT, "action": "fly"}, "unknown action 'fly'"),
    ({"at": 20100703, "action": "login", "subject": "Zoe"}, "bad timestamp"),
    (_move(lat=31.2304), "lat and lon must be given together"),
    (_move(lon=121.4737), "lat and lon must be given together"),
    (_move(lat="north", lon=121.4737), "bad location"),
    (_move(lat=95.0, lon=121.4737), r"bad location: location \(95.0, 121.4737\) outside"),
    (_move(lat=31.2304, lon=float("nan")), "bad location"),
    (_move(), "move without lat or lon"),
    ({"at": AT, "action": "join", "subject": "Dana"}, "join without carrier"),
    ({"at": AT, "action": "leave", "carrier": "ship1"}, "leave without subject"),
    ({"at": AT, "action": "handover", "objects": ["g001"], "from": "ship1"},
     "handover without to"),
    ({"at": AT, "action": "handover", "objects": ["g001"], "to": "truck1"},
     "handover without from"),
    ({"at": AT, "action": "handover", "objects": "g001", "from": "ship1", "to": "truck1"},
     "subject, carrier, from, to, text and objects must be strings"),
    (_query(mode="psychic"), "unknown chain mode 'psychic'"),
    (_query(text="select * frm object"), "bad query text: expected FROM"),
    (_query(text="select * from object where oid > 1"), "bad query text: comparison '>'"),
    (_query(text=7), "subject, carrier, from, to, text and objects must be strings"),
], ids=["unknown-action", "timestamp-not-a-string", "lat-without-lon", "lon-without-lat",
        "lat-not-a-number", "lat-out-of-range", "lon-nan", "move-without-location",
        "join-without-carrier", "leave-without-subject", "handover-without-to",
        "handover-without-from", "objects-not-a-list", "unknown-chain-mode",
        "query-syntax-error", "query-unsupported", "text-not-a-string"])
def test_load_refuses_malformed_step(step, message):
    """A malformed step is refused at load, named by its index (here 1)."""
    steps = [{"at": AT, "action": "login", "subject": "Zoe"}, step]
    with pytest.raises(ScenarioError, match=f"^step 1: {message}"):
        load_scenario({"name": "bad", "steps": steps})


@pytest.mark.parametrize("doc", [[], {"steps": 5}, {"steps": {"at": AT}}],
                         ids=["list", "steps-a-number", "steps-an-object"])
def test_load_refuses_a_scenario_that_is_not_an_object_with_a_step_list(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="^a scenario must be a JSON object"):
        load_scenario(path)


# Names that resolve in the handover dataset, plus one of each kind that does not.
SUBJECTS = ["Xavier", "Victor", "Wendy", "Dana", "Elliot", "Zoe", "Bruno", "Ghost"]
CARRIERS = ["ship1", "truck1", "zeppelin9"]
OBJECTS = ["g001", "g002", "g999"]
POINTS = [(31.2304, 121.4737), (47.6062, -122.3321), (46.0727, -104.0934), (-33.9, 18.4)]
VALID_TEXTS = ["select * from object", "select oid, name from object",
               "select * from object where name = 'Apparel'"]

_stamps = st.integers(0, 30 * 24).map(
    lambda h: (parse_timestamp("2010-07-01T00:00:00Z") + timedelta(hours=h))
    .isoformat().replace("+00:00", "Z"))
_subjects = st.sampled_from(SUBJECTS)
_carriers = st.sampled_from(CARRIERS)
_steps = st.one_of(
    st.builds(lambda at, s, p: {"at": at, "action": "move", "subject": s,
                                "lat": p[0], "lon": p[1]},
              _stamps, _subjects, st.sampled_from(POINTS)),
    st.builds(lambda at, s: {"at": at, "action": "login", "subject": s}, _stamps, _subjects),
    st.builds(lambda at, s, text, mode: {"at": at, "action": "query", "subject": s,
                                         "text": text, "mode": mode},
              _stamps, _subjects, st.sampled_from(VALID_TEXTS),
              st.sampled_from(linkage.CHAIN_MODES)),
    st.builds(lambda at, action, s, c: {"at": at, "action": action, "subject": s,
                                        "carrier": c},
              _stamps, st.sampled_from(["join", "leave"]), _subjects, _carriers),
    st.builds(lambda at, objects, a, b: {"at": at, "action": "handover",
                                         "objects": objects, "from": a, "to": b},
              _stamps, st.lists(st.sampled_from(OBJECTS), max_size=2), _carriers, _carriers),
)


def assert_validate_matches_runner(sc, d) -> None:
    """validate_scenario reports exactly the steps run_scenario refuses,
    the first of them with the runner's own message."""
    refused = [v for v in validate_scenario(sc, d) if v.kind != "time-regression"]
    try:
        run_scenario(sc, d)
    except ScenarioError as exc:
        assert refused, f"runner refused what validation passed: {exc}"
        assert str(exc).startswith(f"step {refused[0].key} (")
        assert str(exc) == refused[0].message
    else:
        assert not refused, [str(v) for v in refused]


@settings(max_examples=150, deadline=None)
@given(st.lists(_steps, max_size=10))
def test_validate_reports_exactly_the_steps_the_runner_refuses(handover_dataset, steps):
    assert_validate_matches_runner(load_scenario({"name": "mixed", "steps": steps}),
                                   handover_dataset)


# ---------------------------------------------------------------------------
# Random scenarios against a replay decided record by record
# ---------------------------------------------------------------------------

def _supervisors(name: str, d) -> list[str]:
    """Subjects in the units above name's dept, nearest unit first, ties by name."""
    dept = next(s.dept for s in d.subjects if s.name == name)
    level, seen, frontier, distance = {}, {dept}, {dept}, 0
    while frontier:
        distance += 1
        frontier = {e.ou for e in d.org_edges if e.sub_ou in frontier and e.ou not in seen}
        seen |= frontier
        level.update(dict.fromkeys(frontier, distance))
    return [s.name for s in sorted(d.subjects, key=lambda s: (level.get(s.dept, 0), s.name))
            if s.dept in level]


def _decide(name: str, ctx, d, mode: str, contexts) -> tuple[str, str]:
    """(state, reason) of one session, from the oracle's record-by-record checks."""
    if ctx.location is not None:
        subject_id = next(s.id for s in d.subjects if s.name == name)
        carriers = oracle._carriers_of(subject_id, d)
        if not carriers:
            return DENIED, linkage.REASON_NO_ASSIGNMENT
        if oracle._route_valid(name, ctx.location, ctx.timestamp, d):
            return GRANTED, linkage.REASON_IN_RANGE
        if any(c.departure <= ctx.timestamp <= c.arrival for c in carriers):
            return REVOKED, linkage.REASON_OUT_OF_ROUTE
        return REVOKED, linkage.REASON_OUT_OF_TIME
    if mode == "strict" and any(oracle._known_invalid(sub, d, contexts)
                                for sub in oracle._subordinate_names(name, d)):
        return REVOKED, lifecycle.REASON_STRICT_SUBORDINATE
    return GRANTED, linkage.REASON_IN_RANGE


def reference_replay(doc: dict, d, mode: str):
    """The events, final (state, reason) per subject and query answers of
    doc's replay on d, decided from scratch after every step: each version
    is a fresh Dataset of the records so far, each verdict the oracle's, and
    the events the transitions lifecycle.on_context_update's docstring
    names. Query steps must be `select * from object`."""
    steps = sorted(doc["steps"], key=lambda step: parse_timestamp(step["at"]))
    assignments, objects = list(d.assignments), list(d.objects)
    positions, logged_in, states = {}, [], {}  # states: name -> (state, reason)
    events, answers = [], []
    ids = {s.name: s.id for s in d.subjects}
    for step in steps:
        now, action, name = parse_timestamp(step["at"]), step["action"], step.get("subject")
        if action == "move":
            positions[name] = (float(step["lat"]), float(step["lon"]))
        elif action == "login" and name not in logged_in:
            logged_in.append(name)
        elif action == "join":
            assignments.append(relstore.AssignmentRecord(ids[name], step["carrier"]))
        elif action == "leave":
            assignments = [a for a in assignments if a != (ids[name], step["carrier"])]
        elif action == "handover":
            objects = [o._replace(carrier_id=step["to"]) if o.oid in step["objects"] else o
                       for o in objects]
        version = replace(d, assignments=tuple(assignments), objects=tuple(objects))
        contexts = {s: SessionContext("reference", s, positions.get(s),
                                      now if s in positions else None, now)
                    for s in logged_in}
        if action == "query":
            permitted, _ = oracle.brute_force_accessible(name, contexts[name], version,
                                                         step["mode"], mode, contexts)
            answers.append((step["at"], name, tuple(sorted(permitted))))
        for s in sorted(logged_in, key=ids.get):
            state, reason = _decide(s, contexts[s], version, mode, contexts)
            prior = states.get(s, (None,))[0]
            if state == DENIED and prior not in (None, DENIED):
                state = REVOKED
            was_valid = prior == GRANTED
            transition = (GRANT if state == GRANTED and not was_valid else
                          REVOKE if state != GRANTED and was_valid else
                          DENY if state != GRANTED and prior is None else None)
            if transition:
                events.append(AccessEvent(now, s, transition, reason, (s,)))
            if transition in (GRANT, REVOKE):
                events += [AccessEvent(now, sup, VPD_CHANGED, reason, (sup, s))
                           for sup in _supervisors(s, version)]
            states[s] = (state, reason)
    return events, states, answers


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_a_random_scenario_replays_as_the_record_by_record_reference(seed, scenario_seed):
    d = random_dataset(random.Random(seed), awkward_names=True)
    doc = random_scenario(random.Random(scenario_seed), d)
    sc = load_scenario(doc)
    assert not [v for v in validate_scenario(sc, d) if v.kind != "time-regression"]
    for mode in linkage.SUPERVISOR_MODES:
        result = run_scenario(sc, d, supervisor_mode=mode)
        events, final, answers = reference_replay(doc, d, mode)
        assert lifecycle.render_event_log(result.events) == lifecycle.render_event_log(events)
        with tempfile.TemporaryDirectory() as tmp:  # the names read back from the log
            lifecycle.write_event_log(result.events, Path(tmp) / "events.jsonl")
            assert lifecycle.read_event_log(Path(tmp) / "events.jsonl") == result.events
        assert {s: (g.state, g.reason) for s, g in result.final_states.items()} == final
        assert [(parse_timestamp(at), s, oids) for at, s, oids in result.query_results] == \
            [(parse_timestamp(at), s, oids) for at, s, oids in answers]


def _bad_step(rng: random.Random, at: str) -> dict:
    """One step the replay state cannot take, whatever came before it."""
    return rng.choice([
        {"at": at, "action": "login", "subject": "Ghost"},
        {"at": at, "action": "move", "subject": "Ghost", "lat": 0.0, "lon": 0.0},
        {"at": at, "action": "join", "subject": "Sub1", "carrier": "zeppelin9"},
        {"at": at, "action": "leave", "subject": "Sub1", "carrier": "zeppelin9"},
        {"at": at, "action": "handover", "objects": ["b999"], "from": "c1", "to": "c1"},
        {"at": at, "action": "query", "subject": "Ghost", "text": "select * from object"},
    ])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.lists(st.integers(0, 10**6),
                                                                  max_size=3))
def test_validate_matches_the_runner_on_random_scenarios_with_bad_steps(seed, scenario_seed,
                                                                       inserts):
    d = random_dataset(random.Random(seed))
    steps = random_scenario(random.Random(scenario_seed), d)["steps"]
    rng = random.Random(scenario_seed)
    for k in inserts:
        at = steps[k % len(steps)]["at"]
        steps.insert(k % (len(steps) + 1), _bad_step(rng, at))
    assert_validate_matches_runner(load_scenario({"name": "bad", "steps": steps}), d)
