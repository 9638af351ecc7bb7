import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import lifecycle, linkage, relstore, simharness
from vpdgate.errors import ScenarioError
from vpdgate.simharness import load_scenario, run_scenario, validate_scenario
from vpdgate.timeutil import parse_timestamp

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


@settings(max_examples=150, deadline=None)
@given(st.lists(_steps, max_size=10))
def test_validate_reports_exactly_the_steps_the_runner_refuses(handover_dataset, steps):
    sc = load_scenario({"name": "mixed", "steps": steps})
    refused = [v for v in validate_scenario(sc, handover_dataset)
               if v.kind != "time-regression"]
    try:
        run_scenario(sc, handover_dataset)
    except ScenarioError as exc:
        assert refused, f"runner refused what validation passed: {exc}"
        assert str(exc).startswith(f"step {refused[0].key} (")
        assert str(exc) == refused[0].message
    else:
        assert not refused, [str(v) for v in refused]
