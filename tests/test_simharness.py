import json

import pytest

from vpdgate import lifecycle, relstore, simharness
from vpdgate.errors import ScenarioError
from vpdgate.simharness import load_scenario, run_scenario, validate_scenario

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
