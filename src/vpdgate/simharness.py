"""Deterministic scenario runner for moving subjects and workflow churn.

A scenario is an ordered list of timestamped steps: subjects move along
routes, log in, query, join or leave carriers, and object sets are
handed over between carriers. Simulated time advances only through step
timestamps; there is no wall clock anywhere, so a scenario replays to a
byte-identical event log.

After every step the runner re-evaluates validity for each logged-in
subject (in subject-id order) against the dataset version as mutated so
far, appending the lifecycle transition events. Each step's sessions are
the SessionContexts open_session would give, built from values checked
once: the step clock is taken to UTC once per step, a position is checked
by geo.as_point when a logged-in subject first uses it after its move,
and a session id is made once per subject, at its first login.

Step rules are written once. ``load_scenario`` refuses a malformed step
(an unknown action or chain mode, a bad timestamp, a missing field, half
a position or a coordinate ``geo.as_point`` rejects, query text that
does not parse), naming its index. ``_apply`` refuses a step the replay
state cannot take: an unknown subject, carrier or object, a leave from a
carrier the subject is not on, an object not on ``from``, a query with
no open session. ``run_scenario`` raises that refusal with the partial
log; ``validate_scenario`` reports exactly the steps it would refuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import NoReturn

from .engine import run_query
from .errors import ScenarioError, UnknownColumnError, VpdGateError
from .geo import Point, as_point
from .lifecycle import AccessEvent, GrantState, on_context_update
from .linkage import CHAIN_MODES
from .queryir import parse_query
from .relstore import Dataset, ValidationReport, Violation, read_json
from .sessionctx import SessionContext
from .timeutil import as_utc, parse_timestamp

ACTIONS = ("move", "login", "query", "join", "leave", "handover")

REQUIRED = {"move": ("lat", "lon"), "join": ("subject", "carrier"),
            "leave": ("subject", "carrier"), "handover": ("from", "to")}


@dataclass(frozen=True)
class ScenarioStep:
    at: datetime
    action: str
    subject: str | None = None
    location: Point | None = None  # move
    text: str | None = None  # query
    mode: str = "workflow"  # query chain mode
    carrier: str | None = None  # join / leave
    objects: tuple[str, ...] = ()  # handover
    from_carrier: str | None = None  # handover
    to_carrier: str | None = None  # handover


@dataclass(frozen=True)
class Scenario:
    name: str
    steps: tuple[ScenarioStep, ...]


@dataclass
class ScenarioResult:
    events: list[AccessEvent]
    final_states: dict[str, GrantState]
    dataset: Dataset
    query_results: list[tuple[str, str, tuple[str, ...]]] = field(default_factory=list)


def _step_from_dict(doc: dict, index: int) -> ScenarioStep:
    """One step checked for shape; a malformed step is a ScenarioError naming it."""
    def refuse(message: str) -> NoReturn:
        raise ScenarioError(f"step {index}: {message}")

    if not isinstance(doc, dict):
        refuse("a step must be a JSON object")
    action = doc.get("action")
    if action not in ACTIONS:
        refuse(f"unknown action {action!r}")
    try:
        at = parse_timestamp(doc["at"])
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        refuse(f"bad timestamp: {exc}")
    if ("lat" in doc) != ("lon" in doc):
        refuse("lat and lon must be given together")
    missing = [key for key in REQUIRED.get(action, ()) if doc.get(key) is None]
    if missing:
        refuse(f"{action} without {' or '.join(missing)}")
    try:
        location = as_point((doc["lat"], doc["lon"])) if "lat" in doc else None
    except (TypeError, ValueError) as exc:
        refuse(f"bad location: {exc}")
    names = [doc[key] for key in ("subject", "carrier", "from", "to", "text")
             if doc.get(key) is not None]
    objects = doc.get("objects", [])
    if not (isinstance(objects, list) and all(isinstance(v, str) for v in names + objects)):
        refuse("subject, carrier, from, to, text and objects must be strings")
    mode = doc.get("mode", "workflow")
    if mode not in CHAIN_MODES:
        refuse(f"unknown chain mode {mode!r}")
    if doc.get("text") is not None:
        try:
            parse_query(doc["text"])
        except VpdGateError as exc:
            refuse(f"bad query text: {exc}")
    return ScenarioStep(at=at, action=action, subject=doc.get("subject"), location=location,
                        text=doc.get("text"), mode=mode, carrier=doc.get("carrier"),
                        objects=tuple(objects), from_carrier=doc.get("from"),
                        to_carrier=doc.get("to"))


def load_scenario(source: str | Path | dict) -> Scenario:
    """A scenario from a JSON file or dict; malformed steps are refused here."""
    if isinstance(source, dict):
        doc = source
    else:
        doc = read_json(Path(source))
    if not (isinstance(doc, dict) and isinstance(doc.get("steps", []), list)):
        raise ScenarioError("a scenario must be a JSON object whose steps is a list")
    steps = tuple(_step_from_dict(s, i) for i, s in enumerate(doc.get("steps", ())))
    return Scenario(name=doc.get("name", "scenario"), steps=steps)


def _replay_order(sc: Scenario) -> list[tuple[int, ScenarioStep]]:
    """(file index, step) by timestamp; equal stamps keep file order."""
    return sorted(enumerate(sc.steps), key=lambda pair: pair[1].at)


def _apply(d: Dataset, positions: dict[str, Point], logged_in: list[str], index: int,
           step: ScenarioStep, partial_log=()) -> Dataset:
    """Apply one step to the replay state; returns the Dataset version after it.

    A step that cannot be applied raises ScenarioError and changes nothing.
    """
    def refuse(message: str) -> NoReturn:
        raise ScenarioError(f"step {index} ({step.action} @ {step.at.isoformat()}): {message}",
                            partial_log=partial_log)

    if step.action != "handover" and step.subject not in d.subject_by_name:
        refuse(f"unknown subject {step.subject!r}")
    if step.action in ("join", "leave") and step.carrier not in d.carrier_by_id:
        refuse(f"unknown carrier {step.carrier!r}")
    if step.action == "move":
        positions[step.subject] = step.location
    elif step.action == "login":
        if step.subject not in logged_in:
            logged_in.append(step.subject)
    elif step.action == "query":
        if step.subject not in logged_in:
            refuse(f"{step.subject!r} has no open session")
    elif step.action == "join":
        return d.with_assignment(d.subject_by_name[step.subject].id, step.carrier)
    elif step.action == "leave":
        subject_id = d.subject_by_name[step.subject].id
        if all(a.carrier_id != step.carrier for a in d.assignments_of(subject_id)):
            refuse(f"{step.subject!r} is not on {step.carrier!r}")
        return d.without_assignment(subject_id, step.carrier)
    else:  # handover
        for carrier in (step.from_carrier, step.to_carrier):
            if carrier not in d.carrier_by_id:
                refuse(f"unknown carrier {carrier!r}")
        for oid in step.objects:
            record = d.object_by_id.get(oid)
            if record is None:
                refuse(f"unknown object {oid!r}")
            if record.carrier_id != step.from_carrier:
                refuse(f"object {oid!r} is not on {step.from_carrier!r}")
        return d.with_object_carrier(step.objects, step.to_carrier)
    return d


def validate_scenario(sc: Scenario, d: Dataset) -> ValidationReport:
    """Time regressions in file order, then one violation per step the runner would refuse."""
    out = [Violation("scenario", str(i), "time-regression",
                     f"step {i} ({step.action}) goes back in time")
           for i, (prev, step) in enumerate(zip(sc.steps, sc.steps[1:]), start=1)
           if step.at < prev.at]
    positions, logged_in = {}, []
    for i, step in _replay_order(sc):
        try:
            d = _apply(d, positions, logged_in, i, step)
        except ScenarioError as exc:
            out.append(Violation("scenario", str(i), "unresolvable-reference", str(exc)))
    return ValidationReport(tuple(out))


def run_scenario(sc: Scenario, d: Dataset, *, supervisor_mode: str = "narrative"
                 ) -> ScenarioResult:
    """Apply the steps in timestamp order and collect lifecycle events.

    Steps with equal timestamps keep their file order; re-ordering steps
    with distinct timestamps in the input does not change the log. A step
    that cannot be applied raises ScenarioError with the log so far.
    """
    dataset = d
    positions: dict[str, Point] = {}  # as the move steps reported them
    points: dict[str, Point | None] = {}  # positions normalised, until the next move
    session_ids: dict[str, str] = {}
    logged_in: list[str] = []
    order: list[str] = []  # logged_in in subject-id order
    states: dict[str, GrantState] = {}
    events: list[AccessEvent] = []
    query_results: list[tuple[str, str, tuple[str, ...]]] = []

    for index, step in _replay_order(sc):
        now = as_utc(step.at)
        dataset = _apply(dataset, positions, logged_in, index, step, partial_log=events)
        if step.action == "move":
            points.pop(step.subject, None)
        elif step.action == "login" and step.subject not in session_ids:
            session_ids[step.subject] = f"sim-{dataset.subject_by_name[step.subject].id}"
            order = sorted(logged_in, key=lambda s: dataset.subject_by_name[s].id)
        # One session per logged-in subject, for the query and the re-evaluation:
        # what open_session would give, from values checked once.
        contexts = {}
        for s in logged_in:
            if s not in points:
                p = positions.get(s)
                points[s] = None if p is None else as_point(p)
            point = points[s]
            contexts[s] = SessionContext(session_ids[s], s, point,
                                         None if point is None else now, now)
        if step.action == "query":
            rows = run_query(dataset, contexts[step.subject], step.text, chain_mode=step.mode,
                             supervisor_mode=supervisor_mode, contexts=contexts).rows
            try:
                oids = tuple(sorted(set(rows.column("oid"))))
            except UnknownColumnError:
                oids = tuple(str(r) for r in rows.sorted_rows())
            query_results.append((step.at.isoformat(), step.subject, oids))

        # Re-evaluate everyone with an open session against the new state.
        for subject in order:
            state, evs = on_context_update(subject, contexts[subject], dataset,
                                           states.get(subject), mode=supervisor_mode,
                                           contexts=contexts)
            states[subject] = state
            events.extend(evs)

    return ScenarioResult(events=events, final_states=states, dataset=dataset,
                          query_results=query_results)
