"""Deterministic scenario runner for moving subjects and workflow churn.

A scenario is an ordered list of timestamped steps: subjects move along
routes, log in, query, join or leave carriers, and object sets are
handed over between carriers. Simulated time advances only through step
timestamps; there is no wall clock anywhere, so a scenario replays to a
byte-identical event log.

After every step the runner re-evaluates validity for each logged-in
subject (in subject-id order) against the dataset version as mutated so
far, appending the lifecycle transition events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from .engine import run_query
from .errors import ScenarioError
from .geo import Point
from .lifecycle import AccessEvent, GrantState, on_context_update
from .relstore import Dataset, ValidationReport, Violation
from .sessionctx import SessionContext, open_session
from .timeutil import parse_timestamp

ACTIONS = ("move", "login", "query", "join", "leave", "handover")

SCENARIO_VERSION = 1


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
    action = doc.get("action")
    if action not in ACTIONS:
        raise ScenarioError(f"step {index}: unknown action {action!r}")
    try:
        at = parse_timestamp(doc["at"])
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"step {index}: bad timestamp: {exc}") from None
    location = None
    if "lat" in doc or "lon" in doc:
        location = (float(doc["lat"]), float(doc["lon"]))
    return ScenarioStep(
        at=at,
        action=action,
        subject=doc.get("subject"),
        location=location,
        text=doc.get("text"),
        mode=doc.get("mode", "workflow"),
        carrier=doc.get("carrier"),
        objects=tuple(doc.get("objects", ())),
        from_carrier=doc.get("from"),
        to_carrier=doc.get("to"),
    )


def load_scenario(source: str | Path | dict) -> Scenario:
    if isinstance(source, dict):
        doc = source
    else:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    steps = tuple(_step_from_dict(s, i) for i, s in enumerate(doc.get("steps", ())))
    return Scenario(name=doc.get("name", "scenario"), steps=steps)


def validate_scenario(sc: Scenario, d: Dataset) -> ValidationReport:
    """Static walk of the steps against the dataset as mutated so far."""
    out: list[Violation] = []
    subjects = {s.name for s in d.subjects}
    carriers = {c.id for c in d.carriers}
    object_carrier = {o.oid: o.carrier_id for o in d.objects}
    assignments = {(a.subject_id, a.carrier_id) for a in d.assignments}
    by_name_id = {s.name: s.id for s in d.subjects}

    prev_at: datetime | None = None
    for i, step in enumerate(sc.steps):
        where = f"step {i} ({step.action})"
        if prev_at is not None and step.at < prev_at:
            out.append(Violation("scenario", str(i), "time-regression",
                                 f"{where} goes back in time"))
        prev_at = step.at

        if step.action in ("move", "login", "query", "join", "leave"):
            if step.subject not in subjects:
                out.append(Violation("scenario", str(i), "unresolvable-reference",
                                     f"{where} references unknown subject {step.subject!r}"))
                continue
        if step.action in ("join", "leave"):
            if step.carrier not in carriers:
                out.append(Violation("scenario", str(i), "unresolvable-reference",
                                     f"{where} references unknown carrier {step.carrier!r}"))
                continue
            key = (by_name_id[step.subject], step.carrier)
            if step.action == "join":
                assignments.add(key)
            elif key not in assignments:
                out.append(Violation("scenario", str(i), "unresolvable-reference",
                                     f"{where}: {step.subject!r} is not on {step.carrier!r}"))
            else:
                assignments.discard(key)
        if step.action == "handover":
            for carrier in (step.from_carrier, step.to_carrier):
                if carrier not in carriers:
                    out.append(Violation("scenario", str(i), "unresolvable-reference",
                                         f"{where} references unknown carrier {carrier!r}"))
            for oid in step.objects:
                if oid not in object_carrier:
                    out.append(Violation("scenario", str(i), "unresolvable-reference",
                                         f"{where} references unknown object {oid!r}"))
                elif object_carrier[oid] != step.from_carrier:
                    out.append(Violation("scenario", str(i), "unresolvable-reference",
                                         f"{where}: object {oid!r} is not on "
                                         f"{step.from_carrier!r}"))
                else:
                    object_carrier[oid] = step.to_carrier
    return ValidationReport(tuple(out))


def run_scenario(sc: Scenario, d: Dataset, *, supervisor_mode: str = "narrative"
                 ) -> ScenarioResult:
    """Apply the steps in timestamp order and collect lifecycle events.

    Steps with equal timestamps keep their file order; re-ordering steps
    with distinct timestamps in the input does not change the log.
    """
    steps = sorted(sc.steps, key=lambda s: s.at)  # stable: equal stamps keep file order
    dataset = d
    positions: dict[str, Point] = {}
    logged_in: list[str] = []
    states: dict[str, GrantState] = {}
    events: list[AccessEvent] = []
    query_results: list[tuple[str, str, tuple[str, ...]]] = []

    def context_for(subject: str, now: datetime) -> SessionContext:
        pos = positions.get(subject)
        return open_session(subject, pos, now if pos is not None else None, dataset,
                            session_id=f"sim-{dataset.subject_by_name[subject].id}",
                            opened_at=now)

    def context_map(now: datetime) -> dict[str, SessionContext]:
        return {s: context_for(s, now) for s in logged_in}

    def fail(step: ScenarioStep, message: str):
        raise ScenarioError(f"{step.action} @ {step.at.isoformat()}: {message}",
                            partial_log=events)

    for step in steps:
        now = step.at
        if step.action == "move":
            if step.subject not in dataset.subject_by_name:
                fail(step, f"unknown subject {step.subject!r}")
            if step.location is None:
                fail(step, "move without lat/lon")
            positions[step.subject] = step.location
        elif step.action == "login":
            if step.subject not in dataset.subject_by_name:
                fail(step, f"unknown subject {step.subject!r}")
            if step.subject not in logged_in:
                logged_in.append(step.subject)
        elif step.action == "query":
            if step.subject not in logged_in:
                fail(step, f"{step.subject!r} has no open session")
            ctx = context_for(step.subject, now)
            rows = run_query(dataset, ctx, step.text, chain_mode=step.mode,
                             supervisor_mode=supervisor_mode,
                             contexts=context_map(now)).rows
            try:
                oids = tuple(sorted(set(rows.column("oid"))))
            except Exception:
                oids = tuple(str(r) for r in rows.sorted_rows())
            query_results.append((step.at.isoformat(), step.subject, oids))
        elif step.action == "join":
            if step.carrier not in dataset.carrier_by_id:
                fail(step, f"unknown carrier {step.carrier!r}")
            if step.subject not in dataset.subject_by_name:
                fail(step, f"unknown subject {step.subject!r}")
            subject_id = dataset.subject_by_name[step.subject].id
            dataset = dataset.with_assignment(subject_id, step.carrier)
        elif step.action == "leave":
            if step.subject not in dataset.subject_by_name:
                fail(step, f"unknown subject {step.subject!r}")
            subject_id = dataset.subject_by_name[step.subject].id
            if all(a.carrier_id != step.carrier for a in dataset.assignments_of(subject_id)):
                fail(step, f"{step.subject!r} is not on {step.carrier!r}")
            dataset = dataset.without_assignment(subject_id, step.carrier)
        elif step.action == "handover":
            for carrier in (step.from_carrier, step.to_carrier):
                if carrier not in dataset.carrier_by_id:
                    fail(step, f"unknown carrier {carrier!r}")
            for oid in step.objects:
                record = dataset.object_by_id.get(oid)
                if record is None:
                    fail(step, f"unknown object {oid!r}")
                if record.carrier_id != step.from_carrier:
                    fail(step, f"object {oid!r} is not on {step.from_carrier!r}")
            dataset = dataset.with_object_carrier(step.objects, step.to_carrier)

        # Re-evaluate everyone with an open session against the new state.
        contexts = context_map(now)
        order = sorted(logged_in, key=lambda s: dataset.subject_by_name[s].id)
        for subject in order:
            state, evs = on_context_update(subject, contexts[subject], dataset,
                                           states.get(subject), mode=supervisor_mode,
                                           contexts=contexts, now=now)
            states[subject] = state
            events.extend(evs)

    return ScenarioResult(events=events, final_states=states, dataset=dataset,
                          query_results=query_results)
