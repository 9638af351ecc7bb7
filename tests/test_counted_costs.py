"""The complexity targets as counted work, not time.

A field subject's query should cost in proportion to its own rows. The
test runs the same field request on a randgen dataset and on a copy with
ten times the objects, every added one on a carrier the asking subject is
not assigned to, and counts the environments each join step of
queryir._join yields (each _probe or _cross generator, in the order the
steps are built). The counts must not grow with the objects the subject
cannot reach.

A supervisor's query should not cost subordinates x objects. The same
holds for a wired supervisor, in both supervisor modes, when every added
object rides a carrier that neither it nor any subordinate is on.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from vpdgate import engine, linkage, queryir
from vpdgate.relstore import validate_dataset
from vpdgate.sessionctx import open_session

from randgen import random_dataset

FIELD_QUERIES = ("select * from object", "select oid, name from object where truck = 'c1'")
GROWTH = 10


def _field_cases(n: int) -> list[tuple]:
    """(dataset, subject, carriers not assigned to it): the first n randgen
    datasets with objects and a subject assigned to some carriers, not all."""
    cases = []
    for seed in range(1000):
        d = random_dataset(random.Random(seed))
        for s in d.subjects:
            own = {a.carrier_id for a in d.assignments_of(s.id)}
            others = [c.id for c in d.carriers if c.id not in own]
            if d.objects and own and others and not linkage.subordinates(s.name, d):
                cases.append((d, s, others))
                break
        if len(cases) == n:
            return cases
    raise AssertionError(f"only {len(cases)} field cases")


def _with_unreachable_objects(d, carriers: list[str]):
    """d with GROWTH times its objects: each added one a copy of an object,
    on one of carriers, sent and received by no subject, of a good no
    specialty names."""
    added = tuple(o._replace(oid=f"{o.oid}-{k}", name="Ballast", sender="x90",
                             receiver="x92", carrier_id=carriers[(n + k) % len(carriers)])
                  for k in range(1, GROWTH) for n, o in enumerate(d.objects))
    out = replace(d, objects=d.objects + added)
    assert validate_dataset(out).ok
    return out


def _counted(monkeypatch, d, ctx, text: str, mode: str, supervisor_mode: str = "narrative"):
    """The request's outcome and the environments each join step yielded."""
    steps: list[list[int]] = []

    def counting(step):
        def wrapper(*args, **kwargs):
            count = [0]
            steps.append(count)
            for env in step(*args, **kwargs):
                count[0] += 1
                yield env
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(queryir, "_probe", counting(queryir._probe))
        patch.setattr(queryir, "_cross", counting(queryir._cross))
        outcome = engine.run_query(d, ctx, text, chain_mode=mode,
                                   supervisor_mode=supervisor_mode)
    return outcome, [count[0] for count in steps]


@pytest.mark.parametrize("mode", linkage.CHAIN_MODES)
def test_a_field_query_does_not_cost_the_objects_its_subject_cannot_reach(monkeypatch, mode):
    for d, s, others in _field_cases(12):
        big = _with_unreachable_objects(d, others)
        carrier = d.carrier_by_id[d.assignments_of(s.id)[0].carrier_id]
        for text in FIELD_QUERIES:
            small_outcome, small = _counted(monkeypatch, d, open_session(
                s.name, carrier.origin.point, carrier.departure, d), text, mode)
            big_outcome, counted = _counted(monkeypatch, big, open_session(
                s.name, carrier.origin.point, carrier.departure, big), text, mode)
            assert small_outcome.state.valid and big_outcome.state.valid
            assert big_outcome.rows == small_outcome.rows
            assert small and counted == small, (mode, text, s.name)


def _supervisor_cases(n: int) -> list[tuple]:
    """(dataset, supervisor, carriers none of its principals is on): the
    first n randgen datasets with objects and a supervisor some of whose
    subordinates are assigned to some carriers, not all. Its principals
    are the supervisor and its subordinates."""
    cases = []
    for seed in range(1000):
        d = random_dataset(random.Random(seed))
        for s in d.subjects:
            principals = linkage.subordinates(s.name, d) | {s.name}
            own = {a.carrier_id for name in principals
                   for a in d.assignments_of(d.subject_by_name[name].id)}
            others = [c.id for c in d.carriers if c.id not in own]
            if d.objects and own and others and len(principals) > 1:
                cases.append((d, s, others))
                break
        if len(cases) == n:
            return cases
    raise AssertionError(f"only {len(cases)} supervisor cases")


@pytest.mark.parametrize("supervisor_mode", linkage.SUPERVISOR_MODES)
@pytest.mark.parametrize("mode", linkage.CHAIN_MODES)
def test_a_supervisor_query_does_not_cost_the_objects_no_subordinate_can_reach(
        monkeypatch, mode, supervisor_mode):
    for d, s, others in _supervisor_cases(12):
        big = _with_unreachable_objects(d, others)
        for text in FIELD_QUERIES:
            small_outcome, small = _counted(monkeypatch, d, open_session(s.name, None, None, d),
                                            text, mode, supervisor_mode)
            big_outcome, counted = _counted(monkeypatch, big, open_session(
                s.name, None, None, big), text, mode, supervisor_mode)
            assert small_outcome.state.valid and big_outcome.state.valid
            assert small_outcome.vpd.expansion is not None
            assert big_outcome.rows == small_outcome.rows
            assert small and counted == small, (mode, supervisor_mode, text, s.name)
