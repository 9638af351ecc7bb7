"""Row order of the join, and which side of a filtered equality it reads.

queryir._join reads a binding that has both a `col = literal/context`
filter and an equality to an already-bound binding from one of two
sources: the prebuilt join index, probed per environment with the
filters checked on each row, or the filter's index bucket hashed on the
join column. It probes when the estimated environments times the join
index's mean bucket is smaller than the filter's bucket. Both sources
give each join value's rows in table order, so the choice never changes
the rows or their order.

The digests below are the sha256 of a fixed request stream's rows, in
order, as the evaluator returned them before the probe rule existed.
"""

from __future__ import annotations

import hashlib
import random
from datetime import timedelta

import pytest

from vpdgate import engine, linkage, queryir
from vpdgate.errors import VpdGateError
from vpdgate.relstore import load_dataset
from vpdgate.sessionctx import open_session

from randgen import BASE_TIME, CITIES, GOODS, random_contexts, random_dataset

STAR = "select * from object"
COND = "select oid, name from object where name = '{}'"

# (dataset kind, seed) -> sha256 of _stream(kind, seed)
ROW_ORDER_DIGESTS = {
    ("randgen", 84): "eadfb42d1817e3205bb2263ed1b37d1d0343dba07f50f6c590a2b1bff718394f",
    ("randgen", 186): "aa4f8fbecf9d1680379f6b646d7310b81840c0cbb35b3a47ce8449a345892f28",
    ("randgen", 278): "ce0d57f7541c2e5988e19d450e0e5f22dfc709f8f391080153bc2b4f28b5d084",
    ("many-carriers", 1): "9ba08fbc2b43e7eeaa532ade19bb263b1c86b539555104f1a07bb65d6923514e",
}


def many_carriers(rng: random.Random):
    """A two-tier org over 30 carriers and 300 objects of three goods: a field
    subject's carriers hold fewer objects than one good's name bucket, a
    supervisor's many subordinates' carriers hold more."""
    carriers = []
    for i in range(30):
        (a, alat, alon), (b, blat, blon) = rng.sample(CITIES, 2)
        start = BASE_TIME + timedelta(days=rng.randint(0, 5))
        end = start + timedelta(days=rng.randint(2, 10))
        carriers.append({"id": f"c{i:02d}",
                         "origin": {"name": a, "lat": alat, "lon": alon},
                         "destination": {"name": b, "lat": blat, "lon": blon},
                         "departure": start.isoformat().replace("+00:00", "Z"),
                         "arrival": end.isoformat().replace("+00:00", "Z")})
    units = {"Root": ["Unit1", "Unit2"], "Unit1": ["Unit3", "Unit4"], "Unit2": ["Unit5"]}
    edges = [{"ou": ou, "sub_ou": sub} for ou, subs in units.items() for sub in subs]
    subjects = [{"id": "m00", "name": "Boss", "title": "Manager", "specialty": "-",
                 "dept": "Root"},
                {"id": "m01", "name": "Lead1", "title": "Manager", "specialty": "-",
                 "dept": "Unit1"},
                {"id": "m02", "name": "Lead2", "title": "Manager", "specialty": "-",
                 "dept": "Unit2"}]
    subjects += [{"id": f"p{i:02d}", "name": f"Field{i}", "title": "Driver",
                  "specialty": rng.choice(GOODS[:3]), "dept": rng.choice(["Unit3", "Unit4",
                                                                          "Unit5"])}
                 for i in range(24)]
    assignments = [{"id": s["id"], "truck": c["id"]} for s in subjects[3:]
                   for c in rng.sample(carriers, rng.choice((1, 1, 2)))]
    ids = [s["id"] for s in subjects]
    objects = [{"oid": f"o{i:03d}", "name": rng.choice(GOODS[:3]),
                "sender": rng.choice(ids), "receiver": rng.choice(ids),
                "truck": rng.choice([c["id"] for c in carriers] + ["-"]),
                "origin": "-", "destination": "-", "ship_out": "-", "receive_in": "-"}
               for i in range(300)]
    return load_dataset({"subject": subjects, "assignment": assignments, "carrier": carriers,
                         "object": objects, "org_hierarchy": edges})


DATASETS = {"randgen": random_dataset, "many-carriers": many_carriers}


def _stream(kind: str, seed: int):
    """Every subject's requests on dataset `kind` drawn from `seed`: `select *`
    and a name condition per good, in every chain mode and both supervisor modes."""
    rng = random.Random(seed)
    d = DATASETS[kind](rng)
    contexts = random_contexts(rng, d)
    for s in d.subjects:
        ctx = contexts.get(s.name) or open_session(s.name, None, None, d,
                                                   session_id=f"w-{s.id}", opened_at=BASE_TIME)
        for chain in linkage.CHAIN_MODES:
            for text in (STAR, *(COND.format(g) for g in GOODS)):
                for mode in linkage.SUPERVISOR_MODES:
                    yield d, ctx, text, dict(chain_mode=chain, supervisor_mode=mode,
                                             contexts=contexts)


def stream_digest(kind: str, seed: int) -> str:
    h = hashlib.sha256()
    for d, ctx, text, kwargs in _stream(kind, seed):
        try:
            outcome = engine.run_query(d, ctx, text, **kwargs)
        except VpdGateError as exc:
            observed = (ctx.user, text, kwargs["chain_mode"], kwargs["supervisor_mode"],
                        type(exc).__name__)
        else:
            observed = (ctx.user, text, kwargs["chain_mode"], kwargs["supervisor_mode"],
                        outcome.state.state, outcome.state.reason, outcome.rows.schema,
                        outcome.rows.rows)
        h.update(repr(observed).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kind, seed", sorted(ROW_ORDER_DIGESTS))
def test_rows_keep_their_order(kind, seed):
    assert stream_digest(kind, seed) == ROW_ORDER_DIGESTS[kind, seed]


# ---------------------------------------------------------------------------
# Each side of the candidate-source rule
# ---------------------------------------------------------------------------

def _hashed_buckets(monkeypatch) -> list[int]:
    """Sizes of the candidate lists _join hashes on a join column, while patched."""
    sizes: list[int] = []
    real = queryir._by_join_value

    def counting(rows, at):
        sizes.append(len(rows))
        return real(rows, at)

    monkeypatch.setattr(queryir, "_by_join_value", counting)
    return sizes


def test_field_request_with_a_name_condition_probes_its_carriers(monkeypatch):
    d = many_carriers(random.Random(1))
    subject = next(s for s in d.subjects if len(d.assignments_of(s.id)) == 1)
    carrier = d.carrier_by_id[d.assignments_of(subject.id)[0].carrier_id]
    ctx = open_session(subject.name, carrier.waypoints[0], carrier.departure, d)
    good = next(o.name for o in d.objects if o.carrier_id == carrier.id)
    name_bucket = d.index("object", "name")[good]
    assert len(name_bucket) > 2 * sum(o.carrier_id == carrier.id for o in d.objects)

    sizes = _hashed_buckets(monkeypatch)
    outcome = engine.run_query(d, ctx, COND.format(good))
    assert sizes == []
    assert outcome.state.valid
    assert outcome.rows.rows == tuple((o.oid, o.name) for o in d.objects
                                      if o.carrier_id == carrier.id and o.name == good)


def test_supervisor_group_with_many_pins_hashes_the_name_bucket(monkeypatch):
    d = many_carriers(random.Random(1))
    boss = open_session("Boss", None, None, d)
    good = d.objects[0].name
    name_bucket = d.index("object", "name")[good]

    sizes = _hashed_buckets(monkeypatch)
    outcome = engine.run_query(d, boss, COND.format(good))
    assert sizes == [len(name_bucket)]
    assert outcome.state.valid and len(outcome.rows) > 0
