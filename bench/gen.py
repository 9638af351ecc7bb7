"""Seeded synthetic inputs for the benchmark: a logistics dataset and a fleet scenario.

Both generators scale up the ideas of the small-instance generator in
tests/randgen.py: an org tree whose managing tier logs in wired, field
staff in the leaf units assigned to one or two carriers, 3-waypoint
routes, and objects spread over the carriers. Some two-carrier subjects
get disjoint windows, so a report on one carrier's route during the other
carrier's window ("crossed") exists and must be refused.

The output is plain JSON in the formats relstore.load_dataset and
simharness.load_scenario read, the way the CLI receives them. The same
seed and parameters give byte-identical files.

    python3 bench/gen.py --seed 1 --out-dir bench/out/example
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

BASE_TIME = datetime(2010, 8, 1, tzinfo=timezone.utc)

GOODS = [
    "Timber", "Steel", "Grain", "Cotton", "Copper", "Cement", "Glass", "Salt",
    "Coffee", "Tea", "Sugar", "Rice", "Wool", "Rubber", "Tin", "Zinc",
    "Nickel", "Paper", "Oil", "Coal", "Sand", "Fruit", "Fish", "Wine",
    "Cocoa", "Spice", "Silk", "Leather", "Tobacco", "Maize", "Barley", "Soy",
    "Iron", "Lead", "Lumber", "Resin", "Dye", "Jute", "Hemp", "Flax",
]

TITLES = ["Driver", "Sailor", "Clerk", "Courier"]


@dataclass(frozen=True)
class DatasetParams:
    subjects: int = 1000
    carriers: int = 100
    objects: int = 10000
    fanout: int = 4
    depth: int = 3
    waypoints: int = 3
    cities: int = 80


@dataclass(frozen=True)
class FleetParams:
    field_subjects: int = 200
    managers: int = 4
    steps: int = 400
    query_every: int = 40  # counted in steps other than logins
    churn_every: int = 10


def _iso(t: datetime) -> str:
    return t.isoformat().replace("+00:00", "Z")


# ---------------------------------------------------------------------------
# Spherical helpers (kept local so the generator shares no code with the
# program under test)
# ---------------------------------------------------------------------------

def _vec(p):
    lat, lon = math.radians(p[0]), math.radians(p[1])
    return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))


def _point(v):
    x, y, z = v
    return (math.degrees(math.atan2(z, math.hypot(x, y))), math.degrees(math.atan2(y, x)))


def slerp(a, b, f: float):
    """Point at fraction f along the great-circle arc from a to b."""
    va, vb = _vec(a), _vec(b)
    dot = max(-1.0, min(1.0, sum(x * y for x, y in zip(va, vb))))
    omega = math.acos(dot)
    if omega < 1e-12:
        return a
    s = math.sin(omega)
    wa, wb = math.sin((1 - f) * omega) / s, math.sin(f * omega) / s
    return _point(tuple(wa * x + wb * y for x, y in zip(va, vb)))


def route_point(waypoints, f: float):
    """Point at fraction f of the way along a polyline, by segment count."""
    segments = len(waypoints) - 1
    pos = min(f, 1.0) * segments
    i = min(int(pos), segments - 1)
    return slerp(waypoints[i], waypoints[i + 1], pos - i)


def off_route_point(p):
    """A point about 2000 km north or south of p."""
    lat = p[0] + 18.0 if p[0] < 40.0 else p[0] - 18.0
    return (round(lat, 4), p[1])


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

def org_tree(params: DatasetParams) -> tuple[list[dict], list[list[str]]]:
    """Edges and unit tiers of a complete tree (tier 0 is the root)."""
    tiers = [["OU0"]]
    edges = []
    counter = 0
    for _ in range(params.depth):
        tier = []
        for parent in tiers[-1]:
            for _ in range(params.fanout):
                counter += 1
                child = f"OU{counter}"
                tier.append(child)
                edges.append({"ou": parent, "sub_ou": child})
        tiers.append(tier)
    return edges, tiers


def _carriers(rng: random.Random, params: DatasetParams) -> list[dict]:
    cities = [(f"City{i:02d}", round(rng.uniform(-45.0, 60.0), 4),
               round(rng.uniform(-170.0, 170.0), 4)) for i in range(params.cities)]
    out = []
    for i in range(params.carriers):
        origin, destination = rng.sample(cities, 2)
        a, b = origin[1:], destination[1:]
        inner = []
        for k in range(1, params.waypoints - 1):
            p = slerp(a, b, k / (params.waypoints - 1))
            inner.append([round(max(-85.0, min(85.0, p[0] + rng.uniform(-3.0, 3.0))), 4),
                          round(p[1], 4)])
        start = BASE_TIME + timedelta(days=rng.randint(0, 30), hours=rng.randint(0, 23))
        end = start + timedelta(days=rng.randint(5, 20))
        out.append({
            "id": f"c{i + 1:03d}",
            "origin": {"name": origin[0], "lat": a[0], "lon": a[1]},
            "destination": {"name": destination[0], "lat": b[0], "lon": b[1]},
            "departure": _iso(start),
            "arrival": _iso(end),
            "waypoints": [list(a), *inner, list(b)],
        })
    return out


def _disjoint(c1: dict, c2: dict) -> bool:
    return c1["arrival"] < c2["departure"] or c2["arrival"] < c1["departure"]


def dataset_doc(seed: int, params: DatasetParams = DatasetParams()) -> dict:
    """The dataset as a relstore JSON document."""
    rng = random.Random(f"dataset:{seed}")
    edges, tiers = org_tree(params)
    carriers = _carriers(rng, params)
    leaf_units = tiers[-1]

    subjects = []
    for tier_no, tier in enumerate(tiers[:-1]):
        for ou in tier:
            subjects.append({"id": f"m{len(subjects) + 1:04d}", "name": f"Mgr{ou}",
                             "title": f"Manager{tier_no}", "specialty": "-", "dept": ou})
    assignments = []
    for i in range(params.subjects - len(subjects)):
        sid = f"p{i + 1:04d}"
        subjects.append({"id": sid, "name": f"Field{i + 1:04d}",
                         "title": rng.choice(TITLES),
                         "specialty": rng.choice(GOODS) if rng.random() < 0.7 else "-",
                         "dept": leaf_units[i % len(leaf_units)]})
        first = rng.choice(carriers)
        assignments.append({"id": sid, "truck": first["id"]})
        if rng.random() < 0.35:
            others = [c for c in carriers if c is not first]
            disjoint = [c for c in others if _disjoint(c, first)]
            pool = disjoint if disjoint and rng.random() < 0.7 else others
            assignments.append({"id": sid, "truck": rng.choice(pool)["id"]})

    ids = [s["id"] for s in subjects]
    objects = []
    for i in range(params.objects):
        carrier = rng.choice(carriers)
        objects.append({
            "oid": f"o{i + 1:05d}",
            "name": rng.choice(GOODS),
            "sender": rng.choice(ids) if rng.random() < 0.6 else f"x{rng.randint(0, 99):02d}",
            "receiver": rng.choice(ids) if rng.random() < 0.6 else f"y{rng.randint(0, 99):02d}",
            "truck": carrier["id"] if rng.random() < 0.95 else "-",
            "origin": carrier["origin"]["name"],
            "destination": carrier["destination"]["name"],
            "ship_out": carrier["departure"][:10],
            "receive_in": "-",
        })
    return {"subject": subjects, "assignment": assignments, "carrier": carriers,
            "object": objects, "org_hierarchy": edges,
            "schema": {"corridor_km": 50.0}}


# ---------------------------------------------------------------------------
# Fleet scenario
# ---------------------------------------------------------------------------

def fleet_doc(seed: int, doc: dict, params: FleetParams = FleetParams()) -> dict:
    """A scenario of logins, moves on and off route, churn and manager queries.

    Every step is valid against the dataset as mutated so far, so a replay
    never raises.
    """
    rng = random.Random(f"fleet:{seed}")
    carriers = {c["id"]: c for c in doc["carrier"]}
    by_id = {s["id"]: s for s in doc["subject"]}
    on = {}
    for a in doc["assignment"]:
        on.setdefault(a["id"], []).append(a["truck"])
    object_on = {o["oid"]: o["truck"] for o in doc["object"] if o["truck"] != "-"}

    field_ids = sorted(on)
    chosen = rng.sample(field_ids, params.field_subjects)
    leaf_tier = f"Manager{DatasetParams().depth - 1}"
    managers = [s["name"] for s in doc["subject"] if s["title"] == leaf_tier]
    chosen_managers = rng.sample(managers, params.managers)

    t0 = BASE_TIME + timedelta(days=10)
    step_gap = timedelta(days=30) / params.steps

    def position(sid: str):
        if not on.get(sid) or rng.random() < 0.15:
            c = carriers[rng.choice(sorted(carriers))]
            return off_route_point(route_point(c["waypoints"], rng.random()))
        c = carriers[rng.choice(on[sid])]
        return tuple(round(v, 4) for v in route_point(c["waypoints"], rng.random()))

    steps = []
    now = t0

    def add(action: str, **fields):
        steps.append({"at": _iso(now), "action": action, **fields})

    for name in chosen_managers:
        add("login", subject=name)
    pending = list(chosen)
    logged_in: list[str] = []
    other = 0
    for i in range(params.steps):
        now = t0 + step_gap * i
        if pending and (i % 2 == 0 or len(pending) > params.steps - i):
            sid = pending.pop()
            lat, lon = position(sid)
            add("move", subject=by_id[sid]["name"], lat=lat, lon=lon)
            add("login", subject=by_id[sid]["name"])
            logged_in.append(sid)
            continue
        other += 1
        if other % params.query_every == 0:
            add("query", subject=rng.choice(chosen_managers),
                text="select * from object", mode="workflow")
        elif other % params.churn_every == 0:
            kind = rng.choice(("join", "leave", "handover"))
            sid = rng.choice(logged_in)
            if kind == "leave" and on.get(sid):
                cid = rng.choice(on[sid])
                on[sid].remove(cid)
                add("leave", subject=by_id[sid]["name"], carrier=cid)
            elif kind == "handover":
                src, dst = rng.sample(sorted(carriers), 2)
                moving = sorted(oid for oid, cid in object_on.items() if cid == src)[:5]
                for oid in moving:
                    object_on[oid] = dst
                add("handover", objects=moving, **{"from": src, "to": dst})
            else:
                cid = rng.choice(sorted(carriers))
                if cid not in on.setdefault(sid, []):
                    on[sid].append(cid)
                    add("join", subject=by_id[sid]["name"], carrier=cid)
        else:
            sid = rng.choice(logged_in)
            lat, lon = position(sid)
            add("move", subject=by_id[sid]["name"], lat=lat, lon=lon)
    return {"version": 1, "name": f"fleet-{seed}", "steps": steps}


def write_inputs(seed: int, out_dir: Path, *, fleet: bool) -> dict[str, Path]:
    """Write dataset.json (and fleet.json) under out_dir; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = dataset_doc(seed)
    paths = {"dataset": out_dir / "dataset.json"}
    paths["dataset"].write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    if fleet:
        paths["scenario"] = out_dir / "fleet.json"
        paths["scenario"].write_text(json.dumps(fleet_doc(seed, doc), separators=(",", ":")),
                                     encoding="utf-8")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--fleet", action="store_true", help="also write fleet.json")
    args = parser.parse_args()
    paths = write_inputs(args.seed, args.out_dir, fleet=args.fleet)
    print(json.dumps({k: str(v) for k, v in paths.items()}
                     | {"params": asdict(DatasetParams())}))


if __name__ == "__main__":
    main()
