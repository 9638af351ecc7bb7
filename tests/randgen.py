"""Randomized small-instance generator for the equivalence sweeps.

Builds datasets of at most 8 subjects, 8 objects, 3 carriers and a
3-level org hierarchy, plus a reported context per subject. Wireless
contexts go only to subjects without subordinates (field staff); the
managing tier logs in wired, mirroring the system's intended world. A
crossed report (position on one carrier's route, time in another's
window and, where the windows allow, outside the first one's) takes its
time from the subject's own other carrier when it is assigned to two,
the case where separate location and time checks would both pass.
random_scenario draws a scenario over such a dataset that replays
without a refusal. Everything is driven by a seeded Random, so a sweep is
reproducible.
"""

from __future__ import annotations

import math
import random
from datetime import timedelta

from vpdgate import geo
from vpdgate.relstore import Dataset, load_dataset
from vpdgate.sessionctx import SessionContext, open_session
from vpdgate.timeutil import parse_timestamp

CITIES = [
    ("Aberdeen", 57.1497, -2.0943),
    ("Bergen", 60.3913, 5.3221),
    ("Calais", 50.9513, 1.8587),
    ("Dakar", 14.7167, -17.4677),
    ("Esbjerg", 55.4760, 8.4599),
    ("Fukuoka", 33.5902, 130.4017),
    ("Gdansk", 54.3520, 18.6466),
    ("Halifax", 44.6488, -63.5752),
    ("Izmir", 38.4237, 27.1428),
    ("Jakarta", -6.2088, 106.8456),
    ("Kingston", 17.9712, -76.7936),
    ("Lisbon", 38.7223, -9.1393),
]

def midpoint(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Great-circle midpoint of a and b: the normalised sum of their unit vectors."""
    def vec(p):
        lat, lon = math.radians(p[0]), math.radians(p[1])
        return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))

    m = [u + v for u, v in zip(vec(a), vec(b))]
    mlen = math.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])
    if mlen < 1e-15:
        raise ValueError("midpoint of antipodal points is undefined")
    x, y, z = (c / mlen for c in m)
    return (math.degrees(math.atan2(z, math.hypot(x, y))), math.degrees(math.atan2(y, x)))


GOODS = ["Timber", "Steel", "Grain", "Cotton", "Copper", "Cement", "Glass", "Salt"]

BASE_TIME = parse_timestamp("2010-08-01T00:00:00Z")

FAR_POINT_POOL = [(-75.0, 10.0), (75.0, -170.0), (-60.0, 120.0), (70.0, 60.0)]


def _org_edges(rng: random.Random) -> tuple[list[dict], list[str]]:
    levels = rng.randint(1, 3)
    tiers = [["Root"]]
    edges = []
    counter = 0
    for _ in range(levels - 1):
        tier = []
        for parent in tiers[-1]:
            for _ in range(rng.randint(0, 2)):
                counter += 1
                child = f"Unit{counter}"
                tier.append(child)
                edges.append({"ou": parent, "sub_ou": child})
        if not tier:
            break
        tiers.append(tier)
    ous = [ou for tier in tiers for ou in tier]
    if rng.random() < 0.4:
        ous.append("Standalone")  # a leaf OU that appears in no edge
    return edges, ous


def _carriers(rng: random.Random) -> list[dict]:
    out = []
    n = rng.randint(0, 3)
    pairs = rng.sample(CITIES, k=min(len(CITIES), 2 * n))
    for i in range(n):
        origin, destination = pairs[2 * i], pairs[2 * i + 1]
        start = BASE_TIME + timedelta(days=rng.randint(0, 10))
        end = start + timedelta(days=rng.randint(1, 15))
        carrier = {
            "id": f"c{i + 1}",
            "origin": {"name": origin[0], "lat": origin[1], "lon": origin[2]},
            "destination": {"name": destination[0], "lat": destination[1],
                            "lon": destination[2]},
            "departure": start.isoformat().replace("+00:00", "Z"),
            "arrival": end.isoformat().replace("+00:00", "Z"),
        }
        if rng.random() < 0.3:
            # A detour waypoint bends the route into two segments.
            a = (origin[1], origin[2])
            b = (destination[1], destination[2])
            mid = midpoint(a, b)
            detour = (max(-89.0, min(89.0, mid[0] + rng.choice((-4.0, 4.0)))), mid[1])
            carrier["waypoints"] = [list(a), list(detour), list(b)]
        out.append(carrier)
    return out


# Subject names a query text cannot hold as an identifier: a space, a
# quote, a leading digit, a keyword, other scripts. KEYWORD_NAMES has one
# name per subject index, so names stay distinct.
NAME_FORMS = ("Sub{}", "Sub {}", "O'Sub{}", "{}Sub", "Süb{}", "東{}", None)
KEYWORD_NAMES = ("select", "range", "union", "from", "where", "and", "in", "order")


def random_dataset(rng: random.Random, *, awkward_names: bool = False) -> Dataset:
    """A random dataset whose subjects are Sub1, Sub2, ...; with awkward_names,
    each name takes a form drawn from NAME_FORMS (None: a keyword)."""
    edges, ous = _org_edges(rng)
    carriers = _carriers(rng)

    n_subjects = rng.randint(2, 8)
    subjects = []
    for i in range(n_subjects):
        form = rng.choice(NAME_FORMS) if awkward_names else "Sub{}"
        subjects.append({
            "id": f"p{i + 1:02d}",
            "name": KEYWORD_NAMES[i] if form is None else form.format(i + 1),
            "title": rng.choice(["Driver", "Sailor", "Manager", "Clerk"]),
            "specialty": rng.choice(GOODS + ["-"] * len(GOODS)),
            "dept": rng.choice(ous),
        })

    descendants = _descendant_map(edges)
    leaf = {s["id"]: not any(o["dept"] in descendants.get(s["dept"], set())
                             for o in subjects if o is not s)
            for s in subjects}

    assignments = []
    if carriers:
        for s in subjects:
            if leaf[s["id"]]:
                for _ in range(rng.choice((0, 0, 1, 1, 2))):
                    assignments.append({"id": s["id"],
                                        "truck": rng.choice(carriers)["id"]})

    subject_ids = [s["id"] for s in subjects]
    objects = []
    for i in range(rng.randint(0, 8)):
        objects.append({
            "oid": f"b{i + 1:03d}",
            "name": rng.choice(GOODS),
            "sender": rng.choice(subject_ids + ["x90", "x91"]),
            "receiver": rng.choice(subject_ids + ["x92", "x93"]),
            "truck": rng.choice([c["id"] for c in carriers] + ["-"]) if carriers else "-",
            "origin": rng.choice(CITIES)[0],
            "destination": rng.choice(CITIES)[0],
            "ship_out": "-",
            "receive_in": "-",
        })

    return load_dataset({
        "subject": subjects,
        "assignment": assignments,
        "carrier": carriers,
        "object": objects,
        "org_hierarchy": edges,
    })


def _descendant_map(edges: list[dict]) -> dict[str, set[str]]:
    children: dict[str, list[str]] = {}
    for e in edges:
        children.setdefault(e["ou"], []).append(e["sub_ou"])
    out: dict[str, set[str]] = {}

    def walk(node: str) -> set[str]:
        if node in out:
            return out[node]
        acc: set[str] = set()
        for c in children.get(node, ()):
            acc.add(c)
            acc |= walk(c)
        out[node] = acc
        return acc

    for node in list(children):
        walk(node)
    return out


def _route_point(rng: random.Random, carrier) -> tuple[float, float]:
    a = (carrier.origin.lat, carrier.origin.lon)
    b = (carrier.destination.lat, carrier.destination.lon)
    roll = rng.random()
    if roll < 0.3:
        return a
    if roll < 0.5:
        return b
    return midpoint(a, b)


def _window_time(rng: random.Random, carrier):
    span = carrier.arrival - carrier.departure
    return carrier.departure + timedelta(seconds=rng.randint(0, int(span.total_seconds())))


def _crossed_time(rng: random.Random, other, carrier):
    """A time in other's window, outside carrier's window where the two allow it."""
    second = timedelta(seconds=1)
    parts = [(a, b) for a, b in ((other.departure, min(other.arrival, carrier.departure - second)),
                                 (max(other.departure, carrier.arrival + second), other.arrival))
             if a <= b]
    if not parts:
        return _window_time(rng, other)
    a, b = rng.choice(parts)
    return a + timedelta(seconds=rng.randint(0, int((b - a).total_seconds())))


def _far_point(rng: random.Random, d: Dataset) -> tuple[float, float]:
    for candidate in rng.sample(FAR_POINT_POOL, len(FAR_POINT_POOL)):
        if all(geo.polyline_distance_km(candidate, c.waypoints) > 2 * d.manifest.corridor_km
               for c in d.carriers):
            return candidate
    return (-89.0, 0.0)


def _managers(d: Dataset) -> set[str]:
    """Names of the subjects with subordinates (the managing tier)."""
    descendants = _descendant_map([{"ou": e.ou, "sub_ou": e.sub_ou} for e in d.org_edges])
    return {s.name for s in d.subjects
            if any(o.dept in descendants.get(s.dept, set())
                   for o in d.subjects if o.name != s.name)}


def random_contexts(rng: random.Random, d: Dataset) -> dict[str, SessionContext]:
    """Reported context per subject: none / wired / wireless variants."""
    has_subordinates = _managers(d)
    out: dict[str, SessionContext] = {}
    for s in d.subjects:
        roll = rng.random()
        if roll < 0.15:
            continue  # no session
        wireless_allowed = s.name not in has_subordinates and d.carriers
        if not wireless_allowed or roll < 0.40:
            out[s.name] = open_session(s.name, None, None, d,
                                       session_id=f"t-{s.id}", opened_at=BASE_TIME)
            continue
        assigned = [d.carrier_by_id[a.carrier_id] for a in d.assignments_of(s.id)]
        carrier = rng.choice(assigned) if assigned else rng.choice(list(d.carriers))
        if roll < 0.72:  # on route, in window
            loc, t = _route_point(rng, carrier), _window_time(rng, carrier)
        elif roll < 0.85:  # in window, far away
            loc, t = _far_point(rng, d), _window_time(rng, carrier)
        elif roll < 0.93 and len(d.carriers) > 1:
            # crossed report: position near one carrier, time taken from
            # another's window (the subject's own other carrier when it has
            # one) and outside its own; only a jointly satisfying carrier
            # may grant
            others = [c for c in assigned if c.id != carrier.id] \
                or [c for c in d.carriers if c.id != carrier.id]
            other = rng.choice(others)
            loc, t = _route_point(rng, carrier), _crossed_time(rng, other, carrier)
        else:  # on route, after every window
            loc = _route_point(rng, carrier)
            t = max(c.arrival for c in d.carriers) + timedelta(days=rng.randint(1, 5))
        out[s.name] = open_session(s.name, loc, t, d,
                                   session_id=f"t-{s.id}", opened_at=t)
    return out


def crossed_contexts(rng: random.Random, d: Dataset) -> dict[str, SessionContext]:
    """A crossed report for every subject assigned to two distinct carriers:
    on one carrier's route, at a time in the other's window."""
    out: dict[str, SessionContext] = {}
    for s in d.subjects:
        assigned = list({a.carrier_id: d.carrier_by_id[a.carrier_id]
                         for a in d.assignments_of(s.id)}.values())
        if len(assigned) < 2:
            continue
        carrier, other = rng.sample(assigned, 2)
        t = _crossed_time(rng, other, carrier)
        out[s.name] = open_session(s.name, _route_point(rng, carrier), t, d,
                                   session_id=f"x-{s.id}", opened_at=t)
    return out


def _stamp(t) -> str:
    return t.isoformat().replace("+00:00", "Z")


def random_scenario(rng: random.Random, d: Dataset) -> dict:
    """A scenario document over d that replays without a refusal.

    Its steps log subjects in, move them (onto a route point, or far from
    every route, at a clock that runs from before the first departure to
    after the last arrival, so that a report falls in, out of or across
    windows), join and leave carriers (a leave may take a subject's last
    carrier), hand objects over between carriers and query. As randgen's
    contexts do, only subjects without subordinates move. Stamps never fall
    in replay order and often repeat; the blocks of equal stamps are then
    shuffled in file order half the time, so the file may go back in time.
    """
    managers = _managers(d)
    movers = [s.name for s in d.subjects if s.name not in managers]
    names = [s.name for s in d.subjects]
    ids = {s.name: s.id for s in d.subjects}
    carriers = list(d.carriers)
    assigned = [(a.subject_id, a.carrier_id) for a in d.assignments]
    on = {o.oid: o.carrier_id for o in d.objects}
    logged_in: list[str] = []
    start = BASE_TIME - timedelta(days=1)
    end = max((c.arrival for c in carriers), default=BASE_TIME) + timedelta(days=2)
    hop = int((end - start).total_seconds()) // 8
    t = start
    steps = []
    for _ in range(rng.randint(1, 24)):
        if rng.random() < 0.75:
            t += timedelta(seconds=rng.randint(1, hop))
        kinds = ["login", "move"] * 2 if movers else ["login"]
        kinds += ["query"] * 2 if logged_in else []
        kinds += ["join", "handover"] if carriers else []
        kinds += ["leave"] if assigned else []
        kind = rng.choice(kinds)
        step = {"at": _stamp(t), "action": kind}
        if kind == "login":
            step["subject"] = rng.choice(names)
            if step["subject"] not in logged_in:
                logged_in.append(step["subject"])
        elif kind == "move":
            step["subject"] = rng.choice(movers)
            own = [c for c in carriers if (ids[step["subject"]], c.id) in assigned]
            if carriers and rng.random() < 0.75:
                point = _route_point(rng, rng.choice(own or carriers))
            else:
                point = _far_point(rng, d)
            step["lat"], step["lon"] = point
        elif kind == "query":
            step.update(subject=rng.choice(logged_in), text="select * from object",
                        mode=rng.choice(("workflow", "specialty", "direct")))
        elif kind == "join":
            step.update(subject=rng.choice(names), carrier=rng.choice(carriers).id)
            assigned.append((ids[step["subject"]], step["carrier"]))
        elif kind == "leave":
            subject_id, carrier_id = rng.choice(assigned)
            step.update(subject=next(n for n in names if ids[n] == subject_id), carrier=carrier_id)
            assigned = [pair for pair in assigned if pair != (subject_id, carrier_id)]
        else:  # handover
            source, target = rng.choice(carriers).id, rng.choice(carriers).id
            held = [oid for oid, cid in on.items() if cid == source]
            moved = rng.sample(held, rng.randint(0, len(held)))
            on.update((oid, target) for oid in moved)
            step.update({"objects": moved, "from": source, "to": target})
        steps.append(step)
    blocks: dict[str, list[dict]] = {}
    for step in steps:
        blocks.setdefault(step["at"], []).append(step)
    order = list(blocks)
    if rng.random() < 0.5:
        rng.shuffle(order)
    return {"name": "random", "steps": [step for stamp in order for step in blocks[stamp]]}
