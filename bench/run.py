"""End-to-end and per-layer benchmark of vpdgate.

    python3 bench/run.py --workload field_queries --seed 1 --seconds 20 --trace 0

Generates seeded synthetic inputs (bench/gen.py), loads them the way the
CLI does, and drives one workload through the public API as a closed loop:
one client, no threads, each request sent when the previous one returned.
Outputs are checked against the brute-force oracle and the bundled golden
event log outside the timed region.

--trace 0 reports the end-to-end metrics. --trace 1 runs a fixed request
set once untraced and once with timing wrappers around the program's
public functions (bench/spans.py), reports the per-layer metrics, and
writes the spans to bench/out/<workload>-<seed>/spans.jsonl.gz.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
See bench/README.md for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "vpdgate").is_dir():
    sys.exit(f"no src/vpdgate beside {BENCH_DIR.name}/: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from vpdgate import engine, lifecycle, oracle, relstore, sessionctx, simharness  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("field_queries", "supervisor_queries", "fleet_replay")

SETUP_REPEATS = 5
# A p95 is reported from at least 200 completed requests, so that ten
# samples lie beyond it; a query run measures until both --seconds have
# passed and this many requests completed, capped so it ends in time.
MIN_LATENCY_SAMPLES = 200
MAX_MEASURE_S = 140.0

STAR = "select * from object"
COND = "select oid, name from object where name = '{}'"

WIRED_AT = datetime(2010, 8, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Request:
    subject: str
    tier: str  # "field" or "manager<k>", k = org tier (0 is the root)
    ctx: sessionctx.SessionContext
    chain: str
    cond: str | None = None  # goods name of the user condition, if any
    supervisor_mode: str = "narrative"
    contexts: dict | None = None
    explain: bool = False

    @property
    def text(self) -> str:
        return COND.format(self.cond) if self.cond else STAR


def serve(d, req: Request):
    kwargs = dict(chain_mode=req.chain, supervisor_mode=req.supervisor_mode,
                  contexts=req.contexts)
    if req.explain:
        return engine.explain(d, req.ctx, req.text, **kwargs)
    return engine.run_query(d, req.ctx, req.text, **kwargs)


# ---------------------------------------------------------------------------
# Request streams (built from the seed, outside the timed region)
# ---------------------------------------------------------------------------

def _carriers_of(d) -> dict[str, list]:
    out: dict[str, list] = {}
    for a in d.assignments:
        out.setdefault(a.subject_id, []).append(d.carrier_by_id[a.carrier_id])
    return out


def _in_window(rng: random.Random, c) -> datetime:
    return c.departure + (c.arrival - c.departure) * rng.random()


def _on_route(rng: random.Random, c):
    return gen.route_point(c.waypoints, rng.random())


def _report(rng: random.Random, kind: str, carriers: list):
    """(location, time) of a field report of the given kind."""
    c = rng.choice(carriers)
    if kind == "on":
        return _on_route(rng, c), _in_window(rng, c)
    if kind == "off":
        return gen.off_route_point(_on_route(rng, c)), _in_window(rng, c)
    if kind == "late":
        last = max(x.arrival for x in carriers)
        return _on_route(rng, c), last + timedelta(days=rng.randint(1, 5))
    a, b = carriers[0], carriers[1]  # crossed: a's route during b's window
    return _on_route(rng, a), _in_window(rng, b)


def _deck(rng: random.Random, items: list):
    """Endless draws in shuffled rounds of items, so every round keeps its proportions."""
    while True:
        round_ = list(items)
        rng.shuffle(round_)
        yield from round_


def _disjoint(a, b) -> bool:
    return a.arrival < b.departure or b.arrival < a.departure


def field_requests(d, rng: random.Random, count: int = 4000) -> list[Request]:
    carriers = _carriers_of(d)
    staff = [s for s in d.subjects if s.id in carriers]
    crossable = [s for s in staff
                 if len(carriers[s.id]) == 2 and _disjoint(*carriers[s.id])]
    kinds = _deck(rng, ["on"] * 14 + ["off"] * 2 + ["late"] * 2 + ["crossed"] * 2)
    chains = _deck(rng, ["workflow"] * 10 + ["specialty"] * 5 + ["direct"] * 5)
    conds = _deck(rng, [False] * 12 + [True] * 8)
    out = []
    for i in range(count):
        kind = next(kinds)
        subj = rng.choice(crossable if kind == "crossed" else staff)
        loc, t = _report(rng, kind, carriers[subj.id])
        ctx = sessionctx.open_session(subj.name, loc, t, d, session_id=f"f{i}", opened_at=t)
        out.append(Request(subj.name, "field", ctx, next(chains),
                           cond=rng.choice(gen.GOODS) if next(conds) else None))
    return out


def managers_by_tier(d) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for s in d.subjects:
        if s.title.startswith("Manager"):
            out.setdefault("manager" + s.title[len("Manager"):], []).append(s.name)
    return out


def contexts_map(d, rng: random.Random, carriers: dict) -> dict:
    """Reported contexts of the field staff; some are known-invalid, some absent."""
    out = {}
    for s in d.subjects:
        if s.id not in carriers:
            continue
        roll = rng.random()
        if roll < 0.15:
            continue
        kind = "on" if roll < 0.75 else "off" if roll < 0.9 else "late"
        loc, t = _report(rng, kind, carriers[s.id])
        out[s.name] = sessionctx.open_session(s.name, loc, t, d, session_id=f"c-{s.id}",
                                              opened_at=t)
    return out


# What each manager tier asks, in this fixed order, round after round:
# (chain, user condition?, via explain?, supervisor mode). The order is
# fixed so that the first few hundred requests of every run hold the same
# mix. Strict requests keep every subordinate, so their cost does not
# depend on the contexts map. Across all tiers the median then falls inside
# the leaf tier's three direct strict requests, and the p95 inside the mid
# tier's three direct strict requests (above them are only the root's
# successful narrative requests and the mid tier's one `select *`), not on
# an edge between two groups of different cost.
SUPERVISOR_ROUND = (
    ("workflow", True, False, "narrative"),
    ("workflow", True, True, "narrative"),
    ("workflow", True, False, "strict"),
    ("direct", True, False, "strict"),
    ("direct", True, False, "strict"),
    ("direct", True, False, "strict"),
    ("workflow", False, False, "strict"),
    ("workflow", True, False, "strict"),
)


def supervisor_requests(d, rng: random.Random, cycles: int = 40) -> list[Request]:
    """Every manager once per cycle, in a seeded order; root included at full size."""
    carriers = _carriers_of(d)
    maps = [contexts_map(d, rng, carriers) for _ in range(3)]
    tiers = managers_by_tier(d)
    asked = Counter()
    everyone = sorted((name, tier) for tier, names in tiers.items() for name in names)
    out = []
    for _ in range(cycles):
        order = list(everyone)
        rng.shuffle(order)
        for name, tier in order:
            chain, cond, explain, mode = SUPERVISOR_ROUND[asked[tier] % len(SUPERVISOR_ROUND)]
            asked[tier] += 1
            ctx = sessionctx.open_session(name, None, None, d, session_id=f"s{len(out)}",
                                          opened_at=WIRED_AT)
            out.append(Request(name, tier, ctx, chain,
                               cond=rng.choice(gen.GOODS) if cond else None,
                               supervisor_mode=mode, contexts=maps[len(out) % len(maps)],
                               explain=explain))
    return out


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def warm_up(d, workload: str) -> None:
    """Requests that fill the Dataset's lazy caches before timing starts."""
    carriers = _carriers_of(d)
    subj = next(s for s in d.subjects if s.id in carriers)
    c = carriers[subj.id][0]
    t = c.departure + (c.arrival - c.departure) / 2
    ctx = sessionctx.open_session(subj.name, c.waypoints[0], t, d, session_id="warm-field",
                                  opened_at=t)
    engine.run_query(d, ctx, STAR)
    if workload != "field_queries":
        leaf_tier = max(managers_by_tier(d).items())[1]
        ctx = sessionctx.open_session(leaf_tier[0], None, None, d, session_id="warm-mgr",
                                      opened_at=WIRED_AT)
        engine.run_query(d, ctx, COND.format(gen.GOODS[0]))


def set_up(workload: str, paths: dict) -> tuple:
    """Load the inputs SETUP_REPEATS times; returns the last load and the timings."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        d = relstore.load_dataset(paths["dataset"])
        sc = simharness.load_scenario(paths["scenario"]) if "scenario" in paths else None
        warm_up(d, workload)
        times.append(time.perf_counter() - t0)
    return d, sc, times


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """What one pass over a workload did."""

    attempted: int = 0
    seconds: float = 0.0
    # seconds per completed request; for replays, per step of each replay
    latencies: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    first_error: str = ""
    kept: dict = field(default_factory=dict)  # request index -> output, for the gate
    logs: list = field(default_factory=list)  # rendered event log of each replay
    steps: int = 0


def run_queries(d, requests: list, *, keep: set, seconds: float | None = None,
                count: int | None = None, tracer=None) -> Pass:
    """Serve requests in order (cycling) until the time or count target is met."""
    out = Pass()
    start = time.perf_counter()
    n = 0
    while True:
        req = requests[n % len(requests)]
        if tracer is not None:
            tracer.request = n
        t0 = time.perf_counter()
        try:
            result = serve(d, req)
        except Exception as exc:  # a failed request is counted, not fatal
            t1 = time.perf_counter()
            out.failures[f"{type(exc).__name__}@{req.tier}"] += 1
            if not out.first_error:
                out.first_error = traceback.format_exception_only(exc)[-1].strip()[:200]
        else:
            t1 = time.perf_counter()
            out.latencies.append(t1 - t0)
            if n in keep:
                out.kept[n] = result
        n += 1
        elapsed = t1 - start
        if count is not None:
            if n >= count:
                break
        elif elapsed >= MAX_MEASURE_S or (
                elapsed >= seconds and len(out.latencies) >= MIN_LATENCY_SAMPLES):
            break
    if tracer is not None:
        tracer.request = -1
    out.attempted, out.seconds = n, elapsed
    return out


def run_replays(d, sc, *, seconds: float | None = None, count: int | None = None,
                tracer=None) -> Pass:
    """Replay the scenario from the loaded dataset until the time or count target is met."""
    out = Pass()
    start = time.perf_counter()
    n = 0
    while True:
        if tracer is not None:
            tracer.request = n
        t0 = time.perf_counter()
        try:
            result = simharness.run_scenario(sc, d, supervisor_mode="narrative")
        except Exception as exc:
            t1 = time.perf_counter()
            out.failures[type(exc).__name__] += 1
            out.first_error = out.first_error or str(exc)[:200]
        else:
            t1 = time.perf_counter()
            out.latencies.append((t1 - t0) / len(sc.steps))
            out.steps += len(sc.steps)
            out.logs.append(lifecycle.render_event_log(result.events))
            out.kept = {"final": result}
        n += 1
        elapsed = t1 - start
        if (n >= count) if count is not None else elapsed >= seconds:
            break
    if tracer is not None:
        tracer.request = -1
    out.attempted, out.seconds = n, elapsed
    return out


def rank_of(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    return max(1, math.ceil(n * q / 100))


def end_to_end(p: Pass, setup_times: list) -> dict:
    lat_ms = sorted(x * 1000 for x in p.latencies)
    completed = p.steps or len(p.latencies)  # replayed steps, or completed requests
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p95_ms": lat_ms[rank_of(len(lat_ms), 95) - 1],
        "throughput_ops_s": completed / p.seconds,
        "success_rate": len(p.latencies) / p.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def returned_oids(outcome) -> set:
    return set(outcome.rows.column("object.oid"))


def expected_oids(d, req: Request) -> set:
    permitted, _ = oracle.brute_force_accessible(req.subject, req.ctx, d, req.chain,
                                                 req.supervisor_mode, req.contexts)
    if req.cond:
        permitted = {oid for oid in permitted if d.object_by_id[oid].name == req.cond}
    return permitted


def check_queries(d, requests: list, kept: dict) -> list[str]:
    problems = []
    for n, result in sorted(kept.items()):
        req = requests[n % len(requests)]
        if req.explain:
            outcome = serve(d, replace(req, explain=False))
            if f"verdict: {outcome.state.state} " not in result \
                    or not result.startswith(f"subject: {req.subject}\n"):
                problems.append(f"request {n}: explain text disagrees with run_query")
        else:
            outcome = result
        if returned_oids(outcome) != expected_oids(d, req):
            problems.append(f"request {n} ({req.subject}, {req.chain}, "
                            f"{req.supervisor_mode}): rows differ from the oracle")
    return problems


def gate_sample(requests: list, rng: random.Random, workload: str) -> set:
    """Seeded request indices whose outputs the gate compares with the oracle."""
    if workload == "field_queries":
        return set(rng.sample(range(500), 40))
    window = range(2 * len(subjects_in(requests)))
    eligible = [n for n in window if requests[n].tier != "manager0"]
    picked = set(rng.sample(eligible, 6))
    picked.add(next(n for n in eligible if requests[n].tier == "manager1"))
    return picked


def subjects_in(requests: list) -> set:
    return {r.subject for r in requests}


def final_state_problems(sc, result) -> list[str]:
    """Each final grant state against the oracle, under the last reported contexts."""
    d = result.dataset
    now = max(step.at for step in sc.steps)
    positions = {}
    for step in sorted(sc.steps, key=lambda s: s.at):
        if step.action == "move":
            positions[step.subject] = step.location
    carriers = _carriers_of(d)
    problems = []
    for subject, state in result.final_states.items():
        pos = positions.get(subject)
        ctx = sessionctx.open_session(subject, pos, now if pos is not None else None, d,
                                      session_id="gate", opened_at=now)
        permitted, _ = oracle.brute_force_accessible(subject, ctx, d)
        subj = d.subject_by_name[subject]
        if ctx.wireless:
            own = {o.oid for o in d.objects
                   if o.carrier_id in {c.id for c in carriers.get(subj.id, ())}}
            if not own:
                continue  # an empty view cannot tell granted from refused
            expected = permitted == own
        else:
            expected = bool(permitted)
        if state.valid != expected:
            problems.append(f"final state of {subject} is {state.state}, oracle disagrees")
    return problems


def golden_problems() -> list[str]:
    """Replay the bundled handover scenario; its log must match the golden byte for byte."""
    sc = simharness.load_scenario(
        relstore.bundled_data_dir("scenarios") / "ship_truck_handover.json")
    result = simharness.run_scenario(sc, relstore.load_bundled("handover"))
    golden = (ROOT / "tests" / "goldens" / "handover_events.jsonl").read_text()
    if lifecycle.render_event_log(result.events) != golden:
        return ["bundled handover replay differs from tests/goldens/handover_events.jsonl"]
    return []


def declared_metrics_problems(metrics: dict, trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = [f"metric {name} declared but not emitted" for name in declared
                if name not in metrics]
    problems += [f"metric {name} emitted but not declared" for name in metrics
                 if name not in declared]
    problems += [f"metric {name} has unit {metrics[name]['unit']}, declared {unit}"
                 for name, unit in declared.items()
                 if name in metrics and metrics[name]["unit"] != unit]
    return problems


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
             "throughput_ops_s": "1/s", "success_rate": "ratio", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", ".useful_ratio")):
        return "ratio"
    for per in ("_per_call", "_per_step", "_per_request"):
        if name.endswith(per):
            return "count/" + per[len("_per_"):]
    return "count"


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: str, seed: int) -> dict:
    work = BENCH_DIR / "out" / f"{workload}-{seed}"
    cmd = [sys.executable, str(BENCH_DIR / "gen.py"), "--seed", str(seed),
           "--out-dir", str(work)]
    if workload == "fleet_replay":
        cmd.append("--fleet")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    paths = {"dataset": work / "dataset.json", "work": work}
    if workload == "fleet_replay":
        paths["scenario"] = work / "fleet.json"
    return paths


def trace_count(workload: str, seconds: int, requests: list) -> int:
    """Fixed size of the traced request set, so its counts repeat exactly."""
    if workload == "field_queries":
        return 100 * seconds
    if workload == "supervisor_queries":
        return len(subjects_in(requests)) * max(1, round(seconds / 10))
    return max(1, seconds // 20)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload, replay = args.workload, args.workload == "fleet_replay"

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "seed": args.seed, "workload": workload, "seconds": args.seconds,
           "trace": args.trace, "dataset": asdict(gen.DatasetParams())}
    if replay:
        env["fleet"] = asdict(gen.FleetParams())
    print("env:", json.dumps(env))

    paths = generate(workload, args.seed)
    digests = {"dataset_sha256": sha256_file(paths["dataset"])}
    if replay:
        digests["scenario_sha256"] = sha256_file(paths["scenario"])
    print("inputs:", json.dumps(digests))

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    d, sc, setup_times = set_up(workload, paths)
    if tracer is not None:
        tracer.uninstall()
    print("setup_s samples:", [round(t, 4) for t in setup_times])

    problems: list[str] = []
    rng = random.Random(f"requests:{args.seed}")
    if replay:
        report = simharness.validate_scenario(sc, d)
        problems += [f"scenario: {v}" for v in report]
        requests, keep = None, set()
    else:
        requests = (field_requests if workload == "field_queries"
                    else supervisor_requests)(d, rng)
        keep = gate_sample(requests, rng, workload)

    def measure(**kw) -> Pass:
        if replay:
            return run_replays(d, sc, **kw)
        return run_queries(d, requests, keep=keep, **kw)

    if args.trace:
        count = trace_count(workload, args.seconds, requests)
        measure(count=count)  # discarded: the first pass runs slower
        plain = measure(count=count)
        tracer.install()
        traced = measure(count=count, tracer=tracer)
        tracer.uninstall()
        if traced.failures != plain.failures:
            problems.append(f"traced failures {dict(traced.failures)} differ from "
                            f"untraced {dict(plain.failures)}")
        if traced.logs != plain.logs:
            problems.append("the traced replay logged other events than the untraced one")
        values = tracer.metrics()
        values["trace.overhead_ratio"] = traced.seconds / plain.seconds
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        trace_path = paths["work"] / "spans.jsonl.gz"
        tracer.write(trace_path)
        print(f"trace: {len(tracer)} spans written to {trace_path.relative_to(ROOT)}")
        result = traced
    else:
        result = measure(seconds=args.seconds)
        values = end_to_end(result, setup_times)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        beyond = len(result.latencies) - rank_of(len(result.latencies), 95)
        print(f"samples: {len(result.latencies)} completed of {result.attempted} attempted "
              f"in {result.seconds:.2f} s; {beyond} beyond p95"
              + ("" if beyond >= 10 else " (too few for a valid p95)"))

    print("failures:", json.dumps(dict(result.failures)),
          result.first_error and f"first: {result.first_error}")

    if replay:
        if result.logs:
            digest = hashlib.sha256(result.logs[0].encode()).hexdigest()
            print("fleet event log sha256:", digest)
            if any(log != result.logs[0] for log in result.logs):
                problems.append("fleet replays produced different event logs")
            problems += final_state_problems(sc, result.kept["final"])
        else:
            problems.append("no fleet replay completed")
    else:
        problems += check_queries(d, requests, result.kept)
        print(f"oracle: {len(result.kept)} sampled outputs compared")
    problems += golden_problems()
    problems += declared_metrics_problems(metrics, args.trace)
    for p in problems:
        print("MISMATCH:", p)

    print(json.dumps({"correct": not problems, "attempted": result.attempted,
                      "failed": sum(result.failures.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
