"""Run-time timing wrappers around the program's public functions.

A Tracer replaces each listed function, at every vpdgate module attribute
that refers to it, with a wrapper that records one span per call: name,
start, end, parent span, request id, the exception type when the call
raised, and a small per-function annotation (rows returned, branches,
verdict, events). Spans are kept in flat arrays while the run goes and
written out as JSON lines when it ends. Nothing in the program changes;
uninstall() puts the original functions back.

A wrapper adds one interpreter frame per traced call. Recursive calls
(the UNION evaluator) would then hit Python's recursion limit at half
the depth they reach untraced, so the wrapper raises the limit by one
for every traced frame on the stack: a request fails traced exactly
where it fails untraced.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter_ns

from vpdgate import engine, geo, lifecycle, linkage, queryir, relstore, sessionctx, \
    simharness, vpdrewrite

# (module, attribute, metric prefix); Dataset.table is a method.
TRACED = (
    (relstore, "load_dataset", "relstore.load_dataset"),
    (relstore.Dataset, "table", "relstore.table"),
    (queryir, "parse_query", "queryir.parse_query"),
    (queryir, "evaluate", "queryir.evaluate"),
    (queryir, "render_query", "queryir.render_query"),
    (sessionctx, "open_session", "sessionctx.open_session"),
    (geo, "polyline_distance_km", "geo.polyline_distance_km"),
    (linkage, "location_range", "linkage.location_range"),
    (linkage, "workflow", "linkage.workflow"),
    (linkage, "subordinates", "linkage.subordinates"),
    (linkage, "sub_ou_levels", "linkage.sub_ou_levels"),
    (linkage, "supervisors", "linkage.supervisors"),
    (lifecycle, "check_validity", "lifecycle.check_validity"),
    (lifecycle, "on_context_update", "lifecycle.on_context_update"),
    (lifecycle, "build_vpd", "lifecycle.build_vpd"),
    (vpdrewrite, "rewrite", "vpdrewrite.rewrite"),
    (vpdrewrite, "expand_supervisor", "vpdrewrite.expand_supervisor"),
    (vpdrewrite, "materialize", "vpdrewrite.materialize"),
    (vpdrewrite, "subordinate_known_invalid", "vpdrewrite.subordinate_known_invalid"),
    (vpdrewrite, "entails", "vpdrewrite.entails"),
    (engine, "run_query", "engine.run_query"),
    (engine, "explain", "engine.explain"),
    (simharness, "load_scenario", "simharness.load_scenario"),
    (simharness, "run_scenario", "simharness.run_scenario"),
)

NAMES = tuple(prefix for _, _, prefix in TRACED)

# Functions whose spans report how many ended by an exception.
CAN_FAIL = ("relstore.load_dataset", "queryir.parse_query", "queryir.evaluate",
            "queryir.render_query", "vpdrewrite.materialize", "engine.run_query",
            "engine.explain", "simharness.load_scenario", "simharness.run_scenario")


def union_branches(q) -> list:
    """Select branches of a (left-deep) UNION tree, without recursion."""
    out, stack = [], [q]
    while stack:
        node = stack.pop()
        if isinstance(node, queryir.Union):
            stack += [node.right, node.left]
        else:
            out.append(node)
    return out


def _dropped(vpd) -> int:
    for tag in vpd.provenance:
        if tag.startswith("dropped-invalid:"):
            return len(tag.split(":", 1)[1].split(","))
    return 0


# Per-function annotation: (args, result) -> (value, extra) stored with the span.
ANNOTATE = {
    "queryir.evaluate": lambda args, out: (len(out.rows), 0),
    "vpdrewrite.expand_supervisor":
        lambda args, out: (len(union_branches(out.query)), _dropped(out)),
    "engine.run_query": lambda args, out: (int(out.state.valid), 0),
    "lifecycle.on_context_update": lambda args, out: (len(out[1]), 0),
    "simharness.run_scenario": lambda args, out: (len(args[0].steps), 0),
}

# Span flags: the evaluated query is a UNION; a span of the same function
# is already open below this one (its time is not added to busy time again).
UNION = 1
NESTED = 2

NO_PARENT = -1


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.request = -1  # id of the request being served; -1 is set-up
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.req = array("i")
        self.flags = array("b")
        self.value = array("q")
        self.extra = array("q")
        self.failed: dict[int, str] = {}
        self._stack: list[int] = []
        self._active = [0] * len(NAMES)
        self._originals: list[tuple[object, str, object]] = []
        self._base_limit = sys.getrecursionlimit()

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, fn, nid: int, name: str):
        tracer = self
        stack = self._stack
        active = self._active
        annotate = ANNOTATE.get(name)
        is_evaluate = name == "queryir.evaluate"
        base = self._base_limit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            flags = NESTED if active[nid] else 0
            if is_evaluate and isinstance(args[0], queryir.Union):
                flags |= UNION
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else NO_PARENT)
            tracer.req.append(tracer.request)
            tracer.flags.append(flags)
            tracer.value.append(0)
            tracer.extra.append(0)
            tracer.end.append(0)
            stack.append(idx)
            active[nid] += 1
            sys.setrecursionlimit(base + len(stack))
            tracer.start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.failed[idx] = type(exc).__name__
                raise
            finally:
                tracer.end[idx] = perf_counter_ns()
                stack.pop()
                active[nid] -= 1
                try:
                    sys.setrecursionlimit(base + len(stack))
                except RecursionError:
                    pass  # still unwinding too deep; an outer frame lowers it
            if annotate is not None:
                tracer.value[idx], tracer.extra[idx] = annotate(args, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "vpdgate" or key.startswith("vpdgate.")]
        for nid, (owner, attr, name) in enumerate(TRACED):
            original = getattr(owner, attr)
            wrapper = self._wrap(original, nid, name)
            homes = [owner] if isinstance(owner, type) else modules
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        self._originals.append((home, key, original))
                        setattr(home, key, wrapper)

    def uninstall(self) -> None:
        for home, key, original in reversed(self._originals):
            setattr(home, key, original)
        self._originals.clear()
        sys.setrecursionlimit(self._base_limit)

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines: one object per span, in call order."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self)):
                fh.write(json.dumps({
                    "id": i, "name": NAMES[self.name_id[i]],
                    "start_ns": self.start[i], "end_ns": self.end[i],
                    "parent": self.parent[i], "request": self.req[i],
                    "union": bool(self.flags[i] & UNION),
                    "value": self.value[i], "extra": self.extra[i],
                    "failed": self.failed.get(i),
                }, separators=(",", ":")))
                fh.write("\n")

    def metrics(self) -> dict[str, float]:
        """Per-function calls, busy and self time, failures, plus derived ratios."""
        n = len(self)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                child_ns[p] += duration[i]

        calls = [0] * len(NAMES)
        busy = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        failed = [0] * len(NAMES)
        evaluate = NAMES.index("queryir.evaluate")
        select_self = union_self = 0
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            own = duration[i] - child_ns[i]
            self_ns[nid] += own
            if i in self.failed:
                failed[nid] += 1
            if not self.flags[i] & NESTED:
                busy[nid] += duration[i]
            if nid == evaluate:
                if self.flags[i] & UNION:
                    union_self += own
                else:
                    select_self += own

        out: dict[str, float] = {}
        for nid, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.busy_ms"] = busy[nid] / 1e6
            out[f"{name}.self_ms"] = self_ns[nid] / 1e6
            if name in CAN_FAIL:
                out[f"{name}.failed"] = failed[nid]
        out["queryir.evaluate.select_self_ms"] = select_self / 1e6
        out["queryir.evaluate.union_self_ms"] = union_self / 1e6
        out.update(self._derived())
        return out

    def _derived(self) -> dict[str, float]:
        n = len(self)
        nid = {name: i for i, name in enumerate(NAMES)}
        evaluate = nid["queryir.evaluate"]

        # UNION useful ratio: rows a top-level UNION returns over the rows its
        # Select branches produced.
        returned = produced = 0
        for i in range(n):
            if self.name_id[i] != evaluate or i in self.failed:
                continue
            p = self.parent[i]
            parent_is_eval = p != NO_PARENT and self.name_id[p] == evaluate
            if self.flags[i] & UNION:
                if not parent_is_eval:
                    returned += self.value[i]
            elif parent_is_eval and self.flags[p] & UNION:
                produced += self.value[i]

        # Requests: verdict of the outermost run_query span, materialize calls.
        requests: set[int] = set()
        verdict: dict[int, int] = {}
        materialized: dict[int, int] = {}
        branches = dropped = expansions = 0
        steps = events = 0
        for i in range(n):
            r = self.req[i]
            if r >= 0:
                requests.add(r)
            name = self.name_id[i]
            if name == nid["engine.run_query"] and i not in self.failed:
                verdict.setdefault(r, self.value[i])
            elif name == nid["vpdrewrite.materialize"]:
                materialized[r] = materialized.get(r, 0) + 1
            elif name == nid["vpdrewrite.expand_supervisor"] and i not in self.failed:
                expansions += 1
                branches += self.value[i]
                dropped += self.extra[i]
            elif name == nid["simharness.run_scenario"]:
                steps += self.value[i]
            elif name == nid["lifecycle.on_context_update"] and i not in self.failed:
                events += self.value[i]
        refused = [r for r, valid in verdict.items() if r >= 0 and not valid]
        evaluate_calls = sum(1 for i in range(n) if self.name_id[i] == evaluate
                             and self.req[i] >= 0)
        updates = sum(1 for i in range(n)
                      if self.name_id[i] == nid["lifecycle.on_context_update"])

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "queryir.union.useful_ratio": ratio(returned, produced),
            "queryir.evaluate.calls_per_request": ratio(evaluate_calls, len(requests)),
            "engine.refused_requests": len(refused),
            "engine.refused_materialize_ratio":
                ratio(sum(materialized.get(r, 0) for r in refused), len(refused)),
            "vpdrewrite.expand_supervisor.branches_per_call": ratio(branches, expansions),
            "vpdrewrite.expand_supervisor.dropped_per_call": ratio(dropped, expansions),
            "simharness.run_scenario.steps": steps,
            "lifecycle.on_context_update.calls_per_step": ratio(updates, steps),
            "lifecycle.on_context_update.events_per_step": ratio(events, steps),
            "trace.spans": n,
        }
