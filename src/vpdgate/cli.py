"""Command-line front end.

Thin adapter over the library: load/validate datasets, open sessions,
run rewritten queries, inspect VPDs, run scenarios, print derivation
traces. Sessions persist in a JSON state file next to the data (or
wherever --state points), guarded by an advisory lock, so login and
query work across processes.

Exit codes: 0 success, 2 access refused (DENY/REVOKE verdict on a
well-formed command), 1 error.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from . import engine, lifecycle, linkage, oracle, relstore, simharness
from .errors import VpdGateError
from .queryir import render_query
from .sessionctx import SessionContext, latest_by_user, open_session
from .timeutil import format_timestamp, parse_timestamp

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUSED = 2

DATA_DIR_ENV = "VPDGATE_DATA"


def _state_path(args) -> Path:
    """--state, else a file inside the data directory or beside the data file."""
    if args.state:
        return Path(args.state)
    data = Path(args.data)
    if data.is_dir():
        return data / ".vpdgate-sessions.json"
    return data.with_name(f".{data.name}.vpdgate-sessions.json")


@contextmanager
def _locked_state(path: Path):
    """The session state under an exclusive lock, written back only if changed.

    The new state goes to a temporary file in the same directory that
    replaces the old one in a single rename, so a crash or an error while
    writing leaves the previous file whole.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    lock_path = path.with_suffix(path.suffix + ".lock")
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            try:
                state = json.loads(path.read_text()) if path.exists() else {}
            except ValueError as exc:
                raise VpdGateError(f"state file {path}: {exc}") from None
            if not (isinstance(state, dict)
                    and isinstance(state.setdefault("sessions", {}), dict)):
                raise VpdGateError(f"state file {path}: expected a JSON object whose "
                                   "sessions is an object")
            before = json.dumps(state, indent=2)
            yield state
            after = json.dumps(state, indent=2)
            if after != before:
                _replace_file(path, after)
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def _replace_file(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_data(args) -> relstore.Dataset:
    """Dataset per --data, with optional manifest / corridor overrides."""
    d = relstore.load_dataset(args.data)
    manifest = d.manifest
    if getattr(args, "manifest", None):
        manifest = relstore.SchemaManifest.from_dict(relstore.read_json(Path(args.manifest)))
    if getattr(args, "corridor_km", None) is not None:
        manifest = dataclasses.replace(manifest, corridor_km=args.corridor_km)
    if manifest is not d.manifest:
        d = dataclasses.replace(d, manifest=manifest)
    return d


def _session_to_dict(ctx: SessionContext) -> dict:
    return {
        "session_id": ctx.session_id,
        "user": ctx.user,
        "lat": ctx.location[0] if ctx.location else None,
        "lon": ctx.location[1] if ctx.location else None,
        "time": format_timestamp(ctx.timestamp) if ctx.timestamp else None,
        "opened_at": format_timestamp(ctx.opened_at),
    }


def _session_from_dict(sid: str, doc: dict, d: relstore.Dataset) -> SessionContext:
    """A stored session, checked as open_session checks a new one."""
    try:
        location = (doc["lat"], doc["lon"]) if doc.get("lat") is not None else None
        return open_session(doc["user"], location,
                            parse_timestamp(doc["time"]) if doc.get("time") else None, d,
                            session_id=doc["session_id"],
                            opened_at=parse_timestamp(doc["opened_at"]))
    except (KeyError, TypeError, ValueError, AttributeError, VpdGateError) as exc:
        raise VpdGateError(f"malformed session {sid!r} in the state file: "
                           f"{type(exc).__name__}: {exc}") from None


def _print_rows(rows, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"schema": list(rows.schema),
                          "rows": [list(r) for r in rows.sorted_rows()]}, indent=2))
        return
    print(" | ".join(rows.schema))
    for row in rows.sorted_rows():
        print(" | ".join("-" if v is None else str(v) for v in row))


def cmd_load(args) -> int:
    d = _load_data(args)
    report = relstore.validate_dataset(d)
    summary = {
        "subjects": len(d.subjects),
        "assignments": len(d.assignments),
        "carriers": len(d.carriers),
        "objects": len(d.objects),
        "org_edges": len(d.org_edges),
        "violations": [str(v) for v in report],
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_login(args) -> int:
    d = _load_data(args)
    location = None
    if (args.lat is None) != (args.lon is None):
        print("error: --lat and --lon must be given together", file=sys.stderr)
        return EXIT_ERROR
    if args.lat is not None:
        location = (args.lat, args.lon)
    timestamp = parse_timestamp(args.time) if args.time else None
    ctx = open_session(args.user, location, timestamp, d)
    with _locked_state(_state_path(args)) as state:
        state["sessions"][ctx.session_id] = _session_to_dict(ctx)
    print(ctx.session_id)
    return EXIT_OK


def _resolve_session(args, d) -> tuple[SessionContext, dict[str, SessionContext]]:
    with _locked_state(_state_path(args)) as state:
        sessions = {sid: _session_from_dict(sid, doc, d)
                    for sid, doc in state["sessions"].items()}
    by_user = latest_by_user(sessions.values())
    if getattr(args, "session", None):
        ctx = sessions.get(args.session)
        if ctx is None:
            raise VpdGateError(f"no such session: {args.session!r}")
    elif getattr(args, "subject", None):
        ctx = by_user.get(args.subject)
        if ctx is None:
            ctx = open_session(args.subject, None, None, d)
    else:
        raise VpdGateError("a session id or subject is required")
    return ctx, by_user


def cmd_query(args) -> int:
    d = _load_data(args)
    ctx, contexts = _resolve_session(args, d)
    outcome = engine.run_query(d, ctx, args.text, chain_mode=args.mode,
                               supervisor_mode=args.supervisor_mode, contexts=contexts)
    if args.format == "json":
        print(json.dumps({
            "rewritten": render_query(outcome.vpd.query),
            "verdict": outcome.state.state,
            "reason": outcome.state.reason,
            "schema": list(outcome.rows.schema),
            "rows": [list(r) for r in outcome.rows.sorted_rows()],
        }, indent=2))
    else:
        print(f"rewritten: {render_query(outcome.vpd.query)}")
        print(f"verdict: {outcome.state.state} ({outcome.state.reason})")
        _print_rows(outcome.rows, args.format)
    return EXIT_OK if outcome.state.valid else EXIT_REFUSED


def cmd_vpd(args) -> int:
    d = _load_data(args)
    ctx, contexts = _resolve_session(args, d)
    outcome = engine.run_query(d, ctx, chain_mode=args.mode,
                               supervisor_mode=args.supervisor_mode, contexts=contexts)
    state, vpd, rows = outcome.state, outcome.vpd, outcome.rows
    if args.format == "json":
        print(json.dumps({
            "subject": vpd.subject,
            "definition": render_query(vpd.query),
            "closed_form": render_query(vpd.closed_query) if vpd.expansion is not None else None,
            "location_dependent": vpd.location_dependent,
            "time_dependent": vpd.time_dependent,
            "provenance": list(vpd.provenance),
            "validity": state.state,
            "reason": state.reason,
            "rows": [list(r) for r in rows.sorted_rows()],
        }, indent=2))
    else:
        print(f"subject: {vpd.subject}")
        print(f"definition: {render_query(vpd.query)}")
        if vpd.expansion is not None:
            print(f"closed form: {render_query(vpd.closed_query)}")
        print(f"validity: {state.state} ({state.reason})")
        _print_rows(rows, args.format)
    return EXIT_OK if state.valid else EXIT_REFUSED


def cmd_simulate(args) -> int:
    d = _load_data(args)
    sc = simharness.load_scenario(args.scenario)
    # run_scenario replays steps in time order, so only the steps it
    # would refuse make the scenario invalid, not a time regression.
    refused = [v for v in simharness.validate_scenario(sc, d) if v.kind != "time-regression"]
    if refused:
        for v in refused:
            print(f"invalid scenario: {v}", file=sys.stderr)
        return EXIT_ERROR
    result = simharness.run_scenario(sc, d, supervisor_mode=args.mode)
    lifecycle.write_event_log(result.events, args.out)
    print(args.out)
    return EXIT_OK


def cmd_explain(args) -> int:
    d = _load_data(args)
    ctx, contexts = _resolve_session(args, d)
    print(engine.explain(d, ctx, args.text, chain_mode=args.mode,
                         supervisor_mode=args.supervisor_mode, contexts=contexts))
    return EXIT_OK


def cmd_oracle(args) -> int:
    d = _load_data(args)
    ctx, contexts = _resolve_session(args, d)
    ids, trace = oracle.brute_force_accessible(ctx.user, ctx, d, args.mode,
                                               args.supervisor_mode, contexts)
    if args.format == "json":
        print(json.dumps({
            "accessible": sorted(ids),
            "trace": [{"object": t.object_id, "permitted": t.permitted, "via": t.via}
                      for t in trace],
        }, indent=2))
    else:
        print(f"accessible: {sorted(ids)}")
        for t in trace:
            print(f"  {t.object_id}: {'yes via ' + t.via if t.permitted else 'no'}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for access
    refusals, so usage problems exit 1 like every other error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _add_common(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--data", default=os.environ.get(DATA_DIR_ENV),
                     help=f"dataset directory or JSON file (default: ${DATA_DIR_ENV})")
    cmd.add_argument("--state", default=None,
                     help="session state file (default: .vpdgate-sessions.json in a data "
                          "directory, .<file>.vpdgate-sessions.json beside a data file)")
    cmd.add_argument("--manifest", default=None,
                     help="schema manifest JSON overriding the dataset's own")
    cmd.add_argument("--corridor-km", type=float, default=None,
                     help="route corridor width override")
    cmd.add_argument("--format", choices=("table", "json"), default="table")


def _add_session_selector(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--session", default=None, help="session id from login")
    cmd.add_argument("--subject", default=None,
                     help="subject name (opens an ad-hoc wired session)")
    cmd.add_argument("--mode", choices=linkage.CHAIN_MODES,
                     default="workflow", help="chain mode")
    cmd.add_argument("--supervisor-mode", choices=linkage.SUPERVISOR_MODES,
                     default="narrative")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="vpdgate",
        description="Location/time-dependent virtual private databases over a "
                    "logistics dataset.")
    sub = parser.add_subparsers(dest="command", required=True)

    load = sub.add_parser("load", help="load and validate the dataset")
    _add_common(load)

    login = sub.add_parser("login", help="open a session, print its id")
    _add_common(login)
    login.add_argument("--user", required=True)
    login.add_argument("--lat", type=float, default=None)
    login.add_argument("--lon", type=float, default=None)
    login.add_argument("--time", default=None, help="ISO-8601 UTC timestamp")

    query = sub.add_parser("query", help="rewrite and run a query")
    _add_common(query)
    _add_session_selector(query)
    query.add_argument("text")

    vpd = sub.add_parser("vpd", help="show a subject's VPD definition and rows")
    _add_common(vpd)
    _add_session_selector(vpd)

    sim = sub.add_parser("simulate", help="run a scenario, write its event log")
    _add_common(sim)
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--mode", choices=linkage.SUPERVISOR_MODES, default="narrative",
                     help="supervisor mode")
    sim.add_argument("--out", required=True)

    explain = sub.add_parser("explain", help="print the rewrite derivation trace")
    _add_common(explain)
    _add_session_selector(explain)
    explain.add_argument("text")

    orc = sub.add_parser("oracle", help="brute-force accessibility (debugging)")
    _add_common(orc)
    _add_session_selector(orc)

    return parser


COMMANDS = {
    "load": cmd_load,
    "login": cmd_login,
    "query": cmd_query,
    "vpd": cmd_vpd,
    "simulate": cmd_simulate,
    "explain": cmd_explain,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.data:
        print("error: no data directory (--data or $VPDGATE_DATA)", file=sys.stderr)
        return EXIT_ERROR
    try:
        return COMMANDS[args.command](args)
    except (VpdGateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
