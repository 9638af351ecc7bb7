import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import engine, linkage, relstore
from vpdgate.cli import _locked_state, main
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import format_timestamp

from randgen import random_contexts, random_dataset

DATA = str(relstore.bundled_data_dir("logistics"))


@pytest.fixture()
def state_file(tmp_path):
    return str(tmp_path / "sessions.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_summary(capsys):
    code, out, _ = run(capsys, "load", "--data", DATA, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["subjects"] == 7 and doc["violations"] == []


def test_login_query_granted(capsys, state_file):
    code, out, _ = run(capsys, "login", "--data", DATA, "--state", state_file,
                       "--user", "Parker",
                       "--lat", "39.4731", "--lon", "-98.0592",
                       "--time", "2010-08-20T12:00:00Z")
    assert code == 0
    session_id = out.strip()

    code, out, _ = run(capsys, "query", "--data", DATA, "--state", state_file,
                       "--format", "json", "--session", session_id,
                       "select * from object")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "GRANTED"
    oids = sorted({row[0] for row in doc["rows"]})
    assert oids == ["o001", "o002", "o003", "o004"]
    assert doc["rewritten"].startswith("SELECT object.*")


def test_query_out_of_time_exits_2(capsys, state_file):
    _, out, _ = run(capsys, "login", "--data", DATA, "--state", state_file,
                    "--user", "Parker",
                    "--lat", "39.4731", "--lon", "-98.0592",
                    "--time", "2010-09-20T00:00:00Z")
    session_id = out.strip()
    code, out, _ = run(capsys, "query", "--data", DATA, "--state", state_file,
                       "--format", "json", "--session", session_id,
                       "select * from object")
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "REVOKED" and doc["reason"] == "out-of-time"
    assert doc["rows"] == []


def test_query_syntax_error_exits_1(capsys, state_file):
    _, out, _ = run(capsys, "login", "--data", DATA, "--state", state_file,
                    "--user", "Parker")
    session_id = out.strip()
    code, _, err = run(capsys, "query", "--data", DATA, "--state", state_file,
                       "--session", session_id, "select from object")
    assert code == 1
    assert "position" in err


def test_vpd_by_subject(capsys, state_file):
    code, out, _ = run(capsys, "vpd", "--data", DATA, "--state", state_file,
                       "--format", "json", "--subject", "Chris")
    assert code == 0
    doc = json.loads(out)
    assert doc["validity"] == "GRANTED"
    assert "UNION" in doc["definition"]
    assert doc["closed_form"] is not None
    oids = sorted({row[0] for row in doc["rows"]})
    assert oids == ["o001", "o002", "o003", "o004", "o005"]


def test_explain_trace(capsys, state_file):
    code, out, _ = run(capsys, "explain", "--data", DATA, "--state", state_file,
                       "--subject", "Peter", "--mode", "direct",
                       "select * from object")
    assert code == 0
    assert "verdict: GRANTED" in out
    assert "UNION" in out
    assert "injected predicates:" in out


def test_oracle_subcommand(capsys, state_file):
    code, out, _ = run(capsys, "oracle", "--data", DATA, "--state", state_file,
                       "--format", "json", "--subject", "Chris")
    assert code == 0
    doc = json.loads(out)
    assert doc["accessible"] == ["o001", "o002", "o003", "o004", "o005"]


def test_simulate_writes_log(capsys, tmp_path):
    scenario = relstore.bundled_data_dir("scenarios") / "ship_truck_handover.json"
    out_path = tmp_path / "events.jsonl"
    code, out, _ = run(capsys, "simulate",
                       "--data", str(relstore.bundled_data_dir("handover")),
                       "--scenario", str(scenario), "--out", str(out_path))
    assert code == 0
    assert out.strip() == str(out_path)
    lines = out_path.read_text().splitlines()
    assert json.loads(lines[0])["transition"] == "GRANT"


def test_simulate_invalid_scenario_exits_1_without_traceback(tmp_path):
    scenario = tmp_path / "half.json"
    scenario.write_text(json.dumps({"name": "half", "steps": [
        {"at": "2010-07-02T00:00:00Z", "action": "move", "subject": "Victor", "lat": 31.2}]}))
    src = str(Path(relstore.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "vpdgate.cli", "simulate",
         "--data", str(relstore.bundled_data_dir("handover")),
         "--scenario", str(scenario), "--out", str(tmp_path / "events.jsonl")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: step 0: lat and lon must be given together"]
    assert not (tmp_path / "events.jsonl").exists()


def test_simulate_replays_a_scenario_whose_only_violations_are_time_regressions(capsys,
                                                                                 tmp_path):
    handover = str(relstore.bundled_data_dir("handover"))
    logins = [{"at": "2010-07-02T01:30:00Z", "action": "login", "subject": "Zoe"},
              {"at": "2010-07-02T01:40:00Z", "action": "login", "subject": "Bruno"}]
    logs = []
    for name, steps in (("in-order", logins), ("reversed", logins[::-1])):
        scenario, out_path = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        scenario.write_text(json.dumps({"name": name, "steps": steps}))
        code, out, err = run(capsys, "simulate", "--data", handover,
                             "--scenario", str(scenario), "--out", str(out_path))
        assert (code, out.strip(), err) == (0, str(out_path), "")
        logs.append(out_path.read_text())
    assert logs[0] == logs[1]
    assert [json.loads(line)["subject"] for line in logs[0].splitlines()] == ["Zoe", "Bruno"]


SCHEMA_CASES = {
    "fk-missing-to": ({"foreign_keys": [{"from": "subject.id"}]},
                      "error: foreign_keys (row 0): missing key 'to'"),
    "corridor-not-a-number": ({"corridor_km": "wide"},
                              "error: corridor_km: could not convert string to float: 'wide'"),
    "corridor-nan": ({"corridor_km": "nan"},
                     "error: corridor_km: must be a finite number >= 0, not nan"),
    "corridor-infinite": ({"corridor_km": float("inf")},
                          "error: corridor_km: must be a finite number >= 0, not inf"),
    "corridor-negative": ({"corridor_km": -1},
                          "error: corridor_km: must be a finite number >= 0, not -1.0"),
}


@pytest.mark.parametrize("via", ["data", "manifest"])
@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_malformed_schema_names_the_field(capsys, tmp_path, via, case):
    schema, expected = SCHEMA_CASES[case]
    if via == "data":
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"schema": schema}))
        argv = ["load", "--data", str(path)]
    else:
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        argv = ["load", "--data", DATA, "--manifest", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.splitlines() == [expected]


def test_missing_data_dir_errors(capsys, monkeypatch):
    monkeypatch.delenv("VPDGATE_DATA", raising=False)
    code = main(["load"])
    captured = capsys.readouterr()
    assert code == 1 and "no data directory" in captured.err


def test_malformed_json_dataset_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subject": [{"id": "s1"}]}))
    code, _, err = run(capsys, "load", "--data", str(bad))
    assert code == 1
    assert err.splitlines() == ["error: subject (row 0): missing key 'name'"]


def test_unknown_session_errors(capsys, state_file):
    code, _, err = run(capsys, "query", "--data", DATA, "--state", state_file,
                       "--session", "nope", "select * from object")
    assert code == 1 and "no such session" in err


def test_login_unknown_user_errors(capsys, state_file):
    code, _, err = run(capsys, "login", "--data", DATA, "--state", state_file,
                       "--user", "nobody")
    assert code == 1 and "unknown subject" in err


def test_login_half_position_errors(capsys, state_file):
    code, _, err = run(capsys, "login", "--data", DATA, "--state", state_file,
                       "--user", "Parker", "--lat", "10.0")
    assert code == 1 and "--lat and --lon" in err


def test_login_bad_timestamp_errors(capsys, state_file):
    code, _, err = run(capsys, "login", "--data", DATA, "--state", state_file,
                       "--user", "Parker", "--time", "not-a-time")
    assert code == 1


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["query", "--data", DATA])  # missing query text
    assert err.value.code == 1


def test_corridor_override_changes_verdict(capsys, state_file):
    # Mexico City is ~1500 km off the t1 route; a 2000 km corridor admits it.
    _, out, _ = run(capsys, "login", "--data", DATA, "--state", state_file,
                    "--user", "Parker", "--lat", "19.4326", "--lon", "-99.1332",
                    "--time", "2010-08-20T12:00:00Z")
    session_id = out.strip()
    code, _, _ = run(capsys, "query", "--data", DATA, "--state", state_file,
                     "--session", session_id, "select * from object")
    assert code == 2
    code, out, _ = run(capsys, "query", "--data", DATA, "--state", state_file,
                       "--corridor-km", "2000", "--format", "json",
                       "--session", session_id, "select * from object")
    assert code == 0
    assert json.loads(out)["verdict"] == "GRANTED"


@pytest.mark.parametrize("width", ["nan", "inf", "-1"])
def test_a_corridor_override_that_is_no_width_is_one_error_line(capsys, state_file, width):
    # Parker is in range here, so a width that is no number must not revoke him.
    _, out, _ = run(capsys, "login", "--data", DATA, "--state", state_file,
                    "--user", "Parker", "--lat", "39.4731", "--lon", "-98.0592",
                    "--time", "2010-08-20T12:00:00Z")
    code, out, err = run(capsys, "query", "--data", DATA, "--state", state_file,
                         "--corridor-km", width, "--session", out.strip(),
                         "select * from object")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: corridor_km: must be a finite number >= 0, not {float(width)!r}"]


def test_manifest_override(capsys, tmp_path, state_file):
    manifest = tmp_path / "schema.json"
    manifest.write_text(json.dumps({
        "corridor_km": 2000.0,
        "foreign_keys": [
            {"from": "subject.id", "to": "assignment.id"},
            {"from": "assignment.truck", "to": "object.truck"},
            {"from": "subject.dept", "to": "org_hierarchy.ou"},
        ],
    }))
    _, out, _ = run(capsys, "login", "--data", DATA, "--state", state_file,
                    "--user", "Parker", "--lat", "19.4326", "--lon", "-99.1332",
                    "--time", "2010-08-20T12:00:00Z")
    session_id = out.strip()
    code, _, _ = run(capsys, "query", "--data", DATA, "--state", state_file,
                     "--manifest", str(manifest),
                     "--session", session_id, "select * from object")
    assert code == 0


def test_read_only_query_leaves_state_file_untouched(capsys, state_file):
    _, out, _ = run(capsys, "login", "--data", DATA, "--state", state_file,
                    "--user", "Parker")
    session_id = out.strip()
    path = Path(state_file)
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    time.sleep(0.01)
    code, _, _ = run(capsys, "query", "--data", DATA, "--state", state_file,
                     "--session", session_id, "select * from object")
    assert code == 0
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before


def test_failed_state_write_keeps_previous_file(capsys, state_file):
    _, out, _ = run(capsys, "login", "--data", DATA, "--state", state_file,
                    "--user", "Parker")
    path = Path(state_file)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        with _locked_state(path) as state:
            state["sessions"]["broken"] = {"opened_at": object()}
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == \
        sorted([path.name, path.name + ".lock"])
    assert out.strip() in json.loads(before)["sessions"]


def _tamper(capsys, state_file, **changes):
    """Log Parker in, then overwrite or (value None) drop fields of the stored session."""
    _, out, _ = run(capsys, "login", "--data", DATA, "--state", state_file,
                    "--user", "Parker", "--lat", "39.4731", "--lon", "-98.0592",
                    "--time", "2010-08-20T12:00:00Z")
    session_id = out.strip()
    path = Path(state_file)
    doc = json.loads(path.read_text())
    for key, value in changes.items():
        if value is None:
            del doc["sessions"][session_id][key]
        else:
            doc["sessions"][session_id][key] = value
    path.write_text(json.dumps(doc))
    return session_id


@pytest.mark.parametrize("changes", [{"lat": "x"}, {"opened_at": None}, {"lat": 91.0},
                                     {"time": 5}, {"user": "nobody"}],
                         ids=["lat-not-a-number", "opened_at-missing", "lat-out-of-range",
                              "time-not-a-string", "unknown-user"])
def test_malformed_state_file_session_errors(capsys, state_file, changes):
    session_id = _tamper(capsys, state_file, **changes)
    code, _, err = run(capsys, "query", "--data", DATA, "--state", state_file,
                       "--session", session_id, "select * from object")
    assert code == 1
    assert f"malformed session {session_id!r}" in err
    assert "Traceback" not in err


def test_json_data_file_keeps_its_session_state_beside_it(capsys, tmp_path):
    data = tmp_path / "logistics.json"
    data.write_text(relstore.dump_dataset(relstore.load_bundled("logistics")))
    code, out, _ = run(capsys, "login", "--data", str(data), "--user", "Parker",
                       "--lat", "39.4731", "--lon", "-98.0592",
                       "--time", "2010-08-20T12:00:00Z")
    assert code == 0
    session_id = out.strip()
    state = tmp_path / ".logistics.json.vpdgate-sessions.json"
    assert session_id in json.loads(state.read_text())["sessions"]
    for argv in (["query", "--session", session_id, "select * from object"],
                 ["vpd", "--session", session_id],
                 ["explain", "--session", session_id, "select * from object"],
                 ["oracle", "--session", session_id],
                 ["query", "--subject", "Chris", "select * from object"]):
        code, _, err = run(capsys, argv[0], "--data", str(data), *argv[1:])
        assert (code, err) == (0, "")


@pytest.mark.parametrize("text", ["[]", '{"sessions": []}', '{"sessions": 5}', "{"],
                         ids=["list", "sessions-a-list", "sessions-a-number", "not-json"])
@pytest.mark.parametrize("command", ["login", "query"])
def test_malformed_state_file_is_one_error_line(capsys, state_file, text, command):
    Path(state_file).write_text(text)
    argv = (["--user", "Parker"] if command == "login"
            else ["--subject", "Parker", "select * from object"])
    code, _, err = run(capsys, command, "--data", DATA, "--state", state_file, *argv)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: state file {state_file}: ")
    assert Path(state_file).read_text() == text


@pytest.mark.parametrize("option", ["--scenario", "--manifest"])
def test_missing_scenario_or_manifest_file_is_one_error_line(capsys, tmp_path, option):
    missing = tmp_path / "missing.json"
    argv = {"--scenario": ["simulate", "--data", str(relstore.bundled_data_dir("handover")),
                           "--scenario", str(missing), "--out", str(tmp_path / "e.jsonl")],
            "--manifest": ["load", "--data", DATA, "--manifest", str(missing)]}[option]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("where", ["--manifest", "schema.json", "--scenario"])
def test_file_that_is_not_json_is_one_error_line_naming_it(capsys, tmp_path, where):
    bad = tmp_path / ("schema.json" if where == "schema.json" else "bad.json")
    bad.write_text("{\n")
    if where == "schema.json":
        for csv_file in Path(DATA).glob("*.csv"):
            (tmp_path / csv_file.name).write_text(csv_file.read_text())
    argv = {"--manifest": ["load", "--data", DATA, "--manifest", str(bad)],
            "schema.json": ["load", "--data", str(tmp_path)],
            "--scenario": ["simulate", "--data", str(relstore.bundled_data_dir("handover")),
                           "--scenario", str(bad), "--out", str(tmp_path / "e.jsonl")]}[where]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {bad.name}: invalid JSON: Expecting property name")


def _main_quiet(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@given(st.integers(0, 10_000), st.integers(0, 1000), st.sampled_from(linkage.CHAIN_MODES),
       st.sampled_from(linkage.SUPERVISOR_MODES))
@settings(max_examples=25, deadline=None)
def test_awkward_names_pass_through_login_and_the_state_file(seed, contexts_seed, chain_mode,
                                                             supervisor_mode):
    """Names with a space, a quote, a leading digit, a keyword or other
    scripts: each subject's reported context is logged in, and a query by
    --subject gets the verdict and rows engine.run_query gives it."""
    d = random_dataset(random.Random(seed), awkward_names=True)
    contexts = random_contexts(random.Random(contexts_seed), d)
    text = "select * from object"
    with tempfile.TemporaryDirectory() as tmp:
        data = str(Path(tmp) / "data.json")
        Path(data).write_text(relstore.dump_dataset(d))
        for name, ctx in contexts.items():
            position = [] if not ctx.wireless else [
                "--lat", repr(ctx.location[0]), "--lon", repr(ctx.location[1]),
                "--time", format_timestamp(ctx.timestamp)]
            assert _main_quiet("login", "--data", data, "--user", name, *position)[0] == 0
        for s in d.subjects:
            code, out = _main_quiet("query", "--data", data, "--subject", s.name,
                                    "--mode", chain_mode, "--supervisor-mode", supervisor_mode,
                                    "--format", "json", text)
            ctx = contexts.get(s.name) or open_session(s.name, None, None, d)
            expected = engine.run_query(d, ctx, text, chain_mode=chain_mode,
                                        supervisor_mode=supervisor_mode, contexts=contexts)
            doc = json.loads(out)
            assert (code, doc["verdict"], doc["reason"]) == (
                0 if expected.state.valid else 2, expected.state.state, expected.state.reason)
            assert doc["rows"] == [list(r) for r in expected.rows.sorted_rows()]
