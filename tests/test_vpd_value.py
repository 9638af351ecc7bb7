"""A VPD is a value: its fields say what it was built from, and its UNION,
groups, provenance and closed form are rebuilt from them on each read.

Each request reads each derived part at most once, and a field request
reads none of the supervisor's; the fields of a supervisor's expansion
are the subordinates, the narrative verdicts and the Dataset version the
VPD was built under.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpdgate import engine, linkage, relstore, vpdrewrite
from vpdgate.cli import main
from vpdgate.lifecycle import build_vpd
from vpdgate.sessionctx import open_session

from randgen import crossed_contexts, random_contexts, random_dataset

DATA = str(relstore.bundled_data_dir("logistics"))
BUILDERS = ("_union_groups", "_expanded_union", "_closed_union")


@pytest.fixture()
def builds(monkeypatch):
    """Counts each call of the three builders of a VPD's derived parts."""
    counts = Counter()
    for name in BUILDERS:
        real = getattr(vpdrewrite, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(vpdrewrite, name, counted)
    return counts


def _built(counts) -> tuple[int, int, int]:
    return tuple(counts[name] for name in BUILDERS)


@pytest.mark.parametrize("supervisor_mode", linkage.SUPERVISOR_MODES)
@pytest.mark.parametrize("chain_mode", ("workflow", "direct"))
def test_a_granted_supervisor_request_builds_its_groups_once(fixture_dataset, chris_wired,
                                                             builds, chain_mode,
                                                             supervisor_mode):
    outcome = engine.run_query(fixture_dataset, chris_wired, "select * from object",
                               chain_mode=chain_mode, supervisor_mode=supervisor_mode)
    assert outcome.state.valid and outcome.vpd.expansion is not None
    assert _built(builds) == (1, 0, 0)


def test_explain_builds_the_union_and_the_closed_form_once(fixture_dataset, chris_wired,
                                                           builds):
    trace = engine.explain(fixture_dataset, chris_wired, "select * from object")
    assert "closed form:" in trace
    assert _built(builds) == (0, 1, 1)


@pytest.mark.parametrize("fmt", ("table", "json"))
def test_the_vpd_command_builds_each_part_once(tmp_path, capsys, builds, fmt):
    code = main(["vpd", "--data", DATA, "--state", str(tmp_path / "sessions.json"),
                 "--format", fmt, "--subject", "Chris"])
    assert code == 0 and "SELECT" in capsys.readouterr().out
    assert _built(builds) == (1, 1, 1)


def test_a_field_request_builds_no_supervisor_part(fixture_dataset, parker_mobile, builds):
    outcome = engine.run_query(fixture_dataset, parker_mobile, "select * from object")
    assert outcome.state.valid and outcome.vpd.expansion is None
    assert _built(builds) == (0, 0, 0)


@st.composite
def _supervisor_case(draw):
    d = random_dataset(random.Random(draw(st.integers(0, 10_000))), awkward_names=True)
    rng = random.Random(draw(st.integers(0, 1000)))
    contexts = {**random_contexts(rng, d), **crossed_contexts(rng, d)}
    return d, contexts, draw(st.sampled_from(linkage.SUPERVISOR_MODES))


def _in_order(part: tuple[str, ...], whole: tuple[str, ...]) -> bool:
    members = set(part)
    return tuple(s for s in whole if s in members) == part


@given(_supervisor_case())
@settings(max_examples=150, deadline=None)
def test_a_supervisor_vpd_holds_what_it_was_expanded_from(case):
    d, contexts, mode = case
    for s in d.subjects:
        ctx = open_session(s.name, None, None, d)
        vpd = build_vpd(ctx, d, "select * from object", supervisor_mode=mode, contexts=contexts)
        subs = linkage.subordinates_by_id(s.name, d)
        e = vpd.expansion
        if not subs:
            assert e is None and vpd.groups is None and vpd.closed_query is None
            continue
        assert (e.mode, e.subordinates, e.dataset) == (mode, subs, d)
        if mode == "strict":
            assert e.kept is subs and e.dropped == ()
        else:
            assert e.dropped == tuple(
                sub for sub in subs if vpdrewrite.subordinate_known_invalid(sub, d, contexts))
        assert _in_order(e.kept, subs) and _in_order(e.dropped, subs)
        assert sorted(e.kept + e.dropped) == sorted(subs)

        again = build_vpd(ctx, d, "select * from object", supervisor_mode=mode,
                          contexts=dict(contexts))
        assert again == vpd
        for part in ("query", "provenance", "groups", "closed_query"):
            assert getattr(vpd, part) == getattr(vpd, part) == getattr(again, part), part
