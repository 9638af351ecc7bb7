"""The benchmark's timing wrappers still find every function they trace.

bench/spans.py names the functions it wraps by module attribute. A
refactor that renames or folds one of them would otherwise only show when
the benchmark runs with --trace 1.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_at_every_traced_function_and_uninstalls():
    spans = _load_spans()
    originals = [getattr(owner, attr) for owner, attr, _ in spans.TRACED]
    limit = sys.getrecursionlimit()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, name), original in zip(spans.TRACED, originals):
            assert getattr(owner, attr) is not original, f"{name} was not wrapped"
            assert any(o is original for _, _, o in tracer._originals), name
    finally:
        tracer.uninstall()
    for (owner, attr, name), original in zip(spans.TRACED, originals):
        assert getattr(owner, attr) is original, f"{name} was not restored"
    assert sys.getrecursionlimit() == limit
