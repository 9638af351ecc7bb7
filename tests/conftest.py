from __future__ import annotations

from pathlib import Path

import pytest

from randgen import midpoint
from vpdgate import relstore, sessionctx
from vpdgate.timeutil import parse_timestamp

GOLDEN_DIR = Path(__file__).parent / "goldens"

VANCOUVER = (49.2827, -123.1207)
MIAMI = (25.7617, -80.1918)
MEXICO_CITY = (19.4326, -99.1332)  # on-time test point ~1500 km off the t1 route


@pytest.fixture(scope="session")
def fixture_dataset():
    return relstore.load_bundled("logistics")


@pytest.fixture(scope="session")
def handover_dataset():
    return relstore.load_bundled("handover")


@pytest.fixture()
def golden_dir():
    return GOLDEN_DIR


@pytest.fixture()
def t1_midpoint():
    return midpoint(VANCOUVER, MIAMI)


@pytest.fixture()
def parker_mobile(fixture_dataset, t1_midpoint):
    """Parker reporting an on-route position in the middle of the t1 window."""
    return sessionctx.open_session(
        "Parker", t1_midpoint, parse_timestamp("2010-08-20T12:00:00Z"), fixture_dataset)


@pytest.fixture()
def parker_wired(fixture_dataset):
    return sessionctx.open_session("Parker", None, None, fixture_dataset)


@pytest.fixture()
def chris_wired(fixture_dataset):
    return sessionctx.open_session("Chris", None, None, fixture_dataset)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                rows.append((nodeid.split("::")[-1], status.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(rows):
            terminalreporter.write_line(f"{status:6s} {name}")
