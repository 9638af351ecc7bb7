"""The fleet replay's event log is pinned for the benchmark's seeds.

bench/gen.py writes the seeded dataset and fleet scenario that the
fleet_replay workload replays. Each seed is replayed in narrative and in
strict supervisor mode, and the sha256 of the whole rendered event log
must equal the digest recorded for it: a memo, or a replay that
re-decides fewer subjects, may change how much work a step does but
never what it logs.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from vpdgate import lifecycle, relstore, simharness

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"

DIGESTS = {
    7: {"narrative": "1c85307f4dc715f2f5e90a29849f6eac2f94a9fa8bab3c423118077fe155580c",
        "strict": "069ffb05374e0eb269969261f4ab222ecde77efe782c8416b057f8d07aae52ca"},
    11: {"narrative": "e9fffdb0852118919b9f2a39b2388cc30aa24b0367d46a2db01dda7e5ac37ea0",
         "strict": "3193ac51239e1fda6f65c5fb00a5002db66a264243d6a68438806028742da6f9"},
    23: {"narrative": "fe8371e48448190efda0f51fab772d40d0ba79371ef2a5fa9cdd69d1b9ace123",
         "strict": "0e355c4cd76faed3b6a8f0cdd879af029634989dddd7f9068d1087f0f49a85f2"},
}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_fleet_event_log_digest(seed, tmp_path):
    subprocess.run([sys.executable, str(GEN), "--seed", str(seed), "--out-dir", str(tmp_path),
                    "--fleet"], check=True, stdout=subprocess.DEVNULL, timeout=120)
    d = relstore.load_dataset(tmp_path / "dataset.json")
    sc = simharness.load_scenario(tmp_path / "fleet.json")
    for mode, expected in DIGESTS[seed].items():
        result = simharness.run_scenario(sc, d, supervisor_mode=mode)
        log = lifecycle.render_event_log(result.events)
        assert hashlib.sha256(log.encode()).hexdigest() == expected, (seed, mode)
