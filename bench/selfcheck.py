"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py [--seed 7]

1. The same seed gives byte-identical inputs (dataset and fleet scenario)
   and the same fleet event-log digest when replayed from two separate
   generations.
2. Every workload runs in both modes with a short --seconds, passes its
   correctness gate, and emits exactly the metrics BENCHMARK.json declares
   for that mode, each with its declared unit.

Exits 1 on the first kind of failure it finds, after reporting all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys

import run
from vpdgate import lifecycle, relstore, simharness


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def check_determinism(seed: int) -> list[str]:
    runs = []
    for copy in ("a", "b"):
        work = run.BENCH_DIR / "out" / f"selfcheck-{seed}-{copy}"
        subprocess.run([sys.executable, str(run.BENCH_DIR / "gen.py"), "--seed", str(seed),
                        "--out-dir", str(work), "--fleet"], check=True,
                       stdout=subprocess.DEVNULL)
        d = relstore.load_dataset(work / "dataset.json")
        result = simharness.run_scenario(simharness.load_scenario(work / "fleet.json"), d)
        runs.append({"dataset": digest((work / "dataset.json").read_bytes()),
                     "scenario": digest((work / "fleet.json").read_bytes()),
                     "event log": digest(lifecycle.render_event_log(result.events))})
    print(f"seed {seed} digests:", json.dumps(runs[0]))
    return [f"{key} digest differs between two generations of seed {seed}"
            for key in runs[0] if runs[0][key] != runs[1][key]]


def check_runs(seed: int) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{where}: correctness gate failed")
            problems += [f"{where}: {p}"
                         for p in run.declared_metrics_problems(result["metrics"], trace)]
            print(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(result['metrics'])}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    problems = check_determinism(args.seed) + check_runs(args.seed)
    for p in problems:
        print("FAIL:", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
