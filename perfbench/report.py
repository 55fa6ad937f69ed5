"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py --seed 1

Each run measures for BENCHMARK.json's run_seconds.  For each workload
this prints each end-to-end metric with its unit, the error and decided
fractions, each per-layer metric from the traced run, the tracing
overhead (traced against untraced wall_s), and for each traced request
the share of its time spent in automata.project and automata.canonical_dfa.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

from run import OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=HERE.parent, check=True, capture_output=True,
                           text=True).stdout.strip().splitlines()
    return lines[-2], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for workload in WORKLOADS:
        summary, plain = run_once(workload, args.seed, 0)
        _, traced = run_once(workload, args.seed, 1)
        print(f"== {workload}\n{summary}")
        print(f"  {'error_frac':40s} {plain['failed'] / plain['attempted']:<14.6g} frac")
        for name, m in plain["metrics"].items():
            print(f"  {name:40s} {m['value']:<14.6g} {m['unit']}")
        print("  -- traced run")
        for name, m in traced["metrics"].items():
            print(f"  {name:40s} {m['value']:<14.6g} {m['unit']}")
        overhead = traced["metrics"]["trace.wall_s"]["value"] / plain["metrics"]["wall_s"]["value"] - 1
        print(f"  {'tracing overhead on wall_s':40s} {overhead:<14.3%}")
        record = json.loads((OUT / f"{workload}-seed{args.seed}-trace1.json").read_text())
        shares: dict = {}
        for req in record["by_request"]:
            own = req["self_s"]
            share = (own.get("automata.project", 0) + own.get("automata.canonical_dfa", 0)) / req["s"]
            shares.setdefault(req["label"], []).append(share)
        for label, vals in shares.items():
            print(f"  project+canonical_dfa self share, {label:14s} "
                  f"min {min(vals):.3f} max {max(vals):.3f} over {len(vals)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
