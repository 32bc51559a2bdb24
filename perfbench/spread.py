#!/usr/bin/env python3
"""Seed-to-seed spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload yelp-path --seeds 10

runs the benchmark once per seed (1..N, or from --first-seed) and prints, for
each end-to-end metric, its median and its spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. A spread should stay below a third of the metric's bound in
BENCHMARK.json; the exit code is 1 if any spread but that of setup_s exceeds
the bound itself. Raw results go to perfbench/.build/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values) -> float:
    """Interquartile range of `values` as a share of their median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"seed {seed}: benchmark exited with code {res.returncode}")
    return json.loads(res.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in range(a.first_seed, a.first_seed + a.seeds):
        started = time.monotonic()
        r = run_once(a.workload, seed, spec["run_seconds"])
        results.append(r)
        print(f"seed {seed} ({time.monotonic() - started:.0f} s): correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
    out = BENCH / ".build" / f"spread-{a.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    worst = 0
    print(f"{'metric':<14}{'median':>14}{'spread':>9}{'bound/3':>9}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        s = spread(values)
        flag = "" if s < m["bound"] / 3 else ("  above bound/3" if s <= m["bound"] else "  ABOVE BOUND")
        if s > m["bound"] and m["name"] != "setup_s":
            worst = 1
        print(f"{m['name']:<14}{statistics.median(values):>14.6g}{s:>9.4f}{m['bound'] / 3:>9.4f}{flag}")
    if not all(r["correct"] and r["failed"] == 0 for r in results):
        print("some run was incorrect or had failed operations")
        worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
