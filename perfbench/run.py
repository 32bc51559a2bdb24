#!/usr/bin/env python3
"""Hypothesis-test benchmark: one operation is one `Framework.runOnce` call
(sample, evaluate on S, t-test) in a closed loop with one client thread.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

builds the program from source if needed (see build.py), runs the workload
and prints, as the last line of stdout, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. BENCHMARK.json at the repository root
lists the workloads and metrics and says why each was chosen.

    python3 perfbench/run.py --sweep

runs the DBLP scale sweep (REPRO_SCALE 1, 2, 4 at a fixed absolute budget)
and writes perfbench/results/scale_sweep.json.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import build

RUN_TIMEOUT_S = 170
SWEEP_SCALES = (1, 2, 4)
REQUIRED_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(args: list, timeout: float, heap: str = "3g") -> dict:
    """Runs perfbench.Bench, echoes its stdout and returns its result line."""
    classpath = build.ensure_built()
    cmd = [*build.java_command(classpath, heap), "perfbench.Bench", *args,
           "--out", str(build.BUILD / "out")]
    # Spark's scratch space defaults to java.io.tmpdir, inside the build directory.
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"benchmark exceeded {timeout:.0f} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != REQUIRED_KEYS or result["attempted"] < 1:
        raise RuntimeError(f"malformed result line: {lines[-1]}")
    return result


def sweep() -> None:
    """DBLP at REPRO_SCALE 1, 2 and 4 with a fixed absolute budget."""
    rows = []
    for scale in SWEEP_SCALES:
        common = ["--workload", "dblp-scale", "--scale", str(scale), "--seed", "1",
                  "--seconds", "10", "--setups", "1"]
        e2e = run_bench(common + ["--trace", "0"], 600, heap="4g")["metrics"]
        layer = run_bench(common + ["--trace", "1"], 900, heap="4g")["metrics"]
        row = {"scale": scale,
               "setup_s": e2e["setup_s"]["value"],
               "heap_mb": e2e["heap_mb"]["value"],
               "test_ms_p50": e2e["test_ms_p50"]["value"],
               "labels.ms": layer["labels.ms"]["value"],
               "extract.ms_p50": layer["extract.ms_p50"]["value"],
               "sample.ms_p50": layer["sample.ms_p50"]["value"],
               "localgraph.build_ms": layer["localgraph.build_ms"]["value"],
               "localgraph.heap_mb": layer["localgraph.heap_mb"]["value"]}
        print(json.dumps(row), file=sys.stderr)
        rows.append(row)
    out = build.BENCH / "results" / "scale_sweep.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "what": "DBLP hypotheses DB-N1, DB-E1, DB-P1 with RNS and PHASEopt at an "
                "absolute budget of 812 nodes, one JVM per scale and metric set",
        "hardware": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "processor": cpu_model()},
        "date": time.strftime("%Y-%m-%d"),
        "rows": rows}, indent=2) + "\n")
    print(f"wrote {out.relative_to(build.ROOT)}")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--sweep", action="store_true")
    a = ap.parse_args()
    try:
        if a.sweep:
            sweep()
            return 0
        if not a.workload:
            ap.error("--workload is required")
        build.ensure_built()
        result = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--trace", a.trace],
                           RUN_TIMEOUT_S)
    except (build.BuildError, RuntimeError, ValueError) as e:
        print(f"[perfbench] {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
