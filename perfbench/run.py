#!/usr/bin/env python3
"""soda's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload layer4_ops --seed 1 --seconds 30 --trace 0

Builds the engine and the benchmark driver (perfbench/CMakeLists.txt) into
.bench_build/ on first use, runs one workload for --seconds seconds and
prints every metric with its unit and sample count. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The traced run is two processes: the full traced suite at
the pool size, then the direct analytics calls at SODA_THREADS=1.

Extra options: --scale tiny (the benchmark's own tests), --perturb ORACLE
(shift one oracle's observed value; the run must then report
"correct": false), --out FILE (save the full result for compare.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
POOL_THREADS = "4"
WORKLOADS = ("layer4_ops", "layer3_sql", "serving_mixed")
# Direct analytics timings of the SODA_THREADS=1 process, and the
# self-speedups derived from them.
T1_METRICS = ("kmeans", "pagerank", "nb_train", "grouped_moments")
SPEEDUP_METRICS = ("kmeans", "pagerank", "nb_train")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR names the build directory the benchmark harness
    # provides; it is .bench_build in the checkout either way.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once and builds incrementally; returns the driver path."""
    out = build_dir() / "cmake"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(out), "--target", "soda_perfbench",
           "-j", str(os.cpu_count() or 4)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return out / "soda_perfbench"


def run_driver(binary, args, threads):
    env = dict(os.environ, SODA_THREADS=threads)
    proc = subprocess.run([str(binary)] + args, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("soda_perfbench exited with %d" % proc.returncode)
    return json.loads(lines[-1]), proc.stderr


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def merge_t1(result, t1):
    """Adds the single-thread analytics timings and the self-speedups."""
    metrics = result["metrics"]
    for name in T1_METRICS:
        key = "analytics.%s_ms" % name
        metrics[key + ".t1"] = t1["metrics"][key]
    for name in SPEEDUP_METRICS:
        key = "analytics.%s_ms" % name
        pool = metrics[key]["value"]
        one = metrics[key + ".t1"]["value"]
        metrics["analytics.%s.speedup" % name] = {
            "value": one / pool if pool > 0 else 0.0, "unit": "x",
            "samples": metrics[key]["samples"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--perturb", default="")
    p.add_argument("--out", default="")
    a = p.parse_args()

    e2e, per_layer = declared_metrics()
    binary = build()
    if binary is None or not binary.exists():
        log("perfbench: build failed")
        return 2

    tmp = build_dir() / "tmp" / ("run-%d" % os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--scale", a.scale,
              "--tmp", str(tmp)]
    if a.perturb:
        common += ["--perturb", a.perturb]
    started = time.time()
    try:
        if a.trace:
            spans = traces / ("%s-seed%d.jsonl" % (a.workload, a.seed))
            result, _ = run_driver(
                binary, common + ["--trace", "1", "--spans", str(spans)],
                POOL_THREADS)
            t1, _ = run_driver(binary, common + ["--trace", "1", "--part",
                                                 "analytics"], "1")
            merge_t1(result, t1)
            result["correct"] = result["correct"] and t1["correct"]
            result["info"]["spans"] = str(spans.relative_to(ROOT))
        else:
            result, _ = run_driver(binary, common + ["--trace", "0"],
                                   POOL_THREADS)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log("perfbench: %s" % err)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = per_layer if a.trace else e2e
    metrics = result["metrics"]
    missing = [m for m in wanted if m not in metrics]
    wrong_unit = [m for m in wanted
                  if m in metrics and metrics[m]["unit"] != wanted[m]]
    if missing or wrong_unit:
        log("perfbench: metrics missing %s, wrong unit %s"
            % (missing, wrong_unit))
        return 1

    info = result["info"]
    print("workload=%s seed=%d seconds=%g trace=%d build=%s pool_threads=%s "
          "flush_policy=[%s] wall_s=%.1f" % (
              a.workload, a.seed, a.seconds, a.trace,
              info.get("build_type", "?"), info.get("pool_threads", "?"),
              info.get("flush_policy", "?"), time.time() - started))
    for name in sorted(wanted):
        m = metrics[name]
        print("  %-44s %16.6g %-6s n=%d" % (name, m["value"], m["unit"],
                                           m["samples"]))
    for name, m in sorted(result["detail"].items()):
        print("  detail %-37s %16.6g %-6s n=%d" % (name, m["value"],
                                                  m["unit"], m["samples"]))
    if not result["correct"]:
        print("  ORACLE FAILURES: %d" % result["oracle_failures"])
    if a.out:
        result["run"] = {"workload": a.workload, "seed": a.seed,
                         "seconds": a.seconds, "trace": a.trace}
        Path(a.out).write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in sorted(wanted)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
