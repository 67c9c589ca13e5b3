#!/usr/bin/env python3
"""Compares two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by `run.py --out FILE` (untraced
runs; traced ones are skipped). For every (workload, metric) pair present on
both sides it prints the median and quartiles of each side and a verdict,
using the bounds of BENCHMARK.json:

  unresolved  either side has fewer than 10 runs; or the run-to-run spread
              (quartile distance / median) of either side exceeds the
              bound, unless every change run beats every parent run; or the
              change looks better but fewer than 10 runs pair up;
  worse       the change's median is worse than the parent's by more than
              the bound;
  improved    the change wins at least 9 in 10 paired runs, and the
              medians differ by more than the parent's quartile distance;
  unchanged   otherwise.

Every result file is one sample. Runs pair by seed and, for repeated runs
of one seed, by their order among that seed's files (sorted by name).

The per-statement detail metrics (e.g. pagerank_iterate_s, read_p99_ms) use
the bound of the end-to-end metric they roll up into. Exits 1 when any pair
is worse.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The fewest runs per side, and paired runs, that a verdict rests on.
MIN_RUNS = 10


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def detail_bound(name, e2e):
    """Detail metrics share the bound of the metric they roll up into; the
    error rate and the serving class shares are not judged."""
    if name == "error_rate" or name.startswith("share."):
        return None
    if name.endswith("_per_s"):
        return e2e["stmts_per_s"]
    return e2e["class_p50_geomean_ms"]


def load(directory):
    """{(workload, metric): {(seed, repeat): value}} over untraced result
    files; `repeat` counts earlier files of the same workload and seed."""
    out = {}
    repeats = {}
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        run = r.get("run", {})
        if run.get("trace"):
            continue
        key = (run["workload"], run["seed"])
        repeat = repeats.get(key, 0)
        repeats[key] = repeat + 1
        for section in ("metrics", "detail"):
            for name, m in r.get(section, {}).items():
                out.setdefault((run["workload"], name), {})[
                    (run["seed"], repeat)] = m["value"]
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return ((q3 - q1) / med if med else float("inf")), q3 - q1


def verdict(parent, change, bound, better):
    """parent/change: {(seed, repeat): value}. Returns (verdict, delta)."""
    sign = 1.0 if better == "lower" else -1.0
    p = list(parent.values())
    c = list(change.values())
    pm, cm = statistics.median(p), statistics.median(c)
    delta = sign * (cm - pm) / pm if pm else 0.0  # > 0: the change is worse
    if len(p) < MIN_RUNS or len(c) < MIN_RUNS:
        return "unresolved", delta
    p_spread, p_iqr = spread(p)
    c_spread, _ = spread(c)

    def beats(a, b):
        return sign * (a - b) < 0

    every_better = all(beats(x, y) for x in c for y in p)
    if p_spread > bound or c_spread > bound:
        return ("improved" if every_better else "unresolved"), delta
    if delta > bound:
        return "worse", delta
    pairs = [(parent[k], change[k]) for k in sorted(set(parent) & set(change))]
    wins = sum(1 for a, b in pairs if beats(b, a))
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > p_iqr:
        return ("improved" if len(pairs) >= MIN_RUNS else "unresolved"), delta
    return "unchanged", delta


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    e2e = bounds()
    parent, change = load(argv[1]), load(argv[2])
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        spec = e2e.get(name) or detail_bound(name, e2e)
        if spec is None:
            continue
        bound, better = spec
        v, delta = verdict(parent[key], change[key], bound, better)
        rows.append((workload, name, parent[key], change[key], delta, bound, v))

    def fmt(values):
        vals = list(values.values())
        if len(vals) < 2:
            return "%.4g (n=%d)" % (vals[0], len(vals))
        q1, med, q3 = statistics.quantiles(vals, n=4)
        return "%.4g [%.4g, %.4g] n=%d" % (med, q1, q3, len(vals))

    print("%-14s %-22s %-34s %-34s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "worse%", "bound", "verdict"))
    for workload, name, p, c, delta, bound, v in rows:
        print("%-14s %-22s %-34s %-34s %+7.1f%% %5.0f%%  %s" % (
            workload, name, fmt(p), fmt(c), 100 * delta, 100 * bound, v))
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
