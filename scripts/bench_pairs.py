#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and record them.

Each pair runs perfbench/run.py once in the parent checkout and once in
the change checkout, with the pair number as the seed; odd pairs run the
parent first.  The runs of one workload go into a BENCH_<n>.json file:
every run's end-to-end metrics, per side the median and the inclusive
quartiles of each metric, whether every answer was correct and the
failed/attempted operations of each run, and per metric the number of
pairs in which the change read lower (change_wins).  With --trace, one
traced run per side (seed 1) adds the per-layer metrics.  An existing
file is updated: its other workloads and fields are kept.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload pencil_search --pairs 10 --seconds 25 --out BENCH_18.json \\
        --claim run_s --trace
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1"


def run_once(checkout, workload, seed, seconds, trace):
    """The result line of one perfbench run in checkout, as a dict."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit("%s in %s failed:\n%s" % (" ".join(cmd), checkout, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(runs):
    """Median and inclusive quartiles of every metric over the runs."""
    out = {}
    for name in runs[0]:
        xs = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 \
            else (xs[0], None, xs[0])
        out[name] = {"median": statistics.median(xs), "q1": q1, "q3": q3}
    return out


def bench_workload(parent, change, workload, pairs, seconds):
    sides = {"parent": parent, "change": change}
    runs = {"parent": [], "change": []}
    results = {"parent": [], "change": []}
    first_side = []
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        first_side.append(order[0])
        for side in order:
            res = run_once(sides[side], workload, pair, seconds, False)
            results[side].append(res)
            runs[side].append(values(res))
            print("%s pair %d %s: %s" % (workload, pair, side, json.dumps(runs[side][-1])),
                  file=sys.stderr, flush=True)
    entry = {"pairs": pairs, "seeds": list(range(1, pairs + 1))}
    for side in ("parent", "change"):
        entry[side] = summary(runs[side])
        entry[side]["correct"] = all(r["correct"] for r in results[side])
        entry[side]["failed_per_attempted"] = [
            "%d/%d" % (r["failed"], r["attempted"]) for r in results[side]]
    entry["change_wins"] = {
        name: sum(c[name] < p[name] for p, c in zip(runs["parent"], runs["change"]))
        for name in runs["parent"][0]}
    entry["first_side"] = first_side
    entry["runs"] = runs
    return entry


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write or update")
    ap.add_argument("--trace", action="store_true",
                    help="add one traced run per side (seed 1) as per-layer metrics")
    ap.add_argument("--claim", metavar="METRIC",
                    help="record this workload's METRIC as the claimed one")
    ap.add_argument("--parent-commit", default="", help="recorded as parent_commit")
    ap.add_argument("--describe", default="", help="recorded as change")
    args = ap.parse_args(argv)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("change", args.describe)
    doc.setdefault("parent_commit", args.parent_commit)
    doc["command"] = COMMAND
    doc["seed"] = "the pair number"
    doc["seconds"] = args.seconds
    doc.setdefault("machine", "%d-CPU %s %s, Python %s" % (
        os.cpu_count(), platform.machine(), platform.system(), platform.python_version()))
    doc["method"] = (
        "parent and change checked out in separate directories; pairs alternate "
        "which side runs first (odd pairs parent first); every run is listed under "
        "runs; medians and quartiles (inclusive) over the runs of each side; "
        "change_wins counts pairs where the change read lower")
    if args.claim:
        doc["claimed"] = {"workload": args.workload, "metric": args.claim}
    doc.setdefault("workloads", {})
    doc.setdefault("per_layer", {})
    doc.setdefault("notes", [])

    doc["workloads"][args.workload] = bench_workload(
        args.parent, args.change, args.workload, args.pairs, args.seconds)
    if args.trace:
        doc["per_layer"][args.workload] = {
            side: values(run_once(path, args.workload, 1, args.seconds, True))
            for side, path in (("parent", args.parent), ("change", args.change))}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    entry = doc["workloads"][args.workload]
    for name, stats in entry["change"].items():
        if isinstance(stats, dict):
            print("%s %s: median %.4g -> %.4g, change lower in %d of %d pairs" % (
                args.workload, name, entry["parent"][name]["median"], stats["median"],
                entry["change_wins"][name], entry["pairs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
