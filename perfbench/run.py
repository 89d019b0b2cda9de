"""quadclif benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh single-threaded process (worker.py) and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones from BENCHMARK.json; with --trace 1 the
worker wraps quadclif's public functions in spans and the metrics are
the per-layer ones, and the span tree goes to perfbench/out/.

Exits non-zero without printing a result when the workload cannot run,
for instance when the checkout has no src/quadclif.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
TIMEOUT_S = 170


def run_worker(args):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker exceeded %d s" % TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("worker exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no result")
    return spawned, json.loads(lines[-1])


def metrics(spec, spawned, res, trace):
    """The metrics BENCHMARK.json names; a layer with no span reads 0."""
    if trace:
        values = dict(res["layers"])
        values.update(res["work"])
        wanted = spec["per_layer"]
    else:
        # run_s: one round of the fixed work at the reference speed (see
        # README, "Why run_s is taken at a reference speed")
        values = {"setup_s": res["ready_monotonic"] - spawned,
                  "run_s": res["run_s"],
                  "peak_rss_mib": res["peak_rss_mib"]}
        wanted = spec["end_to_end"]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def main(argv=None):
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spawned, res = run_worker(args)
    for kind, text in res["problems"]:
        print("%s: %s" % (kind, text), file=sys.stderr)
    print("rounds: %d, reference loop %.2f ms, round seconds: %s" % (
        len(res["round_s"]), 1000 * res["ref_s"],
        " ".join("%.3f" % s for s in res["round_s"])), file=sys.stderr)
    print(json.dumps({
        "correct": res["refuted"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics(spec, spawned, res, args.trace),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
