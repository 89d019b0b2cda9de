"""One workload run in a fresh process; started by run.py.

Imports quadclif from the checkout's src/ (and refuses any other copy),
builds the seeded inputs, then repeats whole rounds of the workload
for about --seconds.  Prints one JSON line with the raw
figures; run.py turns them into the benchmark's metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
MAX_PROBLEMS = 20
# the reference speed: the speed at which workloads.reference_seconds()
# takes 1.5 ms, between the fast (1.2 ms) and the busy (1.8 ms) states of
# the machine the bounds come from
REFERENCE_S = 0.0015


def import_program():
    """quadclif's modules, imported from this checkout only."""
    sys.path.insert(0, SRC)
    import importlib
    import types

    import numpy  # noqa: F401 - part of the program's import cost

    pkg = importlib.import_module("quadclif")
    if not os.path.abspath(pkg.__file__).startswith(os.path.join(SRC, "quadclif")):
        raise SystemExit("quadclif imported from %s, not from %s" % (pkg.__file__, SRC))
    names = ("rings", "quadform", "clifford", "splitting", "morita", "pencil",
             "lagrangian", "cli")
    return types.SimpleNamespace(**{n: importlib.import_module("quadclif." + n) for n in names})


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    qc = import_program()
    from workloads import WORKLOADS  # this directory is sys.path[0]

    workload = WORKLOADS[args.workload](qc, args.seed)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.install()

    round_s = []
    ref_s = []
    at_reference = []  # per round: the call times rescaled to the reference speed
    attempted = failed = refuted = 0
    problems = []
    start = time.perf_counter()
    # whole rounds only; a round is started while it can be expected to end
    # no later than half a round after --seconds, so a run lasts --seconds
    # give or take half a round
    while not round_s or time.perf_counter() - start + round_s[-1] / 2 < args.seconds:
        answers = workload.run_round()
        round_s.append(sum(dt for _, _, dt, _ in answers))
        ref_s.extend(ref for _, _, _, ref in answers)
        at_reference.append(sum(dt * REFERENCE_S / ref for _, _, dt, ref in answers))
        a, f, probs = workload.check(answers)
        attempted += a
        failed += f
        refuted += sum(1 for kind, _ in probs if kind == "refuted")
        for prob in probs:
            if len(problems) < MAX_PROBLEMS and prob not in problems:
                problems.append(prob)

    result = {
        "ready_monotonic": ready,
        "round_s": round_s,
        "ref_s": statistics.median(ref_s),
        # the first round pays for lazy imports and table fills
        "run_s": statistics.fmean(at_reference[1:] or at_reference),
        "attempted": attempted,
        "failed": failed,
        "refuted": refuted,
        "problems": problems,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work": workload.work(),
    }
    if tracer is not None:
        rounds = len(round_s)
        layers = {}
        for name, (calls, self_s) in tracer.by_name().items():
            layers[name + ".self_s"] = self_s / rounds
            layers[name + ".calls"] = calls / rounds
        result["layers"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                       "round_s": round_s, "run_s": result["run_s"], "layers": layers,
                       "spans": tracer.dump()}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
