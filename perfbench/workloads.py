"""The four workloads: one round of program calls, and its checks.

A round is the fixed list of operations built from the seed.  run_round
calls the program and returns its raw answers with the wall time of
each call and the machine's speed around it; check turns the answers
into plain data and hands them to the oracles, outside the timed calls.
Program functions are always reached through their module, so the
tracing wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import oracles
from gen import GENERATORS

# The reference loop: fixed pure-Python work, timed next to every program
# call.  Its duration measures how fast the machine runs at that moment.
REFERENCE_ITERATIONS = 20000


def reference_seconds():
    """Wall time of the reference loop, run now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Workload:
    name = None

    def __init__(self, qc, seed):
        self.qc = qc  # namespace of quadclif modules
        self.inputs = GENERATORS[self.name](seed)

    def ops(self):
        raise NotImplementedError

    def run_round(self):
        """(op, answer or exception, seconds, reference seconds) for every
        operation of one round; the last is the mean of the reference loop
        run just before and just after the call."""
        out = []
        ref = reference_seconds()
        for op in self.ops():
            t0 = time.perf_counter()
            try:
                answer = self.call(op)
            except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
                answer = e
            dt = time.perf_counter() - t0
            ref_after = reference_seconds()
            out.append((op, answer, dt, (ref + ref_after) / 2))
            ref = ref_after
        return out

    def check(self, answers):
        """(attempted, failed, problems) for one round's answers."""
        failed = 0
        problems = []
        for op, answer, _, _ in answers:
            if isinstance(answer, BaseException):
                failed += 1
                problems.append(("failed", "%s: %r" % (self.describe(op), answer)))
                continue
            try:
                fault = self.verify(op, answer)
            except oracles.Refuted as e:
                problems.append(("refuted", "%s: %s" % (self.describe(op), e)))
                continue
            if fault is not None:
                failed += 1
                problems.append(("failed", "%s: %s" % (self.describe(op), fault)))
        return len(answers), failed, problems

    def _field(self, field):
        rings = self.qc.rings
        return rings.QQ if field == "Q" else rings.PrimeField(field)

    def _form(self, field, rows):
        return self.qc.quadform.QuadraticForm.of_ints(self._field(field), rows)


class PencilSearch(Workload):
    name = "pencil_search"

    def ops(self):
        return self.inputs

    def work(self):
        return {"pencil_search.pairs": len(self.inputs),
                "pencil_search.pairs_without_common_zero":
                    sum(1 for s in self.inputs if s.get("free"))}

    def call(self, spec):
        q1 = self._form(spec["p"], spec["q1"])
        q2 = self._form(spec["p"], spec["q2"])
        return self.qc.pencil.amer_brumer_check(q1, q2, max_degree=3)

    def verify(self, spec, res):
        zero = None if res.common_zero is None else [a.v for a in res.common_zero]
        wit = None if res.witness is None else [[c.v for c in f.coeffs] for f in res.witness]
        oracles.check_amer_brumer(spec["q1"], spec["q2"], spec["p"],
                                  res.common_zero_count, zero, wit)

    def describe(self, spec):
        return "amer_brumer_check(rank %d)" % len(spec["q1"])


class AlgebraBuild(Workload):
    name = "algebra_build"

    def ops(self):
        return ([("even", s) for s in self.inputs["algebras"]]
                + [("morita", s) for s in self.inputs["morita"]])

    def work(self):
        return {"algebra_build.algebras": len(self.ops())}

    def call(self, op):
        kind, spec = op
        q = self._form(spec["field"], spec["rows"])
        if kind == "morita":
            return self.qc.morita.morita_witness(q)
        alg = self.qc.clifford.even_clifford(q)
        return alg, self.qc.clifford.center_report(alg)

    def verify(self, op, answer):
        kind, spec = op
        rows = spec["rows"]
        p = None if spec["field"] == "Q" else spec["field"]
        if kind == "morita":
            oracles.check_morita(len(rows), answer.dim_even, answer.dim_end, answer.checks)
            return
        alg, rep = answer
        delta = rep.delta
        if delta is not None and p is not None:
            delta = delta.v
        oracles.check_even_algebra(rows, p, alg.dim, rep.kind, delta)

    def describe(self, op):
        kind, spec = op
        return "%s(rank %d over %s)" % (kind, len(spec["rows"]), spec["field"])


class LagrangianEnum(Workload):
    name = "lagrangian_enum"

    def ops(self):
        return ([("stein", s) for s in self.inputs]
                + [("points", s) for s in self.inputs])

    def work(self):
        total = 0
        for s in self.inputs:
            n = len(s["rows"])
            total += oracles.lagrangian_count(s["p"], n, s["split"])
            total += oracles.isotropic_point_count(s["p"], n, s["split"])
        return {"lagrangian_enum.subspaces": total}

    def call(self, op):
        kind, spec = op
        q = self._form(spec["p"], spec["rows"])
        if kind == "stein":
            return self.qc.lagrangian.stein_vs_center(q)
        return self.qc.lagrangian.enumerate_isotropic(q, 0)

    def verify(self, op, answer):
        kind, spec = op
        if kind == "stein":
            oracles.check_stein(spec["rows"], spec["p"], spec["split"], answer.count,
                                answer.component_sizes, answer.delta_is_square,
                                answer.extension_used, answer.matches_center)
        else:
            oracles.check_points(spec["rows"], spec["p"], spec["split"], len(answer))

    def describe(self, op):
        kind, spec = op
        return "%s(rank %d over F%d)" % (kind, len(spec["rows"]), spec["p"])


class CliJobs(Workload):
    name = "cli_jobs"

    def ops(self):
        return self.inputs

    def work(self):
        return {"cli_jobs.jobs": len(self.inputs)}

    def call(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.qc.cli.main(list(job["argv"]))
        return code, out.getvalue(), err.getvalue()

    def verify(self, job, answer):
        code, out, err = answer
        if code not in (0, 1):
            return "exit code %d: %s" % (code, err.strip())
        return oracles.check_cli(job, code, json.loads(out))

    def describe(self, job):
        return " ".join(job["argv"][:3])


WORKLOADS = {w.name: w for w in (PencilSearch, AlgebraBuild, LagrangianEnum, CliJobs)}
