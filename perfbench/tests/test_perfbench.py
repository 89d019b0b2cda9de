"""Tests of the benchmark itself: oracles, generators, tracing, failures.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import arith
import gen
import oracles
import spans
import worker
from workloads import AlgebraBuild, CliJobs

QC = worker.import_program()
BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def form(field, rows):
    f = QC.rings.QQ if field == "Q" else QC.rings.PrimeField(field)
    return QC.quadform.QuadraticForm.of_ints(f, rows)


# -- oracles reject planted wrong answers ---------------------------------------


def _pair_with_zero():
    spec = next(s for s in gen.pencil_search_inputs(3) if not s["free"])
    return spec["q1"], spec["q2"], spec["p"]


def test_witness_oracle_rejects_corrupted_coordinate():
    q1, q2, p = _pair_with_zero()
    zero = [int(a) for a in arith.common_zeros(q1, q2, p)[0]]
    oracles.check_witness(q1, q2, p, [[a] for a in zero])
    for i, shift in itertools.product(range(len(zero)), range(1, p)):
        bad = list(zero)
        bad[i] = (bad[i] + shift) % p
        if any(arith.q_eval(q, bad) % p for q in (q1, q2)):
            break
    with pytest.raises(oracles.Refuted):
        oracles.check_witness(q1, q2, p, [[a] for a in bad])


def test_amer_brumer_oracle_against_program():
    q1, q2, p = _pair_with_zero()
    res = QC.pencil.amer_brumer_check(form(p, q1), form(p, q2), max_degree=3)
    zero = [a.v for a in res.common_zero]
    wit = [[c.v for c in f.coeffs] for f in res.witness]
    oracles.check_amer_brumer(q1, q2, p, res.common_zero_count, zero, wit)
    with pytest.raises(oracles.Refuted):
        oracles.check_amer_brumer(q1, q2, p, res.common_zero_count + 1, zero, wit)
    with pytest.raises(oracles.Refuted):
        oracles.check_amer_brumer(q1, q2, p, res.common_zero_count, zero, None)


def test_zero_free_pairs_have_no_witness_claim():
    spec = next(s for s in gen.pencil_search_inputs(3) if s["free"] and len(s["q1"]) == 3)
    q1, q2, p = spec["q1"], spec["q2"], spec["p"]
    oracles.check_amer_brumer(q1, q2, p, 0, None, None)
    with pytest.raises(oracles.Refuted):
        oracles.check_amer_brumer(q1, q2, p, 0, None, [[1], [0], [0]])


@pytest.mark.parametrize("field,rows,nonsquare", [
    (5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]], 2),
    ("Q", [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -3, 0], [0, 0, 0, 5]], 2),
])
def test_center_oracle_rejects_wrong_square_class(field, rows, nonsquare):
    p = None if field == "Q" else field
    alg = QC.clifford.even_clifford(form(field, rows))
    rep = QC.clifford.center_report(alg)
    delta = rep.delta.v if p else rep.delta
    oracles.check_even_algebra(rows, p, alg.dim, rep.kind, delta)
    with pytest.raises(oracles.Refuted):
        oracles.check_even_algebra(rows, p, alg.dim, rep.kind, delta * nonsquare)
    with pytest.raises(oracles.Refuted):
        oracles.check_even_algebra(rows, p, alg.dim + 1, rep.kind, delta)
    other = "split" if rep.kind == "field" else "field"
    with pytest.raises(oracles.Refuted):
        oracles.check_even_algebra(rows, p, alg.dim, other, delta)


def test_morita_oracle_rejects_off_by_one():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    wit = QC.morita.morita_witness(form(3, rows))
    oracles.check_morita(3, wit.dim_even, wit.dim_end, wit.checks)
    with pytest.raises(oracles.Refuted):
        oracles.check_morita(3, wit.dim_even, wit.dim_end - 1, wit.checks)


def test_lagrangian_oracles_reject_off_by_one():
    spec = gen.lagrangian_enum_inputs(5)[2]  # nonsplit rank 4 over F3
    assert not spec["split"]
    q = form(spec["p"], spec["rows"])
    rep = QC.lagrangian.stein_vs_center(q)
    args = (spec["rows"], spec["p"], spec["split"])
    oracles.check_stein(*args, rep.count, rep.component_sizes, rep.delta_is_square,
                        rep.extension_used, rep.matches_center)
    with pytest.raises(oracles.Refuted):
        oracles.check_stein(*args, rep.count + 1, rep.component_sizes,
                            rep.delta_is_square, rep.extension_used, rep.matches_center)
    a, b = rep.component_sizes
    with pytest.raises(oracles.Refuted):
        oracles.check_stein(*args, rep.count, (a + 1, b - 1), rep.delta_is_square,
                            rep.extension_used, rep.matches_center)
    points = QC.lagrangian.enumerate_isotropic(q, 0)
    oracles.check_points(*args, len(points))
    with pytest.raises(oracles.Refuted):
        oracles.check_points(*args, len(points) - 1)


def test_closed_form_counts():
    # hyperbolic rank 4 over F_q: (q+1)^2 points, rank 6: (q^2+1)(q^2+q+1)
    assert oracles.isotropic_point_count(3, 4, True) == 16
    assert oracles.isotropic_point_count(3, 4, False) == 10
    assert oracles.isotropic_point_count(3, 6, True) == 130
    assert oracles.lagrangian_count(3, 6, True) == 80


# -- Hasse-Minkowski ---------------------------------------------------------------


def _brute_isotropic(diag, height):
    for v in itertools.product(range(-height, height + 1), repeat=len(diag)):
        if any(v) and sum(a * x * x for a, x in zip(diag, v)) == 0:
            return True
    return False


def _diag_rows(diag):
    n = len(diag)
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def test_hasse_minkowski_ternary_matches_holzer_search():
    # squarefree, pairwise coprime coefficients: an isotropic form has a
    # zero with |x_i| <= sqrt(|a_j a_k|) (Holzer), inside the brute-force box
    base = (1, 2, 3, 5, 7)
    for a, b, c in itertools.combinations_with_replacement(base, 3):
        if math.gcd(a, b) > 1 or math.gcd(a, c) > 1 or math.gcd(b, c) > 1:
            continue
        for sb, sc in itertools.product((1, -1), repeat=2):
            diag = (a, sb * b, sc * c)
            box = math.isqrt(max(abs(diag[i] * diag[j]) for i, j in ((0, 1), (0, 2), (1, 2))))
            assert arith.isotropic_over_q(_diag_rows(diag)) == _brute_isotropic(diag, box), diag


@pytest.mark.parametrize("diag,isotropic", [
    ((1, 1, 1, 1), False),
    ((1, 1, 1, -7), False),  # 7 is not a sum of three squares
    ((1, 1, 1, -3), True),
    ((1, 1, -1, -1), True),
    ((1, 1, -3), False),
    ((1, 2, 3, 5, -7), True),
    ((1, 1), False),
    ((1, -4), True),
])
def test_hasse_minkowski_known_forms(diag, isotropic):
    assert arith.isotropic_over_q(_diag_rows(diag)) == isotropic


def test_hasse_minkowski_never_contradicts_a_found_zero():
    for diag in itertools.product((1, -1, 2, -2, 3, -5, 6), repeat=4):
        if _brute_isotropic(diag, 3):
            assert arith.isotropic_over_q(_diag_rows(diag)), diag


def test_diagonalization_handles_hyperbolic_blocks():
    rows = [[0, 1, 0], [0, 0, 0], [0, 0, 3]]
    diag = arith.diagonalize_q(rows)
    assert all(d != 0 for d in diag)
    assert arith.isotropic_over_q(rows)


# -- CLI reports -------------------------------------------------------------------


def _run_cli(job):
    return CliJobs(QC, 0).call(job)


def test_reduce_oracle_rejects_corrupted_pair_and_names_the_fault():
    jobs = gen.cli_jobs_inputs(2)
    seeded = next(j for j in jobs if j["kind"] == "reduce" and "known_fault" not in j)
    code, out, _ = _run_cli(seeded)
    report = json.loads(out)
    assert oracles.check_cli(seeded, code, report) is None
    v, w = report["hyperbolic_pairs"][0]
    report["hyperbolic_pairs"][0] = [v, [str(Fraction(w[0]) + 1)] + w[1:]]
    with pytest.raises(oracles.Refuted):
        oracles.check_cli(seeded, code, report)
    fixed = next(j for j in jobs if j.get("known_fault"))
    code, out, _ = _run_cli(fixed)
    assert oracles.check_cli(fixed, code, json.loads(out)) == "reduce-q-anisotropy"


def test_analyze_oracle_rejects_wrong_discriminant():
    job = next(j for j in gen.cli_jobs_inputs(4) if j["kind"] == "analyze")
    code, out, _ = _run_cli(job)
    report = json.loads(out)
    oracles.check_cli(job, code, report)
    p = None if job["field"] == "Q" else job["field"]
    wrong = Fraction(report["discriminant"]) + 1 if p is None else (int(report["discriminant"]) + 1) % p
    report["discriminant"] = str(wrong)
    with pytest.raises(oracles.Refuted):
        oracles.check_cli(job, code, report)


def test_pencil_discriminant_of_diagonal_pencil():
    q1, q2 = _diag_rows((1, 2, 3, 4)), _diag_rows((5, 6, 7, 8))
    want = [1]
    for a, b in zip((1, 2, 3, 4), (5, 6, 7, 8)):
        want = arith.poly_mul(want, [2 * a, 2 * b])
    assert arith.pencil_discriminant(q1, q2) == want
    assert arith.squarefree_binary(want)
    assert not arith.squarefree_binary(arith.poly_mul([1, 1], [1, 1]) + [0, 0])


# -- generators --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_generators_are_seeded(name):
    make = gen.GENERATORS[name]
    assert make(11) == make(11)
    assert make(11) != make(12)


def test_generator_make_up_is_fixed():
    for seed in range(3):
        pairs = gen.pencil_search_inputs(seed)
        assert sum(s["free"] for s in pairs) == 6 and len(pairs) == 30
        for s in pairs:
            assert (arith.common_zero_count(s["q1"], s["q2"], 3) == 0) == s["free"]
        jobs = gen.cli_jobs_inputs(seed)
        assert sum(1 for j in jobs if j.get("known_fault")) == len(gen.REDUCE_ANISOTROPIC)
        for j in jobs:
            if j["kind"] == "fourfold":
                assert arith.has_common_isotropic_plane(j["q1"], j["q2"], 3)


# -- failures are counted, not fatal -------------------------------------------------


def _faulted_check(w):
    QC.clifford.inject_fault("clifford-mul")
    try:
        return w.check(w.run_round())
    finally:
        QC.clifford.inject_fault(None)


def test_algebra_build_under_fault_reports_failed_ops():
    w = AlgebraBuild(QC, 1)
    w.inputs = {"algebras": [s for s in w.inputs["algebras"] if len(s["rows"]) in (3, 4)],
                "morita": []}
    attempted, failed, problems = _faulted_check(w)
    assert attempted == len(w.inputs["algebras"]) and failed == attempted
    assert all(kind == "failed" for kind, _ in problems)
    answers = w.run_round()
    assert all(dt > 0 and ref > 0 for _, _, dt, ref in answers)
    attempted, failed, problems = w.check(answers)
    assert failed == 0 and not problems


def test_fault_in_a_rank_two_algebra_is_refuted_by_the_oracle():
    # a 2-dimensional algebra stays associative under the corrupted
    # constant, so only the center formula catches it
    w = AlgebraBuild(QC, 1)
    w.inputs = {"algebras": [{"field": 5, "rows": [[1, 0], [0, 2]]}], "morita": []}
    attempted, failed, problems = _faulted_check(w)
    assert (attempted, failed) == (1, 0)
    assert [kind for kind, _ in problems] == ["refuted"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_jobs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "quadclif" in proc.stderr


# -- tracing -----------------------------------------------------------------------------


def test_tracer_nests_spans_and_splits_self_time():
    tracer = spans.install()
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    QC.lagrangian.stein_vs_center(form(3, rows))
    tree = {tuple(d["path"].split("/")): d for d in tracer.dump()}
    top = tree[("lagrangian.stein_vs_center",)]
    child = tree[("lagrangian.stein_vs_center", "clifford.even_clifford")]
    assert top["calls"] == 1 and child["calls"] == 1
    kids = sum(d["total_s"] for p, d in tree.items() if len(p) == 2)
    assert top["self_s"] == pytest.approx(top["total_s"] - kids)
