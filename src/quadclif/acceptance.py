"""Executable acceptance battery.

Each check is a zero-argument function that either returns a one-line
detail string or raises; run_all wraps them so one falsified invariant
cannot take down the rest of the battery.  Every corpus used here is
seeded, so the battery is a pure function and its report is reproducible
byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .clifford import (
    even_center_report,
    even_clifford,
    hyperbolic_split_structure,
    verify_orthogonal_sum,
)
from .corpus import (
    FIELDS,
    all_diagonal_forms,
    form_corpus,
    isotropic_form_corpus,
    morita_corpus,
    orthogonal_pair_corpus,
    rank5_pencil_corpus,
    squarefree_pencil_corpus,
)
from .lagrangian import stein_vs_center
from .morita import morita_witness
from .pencil import (
    amer_brumer_check,
    analyze,
    brauer_triviality_rank4,
    common_isotropic_plane_rank6,
    cover_model,
    pencil_isotropy_witness,
)
from .quadform import QuadraticForm
from .rings import InvariantViolation
from .splitting import split_hyperbolic


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def check_clifford_dimension():
    forms = form_corpus()
    for q in forms:
        alg = even_clifford(q)
        if alg.dim != 2 ** (q.n - 1):
            raise InvariantViolation(
                "clifford-dimension",
                "dim C0 = %d for a rank-%d form" % (alg.dim, q.n))
    degen = sum(1 for q in forms if q.regular_rank() < q.n)
    return ("%d forms (ranks 1-7 over Q/F2/F3/F5, %d degenerate): "
            "dim C0 = 2^(n-1) throughout" % (len(forms), degen))


def check_orthogonal_sum():
    pairs = orthogonal_pair_corpus()
    for a, b in pairs:
        verify_orthogonal_sum(a, b)
    return ("%d pairs of total rank <= 6 over F3/F5: graded tensor "
            "identification multiplicative and bijective" % len(pairs))


def check_hyperbolic_fibers():
    dims = []
    for name in ("Q", "F3"):
        for m in (1, 2, 3):
            rep = hyperbolic_split_structure(m, FIELDS[name])
            want = (2 ** (m - 1)) ** 2
            if rep["fiber_dims"] != (want, want):
                raise InvariantViolation(
                    "hyperbolic-fiber-dim",
                    "H(%d) fibers %r" % (m, rep["fiber_dims"]))
            dims.append(want)
    return ("split center with central simple fiber dims %s over Q and F3"
            % sorted(set(dims)))


def check_reduction_invariance():
    samples = isotropic_form_corpus()
    even = 0
    for q, v in samples:
        field = q.field
        rad0 = q.n - q.regular_rank()
        _, _, qp = split_hyperbolic(q, v)
        if qp.n - qp.regular_rank() != rad0:
            raise InvariantViolation(
                "reduction-radical", "radical dimension changed under splitting")
        d1, d2 = q.discriminant(), qp.discriminant()
        if (not d1) != (not d2):
            raise InvariantViolation(
                "reduction-discriminant", "discriminant vanishing flipped")
        if not field.is_square(-(d1 * d2)):
            raise InvariantViolation(
                "reduction-discriminant",
                "square class broke: disc(q) is not -disc(q') mod squares")
        if q.n % 2 == 0:
            even += 1
            _, r1 = even_center_report(q)
            _, r2 = even_center_report(qp)
            if r1.dim != r2.dim:
                raise InvariantViolation(
                    "reduction-center", "center dims %d vs %d" % (r1.dim, r2.dim))
            if r1.delta is not None and r2.delta is not None:
                if (not r1.delta) != (not r2.delta):
                    raise InvariantViolation(
                        "reduction-center", "center discriminant vanishing flipped")
                if not field.is_square(r1.delta * r2.delta):
                    raise InvariantViolation(
                        "reduction-center", "center delta square class broke")
    return ("%d forms (ranks 3-6 over F3/F5/Q) split through a regular "
            "isotropic vector: radical and discriminant class preserved, "
            "%d even-rank center comparisons" % (len(samples), even))


def check_morita_witness():
    forms = morita_corpus()
    for qp in forms:
        wit = morita_witness(qp)
        if wit.dim_even != wit.dim_end or not wit.checks:
            raise InvariantViolation(
                "morita-dimension",
                "dim C0 = %d vs dim End = %d" % (wit.dim_even, wit.dim_end))
    return ("%d forms of rank <= 4 over F3/F5/Q (radical-dim-1 included): "
            "even algebra maps onto End(P) multiplicatively and bijectively"
            % len(forms))


def check_isotropy_correspondence():
    total = 0
    for p in (2, 3):
        field = FIELDS["F%d" % p]
        for n in (3, 4):
            forms = all_diagonal_forms(field, n, regular_only=True)
            for q1 in forms:
                for q2 in forms:
                    amer_brumer_check(q1, q2, max_degree=3)
                    total += 1
    return ("%d ordered diagonal pairs of ranks 3 and 4 over F2/F3: "
            "common zeros and degree <= 3 pencil sections agree, "
            "zero violations" % total)


def check_function_field_witness():
    pens = rank5_pencil_corpus()
    worst = -1
    for pen in pens:
        v, _ = pencil_isotropy_witness(pen.q1, pen.q2, max_degree=3)
        if v is None:
            raise InvariantViolation(
                "c2-witness", "no degree <= 3 witness for a rank-5 pencil over F3")
        worst = max(worst, max(c.degree() for c in v))
    return ("%d rank-5 pencils over F3: isotropy witness found at degree "
            "<= 3 every time (max seen %d)" % (len(pens), worst))


def check_cover_genus():
    counts = []
    for n, fname, want in ((4, "Q", 1), (4, "F5", 1), (6, "Q", 2), (6, "F5", 2)):
        pens = squarefree_pencil_corpus(n, fname)
        for pen in pens:
            cm = cover_model(analyze(pen))
            if cm.genus != want:
                raise InvariantViolation(
                    "cover-genus",
                    "rank-%d cover over %s has genus %d" % (n, fname, cm.genus))
        counts.append(len(pens))
    return ("%d squarefree pencils (rank 4 and 6, over Q and F5): genus "
            "1 and 2 as the rank dictates" % sum(counts))


def check_components_vs_center():
    total = 0
    for p in (3, 5):
        field = FIELDS["F%d" % p]
        for q in all_diagonal_forms(field, 4, regular_only=True):
            r = stein_vs_center(q)
            total += 1
            if not r.matches_center:
                raise InvariantViolation(
                    "stein-center", "component picture disagrees with the center")
            if r.delta_is_square:
                if r.extension_used or r.count != 2 * (p + 1):
                    raise InvariantViolation(
                        "stein-count",
                        "split rank-4 over F%d: %d lagrangians" % (p, r.count))
            else:
                if not (r.extension_used and r.frobenius_swaps is True
                        and r.count == 2 * (p * p + 1)):
                    raise InvariantViolation(
                        "stein-frobenius",
                        "nonsquare delta over F%d: count %d" % (p, r.count))
    return ("%d regular diagonal rank-4 forms over F3/F5: 2 components "
            "iff delta square, Frobenius swap otherwise, split count "
            "2(q+1)" % total)


def check_rank4_triviality():
    Q = FIELDS["Q"]
    q1 = QuadraticForm.diagonal(Q, [1, 1, 1, -3])
    q2 = QuadraticForm.diagonal(Q, [1, 2, -1, -2])
    verdict = brauer_triviality_rank4(q1, q2)
    if verdict.kind != "trivial":
        raise InvariantViolation(
            "brauer-verdict", "planted common zero but verdict %s" % verdict.kind)
    w = verdict.witness
    if q1.evaluate(w) or q2.evaluate(w):
        raise InvariantViolation(
            "brauer-witness", "witness does not vanish under both forms")
    return ("planted rank-4 pencil over Q: verdict trivial, witness "
            "vanishes under both forms")


_PLANE_ROWS_1 = [[0, 0, 1, 0, 2, 1], [0, 0, 0, 1, 1, 0], [0, 0, 1, 2, 0, 1],
                 [0, 0, 0, 2, 1, 0], [0, 0, 0, 0, 1, 2], [0, 0, 0, 0, 0, 1]]
_PLANE_ROWS_2 = [[0, 0, 2, 1, 0, 0], [0, 0, 1, 0, 2, 2], [0, 0, 2, 0, 1, 0],
                 [0, 0, 0, 1, 0, 2], [0, 0, 0, 0, 2, 1], [0, 0, 0, 0, 0, 2]]


def check_rank6_plane():
    f3 = FIELDS["F3"]
    q1 = QuadraticForm.of_ints(f3, _PLANE_ROWS_1)
    q2 = QuadraticForm.of_ints(f3, _PLANE_ROWS_2)
    rep = common_isotropic_plane_rank6(q1, q2)
    if rep.plane is None or not rep.beta_trivial:
        raise InvariantViolation(
            "plane-search", "planted common isotropic plane not found")
    u, v = rep.plane
    for q in (q1, q2):
        if q.evaluate(u) or q.evaluate(v) or q.polar(u, v):
            raise InvariantViolation(
                "plane-witness", "returned plane is not isotropic for both forms")
    return ("planted rank-6 pencil over F3: common isotropic plane found "
            "among %d candidates, class beta trivial" % rep.candidates)


ALL_CHECKS = (
    ("c01-clifford-dimension", check_clifford_dimension),
    ("c02-orthogonal-sum", check_orthogonal_sum),
    ("c03-hyperbolic-fibers", check_hyperbolic_fibers),
    ("c04-reduction-invariance", check_reduction_invariance),
    ("c05-matrix-algebra-witness", check_morita_witness),
    ("c06-isotropy-correspondence", check_isotropy_correspondence),
    ("c07-function-field-witness", check_function_field_witness),
    ("c08-cover-genus", check_cover_genus),
    ("c09-components-vs-center", check_components_vs_center),
    ("c10-rank4-triviality", check_rank4_triviality),
    ("c11-rank6-plane", check_rank6_plane),
)


def check_names():
    return [name for name, _ in ALL_CHECKS]


def run_all(names=None):
    """Run the battery (or a named subset) and collect results.

    An InvariantViolation inside a check marks that check failed with
    the invariant's name in the detail; any other exception is reported
    as an error.  The battery always runs to the end.
    """
    if names is None:
        picked = ALL_CHECKS
    else:
        wanted = set(names)
        unknown = wanted - {n for n, _ in ALL_CHECKS}
        if unknown:
            raise ValueError("unknown check(s): %s" % ", ".join(sorted(unknown)))
        picked = [(n, f) for n, f in ALL_CHECKS if n in wanted]
    results = []
    for name, fn in picked:
        t0 = time.perf_counter()
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail,
                                       time.perf_counter() - t0))
        except InvariantViolation as e:
            results.append(CheckResult(name, False, "invariant falsified: %s" % e,
                                       time.perf_counter() - t0))
        except Exception as e:  # noqa: BLE001 - battery must finish
            results.append(CheckResult(name, False, "error: %r" % e,
                                       time.perf_counter() - t0))
    return results
