"""Explicit Morita equivalence after splitting a hyperbolic plane."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gauss_jordan
from quadclif import morita
from quadclif.corpus import morita_corpus
from quadclif.rings import QQ, InvariantViolation, PrimeField, quadratic_extension, scalar_str
from quadclif.quadform import QuadraticForm
from quadclif.clifford import even_clifford, center_report, full_clifford
from quadclif.morita import build_P, endomorphism_algebra, morita_witness
from quadclif.splitting import DEFAULT_BUDGET, find_isotropic, split_hyperbolic

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = quadratic_extension(F3)

ALL_CHECKS = (
    "unit-preserved",
    "multiplicative-on-all-pairs",
    "lands-in-endomorphism-algebra",
    "injective",
    "dimensions-match-hence-bijective",
)


def hyp_plus(field, entries):
    return QuadraticForm.hyperbolic(field, 1).direct_sum(
        QuadraticForm.diagonal(field, entries))


def split_and_certify(q):
    """Split a plane off q through a found isotropic vector and certify
    the rest; the certified ambient must be q in the split coordinates."""
    v = find_isotropic(q, DEFAULT_BUDGET)
    assert v is not None
    w, comp, rest = split_hyperbolic(q, v)
    basis = [v, w] + comp
    wit = morita_witness(rest)
    assert wit.ambient == q.restrict(basis)
    return wit, basis


def test_all_checks_run_in_order():
    w = morita_witness(QuadraticForm.diagonal(F5, [1]))
    assert w.checks == ALL_CHECKS


def test_dimension_bookkeeping():
    for entries in ([1], [1, 2], [1, 1, 2]):
        w = morita_witness(QuadraticForm.diagonal(F3, entries))
        n = 2 + len(entries)
        assert w.ambient == hyp_plus(F3, entries)
        assert w.dim_even == w.dim_end == 2 ** (n - 1)
        assert len(w.matrix) == w.dim_even
        assert w.checks == ALL_CHECKS


def test_rational_pipeline():
    q = QuadraticForm.diagonal(QQ, [1, -1, 2, 3])
    w, basis = split_and_certify(q)
    assert w.ambient.n == 4
    # the basis witnesses the plane inside the original coordinates
    v, u = basis[0], basis[1]
    assert q.evaluate(v) == QQ.zero()
    assert q.evaluate(u) == QQ.zero()
    assert q.polar(v, u) == QQ.one()


def test_char2_regular_complement():
    w = morita_witness(QuadraticForm.of_ints(F2, [[1, 1], [0, 1]]))
    assert w.checks == ALL_CHECKS
    assert w.dim_even == w.dim_end == 8


def test_char2_hyperbolic_complement():
    # the complement has no nonzero squares, only a nonzero cross term
    w = morita_witness(QuadraticForm.hyperbolic(F2, 1))
    assert w.checks == ALL_CHECKS
    assert w.dim_even == w.dim_end == 8


def test_zero_complement_rejected():
    # the module is not free over an exterior algebra; refuse the input
    # instead of reporting a broken theorem
    for field, n in ((F5, 1), (QQ, 1), (F3, 2)):
        with pytest.raises(ValueError):
            morita_witness(QuadraticForm.zero_form(field, n))


def test_extension_field():
    F9 = quadratic_extension(F3)
    w = morita_witness(QuadraticForm.diagonal(F9, [F9.one(), F9.from_int(2)]))
    assert w.ambient.n == 4
    assert w.dim_even == w.dim_end == 8
    assert w.checks == ALL_CHECKS


def test_morita_partners_share_center_kind():
    # the plane contributes a hyperbolic factor, which negates the
    # determinant once; the even centers on both sides have the same
    # kind because delta picks up the same square class
    for entries in ([1, 2], [1, 1], [2, 2], [1, 3]):
        q = hyp_plus(F5, entries)
        amb = center_report(even_clifford(q))
        rest = center_report(even_clifford(QuadraticForm.diagonal(F5, entries)))
        assert amb.dim == 2 and rest.dim == 2
        assert amb.kind == rest.kind


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
def test_random_complements_f5(entries):
    w = morita_witness(QuadraticForm.diagonal(F5, entries))
    assert w.checks == ALL_CHECKS
    assert w.dim_even == w.dim_end == 2 ** (len(entries) + 1)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=4),
       st.integers(min_value=0, max_value=10))
def test_pipeline_random_isotropic_f3(entries, salt):
    # make the form isotropic by construction: include 1 and -1
    q = QuadraticForm.diagonal(F3, [1, 2] + entries)
    w, basis = split_and_certify(q)
    assert w.ambient.n == q.n
    assert q.restrict(basis).c[0][1] == F3.one()


# -- the module and its endomorphism algebra ---------------------------


def test_module_and_end_dimensions():
    # rest = <1>: module of dim 2 over the ground field, End is 2x2
    P = build_P(QuadraticForm.diagonal(QQ, [1]))
    assert P.dim == 2
    assert len(endomorphism_algebra(P)[0]) == 4

    # rest = xy: module dim 4, End dim 8
    P = build_P(QuadraticForm.hyperbolic(F5, 1))
    assert P.dim == 4
    assert len(endomorphism_algebra(P)[0]) == 8

    # rest = diag(1,1): End dim 8 again
    P = build_P(QuadraticForm.diagonal(QQ, [1, 1]))
    assert len(endomorphism_algebra(P)[0]) == 8

    # rest = diag(1,1,1): module dim 8 over the quaternion even part
    P = build_P(QuadraticForm.diagonal(F5, [1, 1, 1]))
    assert P.dim == 8
    assert len(endomorphism_algebra(P)[0]) == 16


def test_module_rank_cap():
    with pytest.raises(ValueError):
        build_P(QuadraticForm.diagonal(F3, [1, 1, 1, 1, 1]))


def test_witness_smallest():
    w = morita_witness(QuadraticForm.diagonal(QQ, [1]))
    assert w.dim_even == w.dim_end == 4
    assert len(w.matrix) == 4 and all(len(r) == 4 for r in w.matrix)
    assert w.matches_power_formula
    assert "multiplicative-on-all-pairs" in w.checks
    assert "dimensions-match-hence-bijective" in w.checks


def test_witness_rank3_f5():
    w = morita_witness(QuadraticForm.diagonal(F5, [1, 1, 1]))
    assert w.dim_end == 16
    assert w.matches_power_formula


def test_witness_degenerate_rank4_f3():
    qp = QuadraticForm.diagonal(F3, [1, 1, 1, 0])
    w = morita_witness(qp)
    assert w.dim_end == 32
    # the power formula counts the regular rank, which the radical breaks
    assert not w.matches_power_formula
    # both even centers degenerate to dual numbers
    amb = center_report(even_clifford(w.ambient))
    rest = center_report(even_clifford(qp))
    assert amb.kind == rest.kind == "dual"


def test_witness_center_square_classes_match():
    # even rank: the two center deltas lie in the same square class
    for field, entries in ((F5, [1, 2]), (F5, [1, 1]), (F3, [1, 1]),
                           (QQ, [1, 3])):
        qp = QuadraticForm.diagonal(field, entries)
        w = morita_witness(qp)
        amb = center_report(even_clifford(w.ambient))
        rest = center_report(even_clifford(qp))
        assert amb.dim == rest.dim == 2
        assert (amb.delta == field.zero()) == (rest.delta == field.zero())
        if amb.delta:
            assert field.sqrt(amb.delta / rest.delta) is not None


# -- the End solve, pinned against the full system ----------------------


def _full_kernel_basis(P):
    """The reference Gauss-Jordan kernel of X M - M X = 0 for the action
    of every even basis element, X flattened row-major."""
    field, dim = P.qp.field, P.dim
    z = field.zero()
    rows = []
    for m in P.action:
        m = [[P.coding.decode(e) for e in row] for row in m]
        for i in range(dim):
            for j in range(dim):
                row = [z] * (dim * dim)
                for k in range(dim):
                    row[i * dim + k] = row[i * dim + k] + m[k][j]
                    row[k * dim + j] = row[k * dim + j] - m[i][k]
                rows.append(row)
    return [tuple(tuple(v[i * dim:(i + 1) * dim]) for i in range(dim))
            for v in gauss_jordan.kernel_basis(field, rows)]


def _unit_first(field, ident, sols):
    """The identity, then every solution independent of those before."""
    flat = lambda m: [e for row in m for e in row]  # noqa: E731
    basis = [ident]
    for s in sols:
        if len(gauss_jordan.rref(field, [flat(b) for b in basis + [s]])[1]) == len(basis) + 1:
            basis.append(s)
    return basis


PINNED_MODULES = [
    QuadraticForm.hyperbolic(F2, 1),
    QuadraticForm.of_ints(F2, [[1, 1], [0, 1]]),
    QuadraticForm.diagonal(F3, [1, 2, 0]),
    QuadraticForm.diagonal(F5, [1, 2]),
    QuadraticForm.diagonal(F5, [3]),
    QuadraticForm.diagonal(QQ, [1, 2, -3]),
    QuadraticForm.diagonal(QQ, [Fraction(1, 2), 3]),
    QuadraticForm.diagonal(F9, [F9.one(), F9.gen()]),
]


@pytest.mark.parametrize("qp", PINNED_MODULES,
                         ids=lambda q: "%s-%s" % (q.field.label(), q.n))
def test_end_basis_is_the_echelon_kernel_of_the_full_system(qp):
    P = build_P(qp)
    want = _full_kernel_basis(P)
    # the parity-block solve, on every even element or only on the
    # degree-2 generators, gives the same matrices in the same order
    free, sols, scales = morita._commutant(P.coding, P.parity, P.action)
    decoded = [tuple(tuple(P.coding.decode(e, s) for e in row) for row in m.tolist())
               for m, s in zip(sols, scales)]
    assert decoded == want
    assert len(free) == len(want)
    field = qp.field
    ident = tuple(tuple(field.one() if i == j else field.zero() for j in range(P.dim))
                  for i in range(P.dim))
    # the End basis comes back coded, as matrices over their scales
    end = [tuple(tuple(P.coding.decode(e, s) for e in row) for row in m.tolist())
           for m, s in zip(*endomorphism_algebra(P))]
    assert end == _unit_first(field, ident, want)


def test_witness_on_non_integral_rational_rest():
    for entries in ([Fraction(1, 2), 3], [Fraction(1, 2), Fraction(-2, 3), 5]):
        w = morita_witness(QuadraticForm.diagonal(QQ, entries))
        assert w.checks == ALL_CHECKS
        assert w.dim_even == w.dim_end == 2 ** (len(entries) + 1)
        # no float from an int / int division inside the coded elimination
        assert all(type(e) is Fraction for row in w.matrix for e in row)
    assert any(e.denominator != 1 for row in w.matrix for e in row)


# the answers of the witness before its End basis stayed coded: dimensions,
# checks, and a digest of the matrix written out with scalar_str
PINNED_WITNESSES = json.loads(
    (Path(__file__).parent / "data" / "morita_witness.json").read_text())
F9_RESTS = [QuadraticForm.diagonal(F9, e)
            for e in ([1], [1, 2], [F9.gen(), 1], [1, 1, 2], [1, F9.gen(), 2])]


def test_witnesses_match_the_pinned_answers():
    rests = morita_corpus() + F9_RESTS
    assert len(rests) == len(PINNED_WITNESSES)
    for qp, pin in zip(rests, PINNED_WITNESSES):
        assert [qp.field.label(), [scalar_str(qp.c[i][i]) for i in range(qp.n)]] \
            == [pin["field"], pin["diagonal"]]
        w = morita_witness(qp)
        strs = [[scalar_str(x) for x in row] for row in w.matrix]
        assert (w.dim_even, w.dim_end, list(w.checks)) \
            == (pin["dim_even"], pin["dim_end"], pin["checks"])
        assert hashlib.sha256(json.dumps(strs).encode()).hexdigest() == pin["matrix_sha256"]


def test_the_only_full_algebra_built_is_that_of_the_rest(monkeypatch):
    # the ambient side needs only its even algebra
    built = []

    def counted(form):
        built.append(form.n)
        return full_clifford(form)

    monkeypatch.setattr(morita, "full_clifford", counted)
    morita_witness(QuadraticForm.diagonal(F5, [1, 2, 3]))
    assert built == [3]


# -- faults -----------------------------------------------------------------


def test_corrupted_pair_image_is_not_multiplicative(monkeypatch):
    real = morita._pair_images

    def corrupted(P, n):
        pairs = real(P, n)
        pairs[2, 3] = P.coding.reduce(2 * pairs[2, 3])
        return pairs

    monkeypatch.setattr(morita, "_pair_images", corrupted)
    with pytest.raises(InvariantViolation) as err:
        morita_witness(QuadraticForm.diagonal(F5, [1, 2]))
    assert err.value.invariant == "witness-multiplicative"


def _generator_positions(P):
    return [k for k, a in enumerate(P.even_idx) if bin(P.cp.masks[a]).count("1") == 2]


def test_action_mixing_parities_breaks_the_grading(monkeypatch):
    P = build_P(QuadraticForm.diagonal(F3, [1, 1, 2]))
    # one generator now sends an odd basis vector into the even summand
    P.action[_generator_positions(P)[0], P.parity.index(0), P.parity.index(1)] = 1

    def no_solve(*args):
        raise AssertionError("a block was solved before the grading was checked")

    monkeypatch.setattr(morita, "coded_kernel", no_solve)
    with pytest.raises(InvariantViolation) as err:
        endomorphism_algebra(P)
    assert err.value.invariant == "module-grading"


def test_commutant_without_the_identity_is_refused(monkeypatch):
    real = morita._commutant

    def zeroed(coding, parity, gens):
        free, sols, scales = real(coding, parity, gens)
        return free, coding.reduce(0 * sols), scales

    monkeypatch.setattr(morita, "_commutant", zeroed)
    with pytest.raises(InvariantViolation) as err:
        endomorphism_algebra(build_P(QuadraticForm.diagonal(F5, [1, 2])))
    assert err.value.invariant == "endomorphism-unit"


def test_dropped_generators_break_the_dimension_count():
    P = build_P(QuadraticForm.diagonal(F5, [1, 2, 3]))
    P.action[_generator_positions(P)] = 0
    with pytest.raises(InvariantViolation) as err:
        endomorphism_algebra(P)
    assert err.value.invariant == "endomorphism-dimension"
