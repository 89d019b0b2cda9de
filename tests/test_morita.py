"""Explicit Morita equivalence after splitting a hyperbolic plane."""

import pytest
from hypothesis import given, settings, strategies as st

from quadclif.rings import QQ, PrimeField, quadratic_extension
from quadclif.quadform import QuadraticForm
from quadclif.clifford import even_clifford, center_report
from quadclif.morita import build_P, endomorphism_algebra, morita_witness
from quadclif.splitting import DEFAULT_BUDGET, find_isotropic, split_hyperbolic

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

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
    alg, mats = endomorphism_algebra(P)
    assert alg.dim == len(mats) == 4

    # rest = xy: module dim 4, End dim 8
    P = build_P(QuadraticForm.hyperbolic(F5, 1))
    assert P.dim == 4
    assert endomorphism_algebra(P)[0].dim == 8

    # rest = diag(1,1): End dim 8 again
    P = build_P(QuadraticForm.diagonal(QQ, [1, 1]))
    assert endomorphism_algebra(P)[0].dim == 8

    # rest = diag(1,1,1): module dim 8 over the quaternion even part
    P = build_P(QuadraticForm.diagonal(F5, [1, 1, 1]))
    assert P.dim == 8
    assert endomorphism_algebra(P)[0].dim == 16


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
