"""Even Clifford construction, centers, central simplicity, Azumaya fibers."""

import random
from fractions import Fraction

import pytest

from quadclif.clifford import (
    CenterReport,
    StructuredAlgebra,
    azumaya_fibers,
    center_basis,
    center_report,
    even_clifford,
    full_clifford,
    hyperbolic_split_structure,
    inject_fault,
    is_central_simple,
    verify_orthogonal_sum,
)
from quadclif.quadform import QuadraticForm
from quadclif.rings import QQ, InvariantViolation, PrimeField

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


def test_dimensions_and_labels():
    for n in range(1, 8):
        q = QuadraticForm.diagonal(F3, [1] * n)
        a = even_clifford(q)
        assert a.dim == 2 ** (n - 1)
        assert a.labels[0] == "1"
    q = QuadraticForm.diagonal(QQ, [1, 1, 1])
    c = full_clifford(q)
    assert c.dim == 8


def test_rank_bounds_rejected():
    with pytest.raises(ValueError):
        even_clifford(QuadraticForm.diagonal(F3, [1] * 8))


def test_quaternion_example():
    # <1,1,1> gives (e12)^2 = (e13)^2 = -1, so the (-1,-1) quaternions
    a = even_clifford(QuadraticForm.diagonal(QQ, [1, 1, 1]))
    i12 = a.mask_index[0b011]
    i13 = a.mask_index[0b101]
    minus_one = {0: Fraction(-1)}
    assert a.mul_basis(i12, i12) == minus_one
    assert a.mul_basis(i13, i13) == minus_one
    # anticommute
    x = a.mul_elem({i12: Fraction(1)}, {i13: Fraction(1)})
    y = a.mul_elem({i13: Fraction(1)}, {i12: Fraction(1)})
    assert x == {k: -c for k, c in y.items()}
    assert is_central_simple(a)


def test_top_element_square_sign_formula():
    # (e_1 ... e_n)^2 = (-1)^(n(n-1)/2) prod q_i for diagonal forms
    rng = random.Random(2)
    for _ in range(12):
        n = rng.randint(1, 5)
        entries = [rng.choice([1, 2, 3, -1, -2]) for _ in range(n)]
        q = QuadraticForm.diagonal(QQ, entries)
        c = full_clifford(q)
        top = (1 << n) - 1
        got = c.mask_mul(top, top)
        want = Fraction((-1) ** (n * (n - 1) // 2))
        for e in entries:
            want *= e
        assert got == ({0: want} if want else {})


def test_full_associativity_at_dim_32():
    # exhaustive associativity for one rank-6 representative per field kind
    for field, entries in ((F3, [1, 2, 1, 1, 2, 2]), (F5, [1, 1, 2, 3, 1, 4])):
        q = QuadraticForm.diagonal(field, entries)
        a = even_clifford(q, check=False)
        assert a.verify_associativity(force_full=True)


def test_unit_check_catches_bad_table():
    with pytest.raises(InvariantViolation):
        StructuredAlgebra(QQ, 2, lambda i, j: {0: Fraction(1)})


def test_fault_injection_is_caught_and_clears():
    inject_fault("clifford-mul")
    try:
        with pytest.raises(InvariantViolation):
            even_clifford(QuadraticForm.diagonal(F3, [1, 1, 1, 1]))
    finally:
        inject_fault(None)
    even_clifford(QuadraticForm.diagonal(F3, [1, 1, 1, 1]))


def test_even_part_matches_full():
    for field, entries in ((QQ, [1, -1, 2]), (F2, [1, 1, 1, 1]), (F5, [1, 2, 3, 4])):
        q = QuadraticForm.diagonal(field, entries)
        full, even = full_clifford(q), even_clifford(q)
        for ms in even.masks:
            for mt in even.masks:
                assert full.mask_mul(ms, mt) == even.mask_mul(ms, mt)


def test_orthogonal_sum_graded_tensor():
    verify_orthogonal_sum(QuadraticForm.diagonal(QQ, [1, 2]), QuadraticForm.diagonal(QQ, [3, 1]))
    verify_orthogonal_sum(QuadraticForm.diagonal(F2, [1, 1]), QuadraticForm.hyperbolic(F2, 1))
    verify_orthogonal_sum(QuadraticForm.diagonal(F3, [1, 2, 1]), QuadraticForm.diagonal(F3, [2]))
    verify_orthogonal_sum(QuadraticForm.hyperbolic(F5, 1), QuadraticForm.diagonal(F5, [1, 3]))


# -- centers ----------------------------------------------------------------


def test_center_rank2_is_whole_algebra():
    a = even_clifford(QuadraticForm.diagonal(QQ, [2, 3]))
    assert len(center_basis(a)) == 2  # commutative


def test_center_odd_rank_trivial():
    for entries in ([1, 1, 1], [1, 2, 3, 1, 1], [2, 1, 1, 1, 2, 2, 1]):
        a = even_clifford(QuadraticForm.diagonal(F3, entries))
        assert center_report(a).kind == "trivial"


def test_hyperbolic_center_splits():
    for field in (QQ, F3, F5):
        rep = center_report(even_clifford(QuadraticForm.hyperbolic(field, 1)))
        assert rep.kind == "split"
        e1, e2 = rep.idempotents
        assert e1 and e2


def test_center_delta_matches_classical_formula():
    # for diagonal q of even rank n, delta is (-1)^(n(n-1)/2) prod q_i
    # up to squares (the square of the top basis element)
    rng = random.Random(4)
    for _ in range(10):
        n = rng.choice([2, 4])
        entries = [rng.choice([1, 2, 3]) for _ in range(n)]
        q = QuadraticForm.diagonal(F7, entries)
        rep = center_report(even_clifford(q))
        prod = F7.one()
        for e in entries:
            prod = prod * F7.from_int(e)
        want = F7.from_int((-1) ** (n * (n - 1) // 2)) * prod
        assert F7.square_class(rep.delta) == F7.square_class(want)


def test_center_delta_frozen_f5_examples():
    rep = center_report(even_clifford(QuadraticForm.diagonal(F5, [1, 1, 1, 2])))
    assert rep.kind == "field" and F5.square_class(rep.delta) == F5.from_int(2)
    rep0 = center_report(even_clifford(QuadraticForm.diagonal(F5, [1, 1, 1, 0])))
    assert rep0.kind == "dual"


def test_center_delta_vs_discriminant_class():
    # delta agrees with the discriminant class up to the sign (-1)^(n/2)
    rng = random.Random(9)
    for field in (QQ, F3, F5):
        for _ in range(6):
            n = rng.choice([2, 4, 6])
            entries = [rng.choice([1, 2, 3, 5]) for _ in range(n)]
            q = QuadraticForm.diagonal(field, entries)
            rep = center_report(even_clifford(q))
            if rep.dim != 2 or rep.delta is None:
                continue
            twist = field.from_int((-1) ** (n // 2))
            assert field.square_class(rep.delta) == field.square_class(twist * q.discriminant())


def test_char2_center_kinds():
    rep = center_report(even_clifford(QuadraticForm.hyperbolic(F2, 1)))
    assert rep.kind == "split" and rep.separable
    # x^2 + xy + y^2: anisotropic, center is F_4
    q = QuadraticForm(F2, [[F2.one(), F2.one()], [F2.zero(), F2.one()]])
    rep = center_report(even_clifford(q))
    assert rep.kind == "field" and rep.separable
    # degenerate diagonal char-2 form: inseparable center
    q = QuadraticForm.diagonal(F2, [1, 1])
    rep = center_report(even_clifford(q))
    assert not rep.separable


# -- central simplicity and fibers -------------------------------------------


def test_central_simplicity_across_fields_and_ranks():
    cases = [
        (QQ, [1, 1, 1]),
        (QQ, [1, 2, 3, 1, 1]),
        (F3, [1, 1, 2, 2, 1]),
        (F5, [1, 2, 3, 4, 1, 1, 2]),
        (F7, [1, 1, 1]),
    ]
    for field, entries in cases:
        a = even_clifford(QuadraticForm.diagonal(field, entries))
        assert is_central_simple(a)


def test_not_simple_when_split_center():
    a = even_clifford(QuadraticForm.hyperbolic(QQ, 1))
    assert not is_central_simple(a)


def test_degenerate_form_not_semisimple():
    # rank 3 with a radical line: C0 has nilpotents
    a = even_clifford(QuadraticForm.diagonal(F5, [1, 1, 0]))
    assert not is_central_simple(a)


def test_separability_fallback_char2():
    c = full_clifford(QuadraticForm.hyperbolic(F2, 1))
    assert is_central_simple(c)  # M_2(F_2): trace form degenerate, still simple
    a = even_clifford(QuadraticForm.diagonal(F2, [1, 1, 1]))
    assert not is_central_simple(a)  # inseparable center in char 2


def test_azumaya_regular_even_ranks():
    cases = [
        (QQ, [1, 2, 3, 5]),        # field center
        (QQ, [1, -1, 2, 3]),       # split center
        (F3, [1, 1, 1, 1]),
        (F5, [1, 2, 3, 4, 1, 1]),
    ]
    for field, entries in cases:
        q = QuadraticForm.diagonal(field, entries)
        rep = azumaya_fibers(even_clifford(q))
        assert rep.azumaya, (field.label(), entries, rep)


def test_azumaya_fails_at_degeneration():
    q = QuadraticForm.diagonal(F5, [1, 1, 1, 0])
    rep = azumaya_fibers(even_clifford(q))
    assert not rep.azumaya and not rep.etale_center
    assert rep.fibers and rep.fibers[0].central_simple  # reduced fiber is fine


def test_peirce_fibers_have_half_dimension():
    q = QuadraticForm.diagonal(F3, [1, 2, 1, 2])  # disc class forces split over F_3?
    rep = center_report(even_clifford(q))
    if rep.kind == "split":
        az = azumaya_fibers(even_clifford(q), rep)
        assert all(f.dim == 4 for f in az.fibers)
    h = QuadraticForm.hyperbolic(F3, 2)
    az = azumaya_fibers(even_clifford(h))
    assert az.azumaya and all(f.dim == 4 for f in az.fibers)


def test_lazy_table_only_fills_what_is_used():
    q = QuadraticForm.diagonal(F3, [1] * 7)
    a = even_clifford(q, check=False)
    a.mul_basis(1, 2)
    filled = sum(1 for row in a._table for cell in row if cell is not None)
    assert filled < 200  # unit checks plus the one requested product


def test_hyperbolic_split_structure():
    for m, fiber in ((1, 1), (2, 4), (3, 16)):
        r = hyperbolic_split_structure(m, F3)
        assert r["center"] == "split"
        assert r["fiber_dims"] == (fiber, fiber)
        assert r["total_dim"] == 2 ** (2 * m - 1)
    with pytest.raises(ValueError):
        hyperbolic_split_structure(4, F3)
