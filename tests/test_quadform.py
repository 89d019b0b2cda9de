"""Quadratic form layer: restriction, radicals, discriminants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadclif.quadform import QuadraticForm
from quadclif.rings import QQ, PrimeField
from quadclif.splitting import split_hyperbolic

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def rand_form(rng, field, n, span=4):
    rows = [[field.from_int(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = field.from_int(rng.randint(-span, span))
    return QuadraticForm(field, rows)


def rand_vec(rng, field, n, span=4):
    return tuple(field.from_int(rng.randint(-span, span)) for _ in range(n))


def test_rejects_lower_triangular_noise():
    with pytest.raises(ValueError):
        QuadraticForm(QQ, [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(1)]])


def test_evaluate_diagonal():
    q = QuadraticForm.diagonal(QQ, [1, 2, 3])
    assert q.evaluate((Fraction(1), Fraction(1), Fraction(1))) == 6
    assert q.evaluate((Fraction(2), Fraction(0), Fraction(-1))) == 7


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_polar_identity(seed, n):
    rng = random.Random(seed)
    q = rand_form(rng, QQ, n)
    u, v = rand_vec(rng, QQ, n), rand_vec(rng, QQ, n)
    uv = tuple(a + b for a, b in zip(u, v))
    assert q.polar(u, v) == q.evaluate(uv) - q.evaluate(u) - q.evaluate(v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_polar_identity_char2(seed, n):
    rng = random.Random(seed)
    q = rand_form(rng, F2, n)
    u, v = rand_vec(rng, F2, n), rand_vec(rng, F2, n)
    uv = tuple(a + b for a, b in zip(u, v))
    assert q.polar(u, v) == q.evaluate(uv) - q.evaluate(u) - q.evaluate(v)
    assert not q.polar(u, u)  # alternating in characteristic 2


def test_hyperbolic_polar_determinant():
    # det of the polar matrix of H(m) is (-1)^m
    for m in (1, 2, 3):
        h = QuadraticForm.hyperbolic(QQ, m)
        assert h.polar_matrix().det() == Fraction((-1) ** m)
        assert h.discriminant() == Fraction((-1) ** m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 3))
def test_restrict_agrees_with_evaluation(seed, n, m):
    rng = random.Random(seed)
    q = rand_form(rng, QQ, n)
    basis = [rand_vec(rng, QQ, n) for _ in range(m)]
    r = q.restrict(basis)
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        v = tuple(
            sum((c * b[i] for c, b in zip(coeffs, basis)), Fraction(0))
            for i in range(n)
        )
        assert r.evaluate(tuple(coeffs)) == q.evaluate(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 3))
def test_restrict_agrees_with_evaluation_char2(seed, n, m):
    rng = random.Random(seed)
    q = rand_form(rng, F2, n)
    basis = [rand_vec(rng, F2, n) for _ in range(m)]
    r = q.restrict(basis)
    for _ in range(8):
        coeffs = [F2.from_int(rng.randint(0, 1)) for _ in range(m)]
        v = tuple(
            sum((c * b[i] for c, b in zip(coeffs, basis)), F2.zero())
            for i in range(n)
        )
        assert r.evaluate(tuple(coeffs)) == q.evaluate(v)


def test_reduced_form_frozen_example():
    # q = <1, -1, 1, 1>, N = (1, 1, 0, 0) isotropic; the quotient
    # N-perp / k N, carried by the complement of a hyperbolic pair
    # through N, is <1, 1>
    q = QuadraticForm.diagonal(QQ, [1, -1, 1, 1])
    v = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    assert not q.evaluate(v)
    red = split_hyperbolic(q, v)[2]
    assert red.n == 2
    assert red == QuadraticForm.diagonal(QQ, [1, 1])


def test_split_radical_exact_decomposition():
    # <1, 0, 2> over Q: radical is the middle coordinate
    q = QuadraticForm.diagonal(QQ, [1, 0, 2])
    rad, comp, q_rad, q_reg = q.split_radical()
    assert len(rad) == 1 and len(comp) == 2
    assert q_reg == QuadraticForm.diagonal(QQ, [1, 2])
    assert not any(q_rad.c[0])
    for r in rad:
        for w in comp:
            assert not q.polar(r, w)


def test_split_radical_char2_keeps_quasilinear_part():
    # x^2 + y z over F_2: the polar radical contains e_0 but q(e_0) = 1
    rows = [[F2.one(), F2.zero(), F2.zero()],
            [F2.zero(), F2.zero(), F2.one()],
            [F2.zero(), F2.zero(), F2.zero()]]
    q = QuadraticForm(F2, rows)
    rad, comp, q_rad, q_reg = q.split_radical()
    assert len(rad) == 1
    assert q_rad.evaluate((F2.one(),)) == F2.one()  # nonzero on the radical
    assert q_reg == QuadraticForm.hyperbolic(F2, 1)


def test_discriminant_frozen_examples():
    # diag(1, 2, 3): det B = 48, half-determinant 24, square class 6
    q = QuadraticForm.diagonal(QQ, [1, 2, 3])
    assert q.discriminant() == Fraction(24)
    assert QQ.is_square(q.discriminant() / 6)
    # H(2): det B = 1
    h2 = QuadraticForm.hyperbolic(QQ, 2)
    assert h2.polar_matrix().det() == Fraction(1)
    assert h2.discriminant() == Fraction(1)


def test_adding_hyperbolic_plane_negates_discriminant_class():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 3)
        q = rand_form(rng, QQ, n)
        if q.n % 2 == 1 and not q.polar_matrix().det():
            continue
        try:
            d = q.discriminant()
        except ValueError:
            continue
        qq = q.direct_sum(QuadraticForm.hyperbolic(QQ, 1))
        if d:
            assert qq.discriminant() and QQ.is_square(qq.discriminant() / -d)
        else:
            assert not qq.discriminant()


def test_odd_rank_char2_discriminant_rejected():
    q = QuadraticForm.diagonal(F2, [1, 1, 1])
    with pytest.raises(ValueError):
        q.discriminant()


def test_direct_sum():
    q = QuadraticForm.diagonal(QQ, [1, -1])
    d = q.direct_sum(QuadraticForm.diagonal(QQ, [5]))
    assert d.n == 3 and d.coeff(2, 2) == 5


def test_radical_basis_deterministic():
    q = QuadraticForm.diagonal(F3, [0, 1, 0])
    r1 = q.radical_basis()
    r2 = QuadraticForm.diagonal(F3, [0, 1, 0]).radical_basis()
    assert r1 == r2 and len(r1) == 2
