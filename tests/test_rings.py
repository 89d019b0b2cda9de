"""Field, polynomial, and matrix layer, cross-checked against sympy.

sympy is used here as an independent oracle only; the package itself
never imports it.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quadclif.rings import (
    QQ,
    BinaryForm,
    ExtensionField,
    FunctionField,
    Matrix,
    Poly,
    PrimeField,
    RatFunc,
    factor_roots_prime_field,
    find_irreducible,
    poly_gcd,
    poly_is_irreducible,
    quadratic_extension,
    rational_roots,
    scalar_str,
    squarefree_decomposition,
)

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


def to_sympy(f, sym):
    return sum(sympy.Integer(c if isinstance(c, int) else c.v) * sym**i for i, c in enumerate(f.coeffs))


def rand_poly(rng, field, max_deg):
    d = rng.randrange(max_deg + 1)
    return Poly(field, "t", [field.from_int(rng.randrange(50)) for _ in range(d + 1)])


# ---------------------------------------------------------------------------
# prime fields


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1 << 16)
    with pytest.raises(ValueError):
        PrimeField(65535)  # 3 * 5 * 17 * 257


def test_fp_arithmetic_matches_int_model():
    rng = random.Random(11)
    for p in (2, 3, 7, 251):
        F = PrimeField(p)
        for _ in range(200):
            a, b = rng.randrange(p), rng.randrange(p)
            x, y = F.from_int(a), F.from_int(b)
            assert (x + y).v == (a + b) % p
            assert (x * y).v == (a * b) % p
            assert (x - y).v == (a - b) % p
            if b:
                assert ((x / y) * y).v == a


def test_fp_square_class_partition():
    for p in (3, 5, 7, 13):
        F = PrimeField(p)
        classes = {F.square_class(e) for e in F.elements()}
        assert len(classes) == 3  # zero, squares, nonsquares
        nonzero = [F.square_class(e) for e in F.elements() if e]
        assert sum(1 for c in nonzero if c == F.one()) == (p - 1) // 2
    # characteristic 2: everything is a square
    assert all(F2.is_square(e) for e in F2.elements())


def test_fp_sqrt_is_exact():
    for p in (3, 5, 7, 11, 13):
        F = PrimeField(p)
        for e in F.elements():
            r = F.sqrt(e)
            if F.is_square(e):
                assert r is not None and r * r == e
            else:
                assert r is None


# ---------------------------------------------------------------------------
# polynomial arithmetic against sympy


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 7]))
def test_poly_mul_divmod_against_sympy(seed, p):
    rng = random.Random(seed)
    F = PrimeField(p)
    a = rand_poly(rng, F, 6)
    b = rand_poly(rng, F, 4)
    t = sympy.Symbol("t")
    sa, sb = to_sympy(a, t), to_sympy(b, t)
    prod = to_sympy(a * b, t)
    diff = sympy.expand(sa * sb) - prod
    assert sympy.Poly(diff, t, modulus=p).is_zero if diff != 0 else True
    if b:
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree() or not r


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 7]))
def test_poly_gcd_against_sympy(seed, p):
    rng = random.Random(seed)
    F = PrimeField(p)
    a = rand_poly(rng, F, 5)
    b = rand_poly(rng, F, 5)
    g = poly_gcd(a, b)
    t = sympy.Symbol("t")
    if not a and not b:
        assert not g
        return
    sg = sympy.gcd(sympy.Poly(to_sympy(a, t), t, modulus=p), sympy.Poly(to_sympy(b, t), t, modulus=p))
    ours = sympy.Poly(to_sympy(g, t), t, modulus=p)
    assert sg.monic() == ours.monic() if sg.degree() >= 0 else not g


def test_gcd_frozen_example_over_f5():
    t = Poly.x(F5, "t")
    f = (t + 1) * (t + 1) * (t + 2)
    g = (t + 1) * (t + 3)
    assert poly_gcd(f, g) == t + 1
    assert poly_gcd(Poly.zero_poly(F5, "t"), Poly.zero_poly(F5, "t")).degree() == -1


def test_gcd_of_zero_pair_is_zero():
    z = Poly.zero_poly(F7, "t")
    assert not poly_gcd(z, z)
    f = Poly.of_ints(F7, "t", [3, 6])
    assert poly_gcd(f, z) == f.monic()


def test_squarefree_frozen_examples():
    # t^6 + 1 over F_5: derivative t^5 is coprime to it
    f = Poly.of_ints(F5, "t", [1, 0, 0, 0, 0, 0, 1])
    assert squarefree_decomposition(f) == (F5.one(), [(f, 1)])
    t = Poly.x(F5, "t")
    g = (t + 1) * (t + 1) * (t + 2)
    assert squarefree_decomposition(g) == (F5.one(), [(t + 2, 1), (t + 1, 2)])


def test_squarefree_inseparable_corner_raises():
    # t^5 + 1 over F_5 has zero derivative: a p-th power, not squarefree
    t = Poly.x(F5, "t")
    h = Poly.of_ints(F5, "t", [1, 0, 0, 0, 0, 1])
    assert squarefree_decomposition(h) == (F5.one(), [(t + 1, 5)])
    with pytest.raises(ValueError):
        squarefree_decomposition(Poly.zero_poly(F5, "t"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_squarefree_decomposition_reconstructs_char0(seed):
    rng = random.Random(seed)
    t = Poly.x(QQ, "t")
    f = Poly.const(QQ, "t", Fraction(rng.randint(1, 5)))
    for _ in range(rng.randrange(4)):
        lin = t + rng.randint(-3, 3)
        f = f * lin ** rng.randint(1, 3)
    unit, decomp = squarefree_decomposition(f)
    rebuilt = Poly.const(QQ, "t", unit)
    for g, m in decomp:
        rebuilt = rebuilt * g**m
        assert poly_gcd(g, g.derivative()).degree() == 0
    assert rebuilt == f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]))
def test_squarefree_decomposition_reconstructs_char_p(seed, p):
    rng = random.Random(seed)
    F = PrimeField(p)
    t = Poly.x(F, "t")
    f = Poly.const(F, "t", F.from_int(rng.randrange(1, p)))
    for _ in range(rng.randrange(3)):
        lin = t + rng.randrange(p)
        f = f * lin ** rng.randint(1, p + 1)  # multiplicities past p hit the Frobenius path
    unit, decomp = squarefree_decomposition(f)
    rebuilt = Poly.const(F, "t", unit)
    for g, m in decomp:
        rebuilt = rebuilt * g**m
    assert rebuilt == f
    # pairwise coprime parts
    for i in range(len(decomp)):
        for j in range(i + 1, len(decomp)):
            assert poly_gcd(decomp[i][0], decomp[j][0]).degree() == 0


def test_root_factoring_lists_all_roots_in_order():
    t = Poly.x(F5, "t")
    f = (t + 1) * (t + 1) * (t + 2)
    roots, cofactor = factor_roots_prime_field(f)
    assert roots == [(F5.from_int(3), 1), (F5.from_int(4), 2)]
    assert cofactor.degree() == 0
    # irreducible quadratic keeps its cofactor
    g = Poly.of_ints(F3, "t", [1, 0, 1])  # t^2 + 1 over F_3
    roots, cofactor = factor_roots_prime_field(g)
    assert roots == [] and cofactor == g.monic()


def test_rational_roots_with_multiplicity():
    t = Poly.x(QQ, "t")
    f = (2 * t - 1) ** 2 * (t + 3) * t
    roots, cofactor = rational_roots(f)
    assert (Fraction(1, 2), 2) in roots
    assert (Fraction(-3), 1) in roots
    assert (Fraction(0), 1) in roots
    assert cofactor.degree() == 0


# ---------------------------------------------------------------------------
# extension fields


def test_extension_field_is_a_field():
    F9 = quadratic_extension(F3)
    assert F9.size() == 9
    elems = F9.elements()
    assert len(set(elems)) == 9
    for a in elems:
        for b in elems:
            assert (a + b) - b == a
            if b:
                assert (a / b) * b == a
    g = F9.gen()
    orders = {e: next(k for k in range(1, 9) if e**k == F9.one()) for e in elems if e}
    assert max(orders.values()) == 8  # cyclic multiplicative group


def test_frobenius_generates_galois():
    F9 = quadratic_extension(F3)
    for a in F9.elements():
        assert F9.frobenius(F9.frobenius(a)) == a
        assert F9.frobenius(a) == a**3
    fixed = [a for a in F9.elements() if F9.frobenius(a) == a]
    assert len(fixed) == 3  # exactly the prime subfield


def test_irreducible_search_and_certificate():
    for p, e in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 4)):
        F = PrimeField(p)
        m = find_irreducible(F, e)
        assert m.degree() == e and poly_is_irreducible(m)
    t = Poly.x(F3, "t")
    assert not poly_is_irreducible((t + 1) * (t + 2))
    with pytest.raises(ValueError):
        ExtensionField(F3, (t + 1) * (t + 2))


def test_extension_square_classes():
    F9 = quadratic_extension(F3)
    squares = sum(1 for e in F9.elements() if e and F9.is_square(e))
    assert squares == 4
    F4 = quadratic_extension(F2)
    assert all(F4.is_square(e) for e in F4.elements())
    for e in F9.elements():
        r = F9.sqrt(e)
        if F9.is_square(e):
            assert r is not None and r * r == e


# ---------------------------------------------------------------------------
# function fields


def test_function_field_arith_against_sympy():
    rng = random.Random(5)
    K = FunctionField(F7, "t")
    t = sympy.Symbol("t")
    for _ in range(40):
        n1, d1 = rand_poly(rng, F7, 3), rand_poly(rng, F7, 2)
        n2, d2 = rand_poly(rng, F7, 3), rand_poly(rng, F7, 2)
        if not d1 or not d2:
            continue
        a = RatFunc(K, n1, d1)
        b = RatFunc(K, n2, d2)
        s = a + b
        lhs = sympy.Poly(to_sympy(s.num, t), t, modulus=7) * sympy.Poly(to_sympy(a.den, t) * to_sympy(b.den, t), t, modulus=7)
        rhs = sympy.Poly(
            (to_sympy(a.num, t) * to_sympy(b.den, t) + to_sympy(b.num, t) * to_sympy(a.den, t)) * to_sympy(s.den, t),
            t,
            modulus=7,
        )
        assert lhs == rhs


def test_ratfunc_normalization():
    K = FunctionField(F5, "t")
    t = Poly.x(F5, "t")
    a = RatFunc(K, (t + 1) * (t + 2) * 3, (t + 2) * 2)
    assert a.den.degree() == 0  # common factor cancelled, denominator monic
    assert a == RatFunc(K, (t + 1) * 4, None)
    assert not RatFunc(K, Poly.zero_poly(F5, "t"), t)
    with pytest.raises(ZeroDivisionError):
        RatFunc(K, t, Poly.zero_poly(F5, "t"))


def test_function_field_square_class_examples():
    Qt = FunctionField(QQ, "t")
    t = Poly.x(QQ, "t")
    f = Qt.from_poly(2 * t * (t + 1) * (t + 1))
    assert Qt.square_class(f) == Qt.from_poly(2 * t)
    assert Qt.is_square(Qt.from_poly(9 * (t + 4) * (t + 4)))
    assert not Qt.is_square(Qt.from_poly(-(t + 4) * (t + 4)))
    # squares have trivial class, and class is multiplicative up to squares
    g = RatFunc(Qt, (t + 2), (t * t + 1))
    assert Qt.square_class(g * g) == Qt.one()
    prod_class = Qt.square_class(f * g)
    assert Qt.is_square(prod_class / (Qt.square_class(f) * Qt.square_class(g)))


def test_depth_limit_and_tower():
    K1 = FunctionField(F3, "t")
    K2 = FunctionField(K1, "s")
    assert K2.label() == "Fp:3(t)(s)"
    with pytest.raises(ValueError):
        FunctionField(K2, "u")
    with pytest.raises(ValueError):
        FunctionField(K1, "t")


# ---------------------------------------------------------------------------
# binary forms


def test_binary_form_evaluation_and_infinity_roots():
    # 16 (s+t)(s+2t)(s+3t)(s+4t) over Q
    t = Poly.x(QQ, "t")
    d = 16 * (t + 1) * (t + 2) * (t + 3) * (t + 4)
    bf = BinaryForm.from_dehomogenized(QQ, d, 4)
    assert bf.evaluate(Fraction(1), Fraction(-2)) == 0
    assert bf.evaluate(Fraction(1), Fraction(0)) == 16 * 24
    roots = bf.roots_projective()
    assert len(roots) == 4 and all(m == 1 for _, m in roots)
    assert bf.is_squarefree()


def test_binary_form_root_at_infinity():
    # degree-4 form with vanishing top coefficients: s^2 (s + t) t is not; use s^3 t model
    f3 = PrimeField(3)
    bf = BinaryForm(f3, 4, [f3.from_int(c) for c in (0, 1, 0, 0, 0)])  # s^3 t
    inf = [m for (pt, m) in bf.roots_projective() if not pt[0]]
    assert inf == [3]
    assert not bf.is_squarefree()
    affine = [(pt, m) for (pt, m) in bf.roots_projective() if pt[0]]
    assert affine == [((f3.one(), f3.zero()), 1)]


def test_binary_form_frobenius_power_detected():
    # (t^2 + 1)^3 = t^6 + 1 modulo 3 has zero derivative but a clean decomposition
    f = Poly.of_ints(F3, "t", [1, 0, 0, 0, 0, 0, 1])
    bf = BinaryForm.from_dehomogenized(F3, f, 6)
    assert not bf.is_squarefree()
    unit, decomp = squarefree_decomposition(f)
    assert [(g.degree(), m) for g, m in decomp] == [(2, 3)]


# ---------------------------------------------------------------------------
# matrices


def to_sympy_matrix(m):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in m.rows])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_det_rank_kernel_against_sympy(seed, n):
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    m = Matrix(QQ, rows)
    sm = to_sympy_matrix(m)
    assert m.det() == sympy.Rational(sm.det())
    assert m.rank() == sm.rank()
    for v in m.kernel_basis():
        assert all(not c for c in m.mul_vec(v))
    assert len(m.kernel_basis()) == n - m.rank()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 5))
def test_solve_finds_solutions(seed, nr, nc):
    rng = random.Random(seed)
    F = F7
    m = Matrix(F, [[F.from_int(rng.randrange(7)) for _ in range(nc)] for _ in range(nr)])
    x = tuple(F.from_int(rng.randrange(7)) for _ in range(nc))
    b = m.mul_vec(x)
    sol = m.solve(b)
    assert sol is not None
    assert m.mul_vec(sol) == b


def test_solve_detects_inconsistency():
    m = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert m.solve((Fraction(1), Fraction(3))) is None
    assert m.solve((Fraction(1), Fraction(2))) is not None


def test_matrix_over_function_field():
    K = FunctionField(F5, "t")
    tt = K.gen()
    m = Matrix(K, [[tt, K.one()], [K.one(), tt]])
    d = m.det()
    assert d == tt * tt - 1
    assert m.rank() == 2


def test_kernel_determinism():
    m = Matrix(F3, [[F3.from_int(c) for c in row] for row in [[1, 2, 0, 1], [0, 0, 1, 2]]])
    k1 = m.kernel_basis()
    k2 = Matrix(F3, m.rows).kernel_basis()
    assert k1 == k2
    assert len(k1) == 2


# ---------------------------------------------------------------------------
# printing round-trips used by the report format


def test_scalar_strings_are_exact():
    assert scalar_str(Fraction(-3, 4)) == "-3/4"
    assert scalar_str(F5.from_int(3)) == "3"
    F9 = quadratic_extension(F3)
    assert scalar_str(F9.gen() + F9.one()) == "g+1"
    K = FunctionField(QQ, "t")
    t = Poly.x(QQ, "t")
    assert scalar_str(RatFunc(K, t + 1, t)) == "(t+1)/(t)"
    assert scalar_str(t * t - 1) == "t^2-1"


# ---------------------------------------------------------------------------
# full factorization over finite fields


def test_irreducible_factors_reconstructs_x9_minus_x():
    from quadclif.rings import irreducible_factors
    f = Poly(F3, "x", tuple(F3.from_int(c) for c in [0, -1, 0, 0, 0, 0, 0, 0, 0, 1]))
    unit, factors = irreducible_factors(f)
    # product of every monic irreducible of degree 1 or 2 over F3
    assert unit == F3.one()
    assert len(factors) == 6
    assert all(m == 1 for _, m in factors)
    assert sorted(g.degree() for g, _ in factors) == [1, 1, 1, 2, 2, 2]
    prod = Poly(F3, "x", (unit,))
    for g, m in factors:
        assert poly_is_irreducible(g) and g.lc() == F3.one()
        for _ in range(m):
            prod = prod * g
    assert prod == f


def test_irreducible_factors_multiplicities():
    from quadclif.rings import irreducible_factors
    x = Poly.x(F3, "x")
    one = Poly(F3, "x", (F3.one(),))
    f = (x + one) * (x + one) * (x * x + one) * (x * x + one) * (x * x + one)
    f = f * Poly(F3, "x", (F3.from_int(2),))
    unit, factors = irreducible_factors(f)
    assert unit == F3.from_int(2)
    assert [(str(g), m) for g, m in factors] == [("x+1", 2), ("x^2+1", 3)]


def test_irreducible_factors_char2_equal_degree_split():
    from quadclif.rings import irreducible_factors
    # two distinct cubic irreducibles over F2 in one squarefree block
    a = Poly(F2, "x", tuple(F2.from_int(c) for c in [1, 1, 0, 1]))
    b = Poly(F2, "x", tuple(F2.from_int(c) for c in [1, 0, 1, 1]))
    assert poly_is_irreducible(a) and poly_is_irreducible(b)
    unit, factors = irreducible_factors(a * b)
    assert unit == F2.one()
    assert sorted(str(g) for g, _ in factors) == sorted([str(a), str(b)])


def test_irreducible_factors_deterministic():
    from quadclif.rings import irreducible_factors
    f = Poly(F5, "x", tuple(F5.from_int(c) for c in [2, 0, 1, 3, 0, 0, 1, 4, 1]))
    first = irreducible_factors(f)
    second = irreducible_factors(f)
    assert [(str(g), m) for g, m in first[1]] == [(str(g), m) for g, m in second[1]]
    assert first[0] == second[0]


def test_irreducible_factors_over_extension_field():
    from quadclif.rings import irreducible_factors
    F9 = quadratic_extension(F3)
    # the modulus splits into conjugate linear factors over its own field
    f = Poly(F9, "x", tuple(F9.embed(c) for c in F9.modulus.coeffs))
    unit, factors = irreducible_factors(f)
    assert len(factors) == 2
    assert all(g.degree() == 1 and m == 1 for g, m in factors)


def test_irreducible_factors_rejects_rationals():
    from quadclif.rings import irreducible_factors
    with pytest.raises(ValueError):
        irreducible_factors(Poly(QQ, "x", (Fraction(1), Fraction(1))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]), st.integers(1, 8))
def test_irreducible_factors_random_reconstruction(seed, p, deg):
    from quadclif.rings import irreducible_factors
    F = PrimeField(p)
    rng = random.Random(seed)
    coeffs = [F.from_int(rng.randrange(p)) for _ in range(deg)] + [F.one()]
    f = Poly(F, "x", tuple(coeffs))
    unit, factors = irreducible_factors(f)
    prod = Poly(F, "x", (unit,))
    for g, m in factors:
        assert poly_is_irreducible(g)
        assert g.lc() == F.one()
        for _ in range(m):
            prod = prod * g
    assert prod == f
