"""Field, polynomial, and matrix layer, cross-checked against sympy.

sympy is used here as an independent oracle only; the package itself
never imports it.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import gauss_jordan
from quadclif.rings import (
    QQ,
    ArrayCoding,
    BinaryForm,
    ExtensionField,
    Matrix,
    Poly,
    PrimeField,
    find_irreducible,
    poly_gcd,
    poly_is_irreducible,
    quadratic_extension,
    coded_kernel,
    coded_rref,
    rational_roots,
    scalar_str,
    squarefree_decomposition,
    ResidueCoding,
    _mod,
    bilinear,
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
        nonzero = [e for e in F.elements() if e]
        squares = [e for e in nonzero if F.is_square(e)]
        assert len(squares) == (p - 1) // 2
        # two classes mod squares: the quotient of two nonsquares is a square
        nonsquares = [e for e in nonzero if not F.is_square(e)]
        assert all(F.is_square(a / b) for a in nonsquares for b in nonsquares)
        assert not any(F.is_square(a / b) for a in squares for b in nonsquares)
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


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["Q", 2, 3, 5]))
def test_is_squarefree_matches_sympy_and_the_decomposition(seed, p):
    # gcd(f, f') = 1 against sympy's squarefree factorization over Q and
    # against the multiplicities of squarefree_decomposition over F_p;
    # products of powers of small factors, some past p, and forms with
    # zero top coefficients, which put roots at (0 : 1)
    rng = random.Random(seed)
    field = QQ if p == "Q" else PrimeField(p)
    t = Poly.x(field, "t")
    f = Poly.const(field, "t", field.from_int(rng.choice([1, -1])))
    for _ in range(rng.randrange(4)):
        part = Poly.of_ints(field, "t", [rng.randint(-3, 3) for _ in range(rng.randint(2, 3))])
        if part.degree() > 0:
            f = f * part ** rng.randint(1, 3 if p == "Q" else p + 1)
    deg = f.degree() + rng.choice([0, 0, 1, 2])
    bf = BinaryForm(field, deg, list(f.coeffs) + [field.zero()] * (deg - f.degree()))
    at_infinity = deg - f.degree()
    if p == "Q":
        sym = sympy.Symbol("t")
        poly = sum(sympy.Rational(c.numerator, c.denominator) * sym**i
                   for i, c in enumerate(f.coeffs))
        affine = all(m == 1 for _, m in sympy.sqf_list(poly, sym)[1])
        with pytest.raises(ValueError):
            squarefree_decomposition(f)
    else:
        affine = all(m == 1 for _, m in squarefree_decomposition(f)[1])
    assert bf.is_squarefree() == (affine and at_infinity <= 1)


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


def test_rational_roots_with_multiplicity():
    t = Poly.x(QQ, "t")
    f = (2 * t - 1) ** 2 * (t + 3) * t
    roots, cofactor = rational_roots(f)
    assert (Fraction(1, 2), 2) in roots
    assert (Fraction(-3), 1) in roots
    assert (Fraction(0), 1) in roots
    assert cofactor.degree() == 0
    # end coefficients near 10^27: trial division up to their square
    # roots would not finish
    f = (912345677 * t - 823456791) ** 2 * (734567893 * t + 3) * (t * t + 2)
    roots, cofactor = rational_roots(f)
    assert roots == [(Fraction(-3, 734567893), 1), (Fraction(823456791, 912345677), 2)]
    assert cofactor == t * t + 2


def test_rational_roots_match_the_divisor_reference():
    # seeded products of small linear factors, repeated ones included, and
    # of a random small cofactor, against the classical divisor test
    from references import divisor_rational_roots

    rng = random.Random(31)
    t = Poly.x(QQ, "t")
    for _ in range(60):
        f = Poly.of_ints(QQ, "t", [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]) or t
        for _ in range(rng.randint(0, 4)):
            f = f * (rng.randint(1, 12) * t - rng.randint(-12, 12))
        f = f * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        assert rational_roots(f) == divisor_rational_roots(f), f


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


def test_extension_of_an_infinite_base_is_refused():
    t = Poly.x(QQ, "t")
    with pytest.raises(ValueError, match="finite base"):
        ExtensionField(QQ, t * t - 2)


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
# binary forms


def test_binary_form_evaluation_and_infinity_roots():
    # 16 (t+s)(t+2s)(t+3s)(t+4s) over Q
    bf = BinaryForm(QQ, 4, [Fraction(c) for c in (384, 800, 560, 160, 16)])
    assert bf.evaluate(Fraction(1), Fraction(-2)) == 0
    assert bf.evaluate(Fraction(1), Fraction(0)) == 16 * 24
    roots, rest = rational_roots(bf.dehomogenize())
    assert roots == [(Fraction(r), 1) for r in (-4, -3, -2, -1)]
    assert rest.degree() == 0
    assert bf.infinity_multiplicity() == 0
    assert bf.is_squarefree()


def test_binary_form_root_at_infinity():
    # degree-4 form with vanishing top coefficients: the s^3 t model
    bf = BinaryForm(QQ, 4, [Fraction(c) for c in (0, 1, 0, 0, 0)])  # s^3 t
    assert bf.infinity_multiplicity() == 3
    assert not bf.is_squarefree()
    assert rational_roots(bf.dehomogenize())[0] == [(Fraction(0), 1)]
    # rational_roots runs over Q only; over a finite field pencil.analyze
    # reads the roots off the factorization, and lists (0 : 1) after them
    with pytest.raises(ValueError):
        rational_roots(BinaryForm(F3, 4, [F3.from_int(c) for c in (0, 1, 0, 0, 0)]).dehomogenize())
    from quadclif.pencil import Pencil, analyze
    from quadclif.quadform import QuadraticForm
    for field in (QQ, F3):
        # det(s diag(2, 2, 2, 0) + t diag(0, 0, 0, 2)) = 16 s^3 t
        a = analyze(Pencil(QuadraticForm.of_ints(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]),
                           QuadraticForm.of_ints(field, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])))
        assert a.delta.infinity_multiplicity() == 3
        assert [(tuple(map(str, p.point)), p.factor, p.multiplicity, p.radical_rank)
                for p in a.points] == [(("1", "0"), "t", 1, 1), (("0", "1"), "inf", 3, 3)]


def test_binary_form_frobenius_power_detected():
    # (t^2 + 1)^3 = t^6 + 1 modulo 3 has zero derivative but a clean decomposition
    bf = BinaryForm(F3, 6, [F3.from_int(c) for c in (1, 0, 0, 0, 0, 0, 1)])
    f = bf.dehomogenize()
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


def test_matrix_over_extension_field():
    F25 = quadratic_extension(F5)
    g = F25.gen()
    m = Matrix(F25, [[g, F25.one()], [F25.one(), g]])
    assert m.det() == g * g - 1
    assert m.rank() == 2
    assert Matrix(F25, [[g, F25.one()], [g * g, g]]).rank() == 1


def test_kernel_determinism():
    m = Matrix(F3, [[F3.from_int(c) for c in row] for row in [[1, 2, 0, 1], [0, 0, 1, 2]]])
    k1 = m.kernel_basis()
    k2 = Matrix(F3, m.rows).kernel_basis()
    assert k1 == k2
    assert len(k1) == 2


def _random_rows(rng, field, nrows, ncols):
    # sparse rows with repeats, so pivots get skipped and rows cancel
    base = [[_random_entry(rng, field) if rng.random() < 0.4 else field.zero()
             for _ in range(ncols)] for _ in range(max(1, nrows // 2))]
    out = []
    for _ in range(nrows):
        a, b = rng.choice(base), rng.choice(base)
        c = _random_entry(rng, field)
        out.append([x + c * y for x, y in zip(a, b)])
    return out


def _random_entry(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3, 6]))
    return rng.choice(list(field.elements()))


F49 = quadratic_extension(F7)  # Matrix runs on object arrays over an extension


def _check_elimination(field, rows, ncols):
    # coded_rref, coded_kernel and the Matrix methods that decode them
    # against the reference Gauss-Jordan echelon form and kernel
    coding = ArrayCoding(field)
    want_red, want_pivots = gauss_jordan.rref(field, rows, ncols)
    want_kernel = gauss_jordan.kernel_basis(field, rows, ncols)
    coded = coding.array(rows) if rows else coding.zeros((0, ncols))
    red, pivots = coded_rref(coding, coded)
    free, kernel, scales = coded_kernel(coding, coded)
    assert tuple(pivots) == want_pivots
    assert free == [c for c in range(ncols) if c not in want_pivots]
    assert [tuple(coding.decode(x) for x in row) for row in red] == want_red[:len(pivots)]
    decoded = [tuple(coding.decode(x, s) for x in v) for v, s in zip(kernel.tolist(), scales)]
    assert decoded == want_kernel
    assert all(type(x) is type(field.one()) for v in decoded for x in v)
    assert all(type(s) is int for s in scales)
    if field is QQ:  # primitive integer rows, scaled by their denominators
        assert all(math.gcd(*v) == 1 for v in kernel.tolist())
        assert list(scales) == [math.lcm(*(x.denominator for x in v)) for v in want_kernel]
    else:
        assert list(scales) == [1] * len(free)
    if not rows:
        return
    m = Matrix(field, rows)
    assert m.rref() == (Matrix(field, want_red), want_pivots)
    assert m.rank() == len(want_pivots)
    assert m.kernel_basis() == want_kernel
    assert all(type(x) is type(field.one()) for row in m.rref()[0].rows for x in row)


@pytest.mark.parametrize("field", [F2, F3, F7, QQ, quadratic_extension(F3), F49],
                         ids=lambda f: f.label())
def test_coded_elimination_matches_matrix(field):
    # the same echelon form and kernel, in the same order, on every field
    rng = random.Random(7)
    for _ in range(12):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        rows = _random_rows(rng, field, nrows, ncols) if nrows else []
        _check_elimination(field, rows, ncols)


def _fraction_free_updates(rows):
    """The largest |pivot * row - entry * pivot_row| of each pivot step of
    fraction-free Gauss-Jordan on Python ints: first nonzero pivot, every
    updated row divided by its content."""
    m, out, r = [list(row) for row in rows], [], 0
    for col in range(len(m[0])):
        i = next((i for i in range(r, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        step = 0
        for k in range(len(m)):
            if k != r and m[k][col]:
                new = [m[r][col] * a - m[k][col] * b for a, b in zip(m[k], m[r])]
                step = max(step, max(abs(a) for a in new))
                g = math.gcd(*new)
                m[k] = [a // g for a in new] if g else new
        out.append(step)
        r += 1
    return out


@pytest.mark.parametrize("bits", [30, 31, 40])
def test_coded_elimination_is_exact_at_the_int64_edge(bits):
    # integer entries near 2^bits, with dependent rows so that kernels
    # remain: the int64 updates pass 2^63 within a step or two, and the
    # elimination goes on with Python ints
    rng = random.Random(bits)
    for _ in range(8):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 6)
        rows = [[rng.choice([-1, 1]) * rng.randint(1 << (bits - 1), 1 << bits)
                 if rng.random() < 0.8 else 0 for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2:
            rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
        _check_elimination(QQ, [[Fraction(a) for a in row] for row in rows], ncols)


def test_second_fraction_free_update_passes_int64():
    # the first update fits in int64, the second does not
    big = 1 << 30
    rows = [[big + 3, big - 5, 7, 1], [-(big - 1), big + 11, big, 2],
            [big - 7, -(big + 1), big + 13, 3]]
    first, second = _fraction_free_updates(rows)[:2]
    assert first < 1 << 63 <= second
    _check_elimination(QQ, [[Fraction(a) for a in row] for row in rows], 4)


def test_kernel_scale_passes_int64():
    # no update at all, but the kernel row of the last column is scaled by
    # the product of three coprime pivots near 2^25
    p1, p2, p3 = 33554393, 33554383, 33554371
    rows = [[p1, 0, 0, 1], [0, p2, 0, 1], [0, 0, p3, 1]]
    assert p1 * p2 * p3 >= 1 << 63
    _check_elimination(QQ, [[Fraction(a) for a in row] for row in rows], 4)


def test_coded_rref_over_an_extension_returns_no_float():
    # int codes 0 and 1 divided by an int pivot must come back as
    # elements of F9, not as Python floats
    F9 = quadratic_extension(F3)
    coding = ArrayCoding(F9)
    two, g = F9.from_int(2), F9.gen()
    assert not any(type(x) is float for x in coding.divide_rows(coding.eye(2), [1, 1]).ravel())
    for a, want in ((coding.eye(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                    (coding.array([[0, 1, 1], [1, 1, 0]]), [[1, 0, 2], [0, 1, 1]]),
                    (coding.array([[0, 2, 1], [1, 1, 0]]), [[1, 0, 1], [0, 1, 2]]),
                    (coding.array([[g, two, 0], [0, 1, 1]]), None)):
        red, _ = coded_rref(coding, a)
        assert not any(type(x) is float for x in red.ravel())
        if want is not None:
            assert [[coding.decode(x) for x in row] for row in red] \
                == [[F9.from_int(x) for x in row] for row in want]


@pytest.mark.parametrize("field", [F3, QQ, F49], ids=lambda f: f.label())
def test_matrix_rref_edge_shapes(field):
    # no rows, no columns, all zero, and zero rows padded below the rank
    z, o = field.zero(), field.one()
    empty = Matrix(field, [])
    assert empty.rref() == (empty, ())
    assert empty.rank() == 0 and empty.kernel_basis() == []
    thin = Matrix(field, [[], [], []])
    assert thin.rref() == (thin, ()) and thin.rank() == 0
    assert thin.kernel_basis() == []
    zero = Matrix(field, [[z] * 3] * 2)
    assert zero.rref() == (zero, ())
    assert zero.kernel_basis() == [(o, z, z), (z, o, z), (z, z, o)]
    two = field.from_int(2)
    m = Matrix(field, [[z, two, two], [z, o, o], [z, z, z], [z, o, two]])
    red, pivots = m.rref()
    assert pivots == (1, 2) and red.nrows == 4
    assert red.rows == ((z, o, z), (z, z, o), (z, z, z), (z, z, z))


F4 = quadratic_extension(F2)
F8 = ExtensionField(F2, Poly.of_ints(F2, "x", [1, 1, 0, 1]))  # x^3 + x + 1


@pytest.mark.parametrize("p,dtype", [
    (p, dtype) for p in (2, 3, 5, 7, 65521)
    for dtype in (np.int8, np.int16, np.int64, np.float32, np.float64, object)
    if p < 128 or dtype not in (np.int8, np.int16)])
def test_mod_matches_the_remainder_operator(p, dtype):
    # the one reduction of ArrayCoding and ResidueCoding against numpy's %,
    # on integers from -p up to the dtype's range (2^24 for float32)
    rng = np.random.default_rng(p)
    top = {np.int8: 127, np.int16: 32767, np.float32: 1 << 24}.get(dtype, 1 << 40)
    a = np.concatenate([np.arange(-p, min(p, 100)), rng.integers(-p, top, 1000)])
    a = a.astype(dtype)
    got = _mod(a, p)
    assert got.dtype == a.dtype and (got == a % p).all()


def test_point_tables_are_built_once_and_frozen():
    coding = ResidueCoding(F5)
    table = coding.points(4, 1)
    assert ResidueCoding(F5).points(4, 1) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2


@pytest.mark.parametrize("field", [F2, F3, F5, F4, F8, quadratic_extension(F3),
                                   quadratic_extension(F5)],
                         ids=lambda f: f.label())
def test_residue_coding_matches_wrapped_arithmetic(field):
    # products, inverses, form and polar values, the Weil restriction of
    # a matrix, the q-power map, and one batched elimination over a
    # stack, each against wrapped arithmetic or the reference
    # Gauss-Jordan form of each member
    from quadclif.quadform import QuadraticForm

    rng = random.Random(5)
    coding = ResidueCoding(field)
    p, e = coding.p, coding.e
    elems = field.elements()
    assert coding.decode(coding.array([elems])) == (tuple(elems),)
    codes = coding.elements_axis(coding.array(elems)).T  # residue axis first
    products = coding.mul(codes[:, :, None], codes[:, None, :])
    assert coding.decode(products.T.reshape(len(elems), -1)) \
        == tuple(tuple(a * b for a in elems) for b in elems)
    assert coding.decode(coding.inverse(codes[:, 1:]).T.reshape(-1)) \
        == tuple(field.one() / a for a in elems[1:])
    if e > 1:
        assert coding.decode(coding.conjugate(coding.array(elems))) \
            == tuple(a ** p for a in elems)
    n = 4
    rows = [[rng.choice(elems) if j >= i else field.zero() for j in range(n)] for i in range(n)]
    q = QuadraticForm(field, rows)
    vecs = [[rng.choice(elems) for _ in range(n)] for _ in range(30)]
    u, v = coding.array(vecs[:15]), coding.array(vecs[15:])
    every = coding.array(vecs)
    values = [bilinear(every, g, every) % p for g in coding.gram(q.c)]
    assert coding.decode(np.stack(values, axis=-1).astype(int).reshape(-1)) \
        == tuple(q.evaluate(w) for w in vecs)
    polar = [bilinear(u, g, v) % p for g in coding.gram(q.polar_matrix().rows)]
    assert coding.decode(np.stack(polar, axis=-1).astype(int).reshape(-1)) \
        == tuple(q.polar(a, b) for a, b in zip(vecs[:15], vecs[15:]))
    m = _random_rows(rng, field, n, 3)
    image = (u @ coding.weil(coding.array(m)) % p).astype(int)
    assert coding.decode(image) == tuple(
        tuple(sum((a[i] * m[i][j] for i in range(n)), field.zero()) for j in range(3))
        for a in vecs[:15])
    for nrows, ncols in ((1, 4), (3, 3), (4, 6), (6, 4)):
        stack = [_random_rows(rng, field, nrows, ncols) for _ in range(20)]
        red, rank = coding.rref(coding.array(stack))
        for rows, got, r in zip(stack, coding.decode(red), rank):
            want, pivots = gauss_jordan.rref(field, rows)
            assert r == len(pivots) and list(got) == want


# ---------------------------------------------------------------------------
# printing round-trips used by the report format


def test_scalar_strings_are_exact():
    assert scalar_str(Fraction(-3, 4)) == "-3/4"
    assert scalar_str(F5.from_int(3)) == "3"
    F9 = quadratic_extension(F3)
    assert scalar_str(F9.gen() + F9.one()) == "g+1"
    t = Poly.x(QQ, "t")
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
