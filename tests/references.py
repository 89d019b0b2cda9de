"""Slow, independent references for the integer kernels of quadclif.

poly_det_discriminant is the discriminant form by minor expansion over
wrapped Poly entries, sweep_first_common_zero the zero search over Q
one vector at a time, extension_field_points the degeneration points
with each radical rank taken in the residue field of its root, and
divisor_rational_roots the rational roots by the classical divisor
test; all are the earlier implementations, kept here to pin
pencil.discriminant_form, splitting._first_common_zero, the radical
ranks of pencil.analyze and, on small coefficients, rings.rational_roots.
"""

import itertools
import math
from fractions import Fraction

from quadclif.pencil import DegenerationPoint, Pencil
from quadclif.rings import (
    ArrayCoding, BinaryForm, ExtensionField, Poly, QQ, _deflate, _homogeneous_value,
    irreducible_factors, rational_roots)


def _poly_det(entries):
    """Determinant of a square matrix of Poly entries, minor expansion
    down the first column with memoization on surviving row sets."""
    n = len(entries)
    field = entries[0][0].field
    var = entries[0][0].var
    cache = {}

    def minor(rows, col):
        if len(rows) == 1:
            return entries[rows[0]][col]
        key = (rows, col)
        got = cache.get(key)
        if got is not None:
            return got
        acc = Poly(field, var, ())
        sign = 1
        for k, r in enumerate(rows):
            e = entries[r][col]
            if e:
                sub = minor(rows[:k] + rows[k + 1:], col + 1)
                term = e * sub
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        cache[key] = acc
        return acc

    return minor(tuple(range(n)), 0)


def poly_det_discriminant(pencil):
    """det(s*B1 + t*B2), halved for odd rank, from the chart s = 1: the
    t-coefficients of the determinant of the Poly matrix B1 + t*B2."""
    field, n = pencil.field, pencil.n
    b1 = pencil.q1.polar_matrix().rows
    b2 = pencil.q2.polar_matrix().rows
    entries = [[Poly(field, "t", (b1[i][j], b2[i][j])) for j in range(n)] for i in range(n)]
    det = _poly_det(entries)
    if n % 2:
        det = det * Poly(field, "t", (field.one() / field.from_int(2),))
    return BinaryForm(field, n, [det.coeff(i) for i in range(n + 1)])


def extension_field_points(pencil):
    """The DegenerationPoints of a pencil that does not degenerate
    identically, in the order of pencil.analyze, each radical rank
    n - regular_rank of the member at its root over the root's own field.

    The discriminant is poly_det_discriminant.  The rational roots (1 : r)
    come from rational_roots over Q and from the linear factors of
    irreducible_factors over F_q, in element order, then (0 : 1) when the
    top coefficients vanish.  For a factor g of higher degree over F_q
    the member is s*q1 + t*q2 at (1 : theta) in ExtensionField(field, g),
    theta the class of the variable, eliminated on ExtElem entries."""
    field, n = pencil.field, pencil.n
    delta = poly_det_discriminant(pencil)
    one, zero = field.one(), field.zero()
    dehom = delta.dehomogenize()
    factors = []
    if dehom.degree() > 0 and field.size() is None:
        factors = [(Poly(field, "t", (-r, one)), m) for r, m in rational_roots(dehom)[0]]
    elif dehom.degree() > 0:
        _, factors = irreducible_factors(dehom)
        by_root = {-g.coeff(0): (g, m) for g, m in factors if g.degree() == 1}
        factors = ([by_root[r] for r in field.elements() if r in by_root]
                   + [(g, m) for g, m in factors if g.degree() > 1])
    out = []
    for g, mult in factors:
        if g.degree() > 1:
            ext = ExtensionField(field, g)
            lifted = Pencil(pencil.q1.map_field(ext, ext.embed), pencil.q2.map_field(ext, ext.embed))
            rank = n - lifted.member(ext.one(), ext.gen()).regular_rank()
            out.append(DegenerationPoint(point=None, factor=str(g), degree=g.degree(),
                                         multiplicity=mult, radical_rank=rank))
            continue
        root = -g.coeff(0)
        out.append(DegenerationPoint(
            point=(one, root), factor=str(g), degree=1, multiplicity=mult,
            radical_rank=n - pencil.member(one, root).regular_rank()))
    inf = delta.infinity_multiplicity()
    if inf:
        at = sum(1 for p in out if p.degree == 1)
        out.insert(at, DegenerationPoint(
            point=(zero, one), factor="inf", degree=1, multiplicity=inf,
            radical_rank=n - pencil.q2.regular_rank()))
    return out


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def divisor_rational_roots(f):
    """rings.rational_roots by the classical divisor test: the
    candidates a/b have a dividing the trailing coefficient and b the
    leading one of the primitive integer model, found by trial division
    up to their square roots, so only small coefficients finish."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    shift = next(i for i, c in enumerate(ints) if c)
    ints = ints[shift:]
    roots = [(Fraction(0), shift)] if shift else []
    candidates = {(sign * a, b) for a in _divisors(abs(ints[0]))
                  for b in _divisors(abs(ints[-1])) for sign in (1, -1)
                  if math.gcd(a, b) == 1}
    for a, b in candidates:
        if len(ints) == 1:
            break
        mult = 0
        while len(ints) > 1 and not _homogeneous_value(ints, a, b):
            ints = _deflate(ints, a, b)
            mult += 1
        if mult:
            roots.append((Fraction(a, b), mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, Poly(f.field, f.var, tuple(Fraction(c, ints[-1]) for c in ints))


def height_shell(h, n):
    """The integer vectors of length n and height exactly h (maximum
    absolute coordinate), in the lexicographic order of
    itertools.product(range(-h, h + 1), repeat=n).

    A vector lies in the shell when its first coordinate of absolute
    value h follows a prefix of smaller ones; each such prefix with its
    extreme coordinate (both signs at once in the last place) is one
    block, a product over the free tail."""
    full = range(-h, h + 1)

    def blocks(prefix, k):
        if k == 1:
            yield prefix + ((-h, h),)
        elif k:
            yield prefix + ((-h,),) + (full,) * (k - 1)
            for c in range(1 - h, h):
                yield from blocks(prefix + ((c,),), k - 1)
            yield prefix + ((h,),) + (full,) * (k - 1)

    return itertools.chain.from_iterable(itertools.product(*b) for b in blocks((), n))


def sweep_first_common_zero(forms, height):
    """The first primitive integer vector with positive first nonzero
    coordinate on which every form over Q vanishes, by height, then
    lexicographically, up to height; or None.  One vector at a time on
    the nonzero terms c x_i x_j of the forms scaled to integers."""
    n = forms[0].n
    coding = ArrayCoding(QQ)
    terms = [[(i, j, c) for i, row in enumerate(coding.integral(coding.array(q.c))[0].tolist())
              for j, c in enumerate(row) if c] for q in forms]
    for h in range(1, height + 1):
        for v in height_shell(h, n):
            first = next((c for c in v if c), None)
            if first is None or first < 0:
                continue
            if math.gcd(*v) != 1:
                continue
            if all(sum(c * v[i] * v[j] for i, j, c in t) == 0 for t in terms):
                return tuple(Fraction(c) for c in v)
    return None


def wrapped_witness_identity(q1, q2, polys):
    """x*q1(v) + q2(v) for polynomial coordinates v, in wrapped Poly
    arithmetic over every nonzero coefficient pair."""
    field, n = q1.field, q1.n
    total = Poly(field, "x", ())
    for q, mult in ((q1, Poly(field, "x", (field.zero(), field.one()))),
                    (q2, Poly(field, "x", (field.one(),)))):
        val = Poly(field, "x", ())
        for i in range(n):
            for j in range(i, n):
                if q.c[i][j]:
                    val = val + polys[i] * polys[j] * Poly(field, "x", (q.c[i][j],))
        total = total + mult * val
    return total
