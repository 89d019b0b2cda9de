"""Slow, independent references for the integer kernels of quadclif.

poly_det_discriminant is the discriminant form by minor expansion over
wrapped Poly entries, and sweep_first_common_zero the zero search over Q
one vector at a time; both are the earlier implementations, kept here
to pin pencil.discriminant_form and splitting._first_common_zero.
"""

import itertools
import math
from fractions import Fraction

from quadclif.rings import ArrayCoding, BinaryForm, Poly, QQ


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
