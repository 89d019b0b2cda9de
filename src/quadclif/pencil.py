"""Pencils of quadratic forms: degeneration analysis along the line of
members, discriminant covers, and isotropy correspondences.

A pencil is the line of forms s*q1 + t*q2 through two forms of the same
rank.  Its discriminant is a binary form of degree n in (s, t) whose
roots mark the degenerate members; the analysis here computes that form
exactly, locates every root over the coefficient field and (for finite
fields) over all extension fields that can carry one, and checks the
radical rank of each degenerate member.  A pencil degenerates simply
when every member has radical rank at most 1, which the multiplicity
bound (root multiplicity >= radical rank, by a Smith form argument over
the local ring at the root) ties to squarefreeness of the discriminant.

On top of the analysis sit the double cover y^2 = delta(x), the
center/cover comparison, the common-zero against function-field-witness
correspondence for two forms, and the rank-4 and rank-6 triviality
checks that the correspondence powers.

The common-zero search is the zero search of splitting.find_isotropic
run on both forms: exhaustive over every finite field, a height sweep
over Q.  The degenerate members over F_q come from the one
factorization of the discriminant: its linear factors are the rational
points, the others the extension points.  The witness search and the
Amer-Brumer check take their points from rings.ResidueCoding.points and
their forms from rings.ArrayCoding, both coding F_p by residues, and
evaluate them with rings.bilinear.  The rank-6 plane search is one step of
lagrangian.common_isotropic_subspaces over both forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .rings import (
    ArrayCoding,
    BinaryForm,
    ExtensionField,
    InvariantViolation,
    Poly,
    PrimeField,
    ResidueCoding,
    bilinear,
    irreducible_factors,
    scalar_str,
)
from .lagrangian import common_isotropic_subspaces
from .quadform import QuadraticForm
from .splitting import DEFAULT_BUDGET, _first_common_zero


@dataclass(frozen=True)
class Pencil:
    """The line of forms through q1 and q2 (same field, same rank)."""

    q1: QuadraticForm
    q2: QuadraticForm

    def __post_init__(self):
        if self.q1.field is not self.q2.field:
            raise ValueError("pencil members live over different fields")
        if self.q1.n != self.q2.n:
            raise ValueError("pencil members have different ranks")

    @property
    def field(self):
        return self.q1.field

    @property
    def n(self):
        return self.q1.n

    def member(self, s0, t0):
        """The form s0*q1 + t0*q2."""
        rows = [[s0 * a + t0 * b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.q1.c, self.q2.c)]
        return QuadraticForm(self.field, rows)

    def map_field(self, target, embed):
        return Pencil(self.q1.map_field(target, embed),
                      self.q2.map_field(target, embed))


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


def discriminant_form(pencil):
    """The degree-n binary form det(s*B1 + t*B2), halved for odd rank.

    Matches QuadraticForm.discriminant of every member exactly, with no
    leftover normalization unit.
    """
    field = pencil.field
    n = pencil.n
    if n % 2 and field.characteristic == 2:
        raise ValueError("odd-rank discriminants are not defined in characteristic 2")
    b1 = pencil.q1.polar_matrix().rows
    b2 = pencil.q2.polar_matrix().rows
    # chart s = 1: entries b1[i][j] + t*b2[i][j], so the t-coefficients of
    # the determinant are the (s, t)-coefficients of the homogeneous form
    entries = [[Poly(field, "t", (b1[i][j], b2[i][j]))
                for j in range(n)] for i in range(n)]
    det = _poly_det(entries)
    if n % 2:
        half = field.one() / field.from_int(2)
        det = det * Poly(field, "t", (half,))
    return BinaryForm(field, n, [det.coeff(i) for i in range(n + 1)])


@dataclass(frozen=True)
class DegenerationPoint:
    point: tuple  # (s0, t0) over the base field, or None for extension points
    factor: str  # minimal polynomial of the(s0 : 1) root, "t" style
    degree: int  # residue field degree over the base
    multiplicity: int
    radical_rank: int


@dataclass(frozen=True)
class PencilAnalysis:
    field_label: str
    n: int
    delta: BinaryForm
    squarefree: bool
    identically_degenerate: bool
    points: tuple  # DegenerationPoint entries, base-rational first
    exhaustive: bool  # True when every root over the closure was visited
    simple: bool  # squarefree and every visited radical rank <= 1

    def degenerate_count(self):
        return sum(p.multiplicity * p.degree for p in self.points)


def _radical_rank_at(pencil, s0, t0):
    return len(pencil.member(s0, t0).radical_basis())


def analyze(pencil):
    """Full degeneration analysis of the pencil.

    Computes the discriminant form, its squarefreeness, and the radical
    rank of the member at every root.  Over Q the roots are the rational
    ones.  Over a finite field one factorization of the dehomogenized
    discriminant gives them all: a linear factor t + c is the rational
    root (1 : -c), listed in element order and followed by (0 : 1), and
    a factor g of higher degree is evaluated in its residue field (the
    class of the variable is a root there, and radical rank is constant
    along a conjugacy class).  Each visited root is checked against the
    multiplicity bound: multiplicity >= radical rank.
    """
    field = pencil.field
    n = pencil.n
    delta = discriminant_form(pencil)
    one = field.one()

    if delta.is_zero():
        return PencilAnalysis(
            field_label=field.label(), n=n, delta=delta, squarefree=False,
            identically_degenerate=True, points=(), exhaustive=True,
            simple=False)

    # the construction promises exact agreement with member discriminants
    for s0, t0 in ((one, field.zero()), (field.zero(), one), (one, one)):
        member = pencil.member(s0, t0)
        if n % 2 == 0 or field.characteristic != 2:
            if delta.evaluate(s0, t0) != member.discriminant():
                raise InvariantViolation(
                    "pencil-discriminant",
                    "discriminant form disagrees with the member at (%s, %s)"
                    % (scalar_str(s0), scalar_str(t0)))

    squarefree = delta.is_squarefree()
    factors = []
    if field.size() is None:
        rational = delta.roots_projective()
    else:
        dehom = delta.dehomogenize()
        if dehom.degree() > 0:
            _, factors = irreducible_factors(dehom)
        roots = {-g.coeff(0): mult for g, mult in factors if g.degree() == 1}
        rational = [((one, r), roots[r]) for r in field.elements() if r in roots]
        inf = delta.infinity_multiplicity()
        if inf:
            rational.append(((field.zero(), one), inf))
    points = []
    for (s0, t0), mult in rational:
        rank = _radical_rank_at(pencil, s0, t0)
        if mult < rank:
            raise InvariantViolation(
                "multiplicity-bound",
                "root (%s : %s) has multiplicity %d < radical rank %d"
                % (scalar_str(s0), scalar_str(t0), mult, rank))
        if s0:
            label = str(Poly(field, "t", (-t0, one)))
        else:
            label = "inf"
        points.append(DegenerationPoint(
            point=(s0, t0), factor=label, degree=1,
            multiplicity=mult, radical_rank=rank))

    for g, mult in factors:
        if g.degree() == 1:
            continue  # already visited as a rational root
        ext = ExtensionField(field, g)
        theta = ext.gen()
        lifted = pencil.map_field(ext, ext.embed)
        rank = len(lifted.member(ext.one(), theta).radical_basis())
        if mult < rank:
            raise InvariantViolation(
                "multiplicity-bound",
                "root of %s has multiplicity %d < radical rank %d"
                % (str(g), mult, rank))
        points.append(DegenerationPoint(
            point=None, factor=str(g), degree=g.degree(),
            multiplicity=mult, radical_rank=rank))
    # irrational roots over Q are not enumerated; the multiplicity bound
    # still decides simplicity whenever delta is squarefree
    exhaustive = field.size() is not None or squarefree

    simple = squarefree and all(p.radical_rank <= 1 for p in points)
    return PencilAnalysis(
        field_label=field.label(), n=n, delta=delta, squarefree=squarefree,
        identically_degenerate=False, points=tuple(points),
        exhaustive=exhaustive, simple=simple)


@dataclass(frozen=True)
class CoverModel:
    """Double cover of the projective line branched along the
    discriminant divisor: affine chart y^2 = delta(x, 1)."""

    n: int
    model_coeffs: tuple  # coefficients of delta(x, 1), ascending
    genus: int
    branch_points: int  # counted over the closure, infinity included
    infinity_branched: bool


def cover_model(analysis):
    """Genus and branch data of y^2 = delta, defined for squarefree delta
    away from characteristic 2."""
    if not analysis.squarefree:
        raise ValueError("the discriminant cover needs a squarefree discriminant")
    delta = analysis.delta
    if delta.field.characteristic == 2:
        raise ValueError("double covers need characteristic not 2")
    n = analysis.n
    dehom = delta.dehomogenize()
    aff_deg = dehom.degree()
    # branch divisor: the n roots of the binary form, plus infinity when
    # n is odd (the cover needs an even branch divisor)
    branch = n if n % 2 == 0 else n + 1
    genus = (n + 1) // 2 - 1
    inf_branched = (aff_deg % 2 == 1)
    model = CoverModel(
        n=n,
        model_coeffs=tuple(dehom.coeff(i) for i in range(aff_deg + 1)),
        genus=genus,
        branch_points=branch,
        infinity_branched=inf_branched,
    )
    if genus + 1 != branch // 2:
        raise InvariantViolation(
            "cover-genus", "genus %d does not match %d branch points"
            % (genus, branch))
    return model


def center_matches_cover(pencil, samples=None):
    """Per-member comparison of the even Clifford center with the value
    of the discriminant form.

    At each regular sample point the center of the member's even algebra
    is a quadratic algebra k[z]/(z^2 - delta_c); its delta_c and the
    discriminant value must sit in one square class after a single
    normalization constant, fitted at the first regular sample and then
    enforced everywhere.  At degenerate samples the center must be the
    dual numbers.  Even rank only, characteristic not 2.
    """
    from .clifford import even_center_report

    field = pencil.field
    if pencil.n % 2:
        raise ValueError("center/cover comparison expects even rank")
    if field.characteristic == 2:
        raise ValueError("center/cover comparison needs characteristic not 2")
    delta = discriminant_form(pencil)
    if samples is None:
        if field.size() is None or field.size() > 11:
            raise ValueError("default sampling needs a small finite field")
        one = field.one()
        samples = [(a, one) for a in field.elements()]
        samples.append((one, field.zero()))

    constant = None
    rows = []
    for s0, t0 in samples:
        member = pencil.member(s0, t0)
        _, rep = even_center_report(member)
        if rep.dim != 2:
            raise InvariantViolation(
                "center-rank", "even center has dimension %d at a rank-%d member"
                % (rep.dim, pencil.n))
        value = delta.evaluate(s0, t0)
        if not value:
            if rep.kind != "dual":
                raise InvariantViolation(
                    "center-cover-degenerate",
                    "degenerate member at (%s : %s) has center kind %s"
                    % (scalar_str(s0), scalar_str(t0), rep.kind))
        else:
            ratio = rep.delta / value
            if constant is None:
                constant = ratio
            elif field.sqrt(ratio / constant) is None:
                raise InvariantViolation(
                    "center-cover-constant",
                    "normalization drifts square class at (%s : %s)"
                    % (scalar_str(s0), scalar_str(t0)))
        rows.append(((s0, t0), rep.kind, value))
    return {
        "constant": constant,
        "samples": tuple(rows),
        "matched": True,
    }


# -- common zeros and function-field witnesses -------------------------


def common_isotropic_vector(q1, q2, budget=DEFAULT_BUDGET):
    """First common nonzero zero of both forms, or None.

    The zero search of splitting.find_isotropic on both forms at once:
    exhaustive over finite fields, over Q an ascending sweep over
    primitive integer vectors up to the budget's height.
    """
    if q1.field is not q2.field or q1.n != q2.n:
        raise ValueError("forms must share a field and a rank")
    return _first_common_zero([q1, q2], budget)


def _int_forms(q1, q2):
    """(coefficient matrix, polar matrix, shift) of q1 and q2 as int64
    arrays, the shift being the power of x that multiplies the form in
    x*q1 + q2."""
    coding = ArrayCoding(q1.field)
    return tuple((coding.array(q.c), coding.array(q.polar_matrix().rows), shift)
                 for q, shift in ((q1, 1), (q2, 0)))


def _coefficient(vs, k, forms, p):
    """Coefficient of x^k in x*q1(v) + q2(v) mod p, for every row of the
    batch v = sum vs[a] x^a, in the dtype of the batch times the forms;
    coefficient vectors past vs are zero."""
    import numpy as np
    top = len(vs) - 1
    acc = np.zeros(len(vs[-1]), dtype=np.result_type(vs[-1], forms[0][0]))
    for c, b, shift in forms:
        kk = k - shift
        if kk < 0:
            continue
        if kk % 2 == 0 and kk // 2 <= top:
            acc += bilinear(vs[kk // 2], c, vs[kk // 2])
        for a in range(max(0, kk - top), (kk + 1) // 2):
            acc += bilinear(vs[a], b, vs[kk - a])
    return acc % p


# leaves evaluated per batch at the top level, which bounds memory
_LEAF_BLOCK = 1 << 15


def _head_span(forms, p, head):
    """What the witness search below one head shares across degrees:
    (pivot, inv, span, span_part, q_e).

    Every level solves ell(v) = r for ell = B2(head, .).  With a pivot,
    ell[pivot] != 0 with inverse inv, the solutions are r*inv*e_piv plus
    the rows of span, the kernel of ell; without one (characteristic 2 or
    a radical head) pivot and inv are None, span is all of F_p^n and
    e_piv reads 0.  The rows of span follow itertools.product over the
    kernel basis, so span[0] = 0.  span_part has one float32 column per
    row s of span, (s, 1, B1(e_piv, s), B2(e_piv, s), q1(s), q2(s)) mod p,
    and q_e = (q1(e_piv), q2(e_piv)).
    """
    import numpy as np
    n = len(head)
    ell = head @ forms[1][1] % p
    pivots = np.flatnonzero(ell)
    e = np.zeros(n, dtype=np.int64)
    if len(pivots):
        pivot = pivots[0]
        e[pivot] = 1
        inv = pow(int(ell[pivot]), p - 2, p)
        kernel = np.delete(np.eye(n, dtype=np.int64), pivot, axis=0)
        kernel[:, pivot] = (-ell[np.arange(n) != pivot] * inv) % p
    else:
        pivot = inv = None
        kernel = np.eye(n, dtype=np.int64)
    combos = np.array(list(itertools.product(range(p), repeat=len(kernel))),
                      dtype=np.int64)
    span = (combos @ kernel) % p
    (c1, b1, _), (c2, b2, _) = forms
    span_part = np.column_stack([
        span, np.ones(len(span), dtype=np.int64), span @ (b1 @ e), span @ (b2 @ e),
        bilinear(span, c1, span), bilinear(span, c2, span)]).T % p
    return pivot, inv, span, span_part.astype(np.float32), (e @ c1 @ e, e @ c2 @ e)


def _head_search(forms, p, head, d, space):
    """Exhaustive search for v = head + v_1 x + ... + v_d x^d with v_d != 0
    and x*q1(v) + q2(v) = 0, head a zero of q2 and d >= 1; space is
    _head_span(forms, p, head).

    Returns (vs, leaves): vs the coefficient vectors of the first solution
    in enumeration order, or None, and leaves the number of candidate
    tuples (head, v_1, ..., v_d) counted up to it.  The coefficient of
    x^k is B2(head, v_k) plus terms in v_0..v_{k-1}, so level k < d keeps
    every partial tuple as one batch of rows and gives each row the
    solutions v_k of that linear condition: a particular solution plus
    the span of _head_span.  Without a pivot a row survives only if its
    condition is already met.  Rows come out in the order of a
    depth-first walk over the kernel combinations, level 1 outermost.

    Level d is never built as leaf vectors.  Row r of the batch gives
    v_d = c_r e_piv + span_s, and the coefficient of x^k, d < k <= 2d+1,
    splits into a row part and a span part:
      C_k[r] + c_r L_k[r][piv] + L_k[r] . span_s
    with C_k the terms free of v_d and L_k = B2(v_{k-d}, .) + B1(v_{k-1-d}, .)
    over the indices below d, plus q1(v_d) for k = 2d+1 and q2(v_d) for
    k = 2d, where q(v_d) = c_r^2 q(e_piv) + c_r B(e_piv, span_s) + q(span_s).
    So every coefficient is a row vector dotted with a span_part column,
    and one matrix product evaluates all d+1 of them on a block of
    _LEAF_BLOCK leaves, (row, combination) in C order.  It runs in
    float32, exact here: with p <= 5 and n <= 5 every value is an
    integer below 2^12.  The zero leaf (c_r = 0 with span[0]) is
    dropped.  A leaf counts once its conditions have been evaluated in
    a block; the count stops at the first solution in C order.
    """
    import numpy as np
    pivot, inv, span, span_part, q_e = space
    n = len(head)
    width = len(span)

    vs = [head[None, :]]  # v_0, then one (rows, n) array per level
    for k in range(1, d + 1):
        rhs = (-_coefficient(vs, k, forms, p)) % p
        if pivot is None:
            keep = rhs == 0
            vs = vs[:1] + [v[keep] for v in vs[1:]]
            base = np.zeros((int(keep.sum()), n), dtype=np.int64)
        else:
            base = np.zeros((len(rhs), n), dtype=np.int64)
            base[:, pivot] = (rhs * inv) % p
        if k < d:
            vs = vs[:1] + [np.repeat(v, width, axis=0) for v in vs[1:]]
            vs.append(((base[:, None, :] + span[None]) % p).reshape(-1, n))

    # level d: row r of vs has the particular solution base[r] = c_r e_piv
    rows = len(base)
    f32 = np.float32
    c = base[:, pivot] if pivot is not None else np.zeros(rows, dtype=np.int64)
    forms32 = [(cm.astype(f32), bm.astype(f32), shift) for cm, bm, shift in forms]
    b1, b2 = forms32[0][1], forms32[1][1]
    step = max(1, _LEAF_BLOCK // width)
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        block = [v.astype(f32) for v in vs[:1] + [v[lo:hi] for v in vs[1:]]]
        cb = c[lo:hi].astype(f32)
        # row parts, one (rows, n + 5) slab per k = 2d+1, ..., d+1
        row_part = np.zeros((d + 1, hi - lo, n + 5), dtype=f32)
        for k, part in zip(range(2 * d + 1, d, -1), row_part):
            for a, b in ((k - d, b2), (k - 1 - d, b1)):
                if 0 <= a < d:
                    part[:, :n] += block[a] @ b
            if pivot is not None:
                part[:, n] = part[:, pivot] * cb
            if k < 2 * d:
                part[:, n] += _coefficient(block, k, forms32, p)
            else:
                j = 2 * d + 1 - k  # 0: q1(v_d) in x^(2d+1), 1: q2(v_d) in x^(2d)
                part[:, n] += cb * cb * q_e[j]
                part[:, n + 1 + j] = cb
                part[:, n + 3 + j] = 1
        values = row_part.reshape(-1, n + 5) @ span_part
        ok = _divisible(values, p).reshape(d + 1, hi - lo, width).all(axis=0)
        ok[cb == 0, 0] = False  # the zero leaf
        if ok.any():
            at = int(ok.argmax())
            r, s = divmod(at, width)
            top = (base[lo + r] + span[s]) % p
            return [head] + [v[lo + r] for v in vs[1:]] + [top], lo * width + at + 1
    return None, rows * width


def _divisible(x, p):
    """x % p == 0, elementwise, for integers 0 <= x < 2^32 in any numeric
    dtype.  For odd p, multiplication by p^-1 mod 2^32 maps the multiples
    of p onto [0, (2^32 - 1) // p] and every other value above it."""
    import numpy as np
    x = x.astype(np.uint32)
    if p == 2:
        return (x & 1) == 0
    return x * np.uint32(pow(p, -1, 1 << 32)) <= np.uint32(((1 << 32) - 1) // p)


def _witness_polys(q1, q2, vs):
    """The polynomial coordinates of v = sum vs[a] x^a, after checking
    x*q1(v) + q2(v) = 0 in the wrapped field."""
    field, n = q1.field, q1.n
    polys = tuple(
        Poly(field, "x", tuple(field.from_int(int(vs[a][i])) for a in range(len(vs))))
        for i in range(n))
    xq1 = Poly(field, "x", (field.zero(), field.one()))
    total = Poly(field, "x", ())
    qs = [(q1, xq1), (q2, Poly(field, "x", (field.one(),)))]
    for q, mult in qs:
        val = Poly(field, "x", ())
        for i in range(n):
            if q.c[i][i]:
                val = val + polys[i] * polys[i] * Poly(field, "x", (q.c[i][i],))
            for j in range(i + 1, n):
                if q.c[i][j]:
                    val = val + polys[i] * polys[j] * Poly(field, "x", (q.c[i][j],))
        total = total + mult * val
    if total:
        raise InvariantViolation("pencil-witness",
                                 "claimed witness fails the identity")
    return polys


def pencil_isotropy_witness(q1, q2, max_degree=3):
    """Search for a vector of polynomials v(x), not identically zero, with
    x*q1(v) + q2(v) = 0 identically and degree <= max_degree.

    Returns (witness, leaves): the witness as polynomial coordinates, or
    None, and the number of candidate coefficient tuples of degree >= 1
    whose conditions were evaluated before the search stopped.  The
    search is exhaustive for each degree d in ascending order.  The head
    coefficient vector v_0 runs over the projective zeros of q2
    (coefficient of x^0), first nonzero coordinate 1, in lexicographic
    order; a degree-0 witness is exactly a common zero of the two forms.
    For d >= 1 each head is searched by _head_search on integer-coded
    batches, with the head's kernel span and the span part of its leaf
    conditions computed once by _head_span for all degrees; the leaves
    of degree d are evaluated as row parts times span parts, block by
    block, without building them.  With p odd and B2(v_0, .) != 0 for
    every head, an exhausted search counts
    #heads * sum_{d=1}^{max_degree} p^((n-1)d) leaves.  The witness is
    checked over the wrapped field before it is returned.
    """
    import numpy as np
    if q1.field is not q2.field or q1.n != q2.n:
        raise ValueError("forms must share a field and a rank")
    field, n = q1.field, q1.n
    if not isinstance(field, PrimeField) or field.p > 5:
        raise ValueError("witness search runs over prime fields with p <= 5")
    if n > 5:
        raise ValueError("witness search kept to rank <= 5")
    p = field.p
    forms = _int_forms(q1, q2)
    coding = ResidueCoding(field)
    pts = np.concatenate([coding.points(n, lead) for lead in reversed(range(n))])
    heads = pts[bilinear(pts, forms[1][0], pts) % p == 0]

    common = np.flatnonzero(bilinear(heads, forms[0][0], heads) % p == 0)
    if max_degree >= 0 and len(common):
        return _witness_polys(q1, q2, [heads[common[0]]]), 0
    leaves = 0
    spaces = [_head_span(forms, p, head) for head in heads]
    for d in range(1, max_degree + 1):
        for head, space in zip(heads, spaces):
            vs, count = _head_search(forms, p, head, d, space)
            leaves += count
            if vs is not None:
                return _witness_polys(q1, q2, vs), leaves
    return None, leaves


@dataclass(frozen=True)
class IsotropyCorrespondence:
    common_zero: tuple  # or None
    common_zero_count: int
    witness: tuple  # polynomial coordinates, or None
    witness_degree: int  # -1 when absent
    searched_degree: int
    leaves: int  # candidate tuples the witness search counted


def amer_brumer_check(q1, q2, max_degree=3):
    """Exhaustive two-sided check of the correspondence between common
    zeros of (q1, q2) and isotropy of x*q1 + q2 over the rational
    function field.

    Side A evaluates both forms on every projective point; side B runs
    the bounded witness search.  A common zero must reappear as a
    degree-0 witness, and a witness without a common zero falsifies the
    correspondence, so either direction failing raises instead of
    reporting.  An exhausted search over an odd prime field whose heads
    all have B2(head, .) != 0 must have counted exactly its closed-form
    number of leaves.
    """
    import numpy as np
    if q1.field is not q2.field or q1.n != q2.n:
        raise ValueError("forms must share a field and a rank")
    field, n = q1.field, q1.n
    if not isinstance(field, PrimeField) or field.p > 5:
        raise ValueError("the exhaustive side needs a prime field with p <= 5")
    if n > 5:
        raise ValueError("rank capped at 5")
    p = field.p
    (c1, _, _), (c2, b2, _) = _int_forms(q1, q2)
    coding = ResidueCoding(field)
    pts = np.concatenate([coding.points(n, lead) for lead in range(n)])
    on_q2 = bilinear(pts, c2, pts) % p == 0
    zeros = pts[on_q2 & (bilinear(pts, c1, pts) % p == 0)]
    witness, leaves = pencil_isotropy_witness(q1, q2, max_degree)

    if len(zeros) and witness is None:
        raise InvariantViolation(
            "isotropy-correspondence",
            "common zero exists but no constant witness was produced")
    if len(zeros):
        deg = max(c.degree() for c in witness)
        if deg != 0:
            raise InvariantViolation(
                "isotropy-correspondence",
                "common zero exists but the first witness has degree %d" % deg)
    if witness is not None and not len(zeros):
        raise InvariantViolation(
            "isotropy-correspondence",
            "function-field witness at degree <= %d without any common zero"
            % max_degree)
    heads = pts[on_q2]
    if witness is None and p % 2 and (heads @ b2 % p).any(axis=1).all():
        want = len(heads) * sum(p ** ((n - 1) * d) for d in range(1, max_degree + 1))
        if leaves != want:
            raise InvariantViolation(
                "witness-coverage",
                "exhausted search generated %d leaves, the closed form says %d"
                % (leaves, want))
    return IsotropyCorrespondence(
        common_zero=tuple(field.from_int(int(a)) for a in zeros[0]) if len(zeros) else None,
        common_zero_count=len(zeros),
        witness=witness,
        witness_degree=max(c.degree() for c in witness) if witness else -1,
        searched_degree=max_degree,
        leaves=leaves,
    )


# -- rank-4 and rank-6 verdicts ----------------------------------------


@dataclass(frozen=True)
class BrauerVerdict:
    kind: str  # "trivial" | "unknown"
    witness: tuple  # section witness when trivial
    scope: str  # what was searched, and how exhaustively
    witness_degree: int  # -1 for constant/none

    def __bool__(self):
        return self.kind == "trivial"


def brauer_triviality_rank4(q1, q2, budget=DEFAULT_BUDGET):
    """Triviality verdict for the even Clifford class of a rank-4 pencil
    with simple degeneration.

    A section of the quadric bundle is equivalent to isotropy of the
    generic member over k(x), and the common-zero correspondence pulls
    that down to a common zero of the two forms.  Finding one gives
    Trivial with a checked witness.  Over F_q the common-zero search is
    exhaustive and always succeeds: the pencil cuts out a smooth genus-1
    curve C, and Hasse-Weil gives |#C - q - 1| <= 2 sqrt(q) < q + 1, so
    an empty search raises InvariantViolation("hasse-weil").  Over an
    infinite field exhaustion is impossible and the fallback is Unknown,
    scoped by the height budget of the common-zero search, the only
    search that runs.
    """
    if q1.n != 4 or q2.n != 4:
        raise ValueError("rank-4 verdict needs two rank-4 forms")
    a = analyze(Pencil(q1, q2))
    if not a.simple:
        raise ValueError("verdict requires simple degeneration; analysis says no")

    v = common_isotropic_vector(q1, q2, budget)
    if v is not None:
        if q1.evaluate(v) or q2.evaluate(v):
            raise InvariantViolation("brauer-witness", "claimed common zero fails")
        return BrauerVerdict("trivial", v, "common-isotropic-vector", -1)

    if q1.field.size() is not None:
        raise InvariantViolation(
            "hasse-weil",
            "simple rank-4 pencil over %s without a common zero, but the "
            "smooth genus-1 curve it cuts out must have a point"
            % q1.field.label())
    return BrauerVerdict(
        "unknown", (),
        "budget exhausted: heights <= %d" % budget.height, -1)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@dataclass(frozen=True)
class PlaneSearchReport:
    plane: tuple  # (u, v) row-reduced basis, or None
    candidates: int
    beta_trivial: bool  # a common isotropic plane forces the trivial class


def common_isotropic_plane_rank6(q1, q2):
    """Exhaustive search for a plane totally isotropic for both rank-6
    forms, over a small prime field.

    Planes are enumerated once each through their reduced row echelon
    basis (u, v), u with pivot pa and zero in the pivot pb > pa of v; the
    number of such bases is checked against the Gaussian binomial.  The
    common isotropic planes are one growth step of
    lagrangian.common_isotropic_subspaces over both forms, and the one
    returned is the first by (pa, pb), then u, then v, each in
    lexicographic order.  A found plane is a line in every member
    quadric, which trivializes the even Clifford class of the pencil.
    """
    if q1.field is not q2.field or q1.n != 6 or q2.n != 6:
        raise ValueError("plane search needs two rank-6 forms over one field")
    field = q1.field
    if not isinstance(field, PrimeField) or field.p > 5:
        raise ValueError("plane search runs over prime fields with p <= 5")
    coding = ResidueCoding(field)
    tables = [coding.points(6, lead) for lead in range(6)]
    count = sum(int((tables[pa][:, pb] == 0).sum()) * len(tables[pb])
                for pa in range(6) for pb in range(pa + 1, 6))
    expected = gaussian_binomial(6, 2, field.p)
    if count != expected:
        raise InvariantViolation(
            "plane-enumeration",
            "visited %d planes, Gaussian binomial says %d" % (count, expected))
    level = common_isotropic_subspaces([q1, q2], 1)
    hit = None
    if level:
        # a stack's first row has its least pa, so the first plane is the
        # first row of the stack with the least (pa, pb)
        pb = min(level, key=lambda pb: (int((level[pb][0, 0] != 0).argmax()), pb))
        fu, fv = coding.decode(level[pb][0])
        for q in (q1, q2):
            if q.evaluate(fu) or q.evaluate(fv) or q.polar(fu, fv):
                raise InvariantViolation("plane-witness", "claimed plane fails")
        hit = (fu, fv)
    return PlaneSearchReport(plane=hit, candidates=count,
                             beta_trivial=hit is not None)
