"""Pencils of quadratic forms: degeneration analysis along the line of
members, discriminant covers, and isotropy correspondences.

A pencil is the line of forms s*q1 + t*q2 through two forms of the same
rank.  Its discriminant is a binary form of degree n in (s, t) whose
roots mark the degenerate members; the analysis here computes that form
exactly, from the determinants of n + 1 integer matrices B1 + k*B2 (the
polar matrices scaled or lifted to integers) interpolated over Z,
locates every root over the coefficient field (over Q by the divisor
test on the primitive integer model) and (for finite fields) over all
extension fields that can carry one, and checks the
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
points, the others the extension points.  The rank-6 plane search is one
step of lagrangian.common_isotropic_subspaces over both forms.

The witness search and the Amer-Brumer check code F_p by residues: their
points are the frozen rings.ResidueCoding.points tables, their forms
int64 coefficient and polar matrices read off the coefficients, and
rings.bilinear evaluates them.  Amer-Brumer (Brumer, C. R. Acad. Sci.
Paris 286, 1978): q1 and q2 have a common zero over k exactly when
x*q1 + q2 is isotropic over k(x).  A common zero is a degree-0 witness;
without one, the search past degree 0 is the Amer-Brumer check: it runs
to exhaustion, counts every leaf, and raises
InvariantViolation("amer-brumer") on any leaf that passes.  Below each
zero h of q2 with B2(h, .) != 0 (a head; a zero in the radical of B2 has
no child without a common zero, since the coefficient of x^1 then reads
q1(h)) the coefficient vectors of a witness form a tree, level k fixed
up to the span of a kernel by the coefficient of x^k; the search
evaluates every level as terms of its distinct parent rows times terms
of the span, one small float32 product per level, exact under the
bounds at _run_levels, and checks every degree in one descent.  A
degree-0 witness is checked once more, x*q1(v) + q2(v) = 0 by one einsum
on int64 residues.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .rings import (
    BinaryForm,
    ExtElem,
    ExtensionField,
    InvariantViolation,
    Poly,
    PrimeField,
    ResidueCoding,
    _mod,
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


def discriminant_form(pencil):
    """The degree-n binary form det(s*B1 + t*B2), halved for odd rank,
    over Q or a finite field F_p[w]/(g) (g = w for a prime field).

    Computed on integers: over Q the coefficient matrices are scaled by
    their common denominator D, over a finite field every entry is
    lifted to its residues 0..p-1, an integer polynomial in w of degree
    below deg g.  Then det(B1 + t*B2) is an integer polynomial in t and
    w; the determinants of B1 + k*B2 at w = 0..n(deg g - 1), k = 0..n,
    come from one fraction-free pass (_int_dets), and its coefficients
    from their exact interpolation over Z (_interpolate), first in t,
    then in w.  They are divided by D^n and halved for odd rank over Q,
    reduced mod p and g over a finite field.  Matches
    QuadraticForm.discriminant of every member exactly, with no leftover
    normalization unit.
    """
    import numpy as np
    field = pencil.field
    n = pencil.n
    if n % 2 and field.characteristic == 2:
        raise ValueError("odd-rank discriminants are not defined in characteristic 2")
    rows = (pencil.q1.c, pencil.q2.c)
    den = 1
    if field.kind == "rationals":
        den = math.lcm(*(c.denominator for q in rows for row in q for c in row))
        lifts = [[[[c.numerator * (den // c.denominator)] for c in row] for row in q] for q in rows]
    elif field.kind == "prime":
        lifts = [[[[c.v] for c in row] for row in q] for q in rows]
    elif field.kind == "extension" and field.base.kind == "prime":
        lifts = [[[[a.v for a in c.c] for c in row] for row in q] for q in rows]
    else:
        raise ValueError("no discriminant form over %s" % field.label())
    c = np.array(lifts, dtype=object).reshape(2, n, n, -1)
    b = c + c.transpose(0, 2, 1, 3)  # the polar matrices, entries as polynomials in w
    e = b.shape[3]
    at_w = np.arange(n * (e - 1) + 1, dtype=object)[:, None] ** np.arange(e)
    b1, b2 = np.moveaxis(np.tensordot(b, at_w, axes=([3], [1])), 3, 1)  # (w, n, n)
    stack = b1[:, None] + np.arange(n + 1, dtype=object)[:, None, None] * b2[:, None]
    dets = np.array(_int_dets(stack.reshape(-1, n, n)), dtype=object).reshape(len(at_w), n + 1)
    in_t = [_interpolate(row) for row in dets]
    coeffs = [_interpolate(col) for col in zip(*in_t)]  # in w, for each power of t
    scale = den ** n * (2 if n % 2 else 1)
    if field.kind == "rationals":
        return BinaryForm(field, n, [Fraction(a[0], scale) for a in coeffs])
    base = field.base if field.kind == "extension" else field
    inv = pow(scale, -1, base.p)
    if field.kind == "prime":
        return BinaryForm(field, n, [field.from_int(a[0] * inv) for a in coeffs])
    reduced = [Poly(base, field.modulus.var, [base.from_int(x * inv) for x in a]) % field.modulus
               for a in coeffs]
    return BinaryForm(field, n, [ExtElem(field, tuple(r.coeff(i) for i in range(e)))
                                 for r in reduced])


def _int_dets(stack):
    """The determinants, as Python ints, of a stack (k, n, n) of integer
    matrices (an object array), by one fraction-free (Bareiss) elimination
    of the whole stack.

    Step j swaps the first row at or below j with a nonzero entry in
    column j into place (a matrix without one is singular, and its
    trailing block is set to prev * I so that the steps leave it alone)
    and replaces every entry below and right of the pivot by
    (pivot * x - left * top) / prev, an exact division with prev the
    pivot of step j - 1.  The stack runs in int64 while its largest
    entry m bounds every product, 2 m^2 < 2^63, and on Python ints from
    the first step where it does not.
    """
    import numpy as np
    k, n, _ = stack.shape
    m = int(np.abs(stack).max(initial=0))
    a = stack.astype(np.int64) if m < 1 << 62 else stack.copy()
    sign = np.ones(k, dtype=np.int64)
    singular = np.zeros(k, dtype=bool)
    prev = np.ones(k, dtype=a.dtype)
    at = np.arange(k)
    for j in range(n - 1):
        nz = a[:, j:, j] != 0
        piv = j + nz.argmax(axis=1)
        dead = ~nz.any(axis=1)
        if dead.any():
            singular |= dead
            a[dead, j:, j:] = prev[dead, None, None] * np.eye(n - j, dtype=np.int64)
            piv[dead] = j
            m = max(m, int(np.abs(prev[dead]).max()))
        swap = at[piv != j]
        if len(swap):
            a[swap, j], a[swap, piv[swap]] = a[swap, piv[swap]], a[swap, j].copy()
            sign[swap] = -sign[swap]
        if a.dtype != object and 2 * m * m >= 1 << 63:
            a, prev = a.astype(object), prev.astype(object)
        pivot = a[:, j, j].copy()
        a[:, j + 1:, j + 1:] = (pivot[:, None, None] * a[:, j + 1:, j + 1:]
                                - a[:, j + 1:, j, None] * a[:, j, None, j + 1:]) // prev[:, None, None]
        prev = pivot
        if a.dtype != object:
            m = int(np.abs(a[:, j + 1:, j + 1:]).max(initial=0))
    dets = a[:, n - 1, n - 1] * sign if n else np.ones(k, dtype=np.int64)
    return [0 if dead else int(d) for d, dead in zip(dets, singular)]


def _interpolate(values):
    """The integer coefficients, ascending, of the polynomial f of degree
    below len(values) with f(k) = values[k], for f with integer
    coefficients: Newton's forward differences, each divided by j!
    (exact, since the j-th difference of t^i at 0 is j! times a Stirling
    number), expanded along the falling factorials t(t-1)...(t-j+1)."""
    diffs = list(values)
    coeffs = [0] * len(values)
    falling = [1]  # t(t-1)...(t-j+1), ascending coefficients
    fact = 1
    for j in range(len(values)):
        newton, rest = divmod(diffs[0], fact)
        if rest:
            raise InvariantViolation(
                "pencil-discriminant", "difference %d is not divisible by %d!" % (j, j))
        for i, c in enumerate(falling):
            coeffs[i] += newton * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
        fact *= j + 1
    return coeffs


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
        rank = n - pencil.member(s0, t0).regular_rank()
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
        rank = n - lifted.member(ext.one(), theta).regular_rank()
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


def center_matches_cover(pencil):
    """Per-member comparison of the even Clifford center with the value
    of the discriminant form, at every point of the projective line over
    a finite field of at most 11 elements.

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
    if field.size() is None or field.size() > 11:
        raise ValueError("sampling needs a small finite field")
    delta = discriminant_form(pencil)
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
    """((coefficient matrix, polar matrix) of q1, the same of q2) as int64
    residues; the polar matrix is C + C^T of the upper triangular C."""
    import numpy as np
    p = q1.field.p
    out = []
    for q in (q1, q2):
        c = np.array([[a.v for a in row] for row in q.c], dtype=np.int64)
        out.append((c, (c + c.T) % p))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _all_vectors(p, m):
    """The p^m vectors of F_p^m in lexicographic order, as rows, frozen."""
    import numpy as np
    out = np.indices((p,) * m).reshape(m, -1).T.copy()
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _zero_at(p, n):
    """(n, p^(n-1), n): row j the vectors of F_p^n with coordinate j zero,
    in lexicographic order, frozen."""
    import numpy as np
    out = np.stack([np.insert(_all_vectors(p, n - 1), j, 0, axis=1) for j in range(n)])
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _projective_points(p, n, lexicographic):
    """The projective points of F_p^n, first nonzero coordinate 1, as one
    frozen stack of the ResidueCoding.points tables: by descending lead in
    lexicographic order, by ascending lead in the canonical one."""
    import numpy as np
    coding = ResidueCoding(PrimeField(p))
    leads = reversed(range(n)) if lexicographic else range(n)
    out = np.concatenate([coding.points(n, lead) for lead in leads])
    out.setflags(write=False)
    return out


# leaves evaluated per block at the top level, which bounds memory
_LEAF_BLOCK = 1 << 15


@dataclass(frozen=True)
class _HeadRun:
    """The kernel spans of a run of consecutive heads, one slot each.

    Every level of the search below a head h solves ell(v) = r for
    ell = B2(h, .), which has a pivot, ell[pivot] != 0: the solutions are
    c e_piv + s, c = r ell[pivot]^-1, s in the kernel of ell.

    heads: (g, n) residues; pivot: (g,) columns; neg_inv: (g,) the residue
    of -ell[pivot]^-1; e: (g, n) e_piv; q_e: (g, 2) q1(e_piv), q2(e_piv);
    span: (g, w, n) the solutions s, in the order of itertools.product
    over the kernel basis, so that span[:, 0] = 0; part: (g, w, n + 5)
    float32 rows (s, 1, B1(e_piv, s), B2(e_piv, s), q1(s), q2(s)) mod p.
    """

    heads: object
    pivot: object
    neg_inv: object
    e: object
    q_e: object
    span: object
    part: object

    def slots(self, lo, hi):
        """The run of slots lo..hi-1."""
        pick = slice(lo, hi)
        return _HeadRun(self.heads[pick], self.pivot[pick], self.neg_inv[pick],
                        self.e[pick], self.q_e[pick], self.span[pick], self.part[pick])


def _head_run(forms, p, zeros):
    """The heads among the zeros (z, n) of q2, those h with
    B2(h, .) != 0, in order, as one run (see _HeadRun), the kernel spans
    and span parts of all of them built in one batched pass.  A zero in
    the radical of B2 is dropped: below it the coefficient of x^1 reads
    q1(h), so it has no child unless it is a common zero."""
    import numpy as np
    (c1, b1), (c2, b2) = forms
    n = zeros.shape[1]
    zeros = zeros.astype(np.int64)
    ell = zeros @ b2 % p
    has = ell.any(axis=1)
    heads, ell = zeros[has], ell[has]
    piv = (ell != 0).argmax(axis=1)
    e = np.eye(n, dtype=np.int64)[piv]
    inv = ell[np.arange(len(piv)), piv] ** (p - 2) % p  # ell[piv]^-1, by Fermat
    # the kernel of ell is spanned by the rows i != piv of
    # I - (ell^T ell[piv]^-1) e_piv, whose row piv reads 0: the vectors
    # with 0 at piv, in lexicographic order of the rest, times it give
    # the span in the order of itertools.product over that basis
    basis = np.eye(n, dtype=np.int64) - (ell * inv[:, None])[:, :, None] * e[:, None]
    span = _zero_at(p, n)[piv] @ basis % p
    return _HeadRun(
        heads=heads, pivot=piv, neg_inv=(p - inv) % p, e=e,
        q_e=np.stack([c1[piv, piv], c2[piv, piv]], axis=1), span=span,
        part=_span_part(forms, p, span, e))


def _span_part(forms, p, span, e):
    """The rows (s, 1, B1(e, s), B2(e, s), q1(s), q2(s)) mod p of every
    span row s, as float32 (g, w, n + 5), for e the (g, n) e_piv."""
    import numpy as np
    (c1, b1), (c2, b2) = forms
    n = span.shape[2]
    part = np.empty(span.shape[:2] + (n + 5,), dtype=np.float32)
    part[..., :n] = span
    part[..., n] = 1
    part[..., n + 1:n + 3] = span @ np.stack([e @ b1, e @ b2], axis=2) % p
    part[..., n + 3] = bilinear(span, c1, span) % p
    part[..., n + 4] = bilinear(span, c2, span) % p
    return part


def _head_search(forms, p, run, max_degree):
    """The Amer-Brumer check below the heads of run (_head_run): an
    exhaustive search, for every degree d = 1..max_degree and every head
    h, for v = h + v_1 x + ... + v_d x^d with v_d != 0 and
    x*q1(v) + q2(v) = 0.

    Returns the number of leaves, the candidate tuples (h, v_1, ..., v_d)
    of every degree, all of them evaluated; it runs only on pairs without
    a common zero, so a leaf that passes raises (_no_witness).  Below a
    head the enumeration is a tree, level k the solutions v_k of the
    linear condition on the coefficient of x^k (see _HeadRun), so every
    head has sum_{d=1}^{max_degree} p^((n-1)d) leaves.  The slots are
    searched in batches whose level max_degree - 1 stays within
    _LEAF_BLOCK rows, each batch by one descent (_run_levels) that checks
    every degree on its way down.
    """
    g, w = run.span.shape[:2]
    size = max(1, _LEAF_BLOCK // w ** (max_degree - 1))
    return sum(_run_levels(forms, p, run.slots(lo, lo + size), max_degree)
               for lo in range(0, g, size))


def _no_witness(ok, d):
    """The number of leaves of degree d in the mask ok of those that pass,
    after checking that none does: by Amer-Brumer, x*q1 + q2 is
    anisotropic over k(x) when q1 and q2 have no common zero."""
    if ok.any():
        raise InvariantViolation(
            "amer-brumer",
            "a degree-%d leaf solves x*q1(v) + q2(v) = 0, but q1 and q2 have "
            "no common zero" % d)
    return ok.size


def _run_levels(forms, p, run, last):
    """The search of _head_search on the slots of one run, for the
    degrees 1..last, as one descent: returns the number of leaves, each
    checked by _no_witness.  Every level is evaluated as terms of the
    distinct parent rows times terms of the span.

    The coefficient of x^j in x*q1(v) + q2(v) is the sum of
    B2(v_a, v_b) over a < b, a + b = j, of B1(v_a, v_b) over a < b,
    a + b = j - 1, and of q2(v_{j/2}) and q1(v_{(j-1)/2}).  For a row
    (v_0, ..., v_{m-1}) of level m - 1 let K_j be the part of it that
    these vectors already fix.  The condition at x^m is
    B2(v_0, v_m) + K_m = 0, so the children are v_m = c e_piv + s with
    c = -K_m ell[pivot]^-1 and s in the span, and a child adds to K_j, for
    m + 1 <= j <= 2m + 1 (no other j gains a term at level m),
      L_j . v_m + [j = 2m] q2(v_m) + [j = 2m + 1] q1(v_m),
    L_j = B1 v_{j-m-1} + B2 v_{j-m}, the indices below m.  With
    q(c e + s) = c^2 q(e) + c B(e, s) + q(s) that is, for K_j of the child,
      (L_j, K_j + c L_j[piv] + c^2 q(e), c, c, 1, 1) . part[s]
    (each of the last four only where its j is), a row vector of the
    parent dotted with a span row: one product (w, n + 5) @ (n + 5, rows)
    per level gives every K_j of every child.  A child of level m has all
    of v_0..v_m, so its K_j for j = m + 1..2m + 1 are the whole
    coefficients of x*q1(v) + q2(v) of degree above m when it is the last
    vector: the same product is the degree-m leaf test, and the search of
    every degree is one descent.  The last level is evaluated block by
    block over _LEAF_BLOCK leaves without building them.  The L_j of all
    rows come from one product of [B1; B2] with the stacked rows
    [v_0 | ... | v_{m-1}].  Parent terms are computed once per parent row
    and span terms once per span column; only the stack of vectors itself
    is copied to the children.

    All of it runs in float32 and is exact: the residues are below p <= 5
    and n <= 5, so an entry of L_j is at most 2n(p-1)^2 = 160, the
    constant at most (p-1)(1 + 160 + (p-1)^2) = 708, and a value at most
    n 160 (p-1) + 708 + 2(p-1)^2 < 2^12, far below 2^24 (2^23 + 2^12 at
    the last level, see _LEAF_OFFSET).  Each K_j is reduced mod p before
    it is used.  The zero leaf (c = 0 with span[0] = 0) is no witness and
    is masked out of the test, but counts as a leaf.
    """
    import numpy as np
    f32 = np.float32
    (c1, b1), (c2, b2) = forms
    g, n = run.heads.shape
    w = run.span.shape[1]
    # every array keeps its rows on the last axis, so that numpy's inner
    # loops run over rows rather than over n or n + 5 entries
    both = np.concatenate([b1, b2]).astype(f32)  # (B1 v; B2 v) = both @ v
    at = np.arange(g)
    e = run.e.T.astype(f32)  # (n, g)
    span = run.span.transpose(2, 0, 1).astype(f32)  # (n, g, w)
    neg_inv = run.neg_inv[:, None].astype(f32)
    q_e = run.q_e.astype(f32)
    vs = run.heads.T[:, :, None, None].astype(f32)  # (n, g, m, rows)
    known = (bilinear(run.heads, c1, run.heads) % p)[:, None, None].astype(f32)  # K_1
    counted = 0
    for m in range(1, last + 1):
        # vs holds v_0..v_{m-1} of every row; known (g, m, rows) the K_j of
        # every row for j = m..2m-1
        c = _mod(known[:, 0] * neg_inv, p)
        rows = vs.shape[3]
        # the row vectors of j = m+1..2m+1, (g, n + 5, m + 1, rows)
        row = np.zeros((g, n + 5, m + 1, rows), dtype=f32)
        lin = (both @ vs.reshape(n, -1)).reshape(2, n, g, m, rows).transpose(0, 2, 1, 3, 4)
        row[:, :n, :m] = lin[0]
        row[:, :n, :m - 1] += lin[1, :, :, 1:]
        row[:, n, :m - 1] = known[:, 1:]
        row[:, n] += c[:, None] * row[at, run.pivot]
        cc = c * c
        row[:, n, m - 1] += cc * q_e[:, 1, None]
        row[:, n, m] += cc * q_e[:, 0, None]
        row[:, n + 1, m] = c
        row[:, n + 2, m - 1] = c
        row[:, n + 3, m] = 1
        row[:, n + 4, m - 1] = 1
        if m == last:
            break
        values = run.part @ row.reshape(g, n + 5, -1)  # (g, w, (m + 1) rows)
        known = _mod(values, p).reshape(g, w, m + 1, rows).transpose(0, 2, 3, 1) \
            .reshape(g, m + 1, rows * w)
        ok = ~known.any(axis=1).reshape(g, rows, w)
        ok[:, :, 0] &= c != 0  # the zero leaf
        counted += _no_witness(ok, m)
        grown = np.empty((n, g, m + 1, rows, w), dtype=f32)
        grown[:, :, :m] = vs[..., None]
        grown[:, :, m] = _mod(e[:, :, None, None] * c[:, :, None] + span[:, :, None], p)
        vs = grown.reshape(n, g, m + 1, rows * w)

    # the last level: blocks of whole slots while a slot's leaves fit in a
    # block, else blocks of the rows of one slot
    row[:, n] += _LEAF_OFFSET
    per = max(1, _LEAF_BLOCK // w)
    if rows <= per:
        step = per // rows
        blocks = [(a, min(a + step, g), 0, rows) for a in range(0, g, step)]
    else:
        blocks = [(a, a + 1, lo, min(lo + per, rows))
                  for a in range(g) for lo in range(0, rows, per)]
    for a, b, lo, hi in blocks:
        values = run.part[a:b] @ row[a:b, :, :, lo:hi].reshape(b - a, n + 5, -1)
        ok = _leaves_divisible(values.reshape(b - a, w, m + 1, hi - lo), p)
        ok[:, 0] &= c[a:b, lo:hi] != 0  # the zero leaf
        counted += _no_witness(ok, m)
    return counted


# added to the constant of every leaf condition, so that a value v < 2^12
# comes out of the float32 product as 2^23 + v, whose bits read
# 0x4B000000 + v as uint32: 0x4B000000 = 75 * 2^24 is divisible by 2, 3
# and 5, so those bits are divisible by p exactly when v is
_LEAF_OFFSET = 1 << 23


def _leaves_divisible(values, p):
    """Whether values[:, :, j] % p == 0 for every j, for the float32 leaf
    values 2^23 + v of _run_levels (0 <= v < 2^12), read as their uint32
    bits, which are divisible by p exactly when v is.  For odd p,
    multiplication by p^-1 mod 2^32 maps the multiples of p onto
    [0, (2^32 - 1) // p] and every other value above it; for p = 2,
    multiplication by 2^31 maps the even values onto 0 and the odd ones
    onto 2^31.  So the largest image over j decides.  The values are
    overwritten."""
    import numpy as np
    bits = values.view(np.uint32)
    if p == 2:
        bits *= np.uint32(1 << 31)
        bound = 0
    else:
        bits *= np.uint32(pow(p, -1, 1 << 32))
        bound = ((1 << 32) - 1) // p
    return bits.max(axis=2) <= np.uint32(bound)


def _witness_polys(q1, q2, vs):
    """The polynomial coordinates of v = sum vs[a] x^a, after checking
    x*q1(v) + q2(v) = 0 on int64 residues.

    With C the upper triangular coefficient matrix of a form q, the
    coefficient of x^k in q(v) is the sum of vs[a] . C vs[b] over
    a + b = k: one einsum over the (degree + 1, n) coefficients gives
    those terms for both forms, independently of the float32 products of
    the search.  The Polys are built once the check has passed."""
    import numpy as np
    field, n = q1.field, q1.n
    p = field.p
    v = np.array(vs, dtype=np.int64).reshape(-1, n) % p
    (c1, _), (c2, _) = _int_forms(q1, q2)
    terms = np.einsum("ai,fij,bj->fab", v, np.stack([c1, c2]), v)
    degree = np.add.outer(np.arange(len(v)), np.arange(len(v)))
    total = np.zeros(2 * len(v), dtype=np.int64)
    np.add.at(total, degree + 1, terms[0])  # x*q1(v)
    np.add.at(total, degree, terms[1])  # q2(v)
    if (total % p).any():
        raise InvariantViolation("pencil-witness",
                                 "claimed witness fails the identity")
    return tuple(Poly(field, "x", tuple(field.from_int(int(a)) for a in v[:, i]))
                 for i in range(n))


def pencil_isotropy_witness(q1, q2, max_degree=3):
    """A constant vector v, not zero, with x*q1(v) + q2(v) = 0, that is a
    common zero of q1 and q2, or the Amer-Brumer check that no vector of
    polynomials of degree <= max_degree is one.

    Returns (witness, leaves).  The candidates for the coefficient v_0 of
    x^0 are the projective zeros of q2, first nonzero coordinate 1, in
    lexicographic order.  The first of them that q1 also vanishes on is
    the witness, as polynomial coordinates of degree 0, checked by
    _witness_polys, and leaves is 0.  Without one the witness is None, and
    by the Amer-Brumer theorem x*q1 + q2 is anisotropic over k(x): the
    search of degrees 1..max_degree (_head_search) runs to exhaustion below
    every zero h of q2 with B2(h, .) != 0, the kernel spans of all of them
    and the span terms of their conditions built once, in one batched
    pass, by _head_run; every level is evaluated as terms of its distinct
    parent rows times span terms, in exact float32 products (bounds at
    _run_levels).  leaves is the number of candidate coefficient tuples
    it evaluated, #heads * sum_{d=1}^{max_degree} p^((n-1)d), and a tuple
    that passes raises InvariantViolation("amer-brumer").
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
    pts = _projective_points(p, n, True)
    zeros = pts[bilinear(pts, forms[1][0], pts) % p == 0]

    common = np.flatnonzero(bilinear(zeros, forms[0][0], zeros) % p == 0)
    if max_degree >= 0 and len(common):
        return _witness_polys(q1, q2, [zeros[common[0]]]), 0
    if max_degree < 1 or not len(zeros):
        return None, 0
    return None, _head_search(forms, p, _head_run(forms, p, zeros), max_degree)


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
    the witness search, which raises on any witness of degree >= 1.  A
    common zero must reappear as a degree-0 witness, and a witness
    without a common zero falsifies the correspondence, so either
    direction failing raises instead of reporting.  An exhausted search
    must have counted exactly its closed-form number of leaves,
    #(zeros h of q2 with B2(h, .) != 0) * sum_{d=1}^{max_degree} p^((n-1)d).
    """
    if q1.field is not q2.field or q1.n != q2.n:
        raise ValueError("forms must share a field and a rank")
    field, n = q1.field, q1.n
    if not isinstance(field, PrimeField) or field.p > 5:
        raise ValueError("the exhaustive side needs a prime field with p <= 5")
    if n > 5:
        raise ValueError("rank capped at 5")
    p = field.p
    (c1, _), (c2, b2) = _int_forms(q1, q2)
    pts = _projective_points(p, n, False)
    on_q2 = bilinear(pts, c2, pts) % p == 0
    zeros = pts[on_q2 & (bilinear(pts, c1, pts) % p == 0)]
    witness, leaves = pencil_isotropy_witness(q1, q2, max_degree)

    if len(zeros) and witness is None:
        raise InvariantViolation(
            "isotropy-correspondence",
            "common zero exists but no constant witness was produced")
    if witness is not None and not len(zeros):
        raise InvariantViolation(
            "isotropy-correspondence",
            "constant witness without any common zero")
    if witness is None:
        heads = int((pts[on_q2] @ b2 % p).any(axis=1).sum())
        want = heads * sum(p ** ((n - 1) * d) for d in range(1, max_degree + 1))
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
