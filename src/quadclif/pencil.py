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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .rings import (
    BinaryForm,
    ExtensionField,
    InvariantViolation,
    Poly,
    PrimeField,
    irreducible_factors,
    scalar_str,
)
from .quadform import QuadraticForm
from .splitting import DEFAULT_BUDGET


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
    rank of the member at every root: base-rational roots directly, and
    over a finite field also every root in every extension, by factoring
    the discriminant and evaluating in the residue field of each factor
    (the class of the variable is a root there, and radical rank is
    constant along a conjugacy class).  Each visited root is checked
    against the multiplicity bound: multiplicity >= radical rank.
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
    points = []
    for (s0, t0), mult in delta.roots_projective():
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

    exhaustive = True
    if field.size() is not None:
        dehom = delta.dehomogenize()
        if dehom.degree() > 0:
            _, factors = irreducible_factors(dehom)
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
    elif field.kind == "rationals":
        # irrational roots are not enumerated; the multiplicity bound
        # still decides simplicity whenever delta is squarefree
        exhaustive = squarefree

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
    from .clifford import center_report, even_clifford

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
        rep = center_report(even_clifford(member))
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


def _canonical_vectors(field, n):
    """Nonzero vectors with first nonzero coordinate 1, one per
    projective point, in a fixed enumeration order."""
    elems = list(field.elements())
    zero, one = field.zero(), field.one()
    out = []
    for lead in range(n):
        head = (zero,) * lead + (one,)
        for tail in itertools.product(elems, repeat=n - lead - 1):
            out.append(head + tail)
    return out


def common_isotropic_vector(q1, q2, budget=DEFAULT_BUDGET):
    """First common nonzero zero of both forms, or None.

    Exhaustive over finite fields; over Q an ascending sweep over
    primitive integer vectors of bounded height, capped by the budget's
    enumeration allowance.
    """
    if q1.field is not q2.field or q1.n != q2.n:
        raise ValueError("forms must share a field and a rank")
    field, n = q1.field, q1.n
    if field.size() is not None:
        for v in _canonical_vectors(field, n):
            if not q1.evaluate(v) and not q2.evaluate(v):
                return v
        return None
    if field.kind != "rationals":
        raise ValueError("common-zero search supports finite fields and Q")
    from fractions import Fraction
    import math
    seen = 0
    for h in range(1, budget.height + 1):
        span = range(-h, h + 1)
        for raw in itertools.product(span, repeat=n):
            if max(abs(a) for a in raw) != h:
                continue
            seen += 1
            if seen > budget.enum:
                return None
            g = 0
            for a in raw:
                g = math.gcd(g, abs(a))
            if g != 1:
                continue
            lead = next((a for a in raw if a), 0)
            if lead < 0:
                continue
            v = tuple(Fraction(a) for a in raw)
            if not q1.evaluate(v) and not q2.evaluate(v):
                return v
    return None


def _int_form(q):
    """Upper triangular coefficient matrix as plain ints mod p."""
    return [[e.v for e in row] for row in q.c]


def _int_polar(q):
    p = q.field.p
    c = _int_form(q)
    n = q.n
    return [[(c[i][j] if i < j else c[j][i] if j < i else 2 * c[i][i]) % p
             for j in range(n)] for i in range(n)]


def _q_val(c, v, p):
    acc = 0
    for i, vi in enumerate(v):
        if vi:
            row = c[i]
            acc += vi * (row[i] * vi + sum(row[j] * v[j] for j in range(i + 1, len(v))))
    return acc % p


def _b_val(b, u, v, p):
    acc = 0
    for i, ui in enumerate(u):
        if ui:
            acc += ui * sum(b[i][j] * v[j] for j in range(len(v)))
    return acc % p


def pencil_isotropy_witness(q1, q2, max_degree=3):
    """A vector of polynomials v(x), not identically zero, with
    x*q1(v) + q2(v) = 0 identically, of degree <= max_degree; or None.

    The search is exhaustive for each degree d in ascending order.  The
    head coefficient vector must be a zero of q2 (coefficient of x^0),
    each next coefficient vector solves one linear condition, and the
    top half of the coefficient equations is checked at the leaves.  A
    degree-0 witness is exactly a common zero of the two forms.
    """
    if q1.field is not q2.field or q1.n != q2.n:
        raise ValueError("forms must share a field and a rank")
    field, n = q1.field, q1.n
    if not isinstance(field, PrimeField) or field.p > 5:
        raise ValueError("witness search runs over prime fields with p <= 5")
    if n > 5:
        raise ValueError("witness search kept to rank <= 5")
    p = field.p
    c1, c2 = _int_form(q1), _int_form(q2)
    b1, b2 = _int_polar(q1), _int_polar(q2)

    heads = [v for v in itertools.product(range(p), repeat=n)
             if any(v) and _q_val(c2, v, p) == 0]
    # projective normalization: first nonzero coordinate 1
    heads = [v for v in heads if v[next(i for i, a in enumerate(v) if a)] == 1]

    def coeff_eq(vs, k):
        # coefficient of x^k in x*q1(v) + q2(v), for v = sum vs[a] x^a
        acc = 0
        d = len(vs) - 1
        for (q, b, shift) in ((c1, b1, 1), (c2, b2, 0)):
            kk = k - shift
            if kk < 0 or kk > 2 * d:
                continue
            if kk % 2 == 0 and kk // 2 <= d:
                acc += _q_val(q, vs[kk // 2], p)
            lo = max(0, kk - d)
            for a in range(lo, (kk + 1) // 2):
                acc += _b_val(b, vs[a], vs[kk - a], p)
        return acc % p

    def found(vs):
        polys = tuple(
            Poly(field, "x", tuple(field.from_int(vs[a][i]) for a in range(len(vs))))
            for i in range(n))
        # construction-time identity check over the wrapped field
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

    for d in range(0, max_degree + 1):
        for head in heads:
            if d == 0:
                if coeff_eq((head,), 1) == 0:
                    return found((head,))
                continue
            # one linear functional serves every level: ell = B2(head, .)
            ell = [_b_val(b2, head, tuple(1 if j == i else 0 for j in range(n)), p)
                   for i in range(n)]
            pivot = next((i for i, a in enumerate(ell) if a), None)
            if pivot is None:
                kernel = [tuple(1 if j == i else 0 for j in range(n))
                          for i in range(n)]
            else:
                inv = pow(ell[pivot], p - 2, p)
                kernel = []
                for i in range(n):
                    if i == pivot:
                        continue
                    vec = [0] * n
                    vec[i] = 1
                    vec[pivot] = (-ell[i] * inv) % p
                    kernel.append(tuple(vec))

            def assign(vs, level):
                rhs = (-coeff_eq(vs + ((0,) * n,), level)) % p
                if pivot is None:
                    if rhs:
                        return None
                    base = (0,) * n
                else:
                    base = tuple((rhs * pow(ell[pivot], p - 2, p)) % p if i == pivot else 0
                                 for i in range(n))
                for combo in itertools.product(range(p), repeat=len(kernel)):
                    vec = list(base)
                    for coef, kv in zip(combo, kernel):
                        if coef:
                            for i in range(n):
                                vec[i] = (vec[i] + coef * kv[i]) % p
                    vec = tuple(vec)
                    if level == d:
                        if not any(vec):
                            continue  # exact degree d, lower handled earlier
                        full = vs + (vec,)
                        if all(coeff_eq(full, k) == 0 for k in range(2 * d + 1, d, -1)):
                            yield full
                    else:
                        for out in assign(vs + (vec,), level + 1):
                            yield out

            for vs in assign((head,), 1):
                return found(vs)
    return None


@dataclass(frozen=True)
class IsotropyCorrespondence:
    common_zero: tuple  # or None
    common_zero_count: int
    witness: tuple  # polynomial coordinates, or None
    witness_degree: int  # -1 when absent
    searched_degree: int


def amer_brumer_check(q1, q2, max_degree=3):
    """Exhaustive two-sided check of the correspondence between common
    zeros of (q1, q2) and isotropy of x*q1 + q2 over the rational
    function field.

    Side A enumerates every projective point; side B runs the bounded
    witness search.  A common zero must reappear as a degree-0 witness,
    and a witness without a common zero falsifies the correspondence, so
    either direction failing raises instead of reporting.
    """
    if q1.field is not q2.field or q1.n != q2.n:
        raise ValueError("forms must share a field and a rank")
    field, n = q1.field, q1.n
    if not isinstance(field, PrimeField) or field.p > 5:
        raise ValueError("the exhaustive side needs a prime field with p <= 5")
    if n > 5:
        raise ValueError("rank capped at 5")

    zeros = [v for v in _canonical_vectors(field, n)
             if not q1.evaluate(v) and not q2.evaluate(v)]
    witness = pencil_isotropy_witness(q1, q2, max_degree)

    if zeros and witness is None:
        raise InvariantViolation(
            "isotropy-correspondence",
            "common zero exists but no constant witness was produced")
    if zeros:
        deg = max(c.degree() for c in witness)
        if deg != 0:
            raise InvariantViolation(
                "isotropy-correspondence",
                "common zero exists but the first witness has degree %d" % deg)
    if witness is not None and not zeros:
        raise InvariantViolation(
            "isotropy-correspondence",
            "function-field witness at degree <= %d without any common zero"
            % max_degree)
    return IsotropyCorrespondence(
        common_zero=zeros[0] if zeros else None,
        common_zero_count=len(zeros),
        witness=witness,
        witness_degree=max(c.degree() for c in witness) if witness else -1,
        searched_degree=max_degree,
    )


# -- rank-4 and rank-6 verdicts ----------------------------------------


@dataclass(frozen=True)
class BrauerVerdict:
    kind: str  # "trivial" | "nontrivial" | "unknown"
    witness: tuple  # section witness when trivial
    scope: str  # what was searched, and how exhaustively
    witness_degree: int  # -1 for constant/none

    def __bool__(self):
        return self.kind == "trivial"


def brauer_triviality_rank4(q1, q2, budget=DEFAULT_BUDGET, max_degree=3):
    """Triviality verdict for the even Clifford class of a rank-4 pencil
    with simple degeneration.

    A section of the quadric bundle is equivalent to isotropy of the
    generic member over k(x), and the common-zero correspondence pulls
    that down to a common zero of the two forms.  Finding either gives
    Trivial with a checked witness.  Over a finite field both searches
    are exhaustive within their scope, and that scope (constants plus
    degree <= max_degree) is recorded on the Nontrivial verdict; over an
    infinite field exhaustion is impossible and the fallback is Unknown.
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
        witness = pencil_isotropy_witness(q1, q2, max_degree)
        if witness is not None:
            # unreachable if the correspondence holds; surface loudly
            raise InvariantViolation(
                "isotropy-correspondence",
                "witness found although the exhaustive common-zero search failed")
        return BrauerVerdict(
            "nontrivial", (),
            "exhaustive: all projective points and all function-field "
            "witnesses of degree <= %d" % max_degree, -1)
    return BrauerVerdict(
        "unknown", (),
        "budget exhausted: heights <= %d, degree <= %d"
        % (budget.height, max_degree), -1)


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
    basis; the count is checked against the Gaussian binomial.  A found
    plane is a line in every member quadric, which trivializes the even
    Clifford class of the pencil.
    """
    if q1.field is not q2.field or q1.n != 6 or q2.n != 6:
        raise ValueError("plane search needs two rank-6 forms over one field")
    field = q1.field
    if not isinstance(field, PrimeField) or field.p > 5:
        raise ValueError("plane search runs over prime fields with p <= 5")
    p = field.p
    c1, c2 = _int_form(q1), _int_form(q2)
    b1, b2 = _int_polar(q1), _int_polar(q2)
    elems = list(range(p))
    count = 0
    hit = None
    for pa in range(6):
        for pb in range(pa + 1, 6):
            free_a = [j for j in range(pa + 1, 6) if j != pb]
            free_b = [j for j in range(pb + 1, 6)]
            for ta in itertools.product(elems, repeat=len(free_a)):
                u = [0] * 6
                u[pa] = 1
                for j, val in zip(free_a, ta):
                    u[j] = val
                u = tuple(u)
                qu1 = _q_val(c1, u, p)
                qu2 = _q_val(c2, u, p)
                for tb in itertools.product(elems, repeat=len(free_b)):
                    v = [0] * 6
                    v[pb] = 1
                    for j, val in zip(free_b, tb):
                        v[j] = val
                    v = tuple(v)
                    count += 1
                    if hit is None and qu1 == 0 and qu2 == 0 \
                            and _q_val(c1, v, p) == 0 and _q_val(c2, v, p) == 0 \
                            and _b_val(b1, u, v, p) == 0 and _b_val(b2, u, v, p) == 0:
                        hit = (u, v)
    expected = gaussian_binomial(6, 2, p)
    if count != expected:
        raise InvariantViolation(
            "plane-enumeration",
            "visited %d planes, Gaussian binomial says %d" % (count, expected))
    if hit is not None:
        fu = tuple(field.from_int(a) for a in hit[0])
        fv = tuple(field.from_int(a) for a in hit[1])
        for q in (q1, q2):
            if q.evaluate(fu) or q.evaluate(fv) or q.polar(fu, fv):
                raise InvariantViolation("plane-witness", "claimed plane fails")
        hit = (fu, fv)
    return PlaneSearchReport(plane=hit, candidates=count,
                             beta_trivial=hit is not None)
