"""Totally isotropic subspaces over finite fields.

Exhaustive enumeration of isotropic subspaces of a quadratic form in
row-echelon canonical form, the partition of the maximal ones into the
two rulings by the intersection-parity rule, and the comparison of that
component picture with the center of the even Clifford algebra: a
square center discriminant must show two components over the ground
field, a nonsquare one must show the two components only over the
quadratic extension with the q-power map swapping them.

Everything runs on the table coding of rings.TableCoding: field
elements are ints 0..q-1 in numpy arrays, and sums and products are
table lookups, so the hot loops never touch wrapped field elements.
The growth takes a list of forms and finds the subspaces totally
isotropic for all of them at once (common_isotropic_subspaces): one
form for the enumeration here, the two forms of a rank-6 pencil for
pencil.common_isotropic_plane_rank6.  There is one table of common
isotropic points per leading column, cut out of TableCoding.points.  A
subspace grows in RREF order: its next row is a point with its leading
column past the last pivot, a column in which every earlier row is
zero, and polar to every earlier row under every form; the polar
conditions are tested for a whole block of candidate points at once.
Every RREF basis arises from its first rows in exactly one way, so each
subspace is produced once and nothing needs deduplication.  The
subspaces stay coded through the rulings, which compare every pair
through the rank of the stacked pair in batched eliminations, and
through the q-power map, which acts on the codes as a permutation; only
the reported LagrangianSet decodes them.  _assert_totally_isotropic
re-verifies the whole enumerated stack at once independently of the
tables: it lifts the codes to base-field residues read off the field's
own elements and forms every Gram matrix in int64 residue arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import (
    InvariantViolation,
    quadratic_extension,
    scalar_str,
    table_coding,
)


# codes one chunk of the candidate test in _grow, or of the pair ranks in
# ruling_components, holds at most, unless a single parent subspace or a
# single row of pairs is already larger
_BLOCK = 1 << 16


def _grow(tc, polars, points, level):
    """The subspaces one dimension up, each exactly once.

    level maps a last pivot column to the stack of subspaces, in RREF,
    whose last pivot it is.  The first d rows of a (d+1)-dimensional
    RREF basis are the RREF basis of a d-dimensional subspace that is
    zero in the last pivot column, and the last row is a point of the
    point table of that column; the span is totally isotropic for every
    form exactly when that point is polar to every row of the parent
    under each of the polar matrices.  A grown stack is ordered by the
    parent's last pivot, then the parent, then the point.
    """
    import numpy as np

    grown = {}
    for lead, cand in enumerate(points):
        if not cand.size:
            continue
        blocks = []
        for piv, subs in level.items():
            if piv >= lead:
                continue
            subs = subs[~subs[:, :, lead].any(axis=1)]
            if not subs.size:
                continue
            step = max(1, _BLOCK // (subs[0].size * max(len(polars[0]), len(cand))))
            for s in range(0, len(subs), step):
                chunk = subs[s:s + step, :, None, :]
                ok = True
                for polar in polars:
                    lin = tc.dot(chunk, polar)  # b(row, e_j)
                    ok = ok & ~tc.dot(lin[:, :, None, :], cand).any(axis=1)
                pi, wi = np.nonzero(ok)
                if pi.size:
                    blocks.append(np.concatenate([subs[s + pi], cand[wi, None, :]], axis=1))
        if blocks:
            grown[lead] = np.concatenate(blocks)
    return grown


def common_isotropic_subspaces(forms, r):
    """The (r+1)-dimensional subspaces totally isotropic for every form
    in forms (same finite field of at most 25 elements, same rank), each
    once, as table codes: a dict from last pivot column to the stack of
    RREF bases with that last pivot, in the order of _grow; a column
    with none has no entry."""
    tc = table_coding(forms[0].field)
    n = forms[0].n
    coefs = [tc.code(q.c) for q in forms]
    polars = [tc.code(q.polar_matrix().rows) for q in forms]
    points = []  # per leading column, the common zeros among the points
    for lead in range(n):
        pts = tc.points(n, lead)
        for coef in coefs:
            pts = pts[tc.form_values(coef, pts) == 0]
        points.append(pts)
    level = {lead: pts[:, None, :] for lead, pts in enumerate(points) if pts.size}
    for _ in range(r):
        level = _grow(tc, polars, points, level)
    return level


def enumeration_in_budget(size, n):
    """Whether enumerate_isotropic takes a rank-n form over a field of
    size elements."""
    return (size <= 9 and n <= 6) or (size <= 25 and n <= 4)


def _enumerate_codes(q, r):
    """The (r+1)-dimensional totally isotropic subspaces of q as one
    stack (count, r+1, n) of table codes of RREF bases, sorted by code,
    checked by _assert_totally_isotropic."""
    field = q.field
    size = field.size()
    n = q.n
    if size is None:
        raise ValueError("enumeration needs a finite field")
    if not enumeration_in_budget(size, n):
        raise ValueError(
            "enumeration budget: field size <= 9 up to rank 6, "
            "or size <= 25 up to rank 4")
    if not 0 <= r < n:
        raise ValueError("subspace dimension %d out of range" % (r + 1))
    import numpy as np

    level = common_isotropic_subspaces([q], r)
    if not level:
        return np.zeros((0, r + 1, n), dtype=np.int16)
    flat = np.concatenate(list(level.values())).reshape(-1, (r + 1) * n)
    found = flat[np.lexsort(flat.T[::-1])].reshape(-1, r + 1, n)
    _assert_totally_isotropic(q, found)
    return found


def enumerate_isotropic(q, r):
    """All (r+1)-dimensional totally isotropic subspaces of q.

    Returns a sorted tuple of subspaces, each a tuple of r+1 basis rows
    in reduced row echelon form.  Exhaustive and duplicate-free; every
    returned basis is re-checked against the form and its polar before
    being handed out.
    """
    return table_coding(q.field).decode(_enumerate_codes(q, r))


def _residues(field, a):
    """The base-field residues of a field element: (v,) over F_p, the
    coefficient residues over an extension of F_p."""
    return (a.v,) if field.kind == "prime" else tuple(c.v for c in a.c)


def _assert_totally_isotropic(q, codes):
    """Refuse a stack (count, k, n) of table codes of bases unless every
    basis spans a totally isotropic subspace of q.

    Independent of the add and mul tables of TableCoding: each code is
    lifted to the base-field residues of its element, and each Gram
    matrix M = V C V^T mod p is formed in int64, with C the upper
    triangular coefficient matrix of q.  Its diagonal holds the values
    q(v_i), and M_ij + M_ji the polar values b(v_i, v_j).  Over an
    extension F_p[w]/(f) the residues are the coefficients of the powers
    of w, multiplied through mult, whose row x e + y holds the residues
    of w^(x+y) reduced by f (ExtensionField._xpow).
    """
    import numpy as np

    field = q.field
    p = field.characteristic
    lift = np.array([_residues(field, a) for a in table_coding(field).elems], dtype=np.int64)
    coef = np.array([[_residues(field, a) for a in row] for row in q.c], dtype=np.int64)
    e = lift.shape[1]
    powers = np.eye(e, dtype=np.int64).tolist() + [
        [c.v for c in row] for row in getattr(field, "_xpow", ())]
    mult = np.array([powers[x + y] for x in range(e) for y in range(e)], dtype=np.int64)

    def times(spec, x, y):
        prod = np.einsum(spec, x, y)  # the products of residues, axes x, y
        return (prod.reshape(prod.shape[:-2] + (e * e,)) @ mult) % p

    v = lift[codes]
    gram = times("akmx,ajmy->akjxy", times("aknx,nmy->akmxy", v, coef), v)
    if gram.diagonal(0, 1, 2).any():
        raise InvariantViolation(
            "isotropic-basis", "claimed basis vector has a nonzero value")
    i, j = np.triu_indices(codes.shape[1], 1)
    if ((gram[:, i, j] + gram[:, j, i]) % p).any():
        raise InvariantViolation(
            "isotropic-basis", "claimed basis pair has nonzero polar value")


@dataclass(frozen=True)
class RulingPartition:
    m: int
    labels: tuple  # component index per input subspace, 0 or 1
    sizes: tuple  # number of subspaces with label 0, with label 1


def ruling_components(tc, codes, m):
    """Partition of maximal isotropic subspaces into the two rulings.

    codes is a stack (count, m, n) of table codes of tc's field, one
    basis per subspace.  Two subspaces land in one component exactly
    when the dimension of their intersection is congruent to m mod 2.
    The rule is checked as an equivalence relation on the whole input,
    pair by pair, and the partition must come out with exactly two
    classes; anything else raises, since it falsifies the parity rule on
    this instance.
    """
    import numpy as np

    if m < 1:
        raise ValueError("need subspaces of dimension at least 1")
    count = len(codes)
    if count < 2:
        raise ValueError("a single lagrangian cannot be split into rulings")
    if codes.shape[1] != m:
        raise ValueError("input subspace of dimension != m")
    # the pairs (i, j), i < j, of a block of rows i at a time, each
    # compared through the rank of the stacked pair
    rows = max(1, _BLOCK // codes[0].size // (2 * count))
    for i0 in range(0, count - 1, rows):
        block = np.triu(np.ones((min(rows, count - 1 - i0), count), dtype=bool), i0 + 1)
        ii, jj = np.nonzero(block)
        ii += i0
        _, rank = tc.rref(np.concatenate([codes[ii], codes[jj]], axis=1))
        same = (m - rank) % 2 == 0  # intersection dimension 2m - rank
        if i0 == 0:
            labels = np.concatenate([[0], np.where(same[:count - 1], 0, 1)])
        if np.any(same != (labels[ii] == labels[jj])):
            raise InvariantViolation(
                "ruling-parity",
                "intersection parity is not an equivalence relation here")
    labels = labels.tolist()
    sizes = (labels.count(0), labels.count(1))
    if 0 in sizes:
        raise InvariantViolation(
            "ruling-two-classes",
            "parity rule yields a single class on %d subspaces" % count)
    return RulingPartition(m=m, labels=tuple(labels), sizes=sizes)


@dataclass(frozen=True)
class LagrangianSet:
    """Maximal isotropic subspaces with component labels and, when the
    enumeration ran over the quadratic extension, the permutation by
    which the q-power map acts on the list."""

    field_label: str
    m: int
    subspaces: tuple
    labels: tuple
    frobenius: tuple  # permutation, or None over the ground field

    def basis_strings(self):
        return tuple(
            tuple(" ".join(scalar_str(a) for a in row) for row in sub)
            for sub in self.subspaces)


@dataclass(frozen=True)
class SteinReport:
    field_label: str
    n: int
    m: int
    delta_is_square: bool
    center_kind: str
    extension_used: bool
    count: int
    component_sizes: tuple
    frobenius_swaps: object  # None over the ground field, True after extension
    lagrangians: LagrangianSet
    matches_center: bool


def stein_vs_center(q):
    """Compare the component structure of the lagrangian family with the
    center of the even Clifford algebra.

    Square center discriminant: the maximal isotropic subspaces over the
    ground field must split into two components.  Nonsquare: none exist
    over the ground field, the enumeration runs over the quadratic
    extension instead, and the q-power map must swap the two components
    there.  Every one of these expectations is asserted; the report
    records what was seen.
    """
    field = q.field
    n = q.n
    if field.size() is None:
        raise ValueError("needs a finite ground field")
    if field.characteristic == 2:
        raise ValueError("needs characteristic not 2")
    if n % 2 or not 2 <= n <= 6:
        raise ValueError("rank must be 2, 4, or 6")
    if q.radical_basis():
        raise ValueError("regular forms only")
    m = n // 2

    from .clifford import even_center_report
    _, rep = even_center_report(q)
    if rep.kind not in ("split", "field"):
        raise InvariantViolation(
            "stein-center", "center kind %s on a regular even form" % rep.kind)
    delta_square = field.is_square(rep.delta)
    if delta_square != (rep.kind == "split"):
        raise InvariantViolation(
            "stein-center", "square class of the center discriminant "
            "disagrees with the idempotent split")

    tc = table_coding(field)
    base = _enumerate_codes(q, m - 1)
    if delta_square:
        if not len(base):
            raise InvariantViolation(
                "stein-components", "split center but no maximal isotropic "
                "subspaces over the ground field")
        part = ruling_components(tc, base, m)
        lag = LagrangianSet(field.label(), m, tc.decode(base), part.labels, None)
        return SteinReport(
            field_label=field.label(), n=n, m=m, delta_is_square=True,
            center_kind=rep.kind, extension_used=False, count=len(base),
            component_sizes=part.sizes, frobenius_swaps=None,
            lagrangians=lag, matches_center=True)

    if len(base):
        raise InvariantViolation(
            "stein-witt",
            "nonsquare center discriminant yet %d maximal isotropic "
            "subspaces exist over the ground field" % len(base))
    ext = quadratic_extension(field)
    tc = table_coding(ext)
    codes = _enumerate_codes(q.map_field(ext, ext.embed), m - 1)
    if not len(codes):
        raise InvariantViolation(
            "stein-extension", "no maximal isotropic subspaces even over "
            "the quadratic extension")
    part = ruling_components(tc, codes, m)
    import numpy as np

    red, rank = tc.rref(tc.frobenius[codes])
    if np.any(rank != m):
        raise InvariantViolation("stein-frobenius", "image dropped rank")
    pos = {sub.tobytes(): i for i, sub in enumerate(codes)}
    perm = [pos.get(sub.tobytes()) for sub in red]
    if None in perm:
        raise InvariantViolation(
            "stein-frobenius", "image subspace missing from the "
            "enumerated set; the set should be Galois stable")
    for i, j in enumerate(perm):
        if perm[j] != i:
            raise InvariantViolation(
                "stein-frobenius", "the q-power map is not an involution")
    if any(part.labels[j] == part.labels[i] for i, j in enumerate(perm)):
        raise InvariantViolation(
            "stein-frobenius",
            "the q-power map fixes a ruling although the center "
            "discriminant is not a square")
    lag = LagrangianSet(ext.label(), m, tc.decode(codes), part.labels, tuple(perm))
    return SteinReport(
        field_label=field.label(), n=n, m=m, delta_is_square=False,
        center_kind=rep.kind, extension_used=True, count=len(codes),
        component_sizes=part.sizes, frobenius_swaps=True,
        lagrangians=lag, matches_center=True)
