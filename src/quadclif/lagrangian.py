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
subspace is produced once and nothing needs deduplication.  The rulings compare every pair through the
rank of the stacked pair, in batched eliminations, and the q-power map
acts on the codes as a permutation.  The wrapped-element check in
_assert_totally_isotropic re-verifies every answer independently of the
tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import (
    ExtElem,
    FpElem,
    InvariantViolation,
    PrimeField,
    quadratic_extension,
    scalar_str,
    table_coding,
)


def _context_of(a):
    if isinstance(a, FpElem):
        return PrimeField(a.p)
    if isinstance(a, ExtElem):
        return a.field
    raise TypeError("cannot recover a field context from %r" % (a,))


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


def enumerate_isotropic(q, r):
    """All (r+1)-dimensional totally isotropic subspaces of q.

    Returns a sorted tuple of subspaces, each a tuple of r+1 basis rows
    in reduced row echelon form.  Exhaustive and duplicate-free; every
    returned basis is re-checked against the form and its polar before
    being handed out.
    """
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
        return ()
    flat = np.concatenate(list(level.values())).reshape(-1, (r + 1) * n)
    found = flat[np.lexsort(flat.T[::-1])].reshape(-1, r + 1, n)
    out = table_coding(field).decode(found)
    for sub in out:
        _assert_totally_isotropic(q, sub)
    return out


def _assert_totally_isotropic(q, sub):
    for i, u in enumerate(sub):
        if q.evaluate(u):
            raise InvariantViolation(
                "isotropic-basis", "claimed basis vector has a nonzero value")
        for v in sub[i + 1:]:
            if q.polar(u, v):
                raise InvariantViolation(
                    "isotropic-basis", "claimed basis pair has nonzero polar value")


@dataclass(frozen=True)
class RulingPartition:
    m: int
    labels: tuple  # component index per input subspace, 0 or 1
    components: tuple  # (tuple of subspaces, tuple of subspaces)

    @property
    def sizes(self):
        return (len(self.components[0]), len(self.components[1]))


def ruling_components(lagrangians, m):
    """Partition of maximal isotropic subspaces into the two rulings.

    Two subspaces land in one component exactly when the dimension of
    their intersection is congruent to m mod 2.  The rule is checked as
    an equivalence relation on the whole input, pair by pair, and the
    partition must come out with exactly two classes; anything else
    raises, since it falsifies the parity rule on this instance.
    """
    subs = tuple(lagrangians)
    if m < 1:
        raise ValueError("need subspaces of dimension at least 1")
    if len(subs) < 2:
        raise ValueError("a single lagrangian cannot be split into rulings")
    for sub in subs:
        if len(sub) != m:
            raise ValueError("input subspace of dimension != m")
    import numpy as np

    tc = table_coding(_context_of(subs[0][0][0]))
    codes = tc.code(subs)
    count = len(subs)
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
            "parity rule yields a single class on %d subspaces" % len(subs))
    comps = (tuple(s for s, l in zip(subs, labels) if l == 0),
             tuple(s for s, l in zip(subs, labels) if l == 1))
    return RulingPartition(m=m, labels=tuple(labels), components=comps)


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

    base_subs = enumerate_isotropic(q, m - 1)
    if delta_square:
        if not base_subs:
            raise InvariantViolation(
                "stein-components", "split center but no maximal isotropic "
                "subspaces over the ground field")
        part = ruling_components(base_subs, m)
        lag = LagrangianSet(field.label(), m, base_subs, part.labels, None)
        return SteinReport(
            field_label=field.label(), n=n, m=m, delta_is_square=True,
            center_kind=rep.kind, extension_used=False, count=len(base_subs),
            component_sizes=part.sizes, frobenius_swaps=None,
            lagrangians=lag, matches_center=True)

    if base_subs:
        raise InvariantViolation(
            "stein-witt",
            "nonsquare center discriminant yet %d maximal isotropic "
            "subspaces exist over the ground field" % len(base_subs))
    ext = quadratic_extension(field)
    qe = q.map_field(ext, ext.embed)
    subs = enumerate_isotropic(qe, m - 1)
    if not subs:
        raise InvariantViolation(
            "stein-extension", "no maximal isotropic subspaces even over "
            "the quadratic extension")
    part = ruling_components(subs, m)
    import numpy as np

    tc = table_coding(ext)
    frob = tc.code([ext.frobenius(a) for a in tc.elems])  # a permutation of codes
    codes = tc.code(subs)
    red, rank = tc.rref(frob[codes])
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
    lag = LagrangianSet(ext.label(), m, subs, part.labels, tuple(perm))
    return SteinReport(
        field_label=field.label(), n=n, m=m, delta_is_square=False,
        center_kind=rep.kind, extension_used=True, count=len(subs),
        component_sizes=part.sizes, frobenius_swaps=True,
        lagrangians=lag, matches_center=True)
