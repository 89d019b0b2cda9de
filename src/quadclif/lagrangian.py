"""Totally isotropic subspaces over finite fields.

Exhaustive enumeration of isotropic subspaces of a quadratic form in
row-echelon canonical form, the partition of the maximal ones into the
two rulings, and the comparison of that component picture with the
center of the even Clifford algebra: a square center discriminant must
show two components over the ground field, a nonsquare one must show
the two components only over the quadratic extension with the q-power
map swapping them.  Each lagrangian L is labelled by the parity of its
intersection with the first one, L0, in one pass, and stein_vs_center
certifies every label by the pure spinor of L: the central element z of
C0 with z^2 = delta scales it by +-sqrt(delta), with the sign of L0
exactly when L lies in L0's ruling.

Everything runs on rings.ResidueCoding: an element of F_{p^e} is its e
residues mod p and a form over F_{p^e} its e Gram matrices over F_p, so
the hot loops are matrix products.  The growth finds the subspaces
totally isotropic for a list of forms at once
(common_isotropic_subspaces): one form here, the two forms of a rank-6
pencil for pencil.common_isotropic_plane_rank6.  A subspace grows in
RREF order: its next row is a common isotropic point whose leading
column is past the last pivot and zero in every earlier row, and which
is polar to every earlier row under every form, tested for a block of
candidates at once.  Every RREF basis arises this way from its first
rows exactly once, so nothing needs deduplication.  The subspaces stay
residue rows through the rulings, the spinors and the q-power map; only
the reported LagrangianSet decodes them.  _assert_totally_isotropic
re-verifies the whole stack independently of the growth's Gram
matrices, forming every Gram matrix in int64 straight from the residues.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import (
    InvariantViolation,
    bilinear,
    quadratic_extension,
    residue_coding,
    scalar_str,
)


# residues one chunk of the candidate test in _grow holds at most, unless
# a single parent subspace is already larger
_BLOCK = 1 << 16


def _grow(coding, polars, points, level):
    """The subspaces one dimension up, each exactly once.

    level maps a last pivot column to the stack of subspaces, in RREF,
    whose last pivot it is.  The first d rows of a (d+1)-dimensional
    RREF basis are the RREF basis of a d-dimensional subspace that is
    zero in the last pivot column, and the last row is a point of the
    point table of that column; the span is totally isotropic exactly
    when every residue of the polar value of that point with every row
    of the parent vanishes, under every form.  A grown stack is ordered
    by the parent's last pivot, then the parent, then the point.
    """
    import numpy as np

    e = coding.e
    grown = {}
    for lead, cand in enumerate(points):
        if not cand.size:
            continue
        # the polar values b(e_i, w) of the basis residues against every
        # candidate w, one column per (form, residue, candidate)
        against = np.concatenate([g @ cand.T for g in polars])
        against = against.transpose(1, 0, 2).reshape(cand.shape[1], -1)
        blocks = []
        for piv, subs in level.items():
            if piv >= lead:
                continue
            subs = subs[~subs[:, :, lead * e:(lead + 1) * e].any(axis=(1, 2))]
            if not subs.size:
                continue
            step = max(1, _BLOCK // (subs.shape[1] * against.shape[1]))
            for s in range(0, len(subs), step):
                chunk = subs[s:s + step]
                values = coding.reduce(chunk.reshape(-1, chunk.shape[2]) @ against)
                ok = ~values.reshape(len(chunk), -1, len(cand)).any(axis=1)
                pi, wi = np.nonzero(ok)
                if pi.size:
                    blocks.append(np.concatenate([subs[s + pi], cand[wi, None, :]], axis=1))
        if blocks:
            grown[lead] = np.concatenate(blocks)
    return grown


def common_isotropic_subspaces(forms, r):
    """The (r+1)-dimensional subspaces totally isotropic for every form
    in forms (same finite field, same rank), each once, as residue rows:
    a dict from last pivot column to the stack of RREF bases with that
    last pivot, in the order of _grow; a column with none has no
    entry."""
    import numpy as np

    coding = residue_coding(forms[0].field)
    n = forms[0].n
    coefs = [coding.gram(q.c) for q in forms]
    polars = [coding.gram(q.polar_matrix().rows) for q in forms]
    points = []  # per leading column, the common zeros among the points
    for lead in range(n):
        pts = coding.points(n, lead)
        for coef in coefs:  # a point stays when every residue of its value is 0
            values = coding.reduce(np.array([bilinear(pts, g, pts) for g in coef]))
            pts = pts[~values.any(axis=0)]
        points.append(pts)
    level = {lead: pts[:, None, :] for lead, pts in enumerate(points) if pts.size}
    for _ in range(r):
        level = _grow(coding, polars, points, level)
    return level


def enumeration_in_budget(size, n):
    """Whether enumerate_isotropic takes a rank-n form over a field of
    size elements.  The caps are a time budget: the point tables grow as
    size^(n-1) and the subspaces with them; any finite field of
    characteristic p can be coded."""
    return (size <= 9 and n <= 6) or (size <= 25 and n <= 4)


def _enumerate_codes(q, r):
    """The (r+1)-dimensional totally isotropic subspaces of q as one
    stack (count, r+1, n*e) of residue rows of RREF bases, sorted
    lexicographically, checked by _assert_totally_isotropic."""
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
        coding = residue_coding(field)
        return np.zeros((0, r + 1, n * coding.e), dtype=coding.dtype)
    flat = np.concatenate([sub.reshape(len(sub), -1) for sub in level.values()])
    found = flat[np.lexsort(flat.T[::-1])].reshape(len(flat), r + 1, -1)
    _assert_totally_isotropic(q, found)
    return found


def enumerate_isotropic(q, r):
    """All (r+1)-dimensional totally isotropic subspaces of q.

    Returns a sorted tuple of subspaces, each a tuple of r+1 basis rows
    in reduced row echelon form.  Exhaustive and duplicate-free; every
    returned basis is re-checked against the form and its polar before
    being handed out.
    """
    return residue_coding(q.field).decode(_enumerate_codes(q, r))


def _assert_totally_isotropic(q, rows):
    """Refuse a stack (count, k, n*e) of residue rows of bases unless
    every basis spans a totally isotropic subspace of q.

    Each Gram matrix M = V C V^T of the stack, C the upper triangular
    coefficient matrix of q, is formed in int64 from the residues through
    the coding's tensor mult, not from the growth's Gram matrices.  Its
    diagonal holds the values q(v_i), and M_ij + M_ji the polar values.
    """
    import numpy as np

    coding = residue_coding(q.field)
    p, e = coding.p, coding.e
    mult = coding.mult.reshape(e * e, e)

    def times(spec, x, y):
        prod = np.einsum(spec, x, y, dtype=np.int64)  # products of residues, axes x, y
        return (prod.reshape(prod.shape[:-2] + (e * e,)) @ mult) % p

    v = coding.elements_axis(rows)
    coef = coding.elements_axis(coding.array(q.c))
    gram = times("akmx,ajmy->akjxy", times("aknx,nmy->akmxy", v, coef), v)
    if gram.diagonal(0, 1, 2).any():
        raise InvariantViolation(
            "isotropic-basis", "claimed basis vector has a nonzero value")
    i, j = np.triu_indices(rows.shape[1], 1)
    if ((gram[:, i, j] + gram[:, j, i]) % p).any():
        raise InvariantViolation(
            "isotropic-basis", "claimed basis pair has nonzero polar value")


@dataclass(frozen=True)
class RulingPartition:
    m: int
    labels: tuple  # component index per input subspace, 0 or 1
    sizes: tuple  # number of subspaces with label 0, with label 1


def ruling_components(coding, rows, m):
    """Partition of maximal isotropic subspaces into the two rulings.

    rows is a stack (count, m, n*e) of residue rows of RREF bases over
    coding's field.  Two maximal isotropic subspaces lie in one ruling
    exactly when the dimension of their intersection is congruent to m
    mod 2, so each subspace L is labelled by the parity of m - dim(L &
    L0) against the first subspace L0.  With K the reduced echelon
    kernel basis of L0, dim(L & L0) = m - rank(L K): one product with K
    and one stacked m x (n-m) elimination label every subspace.  Two
    classes must result; stein_vs_center certifies the labels by the
    pure spinors.
    """
    import numpy as np

    if m < 1:
        raise ValueError("need subspaces of dimension at least 1")
    count = len(rows)
    if count < 2:
        raise ValueError("a single lagrangian cannot be split into rulings")
    if rows.shape[1] != m:
        raise ValueError("input subspace of dimension != m")
    first = coding.elements_axis(rows[0])
    n = first.shape[1]
    # the kernel basis of L0: a 1 in each free column, -L0[r, free] at pivot r
    pivots = first.any(axis=2).argmax(axis=1)
    free = np.delete(np.arange(n), pivots)
    kernel = np.zeros((n, n - m, coding.e), dtype=coding.dtype)
    kernel[free, np.arange(n - m), 0] = 1
    kernel[pivots] = -first[:, free] % coding.p
    kernel = coding.weil(kernel.reshape(n, -1))
    prod = coding.reduce(rows.reshape(count * m, -1).astype(kernel.dtype) @ kernel)
    _, rank = coding.rref(prod.reshape(count, m, -1))
    labels = (rank % 2).tolist()
    sizes = (labels.count(0), labels.count(1))
    if 0 in sizes:
        raise InvariantViolation(
            "ruling-two-classes",
            "parity rule yields a single class on %d subspaces" % count)
    return RulingPartition(m=m, labels=tuple(labels), sizes=sizes)


def _certify_rulings(alg, rep, form, root, rows, labels):
    """Refuse ruling labels that the pure spinors contradict.

    alg is C0(q) and rep its center report, with z central and z^2 =
    delta; form is q over the field the subspaces rows (count, m, n*e)
    were enumerated in, and root a square root s of delta there.  A
    maximal isotropic L with basis l1..lm has the pure spinor l1...lm
    (Chevalley), which z scales by s or -s, the sign telling its ruling.
    Here x_L = l1...lm is formed in C0, times e_j for odd m, j the first
    non-pivot column of L, so that e_j is not in L and x_L != 0.  The
    sign of z x_L = +-s x_L, relative to L0's, must be the label; it
    must exist, and x_L must not be 0, or InvariantViolation
    "ruling-spinor" is raised.

    Products are residue products (coding.mul) contracted against Weil
    matrices: of the e_i e_j table in C0, of C0's structure tensor, and
    of left multiplication by z.
    """
    import numpy as np

    coding = residue_coding(form.field)
    count, m, _ = rows.shape
    p, e, d, n = coding.p, coding.e, alg.dim, form.n
    coefs = coding.elements_axis(coding.array(form.c))
    # e_i e_j in C0: e_(ij) for i < j, b(e_i, e_j) - e_(ij) for i > j,
    # and q(e_i) for i = j; the mask of e_(ij) is 2^i + 2^j
    gens = np.zeros((n, n, d, e), dtype=coding.dtype)
    i, j = np.triu_indices(n, 1)
    k = [alg.mask_index[(1 << a) | (1 << b)] for a, b in zip(i.tolist(), j.tolist())]
    gens[i, j, k, 0] = 1
    gens[j, i, k, 0] = p - 1
    gens[j, i, 0] = coefs[i, j]
    gens[np.arange(n), np.arange(n), 0] = coefs.diagonal().T

    def residues(codes):
        # C0's codes: residues over F_p, or elements of coding's field,
        # of which only the nonzero ones are decoded
        out = np.zeros(codes.shape + (e,), dtype=coding.dtype)
        if codes.dtype != object:
            out[..., 0] = codes
            return out
        nz = np.nonzero(codes)
        out[nz] = coding.elements_axis(coding.array([list(map(alg.coding.decode, codes[nz]))]))[0]
        return out

    table, z = residues(alg.table), residues(rep.z)
    pair = coding.weil(gens.reshape(n * n, d * e))
    times = coding.weil(table.reshape(d * d, d * e))
    zmat = coding.weil(coding.reduce(
        z.reshape(1, -1) @ coding.weil(table.reshape(d, -1))).reshape(d, -1))

    def product(weil, x, y):
        # sum over a, b of x_a y_b W[a, b], for stacks x (count, r, e)
        outer = coding.mul(x.transpose(2, 0, 1)[:, :, :, None], y.transpose(2, 0, 1)[:, :, None])
        outer = outer.transpose(1, 2, 3, 0).reshape(count, -1)
        return coding.reduce(outer.astype(weil.dtype) @ weil).reshape(count, d, e)

    res = coding.elements_axis(rows)
    vectors = list(res.transpose(1, 0, 2, 3))
    if m % 2:
        at = np.arange(count)
        pivot = np.zeros((count, n), dtype=bool)
        pivot[at[:, None], res.any(axis=3).argmax(axis=2)] = True
        tail = np.zeros((count, n, e), dtype=coding.dtype)
        tail[at, pivot.argmin(axis=1), 0] = 1
        vectors.append(tail)
    spinor = product(pair, vectors[0], vectors[1])
    for a in range(2, len(vectors), 2):
        spinor = product(times, spinor, product(pair, vectors[a], vectors[a + 1]))
    zx = coding.reduce(spinor.reshape(count, -1).astype(zmat.dtype) @ zmat)
    sx = coding.mul(coding.array([root])[:, None, None], spinor.transpose(2, 0, 1))
    sx = sx.transpose(1, 2, 0).reshape(count, -1)
    plus, minus = (zx == sx).all(axis=1), (zx == -sx % p).all(axis=1)
    sign = minus.astype(int)
    bad = ~spinor.any(axis=(1, 2)) | ~(plus | minus) | (sign ^ sign[0] != np.array(labels))
    if bad.any():
        at = int(bad.argmax())
        raise InvariantViolation(
            "ruling-spinor", "subspace %d: its spinor %s" % (at, (
                "is zero" if not spinor[at].any() else
                "is scaled by neither root of delta" if not plus[at] | minus[at] else
                "contradicts its ruling label %d" % labels[at])))


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
    there.  The ruling labels are certified by the pure spinors
    (_certify_rulings).  Every one of these expectations is asserted;
    the report records what was seen.
    """
    field = q.field
    n = q.n
    if field.size() is None:
        raise ValueError("needs a finite ground field")
    if field.characteristic == 2:
        raise ValueError("needs characteristic not 2")
    if n % 2 or not 2 <= n <= 6:
        raise ValueError("rank must be 2, 4, or 6")
    if q.regular_rank() < n:
        raise ValueError("regular forms only")
    m = n // 2

    from .clifford import even_center_report
    alg, rep = even_center_report(q)
    if rep.kind not in ("split", "field"):
        raise InvariantViolation(
            "stein-center", "center kind %s on a regular even form" % rep.kind)
    delta_square = field.is_square(rep.delta)
    if delta_square != (rep.kind == "split"):
        raise InvariantViolation(
            "stein-center", "square class of the center discriminant "
            "disagrees with the idempotent split")

    over, form = field, q
    rows = _enumerate_codes(q, m - 1)
    if delta_square and not len(rows):
        raise InvariantViolation(
            "stein-components", "split center but no maximal isotropic "
            "subspaces over the ground field")
    if not delta_square:
        if len(rows):
            raise InvariantViolation(
                "stein-witt",
                "nonsquare center discriminant yet %d maximal isotropic "
                "subspaces exist over the ground field" % len(rows))
        over = quadratic_extension(field)
        form = q.map_field(over, over.embed)
        rows = _enumerate_codes(form, m - 1)
        if not len(rows):
            raise InvariantViolation(
                "stein-extension", "no maximal isotropic subspaces even over "
                "the quadratic extension")
    coding = residue_coding(over)
    part = ruling_components(coding, rows, m)
    root = over.sqrt(rep.delta if delta_square else over.embed(rep.delta))
    _certify_rulings(alg, rep, form, root, rows, part.labels)
    perm = None
    if not delta_square:
        # the q-power map fixes 0 and 1, so it takes an RREF basis to the
        # RREF basis of the image subspace
        pos = {sub.tobytes(): i for i, sub in enumerate(rows)}
        perm = tuple(pos.get(sub.tobytes()) for sub in coding.conjugate(rows))
        if None in perm:
            raise InvariantViolation(
                "stein-frobenius", "image subspace missing from the "
                "enumerated set; the set should be Galois stable")
        if any(perm[j] != i for i, j in enumerate(perm)):
            raise InvariantViolation(
                "stein-frobenius", "the q-power map is not an involution")
        if any(part.labels[j] == part.labels[i] for i, j in enumerate(perm)):
            raise InvariantViolation(
                "stein-frobenius",
                "the q-power map fixes a ruling although the center "
                "discriminant is not a square")
    lag = LagrangianSet(over.label(), m, coding.decode(rows), part.labels, perm)
    return SteinReport(
        field_label=field.label(), n=n, m=m, delta_is_square=delta_square,
        center_kind=rep.kind, extension_used=not delta_square, count=len(rows),
        component_sizes=part.sizes, frobenius_swaps=None if delta_square else True,
        lagrangians=lag, matches_center=True)
