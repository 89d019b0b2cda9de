"""Totally isotropic subspaces over finite fields.

Exhaustive enumeration of isotropic subspaces of a quadratic form in
row-echelon canonical form, the partition of the maximal ones into the
two rulings by the intersection-parity rule, and the comparison of that
component picture with the center of the even Clifford algebra: a
square center discriminant must show two components over the ground
field, a nonsquare one must show the two components only over the
quadratic extension with the q-power map swapping them.

Enumeration works on integer index vectors against cached field tables,
so the hot loops never touch wrapped field elements.  A subspace of
dimension d+1 is built from one of dimension d by adjoining a point of
a complement of the subspace inside its own polar-perp; the value of q
on such a point does not depend on the coset representative, and
distinct complement points give distinct extensions, so the only
deduplication needed is across different starting subspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .rings import (
    QQ,
    ExtElem,
    FpElem,
    InvariantViolation,
    Matrix,
    PrimeField,
    quadratic_extension,
    scalar_str,
)


def _context_of(a):
    if isinstance(a, FpElem):
        return PrimeField(a.p)
    if isinstance(a, ExtElem):
        return a.field
    if isinstance(a, Fraction):
        return QQ
    raise TypeError("cannot recover a field context from %r" % (a,))


class _Tab:
    """Integer arithmetic tables for one finite field."""

    __slots__ = ("field", "elems", "index", "add", "mul", "neg", "inv",
                 "zero", "one", "size")

    def __init__(self, field):
        elems, index, add, mul = field.small_tables()
        self.field = field
        self.elems = elems
        self.index = index
        self.add = add
        self.mul = mul
        self.size = len(elems)
        self.zero = index[field.zero()]
        self.one = index[field.one()]
        self.neg = tuple(index[-e] for e in elems)
        inv = [None] * self.size
        one = field.one()
        for i, e in enumerate(elems):
            if e:
                inv[i] = index[one / e]
        self.inv = tuple(inv)


def _int_rref(rows, tab):
    """(rref rows, pivot columns) on integer index rows."""
    m = [list(r) for r in rows]
    add, mul, neg, inv = tab.add, tab.mul, tab.neg, tab.inv
    zero, one = tab.zero, tab.one
    nr = len(m)
    nc = len(m[0]) if m else 0
    piv = []
    r = 0
    for col in range(nc):
        if r == nr:
            break
        pr = None
        for i in range(r, nr):
            if m[i][col] != zero:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        s = inv[m[r][col]]
        if s != one:
            ms = mul[s]
            m[r] = [ms[a] for a in m[r]]
        top = m[r]
        for i in range(nr):
            f = m[i][col]
            if i != r and f != zero:
                mf = mul[f]
                m[i] = [add[a][neg[mf[b]]] for a, b in zip(m[i], top)]
        piv.append(col)
        r += 1
    return tuple(tuple(row) for row in m), tuple(piv)


def _q_eval_int(ci, v, tab):
    add, mul = tab.add, tab.mul
    zero = tab.zero
    acc = zero
    n = len(v)
    for i in range(n):
        vi = v[i]
        if vi == zero:
            continue
        row = ci[i]
        s = mul[row[i]][vi]
        for j in range(i + 1, n):
            if row[j] != zero and v[j] != zero:
                s = add[s][mul[row[j]][v[j]]]
        acc = add[acc][mul[vi][s]]
    return acc


def _seed_points(ci, tab, n):
    """Canonical isotropic projective points as integer vectors."""
    zero, one = tab.zero, tab.one
    codes = range(tab.size)
    out = []
    for lead in range(n):
        head = (zero,) * lead + (one,)
        for tail in itertools.product(codes, repeat=n - lead - 1):
            v = head + tail
            if _q_eval_int(ci, v, tab) == zero:
                out.append(v)
    return out


def _perp_complement(rows, bi, tab, n):
    """Basis of a complement of span(rows) inside its polar-perp.

    rows are totally isotropic, so the span sits inside the perp; the
    returned vectors extend it to the full perp.
    """
    add, mul, neg = tab.add, tab.mul, tab.neg
    zero = tab.zero
    # the perp is the kernel of (rows . B)
    sys_rows = []
    for u in rows:
        out = []
        for j in range(n):
            acc = zero
            for i in range(n):
                if u[i] != zero and bi[i][j] != zero:
                    acc = add[acc][mul[u[i]][bi[i][j]]]
            out.append(acc)
        sys_rows.append(out)
    red, piv = _int_rref(sys_rows, tab)
    pivset = set(piv)
    kernel = []
    for free in range(n):
        if free in pivset:
            continue
        vec = [zero] * n
        vec[free] = tab.one
        for r, col in enumerate(piv):
            vec[col] = neg[red[r][free]]
        kernel.append(tuple(vec))
    # keep the kernel vectors that grow the span beyond the subspace
    comp = []
    work = [list(r) for r in rows]
    _, base_piv = _int_rref(work, tab)
    rank = len(base_piv)
    for w in kernel:
        _, piv2 = _int_rref(work + [list(w)], tab)
        if len(piv2) > rank:
            comp.append(w)
            work.append(list(w))
            rank = len(piv2)
    return comp


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
    if not ((size <= 9 and n <= 6) or (size <= 25 and n <= 4)):
        raise ValueError(
            "enumeration budget: field size <= 9 up to rank 6, "
            "or size <= 25 up to rank 4")
    if not 0 <= r < n:
        raise ValueError("subspace dimension %d out of range" % (r + 1))
    k = r + 1
    tab = _Tab(field)
    idx = tab.index
    ci = [[idx[q.c[i][j]] for j in range(n)] for i in range(n)]
    b = q.polar_matrix()
    bi = [[idx[b.rows[i][j]] for j in range(n)] for i in range(n)]

    level = {(pt,) for pt in _seed_points(ci, tab, n)}
    for _ in range(k - 1):
        grown = set()
        for rows in level:
            for w in _candidate_extensions(rows, ci, bi, tab, n):
                red, piv = _int_rref(list(rows) + [w], tab)
                grown.add(red[:len(piv)])
        level = grown
        if not level:
            break

    out = []
    for rows in sorted(level):
        sub = tuple(tuple(tab.elems[a] for a in row) for row in rows)
        _assert_totally_isotropic(q, sub)
        out.append(sub)
    return tuple(out)


def _candidate_extensions(rows, ci, bi, tab, n):
    """Isotropic points of a complement of span(rows) in its perp.

    Adjoining any of them keeps the span totally isotropic; different
    points give different extensions.
    """
    comp = _perp_complement(rows, bi, tab, n)
    add, mul = tab.add, tab.mul
    zero = tab.zero
    d = len(comp)
    out = []
    for lead in range(d):
        for tail in itertools.product(range(tab.size), repeat=d - lead - 1):
            # leading coefficient pinned to one: one pass per extension
            w = list(comp[lead])
            for c, base in zip(tail, comp[lead + 1:]):
                if c != zero:
                    mc = mul[c]
                    w = [add[a][mc[bv]] for a, bv in zip(w, base)]
            w = tuple(w)
            if _q_eval_int(ci, w, tab) == zero:
                out.append(list(w))
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
    field = _context_of(subs[0][0][0])
    tab = _Tab(field)
    ints = [tuple(tuple(tab.index[a] for a in row) for row in sub)
            for sub in subs]

    def same(i, j):
        stacked = [list(r) for r in ints[i]] + [list(r) for r in ints[j]]
        _, piv = _int_rref(stacked, tab)
        inter = 2 * m - len(piv)
        return (inter - m) % 2 == 0

    labels = [0]
    for i in range(1, len(subs)):
        labels.append(0 if same(0, i) else 1)
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            if same(i, j) != (labels[i] == labels[j]):
                raise InvariantViolation(
                    "ruling-parity",
                    "intersection parity is not an equivalence relation here")
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
    p = field.size()
    pos = {sub: i for i, sub in enumerate(subs)}
    perm = []
    for sub in subs:
        mapped = [[a ** p for a in row] for row in sub]
        red, piv = Matrix(ext, mapped).rref()
        if len(piv) != m:
            raise InvariantViolation("stein-frobenius", "image dropped rank")
        j = pos.get(red.rows)
        if j is None:
            raise InvariantViolation(
                "stein-frobenius", "image subspace missing from the "
                "enumerated set; the set should be Galois stable")
        perm.append(j)
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
