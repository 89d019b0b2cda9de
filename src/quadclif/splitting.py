"""Isotropic vectors and hyperbolic splitting of quadratic forms.

One exact, deterministic search finds the first common zero of a list
of forms: find_isotropic runs it on one form and
pencil.common_isotropic_vector on the two forms of a pencil.

* finite fields: exhaustive projective enumeration (first nonzero
  coordinate normalized to 1, lexicographic in the field's element
  order), so returning None is a proof that there is no zero.
  canonical_points walks the points lazily on wrapped elements, so it
  runs over any finite field;
* the rationals: integer vectors swept by increasing height (maximum
  absolute coordinate), primitive and sign-normalized, up to the height
  budget, so None is merely inconclusive.  Each height shell is
  generated in blocks of at most 2^15 vectors with positive first
  nonzero coordinate, in lexicographic order, and every form, scaled to
  integers (ArrayCoding.integral), is scored on a whole block at once:
  int64 arrays while a bound holds, object arrays of Python ints above
  it, one code path.

Splitting follows the classical construction: an isotropic v with
b(v, w0) nonzero for some basis vector w0 is completed to a hyperbolic
pair (v, w) with q(w) = 0 and b(v, w) = 1 by subtracting the right
multiple of v, and the form decomposes exactly as H plus its restriction
to the orthogonal complement of the pair.  Everything is re-verified on
the spot; reduction reports carry change-of-basis witnesses in the
original coordinates and check them by restriction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .quadform import QuadraticForm
from .rings import QQ, ArrayCoding, InvariantViolation, Matrix


@dataclass(frozen=True)
class SearchBudget:
    """Cap for the inconclusive zero searches over Q.

    height: maximum absolute coordinate of the integer vectors that
    find_isotropic and pencil.common_isotropic_vector sweep.
    """

    height: int = 10

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("the budget height must be positive")


DEFAULT_BUDGET = SearchBudget()


def search_is_exhaustive(field):
    """True when find_isotropic returning None proves anisotropy."""
    return field.size() is not None


# ---------------------------------------------------------------------------
# isotropic vector search


def canonical_points(field, n):
    """The nonzero vectors of F_q^n with first nonzero coordinate 1, one
    per projective point, lazily, in the canonical order: by the index
    of that coordinate, then lexicographic in the order of
    field.elements().  A search that stops early builds only the points
    it visited."""
    elems = field.elements()
    zero, one = field.zero(), field.one()
    for lead in range(n):
        head = (zero,) * lead + (one,)
        for tail in itertools.product(elems, repeat=n - lead - 1):
            yield head + tail


def find_isotropic(q, budget=DEFAULT_BUDGET):
    """First nonzero vector with q(v) = 0 in the canonical order, or None.

    Exhaustive over finite fields, a height sweep over Q.
    """
    return _first_common_zero([q], budget)


def _first_common_zero(forms, budget):
    """First nonzero vector on which every form vanishes, or None; the
    forms share a field and a rank.  Over a finite field the first in
    canonical_points order, over Q the first primitive integer vector
    with positive first nonzero coordinate by height, then
    lexicographically, up to budget.height.

    Over Q each form is scaled to integers, q(v) = v . C v with C its
    upper triangular coefficient matrix, and each height shell is scored
    block by block (_shell_blocks): every form on every vector of a block
    at once, in int64 while n^2 max|C| h^2 < 2^62 bounds every value, on
    Python ints in object arrays above that bound.  Only the zeros of a
    block are tested for a common divisor."""
    import numpy as np

    field, n = forms[0].field, forms[0].n
    if field.size() is not None:
        return next((v for v in canonical_points(field, n)
                     if not any(q.evaluate(v) for q in forms)), None)
    if field.kind != "rationals":
        raise ValueError("no isotropy search over %s" % field.label())
    coding = ArrayCoding(QQ)
    mats = np.stack([coding.integral(coding.array(q.c))[0] for q in forms])
    top = int(np.abs(mats).max(initial=0))
    for h in range(1, budget.height + 1):
        exact = n * n * top * h * h < 1 << 62
        c = mats.astype(np.int64 if exact else object)
        for block in _shell_blocks(h, n):
            if not exact:
                block = block.astype(object)
            zero = ~((block @ c) * block).sum(axis=2).any(axis=0)
            for v in block[zero].tolist():
                if math.gcd(*v) == 1:
                    return tuple(Fraction(a) for a in v)
    return None


# vectors of a height shell scored at once, which bounds memory
_SHELL_BLOCK = 1 << 15


def _cube(h, m):
    """The integer vectors of length m and height at most h, in the
    lexicographic order of itertools.product(range(-h, h + 1), repeat=m),
    as (2h + 1)^m int64 rows."""
    import numpy as np

    return np.indices((2 * h + 1,) * m).reshape(m, -1).T - h if m else np.zeros((1, 0), np.int64)


def _lead(rows):
    """The first nonzero coordinate of every row, 0 for a zero row."""
    import numpy as np

    if not rows.shape[1]:
        return np.zeros(len(rows), dtype=np.int64)
    return rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]


def _shell_blocks(h, n):
    """The integer vectors of length n and height exactly h (maximum
    absolute coordinate) whose first nonzero coordinate is positive, in
    the lexicographic order of itertools.product(range(-h, h + 1),
    repeat=n), as int64 blocks of at most _SHELL_BLOCK rows, each a
    run of prefixes of _shell_plan, every prefix repeated along its
    tails."""
    import numpy as np

    tails, groups = _shell_plan(h, n, _SHELL_BLOCK)
    for prefixes, kinds, sizes in groups:
        head = np.repeat(prefixes, sizes, axis=0)
        yield np.concatenate([head, np.concatenate([tails[t] for t in kinds])],
                             axis=1, dtype=np.int64)


@functools.lru_cache(maxsize=32)
def _shell_plan(h, n, block):
    """(tails, groups) of the shell of height h in length n, in the
    narrowest integer dtype that holds -h..h, frozen.

    A vector is a prefix of k coordinates and a tail of n - k, with k the
    least for which the (2h + 1)^(n - k) tails fit in one block.  In
    lexicographic order of the prefixes: a prefix with a coordinate of
    absolute value h takes every tail (kind 2), a prefix with positive
    first nonzero coordinate only the tails of height h (kind 1), the
    zero prefix only the tails of height h with positive first nonzero
    coordinate (kind 0), and a prefix with negative first nonzero
    coordinate (kind -1) none.  tails holds the three stacks of tails by kind;
    groups the runs of consecutive kept prefixes whose tails fit in one
    block, each as (prefixes, kinds, number of tails of each)."""
    import numpy as np

    k = 0
    while (2 * h + 1) ** (n - k) > block:
        k += 1
    cube = _cube(h, n - k)
    shell = cube[np.abs(cube).max(axis=1, initial=0) == h]
    tails = (shell[_lead(shell) > 0], shell, cube)
    prefixes = _cube(h, k)
    lead = _lead(prefixes)
    extreme = np.abs(prefixes).max(axis=1, initial=0) == h
    kind = np.select([lead < 0, lead == 0, extreme], [-1, 0, 2], 1)
    sizes = np.array([0, *(len(t) for t in tails)])[kind + 1]
    keep = np.flatnonzero(sizes)
    sizes = sizes[keep]
    dtype = np.min_scalar_type(-h)
    groups = []
    lo = 0
    while lo < len(keep):
        hi = lo + 1
        while hi < len(keep) and sizes[lo:hi + 1].sum() <= block:
            hi += 1
        groups.append((prefixes[keep[lo:hi]].astype(dtype), kind[keep[lo:hi]], sizes[lo:hi]))
        lo = hi
    tails = tuple(t.astype(dtype) for t in tails)
    for a in tails + tuple(a for g in groups for a in g):
        a.setflags(write=False)
    return tails, tuple(groups)


# ---------------------------------------------------------------------------
# hyperbolic splitting


def hyperbolic_complement(q, v):
    """w with q(w) = 0 and b(v, w) = 1, for isotropic v outside the radical.

    Takes the first standard basis vector e_j with b(v, e_j) nonzero and
    corrects it: w = c e_j - c^2 q(e_j) v with c = 1/b(v, e_j).
    """
    if q.evaluate(v):
        raise ValueError("vector is not isotropic")
    B = q.polar_matrix()
    bv = B.mul_vec(v)
    j = next((i for i, c in enumerate(bv) if c), None)
    if j is None:
        raise ValueError("vector lies in the radical; no hyperbolic complement")
    c = q.field.one() / bv[j]
    qj = q.c[j][j]
    scale = c * c * qj
    w = tuple(
        (c if i == j else q.field.zero()) - scale * v[i] for i in range(q.n)
    )
    if q.evaluate(w) or q.polar(v, w) != q.field.one():
        raise InvariantViolation("hyperbolic-complement",
                                 "constructed pair fails q(w) = 0, b(v, w) = 1")
    return w


def split_hyperbolic(q, v):
    """(w, complement basis, restricted form) splitting off one H.

    The complement is the kernel of the two polar rows of v and w; the
    exactness of the block decomposition is re-verified by restriction.
    """
    w = hyperbolic_complement(q, v)
    B = q.polar_matrix()
    comp = Matrix(q.field, [B.mul_vec(v), B.mul_vec(w)]).kernel_basis()
    if len(comp) != q.n - 2:
        raise InvariantViolation("hyperbolic-split",
                                 "orthogonal complement has wrong dimension %d" % len(comp))
    pair_form = q.restrict([v, w])
    if pair_form != QuadraticForm.hyperbolic(q.field, 1):
        raise InvariantViolation("hyperbolic-split", "pair block is not an exact H")
    for u in comp:
        if q.polar(v, u) or q.polar(w, u):
            raise InvariantViolation("hyperbolic-split", "complement not orthogonal to the pair")
    return w, comp, q.restrict(comp)


class ReductionReport:
    """Outcome of iterated hyperbolic splitting.

    witt_index counts the hyperbolic planes split off; pairs holds their
    (v, w) witnesses in the original coordinates.  anisotropic_form is
    the leftover regular part (proven anisotropic when conclusive is
    True, i.e. over a finite field or when nothing is left).  The
    radical part of the input is split off first and carried verbatim;
    in characteristic 2 it may support nonzero quadratic values
    (the quasilinear part), which stay untouched.
    """

    __slots__ = ("form", "witt_index", "pairs", "anisotropic_basis",
                 "anisotropic_form", "radical_basis", "radical_form",
                 "conclusive", "normal_form")

    def __init__(self, form, witt_index, pairs, anisotropic_basis, anisotropic_form,
                 radical_basis, radical_form, conclusive):
        self.form = form
        self.witt_index = witt_index
        self.pairs = pairs
        self.anisotropic_basis = anisotropic_basis
        self.anisotropic_form = anisotropic_form
        self.radical_basis = radical_basis
        self.radical_form = radical_form
        self.conclusive = conclusive
        expected = QuadraticForm.hyperbolic(form.field, witt_index)
        expected = expected.direct_sum(anisotropic_form).direct_sum(radical_form)
        basis = []
        for v, w in pairs:
            basis.append(v)
            basis.append(w)
        basis.extend(anisotropic_basis)
        basis.extend(radical_basis)
        got = form.restrict(basis)
        if got != expected:
            raise InvariantViolation(
                "reduction-witness",
                "restriction along the witness basis does not match H^w + aniso + rad",
            )
        self.normal_form = expected

    def describe(self):
        return "H(%d) + aniso(%d) + rad(%d)" % (
            self.witt_index, self.anisotropic_form.n, self.radical_form.n)

    def __repr__(self):
        return ("ReductionReport(witt=%d, aniso_rank=%d, radical=%d, conclusive=%s)"
                % (self.witt_index, self.anisotropic_form.n,
                   self.radical_form.n, self.conclusive))


def reduce_fully(q, budget=DEFAULT_BUDGET):
    """Split off the radical, then hyperbolic planes until stuck."""
    rad_basis, comp_basis, q_rad, q_reg = q.split_radical()
    frame = [tuple(v) for v in comp_basis]
    pairs = []
    current = q_reg
    while current.n >= 1:
        v_cur = find_isotropic(current, budget)
        if v_cur is None:
            break
        if current.n == 1:
            # a regular rank-1 form cannot be isotropic; a hit means a bug
            raise InvariantViolation("reduction-rank1", "isotropic vector in a regular line")
        w_cur, comp_cur, next_form = split_hyperbolic(current, v_cur)
        v_orig = _combine(frame, v_cur, q.field)
        w_orig = _combine(frame, w_cur, q.field)
        pairs.append((v_orig, w_orig))
        frame = [_combine(frame, u, q.field) for u in comp_cur]
        current = next_form
    # a regular rank-1 leftover is anisotropic with no search needed
    conclusive = search_is_exhaustive(q.field) or current.n <= 1
    return ReductionReport(q, len(pairs), pairs, frame, current,
                           [tuple(v) for v in rad_basis], q_rad, conclusive)


def _combine(frame, coords, field):
    n = len(frame[0]) if frame else 0
    out = [field.zero()] * n
    for c, vec in zip(coords, frame):
        if c:
            for i in range(n):
                if vec[i]:
                    out[i] = out[i] + c * vec[i]
    return tuple(out)
