"""Even Clifford algebras and the structure analysis built on them.

An algebra here is a basis plus one dense structure tensor T of shape
(d, d, d): T[i, j, k] is the coefficient of e_k in e_i e_j, in
rings.ArrayCoding codes.  It is built eagerly and every consumer reads
it with numpy.  Elements are coded vectors of length d throughout, from
the tensor to the center report and the Peirce fibers; only mul_basis
decodes, for the products that an error message names.  Basis element 0
is the unit.  T holds residues over F_p, and integers over Q when the form's
coefficients bound its entries below 2^62, in the narrowest numpy
integer dtype; otherwise object codes (Fractions, huge integers,
elements of F_{p^2}).  Contractions run in float64 only where a bound
proves every partial sum exact, and on the object codes otherwise
(ArrayCoding.matmul).  Over Q with an integer T the center stays on
integers up to its final division by one denominator per row.

The even Clifford algebra of a quadratic form q on k^n has one basis
element per even-cardinality subset S of {1, ..., n}, encoded as a
bitmask, with dimension 2^(n-1).  Products follow from the two local
rules

    e_i e_i -> q(e_i)           e_i e_j -> b(e_i, e_j) - e_j e_i   (i > j)

and T is built by doubling on the generators (Chevalley): the tensor on
e_a, ..., e_(n-1) is four blocks of the one on e_(a+1), ..., e_(n-1) and
of its boundary, the terms that moving e_a past e_S leaves.  Each level
is held in the narrowest dtype for its bound and computed in int64 row
slabs of about 2^15 entries.  The full Clifford algebra (all 2^n
subsets, used by the orthogonal-sum check and the Morita certificate)
is checked against the defining relations as well.

Every constructed algebra re-verifies unitality and associativity:
exhaustively through dimension 16, and on a 256-triple sample above
that, drawn with seed 0 from the dimension alone, so failures reproduce.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .rings import ArrayCoding, InvariantViolation, coded_kernel, coded_rref, scalar_str

# fault injection hook for the self-test machinery: "clifford-mul" corrupts
# one structure constant of each Clifford algebra built, for the checks to catch
_fault_target = None


def inject_fault(target):
    global _fault_target
    _fault_target = target


@functools.lru_cache(maxsize=None)
def _sample_triples(d):
    """The sample of 256 basis triples checked above dimension 16."""
    rng = random.Random(0)
    triples = np.array([(rng.randrange(d), rng.randrange(d), rng.randrange(d))
                        for _ in range(256)], dtype=np.int64)
    triples.flags.writeable = False  # shared by every algebra of dimension d
    return triples


class StructuredAlgebra:
    """Finite-dimensional unital associative algebra over an exact field.

    Elements are coded vectors of length dim.  The unit is basis element
    0 (checked at construction).  table[i, j, k] codes the coefficient of
    e_k in e_i e_j, stored as ArrayCoding.numeric returns it: narrow
    integers with bound their largest |entry|, or object codes with bound
    None.
    """

    def __init__(self, field, table, labels=None, gen_indices=None):
        if len(table) < 1:
            raise ValueError("an algebra needs at least the unit")
        self.field, self.coding, self.dim = field, ArrayCoding(field), len(table)
        self.table, self.bound = self.coding.numeric(table)
        self.labels = list(labels) if labels else ["b%d" % i for i in range(self.dim)]
        self.gen_indices = list(gen_indices) if gen_indices is not None else None
        self._verify_unit()
        self.verify_associativity()

    # -- basic operations ----------------------------------------------

    @property
    def work_dtype(self):
        """The dtype for exact integer work on slices of the table: int64
        when it is numeric (residues over F_p, integers over Q), else
        object."""
        return object if self.bound is None else np.int64

    def mul_basis(self, i, j):
        return {k: self.coding.decode(c) for k, c in enumerate(self.table[i, j].tolist()) if c}

    def mul(self, x, y):
        """The product x y of two coded vectors, as a coded vector.

        Only the block of the tensor on the supports of x and y is read.
        Over Q with an integer tensor the coefficients are scaled to
        integers by one common denominator, so the contraction runs on
        integers and the product is divided once at the end.
        """
        coding = self.coding
        xs, ys = np.flatnonzero(x), np.flatnonzero(y)
        if not xs.size or not ys.size:
            return coding.zeros(self.dim)
        coefs = coding.reduce(np.outer(x[xs], y[ys])).reshape(1, -1)
        den, top = 1, None
        if self.bound is not None and not coding.p:
            coefs, den = coding.integral(coefs)
            top = int(np.abs(coefs).max())
        block = self.table[np.ix_(xs, ys)].reshape(-1, self.dim)
        prod = coding.codes(coding.matmul(coefs, block, top, self.bound)[0])
        return prod if den == 1 else coding.scale(prod, coding.decode(1, den))

    # -- construction-time checks ---------------------------------------

    def _verify_unit(self):
        t, eye = self.table, self.coding.eye(self.dim)
        bad = np.flatnonzero(((t[0] != eye) | (t[:, 0] != eye)).any(axis=1))
        if bad.size:
            raise InvariantViolation("algebra-unit", "basis element 0 does not act as "
                                     "the unit on index %d" % bad[0])

    def verify_associativity(self):
        """(e_i e_j) e_k = e_i (e_j e_k), exhaustive or sampled by dimension.

        Runs on the coded tensor: coding is an injective ring map, so a
        triple fails here exactly when it fails in the field.  Both sides
        are products of slices of the tensor, over blocks of triples that
        keep every array near 2^16 entries; the first failing triple in
        the order checked is reported.
        """
        d, t = self.dim, self.table

        def mul(a, b):
            return self.coding.matmul(a, b, self.bound, self.bound)

        def refuse(bad):
            if len(bad):
                i, j, k = (self.labels[int(v)] for v in bad[0])
                raise InvariantViolation("algebra-associativity",
                                         "(%s %s) %s != %s (%s %s)" % (i, j, k, i, j, k))

        if d <= 16:
            # all triples with i in a block: left[i, j, k, w] from
            # (e_i e_j) against the rows u, right from e_i against e_j e_k
            step = max(1, (1 << 16) // d ** 3)
            for lo in range(0, d, step):
                part = t[lo:lo + step]
                left = mul(part, t.reshape(d, d * d)).reshape(-1, d, d, d)
                right = mul(t.reshape(d * d, d), part).reshape(-1, d, d, d)
                bad = np.argwhere((left != right).any(axis=3))
                bad[:, 0] += lo
                refuse(bad)
        else:
            triples = _sample_triples(d)
            step = max(1, (1 << 16) // d ** 2)
            for lo in range(0, len(triples), step):
                i, j, k = triples[lo:lo + step].T
                left = mul(t[i, j][:, None], t[:, k].transpose(1, 0, 2))
                right = mul(t[j, k][:, None], t[i])
                refuse(triples[lo + np.flatnonzero((left != right).any(axis=(1, 2)))])
        return True

# ---------------------------------------------------------------------------
# Clifford construction by doubling on the generators


@functools.lru_cache(maxsize=None)
def _parity(h):
    """The parity of the bit count of each mask below h, as int64."""
    par = np.array([bin(m).count("1") & 1 for m in range(h)], dtype=np.int64)
    par.flags.writeable = False  # shared by every tensor of size h
    return par


def _scaled(x, coef):
    """coef * x, coef broadcast over the leading axes of x; on object codes
    only the nonzero entries of x are multiplied."""
    if x.dtype != object:
        return x * coef.reshape(coef.shape + (1,) * (x.ndim - coef.ndim))
    out = np.zeros(x.shape, dtype=object)
    nz = np.nonzero(x)
    out[nz] = x[nz] * coef[nz[:coef.ndim]]
    return out


def _slab_rows(h):
    """Rows per int64 slab of an h^3 level: a power of two, ~2^15 entries."""
    return min(h, max(1, (1 << 15) // (h * h)))


def _boundary(level, lo, size, polar, work):
    """Rows lo .. lo + size - 1 (aligned, size a power of two) of (de_S) e_T,
    de_S = sum over t in S of (-1)^(bits of S above t) b(e_a, e_t) e_(S - t)
    for a new lowest generator e_a, with polar[j] = b(e_a, e_t) for t at
    bit j.  The rows S - 2^j are a view of the slab or a slice of level."""
    par, out = _parity(len(level)), np.zeros((size,) + level.shape[1:], dtype=work)
    for j, b in enumerate(polar):
        if b and size >> j > 1:
            view = (size >> j + 1, 2, 1 << j) + level.shape[1:]
            sign = 1 - 2 * par[(lo >> j + 1) + np.arange(size >> j + 1)]
            out.reshape(view)[:, 1] += _scaled(level[lo:lo + size].reshape(view)[:, 0],
                                               sign.astype(work) * b)
        elif b and lo >> j & 1:
            coef = np.array(int(1 - 2 * par[lo >> j + 1]) * b, dtype=work)
            out += _scaled(level[lo - (1 << j):lo - (1 << j) + size], coef)
    return out


def _double(coding, level, q, polar, work, dtype):
    """The tensor with a new lowest generator e_a: the mask of e_a^s e_S is
    s + 2 S, and as e_S e_a = (-1)^|S| e_a e_S + de_S, the blocks (s, t)
    are e_S e_T, e_a e_S e_T, (-1)^|S| e_a e_S e_T + (de_S) e_T and
    (-1)^|S| q(e_a) e_S e_T + e_a (de_S) e_T."""
    h = len(level)
    out, size = np.zeros((2 * h,) * 3, dtype=dtype), _slab_rows(h)
    for lo in range(0, h, size):
        x, o = level[lo:lo + size], out.reshape(h, 2, h, 2, h, 2)[lo:lo + size]
        sign = (1 - 2 * _parity(h)[lo:lo + size]).astype(work)
        o[:, 0, :, 0, :, 0] = o[:, 1, :, 0, :, 1] = x
        o[:, 0, :, 1, :, 1] = coding.reduce(_scaled(x, sign))
        o[:, 0, :, 1, :, 0] = o[:, 1, :, 1, :, 1] = coding.reduce(
            _boundary(level, lo, size, polar, work))
        if q:
            o[:, 1, :, 1, :, 0] = coding.reduce(_scaled(x, sign * q))
    return out


def _even_top(coding, level, q, polar, work, dtype):
    """The even algebra on a new lowest generator e_a: an even mask s + 2 S
    has s the parity of S, so the axes are level's, entries with |S| + |T|
    + |U| odd are 0 and dropped, and with D = (de_S) e_T an entry is level
    (even T), level + D (odd T, even S) or -q(e_a) level + D (odd T, odd S)."""
    h, par, odd = len(level), _parity(len(level)), _parity(len(level)).astype(bool)
    if np.count_nonzero(level.astype(bool) & (odd[:, None, None] ^ odd[None, :, None] ^ odd)):
        raise InvariantViolation("clifford-grading", "product of basis masks escaped the span")
    odd_t, out, size = level[:, odd], level.astype(dtype), _slab_rows(h)
    for lo in range(0, h, size):
        factor = np.array([1, -q], dtype=work)[par[lo:lo + size]]
        out[lo:lo + size, odd] = coding.reduce(
            _scaled(odd_t[lo:lo + size], factor) + _boundary(odd_t, lo, size, polar, work))
    return out


def _clifford_table(coding, form, even):
    """Structure tensor of the full or even Clifford algebra of form: from
    the unit, _double adds e_(n-1), ..., e_0, but _even_top adds e_0 to the
    even one.  Over Q with integral c, ((n + 1) max(|c|, 1))^n < 2^62 bounds
    every level, each max(1, |q(e_a)|, sum |b(e_a, e_t)|) times the last;
    else Q and F_(p^e) run on object codes."""
    n, c = form.n, [[coding.code(x) for x in row] for row in form.c]
    flat = [x for row in c for x in row]
    integral = (coding.field.kind == "rationals" and all(type(x) is int for x in flat)
                and ((n + 1) * max(1, *map(abs, flat))) ** n < 1 << 62)
    work, bound = np.int64 if integral else coding.dtype, coding.p - 1 if coding.p else 1
    level = np.ones((1, 1, 1), dtype=work)
    for a in range(n - 1, -1, -1):
        if integral:
            bound *= max(1, abs(c[a][a]), sum(abs(x) for x in c[a][a + 1:]))
        dtype = object if work is object else np.min_scalar_type(-bound - 1)
        step = _even_top if even and a == 0 else _double
        level = step(coding, level, c[a][a], c[a][a + 1:], work, dtype)
    return level


def _mask_label(mask):
    if not mask:
        return "1"
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


class CliffordAlgebra(StructuredAlgebra):
    """Structure-tensor algebra whose basis is a set of index masks."""

    def __init__(self, form, even):
        if not 1 <= form.n <= 7:
            raise ValueError("Clifford construction supports rank 1 through 7, got %d" % form.n)
        self.form = form
        self.masks = [m for m in range(1 << form.n) if not even or bin(m).count("1") % 2 == 0]
        self.mask_index = {m: i for i, m in enumerate(self.masks)}
        table = _clifford_table(ArrayCoding(form.field), form, even)
        if _fault_target == "clifford-mul" and len(self.masks) > 1:
            table[1, 1, 0] += 1
        gens = [i for i, m in enumerate(self.masks) if bin(m).count("1") == (2 if even else 1)]
        super().__init__(form.field, table, [_mask_label(m) for m in self.masks], gens)

    def mask_mul(self, mask_s, mask_t):
        """Product by masks instead of indices, as a mask-keyed dict."""
        prod = self.mul_basis(self.mask_index[mask_s], self.mask_index[mask_t])
        return {self.masks[k]: c for k, c in prod.items()}


def even_clifford(form):
    """The even Clifford algebra, dimension 2^(n-1), n up to 7."""
    return CliffordAlgebra(form, True)


def full_clifford(form):
    """The full Clifford algebra, dimension 2^n, n up to 7, with its
    generator relations checked after the algebra checks."""
    alg = CliffordAlgebra(form, False)
    _verify_relations(alg)
    return alg


def _verify_relations(alg):
    """e_i e_i = q(e_i) and e_i e_j + e_j e_i = b(e_i, e_j) in a full
    Clifford algebra, else InvariantViolation "clifford-relations"."""
    n, c, coding = alg.form.n, alg.form.c, alg.coding
    gens = [1 << i for i in range(n)]  # a full algebra's index is its mask
    prods = alg.table[np.ix_(gens, gens)].astype(alg.work_dtype)
    sums = prods + np.where(np.eye(n, dtype=bool)[:, :, None], 0, prods.transpose(1, 0, 2))
    sums[:, :, 0] -= coding.array([[c[min(i, j)][max(i, j)] for j in range(n)]
                                   for i in range(n)]).astype(sums.dtype)
    bad = np.argwhere(np.count_nonzero(coding.reduce(sums), axis=2))
    if len(bad):
        i, j = (_mask_label(gens[v]) for v in bad[0])
        raise InvariantViolation("clifford-relations", "%s %s != q(%s)" % (i, i, i) if i == j
                                 else "%s %s + %s %s != b(%s, %s)" % (i, j, j, i, i, j))

# ---------------------------------------------------------------------------
# graded tensor decomposition


def verify_orthogonal_sum(q1, q2):
    """C(q1 + q2) is the graded tensor product of C(q1) and C(q2).

    The identification sends the pair of masks (S1, S2) to the mask
    S1 | (S2 << n1); it is a bijection with unit coefficients by
    construction, so the content of the check is multiplicativity with
    the sign (-1)^(|S2| |T1|), verified on every pair of basis vectors
    at once: the tensor of the sum, indexed by the interleaved masks,
    equals the signed tensor product of the two summands' tensors.
    """
    big, a1, a2 = (full_clifford(q) for q in (q1.direct_sum(q2), q1, q2))
    # a full algebra's basis index is its mask, so index s1 + 2^n1 s2 is (S1, S2)
    odd1, odd2 = (np.array([bin(m).count("1") & 1 for m in a.masks]) for a in (a1, a2))
    sign = 1 - 2 * np.outer(odd2, odd1)  # [s2, t1]
    numeric = None not in (a1.bound, a2.bound, big.bound) and a1.bound * a2.bound < 1 << 62
    t1, t2, got = (a.table.astype(np.int64 if numeric else object) for a in (a1, a2, big))
    expected = (t2[:, None, :, None, :, None] * t1[None, :, None, :, None, :]
                * sign[:, None, None, :, None, None])
    bad = big.coding.reduce(got.reshape(expected.shape) - expected)
    found = np.argwhere(np.count_nonzero(bad, axis=(4, 5)).transpose(1, 0, 3, 2))
    if len(found):
        s1, s2, u1, u2 = (int(v) for v in found[0])
        prod = big.mask_mul(s1 | s2 << q1.n, u1 | u2 << q1.n)
        raise InvariantViolation(
            "orthogonal-sum-product",
            "masks (%d|%d)*(%d|%d) give %s" % (s1, s2, u1, u2, " + ".join(
                "%s*%s" % (scalar_str(c), _mask_label(m)) for m, c in prod.items()) or "0"),
        )
    return True

# ---------------------------------------------------------------------------
# center extraction


def center_basis(algebra):
    """Basis of the center, as coded rows; deterministic.

    Works by intersecting the kernels of the commutator maps with the
    algebra's generators (the generating set is enough: commuting with
    generators means commuting with everything they generate).  The
    candidates are coded rows, their commutators with generator g are
    rows @ (T[g] - T[:, g]), solved by rings.coded_kernel.  Over Q with
    an integer tensor the rows stay integers, int64 while a bound allows
    it, with one denominator each, divided out at the end: coded_kernel
    returns integer kernel rows with their scales, and scaling a column
    of a commutator matrix only rescales its reduced echelon kernel
    basis, so the basis is unchanged.
    """
    d, coding, t = algebra.dim, algebra.coding, algebra.table
    gens = algebra.gen_indices if algebra.gen_indices is not None else list(range(d))
    work = algebra.work_dtype
    rows, dens = np.eye(d, dtype=work), np.ones(d, dtype=object)
    for g in gens:
        if len(rows) <= 1:
            break
        comm = coding.matmul(rows, t[g].astype(work) - t[:, g])
        if not np.count_nonzero(comm):
            continue  # the kernel of zero is everything: the rows stay
        free, kernel, scales = coded_kernel(coding, comm.T)
        rows = coding.matmul(kernel, rows)
        dens = scales * dens[free]
    return coding.divide_rows(rows, dens)


@dataclass(slots=True, eq=False)
class CenterReport:
    """Structure of the center of an even Clifford algebra.

    kind is one of:
      trivial  -- center is the ground field
      split    -- etale of rank 2, k x k, with the two idempotents
      field    -- etale of rank 2, a quadratic field extension
      dual     -- rank 2 with a nilpotent, k[z]/(z^2): degenerate
      big      -- dimension above 2 (heavily degenerate input)

    delta is the discriminant scalar with center k[z]/(z^2 - delta)
    (characteristic not 2; None otherwise).  idempotents is the pair of
    coded vectors of a split center, None otherwise.
    """

    dim: int
    kind: str
    delta: object
    idempotents: object
    separable: bool

    def __repr__(self):
        d = "" if self.delta is None else ", delta=%s" % scalar_str(self.delta)
        return "CenterReport(dim=%d, kind=%s%s)" % (self.dim, self.kind, d)


def _affine(coding, a, b, v):
    """The coded vector a 1 + b v, for field elements a, b and a coded v."""
    out = coding.scale(v, b)
    out[0] = coding.code(a + b * coding.decode(v[0]))
    return out


def center_report(algebra):
    basis = center_basis(algebra)
    dim = len(basis)
    field, coding, decode = algebra.field, algebra.coding, algebra.coding.decode
    if dim == 1:
        return CenterReport(1, "trivial", None, None, True)
    if dim > 2:
        return CenterReport(dim, "big", None, None, False)

    # pick a generator w of the center not proportional to the unit, and
    # a coordinate k > 0 where it is nonzero
    w = next((row for row in basis if np.count_nonzero(row[1:])), None)
    if w is None:
        raise InvariantViolation("center-rank", "rank-2 center spanned by scalars")
    k = 1 + int(np.flatnonzero(w[1:])[0])
    # w^2 = alpha 1 + beta w: beta from coordinate k, alpha from the unit's
    w2 = algebra.mul(w, w)
    beta = decode(w2[k]) / decode(w[k])
    alpha = decode(w2[0]) - beta * decode(w[0])
    if not coding.equal(w2, _affine(coding, alpha, beta, w)):
        raise InvariantViolation("center-rank", "w^2 escapes span{1, w}")

    one = field.one()
    if field.characteristic != 2:
        two = field.from_int(2)
        z = _affine(coding, -beta / two, one, w)
        delta = alpha + beta * beta / (two * two)
        z2 = algebra.mul(z, z)
        if np.count_nonzero(z2[1:]) or decode(z2[0]) != delta:
            raise InvariantViolation("center-quadratic", "z^2 != delta")
        if not delta:
            return CenterReport(2, "dual", delta, None, False)
        root = field.sqrt(delta)
        if root is not None:
            half = one / two
            e1, e2 = (_affine(coding, half, s * half / root, z) for s in (one, -one))
            _check_idempotents(algebra, e1, e2)
            return CenterReport(2, "split", delta, (e1, e2), True)
        return CenterReport(2, "field", delta, None, True)

    # characteristic 2: w^2 = alpha + beta w
    separable = bool(beta)
    if not separable:
        # inseparable: nilpotent iff alpha is a square (then (w - r)^2 = 0)
        kind = "dual" if field.sqrt(alpha) is not None else "field"
        return CenterReport(2, kind, None, None, False)
    # split iff x^2 + beta x + alpha has a root; search the field, finite
    # as every field of characteristic 2 here is (signs are immaterial)
    for r in field.elements():
        if not (r * r + beta * r + alpha):
            # e = (w - r) / beta satisfies e^2 = e
            e1 = _affine(coding, -r / beta, one / beta, w)
            e2 = _affine(coding, one, -one, e1)
            _check_idempotents(algebra, e1, e2)
            return CenterReport(2, "split", None, (e1, e2), True)
    return CenterReport(2, "field", None, None, True)


def even_center_report(form):
    """(C0(q), center report), the center checked against disc(q).

    For a regular form of even rank n in characteristic not 2 the center
    of C0 is k[z]/(z^2 - delta) with delta in the square class of
    (-1)^(n/2) disc(q); a center that breaks this raises
    InvariantViolation "center-discriminant".
    """
    alg = even_clifford(form)
    rep = center_report(alg)
    field = form.field
    if form.n % 2 == 0 and field.characteristic != 2:
        disc = form.discriminant()
        if disc:
            want = field.from_int((-1) ** (form.n // 2)) * disc
            if not rep.delta or not field.is_square(rep.delta / want):
                raise InvariantViolation(
                    "center-discriminant",
                    "center %s of a regular rank-%d form, expected delta in "
                    "the square class of %s" % (rep, form.n, scalar_str(want)))
    return alg, rep


def _check_idempotents(algebra, e1, e2):
    coding, mul = algebra.coding, algebra.mul
    if not (coding.equal(mul(e1, e1), e1) and coding.equal(mul(e2, e2), e2)):
        raise InvariantViolation("center-idempotent", "claimed idempotent fails e^2 = e")
    if np.count_nonzero(mul(e1, e2)) or np.count_nonzero(mul(e2, e1)):
        raise InvariantViolation("center-idempotent", "idempotents not orthogonal")
    if not coding.equal(e1 + e2, coding.eye(algebra.dim)[0]):
        raise InvariantViolation("center-idempotent", "idempotents do not sum to 1")


# ---------------------------------------------------------------------------
# central simplicity and Peirce fibers


def is_central_simple(algebra):
    """Exact test: trivial center plus semisimplicity.

    A nondegenerate trace form certifies semisimplicity in every
    characteristic (nilpotents sit inside the trace radical).  A
    degenerate trace form is conclusive only in characteristic zero or
    above the dimension; otherwise the test raises NotImplementedError.
    In characteristic not 2 the Peirce fibers of a split even Clifford
    algebra are matrix algebras M_k with k a power of 2, whose trace form
    k tr(xy) is nondegenerate, so the trace test decides them.
    """
    if len(center_basis(algebra)) != 1:
        return False
    # the trace form: T[i][j] = trace of left multiplication by e_i e_j
    d, coding, t = algebra.dim, algebra.coding, algebra.table
    traces = coding.reduce(coding.codes(t.diagonal(axis1=1, axis2=2)).sum(axis=1))
    form = coding.codes(coding.matmul(t.reshape(d * d, d), traces[:, None]).reshape(d, d))
    if len(coded_rref(coding, form)[1]) == d:
        return True
    p = algebra.field.characteristic
    if p == 0 or p > algebra.dim:
        return False
    raise NotImplementedError(
        "trace form degenerate in characteristic %d at dimension %d; "
        "no exact test without it" % (p, algebra.dim)
    )


def algebra_on_subspace(parent, basis):
    """Algebra structure induced on a subspace.

    basis is a coded array of independent rows, with the unit of the new
    algebra first.  Products are computed upstairs, then re-expanded in
    the given basis; failure to close raises.  The basis B is eliminated
    once: [B | I] reduces to [R | T] with R = T B, so a vector v in the
    span has R-coordinates y = v at R's pivot columns, v = y R, and
    B-coordinates y T.
    """
    m, dim = len(basis), parent.dim
    coding = parent.coding
    red, pivots = coded_rref(coding, np.concatenate([basis, coding.eye(m)], axis=1))
    span, to_basis = red[:, :dim], red[:, dim:]
    # the products of all pairs, on the columns the basis touches:
    # prod[i, j] = sum_uv part[i, u] part[j, v] T[u, v]
    used = np.flatnonzero(np.count_nonzero(basis, axis=0))
    part = basis[:, used]
    left = coding.matmul(part, parent.table[np.ix_(used, used)].reshape(len(used), -1))
    prod = coding.matmul(part, left.reshape(m, len(used), dim))
    y = prod[..., pivots]
    bad = np.argwhere(np.count_nonzero(coding.reduce(prod - coding.matmul(y, span)), axis=2))
    if len(bad):
        raise InvariantViolation("subalgebra-closure",
                                 "product of basis elements %d, %d escapes the span"
                                 % tuple(int(v) for v in bad[0]))
    return StructuredAlgebra(parent.field, coding.matmul(y, to_basis))


def split_fibers(algebra, report):
    """The Peirce fibers e A e of an algebra over a split center.

    One subalgebra per central idempotent e of the report, with e as its
    unit; the algebra is Azumaya over its center exactly when both are
    central simple.
    """
    if report.kind != "split":
        raise ValueError("Peirce fibers need a split center, got %s" % report.kind)
    d, coding, t = algebra.dim, algebra.coding, algebra.table
    fibers = []
    for e in report.idempotents:
        # row k of left is e e_k, and right is the matrix of x -> x e
        left = coding.matmul(e[None], t.reshape(d, d * d)).reshape(d, d)
        right = coding.matmul(t.transpose(0, 2, 1).reshape(d * d, d), e[:, None]).reshape(d, d)
        cands = np.concatenate([e[None], coding.codes(coding.matmul(left, right))])
        # the basis is the candidates at the pivot columns of the matrix
        # whose columns they are: each is independent of those before it
        _, pivots = coded_rref(coding, cands.T)
        fibers.append(algebra_on_subspace(algebra, cands[pivots]))
    return fibers


def hyperbolic_split_structure(m, field):
    """Fiber decomposition of the even algebra of the split form H(m).

    The center splits into two idempotent fibers, each a central simple
    algebra of dimension (2^{m-1})^2, so the even algebra is a product
    of two matrix algebras.  Returns a dict with the verified shape.
    """
    if not 1 <= m <= 3:
        raise ValueError("split structure kept to m <= 3 hyperbolic planes")
    if field.characteristic == 2:
        raise ValueError("split structure needs characteristic not 2")
    from .quadform import QuadraticForm
    q = QuadraticForm.hyperbolic(field, m)
    alg = even_clifford(q)
    rep = center_report(alg)
    if rep.kind != "split":
        raise InvariantViolation("hyperbolic-center-split",
                                 "center of C0(H(%d)) has kind %s" % (m, rep.kind))
    fibers = split_fibers(alg, rep)
    want = (2 ** (m - 1)) ** 2
    for label, f in zip(("plus", "minus"), fibers):
        if f.dim != want:
            raise InvariantViolation(
                "hyperbolic-fiber-dim",
                "fiber %s has dim %d, expected %d" % (label, f.dim, want))
        if not is_central_simple(f):
            raise InvariantViolation("hyperbolic-fiber-simple",
                                     "fiber %s is not central simple" % label)
    if alg.dim != 2 ** (2 * m - 1):
        raise InvariantViolation("hyperbolic-total-dim",
                                 "dim C0(H(%d)) = %d" % (m, alg.dim))
    return {"planes": m, "center": "split", "fiber_dims": tuple(f.dim for f in fibers),
            "fibers_central_simple": True, "total_dim": alg.dim}
