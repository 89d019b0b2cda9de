"""Even Clifford algebras and the structure analysis built on them.

An algebra here is a basis plus a multiplication rule on basis indices
returning sparse dictionaries; the full table is filled lazily and
memoized, so a 64-dimensional algebra only pays for the products a
computation actually touches.  Basis element 0 is always the unit.
The memoized table holds rings.ArrayCoding codes: residues over F_p,
over Q a Python int when the value is integral and a Fraction
otherwise, the element itself over other fields.  The construction,
the associativity check, the center and the Morita certificate read the
codes (mul_coded); mul_basis decodes them into field elements.

The even Clifford algebra of a quadratic form q on k^n has one basis
element per even-cardinality subset S of {1, ..., n}, encoded as a
bitmask, with dimension 2^(n-1).  Products follow from the two local
rules

    e_i e_i -> q(e_i)           e_i e_j -> b(e_i, e_j) - e_j e_i   (i > j)

applied one generator at a time: e_S e_T is a memoized earlier product
e_S' e_T, with S' the basis mask left after dropping the lowest indices
of S, multiplied on the left by those generators, each moved into
strictly increasing position by the rules.  The same engine produces the
full Clifford algebra (all 2^n subsets), used by the orthogonal-sum and
hyperbolic-splitting verifications.

Every constructed algebra re-verifies unitality and associativity:
exhaustively through dimension 16, and on a seeded 256-triple sample
above that (a fixed-seed sample, so failures reproduce).  Callers that
want the exhaustive check at dimension 32 can force it.
"""

from __future__ import annotations

import random

from .rings import ArrayCoding, InvariantViolation, Matrix, coded_kernel, coded_rref, scalar_str

# fault injection hook for the self-test machinery: when set to
# "clifford-mul", freshly built even Clifford algebras get one corrupted
# structure constant, which the construction checks must then catch
_fault_target = None


def inject_fault(target):
    global _fault_target
    _fault_target = target


class StructuredAlgebra:
    """Finite-dimensional unital associative algebra over an exact field.

    Elements are sparse dicts {basis index: coefficient}.  The unit is
    basis element 0 (checked at construction).  mul_fn(i, j) gives e_i e_j
    as {k: x} with each x a sum of products of rings.ArrayCoding codes of
    the field; mul_coded reduces it once and memoizes it, and mul_basis
    decodes the memoized codes into field elements.
    """

    def __init__(self, field, dim, mul_fn=None, labels=None, gen_indices=None,
                 check="auto", seed=0):
        if dim < 1:
            raise ValueError("an algebra needs at least the unit")
        self.field = field
        self.coding = ArrayCoding(field)
        self.dim = dim
        self._mul_fn = mul_fn
        self._table = [[None] * dim for _ in range(dim)]
        self.labels = list(labels) if labels else ["b%d" % i for i in range(dim)]
        self.gen_indices = list(gen_indices) if gen_indices is not None else None
        self._trace_vec = None
        self._verify_unit()
        if check == "auto":
            self.verify_associativity(seed=seed)
        elif check == "full":
            self.verify_associativity(seed=seed, force_full=True)
        elif check is not False:
            raise ValueError("check must be 'auto', 'full', or False")

    # -- basic operations ----------------------------------------------

    def _product(self, i, j):
        """e_i e_j as {k: unreduced code}; subclasses compute it here."""
        return self._mul_fn(i, j)

    def mul_coded(self, i, j):
        """e_i e_j as the memoized {k: code} of its nonzero coefficients."""
        out = self._table[i][j]
        if out is None:
            # a sum of products of codes to its code: mod p over F_p, an
            # int when integral over Q
            coding = self.coding
            canonical = coding.reduce if coding.p else coding.code
            out = self._table[i][j] = {k: r for k, c in self._product(i, j).items()
                                       if (r := canonical(c))}
        return out

    def mul_basis(self, i, j):
        decode = self.coding.decode
        return {k: decode(c) for k, c in self.mul_coded(i, j).items()}

    def unit(self):
        return {0: self.field.one()}

    def mul_elem(self, x, y):
        acc = {}
        for u, cu in x.items():
            if not cu:
                continue
            for v, cv in y.items():
                if not cv:
                    continue
                c = cu * cv
                for w, cw in self.mul_basis(u, v).items():
                    s = acc.get(w)
                    acc[w] = c * cw if s is None else s + c * cw
        return {w: c for w, c in acc.items() if c}

    def add_elem(self, x, y):
        out = dict(x)
        for k, c in y.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return out

    def sub_elem(self, x, y):
        return self.add_elem(x, {k: -c for k, c in y.items()})

    def scale_elem(self, c, x):
        return {k: c * v for k, v in x.items()} if c else {}

    def dense(self, x):
        z = self.field.zero()
        out = [z] * self.dim
        for k, c in x.items():
            out[k] = c
        return tuple(out)

    def mul_dense(self, xv, yv):
        x = {i: c for i, c in enumerate(xv) if c}
        y = {i: c for i, c in enumerate(yv) if c}
        return self.dense(self.mul_elem(x, y))

    # -- construction-time checks ---------------------------------------

    def _verify_unit(self):
        # 1 is the code of one in every coding, up to ==
        for j in range(self.dim):
            if self.mul_coded(0, j) != {j: 1} or self.mul_coded(j, 0) != {j: 1}:
                raise InvariantViolation(
                    "algebra-unit",
                    "basis element 0 does not act as the unit on index %d" % j,
                )

    def verify_associativity(self, seed=0, force_full=False, samples=256):
        """(e_i e_j) e_k = e_i (e_j e_k), exhaustive or sampled by dimension.

        Runs on the coded table: coding is an injective ring map, so a
        triple fails here exactly when it fails in the field.
        """
        d = self.dim
        if d <= 16 or force_full:
            triples = (
                (i, j, k)
                for i in range(d)
                for j in range(d)
                for k in range(d)
            )
        else:
            rng = random.Random(seed)
            triples = ((rng.randrange(d), rng.randrange(d), rng.randrange(d))
                       for _ in range(samples))
        reduce, row = self.coding.reduce, self.mul_coded

        def clean(acc):
            return {w: r for w, c in acc.items() if (r := reduce(c))}

        for i, j, k in triples:
            left = {}
            for u, cu in row(i, j).items():
                for w, cw in row(u, k).items():
                    s = left.get(w)
                    left[w] = cu * cw if s is None else s + cu * cw
            right = {}
            for v, cv in row(j, k).items():
                for w, cw in row(i, v).items():
                    s = right.get(w)
                    right[w] = cw * cv if s is None else s + cw * cv
            # codes equal before reduction are equal after it
            if left != right and clean(left) != clean(right):
                raise InvariantViolation(
                    "algebra-associativity",
                    "(%s %s) %s != %s (%s %s)"
                    % (self.labels[i], self.labels[j], self.labels[k],
                       self.labels[i], self.labels[j], self.labels[k]),
                )
        return True

    # -- invariant machinery ---------------------------------------------

    def trace_vec(self):
        """Traces of left multiplication by each basis element."""
        if self._trace_vec is None:
            z = self.field.zero()
            out = []
            for m in range(self.dim):
                acc = z
                for k in range(self.dim):
                    c = self.mul_basis(m, k).get(k)
                    if c:
                        acc = acc + c
                out.append(acc)
            self._trace_vec = out
        return self._trace_vec

    def trace_form_matrix(self):
        """T[i][j] = trace of left multiplication by e_i e_j."""
        tv = self.trace_vec()
        z = self.field.zero()
        rows = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                acc = z
                for m, c in self.mul_basis(i, j).items():
                    if tv[m]:
                        acc = acc + c * tv[m]
                row.append(acc)
            rows.append(row)
        return Matrix(self.field, rows)

# ---------------------------------------------------------------------------
# Clifford construction by word rewriting


def _generator_times(c, one, a, mask):
    """Normal form of e_a * e_mask as a mask-keyed dict of codes.

    c holds the codes of the form's coefficients (c[t][a] with t <= a),
    one the code of 1.  With t the lowest index in the mask and rest the
    other indices, e_a e_t = b(e_t, e_a) - e_t e_a for a > t, and every
    index in e_a e_rest exceeds t, so prefixing e_t there needs no
    reordering.
    """
    low = mask & -mask
    t = low.bit_length() - 1
    if not mask or a < t:
        return {mask | 1 << a: one}
    if a == t:
        cc = c[a][a]
        return {mask ^ low: cc} if cc else {}
    rest = mask ^ low
    cab = c[t][a]  # the polar value b(e_t, e_a)
    out = {rest: cab} if cab else {}
    for m, x in _generator_times(c, one, a, rest).items():
        out[m | low] = -x
    return out


def _mask_word(mask):
    word = []
    i = 0
    while mask:
        if mask & 1:
            word.append(i)
        mask >>= 1
        i += 1
    return tuple(word)


def _mask_label(mask):
    if not mask:
        return "1"
    return "e" + "".join(str(i + 1) for i in _mask_word(mask))


class CliffordAlgebra(StructuredAlgebra):
    """Structure-constant algebra whose basis is a set of index masks."""

    def __init__(self, form, masks, gen_popcount, check="auto", seed=0):
        self.form = form
        self.masks = list(masks)
        self.mask_index = {m: i for i, m in enumerate(self.masks)}
        code = ArrayCoding(form.field).code
        self._coeffs = [[code(x) for x in row] for row in form.c]
        self._one = code(form.field.one())
        self._fault = _fault_target == "clifford-mul"
        gen_indices = [i for i, m in enumerate(self.masks)
                       if bin(m).count("1") == gen_popcount]
        super().__init__(form.field, len(self.masks),
                         labels=[_mask_label(m) for m in self.masks],
                         gen_indices=gen_indices, check=check, seed=seed)

    def _product(self, i, j):
        # e_S e_T = e_s1 (... (e_sr (e_S' e_T))) where s1 < ... < sr are
        # the fewest lowest indices of S leaving a basis mask S', so
        # e_S' e_T is an earlier entry of the memoized table
        one = self._one
        s = self.masks[i]
        if not s:
            return {j: one}
        peeled = []
        while not peeled or s not in self.mask_index:
            low = s & -s
            peeled.append(low.bit_length() - 1)
            s ^= low
        rest = self.mul_coded(self.mask_index[s], j)
        out = {self.masks[k]: c for k, c in rest.items()}
        for a in reversed(peeled):
            nxt = {}
            for m, c in out.items():
                for m2, c2 in _generator_times(self._coeffs, one, a, m).items():
                    prev = nxt.get(m2)
                    nxt[m2] = c * c2 if prev is None else prev + c * c2
            out = nxt
        result = {}
        for mask, c in out.items():
            k = self.mask_index.get(mask)
            if k is None:
                if not self.coding.reduce(c):
                    continue
                raise InvariantViolation(
                    "clifford-grading",
                    "product of basis masks escaped the span",
                )
            result[k] = c
        if self._fault and i == 1 and j == 1:
            result[0] = result[0] + one if 0 in result else one
        return result

    def mask_mul(self, mask_s, mask_t):
        """Product by masks instead of indices, as a mask-keyed dict."""
        prod = self.mul_basis(self.mask_index[mask_s], self.mask_index[mask_t])
        return {self.masks[k]: c for k, c in prod.items()}


def even_clifford(form, check="auto", seed=0):
    """The even Clifford algebra, dimension 2^(n-1), n up to 7."""
    n = form.n
    if not 1 <= n <= 7:
        raise ValueError("even Clifford construction supports rank 1 through 7, got %d" % n)
    masks = [m for m in range(1 << n) if bin(m).count("1") % 2 == 0]
    return CliffordAlgebra(form, masks, 2, check=check, seed=seed)


def full_clifford(form, check="auto", seed=0):
    """The full Clifford algebra, dimension 2^n, n up to 7."""
    n = form.n
    if not 1 <= n <= 7:
        raise ValueError("full Clifford construction supports rank 1 through 7, got %d" % n)
    return CliffordAlgebra(form, list(range(1 << n)), 1, check=check, seed=seed)

# ---------------------------------------------------------------------------
# graded tensor decomposition


def verify_orthogonal_sum(q1, q2, check="auto"):
    """C(q1 + q2) is the graded tensor product of C(q1) and C(q2).

    The identification sends the pair of masks (S1, S2) to the mask
    S1 | (S2 << n1); it is a bijection with unit coefficients by
    construction, so the content of the check is multiplicativity with
    the sign (-1)^(|S2| |T1|), verified on every pair of basis vectors.
    """
    big = full_clifford(q1.direct_sum(q2), check=check)
    a1 = full_clifford(q1, check=check)
    a2 = full_clifford(q2, check=check)
    n1 = q1.n
    field = big.field
    minus = -field.one()
    for s1 in a1.masks:
        for s2 in a2.masks:
            left_mask = s1 | (s2 << n1)
            for t1 in a1.masks:
                sign = minus ** (bin(s2).count("1") * bin(t1).count("1"))
                for t2 in a2.masks:
                    got = big.mask_mul(left_mask, t1 | (t2 << n1))
                    p1 = a1.mask_mul(s1, t1)
                    p2 = a2.mask_mul(s2, t2)
                    expected = {}
                    for u1, c1 in p1.items():
                        for u2, c2 in p2.items():
                            expected[u1 | (u2 << n1)] = sign * c1 * c2
                    expected = {k: c for k, c in expected.items() if c}
                    if got != expected:
                        raise InvariantViolation(
                            "orthogonal-sum-product",
                            "masks (%d|%d)*(%d|%d)" % (s1, s2, t1, t2),
                        )
    return True

# ---------------------------------------------------------------------------
# center extraction


def center_basis(algebra):
    """Basis of the center, as sparse dicts; deterministic.

    Works by intersecting the kernels of the commutator maps with the
    algebra's generators (the generating set is enough: commuting with
    generators means commuting with everything they generate).  The
    columns are sparse dicts of codes, each commutator map is solved by
    rings.coded_kernel, and only the final basis is decoded.
    """
    d = algebra.dim
    coding = algebra.coding
    reduce, mul = coding.reduce, algebra.mul_coded
    gens = algebra.gen_indices if algebra.gen_indices is not None else list(range(d))
    cols = [{i: 1} for i in range(d)]
    for g in gens:
        if len(cols) <= 1:
            break
        comm = coding.zeros((d, len(cols)))
        for c, col in enumerate(cols):
            acc = {}
            for u, x in col.items():
                for w, y in mul(g, u).items():
                    acc[w] = acc.get(w, 0) + x * y
                for w, y in mul(u, g).items():
                    acc[w] = acc.get(w, 0) - x * y
            for w, v in acc.items():
                comm[w, c] = reduce(v)
        new_cols = []
        for alpha in coded_kernel(coding, comm)[1].tolist():
            acc = {}
            for a, col in zip(alpha, cols):
                if a:
                    for i, x in col.items():
                        acc[i] = acc.get(i, 0) + a * x
            new_cols.append({i: r for i, v in acc.items() if (r := reduce(v))})
        cols = new_cols
    decode = coding.decode
    return [{i: decode(x) for i, x in sorted(col.items())} for col in cols]


class CenterReport:
    """Structure of the center of an even Clifford algebra.

    kind is one of:
      trivial  -- center is the ground field
      split    -- etale of rank 2, k x k, with the two idempotents
      field    -- etale of rank 2, a quadratic field extension
      dual     -- rank 2 with a nilpotent, k[z]/(z^2): degenerate
      big      -- dimension above 2 (heavily degenerate input)

    delta is the discriminant scalar with center k[z]/(z^2 - delta)
    (characteristic not 2; None otherwise), z the chosen generator.
    """

    __slots__ = ("dim", "basis", "kind", "delta", "z", "idempotents", "separable")

    def __init__(self, dim, basis, kind, delta, z, idempotents, separable):
        self.dim = dim
        self.basis = basis
        self.kind = kind
        self.delta = delta
        self.z = z
        self.idempotents = idempotents
        self.separable = separable

    def __repr__(self):
        d = "" if self.delta is None else ", delta=%s" % scalar_str(self.delta)
        return "CenterReport(dim=%d, kind=%s%s)" % (self.dim, self.kind, d)


def center_report(algebra):
    basis = center_basis(algebra)
    dim = len(basis)
    field = algebra.field
    if dim == 1:
        return CenterReport(1, basis, "trivial", None, None, None, True)
    if dim > 2:
        return CenterReport(dim, basis, "big", None, None, None, False)

    # pick a generator w of the center not proportional to the unit
    w = None
    for cand in basis:
        if set(cand) != {0}:
            w = cand
            break
    if w is None:
        raise InvariantViolation("center-rank", "rank-2 center spanned by scalars")
    w2 = algebra.mul_elem(w, w)
    # solve w^2 = alpha 1 + beta w inside span{1, w}
    wd = algebra.dense(w)
    m = Matrix(field, [
        [field.one() if i == 0 else field.zero(), wd[i]]
        for i in range(algebra.dim)
    ])
    sol = m.solve(algebra.dense(w2))
    if sol is None:
        raise InvariantViolation("center-rank", "w^2 escapes span{1, w}")
    alpha, beta = sol

    if field.characteristic != 2:
        two = field.from_int(2)
        z = algebra.sub_elem(w, {0: beta / two})
        delta = alpha + beta * beta / (two * two)
        z2 = algebra.mul_elem(z, z)
        if z2 != ({0: delta} if delta else {}):
            raise InvariantViolation("center-quadratic", "z^2 != delta")
        if not delta:
            return CenterReport(2, basis, "dual", delta, z, None, False)
        root = field.sqrt(delta)
        if root is not None:
            half = field.one() / two
            zr = algebra.scale_elem(half / root, z)
            e1 = algebra.add_elem({0: half}, zr)
            e2 = algebra.sub_elem({0: half}, zr)
            _check_idempotents(algebra, e1, e2)
            return CenterReport(2, basis, "split", delta, z, (e1, e2), True)
        return CenterReport(2, basis, "field", delta, z, None, True)

    # characteristic 2: w^2 = alpha + beta w
    separable = bool(beta)
    if not separable:
        # inseparable: nilpotent iff alpha is a square (then (w - r)^2 = 0)
        root = field.sqrt(alpha)
        if root is not None:
            z = algebra.sub_elem(w, {0: root})
            return CenterReport(2, basis, "dual", None, z, None, False)
        return CenterReport(2, basis, "field", None, w, None, False)
    if field.size() is None:
        raise NotImplementedError(
            "separable rank-2 center over an infinite characteristic-2 field"
        )
    # split iff x^2 + beta x + alpha has a root; search the finite field
    # (signs are immaterial in characteristic 2)
    for r in field.elements():
        if not (r * r + beta * r + alpha):
            e1 = _char2_idempotent(algebra, w, r, beta)
            e2 = algebra.sub_elem(algebra.unit(), e1)
            _check_idempotents(algebra, e1, e2)
            return CenterReport(2, basis, "split", None, w, (e1, e2), True)
    return CenterReport(2, basis, "field", None, w, None, True)


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


def _char2_idempotent(algebra, w, root, beta):
    # with w^2 = alpha + beta w and root r of x^2 + beta x + alpha,
    # e = (w - r) / beta satisfies e^2 = e
    inv = algebra.field.one() / beta
    return algebra.scale_elem(inv, algebra.sub_elem(w, {0: root}))


def _check_idempotents(algebra, e1, e2):
    if algebra.mul_elem(e1, e1) != e1 or algebra.mul_elem(e2, e2) != e2:
        raise InvariantViolation("center-idempotent", "claimed idempotent fails e^2 = e")
    if algebra.mul_elem(e1, e2) or algebra.mul_elem(e2, e1):
        raise InvariantViolation("center-idempotent", "idempotents not orthogonal")
    if algebra.add_elem(e1, e2) != algebra.unit():
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
    if algebra.trace_form_matrix().det():
        return True
    p = algebra.field.characteristic
    if p == 0 or p > algebra.dim:
        return False
    raise NotImplementedError(
        "trace form degenerate in characteristic %d at dimension %d; "
        "no exact test without it" % (p, algebra.dim)
    )


def algebra_on_subspace(parent, basis_elems):
    """Algebra structure induced on a subspace.

    basis_elems are dense tuples over parent.field, independent, with
    the unit of the new algebra first.  Products are computed upstairs,
    then re-expanded in the given basis; failure to close raises.  The
    basis B is eliminated once: [B | I] reduces to [R | T] with R = T B,
    so a vector v in the span has R-coordinates y = v at R's pivot
    columns, v = y R, and B-coordinates y T.
    """
    import numpy as np

    m, dim = len(basis_elems), parent.dim
    coding = parent.coding
    basis = coding.array(basis_elems)
    red, pivots = coded_rref(coding, np.concatenate([basis, coding.eye(m)], axis=1))
    span, to_basis = red[:, :dim], red[:, dim:]
    terms = [[(u, x) for u, x in enumerate(row) if x] for row in basis.tolist()]

    def mul_fn(i, j):
        prod = coding.zeros(dim)
        for u, x in terms[i]:
            for v, y in terms[j]:
                for w, z in parent.mul_coded(u, v).items():
                    prod[w] += x * y * z
        y = prod[pivots]
        if not coding.equal(prod, y @ span):
            raise InvariantViolation("subalgebra-closure",
                                     "product of basis elements %d, %d escapes the span" % (i, j))
        return dict(enumerate((y @ to_basis).tolist()))

    return StructuredAlgebra(parent.field, m, mul_fn)


def split_fibers(algebra, report):
    """The Peirce fibers e A e of an algebra over a split center.

    One subalgebra per central idempotent e of the report, with e as its
    unit; the algebra is Azumaya over its center exactly when both are
    central simple.
    """
    if report.kind != "split":
        raise ValueError("Peirce fibers need a split center, got %s" % report.kind)
    one = algebra.field.one()
    fibers = []
    for e in report.idempotents:
        ed = algebra.dense(e)
        cands = [ed] + [algebra.mul_dense(algebra.mul_dense(ed, algebra.dense({k: one})), ed)
                        for k in range(algebra.dim)]
        # the basis is the candidates at the pivot columns of the matrix
        # whose columns they are: each is independent of those before it
        _, pivots = Matrix(algebra.field, list(zip(*cands))).rref()
        fibers.append(algebra_on_subspace(algebra, [cands[c] for c in pivots]))
    return fibers


def hyperbolic_split_structure(m, field, check="auto"):
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
    alg = even_clifford(q, check=check)
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
    return {
        "planes": m,
        "center": "split",
        "fiber_dims": tuple(f.dim for f in fibers),
        "fibers_central_simple": True,
        "total_dim": alg.dim,
    }
