"""Even Clifford algebras and the structure analysis built on them.

An algebra here is a basis plus a multiplication rule on basis indices
returning sparse dictionaries; the full table is filled lazily and
memoized, so a 64-dimensional algebra only pays for the products a
computation actually touches.  Basis element 0 is always the unit.

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

from .rings import ExtElem, ExtensionField, InvariantViolation, Matrix, Poly, scalar_str

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
    basis element 0 (checked at construction).
    """

    def __init__(self, field, dim, mul_fn, labels=None, gen_indices=None,
                 check="auto", seed=0):
        if dim < 1:
            raise ValueError("an algebra needs at least the unit")
        self.field = field
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

    def mul_basis(self, i, j):
        out = self._table[i][j]
        if out is None:
            out = self._mul_fn(i, j)
            self._table[i][j] = out
        return out

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

    def sparse(self, v):
        return {i: c for i, c in enumerate(v) if c}

    def mul_dense(self, xv, yv):
        x = {i: c for i, c in enumerate(xv) if c}
        y = {i: c for i, c in enumerate(yv) if c}
        return self.dense(self.mul_elem(x, y))

    def left_matrix(self, x):
        """Matrix of y -> x y in the algebra basis."""
        z = self.field.zero()
        rows = [[z] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for u, cu in x.items():
                if not cu:
                    continue
                for w, cw in self.mul_basis(u, j).items():
                    rows[w][j] = rows[w][j] + cu * cw
        return Matrix(self.field, rows)

    def right_matrix(self, x):
        """Matrix of y -> y x in the algebra basis."""
        z = self.field.zero()
        rows = [[z] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for v, cv in x.items():
                if not cv:
                    continue
                for w, cw in self.mul_basis(j, v).items():
                    rows[w][j] = rows[w][j] + cv * cw
        return Matrix(self.field, rows)

    def format_elem(self, x):
        if not x:
            return "0"
        parts = []
        for k in sorted(x):
            c = scalar_str(x[k])
            lab = self.labels[k]
            if lab == "1":
                parts.append(c)
            elif c == "1":
                parts.append(lab)
            else:
                parts.append("(%s)*%s" % (c, lab) if "+" in c or "/" in c else "%s*%s" % (c, lab))
        return " + ".join(parts)

    # -- construction-time checks ---------------------------------------

    def _verify_unit(self):
        one = self.field.one()
        for j in range(self.dim):
            if self.mul_basis(0, j) != {j: one} or self.mul_basis(j, 0) != {j: one}:
                raise InvariantViolation(
                    "algebra-unit",
                    "basis element 0 does not act as the unit on index %d" % j,
                )

    def verify_associativity(self, seed=0, force_full=False, samples=256):
        """(e_i e_j) e_k = e_i (e_j e_k), exhaustive or sampled by dimension."""
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
        # structure constants recoded as Python ints where the field allows
        # (residues over F_p, integral rationals over Q): an injective ring
        # map, so a triple fails here exactly when it fails in the field
        field = self.field
        if field.kind == "prime":
            p = field.p

            def code(c):
                return c.v

            def clean(acc):
                return {w: c % p for w, c in acc.items() if c % p}
        else:
            if field.kind == "rationals":
                def code(c):
                    return c.numerator if c.denominator == 1 else c
            else:
                def code(c):
                    return c

            def clean(acc):
                return {w: c for w, c in acc.items() if c}
        coded = {}

        def row(i, j):
            out = coded.get((i, j))
            if out is None:
                out = coded[i, j] = [(w, code(c)) for w, c in self.mul_basis(i, j).items()]
            return out

        for i, j, k in triples:
            left = {}
            for u, cu in row(i, j):
                for w, cw in row(u, k):
                    s = left.get(w)
                    left[w] = cu * cw if s is None else s + cu * cw
            right = {}
            for v, cv in row(j, k):
                for w, cw in row(i, v):
                    s = right.get(w)
                    right[w] = cw * cv if s is None else s + cw * cv
            if clean(left) != clean(right):
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


def _generator_times(form, a, mask):
    """Normal form of e_a * e_mask as a mask-keyed dict.

    With t the lowest index in the mask and rest the other indices,
    e_a e_t = b(e_t, e_a) - e_t e_a for a > t, and every index in
    e_a e_rest exceeds t, so prefixing e_t there needs no reordering.
    """
    low = mask & -mask
    t = low.bit_length() - 1
    if not mask or a < t:
        return {mask | 1 << a: form.field.one()}
    if a == t:
        cc = form.coeff(a, a)
        return {mask ^ low: cc} if cc else {}
    rest = mask ^ low
    cab = form.coeff(t, a)  # the polar value b(e_t, e_a)
    out = {rest: cab} if cab else {}
    for m, c in _generator_times(form, a, rest).items():
        out[m | low] = -c
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
        fault = _fault_target
        field = form.field

        def mul_fn(i, j):
            # e_S e_T = e_s1 (... (e_sr (e_S' e_T))) where s1 < ... < sr are
            # the fewest lowest indices of S leaving a basis mask S', so
            # e_S' e_T is an earlier entry of the memoized table
            s = self.masks[i]
            if not s:
                return {j: field.one()}
            peeled = []
            while not peeled or s not in self.mask_index:
                low = s & -s
                peeled.append(low.bit_length() - 1)
                s ^= low
            rest = self.mul_basis(self.mask_index[s], j)
            out = {self.masks[k]: c for k, c in rest.items()}
            for a in reversed(peeled):
                nxt = {}
                for m, c in out.items():
                    for m2, c2 in _generator_times(form, a, m).items():
                        prev = nxt.get(m2)
                        nxt[m2] = c * c2 if prev is None else prev + c * c2
                out = nxt
            result = {}
            for mask, c in out.items():
                if not c:
                    continue
                k = self.mask_index.get(mask)
                if k is None:
                    raise InvariantViolation(
                        "clifford-grading",
                        "product of basis masks escaped the span",
                    )
                result[k] = c
            if fault == "clifford-mul" and i == 1 and j == 1:
                result[0] = result.get(0, field.zero()) + field.one()
            return result

        gen_indices = [i for i, m in enumerate(self.masks)
                       if bin(m).count("1") == gen_popcount]
        super().__init__(field, len(self.masks), mul_fn,
                         labels=[_mask_label(m) for m in self.masks],
                         gen_indices=gen_indices, check=check, seed=seed)

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
    generators means commuting with everything they generate).
    """
    d = algebra.dim
    field = algebra.field
    gens = algebra.gen_indices if algebra.gen_indices is not None else list(range(d))
    one = field.one()
    cols = [algebra.dense({i: one}) for i in range(d)]
    for g in gens:
        if len(cols) <= 1:
            break
        comm_cols = []
        for v in cols:
            x = algebra.sparse(v)
            gx = algebra.mul_elem({g: one}, x)
            xg = algebra.mul_elem(x, {g: one})
            comm_cols.append(algebra.dense(algebra.sub_elem(gx, xg)))
        m = Matrix(field, [[col[i] for col in comm_cols] for i in range(d)])
        kernel = m.kernel_basis()
        new_cols = []
        for alpha in kernel:
            vec = [field.zero()] * d
            for c, col in zip(alpha, cols):
                if c:
                    for i in range(d):
                        if col[i]:
                            vec[i] = vec[i] + c * col[i]
            new_cols.append(tuple(vec))
        cols = new_cols
    return [algebra.sparse(v) for v in cols]


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
# central simplicity and Azumaya fibers


def is_central_simple(algebra, _center_dim=None):
    """Exact test: trivial center plus semisimplicity.

    A nondegenerate trace form certifies semisimplicity in every
    characteristic (nilpotents sit inside the trace radical), so it is
    tried first.  A degenerate trace form is conclusive only in
    characteristic zero or above the dimension; in small characteristic
    the test falls back to solving for a separability idempotent, exact
    in every characteristic but costing dim^2 unknowns (so capped at
    dimension 16, which covers the fibers this package produces).
    """
    cdim = _center_dim if _center_dim is not None else len(center_basis(algebra))
    if cdim != 1:
        return False
    if algebra.trace_form_matrix().det():
        return True
    p = algebra.field.characteristic
    if p == 0 or p > algebra.dim:
        return False
    if algebra.dim <= 16:
        return _has_separability_idempotent(algebra)
    raise NotImplementedError(
        "trace form degenerate in characteristic %d at dimension %d; "
        "no exact fallback at this size" % (p, algebra.dim)
    )


def _has_separability_idempotent(algebra):
    """Solvability of (a x 1) e = (1 x a) e, mu(e) = 1 in A tensor A^op."""
    d = algebra.dim
    field = algebra.field
    z = field.zero()
    gens = algebra.gen_indices if algebra.gen_indices is not None else list(range(d))
    ncols = d * d
    rows = []
    rhs = []
    for g in gens:
        block = {}
        for u in range(d):
            gu = algebra.mul_basis(g, u)
            for v in range(d):
                col = u * d + v
                for a, c in gu.items():
                    key = (a, v)
                    block.setdefault(key, {})[col] = block.get(key, {}).get(col, z) + c
        for v in range(d):
            vg = algebra.mul_basis(v, g)
            for u in range(d):
                col = u * d + v
                for b, c in vg.items():
                    key = (u, b)
                    block.setdefault(key, {})[col] = block.get(key, {}).get(col, z) - c
        for key in sorted(block):
            entries = block[key]
            row = [z] * ncols
            live = False
            for col, c in entries.items():
                if c:
                    row[col] = c
                    live = True
            if live:
                rows.append(row)
                rhs.append(z)
    one = field.one()
    for k in range(d):
        row = [z] * ncols
        for u in range(d):
            for v in range(d):
                c = algebra.mul_basis(u, v).get(k)
                if c:
                    row[u * d + v] = c
        rows.append(row)
        rhs.append(one if k == 0 else z)
    return Matrix(field, rows).solve(tuple(rhs)) is not None


def algebra_on_subspace(parent, basis_elems, project=None, check="auto"):
    """Algebra structure induced on a subspace (or quotient image).

    basis_elems are dense tuples over parent.field, independent, with
    the unit of the new algebra first.  Products are computed upstairs,
    optionally projected, then re-expanded in the given basis; failure
    to close raises.
    """
    m = len(basis_elems)
    cols = Matrix(parent.field, [[be[i] for be in basis_elems] for i in range(parent.dim)])

    def mul_fn(i, j):
        prod = parent.mul_dense(basis_elems[i], basis_elems[j])
        if project is not None:
            prod = project(prod)
        coords = cols.solve(prod)
        if coords is None:
            raise InvariantViolation("subalgebra-closure",
                                     "product of basis elements %d, %d escapes the span" % (i, j))
        return {k: c for k, c in enumerate(coords) if c}

    return StructuredAlgebra(parent.field, m, mul_fn, check=check)


def _greedy_independent(field, dim, candidates, seeds=()):
    """Greedy basis extraction, deterministic in candidate order."""
    chosen = []
    rows = []
    rank = 0
    for v in list(seeds) + list(candidates):
        trial = rows + [list(v)]
        r = Matrix(field, trial).rank()
        if r > rank:
            chosen.append(v)
            rows = trial
            rank = r
    return chosen


class FiberReport:
    __slots__ = ("label", "dim", "central_simple")

    def __init__(self, label, dim, central_simple):
        self.label = label
        self.dim = dim
        self.central_simple = central_simple

    def __repr__(self):
        return "FiberReport(%s, dim=%d, cs=%s)" % (self.label, self.dim, self.central_simple)


class AzumayaReport:
    """Verdict: the algebra is Azumaya over its center exactly when the
    center is etale and every fiber is central simple."""

    __slots__ = ("etale_center", "fibers", "azumaya")

    def __init__(self, etale_center, fibers):
        self.etale_center = etale_center
        self.fibers = fibers
        self.azumaya = etale_center and all(f.central_simple for f in fibers) and bool(fibers)

    def __repr__(self):
        return "AzumayaReport(etale=%s, fibers=%r, azumaya=%s)" % (
            self.etale_center, self.fibers, self.azumaya)


def azumaya_fibers(algebra, report=None):
    """Check the algebra fiberwise over its center."""
    if report is None:
        report = center_report(algebra)
    if report.kind == "trivial":
        cs = is_central_simple(algebra, _center_dim=1)
        return AzumayaReport(True, [FiberReport("total", algebra.dim, cs)])
    if report.kind == "split":
        fibers = []
        for tag, e in zip(("plus", "minus"), report.idempotents):
            ed = algebra.dense(e)
            cands = [algebra.mul_dense(algebra.mul_dense(ed, algebra.dense({k: algebra.field.one()})), ed)
                     for k in range(algebra.dim)]
            basis = _greedy_independent(algebra.field, algebra.dim, cands, seeds=[ed])
            fiber = algebra_on_subspace(algebra, basis)
            fibers.append(FiberReport(tag, fiber.dim, is_central_simple(fiber)))
        return AzumayaReport(True, fibers)
    if report.kind == "field":
        fiber = algebra_over_quadratic_center(algebra, report)
        return AzumayaReport(True, [FiberReport("quadratic-field", fiber.dim,
                                                is_central_simple(fiber))])
    if report.kind == "dual":
        # center not etale; the reduced fiber is still informative
        fiber = quotient_by_central_nilpotent(algebra, report.z)
        return AzumayaReport(False, [FiberReport("reduced", fiber.dim,
                                                 is_central_simple(fiber))])
    return AzumayaReport(False, [])


def hyperbolic_split_structure(m, field, check="auto"):
    """Fiber decomposition of the even algebra of the split form H(m).

    The center splits into two idempotent fibers, each a central simple
    algebra of dimension (2^{m-1})^2, so the even algebra is a product
    of two matrix algebras.  Returns a dict with the verified shape.
    """
    if not 1 <= m <= 3:
        raise ValueError("split structure kept to m <= 3 hyperbolic planes")
    from .quadform import QuadraticForm
    q = QuadraticForm.hyperbolic(field, m)
    alg = even_clifford(q, check=check)
    rep = center_report(alg)
    if rep.kind != "split":
        raise InvariantViolation("hyperbolic-center-split",
                                 "center of C0(H(%d)) has kind %s" % (m, rep.kind))
    az = azumaya_fibers(alg, rep)
    want = (2 ** (m - 1)) ** 2
    for f in az.fibers:
        if f.dim != want:
            raise InvariantViolation(
                "hyperbolic-fiber-dim",
                "fiber %s has dim %d, expected %d" % (f.label, f.dim, want))
        if not f.central_simple:
            raise InvariantViolation("hyperbolic-fiber-simple",
                                     "fiber %s is not central simple" % f.label)
    if alg.dim != 2 ** (2 * m - 1):
        raise InvariantViolation("hyperbolic-total-dim",
                                 "dim C0(H(%d)) = %d" % (m, alg.dim))
    return {
        "planes": m,
        "center": "split",
        "fiber_dims": tuple(f.dim for f in az.fibers),
        "fibers_central_simple": True,
        "total_dim": alg.dim,
    }


def algebra_over_quadratic_center(algebra, report):
    """View the algebra as an algebra over its quadratic field center."""
    field = algebra.field
    if field.characteristic == 2:
        raise NotImplementedError("quadratic center refolding in characteristic 2")
    delta = report.delta
    ext = ExtensionField(field, Poly(field, "x", (-delta, field.zero(), field.one())))
    zd = algebra.dense(report.z)
    one = field.one()
    # greedy basis over the center: candidates e_k, paired with z e_k
    chosen = []
    rows = []
    rank = 0
    for k in range(algebra.dim):
        v = algebra.dense({k: one})
        zv = algebra.mul_dense(zd, v)
        trial = rows + [list(v)]
        if Matrix(field, trial).rank() > rank:
            chosen.append(v)
            rows = trial + [list(zv)]
            rank = Matrix(field, rows).rank()
    if 2 * len(chosen) != algebra.dim:
        raise InvariantViolation("center-refolding",
                                 "center-module basis has wrong size %d" % len(chosen))
    # coordinate solve: columns alternate v_i, z v_i
    cols = []
    for v in chosen:
        cols.append(v)
        cols.append(algebra.mul_dense(zd, v))
    coord = Matrix(field, [[cols[j][i] for j in range(len(cols))] for i in range(algebra.dim)])

    def mul_fn(i, j):
        prod = algebra.mul_dense(chosen[i], chosen[j])
        coords = coord.solve(prod)
        if coords is None:
            raise InvariantViolation("center-refolding", "product escapes the module span")
        out = {}
        for k in range(len(chosen)):
            a, b = coords[2 * k], coords[2 * k + 1]
            if a or b:
                out[k] = ExtElem(ext, (a, b))  # the element a + b z
        return out

    return StructuredAlgebra(ext, len(chosen), mul_fn, check="auto")


def quotient_by_central_nilpotent(algebra, z):
    """A / zA for a central nilpotent z (dual-numbers degeneration)."""
    field = algebra.field
    one = field.one()
    zd = algebra.dense(z)
    ideal = [algebra.mul_dense(zd, algebra.dense({k: one})) for k in range(algebra.dim)]
    ideal_rows = [list(v) for v in ideal if any(v)]
    # greedy complement, unit first (the unit never lies in zA)
    comp = []
    rows = list(ideal_rows)
    rank = Matrix(field, rows).rank() if rows else 0
    for k in range(algebra.dim):
        v = algebra.dense({k: one})
        trial = rows + [list(v)]
        r = Matrix(field, trial).rank()
        if r > rank:
            comp.append(v)
            rows = trial
            rank = r
    full = Matrix(field, [[row[i] for row in (ideal_rows + [list(c) for c in comp])]
                          for i in range(algebra.dim)])
    n_ideal = len(ideal_rows)

    def project(v):
        coords = full.solve(v)
        if coords is None:
            raise InvariantViolation("nilpotent-quotient", "vector escapes the span")
        out = [field.zero()] * algebra.dim
        for j, c in enumerate(coords[n_ideal:]):
            if c:
                for i in range(algebra.dim):
                    if comp[j][i]:
                        out[i] = out[i] + c * comp[j][i]
        return tuple(out)

    return algebra_on_subspace(algebra, comp, project=project)
