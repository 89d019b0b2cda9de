"""Even Clifford algebra of H | q' as a matrix algebra over that of q'.

Splitting one hyperbolic plane off a quadratic form replaces its even
Clifford algebra by a Morita-equivalent one (Kuznetsov, Derived
categories of quadric fibrations and intersections of quadrics, Adv.
Math. 2008).  Write the ambient form as H | q' on coordinates
(e0, e1 | e2, ..., e_{n-1}) with q(e0) = q(e1) = 0 and b(e0, e1) = 1.
The full Clifford algebra of q', acted on from the right by its own
even part, is a module P whose even and odd summands carry the ambient
even algebra as matrices: e0 e1 projects onto the even summand, pairs
of complement generators act by left Clifford multiplication, and for
a complement generator e_j, e1 e_j sends the even summand into the odd
one by left multiplication with e_j while e0 e_j sends the odd summand
back with a sign.

morita_witness certifies that this is an isomorphism from the even
algebra of H | q' onto End(P), with exact arithmetic on explicit bases:

* the images of the generator pairs are written down as above, and the
  image of every other even basis element is the product of the images
  of its consecutive generator pairs;
* the map is multiplicative on all pairs of even basis elements;
* End(P) is solved as the matrices commuting with the right action, and
  every image lies in it;
* the images are linearly independent, so the map is injective;
* both sides have the same dimension, so the map is onto.

The right action itself is checked unital and associative when P is
built.  A complement that is identically zero is refused up front: the
theorem needs a vector v with q'(v) != 0, and without one the map above
is not an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import (
    InvariantViolation,
    Matrix,
    PrimeField,
    SpanSolver,
    kernel_basis_mod_p,
)
from .quadform import QuadraticForm
from .clifford import StructuredAlgebra, full_clifford


def _even(mask):
    return bin(mask).count("1") % 2 == 0


@dataclass
class RightModule:
    """C(q') with the right action of its own even part."""

    qp: QuadraticForm
    cp: object
    dim: int
    even_idx: list
    parity: list
    action: list  # one dim x dim matrix (tuple of row tuples) per even_idx


def build_P(qp, check="auto"):
    """The rank-two right module over the even algebra of q'."""
    if qp.n > 4:
        raise ValueError("module machinery kept to rank <= 4 so the"
                         " endomorphism systems stay at 256 unknowns")
    cp = full_clifford(qp, check=check)
    field = qp.field
    z, one = field.zero(), field.one()
    even_idx = [i for i, m in enumerate(cp.masks) if _even(m)]
    parity = [0 if _even(m) else 1 for m in cp.masks]
    dim = cp.dim
    action = []
    for a in even_idx:
        cols = [cp.mul_basis(b, a) for b in range(dim)]
        action.append(tuple(tuple(cols[b].get(i, z) for b in range(dim))
                            for i in range(dim)))
    # unital
    unit_pos = even_idx.index(cp.mask_index[0])
    ident = tuple(tuple(one if i == j else z for j in range(dim)) for i in range(dim))
    if action[unit_pos] != ident:
        raise InvariantViolation("module-unital", "unit does not act as identity")
    # associativity of the action on basis triples: x.(ab) == (x.a).b
    for apos, a in enumerate(even_idx):
        for bpos, b in enumerate(even_idx):
            ab = cp.mul_basis(a, b)
            for x in range(dim):
                lhs = cp.mul_elem(cp.mul_basis(x, a), {b: one})
                rhs = cp.mul_elem({x: one}, ab)
                if lhs != rhs:
                    raise InvariantViolation(
                        "module-associative",
                        "right action fails associativity at (%d, %s, %s)"
                        % (x, cp.labels[a], cp.labels[b]))
    return RightModule(qp=qp, cp=cp, dim=dim, even_idx=even_idx,
                       parity=parity, action=action)


def _flat(mat):
    return [e for row in mat for e in row]


def _commuting_matrices(field, dim, mats):
    """Basis of {X : X M = M X for every M in mats} inside gl(dim).

    Over a prime field the constraints X M - M X = 0 are stacked as one
    integer matrix via Kronecker products, row-major flattening of X:
    vec(X M) = (I (x) M^T) vec(X) and vec(M X) = (M (x) I) vec(X).
    Other fields fall back to an incremental kernel intersection.
    """
    n2 = dim * dim
    if isinstance(field, PrimeField):
        import numpy as np
        p = field.p
        ident = np.eye(dim, dtype=np.int64)
        blocks = []
        for m in mats:
            a = np.array([[int(e.v) for e in row] for row in m], dtype=np.int64)
            blocks.append((np.kron(ident, a.T) - np.kron(a, ident)) % p)
        stacked = np.concatenate(blocks, axis=0) if blocks else np.zeros((0, n2), dtype=np.int64)
        combos = kernel_basis_mod_p([list(r) for r in stacked], p)
        out = []
        for combo in combos:
            out.append(tuple(tuple(field.from_int(int(combo[i * dim + j]))
                                   for j in range(dim)) for i in range(dim)))
        return out

    one = field.one()
    zero = field.zero()

    def commutator_rows(cand_flat, m):
        # rows of X M - M X for X given flat, as one flat vector
        x = [cand_flat[i * dim:(i + 1) * dim] for i in range(dim)]
        out = []
        for i in range(dim):
            for j in range(dim):
                acc = zero
                for k in range(dim):
                    if x[i][k] and m[k][j]:
                        acc = acc + x[i][k] * m[k][j]
                    if m[i][k] and x[k][j]:
                        acc = acc - m[i][k] * x[k][j]
                out.append(acc)
        return out

    cands = []
    for pos in range(n2):
        v = [zero] * n2
        v[pos] = one
        cands.append(v)
    for m in mats:
        images = [commutator_rows(c, m) for c in cands]
        mat = Matrix(field, [[images[c][r] for c in range(len(cands))]
                             for r in range(n2)])
        combos = mat.kernel_basis()
        new = []
        for combo in combos:
            vec = [zero] * n2
            for cpos, coef in enumerate(combo):
                if coef:
                    vec = [a + coef * b for a, b in zip(vec, cands[cpos])]
            new.append(vec)
        cands = new
        if not cands:
            break
    return [tuple(tuple(c[i * dim + j] for j in range(dim)) for i in range(dim))
            for c in cands]


def endomorphism_algebra(P, check="auto"):
    """Solve f(x . a) = f(x) . a blindly and package the solutions.

    Returns (algebra, basis_mats) where basis_mats[k] is the matrix of
    the k-th basis endomorphism (unit first) and algebra multiplies by
    composition.
    """
    field = P.qp.field
    dim = P.dim
    sols = _commuting_matrices(field, dim, P.action)
    if not sols:
        raise InvariantViolation("endomorphisms", "no endomorphisms found, not even 1")
    one, zero = field.one(), field.zero()
    ident = tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim))
    basis = _unit_first_basis(field, ident, sols)
    if len(basis) != 2 * P.dim:
        # dim End = 4 . dim C0(q') = dim C0(H | q'), whatever the radical
        raise InvariantViolation(
            "endomorphism-dimension",
            "solved dim %d, expected %d" % (len(basis), 2 * P.dim))
    return _package_end(field, dim, basis, check), basis


def _unit_first_basis(field, ident, sols):
    """Independent subset of sols re-rooted at the identity matrix."""
    basis = [ident]
    pivots = {}  # pivot position -> row, kept in full reduced form

    def insert(vec):
        vec = list(vec)
        for pos, prow in pivots.items():
            if vec[pos]:
                f = vec[pos]
                vec = [a - f * b for a, b in zip(vec, prow)]
        lead = next((i for i, e in enumerate(vec) if e), None)
        if lead is None:
            return False
        inv = field.one() / vec[lead]
        vec = [inv * a for a in vec]
        for pos, prow in pivots.items():
            if prow[lead]:
                f = prow[lead]
                pivots[pos] = [a - f * b for a, b in zip(prow, vec)]
        pivots[lead] = vec
        return True

    insert(_flat(ident))
    for s in sols:
        if insert(_flat(s)):
            basis.append(s)
    return basis


def _package_end(field, dim, basis, check):
    solver = SpanSolver(field, [_flat(b) for b in basis])

    def mul_fn(i, j):
        a, b = basis[i], basis[j]
        prod = {}
        for r in range(dim):
            arow = a[r]
            for k in range(dim):
                if arow[k]:
                    brow = b[k]
                    for c in range(dim):
                        if brow[c]:
                            pos = r * dim + c
                            s = prod.get(pos, field.zero()) + arow[k] * brow[c]
                            if s:
                                prod[pos] = s
                            elif pos in prod:
                                del prod[pos]
        coords = solver.solve_sparse(prod)
        if coords is None:
            raise InvariantViolation("endomorphism-closure",
                                     "composition escapes the solved space")
        return {k: c for k, c in enumerate(coords) if c}

    return StructuredAlgebra(field, len(basis), mul_fn, check=check)


def _matmul(field, a, b):
    dim = len(a)
    z = field.zero()
    out = []
    for i in range(dim):
        arow = a[i]
        row = [z] * dim
        for k in range(dim):
            if arow[k]:
                f = arow[k]
                brow = b[k]
                for j in range(dim):
                    if brow[j]:
                        row[j] = row[j] + f * brow[j]
        out.append(tuple(row))
    return tuple(out)


def _scale_mat(field, c, a):
    return tuple(tuple(c * e for e in row) for row in a)


@dataclass(frozen=True)
class MoritaWitness:
    """Verified isomorphism from the ambient even algebra onto End(P)."""

    rest: QuadraticForm
    ambient: QuadraticForm
    dim_even: int
    dim_end: int
    matches_power_formula: bool
    matrix: tuple  # rows = coordinates of each even-basis image in the End basis
    checks: tuple

    def __repr__(self):
        return "MoritaWitness(rest_rank=%d, dim_even=%d, dim_end=%d, checks=%d)" % (
            self.rest.n, self.dim_even, self.dim_end, len(self.checks))


def morita_witness(qp, check="auto"):
    """Build H | q', map its even algebra into End(P) block by block,
    and certify that the map is an isomorphism.

    The generator images: e0 e1 projects onto the even summand, pairs of
    complement generators act by left Clifford multiplication on both
    summands, e1 e~_j sends the even summand into the odd one by left
    multiplication with e_j, and e0 e~_j sends the odd summand back with
    a sign.  Every other basis element is the product of its consecutive
    generator pairs, so its image is the corresponding matrix product.
    """
    if not any(c for row in qp.c for c in row):
        raise ValueError("complement form is identically zero; nothing to certify")
    field = qp.field
    q = QuadraticForm.hyperbolic(field, 1).direct_sum(qp)
    P = build_P(qp, check=check)
    end_mats = endomorphism_algebra(P, check=check)[1]
    cp = P.cp
    dim = P.dim
    z, one = field.zero(), field.one()
    checks = []

    C = full_clifford(q, check=check)
    even_idx = [i for i, m in enumerate(C.masks) if _even(m)]

    def left_mult_matrix(y):
        # matrix of x -> y . x on C(q') for a sparse element y
        cols = []
        for b in range(dim):
            cols.append(cp.mul_elem(y, {b: one}))
        return tuple(tuple(cols[b].get(i, z) for b in range(dim))
                     for i in range(dim))

    def pair_image(i, j):
        # image of the ambient generator e_i e_j (i < j)
        if (i, j) == (0, 1):
            return tuple(tuple(one if (r == c and P.parity[r] == 0) else z
                               for c in range(dim)) for r in range(dim))
        if i == 0:  # e0 e~_j: odd summand -> even, with a sign; kills even
            base = left_mult_matrix({cp.mask_index[1 << (j - 2)]: -one})
            return tuple(tuple(base[r][c] if P.parity[c] == 1 else z
                               for c in range(dim)) for r in range(dim))
        if i == 1:  # e1 e~_j: even summand -> odd; kills odd
            base = left_mult_matrix({cp.mask_index[1 << (j - 2)]: one})
            return tuple(tuple(base[r][c] if P.parity[c] == 0 else z
                               for c in range(dim)) for r in range(dim))
        mask = (1 << (i - 2)) | (1 << (j - 2))
        return left_mult_matrix({cp.mask_index[mask]: one})

    ident = tuple(tuple(one if r == c else z for c in range(dim)) for r in range(dim))
    images = []
    for pos in even_idx:
        mask = C.masks[pos]
        bits = [b for b in range(q.n) if mask >> b & 1]
        img = ident
        for k in range(0, len(bits), 2):
            img = _matmul(field, img, pair_image(bits[k], bits[k + 1]))
        images.append(img)

    unit_pos = even_idx.index(C.mask_index[0])
    if images[unit_pos] != ident:
        raise InvariantViolation("witness-unit", "unit image is not the identity")
    checks.append("unit-preserved")

    # multiplicativity on every pair of basis elements
    pos_in_even = {p: k for k, p in enumerate(even_idx)}
    for ka, a in enumerate(even_idx):
        for kb, b in enumerate(even_idx):
            prod = C.mul_basis(a, b)
            expect = None
            for u, cu in prod.items():
                term = _scale_mat(field, cu, images[pos_in_even[u]])
                expect = term if expect is None else tuple(
                    tuple(x + y for x, y in zip(r1, r2))
                    for r1, r2 in zip(expect, term))
            if expect is None:
                expect = tuple(tuple(z for _ in range(dim)) for _ in range(dim))
            got = _matmul(field, images[ka], images[kb])
            if got != expect:
                raise InvariantViolation(
                    "witness-multiplicative",
                    "images of %s and %s do not compose to the image of their product"
                    % (C.labels[a], C.labels[b]))
    checks.append("multiplicative-on-all-pairs")

    # bijectivity onto the solved endomorphism algebra
    solver = SpanSolver(field, [_flat(m) for m in end_mats])
    rows = []
    for img in images:
        coords = solver.solve_sparse(
            {p: e for p, e in enumerate(_flat(img)) if e})
        if coords is None:
            raise InvariantViolation("witness-into-end",
                                     "an image is not an endomorphism")
        rows.append(coords)
    checks.append("lands-in-endomorphism-algebra")
    if Matrix(field, [list(r) for r in rows]).rank() != len(even_idx):
        raise InvariantViolation("witness-injective", "the candidate map has a kernel")
    checks.append("injective")
    if len(even_idx) != len(end_mats):
        raise InvariantViolation(
            "witness-dimension",
            "dim C0 = %d but dim End = %d" % (len(even_idx), len(end_mats)))
    checks.append("dimensions-match-hence-bijective")

    return MoritaWitness(
        rest=qp,
        ambient=q,
        dim_even=len(even_idx),
        dim_end=len(end_mats),
        matches_power_formula=(len(end_mats) == 2 ** (qp.regular_rank() + 1)),
        matrix=tuple(rows),
        checks=tuple(checks),
    )
