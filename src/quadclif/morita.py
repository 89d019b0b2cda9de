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

The right action is read off the structure tensor of C(q'), whose
construction (full_clifford) has already proved that tensor unital and,
at the ranks build_P allows, associative on every triple: those are the
module axioms, so P is not checked again.  A complement that is
identically zero is refused up front: the theorem needs a vector v with
q'(v) != 0, and without one the map above is not an isomorphism.

How End(P) is solved.  X commutes with the right action exactly when it
commutes with the degree-2 elements e_i e_j, which generate the even
algebra.  Each of them preserves the Z/2 grading of P (checked at run
time, InvariantViolation "module-grading"), so the commuting condition
splits into one independent linear system per parity block of X, each
with a quarter of the unknowns, stacked from Kronecker products and
solved by rings.coded_kernel on the package's one single-matrix
elimination, rings.coded_rref.  Merged by
free position, the block kernels give exactly the reduced echelon
kernel basis of the full system, so the End basis does not depend on
the splitting.

All matrix work runs on coded numpy arrays (rings.ArrayCoding): int64
residues over F_p; over Q int64 integers when the structure tensors are
numeric, and otherwise object arrays, where rationals are Python ints
when integral and Fractions otherwise, as are the elements of other
fields.  The structure constants are read as slices of the algebras'
dense structure tensors (StructuredAlgebra.table).  Products run in
float64 where a bound proves them exact (ArrayCoding.matmul), and the
multiplicativity defects are two such products.  Where products would
mix in Fractions, the checks first scale a whole stack of matrices by
one common denominator, so they run on integers.  Over Q the End basis
is kept as coded_kernel returns it, primitive integer matrices with one
scale each, from the solve to the bijectivity check; only the
coordinates of the images are scaled back, and field elements are
decoded only for the witness matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import ArrayCoding, InvariantViolation, coded_kernel, coded_rref
from .quadform import QuadraticForm
from .clifford import even_clifford, full_clifford


def _even(mask):
    return bin(mask).count("1") % 2 == 0


@dataclass
class RightModule:
    """C(q') with the right action of its own even part."""

    qp: QuadraticForm
    cp: object
    coding: ArrayCoding
    dim: int
    even_idx: list
    parity: list
    # coded array, one dim x dim matrix per even_idx: action[k][i][b] is
    # the coefficient of e_i in e_b e_a for a = even_idx[k]
    action: object


def _product_defects(coding, mats, coefs):
    """Where the multiplicativity defects are nonzero, one boolean matrix
    per pair (a, b) in row-major order.  The defect of a pair is mats[a]
    mats[b] minus sum_u coefs[a, b, u] mats[u], where coefs[a, b] codes
    the product of the two basis elements behind mats[a] and mats[b] in
    the basis behind mats; the map is multiplicative on a pair exactly
    when its defect is zero.
    Over Q the matrices are first scaled by one common denominator d, so
    that the products run on integers; every defect is then d^2 times
    its value.  Both terms are products (ArrayCoding.matmul), in float64
    on integer arrays whose bounds prove them exact, over blocks of pairs
    that keep every array near 2^16 entries.
    """
    import numpy as np

    ints, den = coding.integral(mats)
    k = len(ints)
    flat, coefs = ints.reshape(k, -1), den * coefs.reshape(k, k * k)
    step = max(1, (1 << 16) // (k * flat.shape[1]))
    out = []
    for lo in range(0, k, step):
        part = ints[lo:lo + step, None]
        got = coding.matmul(part, ints[None])
        spans = coding.matmul(coefs[lo:lo + step].reshape(-1, k), flat)
        out.append(coding.reduce(got.reshape(spans.shape) - spans) != 0)
    return np.concatenate(out).reshape((k * k,) + mats.shape[1:])


def build_P(qp):
    """The rank-two right module over the even algebra of q': C(q'),
    where an even basis element a sends a basis element b to T[b, a, :],
    T the structure tensor of C(q')."""
    # rank <= 4 keeps the endomorphism systems at 256 unknowns and C(q')
    # at dimension <= 16, where full_clifford's verify_associativity checks
    # every triple, (x, a, b) with a, b even among them, and _verify_unit
    # has checked T[:, 0] = I: the module axioms rest on those checks
    if qp.n > 4:
        raise ValueError("module machinery kept to rank <= 4 so the"
                         " endomorphism systems stay at 256 unknowns")
    import numpy as np

    cp = full_clifford(qp)
    coding = cp.coding
    even_idx = [i for i, m in enumerate(cp.masks) if _even(m)]
    parity = [0 if _even(m) else 1 for m in cp.masks]
    dim = cp.dim
    # action[k, i, b] = T[b, even_idx[k], i]
    action = np.ascontiguousarray(
        cp.table.astype(cp.work_dtype)[:, even_idx].transpose(1, 2, 0))
    return RightModule(qp=qp, cp=cp, coding=coding, dim=dim, even_idx=even_idx,
                       parity=parity, action=action)


def _commutant(coding, parity, gens):
    """Canonical basis of {X : X M = M X for every M in gens} in gl(dim).

    The constraints on X, flattened row-major, stack via Kronecker
    products: vec(X M) = (I (x) M^T) vec(X), vec(M X) = (M (x) I) vec(X).
    Every M preserves the Z/2 grading given by parity (checked here), so
    the system splits into the four parity blocks X_st of X, each solved
    on its own with a quarter of the unknowns.  Equation (i, j) involves
    only the block of (parity i, parity j), so the full system is block
    diagonal up to a permutation, its pivot columns are the union of the
    blocks' pivot columns, and its reduced echelon kernel basis is the
    union of the blocks' kernel bases, ordered by free position.
    Returns (free positions, stacked solutions, scales): the basis is
    the solutions divided by their scales, which are 1 except over Q,
    where each solution is a primitive integer matrix (coded_kernel).
    """
    import numpy as np

    dim = len(parity)
    parts = [np.flatnonzero(np.array(parity) == s) for s in (0, 1)]
    for m in gens:
        for s, t in ((0, 1), (1, 0)):
            if np.count_nonzero(coding.reduce(m[np.ix_(parts[s], parts[t])])):
                raise InvariantViolation(
                    "module-grading",
                    "the right action sends part of the %s summand to the %s one"
                    % (("even", "odd")[t], ("even", "odd")[s]))
    found = []
    for rows in parts:
        for cols in parts:
            a, b = len(rows), len(cols)
            eqs = [np.kron(np.eye(a, dtype=m.dtype), m[np.ix_(cols, cols)].T)
                   - np.kron(m[np.ix_(rows, rows)], np.eye(b, dtype=m.dtype)) for m in gens]
            system = coding.reduce(np.concatenate(eqs)) if eqs else coding.zeros((0, a * b))
            free, kernel, scales = coded_kernel(coding, system)
            for f, vec, scale in zip(free, kernel, scales):
                x = np.zeros((dim, dim), dtype=kernel.dtype)
                x[np.ix_(rows, cols)] = vec.reshape(a, b)
                found.append((int(rows[f // b]) * dim + int(cols[f % b]), x, scale))
    found.sort(key=lambda fxs: fxs[0])
    free, sols, scales = zip(*found)
    return list(free), np.stack(sols), np.array(scales, dtype=object)


def endomorphism_algebra(P):
    """Solve f(x . a) = f(x) . a blindly for a basis of End(P).

    Returns (matrices, scales): the k-th basis endomorphism, unit first,
    is the k-th coded matrix divided by its scale (1 except over Q).
    Commuting with the degree-2 elements e_i e_j, which generate the even
    algebra, is commuting with all of it.  Closure under composition is not checked here:
    morita_witness proves it, since the images of C0 multiply like C0
    and span this basis.
    """
    coding = P.coding
    gens = P.action[[k for k, a in enumerate(P.even_idx)
                     if bin(P.cp.masks[a]).count("1") == 2]]
    basis, scales = _unit_first_basis(coding, *_commutant(coding, P.parity, gens))
    if len(basis) != 2 * P.dim:
        # dim End = 4 . dim C0(q') = dim C0(H | q'), whatever the radical
        raise InvariantViolation(
            "endomorphism-dimension",
            "solved dim %d, expected %d" % (len(basis), 2 * P.dim))
    return basis, scales


def _unit_first_basis(coding, free, sols, scales):
    """The identity, then the solutions minus the one it replaces, with
    their scales.

    sols / scales is a reduced echelon basis, so the coordinates of any
    Y in its span are the entries of Y at the free positions.  The
    identity has coordinates c in {0, 1}; the solution dropped is the
    last one with c_k = 1, as inserting the identity first and then
    every independent solution in order would drop.  Over Q the span
    check runs on integers: the identity times the lcm L of the scales
    involved is the sum of the solutions with c_k = 1, each times L over
    its scale.
    """
    import numpy as np

    dim = sols.shape[1]
    ident = np.eye(dim, dtype=sols.dtype)
    c = ident.reshape(-1)[free]
    nz = np.flatnonzero(c)
    lcm = np.lcm.reduce(scales[nz], initial=1)
    if not coding.equal((lcm // scales[nz]) @ sols.reshape(len(sols), -1)[nz],
                        lcm * ident.reshape(-1)):
        raise InvariantViolation("endomorphism-unit",
                                 "the identity is not among the solved endomorphisms")
    drop = int(nz[-1])
    return (np.concatenate([ident[None], np.delete(sols, drop, axis=0)]),
            np.concatenate([[1], np.delete(scales, drop)]))


def _solve_rows(coding, basis, ys):
    """Coordinates of each row of ys in the independent rows of basis,
    or None when some row of ys is outside their span: one elimination
    of the augmented system [basis^T | ys^T]."""
    import numpy as np

    n = len(basis)
    red, pivots = coded_rref(coding, np.concatenate([basis, ys]).T)
    if pivots != list(range(n)):
        return None
    return red[:, n:].T


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


def _pair_images(P, n):
    """{(i, j): image of the ambient generator pair e_i e_j}, i < j < n.

    e0 e1 projects onto the even summand, pairs of complement generators
    act by left Clifford multiplication on both summands, e1 e~_j sends
    the even summand into the odd one by left multiplication with e_j,
    and e0 e~_j sends the odd summand back with a sign.
    """
    import numpy as np

    cp, coding = P.cp, P.coding
    odd = np.array(P.parity) == 1

    def left_mult(mask, sign=1):
        # matrix of x -> sign e_mask . x on C(q'): m[i, b] = T[mask, b, i]
        m = cp.table[cp.mask_index[mask]].T.astype(cp.work_dtype)
        return m if sign == 1 else coding.reduce(-m)

    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) == (0, 1):
                img = np.eye(P.dim, dtype=cp.work_dtype)
                img[:, odd] = 0
            elif i == 0:  # e0 e~_j: odd summand -> even, with a sign; kills even
                img = left_mult(1 << (j - 2), -1)
                img[:, ~odd] = 0
            elif i == 1:  # e1 e~_j: even summand -> odd; kills odd
                img = left_mult(1 << (j - 2))
                img[:, odd] = 0
            else:
                img = left_mult((1 << (i - 2)) | (1 << (j - 2)))
            pairs[i, j] = img
    return pairs


def morita_witness(qp):
    """Build the even algebra of H | q', map it into End(P) block by block,
    and certify that the map is an isomorphism.

    The generator pairs go to the matrices of _pair_images.  Every other
    basis element is the product of its consecutive generator pairs, so
    its image is the corresponding matrix product.  The End basis and
    the images stay integer matrices over Q (int64 where the table is
    numeric); the coordinates of an image in the End basis are then
    scaled back by the basis scales.
    """
    if not any(c for row in qp.c for c in row):
        raise ValueError("complement form is identically zero; nothing to certify")
    import numpy as np

    field = qp.field
    q = QuadraticForm.hyperbolic(field, 1).direct_sum(qp)
    P = build_P(qp)
    end_mats, end_scales = endomorphism_algebra(P)
    coding, dim = P.coding, P.dim
    checks = []

    C = even_clifford(q)  # basis: the even masks ascending, the unit first

    # the image of a mask is the pair of its two lowest bits times the
    # image of the rest, one stacked product per popcount
    pairs = _pair_images(P, q.n)
    ident = np.eye(dim, dtype=end_mats.dtype)
    image_of = {0: ident}
    for size in range(2, q.n + 1, 2):
        masks = [m for m in C.masks if bin(m).count("1") == size]
        lows = [[b for b in range(q.n) if m >> b & 1][:2] for m in masks]
        prods = coding.matmul(np.stack([pairs[i, j] for i, j in lows]),
                              np.stack([image_of[m ^ (1 << i | 1 << j)]
                                        for m, (i, j) in zip(masks, lows)]))
        image_of.update(zip(masks, prods))
    images = np.stack([image_of[m] for m in C.masks])

    if not coding.equal(images[0], ident):
        raise InvariantViolation("witness-unit", "unit image is not the identity")
    checks.append("unit-preserved")

    # multiplicativity on every pair of basis elements, all pairs at once
    n_even = C.dim
    defects = _product_defects(coding, images, C.table.astype(C.work_dtype))
    bad = np.flatnonzero(np.count_nonzero(defects.reshape(len(defects), -1), axis=1))
    if bad.size:
        ka, kb = divmod(int(bad[0]), n_even)
        raise InvariantViolation(
            "witness-multiplicative",
            "images of %s and %s do not compose to the image of their product"
            % (C.labels[ka], C.labels[kb]))
    checks.append("multiplicative-on-all-pairs")

    # bijectivity onto the solved endomorphism algebra
    rows = _solve_rows(coding, end_mats.reshape(len(end_mats), -1), images.reshape(n_even, -1))
    if rows is None:
        raise InvariantViolation("witness-into-end",
                                 "an image is not an endomorphism")
    checks.append("lands-in-endomorphism-algebra")
    if coding.field.kind == "rationals":  # coordinates in the basis end_mats / end_scales
        rows = np.frompyfunc(coding.code, 1, 1)(rows * end_scales)
    if len(coded_rref(coding, rows)[1]) != n_even:
        raise InvariantViolation("witness-injective", "the candidate map has a kernel")
    checks.append("injective")
    if n_even != len(end_mats):
        raise InvariantViolation(
            "witness-dimension",
            "dim C0 = %d but dim End = %d" % (n_even, len(end_mats)))
    checks.append("dimensions-match-hence-bijective")

    return MoritaWitness(
        rest=qp,
        ambient=q,
        dim_even=n_even,
        dim_end=len(end_mats),
        matches_power_formula=(len(end_mats) == 2 ** (qp.regular_rank() + 1)),
        matrix=tuple(tuple(coding.decode(e) for e in row) for row in rows),
        checks=tuple(checks),
    )
