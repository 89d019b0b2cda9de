"""Even Clifford construction, centers, central simplicity, Peirce fibers."""

import gc
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import clifford_words
import gauss_jordan
from quadclif import clifford
from quadclif.clifford import (
    CenterReport,
    StructuredAlgebra,
    algebra_on_subspace,
    center_basis,
    center_report,
    even_center_report,
    even_clifford,
    full_clifford,
    hyperbolic_split_structure,
    inject_fault,
    is_central_simple,
    split_fibers,
    verify_orthogonal_sum,
)
from quadclif.quadform import QuadraticForm
from quadclif.rings import QQ, InvariantViolation, PrimeField, quadratic_extension

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
F65521 = PrimeField(65521)


def test_dimensions_and_labels():
    for n in range(1, 8):
        q = QuadraticForm.diagonal(F3, [1] * n)
        a = even_clifford(q)
        assert a.dim == 2 ** (n - 1)
        assert a.labels[0] == "1"
    q = QuadraticForm.diagonal(QQ, [1, 1, 1])
    c = full_clifford(q)
    assert c.dim == 8


def test_rank_bounds_rejected():
    with pytest.raises(ValueError):
        even_clifford(QuadraticForm.diagonal(F3, [1] * 8))


def test_quaternion_example():
    # <1,1,1> gives (e12)^2 = (e13)^2 = -1, so the (-1,-1) quaternions
    a = even_clifford(QuadraticForm.diagonal(QQ, [1, 1, 1]))
    i12 = a.mask_index[0b011]
    i13 = a.mask_index[0b101]
    minus_one = {0: Fraction(-1)}
    assert a.mul_basis(i12, i12) == minus_one
    assert a.mul_basis(i13, i13) == minus_one
    # anticommute, on coded vectors
    x = a.mul(a.coding.eye(a.dim)[i12], a.coding.eye(a.dim)[i13])
    y = a.mul(a.coding.eye(a.dim)[i13], a.coding.eye(a.dim)[i12])
    assert np.count_nonzero(x) == 1 and a.coding.equal(x, -y)
    assert is_central_simple(a)


def test_top_element_square_sign_formula():
    # (e_1 ... e_n)^2 = (-1)^(n(n-1)/2) prod q_i for diagonal forms
    rng = random.Random(2)
    for _ in range(12):
        n = rng.randint(1, 5)
        entries = [rng.choice([1, 2, 3, -1, -2]) for _ in range(n)]
        q = QuadraticForm.diagonal(QQ, entries)
        c = full_clifford(q)
        top = (1 << n) - 1
        got = c.mask_mul(top, top)
        want = Fraction((-1) ** (n * (n - 1) // 2))
        for e in entries:
            want *= e
        assert got == ({0: want} if want else {})


def _exhaustively_associative(a):
    """Reference check of (e_i e_j) e_k = e_i (e_j e_k) on every triple:
    two einsums on the structure tensor per i, in float64, which is exact
    while dim * bound^2 stays below 2^53."""
    d, p = a.dim, a.field.characteristic
    assert a.bound is not None and d * a.bound ** 2 < 1 << 53
    t = a.table.astype(np.float64)
    for i in range(d):
        left = np.einsum("ju,ukw->jkw", t[i], t, optimize=True)
        right = np.einsum("jkv,vw->jkw", t, t[i], optimize=True)
        diff = (left - right).astype(np.int64)
        if np.count_nonzero(diff % p if p else diff):
            return False
    return True


def test_full_associativity_at_dim_32():
    # above dimension 16 construction checks a sample of triples; the
    # reference checks all of them, for one rank-6 even algebra per field
    for field, entries in ((F3, [1, 2, 1, 1, 2, 2]), (F5, [1, 1, 2, 3, 1, 4])):
        a = even_clifford(QuadraticForm.diagonal(field, entries))
        assert a.dim == 32 and _exhaustively_associative(a)


@pytest.mark.parametrize("field", [F3, QQ], ids=lambda f: f.label())
def test_full_associativity_at_dim_64(field):
    # even rank 7 and full rank 6, with cross terms
    rng = random.Random("assoc64/%s" % field.label())
    for build, n in ((even_clifford, 7), (full_clifford, 6)):
        q = QuadraticForm.of_ints(field, [[rng.randint(-2, 2) if j >= i else 0
                                           for j in range(n)] for i in range(n)])
        a = build(q)
        assert a.dim == 64 and _exhaustively_associative(a)


F9 = quadratic_extension(F3)


@pytest.mark.parametrize("field, rows", [
    (F2, [[1, 1, 0], [0, 1, 1], [0, 0, 0]]),
    (F3, [[1, 2, 1], [0, 2, 0], [0, 0, 1]]),
    (QQ, [[Fraction(1, 2), 3, 0], [0, -1, Fraction(2, 3)], [0, 0, Fraction(5, 4)]]),
    (F9, [[F9.gen(), 1, 0], [0, 2, F9.gen() + 1], [0, 0, 1]]),
], ids=["F2", "F3", "Q", "F9"])
def test_generator_relations_for_every_code_shape(field, rows):
    # residues over F_p, Fractions over Q, field elements over F9: the
    # decoded table satisfies e_i^2 = q(e_i), e_i e_j + e_j e_i = b(e_i, e_j)
    q = QuadraticForm(field, [[field.from_int(x) if isinstance(x, int) else x for x in row]
                              for row in rows])
    c = full_clifford(q)
    for i in range(q.n):
        ei = c.mask_index[1 << i]
        want = q.coeff(i, i)
        assert c.mul_basis(ei, ei) == ({0: want} if want else {})
        for j in range(i + 1, q.n):
            ej = c.mask_index[1 << j]
            ij, ji = c.mul_basis(ei, ej), c.mul_basis(ej, ei)
            sym = {k: ij.get(k, 0) + ji.get(k, 0) for k in set(ij) | set(ji)}
            want = q.coeff(i, j)
            assert {k: v for k, v in sym.items() if v} == ({0: want} if want else {})


@pytest.mark.parametrize("build", [even_clifford, full_clifford])
@pytest.mark.parametrize("field", [QQ, F3], ids=lambda f: f.label())
def test_algebra_freed_by_reference_counting(build, field):
    # no reference cycle through the algebra: without the cyclic
    # collector, dropping the last reference frees it
    gc.disable()
    try:
        a = build(QuadraticForm.diagonal(field, [1, 2, 1]))
        ref = weakref.ref(a)
        del a
        assert ref() is None
    finally:
        gc.enable()


def test_unit_check_catches_bad_table():
    # every product is the unit: e_1 e_0 = e_0, not e_1
    table = np.zeros((2, 2, 2), dtype=object)
    table[:, :, 0] = 1
    with pytest.raises(InvariantViolation, match="algebra-unit"):
        StructuredAlgebra(QQ, table)


def test_fault_injection_is_caught_and_clears():
    inject_fault("clifford-mul")
    try:
        with pytest.raises(InvariantViolation):
            even_clifford(QuadraticForm.diagonal(F3, [1, 1, 1, 1]))
    finally:
        inject_fault(None)
    even_clifford(QuadraticForm.diagonal(F3, [1, 1, 1, 1]))


def test_even_part_matches_full():
    for field, entries in ((QQ, [1, -1, 2]), (F2, [1, 1, 1, 1]), (F5, [1, 2, 3, 4])):
        q = QuadraticForm.diagonal(field, entries)
        full, even = full_clifford(q), even_clifford(q)
        for ms in even.masks:
            for mt in even.masks:
                assert full.mask_mul(ms, mt) == even.mask_mul(ms, mt)


def test_orthogonal_sum_graded_tensor():
    verify_orthogonal_sum(QuadraticForm.diagonal(QQ, [1, 2]), QuadraticForm.diagonal(QQ, [3, 1]))
    verify_orthogonal_sum(QuadraticForm.diagonal(F2, [1, 1]), QuadraticForm.hyperbolic(F2, 1))
    verify_orthogonal_sum(QuadraticForm.diagonal(F3, [1, 2, 1]), QuadraticForm.diagonal(F3, [2]))
    verify_orthogonal_sum(QuadraticForm.hyperbolic(F5, 1), QuadraticForm.diagonal(F5, [1, 3]))


def test_orthogonal_sum_reports_the_first_failing_product(monkeypatch):
    # the corrupted constant sits at index 1 of each algebra: e1 e1 of
    # C(q1) and of the sum agree, but e1 e1 of C(q2), mask 1 << 2 in the
    # sum, does not.  Construction would refuse the corrupted algebras
    # as "algebra-associativity" or "clifford-relations" first, so those
    # checks are switched off.
    monkeypatch.setattr(StructuredAlgebra, "verify_associativity", lambda self: True)
    monkeypatch.setattr(clifford, "_verify_relations", lambda alg: None)
    inject_fault("clifford-mul")
    try:
        for field in (F3, QQ):
            with pytest.raises(InvariantViolation) as err:
                verify_orthogonal_sum(QuadraticForm.diagonal(field, [1, 2]),
                                      QuadraticForm.diagonal(field, [1, 1]))
            assert err.value.invariant == "orthogonal-sum-product"
            assert "masks (0|1)*(0|1) give 1*1" in str(err.value)
    finally:
        inject_fault(None)


# -- centers ----------------------------------------------------------------


def test_center_rank2_is_whole_algebra():
    a = even_clifford(QuadraticForm.diagonal(QQ, [2, 3]))
    assert len(center_basis(a)) == 2  # commutative


def test_center_odd_rank_trivial():
    for entries in ([1, 1, 1], [1, 2, 3, 1, 1], [2, 1, 1, 1, 2, 2, 1]):
        a = even_clifford(QuadraticForm.diagonal(F3, entries))
        assert center_report(a).kind == "trivial"


def test_hyperbolic_center_splits():
    for field in (QQ, F3, F5):
        rep = center_report(even_clifford(QuadraticForm.hyperbolic(field, 1)))
        assert rep.kind == "split"
        e1, e2 = rep.idempotents
        assert np.count_nonzero(e1) and np.count_nonzero(e2)


def test_center_delta_matches_classical_formula():
    # for diagonal q of even rank n, delta is (-1)^(n(n-1)/2) prod q_i
    # up to squares (the square of the top basis element)
    rng = random.Random(4)
    for _ in range(10):
        n = rng.choice([2, 4])
        entries = [rng.choice([1, 2, 3]) for _ in range(n)]
        q = QuadraticForm.diagonal(F7, entries)
        rep = center_report(even_clifford(q))
        prod = F7.one()
        for e in entries:
            prod = prod * F7.from_int(e)
        want = F7.from_int((-1) ** (n * (n - 1) // 2)) * prod
        assert rep.delta and F7.is_square(rep.delta / want)


def test_center_delta_frozen_f5_examples():
    rep = center_report(even_clifford(QuadraticForm.diagonal(F5, [1, 1, 1, 2])))
    assert rep.kind == "field" and rep.delta and F5.is_square(rep.delta / F5.from_int(2))
    rep0 = center_report(even_clifford(QuadraticForm.diagonal(F5, [1, 1, 1, 0])))
    assert rep0.kind == "dual"


def test_center_delta_vs_discriminant_class():
    # delta agrees with the discriminant class up to the sign (-1)^(n/2)
    rng = random.Random(9)
    for field in (QQ, F3, F5):
        for _ in range(6):
            n = rng.choice([2, 4, 6])
            entries = [rng.choice([1, 2, 3, 5]) for _ in range(n)]
            q = QuadraticForm.diagonal(field, entries)
            rep = center_report(even_clifford(q))
            if rep.dim != 2 or rep.delta is None:
                continue
            twist = field.from_int((-1) ** (n // 2))
            disc = twist * q.discriminant()
            if disc:
                assert rep.delta and field.is_square(rep.delta / disc)
            else:
                assert not rep.delta


def test_even_center_report_checks_the_discriminant():
    for field, entries in ((QQ, [1, 3]), (F5, [1, 2, 3, 4]), (F7, [1, 1, 0, 2])):
        q = QuadraticForm.diagonal(field, entries)
        alg, rep = even_center_report(q)
        assert alg.dim == 2 ** (len(entries) - 1)
        assert rep.kind == center_report(even_clifford(q)).kind
    inject_fault("clifford-mul")
    try:
        with pytest.raises(InvariantViolation) as err:
            even_center_report(QuadraticForm.diagonal(F7, [1, 1]))
    finally:
        inject_fault(None)
    assert err.value.invariant == "center-discriminant"


def test_char2_center_kinds():
    rep = center_report(even_clifford(QuadraticForm.hyperbolic(F2, 1)))
    assert rep.kind == "split" and rep.separable
    # x^2 + xy + y^2: anisotropic, center is F_4
    q = QuadraticForm(F2, [[F2.one(), F2.one()], [F2.zero(), F2.one()]])
    rep = center_report(even_clifford(q))
    assert rep.kind == "field" and rep.separable
    # degenerate diagonal char-2 form: inseparable center
    q = QuadraticForm.diagonal(F2, [1, 1])
    rep = center_report(even_clifford(q))
    assert not rep.separable


# -- central simplicity and fibers -------------------------------------------


def test_central_simplicity_across_fields_and_ranks():
    cases = [
        (QQ, [1, 1, 1]),
        (QQ, [1, 2, 3, 1, 1]),
        (F3, [1, 1, 2, 2, 1]),
        (F5, [1, 2, 3, 4, 1, 1, 2]),
        (F7, [1, 1, 1]),
    ]
    for field, entries in cases:
        a = even_clifford(QuadraticForm.diagonal(field, entries))
        assert is_central_simple(a)


def test_not_simple_when_split_center():
    a = even_clifford(QuadraticForm.hyperbolic(QQ, 1))
    assert not is_central_simple(a)


def test_degenerate_form_not_semisimple():
    # rank 3 with a radical line: C0 has nilpotents
    a = even_clifford(QuadraticForm.diagonal(F5, [1, 1, 0]))
    assert not is_central_simple(a)


def test_separability_fallback_char2():
    # M_2(F_2) is simple, but its trace form vanishes and nothing else
    # decides it, so the test refuses rather than guesses
    c = full_clifford(QuadraticForm.hyperbolic(F2, 1))
    with pytest.raises(NotImplementedError):
        is_central_simple(c)
    a = even_clifford(QuadraticForm.diagonal(F2, [1, 1, 1]))
    assert not is_central_simple(a)  # inseparable center in char 2


def test_azumaya_regular_even_ranks():
    # split centers: the algebra is Azumaya iff both Peirce fibers are
    # central simple
    cases = [
        (QQ, [1, -1, 2, -2]),
        (F3, [1, 1, 1, 1]),
        (F5, [1, 2, 3, 4, 1, 1]),
    ]
    for field, entries in cases:
        a = even_clifford(QuadraticForm.diagonal(field, entries))
        rep = center_report(a)
        assert rep.kind == "split", (field.label(), entries, rep)
        fibers = split_fibers(a, rep)
        assert len(fibers) == 2 and all(is_central_simple(f) for f in fibers)


def test_peirce_fibers_have_half_dimension():
    q = QuadraticForm.diagonal(F3, [1, 2, 1, 2])  # disc class forces split over F_3?
    rep = center_report(even_clifford(q))
    if rep.kind == "split":
        assert all(f.dim == 4 for f in split_fibers(even_clifford(q), rep))
    a = even_clifford(QuadraticForm.hyperbolic(F3, 2))
    fibers = split_fibers(a, center_report(a))
    assert all(f.dim == 4 and is_central_simple(f) for f in fibers)
    with pytest.raises(ValueError):
        split_fibers(a, center_report(even_clifford(QuadraticForm.diagonal(F3, [1, 1]))))


@pytest.mark.parametrize("field", [F3, QQ, quadratic_extension(F3)], ids=lambda f: f.label())
def test_subspace_algebra_reads_coordinates_off_one_elimination(field):
    # span{1, e12} is closed, since e12^2 is a scalar; in the basis
    # (1, 2 e12 + 1) every product re-expands to itself upstairs, and
    # adding e13 escapes the span (e12 e13 = -q(e1) e23)
    a = even_clifford(QuadraticForm.diagonal(field, [1, 2, 1]))
    coding, eye = a.coding, a.coding.eye(a.dim)
    e12, e13 = a.mask_index[0b011], a.mask_index[0b101]
    basis = np.stack([eye[0], coding.reduce(eye[0] + 2 * eye[e12])])
    sub = algebra_on_subspace(a, basis)
    for i in range(2):
        for j in range(2):
            got = coding.zeros(a.dim)
            for k, c in sub.mul_basis(i, j).items():
                got = coding.reduce(got + coding.scale(basis[k], c))
            assert coding.equal(got, a.mul(basis[i], basis[j]))
    with pytest.raises(InvariantViolation, match="subalgebra-closure"):
        algebra_on_subspace(a, eye[[0, e12, e13]])


def _seeded_form(rng, field, n, kind):
    # upper triangular, about a third of the slots empty (none for
    # "huge", so that products of two coefficients reach 10^24); one
    # leading coordinate is left out of every term when kind is "degenerate"
    def value():
        if field is QQ:
            if kind == "fraction":
                return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            if kind == "huge":  # near 10^12, and past int64 at 10^30
                return Fraction(rng.choice([10 ** 12, -10 ** 30]) - rng.randint(0, 9))
            return Fraction(rng.randint(-3, 3))
        if field.kind == "prime":  # rng.choice(field.elements()) without the list
            return field.from_int(rng.randrange(field.p))
        return rng.choice(list(field.elements()))

    skip = 1 if kind == "degenerate" else 0
    empty = 0 if kind == "huge" else 0.3
    return QuadraticForm(field, [[value() if j >= i >= skip and rng.random() >= empty
                                  else field.zero() for j in range(n)] for i in range(n)])


REFERENCE_CORPUS = (
    [(field, n, kind) for field in (F2, F3, F5, QQ) for n in range(1, 8)
     for kind in ("regular", "degenerate")]
    # object codes: F9 and fractional Q at ranks 5 and 6 reach levels
    # built in several row slabs
    + [(F9, n, "regular") for n in range(1, 7)]
    + [(QQ, n, kind) for n in range(1, 5) for kind in ("fraction", "huge")]
    + [(QQ, 6, "fraction")]
    # residues in int8 at F7 rank 7, and in int32 at F65521, whose
    # products of two residues pass 2^31
    + [(F7, 7, "regular")] + [(F65521, n, "regular") for n in range(5, 8)]
)


@pytest.mark.parametrize("field, n, kind", REFERENCE_CORPUS,
                         ids=lambda v: v.label() if hasattr(v, "label") else str(v))
def test_tensor_matches_word_rewriting(field, n, kind, monkeypatch):
    # the doubling recursion against the word-by-word rewriting of
    # clifford_words, entry for entry, for the even and full algebras;
    # the entries are compared here, so construction skips its own check
    monkeypatch.setattr(StructuredAlgebra, "verify_associativity", lambda self: True)
    rng = random.Random("%s/%d/%s" % (field.label(), n, kind))
    q = _seeded_form(rng, field, n, kind)
    for build in (even_clifford, full_clifford):
        if build is full_clifford and n == 7 and field is not F3:
            continue  # one field at dimension 128 keeps the test quick
        a = build(q)
        ref = clifford_words.products(q, a.masks)
        for (i, j), prod in ref.items():
            assert a.mul_basis(i, j) == prod, (build.__name__, i, j)
        if kind == "huge" and n > 1:
            # no slot is empty, so products of two coefficients pass
            # 2^62: the object codes
            assert a.table.dtype == object and a.bound is None
        elif field is QQ and kind in ("regular", "degenerate"):
            assert a.table.dtype.kind == "i" and a.bound == int(np.abs(a.table).max())
    if field in (F7, F65521):
        assert a.table.dtype == (np.int8 if field is F7 else np.int32)


@pytest.mark.parametrize("field", [F3, QQ], ids=lambda f: f.label())
def test_even_construction_refuses_an_odd_entry(field, monkeypatch):
    # a generator's coefficient in the square of the unit sits in a
    # parity block that the even basis drops; construction must refuse it
    double = clifford._double

    def planted(*args):
        out = double(*args)
        out[0, 0, 1] = 1
        return out

    monkeypatch.setattr(clifford, "_double", planted)
    q = QuadraticForm.diagonal(field, [1, 2, Fraction(1, 2) if field is QQ else 1])
    with pytest.raises(InvariantViolation, match="clifford-grading"):
        even_clifford(q)


@pytest.mark.parametrize("field", [QQ, F5], ids=lambda f: f.label())
def test_rank7_even_construction_memory(field):
    # the levels of the recursion stay in narrow dtypes and the int64 work
    # runs in row slabs: a rank-6 level held in int64 alone takes 2 MiB
    rng = random.Random("memory/%s" % field.label())
    q = QuadraticForm.of_ints(field, [[rng.randint(-2, 2) if j >= i else 0 for j in range(7)]
                                      for i in range(7)])
    even_clifford(q)  # fills the caches kept per dimension
    tracemalloc.start()
    try:
        a = even_clifford(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.dim == 64 and a.bound is not None and peak < 4 << 20


def test_full_construction_checks_the_generator_relations():
    # the corrupted e1 e1 = 2 leaves C(<1>) a commutative, associative
    # algebra of dimension 2, but not the Clifford algebra of the form
    inject_fault("clifford-mul")
    try:
        with pytest.raises(InvariantViolation) as err:
            full_clifford(QuadraticForm.diagonal(F3, [1]))
        assert err.value.invariant == "clifford-relations"
    finally:
        inject_fault(None)


def _fault_form(field, n, seed):
    rng = random.Random(seed)
    return QuadraticForm.of_ints(field, [[rng.randint(-2, 2) if j >= i else 0 for j in range(n)]
                                         for i in range(n)])


# the cases where the seeded 256-triple sample misses the corrupted
# constant (dimension 64); everything else must be caught
SAMPLE_MISSES = {(even_clifford, 7, 0), (even_clifford, 7, 2)}


@pytest.mark.parametrize("build, n", [(even_clifford, n) for n in range(3, 8)]
                         + [(full_clifford, n) for n in range(2, 6)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
@pytest.mark.parametrize("field", [F3, F5, QQ], ids=lambda f: f.label())
def test_fault_injection_raises_associativity(build, n, field):
    inject_fault("clifford-mul")
    try:
        for seed in range(3):
            q = _fault_form(field, n, seed)
            if (build, n, seed) in SAMPLE_MISSES:
                continue
            with pytest.raises(InvariantViolation) as err:
                build(q)
            assert err.value.invariant == "algebra-associativity"
    finally:
        inject_fault(None)


def test_hyperbolic_split_structure():
    for m, fiber in ((1, 1), (2, 4), (3, 16)):
        r = hyperbolic_split_structure(m, F3)
        assert r["center"] == "split"
        assert r["fiber_dims"] == (fiber, fiber)
        assert r["total_dim"] == 2 ** (2 * m - 1)
    with pytest.raises(ValueError):
        hyperbolic_split_structure(4, F3)
    with pytest.raises(ValueError):
        hyperbolic_split_structure(2, F2)  # fibers M_2(F_2): the trace test cannot decide


# -- the coded center against a wrapped reference ------------------------------


def _wrapped_mul(a):
    """Products of dense tuples of field elements, from mul_basis alone."""
    zero = a.field.zero()

    def mul(x, y):
        out = [zero] * a.dim
        for i, c in enumerate(x):
            for j, e in enumerate(y):
                if c and e:
                    for k, v in a.mul_basis(i, j).items():
                        out[k] = out[k] + c * e * v
        return tuple(out)

    return mul


def _reference_center(a):
    """(kind, delta, z, idempotents) as the center report derives them, on
    wrapped scalars: the center is the echelon kernel of every commutator
    with a basis element, and w^2 = alpha + beta w is solved by
    Gauss-Jordan.  The commutator rows are row-reduced after each basis
    element, which keeps their row space and so the echelon kernel."""
    field, d, mul = a.field, a.dim, _wrapped_mul(a)
    zero, one = field.zero(), field.one()
    unit = tuple(one if k == 0 else zero for k in range(d))
    products = [[a.mul_basis(i, j) for j in range(d)] for i in range(d)]
    rows = []
    for j in range(d):
        comm = [tuple(products[i][j].get(k, zero) - products[j][i].get(k, zero)
                      for k in range(d)) for i in range(d)]
        red, pivots = gauss_jordan.rref(field, rows + [[comm[i][k] for i in range(d)]
                                                       for k in range(d)], d)
        rows = red[:len(pivots)]
    basis = gauss_jordan.kernel_basis(field, rows, d)
    if len(basis) != 2:
        return ("trivial" if len(basis) == 1 else "big"), None, None, None
    w = next(v for v in basis if any(v[1:]))
    red, pivots = gauss_jordan.rref(field, [[unit[k], w[k], x] for k, x in enumerate(mul(w, w))])
    assert pivots == (0, 1)
    alpha, beta = red[0][2], red[1][2]

    def comb(s, t, v):  # s 1 + t v
        return tuple(s * u + t * x for u, x in zip(unit, v))

    if field.characteristic != 2:
        two = field.from_int(2)
        z = comb(-beta / two, one, w)
        delta = alpha + beta * beta / (two * two)
        assert mul(z, z) == comb(delta, zero, z)
        if not delta:
            return "dual", delta, z, None
        root = field.sqrt(delta)
        if root is None:
            return "field", delta, z, None
        half = one / two
        return "split", delta, z, (comb(half, half / root, z), comb(half, -half / root, z))
    if not beta:
        return ("dual" if field.sqrt(alpha) is not None else "field"), None, None, None
    r = next((r for r in field.elements() if not (r * r + beta * r + alpha)), None)
    if r is None:
        return "field", None, None, None
    e1 = comb(-r / beta, one / beta, w)
    return "split", None, None, (e1, comb(one, -one, e1))


def _reference_fibers(a, idempotents):
    """Dimension and decoded table of each Peirce fiber e A e, on wrapped
    scalars: the candidates e, e e_k e at the pivots of the matrix whose
    columns they are, and every product re-expanded by Gauss-Jordan."""
    field, d, mul = a.field, a.dim, _wrapped_mul(a)
    zero, one = field.zero(), field.one()
    out = []
    for e in idempotents:
        cands = [e] + [mul(mul(e, tuple(one if i == k else zero for i in range(d))), e)
                       for k in range(d)]
        _, pivots = gauss_jordan.rref(field, [list(col) for col in zip(*cands)])
        basis = [cands[c] for c in pivots]
        m = len(basis)
        table = []
        for x in basis:
            for y in basis:
                red, piv = gauss_jordan.rref(field, [list(col) + [v] for col, v in
                                                     zip(zip(*basis), mul(x, y))])
                assert piv == tuple(range(m))
                table.append({k: red[k][m] for k in range(m) if red[k][m]})
        out.append((m, table))
    return out


CENTER_CASES = [
    (F3, QuadraticForm.hyperbolic(F3, 2)),
    (F3, QuadraticForm.diagonal(F3, [1, 2])),
    (F3, QuadraticForm.diagonal(F3, [1, 1, 1, 1])),
    (F3, QuadraticForm.diagonal(F3, [1, 2, 1, 0])),
    (F5, QuadraticForm.diagonal(F5, [1, 2, 3, 4])),
    (F5, QuadraticForm.diagonal(F5, [1, 1, 1, 2])),
    (F5, QuadraticForm.of_ints(F5, [[1, 2, 0, 1], [0, 3, 1, 0], [0, 0, 2, 4], [0, 0, 0, 1]])),
    (QQ, QuadraticForm.diagonal(QQ, [1, -1, 2, -2])),
    (QQ, QuadraticForm.diagonal(QQ, [Fraction(1, 2), -3])),
    (QQ, QuadraticForm.diagonal(QQ, [2, 3])),
    (QQ, QuadraticForm.diagonal(QQ, [1, 0, 0])),
    (QQ, QuadraticForm.diagonal(QQ, [Fraction(1, 2), Fraction(-2, 9)])),
    (QQ, QuadraticForm.diagonal(QQ, [1, 2, 3])),
    (F5, QuadraticForm.diagonal(F5, [1, 0, 0, 0])),
    (F9, QuadraticForm.diagonal(F9, [1, F9.gen()])),
    (F9, QuadraticForm.diagonal(F9, [F9.gen(), 1, 1, 2])),
    (F9, QuadraticForm.diagonal(F9, [1, F9.gen(), 0, 1])),
    (F2, QuadraticForm.hyperbolic(F2, 2)),
    (F2, QuadraticForm.of_ints(F2, [[1, 1], [0, 1]])),
] + [
    # Q at ranks 5 and 6, regular and with a radical line; the regular
    # rank-6 seed has a nonsplit center (the wrapped Peirce fibers of a
    # split one take about 18 s)
    (QQ, _seeded_form(random.Random("center/%d/%s/%d" % (n, kind, seed)), QQ, n, kind))
    for n, kind, seed in ((5, "regular", 0), (5, "degenerate", 0),
                          (6, "regular", 1), (6, "degenerate", 0))
]


@pytest.mark.parametrize("field, q", CENTER_CASES,
                         ids=["%s-%d" % (f.label(), i) for i, (f, _) in enumerate(CENTER_CASES)])
def test_coded_center_matches_the_wrapped_reference(field, q):
    a = even_clifford(q)
    rep = center_report(a)
    kind, delta, z, idempotents = _reference_center(a)
    assert (rep.kind, rep.delta) == (kind, delta)
    assert (None if rep.z is None else tuple(a.coding.decode(x) for x in rep.z)) == z
    if idempotents is None:
        assert rep.idempotents is None
        return
    decoded = tuple(tuple(a.coding.decode(x) for x in e) for e in rep.idempotents)
    assert decoded == idempotents
    if field.characteristic == 2:
        return  # the trace test cannot decide the fibers there
    fibers = split_fibers(a, rep)
    assert [(f.dim, [f.mul_basis(i, j) for i in range(f.dim) for j in range(f.dim)])
            for f in fibers] == _reference_fibers(a, idempotents)
