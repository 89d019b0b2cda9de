"""Pencil discriminants, degeneration reports, and the isotropy
correspondence searches."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gauss_jordan
from witness_corpus import witness_corpus
from quadclif.rings import (
    QQ, InvariantViolation, Poly, PrimeField, quadratic_extension, scalar_str)
from quadclif.quadform import QuadraticForm
from quadclif.splitting import SearchBudget
from quadclif.pencil import (
    BrauerVerdict,
    DegenerationPoint,
    Pencil,
    amer_brumer_check,
    analyze,
    brauer_triviality_rank4,
    center_matches_cover,
    common_isotropic_plane_rank6,
    common_isotropic_vector,
    cover_model,
    discriminant_form,
    gaussian_binomial,
    pencil_isotropy_witness,
)
from quadclif.pencil import _head_runs, _head_search, _int_forms, _witness_polys

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F4 = quadratic_extension(F2)
F9 = quadratic_extension(F3)


def diag(field, entries):
    return QuadraticForm.diagonal(field, entries)


def _random_form(rng, field, n):
    rows = [[rng.randrange(field.p) if j >= i else 0 for j in range(n)]
            for i in range(n)]
    return QuadraticForm.of_ints(field, rows)


# ------------------------------------------------- discriminant oracles

# det(s*B1 + t*B2) for diag(1,1,1,1) against diag(1,2,3,4) expands by
# hand to 16(s+t)(s+2t)(s+3t)(s+4t); the coefficient list is frozen here
# and everything downstream is checked against it.
RANK4_ORACLE = [16, 160, 560, 800, 384]

# odd rank divides by two: diag(1,1,1) against diag(1,2,3) gives
# 4(s+t)(s+2t)(s+3t)
RANK3_ORACLE = [4, 24, 44, 24]


def test_discriminant_rank4_oracle():
    d = discriminant_form(Pencil(diag(QQ, [1, 1, 1, 1]), diag(QQ, [1, 2, 3, 4])))
    assert [str(c) for c in d.coeffs] == [str(v) for v in RANK4_ORACLE]


def test_discriminant_rank3_halving_oracle():
    d = discriminant_form(Pencil(diag(QQ, [1, 1, 1]), diag(QQ, [1, 2, 3])))
    assert [str(c) for c in d.coeffs] == [str(v) for v in RANK3_ORACLE]


def test_discriminant_matches_members_at_random_specializations():
    import random
    rng = random.Random(41)
    p = Pencil(diag(QQ, [1, -2, 3, 5]), QuadraticForm.of_ints(
        QQ, [[1, 2, 0, 1], [0, 3, 1, 0], [0, 0, 1, 4], [0, 0, 0, 2]]))
    d = discriminant_form(p)
    for _ in range(10):
        s0 = QQ.from_int(rng.randint(-9, 9))
        t0 = QQ.from_int(rng.randint(-9, 9))
        assert d.evaluate(s0, t0) == p.member(s0, t0).discriminant()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3 ** 6 - 1), st.integers(0, 3 ** 6 - 1))
def test_discriminant_matches_members_everywhere_f3(a, b):
    def unpack(code):
        vals = []
        for _ in range(6):
            vals.append(code % 3)
            code //= 3
        return QuadraticForm.of_ints(
            F3, [[vals[0], vals[1], vals[2]],
                 [0, vals[3], vals[4]],
                 [0, 0, vals[5]]])

    p = Pencil(unpack(a), unpack(b))
    d = discriminant_form(p)
    one = F3.one()
    for x in F3.elements():
        assert d.evaluate(x, one) == p.member(x, one).discriminant()
    assert d.evaluate(one, F3.zero()) == p.q1.discriminant()


def test_odd_rank_char2_rejected():
    with pytest.raises(ValueError):
        discriminant_form(Pencil(diag(F2, [1, 1, 1]), diag(F2, [1, 1, 1])))


def _reference_pencils():
    """Pencils over Q (integral, fractional, and with entries that push
    the elimination past int64), F2 and F4 at even ranks and F3, F5, F9
    at ranks 1-7, plus identically degenerate ones."""
    from fractions import Fraction
    rng = random.Random(1968)

    def rows(n, entry, zero=Fraction(0)):
        return [[entry() if j >= i and rng.random() < 0.8 else zero for j in range(n)]
                for i in range(n)]

    entries = {
        "integral": lambda: Fraction(rng.randint(-3, 3)),
        "fractional": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
        "wide": lambda: Fraction(rng.randint(-10 ** 9, 10 ** 9)),
    }
    out = []
    for n in range(1, 8):
        for entry in entries.values():
            for _ in range(2):
                out.append(Pencil(QuadraticForm(QQ, rows(n, entry)), QuadraticForm(QQ, rows(n, entry))))
        for field in (F2, F3, F5, F4, F9):
            if field.characteristic == 2 and n % 2:
                continue
            elems = field.elements()
            for _ in range(3 if field.kind == "prime" else 1):
                out.append(Pencil(*(QuadraticForm(field, rows(n, lambda: rng.choice(elems),
                                                              field.zero()))
                                    for _ in range(2))))
    for field in (QQ, F3):
        q = QuadraticForm.of_ints(field, [[1, 2, 0], [0, 1, 0], [0, 0, 0]])
        out.append(Pencil(q, q))
        out.append(Pencil(QuadraticForm.zero_form(field, 4), QuadraticForm.zero_form(field, 4)))
    return out


def test_discriminant_form_matches_the_minor_expansion_reference():
    from references import poly_det_discriminant
    pencils = _reference_pencils()
    zero = 0
    for pen in pencils:
        got, want = discriminant_form(pen), poly_det_discriminant(pen)
        assert got == want, (pen, got, want)
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
        zero += got.is_zero()
    assert zero >= 4


def test_int_dets_leave_int64_when_the_entries_grow():
    # 3^38 < 2^62 starts the stack in int64; the first step's products
    # do not fit, so it goes on with Python ints
    import numpy as np
    from quadclif.pencil import _int_dets
    m = np.array([[[3 ** 38, 1, 0], [1, 3 ** 38, 1], [0, 1, 3 ** 38]],
                  [[0, 0, 1], [0, 2, 0], [1, 0, 0]],
                  [[1, 2, 3], [2, 4, 6], [0, 0, 0]]], dtype=object)
    # a^3 - 2a for the tridiagonal one, a row swap, and a singular one
    assert _int_dets(m) == [3 ** 114 - 2 * 3 ** 38, -2, 0]


def test_char2_even_rank_is_a_square():
    # polar matrices are alternating in characteristic 2, so the
    # determinant is a perfect square and never squarefree
    a = analyze(Pencil(diag(F2, [1, 1]), QuadraticForm.of_ints(F2, [[0, 1], [0, 0]])))
    assert not a.squarefree and not a.simple


# ------------------------------------------------- degeneration reports


def test_simple_pencil_rank4():
    a = analyze(Pencil(diag(QQ, [1, 1, 1, 1]), diag(QQ, [1, 2, 3, 4])))
    assert a.squarefree and a.simple and not a.identically_degenerate
    assert len(a.points) == 4
    assert all(p.multiplicity == 1 and p.radical_rank == 1 for p in a.points)
    assert a.exhaustive
    assert a.degenerate_count() == 4


def test_same_form_pencil_collapses_on_the_diagonal():
    q = diag(QQ, [1, 1, 1, 1])
    a = analyze(Pencil(q, q))
    assert not a.squarefree and not a.simple
    (pt,) = a.points
    assert pt.multiplicity == 4 and pt.radical_rank == 4
    assert tuple(map(str, pt.point)) == ("1", "-1")


def test_multiplicity_bound_is_tight_at_rank_two_radical():
    a = analyze(Pencil(diag(QQ, [1, 1, 1, 1]), diag(QQ, [1, 1, 0, 0])))
    got = {(p.factor, p.multiplicity, p.radical_rank) for p in a.points}
    assert got == {("t+1", 2, 2), ("inf", 2, 2)}
    assert not a.simple


def test_extension_field_degeneration_is_visited():
    # delta dehomogenizes to an irreducible quadratic over F3, so the
    # two degenerate members live only over F9
    q2 = QuadraticForm.of_ints(F3, [[0, 1], [0, 1]])
    a = analyze(Pencil(diag(F3, [1, 1]), q2))
    ext = [p for p in a.points if p.degree == 2]
    assert len(ext) == 1 and a.exhaustive
    assert ext[0].radical_rank == 1 and ext[0].multiplicity == 1
    assert a.simple


def test_identically_degenerate_pencil():
    z = QuadraticForm.zero_form(F3, 3)
    a = analyze(Pencil(z, z))
    assert a.identically_degenerate and not a.simple and a.points == ()


def test_rational_degeneration_points_of_f3_rank2_pair():
    a = analyze(Pencil(diag(F3, [1, 1]), QuadraticForm.of_ints(F3, [[0, 1], [0, 0]])))
    assert a.squarefree and a.simple
    assert {p.factor for p in a.points} == {"t+1", "t+2"}


def _brute_rational_points(pencil):
    """The base-rational DegenerationPoints by brute force: delta at every
    point of P^1(F_q), (1 : a) in element order, then (0 : 1).  A zero's
    multiplicity comes from dividing delta, in the chart where the point
    is affine, by the linear factor through it until a remainder shows;
    its radical rank is n minus the rank of the member's polar matrix by
    textbook elimination."""
    field, n = pencil.field, pencil.n
    delta = discriminant_form(pencil)
    one, zero = field.one(), field.zero()
    out = []
    for s0, t0 in [(one, a) for a in field.elements()] + [(zero, one)]:
        if delta.evaluate(s0, t0):
            continue
        if s0:
            f, root, label = delta.dehomogenize(), t0, str(Poly(field, "t", (-t0, one)))
        else:
            f, root, label = Poly(field, "s", delta.coeffs[::-1]), zero, "inf"
        lin = Poly(field, f.var, (-root, one))
        mult = 0
        while True:
            quo, rem = divmod(f, lin)
            if rem:
                break
            f, mult = quo, mult + 1
        _, pivots = gauss_jordan.rref(field, pencil.member(s0, t0).polar_matrix().rows)
        out.append(DegenerationPoint(point=(s0, t0), factor=label, degree=1,
                                     multiplicity=mult, radical_rank=n - len(pivots)))
    return out


def _pencil_corpus(rng, field, n):
    """A random pencil whose members are often degenerate at a repeated
    or infinite root: diagonal with entries from a short list, or upper
    triangular with a zero row in q2 now and then."""
    elems = field.elements()
    if rng.random() < 0.5:
        few = rng.sample(elems, min(3, len(elems)))
        return Pencil(*(diag(field, [rng.choice(few) for _ in range(n)]) for _ in "12"))
    forms = [[[rng.choice(elems) if j >= i else field.zero() for j in range(n)]
              for i in range(n)] for _ in "12"]
    if rng.random() < 0.4:
        k = rng.randrange(n)
        for j in range(n):
            forms[1][min(j, k)][max(j, k)] = field.zero()
    return Pencil(*(QuadraticForm(field, rows) for rows in forms))


@pytest.mark.parametrize("field", [F2, F3, F5, PrimeField(7), quadratic_extension(F3)],
                         ids=["F2", "F3", "F5", "F7", "F9"])
def test_rational_degeneration_points_match_brute_force(field):
    rng = random.Random(field.size())
    repeated = infinite = 0
    for n in range(2, 7):
        if n % 2 and field.characteristic == 2:
            continue  # no odd-rank discriminant in characteristic 2
        for _ in range(10):
            pencil = _pencil_corpus(rng, field, n)
            a = analyze(pencil)
            if a.identically_degenerate:
                continue
            got = [p for p in a.points if p.degree == 1]
            assert got == _brute_rational_points(pencil)
            repeated += any(p.multiplicity > 1 for p in got)
            infinite += any(p.factor == "inf" for p in got)
    assert repeated >= 3 and infinite >= 3


# ------------------------------------------------------------ the cover


def test_cover_genus_by_rank():
    for entries, genus, branch in (
        ([1, 1], 0, 2),
        ([1, 1, 1], 1, 4),
        ([1, 1, 1, 1], 1, 4),
        ([1, 1, 1, 1, 1], 2, 6),
        ([1, 1, 1, 1, 1, 1], 2, 6),
    ):
        n = len(entries)
        other = diag(QQ, list(range(1, n + 1)))
        a = analyze(Pencil(diag(QQ, entries), other))
        assert a.squarefree
        m = cover_model(a)
        assert (m.genus, m.branch_points) == (genus, branch)


def test_cover_requires_squarefree():
    q = diag(QQ, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        cover_model(analyze(Pencil(q, q)))


def test_cover_model_coeffs_match_delta():
    a = analyze(Pencil(diag(QQ, [1, 1, 1, 1]), diag(QQ, [1, 2, 3, 4])))
    m = cover_model(a)
    assert [str(c) for c in m.model_coeffs] == [str(v) for v in RANK4_ORACLE]
    assert not m.infinity_branched


def test_center_matches_cover_f5_with_degenerate_samples():
    # all four degeneration points are rational over F5, so the default
    # sample sweep exercises the dual-numbers branch four times
    out = center_matches_cover(Pencil(diag(F5, [1, 1, 1, 1]), diag(F5, [1, 2, 3, 4])))
    kinds = [kind for _, kind, _ in out["samples"]]
    assert kinds.count("dual") == 4
    assert out["matched"]


def test_center_matches_cover_f3_rank2():
    out = center_matches_cover(Pencil(diag(F3, [1, 1]), diag(F3, [1, 2])))
    assert out["matched"]


# --------------------------------------------- correspondence searches


def test_common_zero_pair_has_constant_witness():
    r = amer_brumer_check(diag(F3, [1, -1, 1]), diag(F3, [1, 1, -1]))
    assert r.common_zero == tuple(F3.from_int(v) for v in (0, 1, 1))
    assert r.common_zero_count == 2
    assert r.witness_degree == 0


def test_anisotropic_rank2_pair_has_neither():
    r = amer_brumer_check(diag(F3, [1, 1]), diag(F3, [1, 2]))
    assert r.common_zero is None and r.witness is None
    assert r.searched_degree == 3
    # 2 heads, each searched over 3 + 3^2 + 3^3 leaves
    assert r.leaves == 78


def test_rank4_pair_without_common_zero_has_no_witness():
    r = amer_brumer_check(diag(F3, [1, 1, 1, 1]), diag(F3, [1, 2, 1, 2]))
    assert r.common_zero is None and r.witness is None
    # 16 heads, each searched over 3^3 + 3^6 + 3^9 leaves
    assert r.leaves == 327024


def test_f2_rank3_pair():
    q = diag(F2, [1, 1, 1])
    r = amer_brumer_check(q, q)
    assert r.common_zero is not None and r.witness_degree == 0


def test_witness_polynomials_satisfy_the_pencil_identity():
    w, leaves = pencil_isotropy_witness(diag(F3, [1, -1, 1]), diag(F3, [1, 1, -1]))
    assert w is not None
    assert max(c.degree() for c in w) == 0
    assert leaves == 0


def test_rank5_f3_always_finds_degree_zero():
    # four quadratic conditions in five variables cannot avoid a common
    # zero over a finite field, so the witness is always constant
    w, _ = pencil_isotropy_witness(diag(F3, [1, 1, 1, 2, 2]), diag(F3, [1, 2, 2, 1, 1]))
    assert w is not None and max(c.degree() for c in w) == 0


# By Amer-Brumer a full search never returns a witness of degree >= 1,
# so the leaf check of the degree-d level is tested head by head: a
# common zero z of the two forms is a head, and z*(x+1)^d is a witness
# of exact degree d with that head.  The expected vectors are the first
# solutions of a depth-first walk over the kernel combinations.
HEAD_SEARCH_CASES = [
    ([1, 2, 1], [1, 1, 2], [0, 1, 1], 1, [[0, 1, 1], [0, 1, 1]], 2),
    ([1, 2, 1], [1, 1, 2], [0, 1, 1], 2, [[0, 1, 1], [0, 0, 0], [0, 1, 1]], 2),
    ([1, 2, 1], [1, 1, 2], [0, 1, 1], 3,
     [[0, 1, 1], [0, 0, 0], [0, 0, 0], [0, 1, 1]], 2),
    ([1, 1, 1, 2], [2, 2, 2, 2], [1, 1, 1, 0], 1, [[1, 1, 1, 0], [1, 1, 1, 0]], 13),
    ([1, 1, 1, 2], [2, 2, 2, 2], [1, 1, 1, 0], 2,
     [[1, 1, 1, 0], [0, 0, 0, 0], [1, 1, 1, 0]], 13),
    ([1, 1, 1, 2], [2, 2, 2, 2], [1, 1, 1, 0], 3,
     [[1, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 0]], 13),
]


@pytest.mark.parametrize("c1,c2,z,d,want,leaves", HEAD_SEARCH_CASES)
def test_head_search_finds_a_witness_of_each_degree(c1, c2, z, d, want, leaves):
    import numpy as np
    q1, q2 = diag(F3, c1), diag(F3, c2)
    forms, head = _int_forms(q1, q2), np.array(z)
    vs, count = _head_search(forms, 3, _head_runs(forms, 3, head[None]), range(d, d + 1))
    assert [[int(a) for a in v] for v in vs] == want
    assert count == leaves
    polys = _witness_polys(q1, q2, vs)
    assert max(c.degree() for c in polys) == d


def _loop_coefficient(forms, vs, k, p):
    # x^k coefficient of x*q1(v) + q2(v): q(v_a) where 2a = kk, and
    # B(v_a, v_b) where a < b and a + b = kk
    n = len(vs[0])
    acc = 0
    for (c, b), shift in zip(forms, (1, 0)):
        for a, b_ in itertools.combinations_with_replacement(range(len(vs)), 2):
            if a + b_ == k - shift:
                m = c if a == b_ else b
                acc += sum(int(vs[a][i]) * int(m[i][j]) * int(vs[b_][j])
                           for i in range(n) for j in range(n))
    return acc % p


def _loop_head_search(forms, p, head, d):
    """Depth-first loop version of _head_search, the reference for its
    enumeration order and leaf count."""
    n = len(head)
    ell = [sum(int(head[i]) * int(forms[1][1][i][j]) for i in range(n)) % p
           for j in range(n)]
    pivot = next((j for j, a in enumerate(ell) if a), None)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    if pivot is None:
        kernel = units
    else:
        inv = pow(ell[pivot], p - 2, p)
        kernel = [[(-ell[i] * inv) % p if j == pivot else u[j] for j in range(n)]
                  for i, u in enumerate(units) if i != pivot]
    leaves = 0

    def walk(vs):
        nonlocal leaves
        k = len(vs)
        rhs = (-_loop_coefficient(forms, vs, k, p)) % p
        if pivot is None and rhs:
            return None
        base = [(rhs * inv) % p if j == pivot else 0 for j in range(n)]
        for combo in itertools.product(range(p), repeat=len(kernel)):
            v = [(base[j] + sum(a * kv[j] for a, kv in zip(combo, kernel))) % p
                 for j in range(n)]
            if k < d:
                got = walk(vs + [v])
                if got:
                    return got
                continue
            leaves += 1
            if any(v) and all(_loop_coefficient(forms, vs + [v], kk, p) == 0
                              for kk in range(d + 1, 2 * d + 2)):
                return vs + [v]
        return None

    return walk([[int(a) for a in head]]), leaves


def _loop_search(forms, p, heads, degrees):
    """The loop version of _head_search: degree by degree, then head by
    head, the leaves of every walk counted up to the first solution."""
    total = 0
    for d in degrees:
        for head in heads:
            got, leaves = _loop_head_search(forms, p, head, d)
            total += leaves
            if got:
                return got, total
    return None, total


def _assert_search_matches_the_loop(forms, p, heads, degrees, monkeypatch):
    import numpy as np
    import quadclif.pencil as pencil_mod
    heads = np.array(heads)
    want, want_leaves = _loop_search(forms, p, heads, degrees)
    # blocks of one row (7 leaves), of several rows (64 leaves) and of
    # whole heads, so that rows and heads straddle block boundaries
    for block in (7, 64, 1 << 15):
        monkeypatch.setattr(pencil_mod, "_LEAF_BLOCK", block)
        vs, leaves = _head_search(forms, p, _head_runs(forms, p, heads), degrees)
        assert leaves == want_leaves
        assert (None if vs is None else [[int(a) for a in v] for v in vs]) == want
    return want, want_leaves


def _lexicographic_heads(field, forms):
    """The zeros of q2 in lexicographic order: the per-lead point tables
    by descending lead."""
    import numpy as np
    from quadclif.rings import ResidueCoding, bilinear
    n, p = len(forms[0][0]), field.p
    coding = ResidueCoding(field)
    pts = np.concatenate([coding.points(n, lead) for lead in reversed(range(n))])
    return pts[bilinear(pts, forms[1][0], pts) % p == 0]


def _assert_head_search_matches_the_loop(forms, p, head, d, monkeypatch):
    return _assert_search_matches_the_loop(forms, p, [head], range(d, d + 1), monkeypatch)


@pytest.mark.parametrize("p,n,d", [(2, 3, 3), (2, 4, 2), (3, 2, 3), (3, 3, 2),
                                   (3, 4, 2), (5, 2, 2), (3, 5, 1), (5, 3, 2),
                                   (3, 4, 3)])
def test_head_search_matches_the_loop_version(p, n, d, monkeypatch):
    field = PrimeField(p)
    rng = random.Random(100 * p + n)
    for _ in range(6):
        q1, q2 = _random_form(rng, field, n), _random_form(rng, field, n)
        forms = _int_forms(q1, q2)
        for head in _lexicographic_heads(field, forms)[:3]:
            _assert_head_search_matches_the_loop(forms, p, head, d, monkeypatch)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_head_search_in_the_radical_of_q2_over_f3(d, monkeypatch):
    # e_0 spans the radical of q2, so B2(head, .) = 0 and no level has a
    # pivot: v_d runs over all of F_3^3, and a row survives only when its
    # condition already holds, which starts with q1(head) = 0
    import numpy as np
    q1 = QuadraticForm.of_ints(F3, [[0, 1, 0], [0, 2, 1], [0, 0, 1]])
    q2 = diag(F3, [0, 1, 2])
    forms = _int_forms(q1, q2)
    head = np.array([1, 0, 0])
    assert not (head @ forms[1][1] % 3).any()
    want, leaves = _assert_head_search_matches_the_loop(forms, 3, head, d, monkeypatch)
    # head * x^d, at combination (1, 0, 0) of the first row
    assert want == [[1, 0, 0]] + [[0, 0, 0]] * (d - 1) + [[1, 0, 0]]
    assert leaves == 10


def test_head_search_skips_a_row_whose_only_solution_is_the_zero_leaf(monkeypatch):
    import numpy as np
    q1 = QuadraticForm.of_ints(F3, [[0, 1, 0], [0, 2, 1], [0, 0, 1]])
    q2 = QuadraticForm.of_ints(F3, [[0, 2, 1], [0, 1, 1], [0, 0, 2]])
    forms = _int_forms(q1, q2)
    head = [1, 0, 1]
    # the first row, v_1 = (2, 0, 0), meets every condition of degree 2
    # only with v_2 = 0; the search must go on to the second row
    assert all(_loop_coefficient(forms, [head, [2, 0, 0], [0, 0, 0]], k, 3) == 0
               for k in (3, 4, 5))
    want, leaves = _assert_head_search_matches_the_loop(forms, 3, np.array(head), 2,
                                                        monkeypatch)
    assert want == [head, [0, 0, 1], [2, 0, 0]]
    assert leaves == 10  # the first leaf of the second row of 9


@pytest.mark.parametrize("p,n,degrees", [(2, 3, range(1, 4)), (2, 4, range(1, 3)),
                                         (3, 2, range(1, 4)), (3, 3, range(1, 3)),
                                         (3, 3, range(2, 4)), (5, 2, range(1, 4))])
def test_head_search_over_all_heads_matches_the_loop_version(p, n, degrees, monkeypatch):
    # every head of a pair in one call, degree by degree: the pivot heads
    # batched into slots, and in every other pair e_0 in the radical of q2
    # and a zero of q1, so that a head without a pivot keeps rows and
    # splits the pivot heads into two runs
    field = PrimeField(p)
    rng = random.Random(1000 * p + 10 * n + degrees.start)
    for k in range(4):
        rows = [[[rng.randrange(p) if j >= i else 0 for j in range(n)] for i in range(n)]
                for _ in range(2)]
        if k % 2:
            rows[0][0][0] = 0
            rows[1][0] = [0] * n
        forms = _int_forms(*(QuadraticForm.of_ints(field, r) for r in rows))
        heads = _lexicographic_heads(field, forms)
        if k % 2:
            assert any(run.radical for run in _head_runs(forms, p, heads))
        _assert_search_matches_the_loop(forms, p, heads, degrees, monkeypatch)


# answers of amer_brumer_check on the corpus of tests/witness_corpus.py,
# written by the witness search that built every level below the last
# from repeated rows (one batch of rows per level, each level repeating
# all earlier coefficient vectors)
PINNED_SEARCHES = json.loads(
    (Path(__file__).parent / "data" / "witness_search.json").read_text())


def test_witness_search_matches_the_pinned_answers():
    corpus = witness_corpus()
    assert [[p, q1, q2, d] for p, q1, q2, d in corpus] \
        == [[pin["p"], pin["q1"], pin["q2"], pin["max_degree"]] for pin in PINNED_SEARCHES]
    kinds = set()
    for (p, a, b, d), pin in zip(corpus, PINNED_SEARCHES):
        field = PrimeField(p)
        q1, q2 = QuadraticForm.of_ints(field, a), QuadraticForm.of_ints(field, b)
        r = amer_brumer_check(q1, q2, d)
        witness = None if r.witness is None else [[c.v for c in f.coeffs] for f in r.witness]
        assert (r.common_zero_count, witness, r.witness_degree, r.leaves) \
            == (pin["common_zero_count"], pin["witness"], pin["witness_degree"], pin["leaves"])
        forms = _int_forms(q1, q2)
        radical = any(run.radical for run in _head_runs(forms, p, _lexicographic_heads(field, forms)))
        kinds.add((p, len(a), r.common_zero_count > 0, radical and not r.common_zero_count))
    # both kinds at every field and rank below 5, and heads without a pivot
    assert {(p, n, zero) for p, n, zero, _ in kinds} \
        == {(p, n, z) for p in (2, 3, 5) for n in (2, 3, 4, 5) for z in (True, False)
            if z or n < 5}
    assert {p for p, _, _, radical in kinds if radical} == {2, 3, 5}


def test_witness_polys_rejects_a_non_witness():
    with pytest.raises(InvariantViolation) as err:
        _witness_polys(diag(F3, [1, 1]), diag(F3, [1, 2]), [[1, 1], [1, 0]])
    assert err.value.invariant == "pencil-witness"


def test_corrupting_one_witness_coordinate_is_refused():
    # v_0 (1 + c x) is a witness for every common zero v_0; changing any
    # one coordinate of either coefficient must fail the int64 check
    # exactly when the wrapped-field identity fails
    from references import wrapped_witness_identity
    rng = random.Random(18)
    refused = 0
    for p, a, b, _ in witness_corpus():
        field, n = PrimeField(p), len(a)
        q1, q2 = QuadraticForm.of_ints(field, a), QuadraticForm.of_ints(field, b)
        witness, _ = pencil_isotropy_witness(q1, q2, 0)
        if witness is None:
            continue
        head = [f.coeff(0).v for f in witness]
        c = rng.randrange(1, p)
        vs = [head, [c * h % p for h in head]]
        assert not wrapped_witness_identity(q1, q2, _witness_polys(q1, q2, vs))
        for k in range(2):
            for i in range(n):
                bad = [list(row) for row in vs]
                bad[k][i] = (bad[k][i] + rng.randrange(1, p)) % p
                polys = tuple(Poly.of_ints(field, "x", [bad[0][j], bad[1][j]]) for j in range(n))
                if wrapped_witness_identity(q1, q2, polys):
                    with pytest.raises(InvariantViolation) as err:
                        _witness_polys(q1, q2, bad)
                    assert err.value.invariant == "pencil-witness"
                    refused += 1
                else:
                    assert _witness_polys(q1, q2, bad) == polys
    assert refused >= 100


def test_witness_rejects_big_fields():
    with pytest.raises(ValueError):
        pencil_isotropy_witness(diag(PrimeField(7), [1, 1]), diag(PrimeField(7), [1, 2]))


# ------------------------------------------------------ rank-4 verdicts


def test_brauer_trivial_with_planted_vector():
    verdict = brauer_triviality_rank4(diag(QQ, [1, 1, 1, -3]), diag(QQ, [1, 2, -1, -2]))
    assert verdict.kind == "trivial" and bool(verdict)
    v = verdict.witness
    assert not diag(QQ, [1, 1, 1, -3]).evaluate(v)
    assert not diag(QQ, [1, 2, -1, -2]).evaluate(v)


def test_brauer_unknown_over_q_when_nothing_in_reach():
    # sums of squares have no rational zero at all, so the bounded
    # search cannot settle the class over Q
    budget = SearchBudget(height=3)
    verdict = brauer_triviality_rank4(diag(QQ, [1, 1, 1, 1]), diag(QQ, [1, 2, 3, 4]),
                                      budget=budget)
    assert verdict.kind == "unknown" and not bool(verdict)
    assert verdict.scope == "budget exhausted: heights <= 3"
    # no function-field search runs over Q, so no degree bound is claimed
    assert "degree" not in verdict.scope


def test_brauer_trivial_over_f3():
    # simple degeneration over a finite field always leaves a common
    # zero in reach (the base curve is a pointed genus-1 curve), so the
    # verdict comes back trivial with a checked witness
    verdict = brauer_triviality_rank4(diag(F3, [1, 0, 1, 1]), diag(F3, [0, 1, 1, 2]))
    assert verdict.kind == "trivial"


@pytest.mark.parametrize("field", [F3, F5])
def test_simple_rank4_pencils_have_points_within_hasse_weil(field):
    # a simple rank-4 pencil over F_q cuts out a smooth genus-1 curve C,
    # so #C >= 1 and (#C - q - 1)^2 <= 4q
    import random
    rng = random.Random(20 + field.p)
    q = field.p
    simple = 0
    for _ in range(40):
        q1, q2 = _random_form(rng, field, 4), _random_form(rng, field, 4)
        if not analyze(Pencil(q1, q2)).simple:
            continue
        simple += 1
        assert brauer_triviality_rank4(q1, q2).kind == "trivial"
        points = amer_brumer_check(q1, q2).common_zero_count
        assert points >= 1 and (points - q - 1) ** 2 <= 4 * q
    assert simple >= 5


def test_brauer_over_finite_field_without_zero_is_an_invariant_violation(monkeypatch):
    import quadclif.pencil as pencil_mod
    monkeypatch.setattr(pencil_mod, "common_isotropic_vector", lambda *a: None)
    with pytest.raises(InvariantViolation) as err:
        brauer_triviality_rank4(diag(F3, [1, 0, 1, 1]), diag(F3, [0, 1, 1, 2]))
    assert err.value.invariant == "hasse-weil"


def test_brauer_rejects_non_simple_pencil():
    q = diag(QQ, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        brauer_triviality_rank4(q, q)


def test_brauer_rejects_wrong_rank():
    with pytest.raises(ValueError):
        brauer_triviality_rank4(diag(QQ, [1, 1, 1]), diag(QQ, [1, 2, 3]))


# ------------------------------------------------------ rank-6 planes

NO_PLANE_ROWS_1 = [[0, 2, 0, 0, 0, 2], [0, 2, 0, 0, 1, 2], [0, 0, 0, 1, 0, 0],
                   [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 2], [0, 0, 0, 0, 0, 2]]
NO_PLANE_ROWS_2 = [[0, 2, 1, 2, 2, 0], [0, 1, 1, 1, 0, 2], [0, 0, 2, 2, 0, 2],
                   [0, 0, 0, 0, 2, 2], [0, 0, 0, 0, 2, 2], [0, 0, 0, 0, 0, 2]]

NO_PLANE_F2_ROWS_1 = [[1, 1, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0], [0, 0, 1, 0, 0, 1],
                      [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]
NO_PLANE_F2_ROWS_2 = [[1, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0],
                      [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1]]


def test_plane_search_counts_the_grassmannian():
    rep = common_isotropic_plane_rank6(diag(F3, [1] * 6), diag(F3, [1, 2, 1, 2, 1, 2]))
    assert rep.candidates == gaussian_binomial(6, 2, 3) == 11011


def test_plane_search_finds_planted_plane():
    rows1 = [[0, 0, 1, 0, 2, 1], [0, 0, 0, 1, 1, 0], [0, 0, 1, 2, 0, 1],
             [0, 0, 0, 2, 1, 0], [0, 0, 0, 0, 1, 2], [0, 0, 0, 0, 0, 1]]
    rows2 = [[0, 0, 2, 1, 0, 0], [0, 0, 1, 0, 2, 2], [0, 0, 2, 0, 1, 0],
             [0, 0, 0, 1, 0, 2], [0, 0, 0, 0, 2, 1], [0, 0, 0, 0, 0, 2]]
    rep = common_isotropic_plane_rank6(QuadraticForm.of_ints(F3, rows1),
                                       QuadraticForm.of_ints(F3, rows2))
    assert rep.beta_trivial
    u, v = rep.plane
    for q in (QuadraticForm.of_ints(F3, rows1), QuadraticForm.of_ints(F3, rows2)):
        assert not q.evaluate(u) and not q.evaluate(v) and not q.polar(u, v)


def test_plane_search_reports_absence():
    rep = common_isotropic_plane_rank6(QuadraticForm.of_ints(F3, NO_PLANE_ROWS_1),
                                       QuadraticForm.of_ints(F3, NO_PLANE_ROWS_2))
    assert rep.plane is None and not rep.beta_trivial
    assert rep.candidates == 11011


def _loop_plane_search(q1, q2):
    """The nested loop the plane search replaced: every RREF basis (u, v)
    by (pa, pb), then u, then v, lexicographic; the first common
    isotropic plane and the number of bases visited."""
    p = q1.field.p
    c1, c2 = [[[e.v for e in row] for row in q.c] for q in (q1, q2)]

    def q_val(c, v):
        return sum(c[i][j] * v[i] * v[j] for i in range(6) for j in range(i, 6)) % p

    def b_val(c, u, v):
        return (q_val(c, [a + b for a, b in zip(u, v)]) - q_val(c, u) - q_val(c, v)) % p

    count, hit = 0, None
    for pa in range(6):
        for pb in range(pa + 1, 6):
            free_a = [j for j in range(pa + 1, 6) if j != pb]
            for ta in itertools.product(range(p), repeat=len(free_a)):
                u = [0] * 6
                u[pa] = 1
                for j, a in zip(free_a, ta):
                    u[j] = a
                u_zero = not q_val(c1, u) and not q_val(c2, u)
                for tb in itertools.product(range(p), repeat=5 - pb):
                    v = [0] * pb + [1] + list(tb)
                    count += 1
                    if hit is None and u_zero and not any(
                            q_val(c, v) or b_val(c, u, v) for c in (c1, c2)):
                        hit = (tuple(u), tuple(v))
    return hit, count


@pytest.mark.parametrize("p, pairs", [(2, 12), (3, 8), (5, 2)], ids=["F2", "F3", "F5"])
def test_plane_search_matches_the_loop_version(p, pairs):
    # random pairs, and random diagonal pairs, which often lack a plane
    import random
    field = PrimeField(p)
    rng = random.Random(60 + p)
    cases = [(_random_form(rng, field, 6), _random_form(rng, field, 6))
             for _ in range(pairs)]
    cases += [(diag(field, [rng.randrange(p) for _ in range(6)]),
               diag(field, [rng.randrange(p) for _ in range(6)])) for _ in range(pairs)]
    if p == 3:
        cases.append((QuadraticForm.of_ints(F3, NO_PLANE_ROWS_1),
                      QuadraticForm.of_ints(F3, NO_PLANE_ROWS_2)))
    if p == 2:
        cases.append((QuadraticForm.of_ints(F2, NO_PLANE_F2_ROWS_1),
                      QuadraticForm.of_ints(F2, NO_PLANE_F2_ROWS_2)))
    absent = 0
    for q1, q2 in cases:
        rep = common_isotropic_plane_rank6(q1, q2)
        want, count = _loop_plane_search(q1, q2)
        got = None if rep.plane is None else tuple(tuple(a.v for a in w) for w in rep.plane)
        assert (got, rep.candidates) == (want, count)
        absent += want is None
    assert absent  # the corpus holds pairs without a plane


def test_simple_rank6_pencils_have_a_line():
    # Lang: the Fano variety of lines of the smooth threefold is a torsor
    # under Jac(C), so it has an F_q-point, i.e. a common isotropic plane
    import random
    for p, want in ((3, 20), (5, 10)):
        field = PrimeField(p)
        rng = random.Random(p)
        found = 0
        while found < want:
            q1, q2 = _random_form(rng, field, 6), _random_form(rng, field, 6)
            if not analyze(Pencil(q1, q2)).simple:
                continue
            found += 1
            assert common_isotropic_plane_rank6(q1, q2).plane is not None


def test_plane_search_gaussian_binomial_values():
    assert gaussian_binomial(6, 2, 2) == 651
    assert gaussian_binomial(6, 2, 3) == 11011
    assert gaussian_binomial(6, 2, 5) == 508431
    assert gaussian_binomial(4, 2, 3) == 130


# --------------------------------------------------------- common zeros


def test_common_zero_search_over_q_finds_planted():
    v = common_isotropic_vector(diag(QQ, [1, 1, 1, -3]), diag(QQ, [1, 2, -1, -2]))
    assert v is not None
    assert not diag(QQ, [1, 1, 1, -3]).evaluate(v)


def test_common_zero_search_exhaustive_over_f3():
    assert common_isotropic_vector(diag(F3, [1, 1]), diag(F3, [1, 2])) is None
