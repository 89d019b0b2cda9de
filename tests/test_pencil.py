"""Pencil discriminants, degeneration reports, and the isotropy
correspondence searches."""

import pytest
from hypothesis import given, settings, strategies as st

from quadclif.rings import QQ, InvariantViolation, PrimeField, scalar_str
from quadclif.quadform import QuadraticForm
from quadclif.splitting import SearchBudget
from quadclif.pencil import (
    BrauerVerdict,
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

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def diag(field, entries):
    return QuadraticForm.diagonal(field, entries)


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


def test_rank4_pair_without_common_zero_has_no_witness():
    r = amer_brumer_check(diag(F3, [1, 1, 1, 1]), diag(F3, [1, 2, 1, 2]))
    assert r.common_zero is None and r.witness is None


def test_f2_rank3_pair():
    q = diag(F2, [1, 1, 1])
    r = amer_brumer_check(q, q)
    assert r.common_zero is not None and r.witness_degree == 0


def test_witness_polynomials_satisfy_the_pencil_identity():
    w = pencil_isotropy_witness(diag(F3, [1, -1, 1]), diag(F3, [1, 1, -1]))
    assert w is not None
    assert max(c.degree() for c in w) == 0


def test_rank5_f3_always_finds_degree_zero():
    # four quadratic conditions in five variables cannot avoid a common
    # zero over a finite field, so the witness is always constant
    w = pencil_isotropy_witness(diag(F3, [1, 1, 1, 2, 2]), diag(F3, [1, 2, 2, 1, 1]))
    assert w is not None and max(c.degree() for c in w) == 0


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
    budget = SearchBudget(height=3, degree=2, enum=3000)
    verdict = brauer_triviality_rank4(diag(QQ, [1, 1, 1, 1]), diag(QQ, [1, 2, 3, 4]),
                                      budget=budget)
    assert verdict.kind == "unknown" and not bool(verdict)
    assert "height" in verdict.scope


def test_brauer_trivial_over_f3():
    # simple degeneration over a finite field always leaves a common
    # zero in reach (the base curve is a pointed genus-1 curve), so the
    # verdict comes back trivial with a checked witness
    verdict = brauer_triviality_rank4(diag(F3, [1, 0, 1, 1]), diag(F3, [0, 1, 1, 2]))
    assert verdict.kind == "trivial"


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
