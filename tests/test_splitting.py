"""Isotropic vector search and hyperbolic reduction."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadclif.rings import QQ, PrimeField, quadratic_extension
from quadclif.pencil import brauer_triviality_rank4, common_isotropic_vector
from quadclif.quadform import QuadraticForm
from quadclif.splitting import (
    DEFAULT_BUDGET,
    SearchBudget,
    _first_common_zero,
    _shell_blocks,
    find_isotropic,
    hyperbolic_complement,
    reduce_fully,
    search_is_exhaustive,
    split_hyperbolic,
)
from references import height_shell, sweep_first_common_zero

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def ints(field, vals):
    return tuple(field.from_int(v) for v in vals)


# ---------------------------------------------------------------- search


def test_first_witness_is_lexicographic_over_f3():
    q = QuadraticForm.diagonal(F3, [1, 1, 1])
    v = find_isotropic(q)
    assert v == ints(F3, [1, 1, 1])
    assert not q.evaluate(v)


def test_anisotropic_rank2_proof_over_f3():
    q = QuadraticForm.diagonal(F3, [1, 1])
    assert find_isotropic(q) is None
    assert search_is_exhaustive(F3)


def test_rank1_never_isotropic():
    assert find_isotropic(QuadraticForm.diagonal(F5, [3])) is None
    assert find_isotropic(QuadraticForm.diagonal(QQ, [7])) is None


def test_zero_diagonal_entry_found_immediately():
    q = QuadraticForm.diagonal(F5, [0, 1, 2])
    v = find_isotropic(q)
    assert v == ints(F5, [1, 0, 0])


def test_rational_search_hits_and_misses():
    hit = QuadraticForm.diagonal(QQ, [1, -1])
    v = find_isotropic(hit)
    assert v == (Fraction(1), Fraction(-1))
    # x^2 = 2y^2 has no rational point; bounded search cannot prove that
    miss = QuadraticForm.diagonal(QQ, [1, -2])
    assert find_isotropic(miss) is None
    assert not search_is_exhaustive(QQ)


def test_rational_witness_normalization():
    # 3x^2 - 27y^2 vanishes on (3, -1); search should return the primitive
    # representative with positive leading entry.
    q = QuadraticForm.diagonal(QQ, [3, -27])
    v = find_isotropic(q)
    assert v == (Fraction(3), Fraction(-1))


def test_extension_field_search():
    F9 = quadratic_extension(F3)
    q = QuadraticForm.diagonal(F9, [F9.one(), F9.one()])
    v = find_isotropic(q)
    assert v is not None and not q.evaluate(v)
    # -1 is a square in F9, so <1,1> is isotropic there but not over F3


def test_budget_is_respected_over_q():
    # the minimal witnesses of x^2 = 25y^2 have height 5; height 4 misses them
    q = QuadraticForm.diagonal(QQ, [1, -25])
    assert find_isotropic(q, SearchBudget(height=4)) is None
    assert find_isotropic(q, SearchBudget(height=5)) == (Fraction(5), Fraction(-1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_height_shells_are_the_filtered_product(n):
    # the reference sweep visits the shells of height exactly h in the
    # lexicographic order of the full product, lower shells left out
    for h in (1, 2, 3):
        want = [v for v in itertools.product(range(-h, h + 1), repeat=n)
                if max(abs(c) for c in v) == h]
        assert list(height_shell(h, n)) == want


@pytest.mark.parametrize("block", [1, 7, 50, 1 << 15])
def test_shell_blocks_are_the_shell_with_positive_lead(monkeypatch, block):
    # the blocks the sweep over Q scores are the shell in product order
    # with the vectors of negative first nonzero coordinate left out, cut
    # at prefix boundaries into blocks that fit
    import quadclif.splitting as splitting
    monkeypatch.setattr(splitting, "_SHELL_BLOCK", block)
    for n in range(1, 6):
        for h in (1, 2, 4):
            want = [v for v in height_shell(h, n) if next(c for c in v if c) > 0]
            blocks = list(_shell_blocks(h, n))
            assert [tuple(v) for b in blocks for v in b.tolist()] == want
            assert all(0 < len(b) <= block for b in blocks)


def _diag_q(entries):
    return QuadraticForm.diagonal(QQ, entries)


# (forms, height budget): anisotropic forms of ranks 1-5, zeros found at
# and just past the budget height, fractional and radical forms, pairs,
# and coefficients that push the scores past int64 onto Python ints
SWEEP_CASES = [
    ([_diag_q([1])], 4),
    ([_diag_q([1, 1])], 6),
    ([_diag_q([1, 1, 1])], 10),
    ([_diag_q([1, 1, -3])], 10),
    ([_diag_q([1, 1, 1, 1])], 5),
    ([_diag_q([1, 2, 3, 5, 7])], 3),
    ([_diag_q([1, -25])], 5),
    ([_diag_q([1, -25])], 4),
    ([_diag_q([1, 1, -49])], 7),
    ([QuadraticForm(QQ, [[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(-7, 6)]])], 6),
    ([QuadraticForm(QQ, [[Fraction(1, 3), 0, 0], [0, Fraction(2, 5), 0], [0, 0, -1]])], 6),
    ([QuadraticForm(QQ, [[Fraction(1, 2), Fraction(1, 2)], [0, Fraction(-1)]])], 2),
    ([QuadraticForm.of_ints(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, -2]])], 3),
    ([_diag_q([1, 1, -1, -1]), _diag_q([1, 2, -1, -2])], 4),
    ([_diag_q([1, 1, 1, 1]), _diag_q([1, 2, 3, 5])], 3),
    ([_diag_q([10 ** 17, 10 ** 17, 3 * 10 ** 16])], 6),
    ([_diag_q([10 ** 17, -4 * 10 ** 17])], 3),
    ([_diag_q([1, -(10 ** 18)]), _diag_q([0, 0])], 2),
]


@pytest.mark.parametrize("forms, height", SWEEP_CASES)
def test_sweep_over_q_matches_the_per_vector_reference(forms, height):
    assert _first_common_zero(forms, SearchBudget(height)) \
        == sweep_first_common_zero(forms, height)


def test_sweep_over_q_matches_the_reference_on_random_forms():
    rng = random.Random(31)

    def entry():
        if rng.random() < 0.3:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return Fraction(rng.randint(-4, 4))

    for _ in range(120):
        n, k = rng.randint(1, 4), rng.randint(1, 2)
        forms = [QuadraticForm(QQ, [[entry() if j >= i and rng.random() < 0.6 else Fraction(0)
                                     for j in range(n)] for i in range(n)]) for _ in range(k)]
        height = rng.randint(1, 4)
        assert _first_common_zero(forms, SearchBudget(height)) \
            == sweep_first_common_zero(forms, height)


# ------------------------------------------------------- splitting a plane


def test_hyperbolic_complement_axioms():
    q = QuadraticForm.diagonal(QQ, [1, -1, 1, 1])
    v = find_isotropic(q)
    w = hyperbolic_complement(q, v)
    assert not q.evaluate(w)
    assert q.polar(v, w) == QQ.one()


def test_hyperbolic_complement_char2():
    # x0*x1 + x2^2 over F2: v = e0 is isotropic, complement must pair to 1
    rows = [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
    q = QuadraticForm.of_ints(F2, rows)
    v = ints(F2, [1, 0, 0])
    w = hyperbolic_complement(q, v)
    assert not q.evaluate(w)
    assert q.polar(v, w) == F2.one()


def test_split_hyperbolic_exact_blocks():
    q = QuadraticForm.diagonal(QQ, [1, -1, 1, 1])
    v = find_isotropic(q)
    w, comp, rest = split_hyperbolic(q, v)
    assert len(comp) == 2
    pair = q.restrict([v, w])
    assert pair.c[0][0] == QQ.zero()
    assert pair.c[1][1] == QQ.zero()
    assert pair.c[0][1] == QQ.one()
    assert rest == QuadraticForm.diagonal(QQ, [1, 1])
    # the two blocks are orthogonal
    for b in comp:
        assert q.polar(v, b) == QQ.zero()
        assert q.polar(w, b) == QQ.zero()


def test_split_rejects_radical_vector():
    q = QuadraticForm.diagonal(F5, [1, 0])
    v = ints(F5, [0, 1])
    with pytest.raises(ValueError):
        split_hyperbolic(q, v)


# ------------------------------------------------------------- reduction


def test_reduce_fully_rational_example():
    q = QuadraticForm.diagonal(QQ, [1, -1, 1, 1])
    rep = reduce_fully(q)
    assert rep.witt_index == 1
    assert rep.anisotropic_form == QuadraticForm.diagonal(QQ, [1, 1])
    assert rep.radical_basis == []
    assert not rep.conclusive  # bounded search cannot certify anisotropy over Q


def test_reduce_fully_finite_rank6():
    q = QuadraticForm.diagonal(F5, [1, 2, 3, 4, 1, 2])
    rep = reduce_fully(q)
    assert rep.witt_index == 2
    assert rep.anisotropic_form.n == 2
    assert rep.conclusive


def test_reduce_fully_hyperbolic_space():
    q = QuadraticForm.hyperbolic(F3, 2)
    rep = reduce_fully(q)
    assert rep.witt_index == 2
    assert rep.anisotropic_basis == []
    assert rep.conclusive


def test_reduce_carries_radical():
    q = QuadraticForm.diagonal(F5, [1, 0, 4, 0])
    rep = reduce_fully(q)
    assert rep.witt_index == 1
    assert len(rep.radical_basis) == 2
    assert rep.anisotropic_basis == []
    assert rep.conclusive


def test_reduction_witness_is_in_original_coordinates():
    q = QuadraticForm.diagonal(F5, [1, 2, 3, 4, 1, 2])
    rep = reduce_fully(q)
    for v, w in rep.pairs:
        assert q.evaluate(v) == F5.zero()
        assert q.evaluate(w) == F5.zero()
        assert q.polar(v, w) == F5.one()
    full = [u for vw in rep.pairs for u in vw]
    full += rep.anisotropic_basis + rep.radical_basis
    expected = QuadraticForm.hyperbolic(F5, rep.witt_index)
    expected = expected.direct_sum(rep.anisotropic_form)
    expected = expected.direct_sum(rep.radical_form)
    assert q.restrict(full) == expected


def test_normal_form_string_mentions_blocks():
    q = QuadraticForm.diagonal(F5, [1, 0, 4, 0])
    rep = reduce_fully(q)
    assert rep.describe() == "H(1) + aniso(0) + rad(2)"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=5))
def test_reduction_random_diagonals_f5(entries):
    q = QuadraticForm.diagonal(F5, entries)
    rep = reduce_fully(q)
    assert rep.conclusive
    assert 2 * rep.witt_index + rep.anisotropic_form.n + len(
        rep.radical_basis
    ) == len(entries)
    # anisotropic over a finite field means rank <= 2
    assert rep.anisotropic_form.n <= 2
    if rep.anisotropic_form.n:
        assert find_isotropic(rep.anisotropic_form) is None


def test_budget_constructor_validation():
    with pytest.raises(ValueError):
        SearchBudget(height=0)
    assert DEFAULT_BUDGET.height == 10


def test_reduce_fully_rank1_leftover_is_conclusive():
    # <1,-1,2> = H + <2>; the line is regular, so nothing is left to search
    rep = reduce_fully(QuadraticForm.diagonal(QQ, [1, -1, 2]))
    assert rep.witt_index == 1
    assert rep.anisotropic_form.n == 1
    assert rep.conclusive


# --------------------------------------------- canonical point searches


def _brute_first(field, n, *forms, height=3):
    """The first common zero of forms.  Over a finite field: among all of
    F^n, by sorting every normalized zero on (leading column, element
    positions).  Over Q: among the integer vectors of height <= height
    that are primitive with a positive first nonzero entry, by height,
    then lexicographically."""
    if field.size() is None:
        zeros = [v for v in itertools.product(range(-height, height + 1), repeat=n)
                 if math.gcd(*v) == 1 and next(a for a in v if a) > 0
                 and not any(q.evaluate(tuple(map(Fraction, v))) for q in forms)]
        first = min(zeros, key=lambda v: (max(map(abs, v)), v), default=None)
        return None if first is None else tuple(map(Fraction, first))
    elems = field.elements()
    pos = {e: i for i, e in enumerate(elems)}
    zeros = []
    for v in itertools.product(elems, repeat=n):
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is None or v[lead] != field.one():
            continue
        if not any(q.evaluate(v) for q in forms):
            zeros.append((lead, [pos[a] for a in v], v))
    return min(zeros, key=lambda z: z[:2])[2] if zeros else None


def _random_upper(rng, field, n):
    if field.size() is None:
        elems = [Fraction(a, b) for a in range(-3, 4) for b in (1, 1, 1, 2, 3)]
    else:
        elems = field.elements()
    return QuadraticForm(field, [[rng.choice(elems) if j >= i and rng.random() < 0.7
                                  else field.zero() for j in range(n)] for i in range(n)])


def _plant(q, v):
    """q changed in the diagonal entry at the first nonzero entry of v so
    that q(v) = 0."""
    i = next(k for k, a in enumerate(v) if a)
    rows = [list(r) for r in q.c]
    rows[i][i] -= q.evaluate(v) / (v[i] * v[i])
    return QuadraticForm(q.field, rows)


@pytest.mark.parametrize("field, ranks", [
    (F2, (1, 2, 3, 4)), (F3, (1, 2, 3, 4)), (F5, (1, 2, 3)),
    (quadratic_extension(F3), (1, 2, 3)), (quadratic_extension(F5), (1, 2)),
    (PrimeField(31), (2, 3)), (quadratic_extension(PrimeField(7)), (1, 2)),
    (QQ, (2, 3, 4)),
], ids=["F2", "F3", "F5", "F9", "F25", "F31", "F49", "Q"])
def test_point_searches_match_brute_force(field, ranks):
    if field.size() is None:
        _rational_point_searches_match_brute_force(ranks)
        return
    rng = random.Random(field.size())
    for n in ranks:
        for _ in range(4 if n < 3 else 2):
            q1, q2 = _random_upper(rng, field, n), _random_upper(rng, field, n)
            assert find_isotropic(q1) == _brute_first(field, n, q1)
            assert common_isotropic_vector(q1, q2) == _brute_first(field, n, q1, q2)
    # anisotropic over every finite field: x^2 - a y^2, a a nonsquare
    if field.characteristic != 2:
        a = next(e for e in field.elements() if not field.is_square(e))
        q = QuadraticForm.diagonal(field, [field.one(), -a])
        assert find_isotropic(q) is None and _brute_first(field, 2, q) is None


def _rational_point_searches_match_brute_force(ranks):
    rng = random.Random(13)
    budget = SearchBudget(height=3)
    found = 0
    for n in ranks:
        for k in range(8):
            q1, q2 = _random_upper(rng, QQ, n), _random_upper(rng, QQ, n)
            if k % 2:
                # half the pencils get a common zero within the height
                v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                if any(v):
                    q1, q2 = _plant(q1, v), _plant(q2, v)
            want = _brute_first(QQ, n, q1, q2)
            found += want is not None
            assert find_isotropic(q1, budget) == _brute_first(QQ, n, q1)
            assert common_isotropic_vector(q1, q2, budget) == want
    assert found >= 6
    # first zeros of height 4: out of reach at height 3, found at 4
    q = QuadraticForm.diagonal(QQ, [16, -1])
    assert find_isotropic(q, budget) is None
    assert find_isotropic(q, SearchBudget(height=4)) == (1, -4)
    q1 = QuadraticForm.diagonal(QQ, [-3, -2, 2, -21])
    q2 = QuadraticForm.diagonal(QQ, [-4, 3, -1, 8])
    assert common_isotropic_vector(q1, q2, budget) is None
    assert brauer_triviality_rank4(q1, q2, budget).kind == "unknown"
    high = SearchBudget(height=4)
    assert common_isotropic_vector(q1, q2, high) == (1, -2, -4, -1) \
        == _brute_first(QQ, 4, q1, q2, height=4)
    assert brauer_triviality_rank4(q1, q2, high).witness == (1, -2, -4, -1)


def test_point_search_past_the_prime_table_bound():
    p = 65521
    F = PrimeField(p)
    q = QuadraticForm.diagonal(F, [1, 1, 1])
    # (1, 0, c) come first, so the answer is the least root of c^2 = -1
    assert min(c for c in range(p) if (1 + c * c) % p == 0) == 24297
    assert find_isotropic(q) == ints(F, [1, 0, 24297])
    assert common_isotropic_vector(q, QuadraticForm.diagonal(F, [0, 1, 0])) \
        == ints(F, [1, 0, 24297])


# ---------------------------------------------------------- base change


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(min_value=1, max_value=5), st.data())
def test_base_change_to_the_quadratic_extension(p, n, data):
    # the Witt index cannot drop along F_p -> F_{p^2}, and every element
    # of F_p, the discriminant included, becomes a square there
    F = PrimeField(p)
    rows = [[data.draw(st.integers(0, p - 1)) if j >= i else 0 for j in range(n)]
            for i in range(n)]
    q = QuadraticForm.of_ints(F, rows)
    E = quadratic_extension(F)
    qe = q.map_field(E, E.embed)
    assert reduce_fully(qe).witt_index >= reduce_fully(q).witt_index
    assert E.is_square(E.embed(q.discriminant()))
