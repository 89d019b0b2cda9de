"""Isotropic subspace enumeration, rulings, and the center comparison."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadclif import lagrangian
from quadclif.rings import (
    ExtensionField,
    InvariantViolation,
    Poly,
    PrimeField,
    ResidueCoding,
    quadratic_extension,
    residue_coding,
)
from quadclif.quadform import QuadraticForm
from quadclif.lagrangian import (
    enumerate_isotropic,
    ruling_components,
    stein_vs_center,
)

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
F9 = quadratic_extension(F3)
F4 = quadratic_extension(F2)
F8 = ExtensionField(F2, Poly.of_ints(F2, "x", [1, 1, 0, 1]))  # x^3 + x + 1


def _rref_bases(field, k, n):
    """Every k x n matrix in reduced row echelon form of rank k."""
    elems = field.elements()
    zero, one = field.zero(), field.one()
    for pivots in itertools.combinations(range(n), k):
        slots = [(i, j) for i, p in enumerate(pivots)
                 for j in range(p + 1, n) if j not in pivots]
        for values in itertools.product(elems, repeat=len(slots)):
            rows = [[zero] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = one
            for (i, j), v in zip(slots, values):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def _brute_isotropic(q, k):
    return {sub for sub in _rref_bases(q.field, k, q.n)
            if not any(q.evaluate(u) for u in sub)
            and not any(q.polar(u, v) for u, v in itertools.combinations(sub, 2))}


def _seeded_forms(field, n, count, seed):
    """Random upper triangular forms; every other one gets a zero last
    row and column, so the corpus holds degenerate forms too."""
    rng = random.Random(seed)
    elems = field.elements()
    zero = field.zero()
    out = []
    for t in range(count):
        rows = [[rng.choice(elems) if j >= i else zero for j in range(n)] for i in range(n)]
        if t % 2:
            for i in range(n):
                rows[i][n - 1] = zero
        out.append(QuadraticForm(field, rows))
    return out


def _coded(q, r):
    """The residue coding of q's field and the checked stack of residue
    rows of its (r+1)-dimensional totally isotropic subspaces."""
    return ResidueCoding(q.field), lagrangian._enumerate_codes(q, r)


# ------------------------------------------------------- enumeration


def test_split_rank4_counts_are_2q_plus_2():
    for F, want in ((F2, 6), (F3, 8), (F5, 12)):
        subs = enumerate_isotropic(QuadraticForm.hyperbolic(F, 2), 1)
        assert len(subs) == want


def test_isotropic_lines_are_quadric_points():
    q = QuadraticForm.hyperbolic(F3, 2)
    lines = enumerate_isotropic(q, 0)
    assert len(lines) == 16  # (q+1)^2 for the split rank-4 quadric
    for (row,) in lines:
        assert not q.evaluate(row)
        lead = next(i for i, a in enumerate(row) if a)
        assert row[lead] == F3.one()


def test_hyperbolic_line_has_two_isotropic_lines():
    q = QuadraticForm.hyperbolic(F3, 1)
    lines = enumerate_isotropic(q, 0)
    pts = {row for (row,) in lines}
    assert pts == {(F3.one(), F3.zero()), (F3.zero(), F3.one())}


def test_witt_index_one_has_no_planes():
    assert enumerate_isotropic(QuadraticForm.diagonal(F3, [1, 1, 1, 2]), 1) == ()


def test_degenerate_form_keeps_radical_points():
    q = QuadraticForm.diagonal(F3, [1, 1, 0])
    lines = enumerate_isotropic(q, 0)
    assert (F3.zero(), F3.zero(), F3.one()) in {row for (row,) in lines}


def test_enumeration_is_deterministic_and_rref():
    q = QuadraticForm.hyperbolic(F3, 2)
    first = enumerate_isotropic(q, 1)
    second = enumerate_isotropic(q, 1)
    assert first == second
    from quadclif.rings import Matrix
    for sub in first:
        red, piv = Matrix(F3, [list(r) for r in sub]).rref()
        assert red.rows == sub and len(piv) == 2


@pytest.mark.parametrize("field, ranks", [(F2, (2, 3, 4, 5)), (F3, (2, 3, 4, 5)),
                                          (F5, (2, 3, 4)), (F9, (2, 3, 4)),
                                          (F4, (2, 3, 4)), (F8, (2, 3, 4))],
                         ids=["F2", "F3", "F5", "F9", "F4", "F8"])
def test_enumeration_matches_brute_force(field, ranks):
    # every RREF basis filtered by q and b on wrapped elements, for each
    # dimension until none is left (the Witt index plus the radical)
    index = {a: i for i, a in enumerate(field.elements())}
    for n in ranks:
        for q in _seeded_forms(field, n, 3, seed=n):
            for k in range(1, n + 1):
                got = enumerate_isotropic(q, k - 1)
                want = _brute_isotropic(q, k)
                assert len(got) == len(want) and set(got) == want
                codes = [tuple(index[a] for row in sub for a in row) for sub in got]
                assert codes == sorted(codes)
                if not want:
                    break


@pytest.mark.parametrize("field, ranks", [(F3, (2, 4, 6)), (F5, (2, 4, 6)), (F9, (2, 4))],
                         ids=["F3", "F5", "F9"])
def test_point_counts_of_regular_even_forms(field, ranks):
    # (q^m - e)(q^(m-1) + e)/(q - 1) isotropic points, e = +1 exactly when
    # (-1)^m disc is a square
    size = field.size()
    rng = random.Random(1)
    for n in ranks:
        seen = set()
        while len(seen) < 2:
            q = _seeded_forms(field, n, 1, seed=rng.random())[0]
            disc = q.discriminant()
            if not disc:
                continue
            m = n // 2
            e = 1 if field.is_square(field.from_int((-1) ** m) * disc) else -1
            seen.add(e)
            want = (size ** m - e) * (size ** (m - 1) + e) // (size - 1)
            assert len(enumerate_isotropic(q, 0)) == want


def test_enumeration_budget_errors():
    with pytest.raises(ValueError):
        enumerate_isotropic(QuadraticForm.zero_form(F3, 7), 0)
    F25 = quadratic_extension(F5)
    big = QuadraticForm.hyperbolic(F25, 3)
    with pytest.raises(ValueError):
        enumerate_isotropic(big, 2)
    from quadclif.rings import QQ
    with pytest.raises(ValueError):
        enumerate_isotropic(QuadraticForm.diagonal(QQ, [1, -1]), 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3 ** 10 - 1))
def test_planes_lie_on_the_line_set(code):
    vals = []
    for _ in range(10):
        vals.append(code % 3)
        code //= 3
    q = QuadraticForm.of_ints(
        F3, [[vals[0], vals[1], vals[2], vals[3]],
             [0, vals[4], vals[5], vals[6]],
             [0, 0, vals[7], vals[8]],
             [0, 0, 0, vals[9]]])
    pts = {row for (row,) in enumerate_isotropic(q, 0)}
    for u, v in enumerate_isotropic(q, 1):
        # the four projective points of the plane, already normalized
        # because u, v are the RREF basis
        combos = [v, u]
        for c in (F3.one(), F3.from_int(2)):
            combos.append(tuple(a + c * b for a, b in zip(u, v)))
        for w in combos:
            assert w in pts
        assert not q.polar(u, v)


# ------------------------------------------------- the isotropy check


F25 = quadratic_extension(F5)


@pytest.mark.parametrize("field", [F3, F5, F9, F25], ids=["F3", "F5", "F9", "F25"])
def test_isotropy_check_refuses_planted_bases(field):
    # H(2) = x0 x1 + x2 x3; c is the generator over an extension, so the
    # planted values live in the second residue there
    q = QuadraticForm.hyperbolic(field, 2)
    coding, planes = _coded(q, 1)
    z, o = field.zero(), field.one()
    c = field.gen() if field.kind == "extension" else o
    valued = coding.array([[o, c, z, z], [z, z, o, z]])  # q(e0 + c e1) = c
    paired = coding.array([[o, z, z, z], [z, c, z, z]])  # b(e0, c e1) = c
    lagrangian._assert_totally_isotropic(q, planes)
    for bad, detail in ((valued, "nonzero value"), (paired, "nonzero polar value")):
        stack = np.concatenate([planes[:3], bad[None], planes[3:]])
        with pytest.raises(InvariantViolation) as err:
            lagrangian._assert_totally_isotropic(q, stack)
        assert err.value.invariant == "isotropic-basis"
        assert detail in str(err.value)


def _check_verdict(q, basis):
    """None when the isotropy check passes the basis, else its message."""
    try:
        lagrangian._assert_totally_isotropic(q, ResidueCoding(q.field).array([basis]))
    except InvariantViolation as err:
        assert err.invariant == "isotropic-basis"
        return str(err)
    return None


@pytest.mark.parametrize("field", [F3, F9], ids=["F3", "F9"])
def test_isotropy_check_agrees_with_wrapped_evaluation(field):
    # every vector of rank <= 4, and a seeded sample of pairs, against
    # evaluate and polar on wrapped elements
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for q in _seeded_forms(field, n, 2 if n < 4 else 1, seed=10 + n):
            value = {v: q.evaluate(v) for v in itertools.product(field.elements(), repeat=n)}
            for v, a in value.items():
                got = _check_verdict(q, [v])
                assert "nonzero value" in got if a else got is None
            vectors = list(value)
            zeros = [v for v in vectors if not value[v]]
            pairs = [rng.sample(vectors, 2) for _ in range(100)]
            pairs += [(rng.choice(zeros), rng.choice(zeros)) for _ in range(100)]
            for u, v in pairs:
                got = _check_verdict(q, [u, v])
                if value[u] or value[v]:
                    assert "nonzero value" in got
                elif q.polar(u, v):
                    assert "nonzero polar value" in got
                else:
                    assert got is None


def _answer_digest(reports):
    """sha256 of what stein_vs_center reported on each form of a list of
    (form, report) pairs (count, component sizes, labels, Frobenius
    permutation, basis strings) and, below rank 6, of every
    enumerate_isotropic level over the field the report enumerated in."""
    import hashlib
    import json

    out = []
    for q, r in reports:
        lag = r.lagrangians
        entry = [r.count, list(r.component_sizes), list(lag.labels),
                 None if lag.frobenius is None else list(lag.frobenius),
                 [list(sub) for sub in lag.basis_strings()]]
        if q.n < 6:
            qe = q
            if r.extension_used:
                ext = quadratic_extension(q.field)
                qe = q.map_field(ext, ext.embed)
            # the position of each entry in field.elements(), as int16
            index = {a: i for i, a in enumerate(qe.field.elements())}
            for k in range(q.n // 2):
                codes = np.array([[[index[a] for a in row] for row in sub]
                                  for sub in enumerate_isotropic(qe, k)], dtype=np.int16)
                entry.append(hashlib.sha256(codes.tobytes()).hexdigest())
        out.append(entry)
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def _pinned_digests():
    """The _answer_digest of each corpus as the release that checked
    isotropy on wrapped elements and decoded before the rulings gave it;
    the rank-6 case over F9 is compared in
    test_stein_rank6_nonsplit_over_f3_goes_to_f9."""
    import json
    from pathlib import Path

    return json.loads((Path(__file__).parent / "data" / "lagrangian_digests.json").read_text())


def test_answers_match_the_pinned_digests():
    # the enumeration, ruling labels, Frobenius permutation and basis
    # strings on the c09 corpus and a split rank-6 form
    from quadclif.corpus import all_diagonal_forms

    corpora = {
        "c09-F3": all_diagonal_forms(F3, 4, regular_only=True),
        "c09-F5": all_diagonal_forms(F5, 4, regular_only=True),
        "rank6-F3-split": [QuadraticForm.hyperbolic(F3, 3)],
    }
    pinned = _pinned_digests()
    for name, forms in corpora.items():
        assert _answer_digest([(q, stein_vs_center(q)) for q in forms]) == pinned[name], name


def test_frobenius_matrix_is_the_p_power_map():
    for F in (F4, F8, F9, F25):
        coding = ResidueCoding(F)
        elems = F.elements()
        images = coding.conjugate(coding.array([elems]))
        assert coding.decode(images) == (tuple(a ** F.base.size() for a in elems),)
    assert ResidueCoding(F3).frobenius is None


# ----------------------------------------------------------- rulings


def test_h2_rulings_split_evenly():
    for F in (F2, F3, F5):
        coding, subs = _coded(QuadraticForm.hyperbolic(F, 2), 1)
        part = ruling_components(coding, subs, 2)
        assert part.sizes == (len(subs) // 2, len(subs) // 2)


def test_h3_f2_rulings():
    coding, subs = _coded(QuadraticForm.hyperbolic(F2, 3), 2)
    assert len(subs) == 30
    part = ruling_components(coding, subs, 3)
    assert part.sizes == (15, 15)


def test_h1_rulings_are_singletons():
    coding, subs = _coded(QuadraticForm.hyperbolic(F3, 1), 0)
    part = ruling_components(coding, subs, 1)
    assert part.sizes == (1, 1)


def test_single_lagrangian_is_rejected():
    coding, subs = _coded(QuadraticForm.hyperbolic(F3, 2), 1)
    with pytest.raises(ValueError):
        ruling_components(coding, subs[:1], 2)


def test_wrong_dimension_is_rejected():
    coding, subs = _coded(QuadraticForm.hyperbolic(F3, 2), 1)
    with pytest.raises(ValueError):
        ruling_components(coding, subs, 3)


def test_one_ruling_alone_is_refuted():
    coding, subs = _coded(QuadraticForm.hyperbolic(F3, 2), 1)
    labels = np.array(ruling_components(coding, subs, 2).labels)
    with pytest.raises(InvariantViolation) as err:
        ruling_components(coding, subs[labels == 0], 2)
    assert err.value.invariant == "ruling-two-classes"


def test_intersection_parity_within_components():
    # lagrangians in one ruling meet in a dimension congruent to m mod 2,
    # across rulings in the other parity: checked by rank on every pair,
    # over the ground field and over the quadratic extension
    from quadclif.rings import Matrix
    for q in (QuadraticForm.hyperbolic(F3, 2), QuadraticForm.hyperbolic(F3, 3),
              QuadraticForm.diagonal(F3, [1, 1, 1, 2]), QuadraticForm.diagonal(F5, [1, 1, 1, 2])):
        rep = stein_vs_center(q)
        lag = rep.lagrangians
        over = quadratic_extension(q.field) if rep.extension_used else q.field
        for (u, a), (v, b) in itertools.combinations(zip(lag.subspaces, lag.labels), 2):
            meet = q.n - Matrix(over, [list(row) for row in u + v]).rank()
            assert (lag.m - meet) % 2 == (a != b)


# -------------------------------------------- the spinor certificate


# split forms over F3 at ranks 2, 4 and 6, nonsplit ones whose
# lagrangians live over F9 and F25, and a split form over F9 itself,
# whose even algebra holds its structure constants as field elements
PLANTED = [
    QuadraticForm.diagonal(F3, [1, 2]),
    QuadraticForm.diagonal(F3, [1, 1, 1, 1]),
    QuadraticForm.diagonal(F3, [1, 1, 1, 1, 1, 2]),
    QuadraticForm.diagonal(F3, [1, 1, 1, 2]),
    QuadraticForm.diagonal(F5, [1, 1, 1, 2]),
    QuadraticForm.diagonal(F9, [1, F9.gen(), 1, 1]),
]
PLANTED_IDS = ["F3-rank2", "F3-rank4", "F3-rank6", "F9-rank4", "F25-rank4", "F9-ground-rank4"]


@pytest.mark.parametrize("q", PLANTED, ids=PLANTED_IDS)
def test_flipped_ruling_label_is_refused(q, monkeypatch):
    import dataclasses

    real = lagrangian.ruling_components

    def flipped(coding, rows, m):  # the last subspace put in the other ruling
        part = real(coding, rows, m)
        return dataclasses.replace(part, labels=part.labels[:-1] + (1 - part.labels[-1],))

    monkeypatch.setattr(lagrangian, "ruling_components", flipped)
    with pytest.raises(InvariantViolation) as err:
        stein_vs_center(q)
    assert err.value.invariant == "ruling-spinor"
    assert "contradicts its ruling label" in str(err.value)


def _corrupted(q, rows):
    """rows with one subspace replaced by one that is not totally
    isotropic: the first entry, from the last subspace on, in a free
    column of some basis row, whose change by 1 breaks isotropy; the
    basis stays in RREF."""
    coding = residue_coding(q.field)
    e = coding.e
    for k in reversed(range(len(rows))):
        sub = rows[k]
        res = coding.elements_axis(sub)
        pivots = res.any(axis=2).argmax(axis=1)
        for i, c in itertools.product(range(len(sub)), range(q.n)):
            if c <= pivots[i] or c in pivots:
                continue
            bad = sub.copy()
            bad[i, c * e] = (bad[i, c * e] + 1) % coding.p
            try:
                lagrangian._assert_totally_isotropic(q, bad[None])
            except InvariantViolation:
                out = rows.copy()
                out[k] = bad
                return out
    raise AssertionError("no entry breaks isotropy")


@pytest.mark.parametrize("q", PLANTED, ids=PLANTED_IDS)
def test_corrupted_subspace_is_refused(q, monkeypatch):
    real = lagrangian._enumerate_codes

    def corrupted(form, r):
        rows = real(form, r)
        return _corrupted(form, rows) if len(rows) else rows

    monkeypatch.setattr(lagrangian, "_enumerate_codes", corrupted)
    with pytest.raises(InvariantViolation) as err:
        stein_vs_center(q)
    assert err.value.invariant == "ruling-spinor"


# ------------------------------------------------- center comparison


def test_stein_square_delta_f5():
    r = stein_vs_center(QuadraticForm.diagonal(F5, [1, 1, 1, 1]))
    assert r.delta_is_square and r.center_kind == "split"
    assert not r.extension_used
    assert r.count == 12 and r.component_sizes == (6, 6)
    assert r.frobenius_swaps is None and r.matches_center


def test_stein_nonsquare_delta_f3():
    r = stein_vs_center(QuadraticForm.diagonal(F3, [1, 1, 1, 2]))
    assert not r.delta_is_square and r.center_kind == "field"
    assert r.extension_used
    assert r.count == 20 and r.component_sizes == (10, 10)
    assert r.frobenius_swaps is True
    perm = r.lagrangians.frobenius
    assert sorted(perm) == list(range(20))
    assert all(perm[perm[i]] == i and perm[i] != i for i in range(20))


def test_stein_nonsquare_delta_f5_goes_to_f25():
    r = stein_vs_center(QuadraticForm.diagonal(F5, [1, 1, 1, 2]))
    assert r.extension_used and r.count == 52
    assert r.component_sizes == (26, 26) and r.frobenius_swaps is True


def test_stein_hyperbolic_line():
    r = stein_vs_center(QuadraticForm.hyperbolic(F3, 1))
    assert r.count == 2 and r.component_sizes == (1, 1)
    assert r.delta_is_square and not r.extension_used


def test_stein_rank6_split_over_f3():
    r = stein_vs_center(QuadraticForm.hyperbolic(F3, 3))
    assert r.delta_is_square and not r.extension_used
    assert r.count == 80 and r.component_sizes == (40, 40)


def test_stein_rank6_nonsplit_over_f3_goes_to_f9():
    # (-1)^3 disc = 2 is a nonsquare mod 3: no planes over F3, and over F9
    # the 2(9+1)(81+1) = 1640 planes split evenly, swapped by Frobenius
    q = QuadraticForm.diagonal(F3, [1] * 6)
    r = stein_vs_center(q)
    assert _answer_digest([(q, r)]) == _pinned_digests()["rank6-F3-to-F9"]
    assert not r.delta_is_square and r.extension_used
    assert r.count == 1640 and r.component_sizes == (820, 820)
    assert r.frobenius_swaps is True
    perm = r.lagrangians.frobenius
    labels = r.lagrangians.labels
    assert all(perm[perm[i]] == i and labels[perm[i]] != labels[i] for i in range(1640))


def test_stein_rejections():
    with pytest.raises(ValueError):
        stein_vs_center(QuadraticForm.diagonal(F3, [1, 1, 1]))  # odd rank
    with pytest.raises(ValueError):
        stein_vs_center(QuadraticForm.hyperbolic(F2, 2))  # char 2
    with pytest.raises(ValueError):
        stein_vs_center(QuadraticForm.diagonal(F3, [1, 1, 1, 0]))  # degenerate
    from quadclif.rings import QQ
    with pytest.raises(ValueError):
        stein_vs_center(QuadraticForm.diagonal(QQ, [1, 1, 1, 1]))


def test_all_regular_diagonal_rank2_forms_f3():
    # tiny complete sweep: both center kinds appear and every report
    # is internally consistent
    kinds = set()
    for a in (1, 2):
        for b in (1, 2):
            r = stein_vs_center(QuadraticForm.diagonal(F3, [a, b]))
            kinds.add(r.center_kind)
            assert r.matches_center
            if r.delta_is_square:
                assert r.count == 2
            else:
                assert r.extension_used and r.frobenius_swaps
    assert kinds == {"split", "field"}


def test_basis_strings_are_exact():
    r = stein_vs_center(QuadraticForm.hyperbolic(F3, 1))
    strs = r.lagrangians.basis_strings()
    assert set(strs) == {("1 0",), ("0 1",)}
