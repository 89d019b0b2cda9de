"""The seeded corpora must be reproducible and hit their stated scopes."""

from quadclif.corpus import (
    FIELDS,
    all_diagonal_forms,
    form_corpus,
    isotropic_form_corpus,
    morita_corpus,
    orthogonal_pair_corpus,
    rank5_pencil_corpus,
    squarefree_pencil_corpus,
)
from quadclif.pencil import analyze


def test_form_corpus_scope():
    forms = form_corpus()
    assert len(forms) == 200
    assert {q.n for q in forms} == {1, 2, 3, 4, 5, 6, 7}
    assert {q.field.label() for q in forms} == {"Q", "Fp:2", "Fp:3", "Fp:5"}
    assert any(q.radical_basis() for q in forms)
    assert any(not q.radical_basis() for q in forms)


def test_form_corpus_is_deterministic():
    a = form_corpus()
    b = form_corpus()
    assert [q.c for q in a] == [q.c for q in b]


def test_orthogonal_pairs_stay_small():
    pairs = orthogonal_pair_corpus()
    assert len(pairs) == 50
    for a, b in pairs:
        assert a.field is b.field
        assert a.n + b.n <= 6
        assert a.field.label() in ("Fp:3", "Fp:5")


def test_isotropic_corpus_vectors_are_regular():
    samples = isotropic_form_corpus()
    assert len(samples) == 100
    for q, v in samples:
        assert 3 <= q.n <= 6
        assert not q.evaluate(v)
        assert any(a for a in q.polar_matrix().mul_vec(v))


def test_morita_corpus_is_the_fixed_twenty():
    forms = morita_corpus()
    assert len(forms) == 20
    assert all(q.n <= 4 for q in forms)
    degenerate_fields = {q.field.label() for q in forms
                         if len(q.radical_basis()) == 1}
    assert degenerate_fields == {"Q", "Fp:3", "Fp:5"}


def test_rank5_pencils():
    pens = rank5_pencil_corpus()
    assert len(pens) == 50
    for pen in pens:
        assert pen.n == 5
        assert pen.field.label() == "Fp:3"


def test_squarefree_pencils_are_squarefree():
    pens = squarefree_pencil_corpus(4, "F5")
    assert len(pens) == 20
    for pen in pens[:5]:
        rep = analyze(pen)
        assert rep.squarefree and not rep.identically_degenerate


def test_diagonal_sweeps():
    assert len(all_diagonal_forms(FIELDS["F3"], 4, regular_only=True)) == 16
    assert len(all_diagonal_forms(FIELDS["F5"], 4, regular_only=True)) == 256
    assert len(all_diagonal_forms(FIELDS["F2"], 3)) == 8
    regs = all_diagonal_forms(FIELDS["F3"], 3, regular_only=True)
    assert all(not q.radical_basis() for q in regs)
