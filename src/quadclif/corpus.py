"""Deterministic example generators shared by the tests, the acceptance
suite, and the CLI selftest.

Everything here drives a private ``random.Random`` from a fixed or an
explicit integer seed, so a corpus is a pure function of its arguments
and can be regenerated anywhere, any number of times, with identical
output.
"""

from __future__ import annotations

import itertools
import random

from .pencil import Pencil, analyze
from .quadform import QuadraticForm
from .rings import QQ, PrimeField
from .splitting import SearchBudget, find_isotropic

FIELDS = {
    "Q": QQ,
    "F2": PrimeField(2),
    "F3": PrimeField(3),
    "F5": PrimeField(5),
}

DEFAULT_SEED = 1729


def random_form(rng, field, n, zero_weight=0.25, bound=5):
    """Random upper-triangular coefficient form of rank n.

    zero_weight is the chance that any given coefficient slot stays
    empty, which is what lets radicals and other degeneracies appear in
    the sample.
    """
    rows = []
    for i in range(n):
        row = [0] * n
        for j in range(i, n):
            if rng.random() >= zero_weight:
                c = 0
                while c == 0:
                    c = rng.randint(-bound, bound)
                row[j] = c
        rows.append(row)
    return QuadraticForm.of_ints(field, rows)


def form_corpus():
    """200 forms, degenerate ones included: form i lies over Q, F2, F3, F5
    by i mod 4 and has rank 1 + (i // 4) mod 7."""
    rng = random.Random(DEFAULT_SEED)
    fields = ("Q", "F2", "F3", "F5")
    return [random_form(rng, FIELDS[fields[i % 4]], 1 + (i // 4) % 7) for i in range(200)]


def orthogonal_pair_corpus():
    """50 pairs over F3/F5 whose ranks sum to at most 6."""
    rng = random.Random(DEFAULT_SEED + 1)
    out = []
    for _ in range(50):
        field = FIELDS[rng.choice(("F3", "F5"))]
        na = rng.randint(1, 5)
        nb = rng.randint(1, 6 - na)
        out.append((random_form(rng, field, na), random_form(rng, field, nb)))
    return out


def isotropic_form_corpus():
    """100 (form, isotropic vector) samples, ranks 3 to 6 over F3/F5/Q.

    The vector is required to lie outside the radical, so splitting off
    a hyperbolic plane through it is possible.  Rejection sampling: a
    draw without such a vector inside the search budget (height 4) is
    discarded.
    """
    rng = random.Random(DEFAULT_SEED + 2)
    budget = SearchBudget(height=4)
    out = []
    while len(out) < 100:
        field = FIELDS[rng.choice(("F3", "F5", "Q"))]
        n = rng.randint(3, 6)
        q = random_form(rng, field, n, zero_weight=0.15, bound=4)
        v = find_isotropic(q, budget)
        if v is None:
            continue
        bv = q.polar_matrix().mul_vec(v)
        if all(not a for a in bv):
            continue
        out.append((q, v))
    return out


def morita_corpus():
    """The fixed list of twenty rank <= 4 forms used to exercise the
    matrix-algebra witness, with one-dimensional radicals represented on
    every field."""
    Q, F3, F5 = FIELDS["Q"], FIELDS["F3"], FIELDS["F5"]
    specs = [
        (F3, [1]),
        (F3, [1, 1]),
        (F3, [1, 2]),
        (F3, [1, 1, 1]),
        (F3, [1, 1, 2]),
        (F3, [1, 2, 0]),
        (F3, [1, 1, 1, 1]),
        (F3, [1, 1, 1, 2]),
        (F3, [1, 1, 2, 0]),
        (F5, [1]),
        (F5, [1, 2]),
        (F5, [1, 1, 1]),
        (F5, [2, 3, 0]),
        (F5, [1, 2, 3, 4]),
        (F5, [1, 1, 1, 0]),
        (Q, [1]),
        (Q, [1, -1]),
        (Q, [1, 2, -3]),
        (Q, [1, -1, 0]),
        (Q, [1, 2, 3, -6]),
    ]
    return [QuadraticForm.diagonal(f, cs) for f, cs in specs]


def rank5_pencil_corpus():
    """50 nonzero rank-5 pairs over F3 for the isotropy-witness bound."""
    rng = random.Random(DEFAULT_SEED + 3)
    f3 = FIELDS["F3"]
    out = []
    while len(out) < 50:
        q1 = random_form(rng, f3, 5, zero_weight=0.2)
        q2 = random_form(rng, f3, 5, zero_weight=0.2)
        if _is_zero_form(q1) or _is_zero_form(q2):
            continue
        out.append(Pencil(q1, q2))
    return out


def squarefree_pencil_corpus(n, field_name):
    """20 pencils of rank-n forms whose discriminant is squarefree."""
    rng = random.Random(DEFAULT_SEED + 100 * n + sum(map(ord, field_name)))
    field = FIELDS[field_name]
    out = []
    while len(out) < 20:
        q1 = random_form(rng, field, n, zero_weight=0.1, bound=3)
        q2 = random_form(rng, field, n, zero_weight=0.1, bound=3)
        rep = analyze(Pencil(q1, q2))
        if rep.identically_degenerate or not rep.squarefree:
            continue
        out.append(Pencil(q1, q2))
    return out


def all_diagonal_forms(field, n, regular_only=False):
    """Every diagonal rank-n form over a small prime field, in a fixed
    order.  regular_only drops the zero coefficient."""
    p = field.size()
    lo = 1 if regular_only else 0
    vals = range(lo, p)
    return [QuadraticForm.diagonal(field, list(combo))
            for combo in itertools.product(vals, repeat=n)]


def _is_zero_form(q):
    return not any(any(a for a in row) for row in q.c)
