"""The seeded corpus of form pairs whose witness-search answers are pinned
in data/witness_search.json.

Pairs of upper triangular integer rows over F2, F3 and F5 at ranks 2-5,
drawn from one seeded generator and sorted by a pure-Python brute force
over the projective points: up to PER_KIND pairs with a common zero and
up to PER_KIND without one but with zeros of q2, the heads of the
search, for each (p, n), and for p = 3 and 5 at ranks
3 and 4 one pair without a common zero whose q2 vanishes on the first
row and column, so that e_0 is a head in the radical of its polar form:
the search meets a head without a pivot.
Rank 5 has no pair without a common zero (Chevalley-Warning).  The
degree bound is 3, and 2 for rank 4 over F5, where a degree-3 search
visits about 2 million leaves per head.  Nothing here imports quadclif.
"""

import itertools
import random

PER_KIND = 3
DRAWS = 400


def _value(rows, v):
    n = len(v)
    return sum(rows[i][j] * v[i] * v[j] for i in range(n) for j in range(i, n))


def _points(p, n):
    for v in itertools.product(range(p), repeat=n):
        if any(v) and v[next(i for i, a in enumerate(v) if a)] == 1:
            yield v


def _common_zero(p, q1, q2):
    return any(_value(q1, v) % p == 0 and _value(q2, v) % p == 0
               for v in _points(p, len(q1)))


def _rows(rng, p, n):
    return [[rng.randrange(p) if j >= i else 0 for j in range(n)] for i in range(n)]


def witness_corpus():
    """[(p, q1 rows, q2 rows, max_degree)], in a fixed order."""
    rng = random.Random(20111)
    out = []
    for p, n in itertools.product((2, 3, 5), (2, 3, 4, 5)):
        degree = 2 if (p, n) == (5, 4) else 3
        kinds = {True: [], False: []} if n < 5 else {True: []}
        for _ in range(DRAWS):
            q1, q2 = _rows(rng, p, n), _rows(rng, p, n)
            zero = _common_zero(p, q1, q2)
            # a pair without a common zero is searched only where q2 has zeros
            if not zero and not _common_zero(p, q2, q2):
                continue
            if len(kinds.get(zero, ())) < PER_KIND:
                kinds[zero].append((p, q1, q2, degree))
            if all(len(k) == PER_KIND for k in kinds.values()):
                break
        out += [pair for kind in kinds.values() for pair in kind]
        if p > 2 and n in (3, 4):
            # e_0 spans the radical of q2's polar form and q2(e_0) = 0
            for _ in range(DRAWS):
                q1, q2 = _rows(rng, p, n), _rows(rng, p, n)
                q2[0] = [0] * n
                if not _common_zero(p, q1, q2):
                    out.append((p, q1, q2, degree))
                    break
    return out
