"""Seeded input generators, one per workload.

Every generator takes the workload seed and returns plain integer data
(upper-triangular coefficient rows, CLI argument lists), so a change to
the program cannot change a workload.  Inputs are filtered with the
benchmark's own arithmetic only.  Each workload has a fixed make-up:
the seed changes the coefficients, never how many inputs of each kind
a round holds, so the work per round stays comparable across seeds.
"""

from __future__ import annotations

import random

import numpy as np

from arith import (
    all_vectors,
    det_mod,
    det_q,
    is_square_mod,
    pencil_discriminant,
    polar,
    projective_mask,
    q_eval,
    squarefree_binary,
)


def _rng(workload, seed):
    return random.Random("%s/%d" % (workload, seed))


def rand_rows(rng, n, lo, hi, zero_weight=0.0):
    return [[(0 if rng.random() < zero_weight else rng.randint(lo, hi))
             if j >= i else 0 for j in range(n)] for i in range(n)]


def _regular(rows, p):
    b = polar(rows)
    return det_mod(b, p) != 0 if p else det_q(b) != 0


# how many times a round of algebra_build and cli_jobs repeats its seeded
# mix with fresh coefficients; more draws average out how much work one
# draw happens to need
SEED_DRAWS = 2


# -- pencil_search -------------------------------------------------------------

# (rank, pairs per round): without a common zero, then with one
PENCIL_MIX = {"free": ((4, 2), (3, 4)), "with_zero": ((4, 12), (3, 12))}
# projective zeros of each form of a zero-free pair: those of q2 are the
# heads of the witness search, so their number fixes the size of the
# exhausted search tree, and those of q1 decide how many of its leaves
# pass the first coefficient check
PENCIL_HEADS = {4: 10, 3: 4}


def _pencil_batch(rng, n, size):
    """size random pairs of rank-n forms over F3: their coefficients, one row
    of upper-triangular slots per form, and which projective points each
    form vanishes on, found with numpy for the whole batch at once."""
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    pts = all_vectors(3, n)
    pts = pts[projective_mask(pts)]
    monomials = np.stack([pts[:, i] * pts[:, j] for i, j in slots], axis=1)
    coeffs = np.array(rng.choices(range(3), k=2 * size * len(slots)),
                      dtype=np.int64).reshape(2, size, len(slots))
    return slots, coeffs, (coeffs @ monomials.T) % 3 == 0


def pencil_search_inputs(seed):
    rng = _rng("pencil_search", seed)
    out = []
    for kind, mix in PENCIL_MIX.items():
        free = kind == "free"
        for n, count in mix:
            got = 0
            while got < count:
                # zero-free pairs are rare (well under 1 %), so draw many at once
                slots, coeffs, zero = _pencil_batch(rng, n, 4096 if free else 64)
                common = (zero[0] & zero[1]).any(axis=1)
                heads = zero.sum(axis=2)
                for b in range(coeffs.shape[1]):
                    if got == count or common[b] == free:
                        continue
                    qs = [[[0] * n for _ in range(n)] for _ in range(2)]
                    for q, row in zip(qs, coeffs[:, b]):
                        for (i, j), c in zip(slots, row):
                            q[i][j] = int(c)
                    if free and not all(heads[k, b] == PENCIL_HEADS[n] and _regular(q, 3)
                                        for k, q in enumerate(qs)):
                        continue
                    out.append({"p": 3, "q1": qs[0], "q2": qs[1], "free": free})
                    got += 1
    return out


# -- algebra_build -------------------------------------------------------------

ALGEBRA_FIELDS = ("Q", 3, 5)
# ranks whose form gets a planted radical vector, per field
ALGEBRA_DEGENERATE = {"Q": (3, 6), 3: (2, 5, 7), 5: (4,)}
# (field, rank of q', planted radical) for the Morita witness; q' is
# diagonal, which reaches every isometry class away from characteristic 2
# and keeps the cost of the endomorphism solve the same from seed to seed
MORITA_SLOTS = (("Q", 2, False), ("Q", 3, False), (3, 3, True), (5, 3, False),
                (3, 4, False))
# share of coefficient slots left empty; a fixed count per form keeps the
# rewriting work of a Clifford product the same from seed to seed
ZERO_SHARE = 0.3


def _nonzero(field):
    return [c for c in range(-5, 6) if c] if field == "Q" else list(range(1, field))


def sparse_rows(rng, field, n):
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    empty = set(rng.sample(slots, round(ZERO_SHARE * len(slots))))
    values = _nonzero(field)
    rows = [[0] * n for _ in range(n)]
    for i, j in slots:
        if (i, j) not in empty:
            rows[i][j] = rng.choice(values)
    return rows


def _diagonal_rows(rng, field, n, degenerate):
    diag = [rng.choice(_nonzero(field)) for _ in range(n)]
    if degenerate:
        diag[-1] = 0
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _field_rows(rng, field, n, degenerate):
    while True:
        rows = sparse_rows(rng, field, n)
        if degenerate:
            for row in rows:
                row[n - 1] = 0  # e_{n-1} spans a radical line
            if n == 1 or _regular([r[:n - 1] for r in rows[:n - 1]], None if field == "Q" else field):
                return rows
        elif _regular(rows, None if field == "Q" else field):
            return rows


def algebra_build_inputs(seed):
    rng = _rng("algebra_build", seed)
    algebras = [{"field": field, "rows": _field_rows(rng, field, n, n in ALGEBRA_DEGENERATE[field])}
                for _ in range(SEED_DRAWS) for field in ALGEBRA_FIELDS for n in range(1, 8)]
    morita = [{"field": field, "rows": _diagonal_rows(rng, field, n, degenerate)}
              for field, n, degenerate in MORITA_SLOTS]
    return {"algebras": algebras, "morita": morita}


# -- lagrangian_enum -----------------------------------------------------------

# (p, rank, split, forms per round); split means the center discriminant
# (-1)^(n/2) det B is a square
LAGRANGIAN_SLOTS = ((3, 4, True, 2), (3, 4, False, 2), (5, 4, True, 2),
                    (5, 4, False, 2), (3, 6, True, 1))


def center_is_split(rows, p):
    n = len(rows)
    return is_square_mod((-1) ** (n // 2) * det_mod(polar(rows), p), p)


def lagrangian_enum_inputs(seed):
    rng = _rng("lagrangian_enum", seed)
    out = []
    for p, n, split, count in LAGRANGIAN_SLOTS:
        got = 0
        while got < count:
            rows = rand_rows(rng, n, 0, p - 1)
            if _regular(rows, p) and center_is_split(rows, p) == split:
                out.append({"p": p, "rows": rows, "split": split})
                got += 1
    return out


# -- cli_jobs --------------------------------------------------------------------

# reduce jobs over Q whose anisotropic remainder has rank >= 2; reduce never
# proves anisotropy over Q, so these answer "conclusive: no" every time
REDUCE_ANISOTROPIC = (
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, -3]],
    [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]],
)


def _literal(field, rows):
    return "field=%s; q=%s" % (field, _rows_str(rows))


def _pencil_literal(field, q1, q2):
    return "field=%s; q1=%s; q2=%s" % (field, _rows_str(q1), _rows_str(q2))


def _rows_str(rows):
    return "[" + ",".join("[" + ",".join(str(a) for a in r) + "]" for r in rows) + "]"


def _transform(rows, t):
    """Upper-triangular rows of the form q(T y) for an integer matrix T."""
    n = len(t)
    cols = [[t[i][j] for i in range(n)] for j in range(n)]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = q_eval(rows, cols[i]) if i == j else (
                q_eval(rows, [a + b for a, b in zip(cols[i], cols[j])])
                - q_eval(rows, cols[i]) - q_eval(rows, cols[j]))
    return out


def _unimodular(rng, n, steps=3):
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
    return t


def _planted_reduce(rng, n_radical):
    """x0 x1 + a x2^2 (+ radical variables) in scrambled coordinates."""
    n = 3 + n_radical
    rows = [[0] * n for _ in range(n)]
    rows[0][1] = rng.choice((-2, -1, 1, 2))
    rows[2][2] = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
    return _transform(rows, _unimodular(rng, n))


def _elliptic(rng):
    """Rank-4 pair over Q with a squarefree discriminant and a planted
    common zero of height 1."""
    while True:
        v = [1] + [rng.randint(-1, 1) for _ in range(3)]
        q1 = rand_rows(rng, 4, -3, 3, zero_weight=0.2)
        q2 = rand_rows(rng, 4, -3, 3, zero_weight=0.2)
        for q in (q1, q2):
            q[0][0] -= q_eval(q, v)  # v[0] = 1, so q(v) drops to zero
        if squarefree_binary(pencil_discriminant(q1, q2)):
            return q1, q2


def _planted_plane(rng, p):
    """Rank-6 pair over F_p vanishing on span(e_a, e_b) for random a < b,
    with a squarefree discriminant, so the pencil degenerates simply and
    the report always carries the center/cover comparison."""
    while True:
        a, b = sorted(rng.sample(range(6), 2))
        qs = []
        for _ in range(2):
            rows = rand_rows(rng, 6, 0, p - 1)
            rows[a][a] = rows[b][b] = rows[a][b] = 0
            qs.append(rows)
        if squarefree_binary(pencil_discriminant(*qs), p):
            return qs


def cli_jobs_inputs(seed):
    rng = _rng("cli_jobs", seed)
    jobs = []
    for _ in range(SEED_DRAWS):
        for field, n in (("Q", 3), (3, 4), (5, 5), ("Q", 6), (3, 7), (5, 2)):
            rows = _field_rows(rng, field, n, degenerate=False)
            fl = "Q" if field == "Q" else "Fp:%d" % field
            jobs.append({"kind": "analyze", "field": field, "rows": rows,
                         "argv": ["analyze", "--form", _literal(fl, rows)]})
        for n_radical in (0, 1, 0):
            rows = _planted_reduce(rng, n_radical)
            jobs.append({"kind": "reduce", "field": "Q", "rows": rows,
                         "argv": ["reduce", "--form", _literal("Q", rows)]})
        for _ in range(2):
            q1, q2 = _elliptic(rng)
            jobs.append({"kind": "elliptic", "field": "Q", "q1": q1, "q2": q2,
                         "argv": ["pencil", "--scenario", "elliptic",
                                  "--pencil", _pencil_literal("Q", q1, q2)]})
        for _ in range(2):
            q1, q2 = rand_rows(rng, 5, 0, 2), rand_rows(rng, 5, 0, 2)
            jobs.append({"kind": "delpezzo", "field": 3, "q1": q1, "q2": q2,
                         "argv": ["pencil", "--scenario", "delpezzo",
                                  "--pencil", _pencil_literal("Fp:3", q1, q2)]})
        q1, q2 = _planted_plane(rng, 3)
        jobs.append({"kind": "fourfold", "field": 3, "q1": q1, "q2": q2,
                     "argv": ["pencil", "--scenario", "fourfold",
                              "--pencil", _pencil_literal("Fp:3", q1, q2)]})
        for p, split in ((3, False), (5, True)):
            while True:
                rows = rand_rows(rng, 4, 0, p - 1)
                if _regular(rows, p) and center_is_split(rows, p) == split:
                    break
            jobs.append({"kind": "lagrangian", "field": p, "rows": rows,
                         "argv": ["lagrangian", "--form", _literal("Fp:%d" % p, rows)]})
    for rows in REDUCE_ANISOTROPIC:
        jobs.append({"kind": "reduce", "field": "Q", "rows": rows,
                     "argv": ["reduce", "--form", _literal("Q", rows)],
                     "known_fault": "reduce-q-anisotropy"})
    for job in jobs:
        job["argv"] = job["argv"] + ["--format", "machine"]
    return jobs


GENERATORS = {
    "pencil_search": pencil_search_inputs,
    "algebra_build": algebra_build_inputs,
    "lagrangian_enum": lagrangian_enum_inputs,
    "cli_jobs": cli_jobs_inputs,
}
