"""The seeded corpus of command lines whose reports are pinned in
data/cli_reports.json.

Drawn from one seeded generator, in a fixed order:
  * analyze on random upper triangular forms over Q, F2, F3 and F5 at
    ranks 1-7;
  * reduce over Q: random forms at ranks 2-5 (a small height budget from
    rank 4 on), forms x0 x1 + a x2^2 (+ b x3^2) in scrambled integer
    coordinates with 0-2 radical variables, and anisotropic forms, one
    with a zero exactly at its height budget.  The hyperbolic
    complements are fractional, so the later sweeps run on forms with
    fractional coefficients;
  * plain pencil reports over Q (ranks 1-7), F2 (even ranks), F3 and F5
    (ranks 1-7), and the identically degenerate pencil;
  * pencil --scenario elliptic over Q (rank 4, a planted common zero of
    height 1 or none, one positive definite q1 and one pencil that does
    not degenerate simply), delpezzo over F3 and F5 (rank 5) and fourfold
    over F3 (rank 6, a planted common plane or none);
  * the three scenario defaults, and two human-format reports.
Nothing here imports quadclif, except the writer at the bottom:

    PYTHONPATH=src python tests/cli_corpus.py tests/data/cli_reports.json
"""

import json
import random
import sys

SEED = 19


def _rows_str(rows):
    return "[" + ",".join("[" + ",".join(str(a) for a in r) + "]" for r in rows) + "]"


def _rows(rng, n, lo, hi, zero_weight=0.0):
    return [[(0 if rng.random() < zero_weight else rng.randint(lo, hi)) if j >= i else 0
             for j in range(n)] for i in range(n)]


def _value(rows, v):
    n = len(v)
    return sum(rows[i][j] * v[i] * v[j] for i in range(n) for j in range(i, n))


def _scrambled(rows, rng, steps=3):
    """Upper triangular rows of q(T y), T a product of elementary integer
    matrices."""
    n = len(rows)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
    cols = [[t[i][j] for i in range(n)] for j in range(n)]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = _value(rows, cols[i]) if i == j else (
                _value(rows, [a + b for a, b in zip(cols[i], cols[j])])
                - _value(rows, cols[i]) - _value(rows, cols[j]))
    return out


def _form(field, rows):
    return ["--form", "field=%s; q=%s" % (field, _rows_str(rows))]


def _pencil(field, q1, q2):
    return ["--pencil", "field=%s; q1=%s; q2=%s" % (field, _rows_str(q1), _rows_str(q2))]


# anisotropic over Q (by signature or by a local obstruction), and
# x^2 - 25 y^2, whose least zero (5, -1) has height 5
ANISOTROPIC = (
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 10),
    ([[1, 0, 0], [0, 1, 0], [0, 0, -3]], 10),
    ([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]], 10),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 6),
    ([[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 3, 0, 0], [0, 0, 0, 5, 0],
      [0, 0, 0, 0, 7]], 3),
    ([[1, 0], [0, -25]], 5),
    ([[1, 0], [0, -25]], 4),
)


def cli_corpus():
    """[argv], in a fixed order; every argv asks for --format machine but
    the two human-format reports."""
    rng = random.Random(SEED)
    jobs = []
    for field, lo, hi in (("Q", -3, 3), ("Fp:2", 0, 1), ("Fp:3", 0, 2), ("Fp:5", 0, 4)):
        for n in range(1, 8):
            jobs.append(["analyze"] + _form(field, _rows(rng, n, lo, hi, 0.2)))
    for n in (2, 3, 3, 4, 5, 4, 5):
        flags = ["--budget-height", "3"] if n >= 4 else []
        jobs.append(["reduce"] + _form("Q", _rows(rng, n, -3, 3, 0.3)) + flags)
    for radical in (0, 1, 2, 0, 1, 0, 0, 0):
        n = 3 + radical + (radical == 0)
        rows = [[0] * n for _ in range(n)]
        rows[0][1] = rng.choice((-2, -1, 1, 2))
        rows[2][2] = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
        if radical == 0:
            rows[3][3] = rng.choice((-3, -1, 2, 7))
        jobs.append(["reduce"] + _form("Q", _scrambled(rows, rng, 5)))
    for rows, height in ANISOTROPIC:
        jobs.append(["reduce"] + _form("Q", rows) + ["--budget-height", str(height)])
    for field, lo, hi, ranks in (("Q", -3, 3, range(1, 8)), ("Fp:2", 0, 1, (2, 4, 6)),
                                 ("Fp:3", 0, 2, range(1, 8)), ("Fp:5", 0, 4, range(1, 8))):
        for n in ranks:
            jobs.append(["pencil"] + _pencil(field, _rows(rng, n, lo, hi, 0.2),
                                             _rows(rng, n, lo, hi, 0.2)))
    zero = [[0] * 3 for _ in range(3)]
    jobs.append(["pencil"] + _pencil("Q", zero, [[1, 0, 0], [0, 0, 0], [0, 0, 2]]))
    for planted in (True, True, True, False, False):
        q1, q2 = _rows(rng, 4, -3, 3, 0.2), _rows(rng, 4, -3, 3, 0.2)
        if planted:
            v = [1] + [rng.randint(-1, 1) for _ in range(3)]
            for q in (q1, q2):
                q[0][0] -= _value(q, v)
        flags = [] if planted else ["--budget-height", "4"]
        jobs.append(["pencil", "--scenario", "elliptic"] + _pencil("Q", q1, q2) + flags)
    # positive definite q1: no common zero, so the verdict stays unknown;
    # then a pencil that does not degenerate simply, an input error
    for q2 in ([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5]],
               [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]):
        jobs.append(["pencil", "--scenario", "elliptic"]
                    + _pencil("Q", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], q2))
    for field, hi in (("Fp:3", 2), ("Fp:3", 2), ("Fp:3", 2), ("Fp:5", 4), ("Fp:5", 4)):
        jobs.append(["pencil", "--scenario", "delpezzo"]
                    + _pencil(field, _rows(rng, 5, 0, hi), _rows(rng, 5, 0, hi)))
    for planted in (True, True, False):
        qs = [_rows(rng, 6, 0, 2), _rows(rng, 6, 0, 2)]
        if planted:
            a, b = sorted(rng.sample(range(6), 2))
            for q in qs:
                q[a][a] = q[b][b] = q[a][b] = 0
        jobs.append(["pencil", "--scenario", "fourfold"] + _pencil("Fp:3", *qs))
    jobs = [argv + ["--format", "machine"] for argv in jobs]
    for scenario in ("elliptic", "delpezzo", "fourfold"):
        jobs.append(["pencil", "--scenario", scenario, "--format", "machine"])
    jobs.append(["reduce"] + _form("Q", [[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    jobs.append(["pencil"] + _pencil("Q", [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                     [[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    return jobs


def run(argv):
    """(exit code, stdout, stderr) of one command line through cli.main."""
    import contextlib
    import io

    from quadclif.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    reports = []
    for argv in cli_corpus():
        code, out, err = run(argv)
        reports.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
