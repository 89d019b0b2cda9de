"""Arithmetic the benchmark does on its own, without quadclif.

Forms are upper-triangular integer (or Fraction) coefficient rows,
q(x) = sum_{i <= j} c[i][j] x_i x_j, as in quadclif's literal grammar.
Everything here is independent of the program under test, so the
oracles built on it can refute the program's answers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def polar(rows):
    """Polar matrix B with B_ii = 2 c_ii and B_ij = B_ji = c_ij."""
    n = len(rows)
    return [[2 * rows[i][i] if i == j else rows[min(i, j)][max(i, j)]
             for j in range(n)] for i in range(n)]


def q_eval(rows, v):
    n = len(rows)
    return sum(rows[i][j] * v[i] * v[j] for i in range(n) for j in range(i, n))


def b_eval(rows, u, v):
    return q_eval(rows, [a + b for a, b in zip(u, v)]) - q_eval(rows, u) - q_eval(rows, v)


# -- linear algebra over F_p and Q ----------------------------------------


def _eliminate(m, inv, reduce):
    """Row-reduce m in place; returns (rank, determinant sign/product)."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank, det = 0, 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det = reduce(det * m[rank][col])
        f = inv(m[rank][col])
        for r in range(rank + 1, nr):
            if m[r][col]:
                g = reduce(m[r][col] * f)
                m[r] = [reduce(a - g * b) for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank, det


def det_mod(m, p):
    m = [[a % p for a in row] for row in m]
    _, det = _eliminate(m, lambda a: pow(a, p - 2, p), lambda a: a % p)
    return det % p


def rank_mod(m, p):
    m = [[a % p for a in row] for row in m]
    return _eliminate(m, lambda a: pow(a, p - 2, p), lambda a: a % p)[0]


def det_q(m):
    m = [[Fraction(a) for a in row] for row in m]
    return _eliminate(m, lambda a: 1 / a, lambda a: a)[1]


def rank_q(m):
    m = [[Fraction(a) for a in row] for row in m]
    return _eliminate(m, lambda a: 1 / a, lambda a: a)[0]


# -- square classes ----------------------------------------------------------


def is_square_mod(a, p):
    a %= p
    return a == 0 or pow(a, (p - 1) // 2, p) == 1


def is_square_q(a):
    a = Fraction(a)
    if a < 0:
        return False
    return all(math.isqrt(x) ** 2 == x for x in (a.numerator, a.denominator))


def squarefree_int(a):
    """The squarefree integer in the square class of a nonzero rational."""
    a = Fraction(a)
    n = a.numerator * a.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * n


def prime_factors(n):
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# -- Hasse-Minkowski over Q --------------------------------------------------


def _legendre(u, p):
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def hilbert(a, b, p):
    """Hilbert symbol (a, b)_p of nonzero integers; p = 0 means infinity."""
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    alpha = beta = 0
    while a % p == 0:
        a //= p
        alpha += 1
    while b % p == 0:
        b //= p
        beta += 1
    if p == 2:
        eps = lambda u: ((u - 1) // 2) % 2  # noqa: E731
        omega = lambda u: ((u * u - 1) // 8) % 2  # noqa: E731
        e = eps(a) * eps(b) + alpha * omega(b) + beta * omega(a)
        return -1 if e % 2 else 1
    s = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    if beta % 2:
        s *= _legendre(a, p)
    if alpha % 2:
        s *= _legendre(b, p)
    return s


def diagonalize_q(rows):
    """Diagonal entries of a form over Q congruent to the given one."""
    n = len(rows)
    g = [[Fraction(x, 2) for x in row] for row in polar(rows)]
    out = []
    for k in range(n):
        piv = next((i for i in range(k, n) if g[i][i]), None)
        if piv is None:
            j = next(((i, l) for i in range(k, n) for l in range(i + 1, n)
                      if g[i][l]), None)
            if j is None:
                out.extend([Fraction(0)] * (n - k))
                return out
            i, l = j  # e_i + e_l has value 2 g_il != 0: move it to slot k
            for r in range(n):
                g[r][i] += g[r][l]
            for c in range(n):
                g[i][c] += g[l][c]
            piv = i
        g[k], g[piv] = g[piv], g[k]
        for r in g:
            r[k], r[piv] = r[piv], r[k]
        d = g[k][k]
        for i in range(k + 1, n):
            f = g[i][k] / d
            if f:
                for c in range(k, n):
                    g[i][c] -= f * g[k][c]
                for r in range(k, n):
                    g[r][i] -= f * g[r][k]
        out.append(d)
    return out


def isotropic_over_q(rows):
    """Decide isotropy of a regular form over Q by Hasse-Minkowski."""
    diag = diagonalize_q(rows)
    if any(d == 0 for d in diag):
        raise ValueError("form is not regular")
    a = [squarefree_int(d) for d in diag]
    n = len(a)
    if n <= 1:
        return False
    if n == 2:
        return is_square_q(-a[0] * a[1])
    if all(x > 0 for x in a) or all(x < 0 for x in a):
        return False
    if n >= 5:
        return True
    d = squarefree_int(math.prod(a))
    primes = {2}
    for x in a:
        primes |= prime_factors(x)
    for p in sorted(primes):
        eps = 1
        for i, j in itertools.combinations(range(n), 2):
            eps *= hilbert(a[i], a[j], p)
        if n == 3:
            local = hilbert(-1, -d, p) == eps
        else:
            local = not _square_in_qp(d, p) or eps == hilbert(-1, -1, p)
        if not local:
            return False
    return True


def _square_in_qp(d, p):
    """Whether the squarefree integer d is a square in Q_p."""
    if d % p == 0:
        return False
    if p == 2:
        return d % 8 == 1
    return _legendre(d, p) == 1


# -- finite-field point counts with numpy ------------------------------------


def all_vectors(p, n):
    """Every vector of F_p^n as the rows of an int64 array."""
    return np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)


def q_values(rows, vecs, p):
    n = len(rows)
    acc = np.zeros(len(vecs), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            if rows[i][j] % p:
                acc += (rows[i][j] % p) * vecs[:, i] * vecs[:, j]
    return acc % p


def projective_mask(vecs):
    """Rows whose first nonzero coordinate is 1 (one per projective point)."""
    nz = vecs != 0
    first = np.argmax(nz, axis=1)
    lead = vecs[np.arange(len(vecs)), first]
    return nz.any(axis=1) & (lead == 1)


def common_zero_count(rows1, rows2, p):
    return len(common_zeros(rows1, rows2, p))


def common_zeros(rows1, rows2, p):
    """Common projective zeros over F_p, first nonzero coordinate 1."""
    vecs = all_vectors(p, len(rows1))
    mask = projective_mask(vecs)
    mask &= q_values(rows1, vecs, p) == 0
    mask &= q_values(rows2, vecs, p) == 0
    return vecs[mask]


def has_common_isotropic_plane(rows1, rows2, p):
    """A 2-dimensional subspace totally isotropic for both forms exists."""
    zs = common_zeros(rows1, rows2, p)
    if len(zs) < 2:
        return False
    b1 = np.array(polar(rows1), dtype=np.int64) % p
    b2 = np.array(polar(rows2), dtype=np.int64) % p
    ok = ((zs @ b1 @ zs.T) % p == 0) & ((zs @ b2 @ zs.T) % p == 0)
    np.fill_diagonal(ok, False)
    return bool(ok.any())


# -- polynomials (coefficient lists, constant term first) --------------------
# With p None the coefficients are integers kept as they are; with a prime
# p they are reduced mod p and trailing zeros are dropped.


def _trim(f, p):
    if p is None:
        return f
    f = [c % p for c in f]
    return _strip(f)


def poly_mul(f, g, p=None):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(out, p)


def poly_add(f, g, p=None):
    n = max(len(f), len(g))
    return _trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                  for i in range(n)], p)


def q_eval_poly(rows, vec, p):
    """q(v) for a vector of polynomials over F_p."""
    n = len(rows)
    acc = []
    for i in range(n):
        for j in range(i, n):
            if rows[i][j] % p:
                acc = poly_add(acc, poly_mul([rows[i][j]], poly_mul(vec[i], vec[j], p), p), p)
    return acc


# -- binary forms: the discriminant of a pencil ------------------------------


def _poly_det(mat):
    """Determinant of a square matrix of integer polynomials in t."""
    n = len(mat)
    if n == 1:
        return list(mat[0][0])
    out = []
    for j in range(n):
        if not any(mat[0][j]):
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = poly_mul(mat[0][j], _poly_det(minor))
        if j % 2:
            term = [-c for c in term]
        out = poly_add(out, term)
    return out


def pencil_discriminant(rows1, rows2):
    """Coefficients of det(B1 + t B2) in t, constant term first, length n+1."""
    b1, b2 = polar(rows1), polar(rows2)
    n = len(rows1)
    mat = [[[b1[i][j], b2[i][j]] for j in range(n)] for i in range(n)]
    d = _poly_det(mat)
    return (d + [0] * (n + 1))[:n + 1]


def squarefree_binary(coeffs, p=None):
    """Binary form sum c_k s^(n-k) t^k (n = len - 1) squarefree over Q
    (p None) or over F_p.

    Squarefree means: not identically zero, at most a simple root at
    infinity (s = 0), and a squarefree dehomogenization.
    """
    if p is None:
        conv, inv, red = Fraction, (lambda a: 1 / a), (lambda a: a)
    else:
        conv, inv, red = (lambda a: a % p), (lambda a: pow(a, p - 2, p)), (lambda a: a % p)
    n = len(coeffs) - 1
    f = _strip([conv(c) for c in coeffs])
    if not f or n - (len(f) - 1) >= 2:
        return False  # zero, or a double root at infinity
    df = _strip([red(k * f[k]) for k in range(1, len(f))])
    while df:  # Euclid: f, df <- df, f mod df
        r = list(f)
        while len(r) >= len(df):
            c = red(r[-1] * inv(df[-1]))
            shift = len(r) - len(df)
            for i, dc in enumerate(df):
                r[i + shift] = red(r[i + shift] - c * dc)
            r = _strip(r)
        f, df = df, r
    return len(f) <= 1


def _strip(f):
    while f and f[-1] == 0:
        f.pop()
    return f
