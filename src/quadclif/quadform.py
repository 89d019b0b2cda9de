"""Quadratic forms over an exact field.

A form on k^n is stored by its upper triangular coefficients: q(x) is
the sum of c[i][j] x_i x_j over i <= j.  The associated polar bilinear
form b(u, v) = q(u + v) - q(u) - q(v) has matrix B with B_ii = 2 c_ii
and B_ij = B_ji = c_ij, which stays meaningful in characteristic 2
(where B is alternating and carries less than the full form; the
quadratic data itself is never discarded, every construction below goes
through coefficient restriction rather than through B alone).

Restriction to a subspace basis (w_1, ..., w_m) is exact in every
characteristic: the new diagonal is q(w_i) and the new off-diagonal
entries are b(w_i, w_j).
"""

from __future__ import annotations

from .rings import Matrix, _dot


class QuadraticForm:
    """Immutable quadratic form with upper triangular coefficients."""

    __slots__ = ("field", "n", "c", "_polar")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for i, r in enumerate(rows):
            if len(r) != n:
                raise ValueError("row %d has length %d, expected %d" % (i, len(r), n))
            for j in range(i):
                if r[j]:
                    raise ValueError("nonzero entry below the diagonal at (%d, %d)" % (i, j))
        self.field = field
        self.n = n
        self.c = rows
        self._polar = None

    # -- constructors -------------------------------------------------

    @classmethod
    def diagonal(cls, field, entries):
        entries = [field.from_int(e) if isinstance(e, int) else e for e in entries]
        n = len(entries)
        z = field.zero()
        return cls(field, [[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def hyperbolic(cls, field, m):
        """H(m): the sum of m hyperbolic planes x_{2k} x_{2k+1}."""
        n = 2 * m
        z, o = field.zero(), field.one()
        rows = [[z] * n for _ in range(n)]
        for k in range(m):
            rows[2 * k][2 * k + 1] = o
        return cls(field, rows)

    @classmethod
    def zero_form(cls, field, n):
        z = field.zero()
        return cls(field, [[z] * n for _ in range(n)])

    @classmethod
    def of_ints(cls, field, rows):
        """Upper triangular integer rows, coerced into the field."""
        return cls(field, [[field.from_int(e) for e in r] for r in rows])

    def direct_sum(self, other):
        if other.field is not self.field:
            raise ValueError("summands live over different fields")
        n, m = self.n, other.n
        z = self.field.zero()
        rows = []
        for i in range(n):
            rows.append(list(self.c[i]) + [z] * m)
        for i in range(m):
            rows.append([z] * n + list(other.c[i]))
        return QuadraticForm(self.field, rows)

    # -- evaluation ---------------------------------------------------

    def coeff(self, i, j):
        if i > j:
            i, j = j, i
        return self.c[i][j]

    def evaluate(self, v):
        acc = self.field.zero()
        for i in range(self.n):
            vi = v[i]
            if not vi:
                continue
            row = self.c[i]
            for j in range(i, self.n):
                if row[j] and v[j]:
                    acc = acc + row[j] * vi * v[j]
        return acc

    def polar_matrix(self):
        if self._polar is None:
            n = self.n
            rows = [[None] * n for _ in range(n)]
            two = self.field.from_int(2)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        rows[i][j] = two * self.c[i][i]
                    else:
                        rows[i][j] = self.c[min(i, j)][max(i, j)]
            self._polar = Matrix(self.field, rows)
        return self._polar

    def polar(self, u, v):
        """b(u, v) = q(u + v) - q(u) - q(v)."""
        acc = self.field.zero()
        B = self.polar_matrix()
        for i in range(self.n):
            if u[i]:
                acc = acc + u[i] * _dot(B.rows[i], v, self.field)
        return acc

    # -- restriction and radical ---------------------------------------

    def restrict(self, basis):
        """The form in the coordinates of the given vectors."""
        basis = list(basis)
        m = len(basis)
        z = self.field.zero()
        rows = [[z] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = self.evaluate(basis[i])
            for j in range(i + 1, m):
                rows[i][j] = self.polar(basis[i], basis[j])
        return QuadraticForm(self.field, rows)

    def radical_basis(self):
        """Deterministic basis of the radical of the polar form."""
        return self.polar_matrix().kernel_basis()

    def regular_rank(self):
        return self.polar_matrix().rank()

    def split_radical(self):
        """(radical basis, complement basis, q on radical, q on complement).

        The complement is spanned by standard vectors missing from the
        radical's pivot columns, so b(radical, complement) = 0 holds and
        q decomposes exactly as the orthogonal sum of the two pieces.
        """
        rad = self.radical_basis()
        if not rad:
            return [], _std_basis(self.field, self.n), QuadraticForm.zero_form(self.field, 0), self
        _, pivots = Matrix(self.field, rad).rref()
        pivot_set = set(pivots)
        comp = [_std_vector(self.field, self.n, j) for j in range(self.n) if j not in pivot_set]
        return rad, comp, self.restrict(rad), self.restrict(comp)

    # -- invariants ----------------------------------------------------

    def discriminant(self):
        """det B for even rank, det(B)/2 for odd rank (char != 2 then).

        With this normalization a hyperbolic plane contributes -1, and
        adding a hyperbolic plane flips the sign of the discriminant.
        """
        if self.n % 2 == 0:
            return self.polar_matrix().det()
        if self.field.characteristic == 2:
            raise ValueError("odd rank discriminant is not defined in characteristic 2")
        return self.polar_matrix().det() / self.field.from_int(2)

    # -- plumbing -------------------------------------------------------

    def map_field(self, target, embed):
        """Transport coefficients along an embedding into another field."""
        return QuadraticForm(target, [[embed(a) for a in row] for row in self.c])

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and other.field is self.field
            and other.c == self.c
        )

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        from .rings import scalar_str

        rows = ["[" + ", ".join(scalar_str(a) for a in row[i:]) + "]" for i, row in enumerate(self.c)]
        return "QuadraticForm(%s; %s)" % (self.field.label(), " ".join(rows))


def _std_vector(field, n, j):
    z, o = field.zero(), field.one()
    return tuple(o if i == j else z for i in range(n))


def _std_basis(field, n):
    return [_std_vector(field, n, j) for j in range(n)]

