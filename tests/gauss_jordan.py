"""Reference eliminations for the tests: textbook Gauss-Jordan on field
elements.

The package has one single-matrix elimination, rings.coded_rref, which
Matrix.rref, rank and kernel_basis decode, and one batched elimination,
ResidueCoding.rref.  The tests compare both against this
loop, which shares no code with either: it divides the pivot row by
its pivot and clears the pivot column in every other row, one wrapped
scalar at a time, taking the first nonzero pivot candidate.
"""


def rref(field, rows, ncols=None):
    """(reduced row echelon rows as tuples, pivot column tuple); the rows
    past the rank are zero.  ncols is needed only when rows is empty."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else (ncols or 0)
    pivots = []
    r = 0
    for col in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if m[i][col]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.one() / m[r][col]
        m[r] = [inv * a for a in m[r]]
        for i in range(nr):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in m], tuple(pivots)


def kernel_basis(field, rows, ncols=None):
    """One kernel vector per free column, ascending, with a 1 there and 0
    at the other free columns."""
    red, pivots = rref(field, rows, ncols)
    nc = len(red[0]) if red else (ncols or 0)
    basis = []
    for free in range(nc):
        if free in pivots:
            continue
        v = [field.zero()] * nc
        v[free] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(tuple(v))
    return basis
