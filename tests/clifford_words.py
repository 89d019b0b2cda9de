"""Reference Clifford products for the tests: word rewriting on sparse dicts.

The package builds each algebra's structure tensor by doubling on the
generators (clifford._clifford_table).  The tests compare that tensor
against this independent construction, which rewrites one word at a
time with the two local rules

    e_i e_i -> q(e_i)           e_i e_j -> b(e_i, e_j) - e_j e_i   (i > j)

on field elements, memoizing products by basis index.
"""


def _generator_times(c, one, a, mask):
    """Normal form of e_a * e_mask as a mask-keyed dict.

    c holds the form's coefficients (c[t][a] with t <= a).  With t the
    lowest index in the mask and rest the other indices,
    e_a e_t = b(e_t, e_a) - e_t e_a for a > t, and every index in
    e_a e_rest exceeds t, so prefixing e_t there needs no reordering.
    """
    low = mask & -mask
    t = low.bit_length() - 1
    if not mask or a < t:
        return {mask | 1 << a: one}
    if a == t:
        cc = c[a][a]
        return {mask ^ low: cc} if cc else {}
    rest = mask ^ low
    cab = c[t][a]  # the polar value b(e_t, e_a)
    out = {rest: cab} if cab else {}
    for m, x in _generator_times(c, one, a, rest).items():
        out[m | low] = -x
    return out


def products(form, masks):
    """{(i, j): {k: nonzero coefficient of e_k in e_i e_j}} on the basis
    masks, which must contain 0 and be closed under products.

    e_S e_T = e_s1 (... (e_sr (e_S' e_T))) where s1 < ... < sr are the
    fewest lowest indices of S leaving a basis mask S', so e_S' e_T is an
    earlier product.
    """
    c, one = form.c, form.field.one()
    index = {m: i for i, m in enumerate(masks)}
    table = {}

    def product(i, j):
        if (i, j) in table:
            return table[i, j]
        s = masks[i]
        out = {masks[j]: one}
        if s:
            peeled = []
            while not peeled or s not in index:
                low = s & -s
                peeled.append(low.bit_length() - 1)
                s ^= low
            out = {masks[k]: x for k, x in product(index[s], j).items()}
            for a in reversed(peeled):
                nxt = {}
                for m, x in out.items():
                    for m2, y in _generator_times(c, one, a, m).items():
                        nxt[m2] = nxt[m2] + x * y if m2 in nxt else x * y
                out = nxt
        table[i, j] = {index[m]: x for m, x in out.items() if x}
        return table[i, j]

    return {(i, j): product(i, j) for i in range(len(masks)) for j in range(len(masks))}
