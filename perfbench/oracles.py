"""Independent checks of the program's answers, one family per workload.

Each check takes the program's answer as plain data (integers,
Fractions, parsed machine reports) next to the generated input and
raises Refuted when the answer is wrong.  The expected values come from
the benchmark's own arithmetic and closed-form counts, never from a
stored copy of an earlier output.
"""

from __future__ import annotations

from fractions import Fraction

from arith import (
    b_eval,
    common_zero_count,
    det_mod,
    det_q,
    has_common_isotropic_plane,
    is_square_mod,
    is_square_q,
    isotropic_over_q,
    pencil_discriminant,
    poly_add,
    polar,
    q_eval,
    q_eval_poly,
    rank_mod,
    rank_q,
)


class Refuted(Exception):
    """The program's answer contradicts the oracle."""


def expect(cond, message):
    if not cond:
        raise Refuted(message)


# -- pencil_search -------------------------------------------------------------


def check_witness(q1, q2, p, vec):
    """vec: coefficient lists mod p; x*q1(v) + q2(v) must vanish, v != 0."""
    expect(any(any(c % p for c in f) for f in vec), "witness is the zero vector")
    total = poly_add([0] + q_eval_poly(q1, vec, p), q_eval_poly(q2, vec, p), p)
    expect(not total, "x*q1(v) + q2(v) = %r, not 0" % (total,))


def check_amer_brumer(q1, q2, p, zero_count, common_zero, witness):
    """common_zero: ints or None; witness: list of coefficient lists or None."""
    want = common_zero_count(q1, q2, p)
    expect(zero_count == want, "common_zero_count %d, numpy counts %d" % (zero_count, want))
    expect((witness is not None) == (want > 0),
           "witness %s but %d common zeros" % ("found" if witness else "missing", want))
    if want:
        expect(q_eval(q1, common_zero) % p == 0 and q_eval(q2, common_zero) % p == 0,
               "reported common zero does not vanish")
        expect(max(len(f) for f in witness) <= 1, "first witness is not constant")
        check_witness(q1, q2, p, witness)


# -- algebra_build ---------------------------------------------------------------


def _is_square(a, p):
    return is_square_q(a) if p is None else is_square_mod(a, p)


def check_even_algebra(rows, p, dim, center_kind, center_delta):
    """p None means Q; center_delta is a Fraction or int mod p, or None."""
    n = len(rows)
    expect(dim == 2 ** (n - 1), "dim C0 = %d for rank %d" % (dim, n))
    b = polar(rows)
    det = det_q(b) if p is None else det_mod(b, p)
    if det == 0:
        return  # the classical formula speaks of regular forms
    if n % 2:
        expect(center_kind == "trivial", "odd regular rank %d, center %s" % (n, center_kind))
        return
    sign_det = (-1) ** (n // 2) * det
    split = _is_square(sign_det, p)
    expect(center_kind == ("split" if split else "field"),
           "center %s, (-1)^(n/2) disc is %s square" % (center_kind, "a" if split else "no"))
    expect(center_delta is not None and _is_square(center_delta * sign_det, p),
           "delta %s not in the class of (-1)^(n/2) disc" % (center_delta,))


def check_morita(n_rest, dim_even, dim_end, checks):
    want = 2 ** (n_rest + 1)
    expect(dim_end == want, "dim End(P) = %d, want 2^(n'+1) = %d" % (dim_end, want))
    expect(dim_even == want, "dim C0(H + q') = %d, want %d" % (dim_even, want))
    expect(len(checks) > 0, "witness carries no checks")


# -- lagrangian_enum ---------------------------------------------------------------


def lagrangian_count(q, n, split):
    if n == 4:
        return 2 * (q + 1) if split else 2 * (q * q + 1)
    if n == 6 and split:
        return 2 * (q + 1) * (q * q + 1)
    raise ValueError("no closed form for rank %d, split=%s" % (n, split))


def isotropic_point_count(q, n, split):
    m = n // 2
    eps = 1 if split else -1
    return (q ** m - eps) * (q ** (m - 1) + eps) // (q - 1)


def check_stein(rows, p, split, count, sizes, delta_is_square, extension_used,
                matches_center):
    n = len(rows)
    expect(delta_is_square == split, "delta_is_square %s, own class %s" % (delta_is_square, split))
    expect(extension_used == (not split), "extension_used %s" % extension_used)
    want = lagrangian_count(p, n, split)
    expect(count == want, "%d lagrangians, closed form %d" % (count, want))
    expect(tuple(sizes) == (want // 2, want // 2), "ruling halves %r" % (tuple(sizes),))
    expect(matches_center, "matches_center is false")


def check_points(rows, p, split, count):
    want = isotropic_point_count(p, len(rows), split)
    expect(count == want, "%d isotropic points, closed form %d" % (count, want))


# -- cli_jobs -------------------------------------------------------------------


def _scalar(s, p):
    return Fraction(s) if p is None else int(s) % p


def _parse_poly(s, p):
    """A univariate polynomial over F_p in quadclif's printed form."""
    out = []
    if s == "0":
        return out
    for term in s.split("+"):
        coef, var, power = term.partition("x")
        coef = int(coef.rstrip("*")) if coef.rstrip("*") else 1
        deg = int(power[1:]) if power.startswith("^") else (1 if var else 0)
        out += [0] * (deg + 1 - len(out))
        out[deg] = (out[deg] + coef) % p
    return out


def check_cli(job, code, report):
    """Check one machine report.  Returns None when the job answered and
    the answer holds, or the name of the fault when the program declined
    to answer (exit code 1) although the oracle decides the question."""
    kind = job["kind"]
    p = None if job["field"] == "Q" else job["field"]
    if kind == "analyze":
        _check_analyze(job["rows"], p, report)
    elif kind == "reduce":
        return _check_reduce(job["rows"], code, report)
    elif kind in ("elliptic", "delpezzo", "fourfold"):
        _check_pencil(kind, job["q1"], job["q2"], p, report)
    elif kind == "lagrangian":
        rows = job["rows"]
        split = is_square_mod((-1) ** (len(rows) // 2) * det_mod(polar(rows), p), p)
        check_stein(rows, p, split, report["count"], report["component_sizes"],
                    report["delta_is_square"], report["extension_used"],
                    report["matches_center"])
    expect(code == 0, "%s job exited %d" % (kind, code))
    return None


def _discriminant(rows, p):
    b = polar(rows)
    det = det_q(b) if p is None else det_mod(b, p)
    if len(rows) % 2:
        det = det / 2 if p is None else det * pow(2, p - 2, p) % p
    return det


def _check_analyze(rows, p, rep):
    n = len(rows)
    b = polar(rows)
    rank = rank_q(b) if p is None else rank_mod(b, p)
    expect(rep["radical_dim"] == n - rank, "radical_dim %d, own %d" % (rep["radical_dim"], n - rank))
    expect(_scalar(rep["discriminant"], p) == _discriminant(rows, p), "discriminant differs")
    alg = rep["even_algebra"]
    delta = alg["delta"]
    check_even_algebra(rows, p, alg["dim"], alg["center_kind"],
                       None if delta is None else _scalar(delta, p))


def _check_reduce(rows, code, rep):
    n = len(rows)
    for v, w in rep["hyperbolic_pairs"]:
        v = [Fraction(a) for a in v]
        w = [Fraction(a) for a in w]
        expect(q_eval(rows, v) == 0 and q_eval(rows, w) == 0, "pair vector not isotropic")
        expect(b_eval(rows, v, w) == 1, "b(v, w) != 1")
    aniso = [[Fraction(a) for a in r] for r in rep["anisotropic_form"]["rows"]]
    witt, rad = rep["witt_index"], rep["radical_dim"]
    expect(2 * witt + len(aniso) + rad == n, "2 witt + aniso + radical != n")
    expect(rad == n - rank_q(polar(rows)), "radical_dim %d is wrong" % rad)
    proved_aniso = len(aniso) == 0 or not isotropic_over_q(aniso)
    if rep["conclusive"]:
        expect(code == 0 and proved_aniso, "conclusive, yet the remainder is isotropic")
        return None
    expect(code == 1, "inconclusive report with exit code %d" % code)
    return "reduce-q-anisotropy" if proved_aniso else "reduce-q-budget"


def _check_pencil(kind, q1, q2, p, rep):
    n = len(q1)
    ana = rep["analysis"]
    disc = pencil_discriminant(q1, q2)
    if n % 2:
        disc = [c / 2 for c in disc] if p is None else [c * pow(2, p - 2, p) % p for c in disc]
    got = [_scalar(c, p) for c in ana["discriminant"]["coeffs"]]
    want = [Fraction(c) if p is None else c % p for c in disc]
    expect(got == want, "discriminant %r, own %r" % (got, want))
    if kind == "elliptic":
        expect(ana["squarefree"] and rep["cover"]["genus"] == 1, "elliptic cover is not genus 1")
        br = rep["brauer"]
        expect(br["kind"] == "trivial", "brauer verdict %s despite a planted zero" % br["kind"])
        wv = [Fraction(a) for a in br["witness"]]
        expect(any(wv) and q_eval(q1, wv) == 0 and q_eval(q2, wv) == 0,
               "brauer witness is not a common zero")
    elif kind == "delpezzo":
        iw = rep["isotropy_witness"]
        expect(iw["found"], "no witness for a rank-5 pencil over F_%d" % p)
        check_witness(q1, q2, p, [_parse_poly(s, p) for s in iw["vector"]])
    else:
        ps = rep["plane_search"]
        want_count = (p ** 6 - 1) * (p ** 5 - 1) // ((p ** 2 - 1) * (p - 1))
        expect(ps["candidates"] == want_count, "plane candidates %d, [6 2]_p = %d"
               % (ps["candidates"], want_count))
        exists = has_common_isotropic_plane(q1, q2, p)
        expect(ps["found"] == exists, "plane found=%s, exists=%s" % (ps["found"], exists))
        if exists:
            u, v = ([int(a) % p for a in x] for x in ps["plane"])
            for q in (q1, q2):
                expect(q_eval(q, u) % p == 0 and q_eval(q, v) % p == 0
                       and b_eval(q, u, v) % p == 0, "plane is not totally isotropic")
            expect(rank_mod([u, v], p) == 2, "plane basis is dependent")
