"""Exact scalars, polynomials, and dense linear algebra over small fields.

Three field kinds cover everything downstream: the rationals, prime
fields F_p, and finite extensions F_q[x]/(m).
Rationals are stdlib Fractions; the other element types are immutable
wrappers with operator overloading, so generic code over an arbitrary
field reads as ordinary arithmetic.  A FieldContext owns construction,
enumeration (finite kinds) and square testing; contexts are interned,
carry no mutable state beyond caches, and are safe to share.

Polynomials store coefficients lowest degree first with trailing zeros
stripped; the zero polynomial has degree -1, a sentinel rather than a
valid exponent.  Matrices are immutable row tuples over a fixed field.

Two numpy codings carry the linear algebra.  ArrayCoding puts field
elements into arrays for exact fraction-free elimination over any
field.  coded_rref is the one single-matrix elimination: it always
takes the first nonzero pivot candidate, so ranks, kernels, and every
witness derived from them are deterministic, and Matrix's rref, rank
and kernel_basis decode its result (Matrix.det keeps its own
elimination).  Over Q it runs on integers, in int64 while a per-step
bound proves every update exact and on Python ints after that, and
makes Fractions only when it divides by the pivots; coded_kernel
returns primitive integer kernel rows with their scales and makes none.
ResidueCoding is the finite-field kernel of the batched
searches: an element of F_{p^e} is its e residues mod p, and a matrix
over F_{p^e} acts through its Weil restriction to F_p, so form and
polar values are the stack evaluation bilinear.  It eliminates whole
stacks of matrices at once, and its points() is the one batched table
of projective points that the finite-field searches walk.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


class InvariantViolation(Exception):
    """A verified mathematical identity failed to hold.

    Raised by the self-checking layers; seeing one means either a bug or
    a deliberately injected fault, never bad user input.
    """

    def __init__(self, invariant, detail=""):
        self.invariant = invariant
        super().__init__("%s: %s" % (invariant, detail) if detail else invariant)


# ---------------------------------------------------------------------------
# field contexts


class FieldContext:
    """Base for field descriptors.  Instances are interned and hashable."""

    kind = "abstract"

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        raise NotImplementedError

    @property
    def characteristic(self):
        raise NotImplementedError

    def size(self):
        """Number of elements, or None for infinite fields."""
        return None

    def elements(self):
        raise TypeError("cannot enumerate an infinite field")

    def is_square(self, a):
        raise NotImplementedError

    def sqrt(self, a):
        """A square root of a, or None.  Deterministic choice of root."""
        raise NotImplementedError

    def label(self):
        raise NotImplementedError

    def __repr__(self):
        return self.label()


class Rationals(FieldContext):
    """The rational numbers; elements are fractions.Fraction."""

    kind = "rationals"
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def from_int(self, n):
        return Fraction(n)

    @property
    def characteristic(self):
        return 0

    def is_square(self, a):
        if a < 0:
            return False
        n, d = a.numerator, a.denominator
        return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d

    def sqrt(self, a):
        if not self.is_square(a):
            return None
        return Fraction(math.isqrt(a.numerator), math.isqrt(a.denominator))

    def label(self):
        return "Q"


QQ = Rationals()


def _check_prime(p):
    if not isinstance(p, int) or p < 2 or p >= 1 << 16:
        raise ValueError("modulus must be a prime below 2^16, got %r" % (p,))
    if p % 2 == 0 and p != 2:
        raise ValueError("%d is not prime" % p)
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError("%d is not prime" % p)
        d += 2


class FpElem:
    """Element of F_p, value kept in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ValueError("mixed moduli %d, %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElem(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElem(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElem(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElem(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElem(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElem(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n):
        if n < 0:
            return (FpElem(1, self.p) / self) ** (-n)
        return FpElem(pow(self.v, n, self.p), self.p)

    def __neg__(self):
        return FpElem(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self.v == o.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return str(self.v)


class PrimeField(FieldContext):
    """F_p for prime p < 2^16 (primality checked by trial division)."""

    kind = "prime"
    _cache = {}

    def __new__(cls, p):
        f = cls._cache.get(p)
        if f is None:
            _check_prime(p)
            f = super().__new__(cls)
            f.p = p
            cls._cache[p] = f
        return f

    def from_int(self, n):
        return FpElem(n, self.p)

    @property
    def characteristic(self):
        return self.p

    def size(self):
        return self.p

    def elements(self):
        return [FpElem(i, self.p) for i in range(self.p)]

    def is_square(self, a):
        if a.v == 0 or self.p == 2:
            return True
        return pow(a.v, (self.p - 1) // 2, self.p) == 1

    def non_square(self):
        """Least quadratic nonresidue; None in characteristic 2."""
        if self.p == 2:
            return None
        for n in range(2, self.p):
            if pow(n, (self.p - 1) // 2, self.p) == self.p - 1:
                return FpElem(n, self.p)
        raise AssertionError("no nonresidue found in F_%d" % self.p)

    def sqrt(self, a):
        table = getattr(self, "_sqrt_table", None)
        if table is None:
            table = {}
            for x in range(self.p):
                table.setdefault(x * x % self.p, x)
            self._sqrt_table = table
        r = table.get(a.v)
        return None if r is None else FpElem(r, self.p)

    def label(self):
        return "Fp:%d" % self.p


class ExtElem:
    """Element of a finite extension, as a coefficient tuple over the base."""

    __slots__ = ("field", "c")

    def __init__(self, field, c):
        self.field = field
        self.c = c

    def _lift(self, other):
        if isinstance(other, ExtElem) and other.field is self.field:
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        base = self.field.base
        if isinstance(other, FpElem) and base.kind == "prime" and other.p == base.p:
            return self.field.embed(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __neg__(self):
        return ExtElem(self.field, tuple(-a for a in self.c))

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self.field._mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.field._mul(self, self.field._inv(o))

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n):
        if n < 0:
            return self.field._inv(self) ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return scalar_str(self)


class ExtensionField(FieldContext):
    """F_q[x]/(m) for a monic irreducible m over a finite base field.

    Irreducibility of the supplied modulus is certified at construction
    with the Frobenius power test, so a bad modulus fails loudly.
    """

    kind = "extension"
    _cache = {}

    def __new__(cls, base, modulus):
        key = (base, modulus.coeffs)
        f = cls._cache.get(key)
        if f is not None:
            return f
        if base.size() is None:
            raise ValueError("extension fields need a finite base, not %s" % base.label())
        if modulus.degree() < 2 or modulus.lc() != base.one():
            raise ValueError("modulus must be monic of degree >= 2")
        if not poly_is_irreducible(modulus):
            raise ValueError("modulus %s is reducible" % (modulus,))
        f = super().__new__(cls)
        f.base = base
        f.modulus = modulus
        f.degree = modulus.degree()
        # reductions of x^k for k = deg .. 2 deg - 2, used by _mul
        red = []
        var = modulus.var
        xk = Poly(base, var, (base.zero(),) * f.degree + (base.one(),)) % modulus
        red.append(tuple(xk.coeff(i) for i in range(f.degree)))
        x = Poly(base, var, (base.zero(), base.one()))
        for _ in range(f.degree - 2):
            xk = (xk * x) % modulus
            red.append(tuple(xk.coeff(i) for i in range(f.degree)))
        f._xpow = tuple(red)
        cls._cache[key] = f
        return f

    def from_int(self, n):
        z = self.base.zero()
        return ExtElem(self, (self.base.from_int(n),) + (z,) * (self.degree - 1))

    def embed(self, a):
        """Embed a base-field element as a constant."""
        z = self.base.zero()
        return ExtElem(self, (a,) + (z,) * (self.degree - 1))

    def gen(self):
        z, o = self.base.zero(), self.base.one()
        return ExtElem(self, (z, o) + (z,) * (self.degree - 2))

    @property
    def characteristic(self):
        return self.base.characteristic

    def size(self):
        return self.base.size() ** self.degree

    def elements(self):
        base_elems = list(self.base.elements())
        out = []
        for tup in itertools.product(base_elems, repeat=self.degree):
            out.append(ExtElem(self, tup))
        return out

    def _mul(self, a, b):
        e = self.degree
        z = self.base.zero()
        conv = [z] * (2 * e - 1)
        for i, ai in enumerate(a.c):
            if not ai:
                continue
            for j, bj in enumerate(b.c):
                if bj:
                    conv[i + j] = conv[i + j] + ai * bj
        out = conv[:e]
        for k in range(e, 2 * e - 1):
            ck = conv[k]
            if ck:
                row = self._xpow[k - e]
                for i in range(e):
                    if row[i]:
                        out[i] = out[i] + ck * row[i]
        return ExtElem(self, tuple(out))

    def _inv(self, a):
        if not a:
            raise ZeroDivisionError("division by zero in %s" % self.label())
        f = Poly(self.base, self.modulus.var, a.c)
        g, s, _ = poly_ext_gcd(f, self.modulus)
        if g.degree() != 0:
            raise AssertionError("modulus not coprime to %r" % (a,))
        s = s * (self.base.one() / g.coeff(0))
        return ExtElem(self, tuple(s.coeff(i) for i in range(self.degree)))

    def frobenius(self, a):
        """The base-size power map, generates Gal over the base."""
        return a ** self.base.size()

    def is_square(self, a):
        if not a or self.characteristic == 2:
            return True
        return a ** ((self.size() - 1) // 2) == self.one()

    def non_square(self):
        if self.characteristic == 2:
            return None
        for e in self.elements():
            if e and not self.is_square(e):
                return e
        raise AssertionError("no nonsquare in %s" % self.label())

    def sqrt(self, a):
        table = getattr(self, "_sqrt_table", None)
        if table is None:
            table = {}
            for x in self.elements():
                table.setdefault(x * x, x)
            self._sqrt_table = table
        return table.get(a)

    def label(self):
        return "%s[x]/(%s)" % (self.base.label(), self.modulus)


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Univariate polynomial; coeffs[i] multiplies var^i, no trailing zeros."""

    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field, var, coeffs):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.field = field
        self.var = var
        self.coeffs = coeffs[:n]

    @classmethod
    def zero_poly(cls, field, var):
        return cls(field, var, ())

    @classmethod
    def one_poly(cls, field, var):
        return cls(field, var, (field.one(),))

    @classmethod
    def const(cls, field, var, c):
        return cls(field, var, (c,))

    @classmethod
    def x(cls, field, var):
        return cls(field, var, (field.zero(), field.one()))

    @classmethod
    def of_ints(cls, field, var, ints):
        return cls(field, var, tuple(field.from_int(n) for n in ints))

    def degree(self):
        """Degree, with the zero polynomial reporting the sentinel -1."""
        return len(self.coeffs) - 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _lift(self, other):
        if isinstance(other, Poly):
            if other.field is self.field and other.var == self.var:
                return other
            return None
        if isinstance(other, int):
            return Poly.const(self.field, self.var, self.field.from_int(other))
        lifted = _as_element(self.field, other)
        if lifted is not None:
            return Poly.const(self.field, self.var, lifted)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly.zero_poly(self.field, self.var)
        z = self.field.zero()
        out = [z] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, self.var, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly.zero_poly(self.field, self.var), self
        inv_lead = self.field.one() / o.lc()
        quot = [self.field.zero()] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + o.degree()]
            if c:
                f = c * inv_lead
                quot[k] = f
                for i, b in enumerate(o.coeffs):
                    rem[k + i] = rem[k + i] - f * b
        return (Poly(self.field, self.var, quot), Poly(self.field, self.var, rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n):
        out = Poly.one_poly(self.field, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def monic(self):
        if not self.coeffs:
            return self
        inv = self.field.one() / self.lc()
        return self * inv

    def derivative(self):
        return Poly(
            self.field,
            self.var,
            tuple(i * c for i, c in enumerate(self.coeffs))[1:],
        )

    def evaluate(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return x * 0 if not isinstance(x, int) else self.field.zero()
        return acc

    def __repr__(self):
        return poly_str(self)


def _as_element(field, x):
    """Lift x into field if it plainly belongs there, else None."""
    if field.kind == "rationals":
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        return None
    if field.kind == "prime":
        if isinstance(x, FpElem) and x.p == field.p:
            return x
        if isinstance(x, int):
            return field.from_int(x)
        return None
    if field.kind == "extension":
        if isinstance(x, ExtElem) and x.field is field:
            return x
        if isinstance(x, int):
            return field.from_int(x)
        if isinstance(x, FpElem) and field.base.kind == "prime" and x.p == field.base.p:
            return field.embed(x)
        return None
    return None


def poly_gcd(a, b):
    """Monic gcd by Euclid; gcd(0, 0) is the zero polynomial."""
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def poly_ext_gcd(a, b):
    """(g, s, t) with s a + t b = g, g monic unless both inputs are zero."""
    f = a.field
    var = a.var
    r0, r1 = a, b
    s0, s1 = Poly.one_poly(f, var), Poly.zero_poly(f, var)
    t0, t1 = Poly.zero_poly(f, var), Poly.one_poly(f, var)
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0:
        inv = f.one() / r0.lc()
        r0, s0, t0 = r0 * inv, s0 * inv, t0 * inv
    return r0, s0, t0


def poly_pow_mod(base, n, modulus):
    out = Poly.one_poly(base.field, base.var)
    base = base % modulus
    while n:
        if n & 1:
            out = (out * base) % modulus
        base = (base * base) % modulus
        n >>= 1
    return out


def poly_is_irreducible(f):
    """Frobenius power test over a finite coefficient field."""
    q = f.field.size()
    if q is None:
        raise ValueError("irreducibility test needs a finite coefficient field")
    n = f.degree()
    if n < 1:
        return False
    if n == 1:
        return True
    x = Poly.x(f.field, f.var)
    if poly_pow_mod(x, q ** n, f) != x % f:
        return False
    for ell in _prime_divisors(n):
        g = poly_gcd(poly_pow_mod(x, q ** (n // ell), f) - x, f)
        if g.degree() != 0:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def find_irreducible(base, degree):
    """First monic irreducible of the given degree in enumeration order."""
    var = "x"
    for tail in itertools.product(list(base.elements()), repeat=degree):
        f = Poly(base, var, tail + (base.one(),))
        if poly_is_irreducible(f):
            return f
    raise AssertionError("no irreducible of degree %d over %s" % (degree, base.label()))


def quadratic_extension(base):
    """F_{q^2} over a finite base, preferring x^2 - nonsquare when p is odd."""
    if base.characteristic != 2:
        nu = base.non_square()
        m = Poly(base, "x", (-nu, base.zero(), base.one()))
        return ExtensionField(base, m)
    return ExtensionField(base, find_irreducible(base, 2))

def squarefree_decomposition(f):
    """(unit, [(g_i, m_i)]) with f = unit * prod g_i^{m_i}, g_i monic squarefree.

    Over finite coefficient fields, which are perfect: p-th roots are
    taken through the Frobenius.
    """
    if f.field.size() is None:
        raise ValueError("squarefree decomposition by this route needs a finite field")
    if not f:
        raise ValueError("cannot decompose the zero polynomial")
    unit = f.lc()
    f = f.monic()
    if f.degree() == 0:
        return unit, []
    out = {}
    _squarefree_char_p(f, 1, out)
    decomp = sorted(
        out.items(),
        key=lambda kv: (kv[1], kv[0].degree(), tuple(scalar_str(c) for c in kv[0].coeffs)),
    )
    return unit, [(g, m) for g, m in decomp]


def _squarefree_char_p(f, scale, out):
    """Accumulate squarefree factors of monic f with multiplicities * scale."""
    p = f.field.characteristic
    d = f.derivative()
    if not d:
        # f is a polynomial in var^p; take the p-th root coefficientwise
        root = _pth_root(f)
        _squarefree_char_p(root, scale * p, out)
        return
    g = poly_gcd(f, d)
    w = f // g
    i = 1
    while w.degree() > 0:
        y = poly_gcd(w, g)
        factor = w // y
        if factor.degree() > 0:
            key = factor.monic()
            out[key] = out.get(key, 0) + i * scale
        w, g = y, g // y
        i += 1
    if g.degree() > 0:
        root = _pth_root(g)
        _squarefree_char_p(root, scale * p, out)


def _pth_root(f):
    p = f.field.characteristic
    for i, c in enumerate(f.coeffs):
        if i % p and c:
            raise AssertionError("p-th root of a non p-power input")
    coeffs = []
    for i in range(0, len(f.coeffs), p):
        coeffs.append(_coeff_pth_root(f.field, f.coeffs[i]))
    return Poly(f.field, f.var, coeffs)


def _coeff_pth_root(field, c):
    p = field.characteristic
    if field.kind == "prime":
        return c  # Frobenius is the identity on F_p
    if field.kind == "extension":
        q = field.size()
        return c ** (q // p)  # inverse of x -> x^p on F_q
    raise ValueError(
        "p-th roots need a perfect coefficient field, not %s" % field.label()
    )


def _distinct_degree(f):
    """[(product of irreducible factors of degree e, e), ...] for monic
    squarefree f over a finite field."""
    field = f.field
    q = field.size()
    x = Poly(field, f.var, (field.zero(), field.one()))
    out = []
    h = x
    e = 0
    rest = f
    while rest.degree() > 0:
        e += 1
        if 2 * e > rest.degree():
            out.append((rest, rest.degree()))
            break
        h = poly_pow_mod(h, q, rest)
        g = poly_gcd(h - x, rest)
        if g.degree() > 0:
            out.append((g.monic(), e))
            rest = rest // g
            h = h % rest
    return out


def _equal_degree_split(f, e, rng):
    """One proper monic factor of f, a squarefree product of at least two
    irreducible factors all of degree e.  Cantor-Zassenhaus, with the
    additive trace variant in characteristic 2."""
    field = f.field
    q = field.size()
    n = f.degree()
    els = list(field.elements())
    while True:
        a = Poly(field, f.var, tuple(rng.choice(els) for _ in range(n)))
        if a.degree() < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree() < n:
            return g.monic()
        if field.characteristic == 2:
            t = a % f
            acc = t
            for _ in range(e * _two_power_degree(q) - 1):
                t = (t * t) % f
                acc = acc + t
            g = poly_gcd(acc, f)
        else:
            b = poly_pow_mod(a, (q ** e - 1) // 2, f)
            g = poly_gcd(b - Poly(field, f.var, (field.one(),)), f)
        if 0 < g.degree() < n:
            return g.monic()


def _two_power_degree(q):
    k = 0
    while q > 1:
        q //= 2
        k += 1
    return k


def irreducible_factors(f):
    """(unit, [(g, mult), ...]) with every g monic irreducible, over a
    finite coefficient field.  Deterministic: the splitting randomness is
    seeded from the input coefficients.
    """
    if f.field.size() is None:
        raise ValueError("factorization by this route needs a finite field")
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    import random as _random
    import zlib
    key = "%s;%s" % (f.field.label(), ",".join(scalar_str(c) for c in f.coeffs))
    rng = _random.Random(zlib.crc32(key.encode()))
    unit, sqfree = squarefree_decomposition(f)
    out = []
    for g, mult in sqfree:
        for part, e in _distinct_degree(g):
            pieces = [part]
            done = []
            while pieces:
                h = pieces.pop()
                if h.degree() == e:
                    done.append(h)
                else:
                    split = _equal_degree_split(h, e, rng)
                    pieces.append(split)
                    pieces.append((h // split).monic())
            done.sort(key=lambda h: tuple(scalar_str(c) for c in h.coeffs))
            out.extend((h, mult) for h in done)
    out.sort(key=lambda hm: (hm[0].degree(), tuple(scalar_str(c) for c in hm[0].coeffs)))
    return unit, out


def rational_roots(f):
    """Rational roots with multiplicities, plus the rootless cofactor.

    Runs on the primitive integer model of f: candidates a/b come from
    the classical divisor test (a divides the trailing coefficient, b
    the leading one), so this is exact, not a search heuristic.  A
    candidate is a root when the homogeneous form sum c_i a^i b^(d-i)
    vanishes, evaluated in Python ints, and each root is divided out of
    the integer coefficients (by b t - a, exact by Gauss's lemma) as
    often as it vanishes.  Fractions are made only for the report.
    """
    if f.field.kind != "rationals":
        raise ValueError("rational root extraction expects coefficients in Q")
    if not f:
        raise ValueError("the zero polynomial vanishes everywhere")
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    # strip powers of t so the trailing coefficient is nonzero
    shift = next(i for i, c in enumerate(ints) if c)
    ints = ints[shift:]
    roots = [(Fraction(0), shift)] if shift else []
    candidates = {(sign * a, b) for a in _divisors(abs(ints[0]))
                  for b in _divisors(abs(ints[-1])) for sign in (1, -1)
                  if math.gcd(a, b) == 1}
    for a, b in candidates:  # in any order: every root is divided out in full
        if len(ints) == 1:
            break
        mult = 0
        while len(ints) > 1 and not _homogeneous_value(ints, a, b):
            ints = _deflate(ints, a, b)
            mult += 1
        if mult:
            roots.append((Fraction(a, b), mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, Poly(f.field, f.var, tuple(Fraction(c, ints[-1]) for c in ints))


def _homogeneous_value(ints, a, b):
    """sum ints[i] a^i b^(d-i), d = len(ints) - 1, by Horner's rule."""
    acc, scale = 0, 1
    for c in reversed(ints):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _deflate(ints, a, b):
    """The integer coefficients (ascending) of f / (b t - a), for f with
    integer coefficients ints and f(a/b) = 0, from the top down."""
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        out[i - 1] = (ints[i] + carry) // b
        carry = a * out[i - 1]
    return out


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# binary forms in two homogeneous variables


class BinaryForm:
    """Homogeneous form of fixed degree d; coeffs[i] multiplies s^(d-i) t^i.

    The formal degree is part of the data: top coefficients may vanish,
    which records roots at (0 : 1).
    """

    __slots__ = ("field", "deg", "coeffs")

    def __init__(self, field, deg, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != deg + 1:
            raise ValueError("degree %d form needs %d coefficients" % (deg, deg + 1))
        self.field = field
        self.deg = deg
        self.coeffs = coeffs

    def evaluate(self, s0, t0):
        acc = self.field.zero()
        spow = [self.field.one()]
        tpow = [self.field.one()]
        for _ in range(self.deg):
            spow.append(spow[-1] * s0)
            tpow.append(tpow[-1] * t0)
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * spow[self.deg - i] * tpow[i]
        return acc

    def dehomogenize(self):
        """The polynomial in t given by s = 1."""
        return Poly(self.field, "t", self.coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def infinity_multiplicity(self):
        """Vanishing order at (0 : 1), read off the top coefficients."""
        if self.is_zero():
            raise ValueError("the zero form vanishes everywhere")
        m = 0
        for c in reversed(self.coeffs):
            if c:
                break
            m += 1
        return m

    def is_squarefree(self):
        """No repeated roots over the algebraic closure.

        Over a perfect field (Q, F_q) the dehomogenization f is
        squarefree exactly when gcd(f, f') = 1; the multiplicity at
        (0 : 1) is read off the top coefficients.
        """
        if self.is_zero():
            raise ValueError("the zero form is not squarefree")
        if self.infinity_multiplicity() > 1:
            return False
        d = self.dehomogenize()
        return poly_gcd(d, d.derivative()).degree() == 0

    def roots_projective(self):
        """[( (s0, t0), multiplicity ), ...] over Q.

        Affine roots are (1, r) for the rational roots r of the
        dehomogenization; the point (0, 1) appears when the top
        coefficients vanish.  Over a finite field pencil.analyze reads
        the roots off the factorization of the dehomogenization instead.
        """
        if self.is_zero():
            raise ValueError("the zero form vanishes everywhere")
        if self.field.kind != "rationals":
            raise ValueError("root listing needs Q")
        d = self.dehomogenize()
        affine, _ = rational_roots(d) if d.degree() > 0 else ([], d)
        one = self.field.one()
        out = [((one, r), m) for r, m in affine]
        inf = self.infinity_multiplicity()
        if inf:
            out.append(((self.field.zero(), one), inf))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and other.field is self.field
            and other.deg == self.deg
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.deg, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = []
            if self.deg - i:
                mono.append("s" + ("^%d" % (self.deg - i) if self.deg - i > 1 else ""))
            if i:
                mono.append("t" + ("^%d" % i if i > 1 else ""))
            cs = scalar_str(c)
            if mono and cs == "1":
                terms.append("*".join(mono))
            else:
                cs = "(%s)" % cs if ("/" in cs or "+" in cs or (cs.startswith("-") and mono)) else cs
                terms.append("*".join([cs] + mono))
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix over one field."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field is self.field
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def mul_vec(self, v):
        return tuple(_dot(row, v, self.field) for row in self.rows)

    def det(self):
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a nonsquare matrix")
        if n == 0:
            return self.field.one()
        m = [list(r) for r in self.rows]
        det = self.field.one()
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if m[r][col]:
                    pivot = r
                    break
            if pivot is None:
                return self.field.zero()
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det = det * m[col][col]
            inv = self.field.one() / m[col][col]
            for r in range(col + 1, n):
                if m[r][col]:
                    f = m[r][col] * inv
                    for c in range(col, n):
                        m[r][c] = m[r][c] - f * m[col][c]
        return det

    def _coded(self):
        """(ArrayCoding of the field, the coded matrix)."""
        coding = ArrayCoding(self.field)
        return coding, coding.array(self.rows) if self.rows else coding.zeros((0, 0))

    def rref(self):
        """(reduced row echelon matrix, pivot column tuple), decoded from
        coded_rref; the rows past the rank are zero."""
        coding, a = self._coded()
        red, pivots = coded_rref(coding, a)
        rows = [[coding.decode(x) for x in row] for row in red]
        rows += [[self.field.zero()] * self.ncols] * (self.nrows - len(rows))
        return Matrix(self.field, rows), tuple(pivots)

    def rank(self):
        return len(_fraction_free(*self._coded())[1])

    def kernel_basis(self):
        """Deterministic kernel basis: one vector per free column, ascending."""
        coding, a = self._coded()
        _, kernel, scales = coded_kernel(coding, a)
        return [tuple(coding.decode(x, s) for x in v) for v, s in zip(kernel.tolist(), scales)]

    def __repr__(self):
        return "Matrix(%s)" % ("; ".join(" ".join(scalar_str(a) for a in r) for r in self.rows))


def _dot(u, v, field):
    acc = field.zero()
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def _denominator(x):
    return x.denominator


class ArrayCoding:
    """Field elements coded as numpy array entries.

    Over F_p an element is its residue in an int64 array; products of
    two residues stay below 2^32, so sums of up to 2^31 of them are
    exact, and reduce() brings them back mod p.  Over Q an element is a
    Python int when it is integral and stays a Fraction otherwise, in an
    object array; integer work over Q (a numeric structure tensor, the
    elimination, integer kernel rows) may hold the integers in int64
    arrays instead, which integral() returns untouched and matmul()
    bounds itself.  Over any other field an element is itself, in an
    object array.  Coding is an injective ring map, so two coded
    matrices agree after reduce() exactly when the matrices agree.
    """

    def __init__(self, field):
        import numpy as np

        self.field = field
        self.p = field.p if field.kind == "prime" else None
        self.dtype = np.int64 if self.p else object

    def code(self, c):
        if self.p:
            return c.v
        if self.field.kind == "rationals":
            return c.numerator if c.denominator == 1 else c
        return c

    def decode(self, x, den=1):
        """The field element x / den; den > 1 only over Q."""
        field = self.field
        if self.p:
            return field.from_int(int(x))
        if field.kind == "rationals":
            # a float here would be a bug upstream; Fraction would hide it
            if den != 1:
                return Fraction(x.__index__(), den.__index__())
            return x if type(x) is Fraction else Fraction(x.__index__())
        return field.from_int(x) if isinstance(x, int) else x

    def array(self, rows):
        """Coded array of a (nested) sequence of field elements."""
        import numpy as np

        def walk(x):
            return [walk(e) for e in x] if isinstance(x, (list, tuple)) else self.code(x)

        return np.array(walk(rows), dtype=self.dtype)

    def zeros(self, shape):
        import numpy as np

        return np.zeros(shape, dtype=self.dtype)

    def eye(self, n):
        import numpy as np

        return np.eye(n, dtype=self.dtype)

    def reduce(self, a):
        """Canonical codes of an array of sums and products: over F_p the
        residues _mod gives."""
        return _mod(a, self.p) if self.p else a

    def equal(self, a, b):
        import numpy as np

        return not np.count_nonzero(self.reduce(a - b))

    def integral(self, a, per_row=False):
        """(d * a, d) with d the least common denominator of the entries
        of a over Q (of each row of a matrix a when per_row), so that
        d * a has Python int entries; an array of an integer dtype comes
        back untouched, with d = 1, as does any array over other fields."""
        import numpy as np

        if self.field.kind != "rationals" or not a.size or a.dtype != object:
            return a, 1
        den = np.frompyfunc(_denominator, 1, 1)(a)
        if per_row:
            d = np.lcm.reduce(den, axis=1)
            scaled = a * d[:, None]
        else:
            d = np.lcm.reduce(den.ravel())
            scaled = a * d
        return np.frompyfunc(int, 1, 1)(scaled).astype(object), d

    def numeric(self, a):
        """(a, m): a in the narrowest signed integer dtype that holds
        -m..m, m bounding every |entry|, for residues over F_p and for an
        integer array over Q; (a, None) for an array of object codes."""
        import numpy as np

        if self.p:
            a, m = self.reduce(np.asarray(a)), self.p - 1
        elif a.dtype == object:
            return a, None
        else:
            m = int(np.abs(a).max(initial=0))
        return a.astype(np.min_scalar_type(-m - 1), copy=False), m

    def codes(self, a):
        """Codes of a numeric() array: int64 over F_p, Python ints over Q."""
        return a if a.dtype == self.dtype else a.astype(self.dtype)

    def matmul(self, a, b, amax=None, bmax=None):
        """Exact a @ b of coded arrays, reduced.  Integers bounded by amax
        and bmax (residues over F_p, bounded by p - 1; an array of an
        integer dtype bounds itself when its bound is not given) are
        multiplied in float64 when no partial sum can reach 2^53, and
        come back as int64; other products run on the object codes,
        multiplying only pairs of nonzero entries."""
        import numpy as np

        if self.p:
            amax = bmax = self.p - 1
        if amax is None and a.dtype != object:
            amax = int(np.abs(a).max(initial=0))
        if bmax is None and b.dtype != object:
            bmax = int(np.abs(b).max(initial=0))
        if amax is not None and bmax is not None and a.shape[-1] * amax * bmax < 1 << 53:
            # one row of a per product: OpenBLAS keeps products that small
            # on the calling thread; its worker threads can stall on a
            # busy machine
            out = a.astype(np.float64)[..., None, :] @ b.astype(np.float64)[..., None, :, :]
            return self.reduce(out[..., 0, :].astype(np.int64))
        return self.reduce(_object_matmul(a.astype(object), b.astype(object)))

    def _primitive(self, rows):
        """Rows rescaled without changing their span: reduced mod p, or
        divided by their content over Q."""
        import numpy as np

        if self.p:
            return self.reduce(rows)
        if self.field.kind == "rationals":
            g = np.gcd.reduce(rows, axis=1)
            g[g == 0] = 1
            return rows // g[:, None]
        return rows

    def scale(self, a, c):
        """Codes of c * a, for a coded array a and a field element c; only
        the nonzero entries are multiplied."""
        import numpy as np

        if self.p:
            return self.reduce(a * c.v)
        out = a.astype(object)
        nz = np.nonzero(out)
        out[nz] = out[nz] * c
        if self.field.kind == "rationals":
            out[nz] = np.frompyfunc(self.code, 1, 1)(out[nz])  # integral Fractions back to ints
        return out

    def divide_rows(self, rows, divisors):
        """Each row divided by its own nonzero code: one inversion per row."""
        import numpy as np

        if self.p:
            p = self.p
            inv = np.array([pow(int(v), p - 2, p) for v in divisors], dtype=np.int64)
            return self.reduce(rows * inv[:, None])
        one, out = self.field.one(), rows.astype(object)
        for r, v in enumerate(divisors):
            out[r] = self.scale(rows[r], one / self.decode(v))
        return out


def _object_matmul(a, b):
    """a @ b for object arrays of rank >= 2 (with numpy's broadcasting),
    multiplying only pairs of nonzero entries: zeros cost nothing, and a
    sum of no products stays the Python int 0."""
    import numpy as np

    (m, k), n = a.shape[-2:], b.shape[-1]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, batch + (m, k)).reshape(math.prod(batch), m, k)
    b = np.broadcast_to(b, batch + (k, n)).reshape(len(a), k, n)
    (ta, ia, ka), (tb, kb, jb) = np.nonzero(a), np.nonzero(b)
    # pair each nonzero a[t, i, k] with the nonzeros of row b[t, k], which
    # np.nonzero lists in ascending (t, k) order
    key, want = tb * k + kb, ta * k + ka
    lo = np.searchsorted(key, want)
    count = np.searchsorted(key, want, side="right") - lo
    pa = np.repeat(np.arange(len(ta)), count)
    pb = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(pa))
    out = np.zeros((len(a), m, n), dtype=object)
    np.add.at(out, (ta[pa], ia[pa], jb[pb]), a[ta[pa], ia[pa], ka[pa]] * b[tb[pb], kb[pb], jb[pb]])
    return out.reshape(batch + (m, n))


def _fraction_free(coding, a):
    """(pivot rows, pivot columns) of a coded matrix after fraction-free
    Gauss-Jordan elimination, the rows not yet divided by their pivots.

    Each pivot step updates every other row with a nonzero entry in the
    pivot column at once, as pivot * row - entry * pivot_row.  Over F_p
    the rows are reduced mod p after each step.  Over Q the rows are
    first scaled to integers and then kept primitive; they run in int64
    while the row maxima bound every update, |pivot * row - entry *
    pivot_row| <= 2 max|pivot_row| max|row| < 2^63, and the same loop
    goes on with Python ints once a step cannot be bounded.
    """
    import numpy as np

    top = None  # per-row maxima of |entry|, kept while a runs in int64 over Q
    if coding.p:
        a = np.asarray(a, dtype=np.int64) % coding.p
    elif coding.field.kind == "rationals":
        a = coding.integral(a, per_row=True)[0]
        if int(np.abs(a).max(initial=0)) < 1 << 63:
            a = a.astype(np.int64)
            top = np.abs(a).max(axis=1, initial=0)
        else:
            a = a.astype(object)
    else:
        a = a.copy()
    m, n = a.shape
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        nz = a[r:, col].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            if top is not None:
                top[[r, i]] = top[[i, r]]
        hits = a[:, col].nonzero()[0]
        hits = hits[hits != r]
        if hits.size:
            if top is not None and 2 * int(top[r]) * int(top[hits].max()) >= 1 << 63:
                a, top = a.astype(object), None
            new = coding._primitive(a[r, col] * a[hits] - np.outer(a[hits, col], a[r]))
            a[hits] = new
            if top is not None:
                top[hits] = np.abs(new).max(axis=1)
        pivots.append(col)
        r += 1
    return a[:r], pivots


def coded_rref(coding, a):
    """(reduced row echelon rows, pivot columns) of a coded matrix.

    The one exact single-matrix elimination for every field: Matrix.rref
    decodes it, and Matrix.rank and coded_kernel read their answers off
    the same fraction-free pass (_fraction_free).  The fraction-free
    pivot rows are divided by their pivots at the end, the only step over
    Q that makes Fractions, and only from nonzero entries.
    """
    rows, pivots = _fraction_free(coding, a)
    return coding.divide_rows(rows, [rows[k, c] for k, c in enumerate(pivots)]), pivots


def coded_kernel(coding, a):
    """(free columns, kernel rows, scales) of a coded matrix with n columns.

    The reduced echelon kernel basis has one vector per free column, in
    ascending order, with a 1 there and 0 at the other free columns; it
    is kernel / scales, row by row.  Over Q each kernel row is that
    vector times the least common denominator of its entries, a
    primitive integer row (int64 when it fits, Python ints otherwise),
    read off the fraction-free pivot rows without making a Fraction.
    Over other fields the rows are the codes of the basis and every
    scale is 1.  scales is an object array of Python ints.
    """
    import numpy as np

    n = a.shape[1]
    rows, pivots = _fraction_free(coding, a)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    if coding.field.kind != "rationals":
        red = coding.divide_rows(rows, [rows[k, c] for k, c in enumerate(pivots)])
        kernel = coding.zeros((len(free), n))
        kernel[np.arange(len(free)), free] = 1
        if pivots:
            kernel[:, pivots] = coding.reduce(-red[:, free].T)
        return free, kernel, np.ones(len(free), dtype=object)
    # the basis vector of free column f has -rows[i, f] / pivot_i at the
    # pivot column of row i; in lowest terms num / den, it is scaled by
    # the lcm L of the column's denominators, at most their product
    piv = rows[np.arange(len(pivots)), pivots]
    sign = np.where(piv < 0, -1, 1).astype(rows.dtype)
    num = -rows[:, free] * sign[:, None]
    g = np.gcd(num, (piv * sign)[:, None])
    num, den = num // g, (piv * sign)[:, None] // g
    if num.dtype != object and (np.log2(den).sum(axis=0, initial=0).max(initial=0)
                                + np.log2(np.abs(num).max(initial=0) + 1) >= 62):
        num, den = num.astype(object), den.astype(object)
    lcm = np.lcm.reduce(den, axis=0, initial=1)
    kernel = np.zeros((len(free), n), dtype=num.dtype)
    kernel[np.arange(len(free)), free] = lcm
    if pivots:
        kernel[:, pivots] = (num * (lcm // den)).T
    return free, kernel, lcm.astype(object)


def _mod(a, p):
    """a % p for an array a of integers, of an integer or object dtype or
    of a float dtype whose entries are exact integers, computed as
    a - floor(a / p) p in place on one temporary: numpy divides an integer
    array by a scalar without a hardware division, which % does not, and
    divides floats and rounds them down far faster than % or fmod (timeit
    on one core of a shared 2-CPU x86_64 VM, numpy 2.4, 2^18 entries,
    p = 3: int64 0.46 ms against 0.91 ms for %, int8 0.04 against
    0.55 ms, float32 0.17 against 5.0 ms).  Exact for floats while
    |a| < 2^mantissa: an a / p that rounds up to the next integer would need
    a quotient within half an ulp of it, and it is at least 1/p away.  An
    integer array must leave room for floor(a / p) p in its dtype, which
    holds for the residue stacks here: they are sums of products and
    differences of residues, nonnegative or above -p."""
    import numpy as np

    if a.dtype.kind == "f":
        out = a / p
        np.floor(out, out=out)
    else:
        out = a // p
    out *= -p
    out += a
    return out


def bilinear(u, m, v):
    """u_r^T m v_r for every row r of the stacks u and v, broadcast: the
    one stack evaluation of forms (the form value when u = v and m is a
    coefficient matrix)."""
    import numpy as np

    return np.einsum("...i,...i->...", u @ m, v)


def _residue_dtype(p, e):
    """The narrowest integer dtype in which a product of two elements of
    F_{p^e}, as residues, is exact."""
    import numpy as np

    return np.min_scalar_type(-e * e * p ** 3)


@functools.lru_cache(maxsize=None)
def _point_table(p, e, n, lead):
    """ResidueCoding.points, built once per key and frozen.  The
    enumerations that read the tables keep them small (at most 9^5 rows,
    lagrangian.enumeration_in_budget), so the cache is not bounded."""
    import numpy as np

    count = p ** ((n - lead - 1) * e)
    pts = np.zeros((count, n * e), dtype=_residue_dtype(p, e))
    pts[:, lead * e] = 1
    tails = np.arange(count)
    for j in range(n * e - 1, (lead + 1) * e - 1, -1):
        pts[:, j], tails = tails % p, tails // p
    pts.setflags(write=False)
    return pts


class ResidueCoding:
    """Elements of F_p, or of an extension F_p[w]/(f), as residues mod p.

    An element of F_{p^e} is its coefficients of 1, w, ..., w^(e-1) mod
    p, a vector a row of n*e residues, and rows sort as the vectors do in
    the order of field.elements().  mult[x, y], the residues of w^(x+y)
    reduced by f (ExtensionField._xpow), is the one multiplication
    tensor.  Residues use the narrowest dtype in which a product of two
    elements is exact.  Weil matrices are float, for BLAS products:
    float32 while their sums stay below 2^24, where it is exact.
    """

    def __init__(self, field):
        import numpy as np

        base = field.base if field.kind == "extension" else field
        if base.kind != "prime":
            raise ValueError("residue coding needs F_p or an extension of F_p")
        self.field = field
        p = self.p = base.p
        e = self.e = field.degree if field.kind == "extension" else 1
        self.dtype = _residue_dtype(p, e)
        powers = np.eye(e, dtype=int).tolist() + [
            [c.v for c in row] for row in getattr(field, "_xpow", ())]
        self.mult = np.array([[powers[x + y] for y in range(e)] for x in range(e)],
                             dtype=self.dtype)

    @functools.cached_property
    def frobenius(self):
        """The q-power map as an e x e matrix, row x the residues of
        (w^x)^p; None over F_p."""
        f, e = self.field, self.e
        return self.array([f.frobenius(f.gen() ** x) for x in range(e)]).reshape(e, e) \
            if e > 1 else None

    def array(self, rows):
        """Residue rows (..., n*e) of nested sequences (..., n) of elements."""
        import numpy as np

        def walk(x):
            if isinstance(x, (list, tuple)):
                return [walk(y) for y in x]
            return [x.v] if self.e == 1 else [c.v for c in x.c]

        a = np.array(walk(rows), dtype=self.dtype)
        return a.reshape(a.shape[:-2] + (-1,))

    def decode(self, a):
        """Nested tuples of field elements of residue rows (..., n*e)."""
        import numpy as np

        elems = self.field.elements()

        def walk(x):
            return tuple(walk(y) for y in x) if isinstance(x, list) else elems[x]

        return walk((self.elements_axis(a) @ self.p ** np.arange(self.e)[::-1]).tolist())

    def elements_axis(self, a):
        """Residue rows (..., n*e) viewed as (..., n, e)."""
        return a.reshape(a.shape[:-1] + (a.shape[-1] // self.e, self.e))

    def points(self, n, lead):
        """Residue rows of the vectors of length n, zero before lead and
        one at lead, tails in lexicographic order: the projective points
        with that leading column.  By ascending lead the tables give the
        canonical order, by descending lead the lexicographic one.  The
        table is built once per (p, e, n, lead) and shared, read-only."""
        return _point_table(self.p, self.e, n, lead)

    def weil(self, m):
        """Weil restriction of a stack m (..., r, c*e) of residue rows: the
        matrices (..., r*e, c*e) over F_p taking residues of u to u m."""
        import numpy as np

        m, p = self.elements_axis(m), self.p
        real = np.float32 if m.shape[-3] * self.e * p * p < 1 << 24 else np.float64
        out = _mod(np.einsum("...ija,xak->...ixjk", m, self.mult, dtype=real), p)
        return out.reshape(m.shape[:-3] + (m.shape[-3] * self.e, m.shape[-2] * self.e))

    def gram(self, rows):
        """Gram matrices G (e, n*e, n*e) over F_p of an n x n matrix M of
        field elements: bilinear(u, G[k], v) is residue k of u^T M v."""
        import numpy as np

        e, n, p = self.e, len(rows), self.p
        lin = self.weil(self.array(rows)).reshape(n * e, n, e)
        real = np.float32 if (n * e) ** 2 * p ** 3 < 1 << 24 else np.float64
        out = _mod(np.einsum("ajz,zyk->kajy", lin, self.mult, dtype=real), p)
        return out.reshape(e, n * e, n * e)

    def reduce(self, x):
        """Residues of integers, such as exact float Weil products."""
        import numpy as np

        if x.dtype.kind != "f":
            x = x.astype(np.int64, copy=False)
        return _mod(x, self.p).astype(self.dtype)

    def conjugate(self, a):
        """The q-power map on residue rows (..., n*e) of an extension."""
        return _mod(self.elements_axis(a) @ self.frobenius, self.p).reshape(a.shape)

    def mul(self, a, b):
        """Products of elements stacked residue axis first, (e, ...)."""
        import numpy as np

        e, mult = self.e, self.mult
        prods = [(x, y, a[x] * b[y]) for x in range(e) for y in range(e)]
        return _mod(np.stack([sum(mult[x, y, k] * t for x, y, t in prods if mult[x, y, k])
                              for k in range(e)]), self.p)

    def inverse(self, a):
        """Inverses of elements stacked residue axis first, 0 for 0: with
        s the q-power map, c = s(a) ... s^(e-1)(a) and the norm a c in F_p,
        a^-1 = c / (a c)."""
        import numpy as np

        p = self.p
        inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=self.dtype)
        conj = image = a
        for k in range(1, self.e):
            image = _mod(np.tensordot(self.frobenius, image, axes=(0, 0)), p)
            conj = image if k == 1 else self.mul(conj, image)
        return inv[a] if self.e == 1 else _mod(conj * inv[self.mul(a, conj)[0]], p)

    def rref(self, a):
        """(reduced row echelon forms, ranks) of a stack a (count, r, c*e)
        of residue rows.

        One elimination for the whole stack, stack axis last: each column
        step swaps the first usable row of every matrix into place,
        normalizes it and clears the column in the other rows.  A matrix
        without one keeps its rows: it swaps a row with itself, whose
        pivot 0 normalizes it to zero, so clearing subtracts nothing.
        Rows past the rank come out zero.
        """
        import numpy as np

        count, nr, width = a.shape
        a = self.elements_axis(a.astype(self.dtype)).transpose(3, 1, 2, 0).copy()
        rank = np.zeros(count, dtype=np.intp)
        rows = np.arange(nr)[:, None]
        for col in range(width // self.e):
            usable = a[:, :, col].any(axis=0) & (rows >= rank)
            has = usable.any(axis=0)
            if not has.any():
                continue
            dst = np.minimum(rank, nr - 1)[None, None, None]
            src = np.where(has, usable.argmax(axis=0), dst)
            row = np.take_along_axis(a, src, axis=1)
            np.put_along_axis(a, src, np.take_along_axis(a, dst, axis=1), axis=1)
            top = self.mul(self.inverse(row[:, :, col])[:, :, None], row)
            np.put_along_axis(a, dst, np.where(has, top, row), axis=1)
            factor = a[:, :, col].copy()
            np.put_along_axis(factor, dst[0], 0, axis=1)
            a -= self.mul(factor[:, :, None], top)
            a = _mod(a, self.p)
            rank += has
        return a.transpose(3, 1, 2, 0).reshape(count, nr, width), rank


# ---------------------------------------------------------------------------
# printing


def scalar_str(a):
    """Exact, canonical string for any supported scalar."""
    if isinstance(a, Fraction):
        return str(a)
    if isinstance(a, FpElem):
        return str(a.v)
    if isinstance(a, ExtElem):
        return _ext_str(a)
    if isinstance(a, Poly):
        return poly_str(a)
    if isinstance(a, int):
        return str(a)
    raise TypeError("no canonical string for %r" % (a,))


def _ext_str(a):
    terms = []
    for i in range(len(a.c) - 1, -1, -1):
        c = a.c[i]
        if not c:
            continue
        cs = scalar_str(c)
        if i == 0:
            terms.append(cs)
        else:
            var = "g" if i == 1 else "g^%d" % i
            terms.append(var if cs == "1" else "%s*%s" % (cs, var))
    return "+".join(terms) if terms else "0"


def poly_str(f):
    if not f.coeffs:
        return "0"
    terms = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        cs = scalar_str(c)
        if i == 0:
            terms.append("(%s)" % cs if "+" in cs else cs)
            continue
        var = f.var if i == 1 else "%s^%d" % (f.var, i)
        if cs == "1":
            terms.append(var)
        elif cs == "-1":
            terms.append("-" + var)
        else:
            if "/" in cs or "+" in cs:
                cs = "(%s)" % cs
            terms.append("%s*%s" % (cs, var))
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out
