"""Exact scalars, polynomials, and dense linear algebra over small fields.

Four field kinds cover everything downstream: the rationals, prime fields
F_p, finite extensions F_q[x]/(m), and rational function fields k(t) with
k one of the former (towers at most two deep, so k and k(t) only).
Rationals are stdlib Fractions; the other element types are immutable
wrappers with operator overloading, so generic code over an arbitrary
field reads as ordinary arithmetic.  A FieldContext owns construction,
enumeration (finite kinds), square testing, and square-class
normalization; contexts are interned, carry no mutable state, and are
safe to share.

Polynomials store coefficients lowest degree first with trailing zeros
stripped; the zero polynomial has degree -1, a sentinel rather than a
valid exponent.  Matrices are immutable row tuples over a fixed field.
Elimination always takes the first nonzero pivot candidate, so ranks,
kernels, and every witness derived from them are deterministic.
"""

from __future__ import annotations

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

    def square_class(self, a):
        """Canonical representative of a modulo nonzero squares."""
        raise NotImplementedError

    def sqrt(self, a):
        """A square root of a, or None.  Deterministic choice of root."""
        raise NotImplementedError

    def label(self):
        raise NotImplementedError

    def __repr__(self):
        return self.label()

    def small_tables(self):
        """(elements, index map, add table, mul table) for finite fields.

        Tables are nested tuples indexed by element position in
        elements(); hot enumeration loops run on these int indices
        instead of wrapped elements.  Cached per context.
        """
        if self.size() is None:
            raise TypeError("tables need a finite field")
        cached = getattr(self, "_tables", None)
        if cached is None:
            elems = list(self.elements())
            index = {e: i for i, e in enumerate(elems)}
            add = tuple(tuple(index[a + b] for b in elems) for a in elems)
            mul = tuple(tuple(index[a * b] for b in elems) for a in elems)
            cached = (elems, index, add, mul)
            self._tables = cached
        return cached


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

    def square_class(self, a):
        """Squarefree integer representing a mod squares (0 for 0)."""
        if a == 0:
            return Fraction(0)
        n = a.numerator * a.denominator
        sign = -1 if n < 0 else 1
        n = abs(n)
        rep = 1
        d = 2
        while d * d <= n:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n //= d
                    e += 1
                if e % 2:
                    rep *= d
            d += 1 if d == 2 else 2
        rep *= n
        return Fraction(sign * rep)

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

    def square_class(self, a):
        if a.v == 0:
            return FpElem(0, self.p)
        if self.is_square(a):
            return FpElem(1, self.p)
        return self.non_square()

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
        if modulus.degree() < 2 or modulus.lc() != base.one():
            raise ValueError("modulus must be monic of degree >= 2")
        if base.size() is not None:
            if not poly_is_irreducible(modulus):
                raise ValueError("modulus %s is reducible" % (modulus,))
        else:
            # infinite base: only quadratics, certified irreducible by the
            # discriminant being a nonsquare (characteristic not 2)
            if modulus.degree() != 2:
                raise ValueError("over an infinite base only quadratic extensions are supported")
            if base.characteristic == 2:
                raise ValueError("quadratic extensions of infinite characteristic-2 fields are out of scope")
            b, c = modulus.coeff(1), modulus.coeff(0)
            if base.is_square(b * b - 4 * c):
                raise ValueError("modulus %s has a root in %s" % (modulus, base.label()))
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
        b = self.base.size()
        return None if b is None else b ** self.degree

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
        q = self.base.size()
        if q is None:
            raise TypeError("Frobenius needs a finite base field")
        return a ** q

    def is_square(self, a):
        q = self.size()
        if q is None:
            raise NotImplementedError("square testing in an infinite extension")
        if not a or self.characteristic == 2:
            return True
        return a ** ((q - 1) // 2) == self.one()

    def non_square(self):
        if self.characteristic == 2:
            return None
        for e in self.elements():
            if e and not self.is_square(e):
                return e
        raise AssertionError("no nonsquare in %s" % self.label())

    def square_class(self, a):
        if not a:
            return self.zero()
        return self.one() if self.is_square(a) else self.non_square()

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


class FunctionField(FieldContext):
    """k(t): fractions of polynomials over k, reduced, monic denominator."""

    kind = "function"
    _cache = {}

    def __new__(cls, base, var):
        key = (base, var)
        f = cls._cache.get(key)
        if f is not None:
            return f
        if base.kind == "function" and base.base.kind == "function":
            raise ValueError("function field towers deeper than two are not supported")
        if not var.isidentifier():
            raise ValueError("bad variable name %r" % (var,))
        if base.kind == "function" and base.var == var:
            raise ValueError("tower reuses variable %r" % (var,))
        f = super().__new__(cls)
        f.base = base
        f.var = var
        cls._cache[key] = f
        return f

    def from_int(self, n):
        return RatFunc(self, Poly.const(self.base, self.var, self.base.from_int(n)), None)

    def from_poly(self, p):
        if not (p.field is self.base and p.var == self.var):
            raise ValueError("polynomial does not live in %s" % self.label())
        return RatFunc(self, p, None)

    def gen(self):
        return RatFunc(self, Poly.x(self.base, self.var), None)

    @property
    def characteristic(self):
        return self.base.characteristic

    def is_square(self, a):
        if not a:
            return True
        for part in (a.num, a.den):
            unit, decomp = squarefree_decomposition(part)
            if not self.base.is_square(unit):
                return False
            if any(mult % 2 for _, mult in decomp):
                return False
        return True

    def square_class(self, a):
        """unit class times the odd-multiplicity part of num * den."""
        if not a:
            return self.zero()
        g = a.num * a.den
        unit, decomp = squarefree_decomposition(g)
        rep = Poly.const(self.base, self.var, self.base.square_class(unit))
        for factor, mult in decomp:
            if mult % 2:
                rep = rep * factor
        return RatFunc(self, rep, None)

    def sqrt(self, a):
        if not a:
            return self.zero()
        parts = []
        for part in (a.num, a.den):
            unit, decomp = squarefree_decomposition(part)
            root_unit = self.base.sqrt(unit)
            if root_unit is None or any(m % 2 for _, m in decomp):
                return None
            r = Poly.const(self.base, self.var, root_unit)
            for factor, mult in decomp:
                for _ in range(mult // 2):
                    r = r * factor
            parts.append(r)
        return RatFunc(self, parts[0], parts[1])

    def label(self):
        return "%s(%s)" % (self.base.label(), self.var)


class RatFunc:
    """Reduced fraction of polynomials; denominator monic and nonzero."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=None):
        if den is None:
            den = Poly.one_poly(field.base, field.var)
        if not den:
            raise ZeroDivisionError("zero denominator in %s" % field.label())
        if num:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num, den = num // g, den // g
            lead = den.lc()
            if lead != field.base.one():
                inv = field.base.one() / lead
                num, den = num * inv, den * inv
        else:
            num = Poly.zero_poly(field.base, field.var)
            den = Poly.one_poly(field.base, field.var)
        self.field = field
        self.num = num
        self.den = den

    def _lift(self, other):
        if isinstance(other, RatFunc) and other.field is self.field:
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Poly) and other.field is self.field.base and other.var == self.field.var:
            return RatFunc(self.field, other, None)
        base = self.field.base
        if base.kind == "rationals" and isinstance(other, Fraction):
            return RatFunc(self.field, Poly.const(base, self.field.var, other), None)
        if isinstance(other, FpElem) and base.kind == "prime" and other.p == base.p:
            return RatFunc(self.field, Poly.const(base, self.field.var, other), None)
        if isinstance(other, ExtElem) and other.field is base:
            return RatFunc(self.field, Poly.const(base, self.field.var, other), None)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.field, self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den)

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
        return RatFunc(self.field, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero in %s" % self.field.label())
        return RatFunc(self.field, self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n):
        if n < 0:
            return (self.field.one() / self) ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_polynomial(self):
        return self.den.degree() == 0

    def __repr__(self):
        return scalar_str(self)


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

    def shift(self, k):
        """Multiply by var^k."""
        if not self.coeffs:
            return self
        return Poly(self.field, self.var, (self.field.zero(),) * k + self.coeffs)

    def map_coeffs(self, fn, field=None):
        return Poly(field or self.field, self.var, tuple(fn(c) for c in self.coeffs))

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
    if field.kind == "function":
        if isinstance(x, RatFunc) and x.field is field:
            return x
        if isinstance(x, int):
            return field.from_int(x)
        if isinstance(x, Poly) and x.field is field.base and x.var == field.var:
            return field.from_poly(x)
        inner = _as_element(field.base, x)
        if inner is not None:
            return RatFunc(field, Poly.const(field.base, field.var, inner), None)
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

    Works in characteristic zero (Yun) and over perfect finite coefficient
    fields, where p-th roots are taken through the Frobenius; imperfect
    bases such as F_p(u) raise when a genuine p-th power block appears.
    """
    if not f:
        raise ValueError("cannot decompose the zero polynomial")
    unit = f.lc()
    f = f.monic()
    if f.degree() == 0:
        return unit, []
    p = f.field.characteristic
    if p == 0:
        return unit, _yun(f)
    out = {}
    _squarefree_char_p(f, 1, out)
    decomp = sorted(
        out.items(),
        key=lambda kv: (kv[1], kv[0].degree(), tuple(scalar_str(c) for c in kv[0].coeffs)),
    )
    return unit, [(g, m) for g, m in decomp]


def _yun(f):
    """Squarefree decomposition in characteristic zero, monic input."""
    out = []
    g = poly_gcd(f, f.derivative())
    c = f // g
    i = 1
    while c.degree() > 0:
        y = poly_gcd(c, g)
        factor = c // y
        if factor.degree() > 0:
            out.append((factor.monic(), i))
        c, g = y, g // y
        i += 1
    return out


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


def factor_roots_prime_field(f):
    """All roots in a finite coefficient field, with multiplicities.

    Returns ([(root, multiplicity), ...], cofactor) where the cofactor is
    the monic rootless part.  Exhaustive evaluation, so the field must be
    finite; roots come out in enumeration order.
    """
    if f.field.size() is None:
        raise ValueError("root factoring by enumeration needs a finite field")
    if not f:
        raise ValueError("the zero polynomial vanishes everywhere")
    roots = []
    g = f.monic()
    for a in f.field.elements():
        if g.degree() == 0:
            break
        if not g.evaluate(a):
            mult = 0
            lin = Poly(f.field, f.var, (-a, f.field.one()))
            while True:
                q, r = divmod(g, lin)
                if r:
                    break
                g = q
                mult += 1
            roots.append((a, mult))
    return roots, g


def rational_roots(f):
    """Rational roots with multiplicities, plus the rootless cofactor.

    Candidates come from the classical divisor test on the primitive
    integer model, so this is exact, not a search heuristic.
    """
    if f.field.kind != "rationals":
        raise ValueError("rational root extraction expects coefficients in Q")
    if not f:
        raise ValueError("the zero polynomial vanishes everywhere")
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    g = math.gcd(*ints)
    if g:
        ints = [c // g for c in ints]
    # strip powers of t so the trailing coefficient is nonzero
    shift = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        shift += 1
    roots = []
    if shift:
        roots.append((Fraction(0), shift))
    candidates = set()
    if ints:
        for pn in _divisors(abs(ints[0])):
            for pd in _divisors(abs(ints[-1])):
                candidates.add(Fraction(pn, pd))
                candidates.add(Fraction(-pn, pd))
    work = f
    if shift:
        work = Poly(f.field, f.var, f.coeffs[shift:])
    for r in sorted(candidates):
        if work.degree() == 0:
            break
        if not work.evaluate(r):
            mult = 0
            lin = Poly(f.field, f.var, (-r, Fraction(1)))
            while True:
                q, rem = divmod(work, lin)
                if rem:
                    break
                work = q
                mult += 1
            if mult:
                roots.append((r, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work.monic()


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

    @classmethod
    def from_dehomogenized(cls, field, poly, deg):
        """Rebuild the degree-deg form whose value at (1, t) is poly."""
        if poly.degree() > deg:
            raise ValueError("polynomial degree exceeds the form degree")
        coeffs = [poly.coeff(i) for i in range(deg + 1)]
        return cls(field, deg, coeffs)

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

    def dehomogenize(self, var="t"):
        """The polynomial in t given by s = 1."""
        return Poly(self.field, var, self.coeffs)

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

        Uses the full squarefree decomposition of the dehomogenization,
        so perfect coefficient fields in small characteristic are handled
        exactly, plus the explicit multiplicity at (0 : 1).
        """
        if self.is_zero():
            raise ValueError("the zero form is not squarefree")
        if self.infinity_multiplicity() > 1:
            return False
        d = self.dehomogenize()
        if d.degree() <= 0:
            return True
        _, decomp = squarefree_decomposition(d)
        return all(m == 1 for _, m in decomp)

    def roots_projective(self):
        """[( (s0, t0), multiplicity ), ...] over the coefficient field.

        Affine roots are (1, r) for roots r of the dehomogenization; the
        point (0, 1) appears when the top coefficients vanish.  For Q the
        affine roots are the rational ones.
        """
        if self.is_zero():
            raise ValueError("the zero form vanishes everywhere")
        d = self.dehomogenize()
        if self.field.size() is not None:
            affine, _ = factor_roots_prime_field(d) if d.degree() > 0 else ([], d)
        elif self.field.kind == "rationals":
            affine, _ = rational_roots(d) if d.degree() > 0 else ([], d)
        else:
            raise ValueError("root listing needs a finite field or Q")
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

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)])

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

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows))) if self.rows else self

    def __add__(self, other):
        return Matrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return Matrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            bt = list(zip(*other.rows))
            return Matrix(
                self.field,
                [[_dot(row, col, self.field) for col in bt] for row in self.rows],
            )
        return NotImplemented

    def scale(self, c):
        return Matrix(self.field, [[c * a for a in row] for row in self.rows])

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

    def rref(self):
        """(reduced row echelon matrix, pivot column tuple)."""
        m = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        r = 0
        for col in range(nc):
            if r == nr:
                break
            pr = None
            for i in range(r, nr):
                if m[i][col]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = self.field.one() / m[r][col]
            m[r] = [inv * a for a in m[r]]
            for i in range(nr):
                if i != r and m[i][col]:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(col)
            r += 1
        return Matrix(self.field, m), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Deterministic kernel basis: one vector per free column, ascending."""
        red, pivots = self.rref()
        nc = self.ncols
        pivot_set = set(pivots)
        basis = []
        z, o = self.field.zero(), self.field.one()
        for free in range(nc):
            if free in pivot_set:
                continue
            v = [z] * nc
            v[free] = o
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][free]
            basis.append(tuple(v))
        return basis

    def solve(self, b):
        """A solution of self @ x = b, or None; free variables set to zero."""
        aug = Matrix(self.field, [list(r) + [bv] for r, bv in zip(self.rows, b)])
        red, pivots = aug.rref()
        nc = self.ncols
        if nc in pivots:
            return None
        z = self.field.zero()
        x = [z] * nc
        for r, pc in enumerate(pivots):
            x[pc] = red.rows[r][nc]
        return tuple(x)

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def __repr__(self):
        return "Matrix(%s)" % ("; ".join(" ".join(scalar_str(a) for a in r) for r in self.rows))


def _dot(u, v, field):
    acc = field.zero()
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def kernel_basis_mod_p(rows, p):
    """Kernel of an integer matrix mod p, echelon-canonical basis.

    rows: iterable of equal-length int sequences (entries reduced mod p
    here).  Returns a list of int tuples; free columns in ascending
    order, one basis vector per free column with a 1 there.  Uses numpy
    int64 throughout, which is exact for p < 2^16.
    """
    import numpy as np

    a = np.array([[e % p for e in r] for r in rows], dtype=np.int64)
    if a.size == 0:
        ncols = len(rows[0]) if rows else 0
        return [tuple(1 if i == j else 0 for i in range(ncols)) for j in range(ncols)]
    m, n = a.shape
    piv_of_col = {}
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        r = row + int(nz[0])
        if r != row:
            a[[row, r]] = a[[r, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row] = (a[row] * inv) % p
        hits = np.nonzero(a[:, col])[0]
        for i in hits:
            if i != row:
                a[i] = (a[i] - a[i, col] * a[row]) % p
        piv_of_col[col] = row
        row += 1
    free = [c for c in range(n) if c not in piv_of_col]
    out = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for c, r in piv_of_col.items():
            v[c] = int(-a[r, f]) % p
        out.append(tuple(v))
    return out


class SpanSolver:
    """Repeated coordinate solves against one fixed independent spanning set.

    Columns are the spanning vectors (length m each, n of them, n <= m).
    One Gaussian elimination is paid up front, tracking the row operations
    applied to an identity, after which each solve of span . x = b costs
    only a few column combinations, and sparse right-hand sides cost
    proportionally less.
    """

    def __init__(self, field, columns):
        self.field = field
        self.ncols = len(columns)
        self.nrows = len(columns[0]) if columns else 0
        m, n = self.nrows, self.ncols
        z, o = field.zero(), field.one()
        work = [[columns[j][i] for j in range(n)] for i in range(m)]
        ops = [[o if i == j else z for j in range(m)] for i in range(m)]
        row = 0
        pivots = []
        for col in range(n):
            pr = None
            for i in range(row, m):
                if work[i][col]:
                    pr = i
                    break
            if pr is None:
                raise ValueError("spanning vectors are dependent at column %d" % col)
            work[row], work[pr] = work[pr], work[row]
            ops[row], ops[pr] = ops[pr], ops[row]
            inv = o / work[row][col]
            work[row] = [inv * a for a in work[row]]
            ops[row] = [inv * a for a in ops[row]]
            for i in range(m):
                if i != row and work[i][col]:
                    f = work[i][col]
                    work[i] = [a - f * b for a, b in zip(work[i], work[row])]
                    ops[i] = [a - f * b for a, b in zip(ops[i], ops[row])]
            pivots.append(col)
            row += 1
        # column view of the op matrix for cheap sparse application
        self._op_cols = [tuple(ops[i][j] for i in range(m)) for j in range(m)]
        self._rank = row

    def solve_sparse(self, b):
        """Coordinates of the sparse dict b in the span, or None."""
        z = self.field.zero()
        c = [z] * self.nrows
        for i, coef in b.items():
            if coef:
                col = self._op_cols[i]
                for r in range(self.nrows):
                    if col[r]:
                        c[r] = c[r] + coef * col[r]
        for r in range(self.ncols, self.nrows):
            if c[r]:
                return None
        return tuple(c[: self.ncols])

    def solve_dense(self, b):
        return self.solve_sparse({i: v for i, v in enumerate(b) if v})


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
    if isinstance(a, RatFunc):
        if a.den.degree() == 0:
            return poly_str(a.num)
        num = poly_str(a.num)
        den = poly_str(a.den)
        if len(a.num.coeffs) - a.num.coeffs.count(a.num.field.zero()) > 1:
            num = "(%s)" % num
        return "%s/(%s)" % (num, den)
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
