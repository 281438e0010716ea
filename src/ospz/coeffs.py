"""Exact coefficient arithmetic.

Three scalar domains:

* sparse univariate polynomials in the Cartan symbol H over Q,
* rational functions num/den in H (the left coefficient ring of the
  normal-ordering engine), kept in canonical form: coprime, monic
  denominator, so equality is syntactic,
* the quadratic extension Q(sqrt 2) used by the representation code.

Everything is immutable and pure; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

RationalLike = Union[int, Fraction]


class PoleEvaluationError(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


class Polynomial:
    """Sparse polynomial in H with Fraction coefficients.

    The degree of the zero polynomial is the sentinel -1.
    """

    __slots__ = ("_coeffs", "_intform")

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for d, c in coeffs.items():
                if d < 0:
                    raise ValueError("negative degree")
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    clean[d] = c
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_intform", None)

    # -- dual representation --------------------------------------------
    # The hot arithmetic (products, sums, shifts) runs on a dense integer
    # coefficient list with one common denominator; the Fraction dict is
    # materialized lazily.  Both forms are canonical: the integer form is
    # content-reduced with positive denominator, so equality and hashing can
    # use it directly.

    @property
    def coeffs(self) -> dict[int, Fraction]:
        c = self._coeffs
        if c is None:
            den, a = self._intform
            c = {d: Fraction(n, den) for d, n in enumerate(a) if n}
            object.__setattr__(self, "_coeffs", c)
        return c

    def _ints(self) -> tuple[int, list[int]]:
        """Integer form (den, a): self = (1/den) * sum a[d] H^d, a trimmed."""
        cached = self._intform
        if cached is None:
            c = self._coeffs
            if not c:
                cached = (1, [])
            else:
                den = lcm(*(f.denominator for f in c.values()))
                a = [0] * (max(c) + 1)
                for d, f in c.items():
                    a[d] = int(f * den)
                cached = (den, a)
            object.__setattr__(self, "_intform", cached)
        return cached

    @classmethod
    def _from_ints(cls, den: int, a: list[int]) -> "Polynomial":
        while a and not a[-1]:
            a.pop()
        if a:
            g = den
            for n in a:
                if n:
                    g = gcd(g, n)
                    if g == 1:
                        break
            if g > 1:
                den //= g
                a = [n // g for n in a]
        else:
            den = 1
        self = object.__new__(cls)
        object.__setattr__(self, "_coeffs", None)
        object.__setattr__(self, "_intform", (den, a))
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c: RationalLike) -> "Polynomial":
        return cls({0: c})

    @classmethod
    def var(cls) -> "Polynomial":
        """The polynomial H."""
        return cls({1: 1})

    # -- structure ----------------------------------------------------
    def __bool__(self) -> bool:
        c = self._coeffs
        if c is not None:
            return bool(c)
        return bool(self._intform[1])

    @property
    def degree(self) -> int:
        i = self._intform
        if i is not None:
            return len(i[1]) - 1
        return max(self._coeffs) if self._coeffs else -1

    @property
    def lead(self) -> Fraction:
        den, a = self._ints()
        if not a:
            return Fraction(0)
        return Fraction(a[-1], den)

    def is_const(self) -> bool:
        return self.degree <= 0

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.coeffs.get(0, Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._ints() == other._ints()
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(other)
        return NotImplemented

    def __hash__(self):
        den, a = self._ints()
        return hash((den, tuple(a)))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        da, a = self._ints()
        db, b = other._ints()
        if not a:
            return other
        if not b:
            return self
        den = lcm(da, db)
        fa, fb = den // da, den // db
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] = c * fa
        for i, c in enumerate(b):
            out[i] += c * fb
        return Polynomial._from_ints(den, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        den, a = self._ints()
        return Polynomial._from_ints(den, [-c for c in a])

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = _as_poly(other)
        da, a = self._ints()
        db, b = other._ints()
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Polynomial._from_ints(da * db, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        other = _as_poly(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        dd, dl = other.degree, other.lead
        if self.degree < dd:
            return Polynomial(), self
        rem = [self.coeffs.get(i, Fraction(0)) for i in range(self.degree + 1)]
        bs = [other.coeffs.get(i, Fraction(0)) for i in range(dd + 1)]
        q: dict[int, Fraction] = {}
        for d in range(len(rem) - 1 - dd, -1, -1):
            c = rem[d + dd] / dl
            if c:
                q[d] = c
                for i, bc in enumerate(bs):
                    if bc:
                        rem[d + i] -= c * bc
        return Polynomial(q), Polynomial(
            {i: c for i, c in enumerate(rem[:dd]) if c}
        )

    def __floordiv__(self, other) -> "Polynomial":
        other = _as_poly(other)
        dg, b = other._ints()
        if b and b[-1] == dg:  # monic divisor: integer synthetic division
            return self._div_by_monic(other)
        return divmod(self, other)[0]

    def _div_by_monic(self, other: "Polynomial") -> "Polynomial":
        """Quotient by a monic divisor, fraction-free.

        Works on the integer forms: the running dividend is rescaled by the
        divisor's denominator before each step so every subtraction stays
        over the integers; the discarded tail is the remainder.
        """
        dn, a0 = self._ints()
        dg, b = other._ints()
        m = len(a0) - len(b)
        if m < 0:
            return Polynomial()
        a = list(a0)
        den = dn
        out = [0] * (m + 1)
        nb = len(b) - 1
        for k in range(m, -1, -1):
            if dg != 1:
                a = [c * dg for c in a]
                out = [c * dg for c in out]
                den *= dg
            top = a.pop()
            out[k] = top
            if top:
                lead = top // dg
                off = len(a) - nb
                for i in range(nb):
                    a[off + i] -= lead * b[i]
        return Polynomial._from_ints(den, out)

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if not self:
            return self
        l = self.lead
        return Polynomial({d: c / l for d, c in self.coeffs.items()})

    def shift(self, k: int) -> "Polynomial":
        """Substitute H -> H + k (integer Taylor shift by synthetic Horner)."""
        if k == 0 or not self:
            return self
        den, m = self._ints()
        a = list(m)
        n = len(a) - 1
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] += k * a[j + 1]
        return Polynomial._from_ints(den, a)

    def eval(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        den, a = self._ints()
        acc = Fraction(0)
        for c in reversed(a):
            acc = acc * x + c
        return acc / den

    # -- text ---------------------------------------------------------
    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            c = self.coeffs[d]
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "H" if d == 1 else f"H^{d}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


def _primitive(a: list[int]) -> list[int]:
    g = 0
    for c in a:
        g = gcd(g, c)
    if g <= 1:
        return a
    return [c // g for c in a]


def _dense_ints(p: Polynomial) -> list[int]:
    """Primitive dense integer coefficient list, highest degree last."""
    _, a = p._ints()
    return _primitive(list(a))


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b up to content, over the integers.  Requires b
    nonzero; lists are dense with a nonzero last entry."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db:
        if not a[-1]:
            a.pop()
            continue
        la = a.pop()
        if lb != 1:
            a = [lb * c for c in a]
        off = len(a) - db
        for i in range(db):
            a[off + i] -= la * b[i]
    while a and not a[-1]:
        a.pop()
    return a


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor, via a primitive pseudo-remainder
    sequence over the integers (content is irrelevant to a monic gcd)."""
    fa, fb = _dense_ints(a), _dense_ints(b)
    while fb:
        if len(fb) > len(fa):
            fa, fb = fb, fa
            continue
        fa, fb = fb, _primitive(_pseudo_rem(fa, fb))
    if not fa:
        return Polynomial()
    lead = fa[-1]
    return Polynomial({d: Fraction(c, lead) for d, c in enumerate(fa) if c})


H = Polynomial.var()
_POLY_ONE = Polynomial.const(1)


class RationalFunction:
    """Quotient of polynomials in H, canonical: coprime with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            if num.degree > 0 and den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num // g, den // g
            l = den.lead
            if l != 1:
                num = num * Fraction(l.denominator, l.numerator)
                den = den.monic()
        else:
            den = _POLY_ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap an already-canonical numerator/denominator pair without
        renormalizing (for operations that preserve canonical form)."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def const(cls, c: RationalLike) -> "RationalFunction":
        return cls(Polynomial.const(c))

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num == self.den

    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        d1, d2 = self.den, other.den
        if d1 == d2:
            num = self.num + other.num
            if not num:
                return RF_ZERO
            if d1.degree > 0:
                g = poly_gcd(num, d1)
                if g.degree > 0:
                    return RationalFunction._make(num // g, d1 // g)
            return RationalFunction._make(num, d1)
        # with d1 = g q1, d2 = g q2 and q1, q2 coprime, any common factor of
        # n1 q2 + n2 q1 and g q1 q2 divides g (numerators are coprime to
        # their own denominators), so one small gcd finishes normalization
        if d1.degree > 0 and d2.degree > 0:
            g = poly_gcd(d1, d2)
            if g.degree > 0:
                q1, q2 = d1 // g, d2 // g
                num = self.num * q2 + other.num * q1
                if not num:
                    return RF_ZERO
                den = q1 * d2
                gg = poly_gcd(num, g)
                if gg.degree > 0:
                    num, den = num // gg, den // gg
                return RationalFunction._make(num, den)
        num = self.num * d2 + other.num * d1
        if not num:
            return RF_ZERO
        return RationalFunction._make(num, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._make(-self.num, self.den)

    def __sub__(self, other):
        o = _as_rf(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return _as_rf(other) - self

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not n1 or not n2:
            return RF_ZERO
        # scalar factors cannot disturb coprimality or the monic denominator
        if n1.degree == 0 and d1.degree == 0:
            if n1 == d1:
                return other
            return RationalFunction._make(n2 * n1.const_value(), d2)
        if n2.degree == 0 and d2.degree == 0:
            if n2 == d2:
                return self
            return RationalFunction._make(n1 * n2.const_value(), d1)
        # cross-cancel: each factor is already coprime, so removing the two
        # cross gcds leaves a canonical product (denominators stay monic)
        if n1.degree > 0 and d2.degree > 0:
            g = poly_gcd(n1, d2)
            if g.degree > 0:
                n1, d2 = n1 // g, d2 // g
        if n2.degree > 0 and d1.degree > 0:
            g = poly_gcd(n2, d1)
            if g.degree > 0:
                n2, d1 = n2 // g, d1 // g
        return RationalFunction._make(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def shift(self, k: int) -> "RationalFunction":
        """Substitute H -> H + k.  A field automorphism for every integer k."""
        if k == 0:
            return self
        # canonical form survives: substitution preserves coprimality and
        # the monic leading coefficient
        return RationalFunction._make(self.num.shift(k), self.den.shift(k))

    def eval(self, x: RationalLike) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise PoleEvaluationError(f"pole at H = {x}")
        return self.num.eval(x) / d

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        num = str(self.num)
        if self.num.degree > 0 or self.num.lead < 0:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, Polynomial)):
        return RationalFunction(_as_poly(x))
    return NotImplemented


RF_ZERO = RationalFunction(0)
RF_ONE = RationalFunction(1)
RF_H = RationalFunction(H)


def as_rf(x) -> RationalFunction:
    r = _as_rf(x)
    if r is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunction")
    return r


class Sqrt2(object):
    """Element a + b*sqrt(2) of the real quadratic field Q(sqrt 2)."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Sqrt2 is immutable")

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        other = _as_sqrt2(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        other = _as_sqrt2(other)
        if other is NotImplemented:
            return NotImplemented
        return Sqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __sub__(self, other):
        o = _as_sqrt2(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return _as_sqrt2(other) - self

    def __mul__(self, other):
        other = _as_sqrt2(other)
        if other is NotImplemented:
            return NotImplemented
        return Sqrt2(self.a * other.a + 2 * self.b * other.b, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def conjugate(self) -> "Sqrt2":
        return Sqrt2(self.a, -self.b)

    def inverse(self) -> "Sqrt2":
        n = self.a * self.a - 2 * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        return Sqrt2(self.a / n, -self.b / n)

    def __truediv__(self, other):
        other = _as_sqrt2(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _as_sqrt2(other) * self.inverse()

    def __str__(self):
        if not self.b:
            return str(self.a)
        root = "sqrt2" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt2"
        if not self.a:
            return root if self.b > 0 else f"-{root}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {root}"

    def __repr__(self):
        return f"Sqrt2({self.a}, {self.b})"


def _as_sqrt2(x):
    if isinstance(x, Sqrt2):
        return x
    if isinstance(x, (int, Fraction)):
        return Sqrt2(x)
    return NotImplemented


SQRT2 = Sqrt2(0, 1)
INV_SQRT2 = Sqrt2(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2
