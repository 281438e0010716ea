"""Exact coefficient arithmetic.

Three scalar domains:

* polynomials in the Cartan symbol H over Q, each stored as one integer
  coefficient list over one common denominator,
* rational functions num/den in H (the left coefficient ring of the
  normal-ordering engine), kept in canonical form: coprime, monic
  denominator, so equality is syntactic,
* the quadratic extension Q(sqrt 2) used by the representation code.

Everything is immutable and pure; scalars are int or Fraction, never float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

RationalLike = Union[int, Fraction]


class PoleEvaluationError(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


def _rational(x) -> Fraction:
    """x as a Fraction; anything but int or Fraction (a float above all) is a TypeError."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"{type(x).__name__} is not an exact rational (int or Fraction)")


class Polynomial:
    """Polynomial in H with rational coefficients, in integer form.

    The one stored value is ``_form = (den, a)``: the polynomial is
    ``(1/den) * sum(a[d] * H**d)`` with ``a`` a tuple of ints whose last
    entry is nonzero, ``den > 0`` and ``gcd(den, *a) == 1``.  That form is
    canonical, so equality and hashing compare it directly.  The zero
    polynomial is ``(1, ())`` and has degree -1.
    """

    __slots__ = ("_form",)

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        coeffs = {d: _rational(c) for d, c in (coeffs or {}).items()}
        if any(d < 0 for d in coeffs):
            raise ValueError("negative degree")
        den = lcm(*(c.denominator for c in coeffs.values()))
        a = [0] * (max(coeffs) + 1 if coeffs else 0)
        for d, c in coeffs.items():
            a[d] = c.numerator * (den // c.denominator)
        object.__setattr__(self, "_form", _canonical(den, a))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c: RationalLike) -> "Polynomial":
        c = _rational(c)
        return _poly(c.denominator, [c.numerator])

    @classmethod
    def var(cls) -> "Polynomial":
        """The polynomial H."""
        return _poly(1, [0, 1])

    # -- structure ----------------------------------------------------
    @property
    def coeffs(self) -> dict[int, Fraction]:
        """Read-only view {degree: nonzero coefficient}, built on each call."""
        den, a = self._form
        return {d: Fraction(n, den) for d, n in enumerate(a) if n}

    def __bool__(self) -> bool:
        return bool(self._form[1])

    @property
    def degree(self) -> int:
        return len(self._form[1]) - 1

    @property
    def height(self) -> int:
        """Largest integer of the integer form: den or some |a[d]|."""
        den, a = self._form
        return max([den, *map(abs, a)])

    @property
    def lead(self) -> Fraction:
        den, a = self._form
        return Fraction(a[-1], den) if a else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._form == other._form
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._form)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        da, a = self._form
        db, b = other._form
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
        return _poly(den, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        den, a = self._form
        return _poly(den, [-c for c in a])

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = _as_poly(other)
        da, a = self._form
        db, b = other._form
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return _poly(da * db, out)

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
        da, a = self._form
        db, b = other._form
        # l^k a = q b + r, with self = a/da and other = b/db
        k, q, r = _pseudo_divmod(a, b)
        scale = b[-1] ** k * da
        return _poly(scale, [c * db for c in q]), _poly(scale, r)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        den, a = self._form
        return _poly(a[-1], list(a)) if a and a[-1] != den else self

    def shift(self, k: int) -> "Polynomial":
        """Substitute H -> H + k (integer Taylor shift by synthetic Horner)."""
        if k == 0 or not self:
            return self
        den, m = self._form
        a = list(m)
        n = len(a) - 1
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] += k * a[j + 1]
        return _poly(den, a)

    def eval(self, x: RationalLike) -> Fraction:
        x = _rational(x)
        den, a = self._form
        acc = Fraction(0)
        for c in reversed(a):
            acc = acc * x + c
        return acc / den

    # -- text ---------------------------------------------------------
    def __str__(self) -> str:
        den, a = self._form
        parts = []
        for d in range(len(a) - 1, -1, -1):
            if not a[d]:
                continue
            mag = Fraction(abs(a[d]), den)
            if d == 0:
                body = str(mag)
            else:
                var = "H" if d == 1 else f"H^{d}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if a[d] > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if a[d] > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _canonical(den: int, a: list[int]) -> tuple[int, tuple[int, ...]]:
    """The integer form of (1/den) * sum a[d] H^d: trimmed, den > 0, content 1."""
    while a and not a[-1]:
        a.pop()
    if not a:
        return 1, ()
    if den < 0:
        den, a = -den, [-n for n in a]
    g = den
    for n in a:
        if n:
            g = gcd(g, n)
            if g == 1:
                break
    if g > 1:
        den //= g
        a = [n // g for n in a]
    return den, tuple(a)


def _poly(den: int, a: list[int]) -> Polynomial:
    """The polynomial (1/den) * sum a[d] H^d (a is consumed)."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "_form", _canonical(den, a))
    return p


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


def _pseudo_divmod(a, b) -> tuple[int, list[int], list[int]]:
    """Fraction-free pseudo-division of integer coefficient sequences, the
    one division loop behind divmod, //, % and poly_gcd.

    Returns (k, q, r) with l**k * a == q*b + r and r shorter than b, where
    l = b[-1] is the leading coefficient of the trimmed, nonzero b.  A step
    scales the running remainder by l only when l does not divide its
    leading coefficient, so a monic integer divisor never scales.
    """
    r = list(a)
    nb, l = len(b) - 1, b[-1]
    q = [0] * max(len(r) - nb, 0)
    k = 0
    for j in range(len(q) - 1, -1, -1):
        t = r.pop()
        if not t:
            continue
        if t % l:
            r = [l * c for c in r]
            q = [l * c for c in q]
            k += 1
        else:
            t //= l
        q[j] = t
        for i in range(nb):
            r[j + i] -= t * b[i]
    return k, q, r


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by Euclid's algorithm on integer forms.
    Every term is kept monic, so its integer coefficients are primitive and
    the remainders form a primitive pseudo-remainder sequence."""
    a, b = a.monic(), b.monic()
    while b:
        a, b = b, _poly(1, _pseudo_divmod(a._form[1], b._form[1])[2]).monic()
    return a


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
        # scalar factors cannot disturb coprimality or the monic denominator;
        # a canonical denominator of degree 0 is exactly 1
        if n1.degree == 0 and d1.degree == 0:
            if n1 == d1:
                return other
            return RationalFunction._make(n2 * n1, d2)
        if n2.degree == 0 and d2.degree == 0:
            if n2 == d2:
                return self
            return RationalFunction._make(n1 * n2, d1)
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
        # powers of coprime polynomials stay coprime, of a monic one monic
        return RationalFunction._make(self.num**n, self.den**n)

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


def as_rf(x) -> RationalFunction:
    r = _as_rf(x)
    if r is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunction")
    return r


class Sqrt2(object):
    """Element a + b*sqrt(2) of the real quadratic field Q(sqrt 2)."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        object.__setattr__(self, "a", _rational(a))
        object.__setattr__(self, "b", _rational(b))

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
