"""Exact coefficient arithmetic.

Two scalar domains:

* polynomials in the Cartan symbol H over Q, each stored as one integer
  coefficient list over one common denominator (the integer form),
* rational functions num/den in H (the left coefficient ring of the
  normal-ordering engine), kept in canonical form: coprime, monic
  denominator.  The denominator is held factored, as its integer roots with
  multiplicities times a monic residual.  Every coefficient the engines make
  is a localization at the H - k, so its residual is 1, and a product merges
  root lists, a sum takes their lcm (and can cancel only at a root of equal
  multiplicity in both summands), cancellation divides synthetically at
  the listed roots and a shift moves them, all without a gcd.  `/` and
  negative powers invert a canonical value, which needs no gcd either.
  Only the constructor (parsed or hand-written denominators) and
  operations on a residual other than 1 run the general gcd path.

Everything is immutable and pure; scalars are int or Fraction, never float.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Mapping, Union

RationalLike = Union[int, Fraction]


class PoleEvaluationError(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


def _rational(x) -> RationalLike:
    """x itself, an exact rational with numerator and denominator; anything
    but int or Fraction (a float above all) is a TypeError."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"{type(x).__name__} is not an exact rational (int or Fraction)")


class Polynomial:
    """Polynomial in H with rational coefficients, in integer form.

    The one stored value is ``_form = (den, a)``, the polynomial
    (1/den) * sum(a[d] * H**d), with ``a`` a tuple of ints whose last entry
    is nonzero, ``den > 0`` and ``gcd(den, *a) == 1``.  That form is
    canonical, so equality and hashing compare it directly; zero is
    ``(1, ())``, and the degree is ``len(a) - 1``, -1 for the zero
    polynomial.  int and Fraction operands are coerced; a RationalFunction
    operand takes over through its reflected operator.
    """

    __slots__ = ("_form",)

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        coeffs = coeffs or {}
        den = lcm(*[_rational(c).denominator for c in coeffs.values()])
        a = [0] * (max(coeffs) + 1 if coeffs else 0)
        for d, c in coeffs.items():
            if d < 0:
                raise ValueError("negative degree")
            a[d] = c.numerator * (den // c.denominator)
        object.__setattr__(self, "_form", _canonical(den, a))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return Polynomial, (self.coeffs,)

    def _coerce(self, x):
        """x as a Polynomial, or NotImplemented."""
        if type(x) is Polynomial:
            return x
        if isinstance(x, (int, Fraction)):
            return _const(x)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._form[1])

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._form == o._form

    def __hash__(self):  # a constant hashes like its int or Fraction value
        den, a = self._form
        return hash(self._form if len(a) > 1 else Fraction(a[0], den) if a else 0)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, a = self._form
        db, b = other._form
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return _poly(den, [x * fa + y * fb for x, y in zip_longest(a, b, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        den, a = self._form
        return _raw(den, [-c for c in a])

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c: RationalLike) -> "Polynomial":
        return _const(_rational(c))

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

    # -- arithmetic ---------------------------------------------------
    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, a = self._form
        db, b = other._form
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        if k == 0 or self.degree <= 0:
            return self
        den, m = self._form
        a = list(m)
        n = len(a) - 1
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] += k * a[j + 1]
        return _poly(den, a)

    def eval(self, x: RationalLike) -> Fraction:
        x = _rational(x)  # x = n/d: Horner on integers, times d^degree
        (den, a), n, d = self._form, x.numerator, x.denominator
        acc = 0
        for i, c in enumerate(reversed(a)):
            acc = acc * n + c * d**i
        return Fraction(acc, den * d ** max(len(a) - 1, 0))

    # -- text ---------------------------------------------------------
    def __str__(self) -> str:
        den, a = self._form
        parts = []
        for d in range(len(a) - 1, -1, -1):
            if not a[d]:
                continue
            n = abs(a[d])
            g = gcd(n, den)
            mag = str(n // g) if g == den else f"{n // g}/{den // g}"
            if d == 0:
                body = mag
            else:
                var = "H" if d == 1 else f"H^{d}"
                body = var if mag == "1" else f"{mag}*{var}"
            if not parts:
                parts.append(body if a[d] > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if a[d] > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _canonical(den: int, a: list[int]) -> tuple[int, tuple[int, ...]]:
    """The integer form of (1/den) * sum a[d] t^d: trimmed, den > 0, content 1."""
    while a and not a[-1]:
        a.pop()
    if not a:
        return 1, ()
    if den < 0:
        den, a = -den, [-n for n in a]
    g = gcd(den, *a)
    if g > 1:
        den //= g
        a = [n // g for n in a]
    return den, tuple(a)


def _raw(den: int, a) -> Polynomial:
    """The polynomial of an integer form that is canonical as it stands."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "_form", (den, tuple(a)))
    return p


def _poly(den: int, a: list[int]) -> Polynomial:
    """The polynomial (1/den) * sum a[d] H^d (a is consumed)."""
    return _raw(*_canonical(den, a))


def _const(x: RationalLike) -> Polynomial:
    """The constant x, an int or Fraction."""
    return _raw(x.denominator, (x.numerator,)) if x else _raw(1, ())


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
    """Monic greatest common divisor: 1 at once for coprime inputs that one
    gcd modulo a prime certifies, else by Euclid's algorithm on integer
    forms.  Every term is kept monic, so its integer coefficients are
    primitive and the remainders form a primitive pseudo-remainder sequence."""
    a, b = a.monic(), b.monic()
    if a.degree > 0 and b.degree > 0 and _coprime_mod_p(a._form[1], b._form[1]):
        return _POLY_ONE
    while b:
        a, b = b, _poly(1, _pseudo_divmod(a._form[1], b._form[1])[2]).monic()
    return a


# The prime of the coprimality certificate (a Mersenne prime).
_CERT_PRIME = 2**61 - 1


def _coprime_mod_p(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether integer polynomials a, b of positive degree are certified
    coprime over Q by their gcd modulo a prime p dividing neither leading
    coefficient.  The gcd over Q reduces mod p to a divisor of the gcd over
    F_p of the same degree, so a constant gcd mod p proves coprimality.
    False means no certificate, not a common factor."""
    p = _CERT_PRIME
    if not (a[-1] % p and b[-1] % p):
        return False
    a, b = [c % p for c in a], [c % p for c in b]
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]  # monic, so pseudo-division never scales
        r = [c % p for c in _pseudo_divmod(a, b)[2]]
        while r and not r[-1]:
            r.pop()
        if not r:
            return False
        a, b = b, r
    return True


H = Polynomial.var()
_POLY_ONE = Polynomial.const(1)

# A parsed or hand-made denominator is searched for integer roots up to this
# absolute value; a larger root stays in the residual, which costs speed only.
_ROOT_SEARCH = 4096


def _times_roots(a, roots) -> list[int]:
    """Integer coefficients a times prod (H - k)^m over the (k, m) of roots."""
    for k, m in roots:
        for _ in range(m):
            a = [x - k * y for x, y in zip((0, *a), (*a, 0))]
    return a


def _peel(a, k: int, m: int) -> tuple[list[int], int]:
    """Divide integer coefficients a by H - k, at most m times, while they
    vanish at k (synthetic division, after a Horner test); returns the
    quotient and m left."""
    while m and len(a) > 1:
        acc = 0
        for c in reversed(a):
            acc = acc * k + c
        if acc:
            break
        acc, q = 0, []
        for c in reversed(a[1:]):
            acc = acc * k + c
            q.append(acc)
        a, m = q[::-1], m - 1
    return a, m


def _cancel(num: Polynomial, roots: tuple) -> tuple[Polynomial, tuple]:
    """num divided by H - k while it vanishes at k and k's multiplicity in
    roots is positive, for each (k, m) of roots; and the roots left."""
    den, a = num._form
    left = []
    for k, m in roots:
        a, m = _peel(a, k, m)
        if m:
            left.append((k, m))
    return (_raw(den, a), tuple(left)) if len(a) < len(num._form[1]) else (num, roots)


def _merge(r1: tuple, r2: tuple) -> tuple:
    """Sorted roots of the product of the denominators of roots r1 and r2."""
    m = dict(r1)
    for k, e in r2:
        m[k] = m.get(k, 0) + e
    return tuple(sorted(m.items()))


def _canonical_rf(num: Polynomial, den: Polynomial) -> tuple:
    """(num, roots, rest) of num/den for coprime num and den: the denominator
    made monic, then split by the rational-root test on its integer form (an
    integer root divides the constant term and lies within Cauchy's bound
    1 + max |a_i / a_n|)."""
    if not num:
        return num, (), _POLY_ONE
    c, a = den._form
    if a[-1] != c:
        num, (c, a) = num * Fraction(c, a[-1]), den.monic()._form
    roots = []
    bound = 1 + max(map(abs, a[:-1]), default=0) // a[-1]
    for d in range(min(bound, _ROOT_SEARCH) + 1):
        if len(a) < 2:
            break
        if d and a[0] % d:
            continue
        for k in {-d, d}:
            n = len(a)
            a = _peel(a, k, n)[0]
            if len(a) < n:
                roots.append((k, n - len(a)))
    return num, tuple(sorted(roots)), _raw(c, a) if len(a) > 1 else _POLY_ONE


class RationalFunction:
    """Quotient of polynomials in H, canonical: coprime with monic denominator.

    The numerator `num` is a Polynomial.  The denominator is kept factored:
    `roots`, a sorted tuple of (k, m) for its factors (H - k)^m with integer
    k, times `rest`, the monic residual without an integer root found.  Every
    coefficient the engines make splits, with `rest` the shared `_POLY_ONE`,
    and their arithmetic runs no gcd.  `den` expands the product on demand.
    """

    __slots__ = ("num", "roots", "rest")

    def __init__(self, num, den=1):
        num, den = _as_poly(num), _as_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num and num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        for name, value in zip(self.__slots__, _canonical_rf(num, den)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):  # the constructor restores the shared _POLY_ONE
        return RationalFunction, (self.num, self.den)

    @property
    def den(self) -> Polynomial:
        """The monic denominator, expanded."""
        if not self.roots:
            return self.rest
        d = _raw(1, _times_roots((1,), self.roots))
        return d if self.rest is _POLY_ONE else d * self.rest

    def __bool__(self) -> bool:
        return bool(self.num._form[1])

    def is_one(self) -> bool:
        return self.num._form == (1, (1,)) and not self.roots and self.rest is _POLY_ONE

    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.rest is other.rest is _POLY_ONE:
            return self.num == other.num and self.roots == other.roots
        return self.num == other.num and self.den == other.den

    def __hash__(self):  # a polynomial, a constant above all, hashes like its numerator
        den = self.den
        return hash(self.num) if den is _POLY_ONE else hash((self.num, den))

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.rest is not _POLY_ONE or other.rest is not _POLY_ONE:
            d1, d2 = self.den, other.den
            if d1 == d2:
                return RationalFunction(self.num + other.num, d1)
            return RationalFunction(self.num * d2 + other.num * d1, d1 * d2)
        # Over the lcm of the denominators, on the numerators' integer forms
        # (c, a).  Each summand is in lowest terms, so at a root of unequal
        # multiplicity the one of higher multiplicity is nonzero and the
        # other's cofactor vanishes: the sum can vanish only at a root of
        # equal multiplicity, and only those are tested.
        (c1, a1), (c2, a2) = self.num._form, other.num._form
        roots, tested = [], self.roots
        if tested != other.roots:
            m1, m2, tested = dict(tested), dict(other.roots), []
            for k in sorted(m1.keys() | m2.keys()):
                e1, e2 = m1.get(k, 0), m2.get(k, 0)
                if e1 == e2:
                    tested.append((k, e1))
                    continue
                roots.append((k, max(e1, e2)))
                if e1 < e2:
                    a1 = _times_roots(a1, ((k, e2 - e1),))
                else:
                    a2 = _times_roots(a2, ((k, e1 - e2),))
        c = lcm(c1, c2)
        f1, f2 = c // c1, c // c2
        c, a = _canonical(c, [x * f1 + y * f2 for x, y in zip_longest(a1, a2, fillvalue=0)])
        if not a:
            return RF_ZERO
        for k, m in tested:
            a, m = _peel(a, k, m)
            if m:
                roots.append((k, m))
        return _make(_raw(c, a), tuple(sorted(roots)))

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.num, self.roots, self.rest)

    def __sub__(self, other):
        o = _as_rf(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _as_rf(other)
        return NotImplemented if o is NotImplemented else o - self

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        n1, r1 = self.num, self.roots
        n2, r2 = other.num, other.roots
        if not n1._form[1] or not n2._form[1]:
            return RF_ZERO
        # a nonzero constant keeps any fraction canonical: it scales the numerator
        if not r1 and len(n1._form[1]) == 1 and self.rest is _POLY_ONE:
            return other if n1._form == (1, (1,)) else _make(n1 * n2, r2, other.rest)
        if not r2 and len(n2._form[1]) == 1 and other.rest is _POLY_ONE:
            return self if n2._form == (1, (1,)) else _make(n1 * n2, r1, self.rest)
        if self.rest is not _POLY_ONE or other.rest is not _POLY_ONE:
            return RationalFunction(n1 * n2, self.den * other.den)
        # each factor is coprime, so only n1 against d2 and n2 against d1
        # can cancel, only at the listed roots, and a constant not at all
        if len(n1._form[1]) > 1:
            n1, r2 = _cancel(n1, r2)
        if len(n2._form[1]) > 1:
            n2, r1 = _cancel(n2, r1)
        return _make(n1 * n2, _merge(r1, r2) if r1 and r2 else r1 or r2)

    __rmul__ = __mul__

    def _reciprocal(self) -> "RationalFunction":
        if not self:
            raise ZeroDivisionError("division by zero rational function")
        return _make(*_canonical_rf(self.den, self.num))

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        o = _as_rf(other)
        return NotImplemented if o is NotImplemented else o / self

    def __pow__(self, n: int):
        if n < 0:
            return self._reciprocal() ** (-n)
        if n == 0:
            return RF_ONE
        # powers of coprime polynomials stay coprime, of a monic one monic
        rest = self.rest if self.rest is _POLY_ONE else self.rest**n
        return _make(self.num**n, tuple((k, m * n) for k, m in self.roots), rest)

    def shift(self, k: int) -> "RationalFunction":
        """Substitute H -> H + k.  A field automorphism for every integer k;
        the root j of a factor H - j moves to j - k.  A constant is its own shift."""
        if k == 0 or (self.num.degree <= 0 and not self.roots and self.rest is _POLY_ONE):
            return self
        rest = self.rest if self.rest is _POLY_ONE else self.rest.shift(k)
        return _make(self.num.shift(k), tuple((j - k, m) for j, m in self.roots), rest)

    def eval(self, x: RationalLike) -> Fraction:
        d = self.rest.eval(x)
        for k, m in self.roots:
            d *= (x - k) ** m
        if d == 0:
            raise PoleEvaluationError(f"pole at H = {x}")
        return self.num.eval(x) / d

    def __str__(self) -> str:
        if not self.roots and self.rest is _POLY_ONE:
            return str(self.num)
        num = str(self.num)
        if self.num.degree > 0 or self.num.lead < 0:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _make(num: Polynomial, roots: tuple = (), rest: Polynomial = _POLY_ONE) -> RationalFunction:
    """Wrap a canonical numerator and factored denominator."""
    f = object.__new__(RationalFunction)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "roots", roots)
    object.__setattr__(f, "rest", rest)
    return f


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, Polynomial)):
        return _make(_as_poly(x))
    return NotImplemented


RF_ZERO = _make(Polynomial())
RF_ONE = _make(_POLY_ONE)


def as_rf(x) -> RationalFunction:
    r = _as_rf(x)
    if r is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunction")
    return r
