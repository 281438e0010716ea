"""Exact coefficient arithmetic: the field Q(H) of rational functions in
the Cartan symbol H.

One scalar type, `RationalFunction`, num/den in canonical form: coprime,
monic denominator.  Its numerator and the residual of its denominator are
integer forms: a polynomial (1/d) * sum(a[i] * H**i) is the pair (d, a),
with `a` a tuple of ints whose last entry is nonzero, d > 0 and
gcd(d, *a) == 1, so equal polynomials have equal forms; zero is (1, ()).
The module-level `form_*` functions and `poly_gcd` are the polynomial
arithmetic on forms.  The denominator is held factored, as its integer
roots with multiplicities times a monic residual.  Every coefficient the
engines make is a localization at the H - k, so its residual is 1, and a
product merges root lists, a sum takes their lcm (and can cancel only at a
root of equal multiplicity in both summands), cancellation divides
synthetically at the listed roots and a shift moves them, all without a
gcd.  `/` and negative powers invert a canonical value, which needs no gcd
either.  Only the constructor (parsed or hand-written denominators) and
operations on a residual other than 1 run the general gcd path.

Everything is immutable and pure; scalars are int or Fraction, never float.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction]
Form = tuple[int, tuple[int, ...]]


class PoleEvaluationError(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


def _rational(x) -> RationalLike:
    """x itself, an exact rational with numerator and denominator; anything
    but int or Fraction (a float above all) is a TypeError."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"{type(x).__name__} is not an exact rational (int or Fraction)")


def _canonical(den: int, a: list[int]) -> Form:
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


_ZERO = (1, ())
# The form of 1, and the `rest` of every split denominator: operations tell
# a residual of 1 by identity with this object.
_ONE = (1, (1,))


def _const(x: RationalLike) -> Form:
    """The form of the constant x, an int or Fraction."""
    return (x.denominator, (x.numerator,)) if x else _ZERO


def form_add(f: Form, g: Form) -> Form:
    (da, a), (db, b) = f, g
    den = lcm(da, db)
    fa, fb = den // da, den // db
    return _canonical(den, [x * fa + y * fb for x, y in zip_longest(a, b, fillvalue=0)])


def form_mul(f: Form, g: Form) -> Form:
    (da, a), (db, b) = f, g
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _canonical(da * db, out)


def form_pow(f: Form, n: int) -> Form:
    """f**n for n >= 0, by repeated squaring."""
    out = _ONE
    while n:
        if n & 1:
            out = form_mul(out, f)
        f = form_mul(f, f)
        n >>= 1
    return out


def form_shift(f: Form, k: int) -> Form:
    """f(H + k): an integer Taylor shift by synthetic Horner.  It is
    invertible over the integers, so the content stays 1."""
    den, m = f
    if k == 0 or len(m) <= 1:
        return f
    a = list(m)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += k * a[j + 1]
    return den, tuple(a)


def form_eval(f: Form, x: RationalLike) -> Fraction:
    x = _rational(x)  # x = n/d: Horner on integers, times d^degree
    (den, a), n, d = f, x.numerator, x.denominator
    acc = 0
    for i, c in enumerate(reversed(a)):
        acc = acc * n + c * d**i
    return Fraction(acc, den * d ** max(len(a) - 1, 0))


def form_monic(f: Form) -> Form:
    den, a = f
    return _canonical(a[-1], list(a)) if a and a[-1] != den else f


def form_div(f: Form, g: Form) -> Form:
    """f / g for a nonzero g that divides f."""
    (da, a), (db, b) = f, g
    # l^k a = q b, with f = a/da and g = b/db
    k, q, _ = _pseudo_divmod(a, b)
    return _canonical(b[-1] ** k * da, [c * db for c in q])


def form_size(f: Form) -> tuple[int, int]:
    """The degree of f (-1 for zero) and its height, the largest integer of
    its form: den or some |a[i]|."""
    den, a = f
    return len(a) - 1, max([den, *map(abs, a)])


def form_text(f: Form) -> str:
    """f as text, terms by falling degree, e.g. "3/2*H^2 - H + 1"."""
    den, a = f
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


def _pseudo_divmod(a, b) -> tuple[int, list[int], list[int]]:
    """Fraction-free pseudo-division of integer coefficient sequences, the
    one division loop behind form_div and poly_gcd.

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


def poly_gcd(a: Form, b: Form) -> Form:
    """Monic greatest common divisor of two forms: 1 at once for coprime
    inputs that one gcd modulo a prime certifies, else by Euclid's algorithm.
    Every term is kept monic, so its integer coefficients are primitive and
    the remainders form a primitive pseudo-remainder sequence."""
    a, b = form_monic(a), form_monic(b)
    if len(a[1]) > 1 and len(b[1]) > 1 and _coprime_mod_p(a[1], b[1]):
        return _ONE
    while b[1]:
        a, b = b, form_monic(_canonical(1, _pseudo_divmod(a[1], b[1])[2]))
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


def _cancel(num: Form, roots: tuple) -> tuple[Form, tuple]:
    """num divided by H - k while it vanishes at k and k's multiplicity in
    roots is positive, for each (k, m) of roots; and the roots left.  A
    monic integer divisor keeps the form canonical."""
    den, a = num
    left = []
    for k, m in roots:
        a, m = _peel(a, k, m)
        if m:
            left.append((k, m))
    return ((den, tuple(a)), tuple(left)) if len(a) < len(num[1]) else (num, roots)


def _merge(r1: tuple, r2: tuple) -> tuple:
    """Sorted roots of the product of the denominators of roots r1 and r2."""
    m = dict(r1)
    for k, e in r2:
        m[k] = m.get(k, 0) + e
    return tuple(sorted(m.items()))


def _canonical_rf(num: Form, den: Form) -> tuple:
    """(num, roots, rest) of num/den for coprime num and den: the denominator
    made monic, then split by the rational-root test on its integer form (an
    integer root divides the constant term and lies within Cauchy's bound
    1 + max |a_i / a_n|)."""
    if not num[1]:
        return num, (), _ONE
    c, a = den
    if a[-1] != c:
        num, (c, a) = form_mul(num, _const(Fraction(c, a[-1]))), form_monic(den)
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
    return num, tuple(sorted(roots)), (c, tuple(a)) if len(a) > 1 else _ONE


def _reduced(num: Form, den: Form) -> "RationalFunction":
    """num/den in canonical form, for forms num and den != 0."""
    if len(num[1]) > 1 and len(den[1]) > 1:
        g = poly_gcd(num, den)
        if len(g[1]) > 1:
            num, den = form_div(num, g), form_div(den, g)
    return _make(*_canonical_rf(num, den))


class RationalFunction:
    """Quotient of polynomials in H, canonical: coprime with monic denominator.

    The numerator `num` is an integer form.  The denominator is kept
    factored: `roots`, a sorted tuple of (k, m) for its factors (H - k)^m
    with integer k, times `rest`, the form of the monic residual without an
    integer root found.  Every coefficient the engines make splits, with
    `rest` the shared `_ONE`, and their arithmetic runs no gcd.  `den`
    expands the product on demand.
    """

    __slots__ = ("num", "roots", "rest")

    def __new__(cls, num, den=1):
        """num/den for num and den each an int, Fraction or RationalFunction."""
        num, den = as_rf(num), as_rf(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        return _reduced(form_mul(num.num, den.den), form_mul(num.den, den.num))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):  # rebuilt by _canonical_rf, which restores the shared _ONE
        return _reduced, (self.num, self.den)

    @property
    def den(self) -> Form:
        """The form of the monic denominator, expanded."""
        if not self.roots:
            return self.rest
        d = (1, tuple(_times_roots((1,), self.roots)))
        return d if self.rest is _ONE else form_mul(d, self.rest)

    def __bool__(self) -> bool:
        return bool(self.num[1])

    def is_one(self) -> bool:
        return self.num == _ONE and not self.roots and self.rest is _ONE

    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.rest is other.rest is _ONE:
            return self.num == other.num and self.roots == other.roots
        return self.num == other.num and self.den == other.den

    def __hash__(self):  # a constant hashes like its int or Fraction value
        den, a = self.num
        num = self.num if len(a) > 1 else Fraction(a[0], den) if a else 0
        return hash(num) if not self.roots and self.rest is _ONE else hash((num, self.den))

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.rest is not _ONE or other.rest is not _ONE:
            d1, d2 = self.den, other.den
            if d1 == d2:
                return _reduced(form_add(self.num, other.num), d1)
            return _reduced(form_add(form_mul(self.num, d2), form_mul(other.num, d1)), form_mul(d1, d2))
        # Over the lcm of the denominators, on the numerators' integer forms
        # (c, a).  Each summand is in lowest terms, so at a root of unequal
        # multiplicity the one of higher multiplicity is nonzero and the
        # other's cofactor vanishes: the sum can vanish only at a root of
        # equal multiplicity, and only those are tested.
        (c1, a1), (c2, a2) = self.num, other.num
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
        return _make((c, tuple(a)), tuple(sorted(roots)))

    __radd__ = __add__

    def __neg__(self):
        den, a = self.num
        return _make((den, tuple([-c for c in a])), self.roots, self.rest)

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
        if not n1[1] or not n2[1]:
            return RF_ZERO
        # a nonzero constant keeps any fraction canonical: it scales the numerator
        if not r1 and len(n1[1]) == 1 and self.rest is _ONE:
            return other if n1 == _ONE else _make(form_mul(n1, n2), r2, other.rest)
        if not r2 and len(n2[1]) == 1 and other.rest is _ONE:
            return self if n2 == _ONE else _make(form_mul(n1, n2), r1, self.rest)
        if self.rest is not _ONE or other.rest is not _ONE:
            return _reduced(form_mul(n1, n2), form_mul(self.den, other.den))
        # each factor is coprime, so only n1 against d2 and n2 against d1
        # can cancel, only at the listed roots, and a constant not at all
        if len(n1[1]) > 1:
            n1, r2 = _cancel(n1, r2)
        if len(n2[1]) > 1:
            n2, r1 = _cancel(n2, r1)
        return _make(form_mul(n1, n2), _merge(r1, r2) if r1 and r2 else r1 or r2)

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
        rest = self.rest if self.rest is _ONE else form_pow(self.rest, n)
        return _make(form_pow(self.num, n), tuple((k, m * n) for k, m in self.roots), rest)

    def shift(self, k: int) -> "RationalFunction":
        """Substitute H -> H + k.  A field automorphism for every integer k;
        the root j of a factor H - j moves to j - k.  A constant is its own shift."""
        if k == 0 or (len(self.num[1]) <= 1 and not self.roots and self.rest is _ONE):
            return self
        rest = self.rest if self.rest is _ONE else form_shift(self.rest, k)
        return _make(form_shift(self.num, k), tuple((j - k, m) for j, m in self.roots), rest)

    def eval(self, x: RationalLike) -> Fraction:
        d = form_eval(self.rest, x)
        for k, m in self.roots:
            d *= (x - k) ** m
        if d == 0:
            raise PoleEvaluationError(f"pole at H = {x}")
        return form_eval(self.num, x) / d

    def __str__(self) -> str:
        num = form_text(self.num)
        if not self.roots and self.rest is _ONE:
            return num
        if len(self.num[1]) > 1 or self.num[1][-1] < 0:
            num = f"({num})"
        return f"{num}/({form_text(self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _make(num: Form, roots: tuple = (), rest: Form = _ONE) -> RationalFunction:
    """Wrap a canonical numerator and factored denominator."""
    f = object.__new__(RationalFunction)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "roots", roots)
    object.__setattr__(f, "rest", rest)
    return f


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(_const(x))
    return NotImplemented


RF_ZERO = _make(_ZERO)
RF_ONE = _make(_ONE)
H = _make((1, (0, 1)))


def as_rf(x) -> RationalFunction:
    r = _as_rf(x)
    if r is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunction")
    return r
