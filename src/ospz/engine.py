"""Machinery shared by the algebras: PBW monomials, immutable sparse sums,
their bilinear product, and the rewriting that normal-orders words in U
and Z.

A PBW monomial is its exponent tuple in both algebras: one exponent per
letter of the alphabet, in the alphabet's order, so the monomial is the
ordered word that repeats each letter that many times.

The engine is a reduction system in the sense of Bergman's diamond lemma
(Adv. Math. 1978).  It rewrites letters (ints) only: the shift rule
E(g) f(H) = f(H + root(g)) E(g) is scalar bookkeeping, so a coefficient is
multiplied into its term's scalar as f(H + r) the moment it enters the word,
r being the root sum of the letters to its left.  A violation is two adjacent
letters out of order, where an odd letter next to itself counts; it rewrites
by the alphabet's pair-rule table.

`rule_step` is one step: an ordered monomial times a letter out of order
with its last one, the pair rule at the end applied once and its terms
folded into the rest of the monomial through the algebra's cached step
table, which answers a monomial times a letter in order with it
(`ordered_times`) directly.  Z folds every word through its step table; U
also runs an agenda over whole words, which lives with its alphabet in `uea`.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Sequence

from .coeffs import RF_ONE, as_rf


class Monomial(tuple):
    """Exponents of the letters of one alphabet, in its order.

    Subclasses set `ROOTS` (the root of each letter) and `ODD` (whether it
    is odd).
    """

    __slots__ = ()
    ROOTS: tuple[int, ...]
    ODD: tuple[bool, ...]

    @classmethod
    def from_letters(cls, letters: Sequence[int]):
        """The monomial of an ordered word."""
        exps = [0] * len(cls.ROOTS)
        for g in letters:
            exps[g] += 1
        return tuple.__new__(cls, exps)

    def letters(self) -> list[int]:
        return [g for g, e in enumerate(self) for _ in range(e)]

    def degree(self) -> int:
        return sum(self)

    def root_sum(self) -> int:
        return sum(map(mul, self.ROOTS, self))

    def parity(self) -> int:
        return sum(e for e, odd in zip(self, self.ODD) if odd) & 1


class LinComb:
    """Immutable finite sum {basis key: coefficient} without zero entries.

    The constructor drops zero coefficients; `wrap` takes a dict that has
    none as it stands.  Subclasses set `coerce`, which turns a scalar into
    their coefficient type.
    """

    __slots__ = ("terms",)
    coerce = staticmethod(as_rf)

    def __init__(self, terms: dict | None = None):
        clean = {m: c for m, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", clean)

    @classmethod
    def wrap(cls, terms: dict):
        """The element of `terms`, a dict without zero coefficients, which
        it takes over uncopied."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    @classmethod
    def zero(cls):
        return cls()

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.terms,)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __iter__(self):
        return iter(self.terms.items())

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            _add(out, m, c)
        return self.wrap(out)

    def __neg__(self):
        return self.wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, f):
        # a product of nonzero field elements is nonzero
        f = self.coerce(f)
        return self.wrap({m: f * c for m, c in self.terms.items()} if f else {})

    def __rmul__(self, f):
        # scalar * element: the scalar acts from the left
        return self.scale(f)


class PBWElement(LinComb):
    """Finite sum of PBW monomials of the class `MONOMIAL`, each with a left
    RationalFunction coefficient."""

    __slots__ = ()
    MONOMIAL: type[Monomial]

    @classmethod
    def one(cls):
        return cls.coeff(RF_ONE)

    @classmethod
    def gen(cls, g: int):
        if not 0 <= g < len(cls.MONOMIAL.ODD):  # absorb's rule
            raise ValueError(f"bad generator letter {g}")
        return cls({cls.MONOMIAL.from_letters([g]): RF_ONE})

    @classmethod
    def coeff(cls, f):
        return cls({cls.MONOMIAL.from_letters([]): as_rf(f)})

    @classmethod
    def monomial(cls, mono, c=RF_ONE):
        return cls({mono: as_rf(c)})

    def __repr__(self):
        from .text import render

        return f"{type(self).__name__}({render(self)})"


def _add(out: dict, m, f) -> None:
    """out[m] += f for a nonzero f, deleting the key if the sum cancels."""
    if m in out:
        f = out[m] + f
        if not f:
            del out[m]
            return
    out[m] = f


def add_scaled(out: dict, c, terms) -> None:
    """out += c * terms, for (monomial, nonzero coefficient) pairs `terms`.

    Keeps `out` free of zeros: a key whose sum cancels is deleted, and a
    zero `c` adds nothing (a product of nonzero field elements is nonzero)."""
    if not c:
        return
    one = c.is_one()
    # _add inlined: this loop is the inner loop of every product and step
    for m, f in terms:
        if not one:
            f = c if f.is_one() else c * f
        if m in out:
            f = out[m] + f
            if not f:
                del out[m]
                continue
        out[m] = f


def bilinear(u, v, mono_product: Callable) -> dict:
    """Sum over the terms of u and v of cu * cv(H + mu.root_sum()) times
    mono_product(mu, mv), an iterable of (monomial, nonzero coefficient)
    pairs; the sum has no zero coefficient.

    Coefficients sit left of their monomials, so the right coefficient
    shifts as it passes the left monomial.
    """
    out: dict = {}
    for mu, cu in u:
        su, one = mu.root_sum(), cu.is_one()
        for mv, cv in v:
            c = cu if cv.is_one() else cv.shift(su) if one else cu * cv.shift(su)
            add_scaled(out, c, mono_product(mu, mv))
    return out


def fold_letters(mono, letters: Sequence[int], times_letter: Callable) -> dict:
    """mono * letters[0] * letters[1] * ..., one letter at a time, where
    times_letter(m, g) is the ordered form of monomial m times letter g;
    the sum has no zero coefficient.  Every term is carried to the end: a
    caller that wants a quotient reduces the result (`uea._word_times_word`)."""
    acc = {mono: RF_ONE}
    for g in letters:
        nxt: dict = {}
        for m, f in acc.items():
            add_scaled(nxt, f, times_letter(m, g))
        acc = nxt
    return acc


def rule_term(f, letters: tuple[int, ...]) -> tuple:
    """The rule term (sign, coefficient or None, letters) of f times the word
    `letters`, a coefficient 1 or -1 kept as the sign alone (no product)."""
    sign = 1 if f.is_one() else -1 if (-f).is_one() else 0
    return (sign, None, letters) if sign else (1, f, letters)


def _first_violation(w: Sequence[int], odd: Sequence[bool], lo: int = 0) -> int:
    """The first position i >= lo of an out-of-order pair w[i] w[i+1], or -1."""
    for i in range(lo, len(w) - 1):
        a, b = w[i], w[i + 1]
        if a > b or (a == b and odd[a]):
            return i
    return -1


def absorb(items: Sequence, coeff, monomial: type[Monomial]) -> tuple:
    """(scalar, letters) of a raw word.

    `items` holds letters (ints indexing the alphabet of the Monomial
    subclass `monomial`) and coefficient values (anything `as_rf` accepts);
    each coefficient is multiplied into the scalar `coeff` as it is read,
    shifted by the root sum of the letters before it.
    """
    odd, roots = monomial.ODD, monomial.ROOTS
    c, word, r = as_rf(coeff), [], 0
    for it in items:
        if isinstance(it, int):
            if not 0 <= it < len(odd):
                raise ValueError(f"bad generator letter {it}")
            word.append(it)
            r += roots[it]
        else:
            f = as_rf(it).shift(r)
            c = c if f.is_one() else f if c.is_one() else c * f
    return c, word


def ordered_prefix(word: Sequence[int], odd: Sequence[bool]) -> int:
    """Length of the longest ordered prefix of the letters `word`."""
    i = _first_violation(word, odd)
    return len(word) if i < 0 else i + 1


def last_letter(mono) -> int:
    """The last letter of the ordered word of `mono`, -1 if it is empty."""
    for i in range(len(mono) - 1, -1, -1):
        if mono[i]:
            return i
    return -1


def ordered_times(mono, g: int):
    """The monomial of the word mono g when it is ordered, that is, when g
    sorts after the last letter of mono or equals it and is even; else None."""
    h = last_letter(mono)
    if g < h or (g == h and mono.ODD[g]):
        return None
    exps = list(mono)
    exps[g] += 1
    return tuple.__new__(type(mono), exps)


def rule_step(mono, g: int, rules: dict, times_letter: Callable) -> dict:
    """mono * g for an ordered monomial `mono` whose last letter h is out of
    order with the letter g (`ordered_times` is None): the pair rule of
    (h, g) applied once.

    Each rule term's coefficient shifts by the root sum of mono minus h,
    the letters left of the pair, and its letters fold into mono minus h
    through times_letter, the step table.  Every rule term is deglex-smaller
    than h g, so the table is only asked for words smaller than mono g.
    Terms that cancel are deleted as they cancel, so the result has no zero
    coefficient.
    """
    h = last_letter(mono)
    exps = list(mono)
    exps[h] -= 1
    head = tuple.__new__(type(mono), exps)
    r = head.root_sum()
    out: dict = {}
    for sign, f, letters in rules[(h, g)]:
        t = RF_ONE if f is None else f.shift(r)
        add_scaled(out, t if sign > 0 else -t, fold_letters(head, letters, times_letter).items())
    return out

