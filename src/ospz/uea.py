"""Normal ordering in the localized enveloping algebra of osp(1|2) x osp(1|2).

Nine non-Cartan generators, ordered

    X(-2) < X(-1) < t(-2) < t(-1) < th < t(1) < t(2) < X(1) < X(2)

where X(k) are the diagonal root vectors, t(k) the anti-diagonal ones and
th the anti-diagonal Cartan element.  The diagonal Cartan H is absorbed
into the coefficient ring: coefficients are rational functions f(H) kept
on the left of each monomial, and cross generators via H -> H + k.

Elements are dicts  {monomial: RationalFunction}  with monomials stored as
ascending ((generator, exponent), ...) tuples; odd generators (|k| = 1)
appear with exponent at most 1, squares rewrite through the half-bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Callable, Sequence

from .coeffs import RF_ONE, RF_ZERO, Polynomial, RationalFunction, as_rf
from .engine import LinComb, bilinear, fold_letters, rewrite

Word = tuple  # ((gen, exp), ...) ascending


class MixedParityError(ValueError):
    """Super-bracket argument is not parity-homogeneous."""


@dataclass(frozen=True)
class GenInfo:
    index: int
    token: str
    diagonal: bool  # diagonal copy X vs anti-diagonal tilde
    root: int  # k with weight shift -k under H
    odd: bool


GENERATORS: tuple[GenInfo, ...] = tuple(
    GenInfo(i, tok, diag, root, abs(root) == 1)
    for i, (tok, diag, root) in enumerate(
        [
            ("X(-2)", True, -2),
            ("X(-1)", True, -1),
            ("t(-2)", False, -2),
            ("t(-1)", False, -1),
            ("th", False, 0),
            ("t(1)", False, 1),
            ("t(2)", False, 2),
            ("X(1)", True, 1),
            ("X(2)", True, 2),
        ]
    )
)

TOKEN_TO_GEN = {g.token: g.index for g in GENERATORS}

# Convenient named indices.
XN2, XN1, TN2, TN1, TH, T1, T2, X1, X2 = range(9)

DIAGONAL_GENS = (XN2, XN1, X1, X2)
TILDE_GENS = (TN2, TN1, TH, T1, T2)
RAISING_GENS = (X1, X2)
LOWERING_GENS = (XN2, XN1)

_ROOT = tuple(g.root for g in GENERATORS)
_ODD = tuple(g.odd for g in GENERATORS)


def _base_bracket(j: int, k: int) -> dict[int, int]:
    """Supercommutator table of osp(1|2) on root labels; 0 stands for h.

    Returns {label: integer coefficient}.
    """
    if j == 0:
        return {k: -k} if k else {}
    if k == 0:
        return {j: j}
    table = {
        (1, 1): {2: -2},
        (-1, -1): {-2: 2},
        (1, -2): {-1: 1},
        (-2, 1): {-1: -1},
        (-1, 2): {1: 1},
        (2, -1): {1: -1},
        (1, -1): {0: 1},
        (-1, 1): {0: 1},
        (-2, 2): {0: 1},
        (2, -2): {0: -1},
    }
    return table.get((j, k), {})


class UeaElement(LinComb):
    """Finite sum of PBW-ordered monomials with left RationalFunction coefficients."""

    __slots__ = ()

    # -- constructors -------------------------------------------------
    @classmethod
    def one(cls) -> "UeaElement":
        return _ONE

    @classmethod
    def gen(cls, g: int) -> "UeaElement":
        return cls({((g, 1),): RF_ONE})

    @classmethod
    def coeff(cls, f) -> "UeaElement":
        return cls({(): as_rf(f)})

    @classmethod
    def monomial(cls, word: Word, c=RF_ONE) -> "UeaElement":
        return cls({word: as_rf(c)})

    # -- structure ----------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, UeaElement):
            return mul(self, other)
        return NotImplemented

    def parity(self) -> int:
        """0 or 1 for homogeneous elements; raises MixedParityError otherwise."""
        ps = {word_parity(m) for m in self.terms} or {0}
        if len(ps) > 1:
            raise MixedParityError("element mixes even and odd monomials")
        return ps.pop()

    def max_degree(self) -> int:
        return max((word_degree(m) for m in self.terms), default=0)

    # -- coset reductions ---------------------------------------------
    def mod_i(self) -> "UeaElement":
        """Canonical representative modulo the left ideal generated by X(1), X(2)."""
        return UeaElement(
            {m: c for m, c in self.terms.items() if not any(g in (X1, X2) for g, _ in m)}
        )

    def mod_ii(self) -> "UeaElement":
        """Canonical representative modulo g_-*U + U*g_+ (pure tilde monomials)."""
        return UeaElement(
            {
                m: c
                for m, c in self.terms.items()
                if all(g not in (XN2, XN1, X1, X2) for g, _ in m)
            }
        )

    def is_pure_tilde(self) -> bool:
        return all(
            g not in (XN2, XN1, X1, X2) for m in self.terms for g, _ in m
        )

    def __repr__(self):
        from .text import render_uea

        return f"UeaElement({render_uea(self)})"


_ONE = UeaElement({(): RF_ONE})


def word_degree(m: Word) -> int:
    return sum(e for _, e in m)


def word_parity(m: Word) -> int:
    return sum(e for g, e in m if _ODD[g]) & 1


def word_root_sum(m: Word) -> int:
    return sum(_ROOT[g] * e for g, e in m)


def word_letters(m: Word) -> list[int]:
    out = []
    for g, e in m:
        out.extend([g] * e)
    return out


@lru_cache(maxsize=None)
def commutator_table(a: int, b: int) -> UeaElement:
    """[a, b] for single generators, as a canonical element.

    Weight-zero diagonal brackets land in the coefficient ring as the
    polynomial H (or -H).
    """
    ga, gb = GENERATORS[a], GENERATORS[b]
    base = _base_bracket(ga.root, gb.root)
    # Copy rule: diag/diag -> diag, mixed -> tilde, tilde/tilde -> diag.
    # th behaves as the tilde image of h.
    a_diag = ga.diagonal
    b_diag = gb.diagonal
    result_diag = a_diag == b_diag
    terms: dict[Word, RationalFunction] = {}
    for label, coeff in base.items():
        if label == 0:
            if result_diag:
                terms[()] = terms.get((), RF_ZERO) + coeff * as_rf(Polynomial.var())
            else:
                terms[((TH, 1),)] = terms.get(((TH, 1),), RF_ZERO) + as_rf(coeff)
        else:
            if result_diag:
                g = next(g.index for g in GENERATORS if g.diagonal and g.root == label)
            else:
                g = next(
                    g.index for g in GENERATORS if not g.diagonal and g.root == label
                )
            terms[((g, 1),)] = terms.get(((g, 1),), RF_ZERO) + as_rf(coeff)
    return UeaElement(terms)


# ---------------------------------------------------------------------------
# Straightening


def _pair_rule(a: int, b: int) -> tuple:
    """Terms replacing the letter pair a b: the swapped pair with its sign,
    then the bracket terms; an odd letter twice is half its bracket."""
    bracket = [(1, f, word_letters(m)) for m, f in commutator_table(a, b)]
    if a == b:
        half = Fraction(1, 2)
        return tuple((1, half * f, letters) for _, f, letters in bracket)
    return ((-1 if _ODD[a] and _ODD[b] else 1, None, [b, a]), *bracket)


_PAIR_RULES = {
    (a, b): _pair_rule(a, b) for a in range(9) for b in range(a + 1) if a > b or _ODD[a]
}


def _pack(letters: list[int]) -> Word:
    return tuple((g, len(list(run))) for g, run in groupby(letters))


def straighten(
    items: Sequence,
    coeff=RF_ONE,
    chooser: Callable[[list[int], list], int] | None = None,
) -> UeaElement:
    """Normal-order a raw word.

    `items` is a sequence of generator indices (ints) and coefficient values
    (anything `as_rf` accepts).  `chooser(violations, word)` picks which
    violation to rewrite next; the default takes the leftmost, which is also
    what the cached fast path uses.  Any strategy yields the same canonical
    element (confluence; property-tested).
    """
    return UeaElement(rewrite(items, coeff, chooser, _ODD, _ROOT, _PAIR_RULES, _pack))


@lru_cache(maxsize=None)
def _word_times_gen(word: Word, g: int) -> UeaElement:
    return straighten(word_letters(word) + [g])


@lru_cache(maxsize=None)
def _word_times_word(mu: Word, mv: Word) -> UeaElement:
    return UeaElement(fold_letters(mu, word_letters(mv), _word_times_gen))


def mul(u: UeaElement, v: UeaElement) -> UeaElement:
    """Product of canonical elements, returned in canonical form."""
    return UeaElement(bilinear(u, v, word_root_sum, _word_times_word))


def normal_order(raw, chooser=None) -> UeaElement:
    """Normal-order raw input: an item sequence, an element, or a list of
    (coeff, items) terms."""
    if isinstance(raw, UeaElement):
        return raw
    raw = list(raw)
    if raw and isinstance(raw[0], (tuple, list)) and len(raw[0]) == 2 and isinstance(raw[0][1], (tuple, list)):
        total = UeaElement.zero()
        for c, items in raw:
            total = total + straighten(items, c, chooser)
        return total
    return straighten(raw, RF_ONE, chooser)


def super_bracket(u: UeaElement, v: UeaElement) -> UeaElement:
    """[u, v] = u v - (-1)^{|u||v|} v u for parity-homogeneous u, v."""
    if not u or not v:
        return UeaElement.zero()
    pu, pv = u.parity(), v.parity()
    uv = mul(u, v)
    vu = mul(v, u)
    return uv - vu if pu * pv == 0 else uv + vu


_THETA_IMAGE = {
    XN2: (X2, -1),
    XN1: (X1, 1),
    TN2: (T2, -1),
    TN1: (T1, 1),
    TH: (TH, 1),
    T1: (TN1, 1),
    T2: (TN2, -1),
    X1: (XN1, 1),
    X2: (XN2, -1),
}


def theta(u: UeaElement) -> UeaElement:
    """Involutive anti-automorphism: reverses products, fixes the Cartan,
    sends root vectors k -> -k with sign -(-1)^parity."""
    total = UeaElement.zero()
    for m, c in u:
        sign = 1
        rev: list = []
        for g in reversed(word_letters(m)):
            img, s = _THETA_IMAGE[g]
            sign *= s
            rev.append(img)
        rev.append(c)  # theta fixes f(H); it ends up on the right, to be shifted left
        total = total + straighten(rev, sign)
    return total


def tilde_word(exponents: Sequence[int]) -> Word:
    """Monomial t(-2)^p t(-1)^q th^r t(1)^s t(2)^t from (p, q, r, s, t)."""
    p, q, r, s, t = exponents
    if q > 1 or s > 1:
        raise ValueError("odd exponents must be at most 1")
    word = []
    for g, e in zip(TILDE_GENS, (p, q, r, s, t)):
        if e:
            word.append((g, e))
    return tuple(word)


def tilde_exponents(m: Word) -> tuple[int, int, int, int, int]:
    exps = [0, 0, 0, 0, 0]
    for g, e in m:
        if g not in TILDE_GENS:
            raise ValueError("not a pure tilde monomial")
        exps[TILDE_GENS.index(g)] = e
    return tuple(exps)
