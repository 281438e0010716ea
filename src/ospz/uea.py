"""Normal ordering in the localized enveloping algebra of osp(1|2) x osp(1|2).

Nine non-Cartan generators, ordered

    X(-2) < X(-1) < t(-2) < t(-1) < th < t(1) < t(2) < X(1) < X(2)

where X(k) are the diagonal root vectors, t(k) the anti-diagonal ones and
th the anti-diagonal Cartan element.  The diagonal Cartan H is absorbed
into the coefficient ring: coefficients are rational functions f(H) kept
on the left of each monomial, and cross generators via H -> H + k.

Elements are dicts  {monomial: RationalFunction}  with each monomial a
`Word`, the tuple of the nine generators' exponents in the order above;
odd generators (|k| = 1) appear with exponent at most 1, squares rewrite
through the half-bracket.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import neg
from typing import Callable, Iterator, Sequence

from .coeffs import RF_ONE, H, as_rf
from .engine import (
    Monomial, PBWElement, _add, _first_violation, absorb, add_scaled, bilinear, fold_letters, ordered_prefix,
    ordered_times, rule_step, rule_term,
)


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

TILDE_GENS = (TN2, TN1, TH, T1, T2)

# (diagonal, root) -> generator index
_COPY = {(g.diagonal, g.root): g.index for g in GENERATORS}


class Word(Monomial):
    """A PBW monomial of U: the exponents of the nine generators."""

    __slots__ = ()
    ROOTS = tuple(g.root for g in GENERATORS)
    ODD = tuple(g.odd for g in GENERATORS)


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


class UeaElement(PBWElement):
    """Finite sum of PBW-ordered monomials with left RationalFunction coefficients."""

    __slots__ = ()
    MONOMIAL = Word

    def __mul__(self, other):
        if isinstance(other, UeaElement):
            return mul(self, other)
        return NotImplemented

    def parity(self) -> int:
        """0 or 1 for homogeneous elements; raises MixedParityError otherwise."""
        ps = {m.parity() for m in self.terms} or {0}
        if len(ps) > 1:
            raise MixedParityError("element mixes even and odd monomials")
        return ps.pop()

    # -- coset reductions ---------------------------------------------
    def mod_ii(self) -> "UeaElement":
        """Canonical representative modulo g_-*U + U*g_+ (pure tilde monomials)."""
        return UeaElement.wrap(_reduce(self.terms, "both"))


def commutator_table(a: int, b: int) -> UeaElement:
    """[a, b] for single generators, as a canonical element.

    Copy rule: two letters of one copy bracket into the diagonal copy,
    letters of different copies into the anti-diagonal one, whose root-0
    letter is th; diagonal weight-zero brackets land in the coefficient ring
    as the polynomial H (or -H).
    """
    ga, gb = GENERATORS[a], GENERATORS[b]
    base = _base_bracket(ga.root, gb.root)
    if not base:
        return UeaElement.zero()
    ((label, coeff),) = base.items()
    diagonal = ga.diagonal == gb.diagonal
    if diagonal and label == 0:
        return UeaElement.coeff(coeff * H)
    return UeaElement({Word.from_letters([_COPY[diagonal, label]]): as_rf(coeff)})


# ---------------------------------------------------------------------------
# Straightening


def _pair_rule(a: int, b: int) -> tuple:
    """Terms replacing the letter pair a b: the swapped pair with its sign,
    then the bracket terms; an odd letter twice is half its bracket."""
    half = Fraction(1, 2) if a == b else 1
    bracket = tuple(rule_term(half * f, tuple(m.letters())) for m, f in commutator_table(a, b))
    if a == b:
        return bracket
    return ((-1 if Word.ODD[a] and Word.ODD[b] else 1, None, (b, a)), *bracket)


_PAIR_RULES = {
    (a, b): _pair_rule(a, b) for a in range(9) for b in range(a + 1) if a > b or Word.ODD[a]
}


def straighten(
    items: Sequence,
    coeff=RF_ONE,
    chooser: Callable[[list[int], tuple[int, ...]], int] | None = None,
) -> UeaElement:
    """Normal-order a raw word.

    `items` is a sequence of generator indices (ints) and coefficient values
    (anything `as_rf` accepts); a coefficient right of letters of root sum r
    enters as f(H + r).  `chooser(violations, word)` picks which
    out-of-order letter pair of the letters-only word to rewrite next; the
    default takes the leftmost.  Any strategy yields the same canonical
    element (confluence; property-tested).

    One scan picks each word's path.  An ordered word is its monomial.
    Without a chooser, a word whose only out-of-order pair is its last is
    one step: the pair rule at its end, folded into the ordered rest
    through the cached step table.  Every other word runs the agenda of
    `_rewrite`, which merges the words it reaches.
    """
    c, word = absorb(items, coeff, Word)
    n = ordered_prefix(word, Word.ODD)
    if n == len(word):
        return UeaElement({Word.from_letters(word): c})
    if chooser is None and n == len(word) - 1:
        out: dict = {}
        add_scaled(out, c, rule_step(Word.from_letters(word[:-1]), word[-1], _PAIR_RULES, _word_table).items())
        return UeaElement.wrap(out)
    return UeaElement.wrap(_rewrite(c, word, chooser))


def _violations(w: Sequence[int]) -> Iterator[int]:
    """Positions i of the out-of-order pairs w[i] w[i+1], left to right."""
    odd = Word.ODD
    i = _first_violation(w, odd)
    while i >= 0:
        yield i
        i = _first_violation(w, odd, i + 1)


def _rewrite(c, word: list[int], chooser: Callable[[list[int], tuple[int, ...]], int] | None) -> dict:
    """Normal-order c times the letters `word`, as `absorb` returns them;
    returns {Word: nonzero coefficient}.

    `_PAIR_RULES[(a, b)]` lists the terms (sign, coefficient or None, letter
    tuple) that replace a violating pair a b; a term's coefficient is
    absorbed into the scalar, shifted by the root sum of the letters before
    the pair.  `chooser(violations, word)` picks which violation to rewrite
    next; the default takes the leftmost without listing the others.  Any
    strategy yields the same element (confluence; property-tested).

    Pending words are merged, {word: coefficient}, and the deglex-largest
    (length, then letters) is rewritten first.  Every rule replaces a pair
    by deglex-smaller words, so a word rewritten once never comes back, and
    a word reached along many rewrite paths is rewritten once, not once
    per path.  Were some rule to break that order, a word would only be
    rewritten again; the sum would stay the same.  A popped word with a
    zero coefficient is dropped and an ordered one is a result term; the
    input word is treated like any other.
    """
    odd, roots, rules = Word.ODD, Word.ROOTS, _PAIR_RULES
    pending: dict = {}
    heap: list = []

    def push(t, w):
        if w in pending:
            pending[w] = pending[w] + t
        else:
            pending[w] = t
            heapq.heappush(heap, (-len(w), tuple(map(neg, w)), w))

    push(c, tuple(word))
    out: dict = {}
    while heap:
        w = heapq.heappop(heap)[2]
        c = pending.pop(w)
        if not c:
            continue
        if chooser is None:
            i = _first_violation(w, odd)
        else:
            viols = list(_violations(w))
            i = viols[chooser(viols, w)] if viols else -1
        if i < 0:
            _add(out, Word.from_letters(w), c)
            continue
        pre, post, one = w[:i], w[i + 2 :], c.is_one()
        r = sum(map(roots.__getitem__, pre))
        for sign, f, letters in rules[(w[i], w[i + 1])]:
            t = c if f is None else f.shift(r) if one else c * f.shift(r)
            push(t if sign > 0 else -t, pre + letters + post)
    return out


# ---------------------------------------------------------------------------
# Quotients.  The lowering letters sort first and the raising letters last, so
# a PBW monomial lies in the right ideal g_-U exactly when it starts with X(-2)
# or X(-1), in the left ideal U g_+ exactly when it ends with X(1) or X(2), and
# in II = g_-U + U g_+ exactly when it has a diagonal letter.  A quotient is
# named None (U itself), "left" (U/g_-U), "right" (U/U g_+) or "both" (U/II).


def _in_left(m: Word) -> bool:
    return bool(m[XN2] or m[XN1])


def _in_right(m: Word) -> bool:
    return bool(m[X1] or m[X2])


# quotient -> (drop g_-U monomials, drop U g_+ monomials)
_SIDES = {None: (False, False), "left": (True, False), "right": (False, True), "both": (True, True)}


def _reduce(terms: dict, quotient) -> dict:
    """The terms whose monomials survive in the quotient."""
    left, right = _SIDES[quotient]
    return {
        m: c
        for m, c in terms.items()
        if not (left and _in_left(m)) and not (right and _in_right(m))
    }


@lru_cache(maxsize=None)
def _word_times_gen(word: Word, g: int) -> UeaElement:
    m = ordered_times(word, g)
    return straighten(word.letters() + [g]) if m is None else UeaElement.wrap({m: RF_ONE})


# The table a straightening step folds through, bound once: rebinding the
# module attribute `_word_times_gen` changes only the steps read through it.
_word_table = _word_times_gen


@lru_cache(maxsize=None)
def _word_times_word(mu: Word, mv: Word, quotient) -> UeaElement:
    """mu * mv in the quotient: the letters of mv folded into mu through the
    step table, and the quotient applied once, to the result.  Dropping the
    g_-U terms after each letter is exact too (g_-U is a right ideal) but
    costs more than the folding it saves."""
    return UeaElement.wrap(_reduce(fold_letters(mu, mv.letters(), _word_times_gen), quotient))


def mul(u: UeaElement, v: UeaElement, quotient=None) -> UeaElement:
    """Product of canonical elements, returned in canonical form.

    With a `quotient` ("left", "right" or "both", see above) the result is
    the canonical representative of the product in that quotient.  A left
    factor in g_-U or a right factor in U g_+ gives a product in the same
    ideal, so such terms are dropped before anything is multiplied; each
    product of the monomials left is reduced once, after its fold
    (`_word_times_word`).
    """
    left, right = _SIDES[quotient]
    if left:
        u = [(m, c) for m, c in u if not _in_left(m)]
    if right:
        v = [(m, c) for m, c in v if not _in_right(m)]
    return UeaElement.wrap(bilinear(u, v, lambda mu, mv: _word_times_word(mu, mv, quotient)))


def super_bracket(u: UeaElement, v: UeaElement, quotient=None) -> UeaElement:
    """[u, v] = u v - (-1)^{|u||v|} v u for parity-homogeneous u, v, in the
    quotient named by `quotient` (see `mul`)."""
    if not u or not v:
        return UeaElement.zero()
    pu, pv = u.parity(), v.parity()
    uv = mul(u, v, quotient)
    vu = mul(v, u, quotient)
    return uv - vu if pu * pv == 0 else uv + vu


# Theta sends root k to root -k in the same copy, with sign -1 on the even
# root vectors; th, of root 0, is fixed.
_THETA_IMAGE = {
    g.index: (_COPY[g.diagonal, -g.root], -1 if g.root and not g.odd else 1) for g in GENERATORS
}
# The letters theta negates.  It sends letter i to letter 8 - i (root -k
# sits at the mirror place of root k in the order), so it reverses the
# order of the alphabet.
_THETA_NEGATED = tuple(g for g, (_, s) in _THETA_IMAGE.items() if s < 0)


def theta(u: UeaElement) -> UeaElement:
    """Involutive anti-automorphism: reverses products, fixes the Cartan,
    sends root vectors k -> -k with sign -(-1)^parity.

    It maps a PBW monomial to a signed PBW monomial: the images of the
    letters of an ordered word, read backwards, are again in order, so
    theta(m) is the reversed exponent tuple, with the sign of the negated
    letters it holds.  A coefficient c(H), which theta fixes, ends up right
    of theta(m) and moves back left as c(H + root sum of theta(m))."""
    total: dict = {}
    for m, c in u:
        tm = Word(m[::-1])
        c = c.shift(tm.root_sum())
        total[tm] = -c if sum(m[g] for g in _THETA_NEGATED) & 1 else c
    return UeaElement.wrap(total)
