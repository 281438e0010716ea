"""The diagonal reduction algebra Z as an abstract presented algebra.

Five generators E(-2) < E(-1) < E(0) < E(1) < E(2)  (E(0) is the image of
the Cartan element; E(k) carries root k), PBW monomials

    E(-2)^p E(-1)^q E(0)^r E(1)^s E(2)^t,      q, s <= 1,

each held as its exponent tuple (p, q, r, s, t), the format of a monomial
of U too, with left rational-function coefficients in H.  A product folds
the right factor into the left one generator at a time, with one of two
step tables: the twelve two-generator rewrite rules, or the diamond-product
oracle (expand to the tilde basis, multiply there by the generator, convert
back).
The two products are required to agree.  Since they share the fold, they
agree on a set of pairs whenever the two step tables agree on every
(monomial, generator) step the fold of those pairs reaches; `step_sweep`
checks that, each step once.

Each rule exists in two forms: `STATED_RULES` holds the published
closed-form coefficients, `derived_rule` regenerates the coefficients from
the oracle.  Straightening always uses `derived_rule`; `catalog` reports any
family where the two disagree rather than silently preferring either.  The
coefficient shift E(k) f(H) = f(H+k) E(k) and Cartan commutativity are
structural and carry no rule: the straightener absorbs each coefficient into
the scalar, shifted by the root sum of the letters to its left, and rewrites
letter pairs only.  It folds every word through the rule step table that
z_multiply folds with, and each entry of that table is one pair rule folded
through smaller entries, so z_straighten and z_multiply cannot tell a wrong
step apart; only the oracle can.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .coeffs import H, RF_ONE, RationalFunction, as_rf
from .engine import (
    Monomial, PBWElement, absorb, add_scaled, bilinear, fold_letters, ordered_prefix, ordered_times, rule_step,
    rule_term,
)
from .projector import diamond
from .uea import TILDE_GENS, TN2, X1, UeaElement, Word, theta

Z_TOKENS = ("E(-2)", "E(-1)", "E(0)", "E(1)", "E(2)")
Z_ROOTS = (-2, -1, 0, 1, 2)
ZN2, ZN1, ZH, Z1, Z2 = range(5)
# The tilde generators t(-2), t(-1), th, t(1), t(2) as elements of U, by Z letter.
TILDE = tuple(UeaElement.gen(g) for g in TILDE_GENS)


class ZMonomial(Monomial):
    """Exponents (p, q, r, s, t) of E(-2), E(-1), E(0), E(1), E(2)."""

    __slots__ = ()
    ROOTS = Z_ROOTS
    ODD = tuple(abs(k) == 1 for k in Z_ROOTS)

    @classmethod
    def make(cls, p=0, q=0, r=0, s=0, t=0) -> "ZMonomial":
        if min(p, q, r, s, t) < 0:
            raise ValueError("negative exponent")
        if q > 1 or s > 1:
            raise ValueError("odd exponents must be at most 1")
        return cls((p, q, r, s, t))

    def spread(self) -> int:
        return sum(abs(k) * e for k, e in zip(Z_ROOTS, self))


class ZElement(PBWElement):
    """Finite sum of PBW monomials with left RationalFunction coefficients."""

    __slots__ = ()
    MONOMIAL = ZMonomial

    def __mul__(self, other):
        if isinstance(other, ZElement):
            return z_multiply(self, other)
        return NotImplemented


# ---------------------------------------------------------------------------
# Rule catalog


def _zel(*terms) -> ZElement:
    return ZElement({ZMonomial.make(*exps): as_rf(c) for c, exps in terms})


def _stated_rules() -> dict[tuple[int, int], ZElement]:
    """Published closed forms of the two-generator rewrite rules.

    Keys (a, b) mean: the product E(a) E(b) (in that order) rewrites to the
    value.  Covers the ten strictly-misordered pairs and the two odd squares.
    """
    one = RF_ONE
    return {
        (Z2, Z1): _zel((one - RationalFunction(2, H - 1), (0, 0, 0, 1, 1))),
        (Z1, Z1): _zel((RationalFunction(2, H), (0, 0, 1, 0, 1))),
        (ZN1, ZN1): _zel((-RationalFunction(2, H - 2), (1, 0, 1, 0, 0))),
        (Z2, ZH): _zel((one - RationalFunction(2, H + 1), (0, 0, 1, 0, 1))),
        (Z2, ZN1): _zel(
            (one - RationalFunction(2, H * (H - 1)), (0, 1, 0, 0, 1)),
            (RationalFunction(2, H + 1), (0, 0, 1, 1, 0)),
        ),
        (Z2, ZN2): _zel(
            (
                one
                + RationalFunction(
                    2 * (H**3 + H**2 - 6 * H + 4),
                    (H - 2) * (H - 1) * H * (H + 1) * (H + 2),
                ),
                (1, 0, 0, 0, 1),
            ),
            (-RationalFunction(H**2 - H - 1, (H - 1) * H * (H + 1)), (0, 1, 0, 1, 0)),
            (RationalFunction(1, H + 1), (0, 0, 2, 0, 0)),
            (RationalFunction(-(H**2), H + 1), (0, 0, 0, 0, 0)),
        ),
        (Z1, ZH): _zel((one - RationalFunction(1, H), (0, 0, 1, 1, 0))),
        (Z1, ZN1): _zel(
            (-one - RationalFunction(1, H - 1), (0, 1, 0, 1, 0)),
            (RationalFunction(4 * H, (H - 1) * (H - 2)), (1, 0, 0, 0, 1)),
            (-RationalFunction(1, H), (0, 0, 2, 0, 0)),
            (as_rf(H), (0, 0, 0, 0, 0)),
        ),
        (Z1, ZN2): _zel(
            (one - RationalFunction(2, (H - 1) * (H - 2)), (1, 0, 0, 1, 0)),
            (-RationalFunction(2, H), (0, 1, 1, 0, 0)),
        ),
        (ZH, ZN1): _zel((one - RationalFunction(1, H - 1), (0, 1, 1, 0, 0))),
        (ZH, ZN2): _zel((one - RationalFunction(2, H - 1), (1, 0, 1, 0, 0))),
        (ZN1, ZN2): _zel((one - RationalFunction(2, H - 4), (1, 1, 0, 0, 0))),
    }


STATED_RULES = _stated_rules()

RULE_KEYS = tuple(sorted(STATED_RULES))


def derived_rule(a: int, b: int) -> ZElement:
    """Rewrite rule for E(a) E(b) regenerated from the diamond-product oracle:
    the oracle's step on a one-letter monomial."""
    if (a, b) not in STATED_RULES:
        raise KeyError(f"no rule for pair ({a}, {b})")
    return _oracle_fold(ZMonomial.from_letters([a]), b)


def catalog() -> list[dict]:
    """Per-family comparison of the stated and the derived rules."""
    return [
        {
            "family": f"{Z_TOKENS[a]} {Z_TOKENS[b]}",
            "key": (a, b),
            "match": STATED_RULES[a, b] == derived_rule(a, b),
            "stated": STATED_RULES[a, b],
            "derived": derived_rule(a, b),
        }
        for a, b in RULE_KEYS
    ]


# ---------------------------------------------------------------------------
# Straightening


@lru_cache(maxsize=None)
def _z_pair_rules() -> dict:
    """The derived rules as a pair-rule table for the engine."""
    return {
        key: tuple(rule_term(f, tuple(m.letters())) for m, f in derived_rule(*key))
        for key in RULE_KEYS
    }


def z_straighten(items: Sequence, coeff=RF_ONE) -> ZElement:
    """Normal-order a raw word of generator letters (ints 0..4) and
    coefficient values.

    The longest ordered prefix is a monomial; one letter after it is one
    step (the pair rule at the end of the word, folded into the rest of
    the monomial through the cached step table), and more letters fold
    into it through that table one at a time.  Every overlap E(a)E(b)E(c)
    of the pair rules resolves, so the order of rewriting does not change
    the element."""
    c, word = absorb(items, coeff, ZMonomial)
    if not c:
        return ZElement()
    n = ordered_prefix(word, ZMonomial.ODD)
    mono, rest = ZMonomial.from_letters(word[:n]), word[n:]
    if len(rest) == 1:
        terms = rule_step(mono, rest[0], _z_pair_rules(), _z_table)
    else:
        terms = fold_letters(mono, rest, _z_table)
    out: dict = {}
    add_scaled(out, c, terms.items())
    return ZElement.wrap(out)


@lru_cache(maxsize=None)
def _z_mono_times_gen(mono: ZMonomial, g: int) -> ZElement:
    m = ordered_times(mono, g)
    return z_straighten(mono.letters() + [g]) if m is None else ZElement.wrap({m: RF_ONE})


# The table z_straighten folds through, bound once: rebinding the module
# attribute `_z_mono_times_gen` changes only the steps read through it.
_z_table = _z_mono_times_gen


def _fold_product(u: ZElement, v: ZElement, step: Callable) -> ZElement:
    """u * v, folding the letters of each right monomial into each left one
    by step(m, g), the normal form of monomial m times generator g."""

    def times(mu, mv):
        return fold_letters(mu, mv.letters(), step).items()

    return ZElement.wrap(bilinear(u, v, times))


def z_multiply(u: ZElement, v: ZElement) -> ZElement:
    """Product in the presented algebra, straightened to the PBW basis."""
    return _fold_product(u, v, _z_mono_times_gen)


# ---------------------------------------------------------------------------
# Conversion to and from the tilde basis


@lru_cache(maxsize=None)
def _z_mono_tilde(mono: ZMonomial) -> UeaElement:
    """Expand one diamond monomial to its pure-tilde normal form by folding
    the diamond product over its letters."""
    letters = mono.letters()
    if not letters:
        return UeaElement.one()
    head = ZMonomial.from_letters(letters[:-1])
    return diamond(_z_mono_tilde(head), TILDE[letters[-1]])


def z_to_tilde(z: ZElement) -> UeaElement:
    """Pure-tilde canonical representative of z in U/II."""
    out: dict = {}
    for m, c in z:
        add_scaled(out, c, _z_mono_tilde(m))
    return UeaElement.wrap(out)


def tilde_word(exponents: Sequence[int]) -> Word:
    """Monomial t(-2)^p t(-1)^q th^r t(1)^s t(2)^t from (p, q, r, s, t)."""
    return Word((0, 0, *ZMonomial.make(*exponents), 0, 0))


def tilde_exponents(m: Word) -> tuple[int, int, int, int, int]:
    if sum(m[TN2:X1]) != m.degree():
        raise ValueError("not a pure tilde monomial")
    return m[TN2:X1]


@lru_cache(maxsize=None)
def _tilde_key(word) -> tuple:
    m = ZMonomial.make(*tilde_exponents(word))
    return (m.degree(), -m.spread(), m)


def tilde_to_z(u: UeaElement) -> ZElement:
    """Invert z_to_tilde by back-substitution.

    The expansion of a diamond monomial is unit-triangular: its leading
    tilde monomial (maximal degree, then minimal spread) has the same
    exponents with coefficient 1, and every correction term is strictly
    smaller in that order.  Repeatedly strip the leading term.  A term with
    a diagonal letter raises ValueError (`tilde_exponents`) before any term
    is stripped.
    """
    out: dict[ZMonomial, RationalFunction] = {}
    rem = dict(u.terms)
    last = None
    while rem:
        word = max(rem, key=_tilde_key)
        key = _tilde_key(word)
        if last is not None and key >= last:
            raise AssertionError("triangular back-substitution failed to progress")
        last = key
        mono = key[2]
        c = out[mono] = rem.pop(word)  # keys strictly decrease: mono is new
        one = c.is_one()
        for w2, f2 in _z_mono_tilde(mono):
            if w2 == word:
                if not f2.is_one():
                    raise AssertionError("expansion is not unit-leading")
                continue  # the unit leading term, already stripped
            t = f2 if one else c * f2
            if w2 not in rem:
                rem[w2] = -t
            elif rem[w2] == t:  # canonical forms: equal exactly when they cancel
                del rem[w2]
            else:
                rem[w2] = rem[w2] - t
    return ZElement.wrap(out)


def z_oracle_multiply(u: ZElement, v: ZElement) -> ZElement:
    """Product computed through the diamond oracle instead of the rule
    catalog: the same fold as z_multiply, with the diamond as its step.

    Each step expands a monomial to the tilde basis, multiplies it there by
    one generator with the projector-series diamond, and converts back.  The
    diamond is associative and z_to_tilde/tilde_to_z are exact inverses, so
    the fold equals tilde_to_z(diamond(z_to_tilde(u), z_to_tilde(v))); no
    rewrite rule is read.  Steps are cached, so a sweep pays one diamond and
    one back-substitution per distinct (monomial, generator) pair.
    """
    return _fold_product(u, v, _oracle_fold)


@lru_cache(maxsize=None)
def _oracle_fold(mono: ZMonomial, g: int) -> ZElement:
    """The oracle's step: mono times E(g) through the tilde basis.

    z_oracle_multiply folds with this table and z_multiply with
    _z_mono_times_gen, so where the two tables agree on every step a fold
    reaches, the two products agree (step_sweep).

    When mono E(g) is already ordered (g after the last letter of mono, or
    equal to it and even), its expansion _z_mono_tilde(mono E(g)) is by
    definition this very diamond, so it is read from that cache rather than
    built a second time.  tilde_to_z runs on every step either way, so its
    triangularity checks cover every monomial a sweep reaches."""
    m = ordered_times(mono, g)
    return tilde_to_z(diamond(_z_mono_tilde(mono), TILDE[g]) if m is None else _z_mono_tilde(m))


def z_theta(z: ZElement) -> ZElement:
    """The involutive anti-automorphism transported to the presented algebra."""
    return tilde_to_z(theta(z_to_tilde(z)))


# ---------------------------------------------------------------------------
# Monomial ranges and the oracle sweep


def all_monomials(max_exponent: int) -> list[ZMonomial]:
    rng = range(max_exponent + 1)
    odd = range(min(max_exponent, 1) + 1)
    return [
        ZMonomial.make(p, q, r, s, t)
        for p in rng
        for q in odd
        for r in rng
        for s in odd
        for t in rng
    ]


def monomials_up_to_degree(max_degree: int) -> list[ZMonomial]:
    return [m for m in all_monomials(max_degree) if m.degree() <= max_degree]


def step_sweep(
    max_exponent: int,
) -> Iterator[tuple[ZMonomial, list[tuple[ZMonomial, int]], list[tuple[ZMonomial, int]]]]:
    """Compare the two step tables, _z_mono_times_gen and _oracle_fold, on
    every (monomial, generator) step that the rule fold of the ordered pairs
    of all_monomials(max_exponent) reaches, each step once.  Yields, for
    each left factor mu in that order, (mu, steps, bad): the steps first
    reached from mu, and those of them where the two tables differ.

    Both products are _fold_product with a step table, so where the tables
    agree on every reached step, the two folds agree letter by letter and
    z_multiply equals z_oracle_multiply on every pair: no bad step is a
    stronger statement than comparing the products pair by pair.

    The supports of the folds are walked over the trie of right-factor
    prefixes, one _z_mono_times_gen call per (monomial, letter), with no
    coefficient arithmetic.  Ignoring cancellation can only enlarge a
    support, so it can only add steps."""
    monos = all_monomials(max_exponent)
    trie: dict = {}
    for mv in monos:
        node = trie
        for g in mv.letters():
            node = node.setdefault(g, {})
    seen: set = set()
    for mu in monos:
        steps = []
        stack = [(trie, {mu})]
        while stack:
            node, support = stack.pop()
            for g, child in node.items():
                nxt = set()
                for m in support:
                    if (m, g) not in seen:
                        seen.add((m, g))
                        steps.append((m, g))
                    nxt.update(_z_mono_times_gen(m, g).terms)
                if child:
                    stack.append((child, nxt))
        bad = [(m, g) for m, g in steps if _z_mono_times_gen(m, g) != _oracle_fold(m, g)]
        yield mu, steps, bad
