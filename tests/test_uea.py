"""Tests for the normal-ordering engine of the doubled superalgebra.

The bracket table and straightening rules are cross-checked against
structural oracles: the graded Jacobi identity, conservation laws, and
agreement of independent randomized rewriting strategies.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from ospz import uea
from ospz.coeffs import H, RF_ONE, RationalFunction, as_rf
from ospz.text import parse_ratfunc
from ospz.engine import add_scaled, ordered_times
from ospz.uea import (
    _THETA_IMAGE,
    GENERATORS,
    TILDE_GENS,
    T1,
    T2,
    TH,
    TN1,
    TN2,
    UeaElement,
    Word,
    X1,
    X2,
    XN1,
    XN2,
    commutator_table,
    mul,
    straighten,
    super_bracket,
    theta,
)
from ospz.zalgebra import ZElement, tilde_to_z, z_multiply, z_straighten, z_theta, z_to_tilde

ALL_GENS = (XN2, XN1, TN2, TN1, TH, T1, T2, X1, X2)


def parity(g: int) -> int:
    return 1 if GENERATORS[g].odd else 0


def gen(g: int) -> UeaElement:
    return UeaElement.gen(g)


class TestBrackets:
    def test_graded_jacobi_on_all_triples(self):
        # [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|} [b,[a,c]]
        for a, b, c in itertools.product(ALL_GENS, repeat=3):
            ea, eb, ec = gen(a), gen(b), gen(c)
            lhs = super_bracket(ea, super_bracket(eb, ec))
            rhs = super_bracket(super_bracket(ea, eb), ec)
            term = super_bracket(eb, super_bracket(ea, ec))
            if parity(a) and parity(b):
                rhs = rhs - term
            else:
                rhs = rhs + term
            assert lhs == rhs, (a, b, c)

    def test_super_antisymmetry(self):
        for a, b in itertools.product(ALL_GENS, repeat=2):
            lhs = super_bracket(gen(a), gen(b))
            rhs = super_bracket(gen(b), gen(a))
            if parity(a) and parity(b):
                assert lhs == rhs, (a, b)
            else:
                assert lhs == -rhs, (a, b)

    def test_a_zero_bracket_needs_no_parity(self):
        # super_bracket's zero exit: a zero argument has no parity to read,
        # so a mixed one beside it is no error
        mixed = gen(X1) + gen(X2)
        for quotient in (None, "left", "right", "both"):
            assert super_bracket(UeaElement.zero(), mixed, quotient) == UeaElement.zero()
            assert super_bracket(mixed, UeaElement.zero(), quotient) == UeaElement.zero()
        with pytest.raises(uea.MixedParityError):
            super_bracket(gen(X1), mixed)

    @pytest.mark.parametrize("element, size", [(UeaElement, 9), (ZElement, 5)], ids=["u", "z"])
    def test_gen_rejects_a_letter_outside_the_alphabet(self, element, size):
        first, last = element.gen(0), element.gen(size - 1)
        assert list(first.terms) == [element.MONOMIAL.from_letters([0])]
        assert list(last.terms) == [element.MONOMIAL.from_letters([size - 1])]
        for g in (-1, -2, size):
            with pytest.raises(ValueError, match=f"bad generator letter {g}"):
                element.gen(g)

    def test_copy_rule_diagonal_squares(self):
        # Products of two anti-diagonal odd generators land in the
        # diagonal copy: t(-1)^2 = X(-2) and t(1)^2 = -X(2).
        assert mul(gen(TN1), gen(TN1)) == gen(XN2)
        assert mul(gen(T1), gen(T1)) == -gen(X2)
        # and squares of diagonal odd generators stay diagonal
        assert mul(gen(XN1), gen(XN1)) == gen(XN2)
        assert mul(gen(X1), gen(X1)) == -gen(X2)


class TestAdjointActionTable:
    """The iterated right and left adjoint actions of the base algebra on
    itself, entry for entry, including the vanishing positions."""

    # raising chains [x_alpha, .]^n starting from each generator, written
    # in the diagonal copy; `H` marks the Cartan coefficient element.
    RAISING = {
        XN2: ["X(-1)", "H", "X(1)", "-2*X(2)", "0"],
        XN1: ["H", "X(1)", "-2*X(2)", "0"],
        "H": ["X(1)", "-2*X(2)", "0"],
        X1: ["-2*X(2)", "0"],
        X2: ["0"],
    }
    # lowering chains [., x_-alpha]^n
    LOWERING = {
        XN2: ["0"],
        XN1: ["2*X(-2)", "0"],
        "H": ["X(-1)", "2*X(-2)", "0"],
        X1: ["H", "X(-1)", "2*X(-2)", "0"],
        X2: ["-X(1)", "-H", "-X(-1)", "-2*X(-2)", "0"],
    }

    @staticmethod
    def _named(name: str) -> UeaElement:
        if name == "0":
            return UeaElement.zero()
        sign = 1
        if name.startswith("-2*"):
            sign, name = -2, name[3:]
        elif name.startswith("2*"):
            sign, name = 2, name[2:]
        elif name.startswith("-"):
            sign, name = -1, name[1:]
        if name == "H":
            base = UeaElement.coeff(RationalFunction(H))
        else:
            from ospz.uea import TOKEN_TO_GEN

            base = gen(TOKEN_TO_GEN[name])
        return _scale(base, sign)

    def _start(self, key) -> UeaElement:
        if key == "H":
            return UeaElement.coeff(RationalFunction(H))
        return gen(key)

    @pytest.mark.parametrize("key", [XN2, XN1, "H", X1, X2])
    def test_raising_chain(self, key):
        current = self._start(key)
        for name in self.RAISING[key]:
            current = super_bracket(gen(X1), current)
            assert current == self._named(name), (key, name)

    @pytest.mark.parametrize("key", [XN2, XN1, "H", X1, X2])
    def test_lowering_chain(self, key):
        current = self._start(key)
        for name in self.LOWERING[key]:
            current = super_bracket(current, gen(XN1))
            assert current == self._named(name), (key, name)


def _scale(e: UeaElement, n: int) -> UeaElement:
    return UeaElement({m: c * as_rf(n) for m, c in e.terms.items()})


def random_word(rng: random.Random, length: int) -> list[int]:
    return [rng.choice(ALL_GENS) for _ in range(length)]


class TestStraightening:
    def test_confluence_across_strategies(self):
        # The rewriting system must reach the same normal form no matter
        # which violation is resolved first.  A coefficient item inserted
        # anywhere must give the product with that coefficient, which `mul`
        # shifts itself (bilinear), not through the straightener.
        f = RationalFunction(H + 2, H - 1)
        for seed in range(120):
            rng = random.Random(seed)
            word = random_word(rng, rng.randint(2, 6))
            reference = straighten(word)
            pick = random.Random(seed + 1)
            chooser = lambda viols, w: pick.randrange(len(viols))
            assert straighten(word, chooser=chooser) == reference, (seed, word)
            cut = rng.randint(0, len(word))
            pre, post = word[:cut], word[cut:]
            items = pre + [f] + post
            expected = mul(mul(straighten(pre), UeaElement.coeff(f)), straighten(post))
            assert straighten(items) == expected, (seed, items)
            assert straighten(items, chooser=chooser) == expected, (seed, items)

    def test_associativity_of_mul(self):
        rng = random.Random(5)
        for _ in range(40):
            a = straighten(random_word(rng, 2))
            b = straighten(random_word(rng, 2))
            c = straighten(random_word(rng, 2))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_weight_conservation(self):
        rng = random.Random(11)
        for _ in range(60):
            word = random_word(rng, rng.randint(2, 5))
            total = sum(GENERATORS[g].root for g in word)
            for m in straighten(word).terms:
                assert m.root_sum() == total, word

    def test_parity_conservation(self):
        rng = random.Random(13)
        for _ in range(60):
            word = random_word(rng, rng.randint(2, 5))
            total = sum(1 for g in word if GENERATORS[g].odd) % 2
            for m in straighten(word).terms:
                assert m.parity() == total, word

    def test_shift_rule(self):
        f = RationalFunction(1, H - 1)
        for g in ALL_GENS:
            lhs = mul(gen(g), UeaElement.coeff(f))
            rhs = mul(UeaElement.coeff(f.shift(GENERATORS[g].root)), gen(g))
            assert lhs == rhs, g

    def test_each_path_of_one_scan(self):
        # straighten scans a word once and returns an ordered word as its
        # monomial, takes a word out of order only at its last pair as one
        # step, and runs the agenda otherwise (always under a chooser); each
        # result, zero coefficients included, is the mul fold of its items.
        f = RationalFunction(H + 2, H - 1)
        words = (
            [XN2, XN2, XN1, TH, T2, X1],  # ordered
            [XN2, f, XN1, TH, X1],  # ordered, with a coefficient
            [X1, XN1],  # one step
            [XN2, TN1, f, T1, X2, X1],  # one step after an ordered prefix
            [T1, TN1, X1, XN1],  # agenda
        )
        choosers = (None, lambda viols, w: 0, lambda viols, w: len(viols) - 1)
        for items, c, chooser in itertools.product(words, (1, f, 0), choosers):
            fold = UeaElement.coeff(c)
            for it in items:
                fold = mul(fold, gen(it) if isinstance(it, int) else UeaElement.coeff(it))
            assert straighten(items, c, chooser) == fold, (items, c)
            assert bool(fold) == bool(c)

    def test_step_table_entries_equal_straightening(self):
        # the table answers an ordered product itself, without straightening;
        # every entry is what straightening makes of its letters, by one scan
        # and by the agenda
        def leftmost(viols, w):
            return 0

        monos = {
            Word.from_letters(w)
            for n in range(4)
            for w in itertools.combinations_with_replacement(ALL_GENS, n)
            if not any(a == b and GENERATORS[a].odd for a, b in zip(w, w[1:]))
        }
        assert len(monos) == 180
        ordered = 0
        for m, g in itertools.product(monos, ALL_GENS):
            letters = m.letters() + [g]
            entry = uea._word_times_gen(m, g)
            assert entry == straighten(letters) == straighten(letters, chooser=leftmost), (m, g)
            if ordered_times(m, g) is not None:
                ordered += 1
                assert entry == UeaElement.monomial(Word.from_letters(letters)), (m, g)
        assert ordered == 500
        # an odd letter times itself is half its bracket, never an exponent 2
        for g in (XN1, TN1, T1, X1):
            m = Word.from_letters([g])
            assert ordered_times(m, g) is None
            assert uea._word_times_gen(m, g) == commutator_table(g, g).scale(Fraction(1, 2))

    def test_odd_exponent_capped(self):
        for g in (XN1, TN1, T1, X1):
            result = straighten([g, g])
            for m in result.terms:
                for letter, exp in enumerate(m):
                    if GENERATORS[letter].odd:
                        assert exp <= 1


class TestTheta:
    def test_involution_on_generators(self):
        for g in ALL_GENS:
            assert theta(theta(gen(g))) == gen(g), g

    def test_involution_on_products(self):
        rng = random.Random(17)
        for _ in range(30):
            e = straighten(random_word(rng, rng.randint(2, 4)))
            assert theta(theta(e)) == e

    def test_anti_multiplicative_on_mul(self):
        for a, b in itertools.product(ALL_GENS, repeat=2):
            lhs = theta(mul(gen(a), gen(b)))
            rhs = mul(theta(gen(b)), theta(gen(a)))
            assert lhs == rhs, (a, b)

    def test_fixes_cartan(self):
        f = RationalFunction(H, H - 1)
        assert theta(UeaElement.coeff(f)) == UeaElement.coeff(f)


# The coefficient texts of the calc benchmark's requests.
_CALC_COEFFS = [parse_ratfunc(t) for t in ("1", "2", "3", "1/2", "(H + 1)", "(1/(H - 1))", "((H^2 - 2)/(H + 3))")]


def _random_elements(algebra: str, n: int = 12) -> list:
    """n seeded elements of U or Z, each a sum of one to three terms: a calc
    coefficient and sign times a word of at most four letters (three in Z)."""
    rng = random.Random(f"theta/{algebra}")
    size, cap, fn, cls = (9, 4, straighten, UeaElement) if algebra == "u" else (5, 3, z_straighten, ZElement)
    out = []
    for _ in range(n):
        e = cls.zero()
        for _ in range(rng.randint(1, 3)):
            letters = [rng.randrange(size) for _ in range(rng.randint(0, cap))]
            e = e + fn([rng.choice(_CALC_COEFFS)] + letters, rng.choice((1, -1)))
        out.append(e)
    return out


def _theta_reference(u: UeaElement) -> UeaElement:
    """theta term by term as the anti-automorphism reads: the letters'
    images in reverse order, then the coefficient, straightened."""
    total = UeaElement.zero()
    for m, c in u:
        images = [_THETA_IMAGE[g] for g in reversed(m.letters())]
        total = total + straighten([img for img, _ in images] + [c], math.prod(s for _, s in images))
    return total


# algebra -> (theta, product, reference)
_THETAS = {
    "u": (theta, mul, _theta_reference),
    "z": (z_theta, z_multiply, lambda z: tilde_to_z(_theta_reference(z_to_tilde(z)))),
}


def _theta_failures(algebra: str, elements: list) -> set[str]:
    """The checks that theta of `algebra` fails on the elements and on the
    products of neighbours among them."""
    th, product, reference = _THETAS[algebra]
    failed = set()
    for u, v in zip(elements, elements[1:]):
        if th(th(u)) != u:
            failed.add("involution")
        if th(product(u, v)) != product(th(v), th(u)):
            failed.add("anti-multiplicative")
        if th(u) != reference(u):
            failed.add("reference")
    return failed


class TestThetaOnRandomElements:
    @pytest.mark.parametrize("algebra", ["u", "z"])
    def test_involutive_anti_multiplicative_and_the_reference(self, algebra):
        assert _theta_failures(algebra, _random_elements(algebra)) == set()

    @pytest.mark.parametrize(
        "algebra, g", [("u", g) for g in ALL_GENS] + [("z", g) for g in TILDE_GENS]
    )
    def test_a_flipped_letter_sign_fails(self, algebra, g, monkeypatch):
        # z_theta is theta on the tilde letters; theta with one letter's sign
        # flipped is no longer an anti-automorphism
        elements = _random_elements(algebra)
        monkeypatch.setattr(uea, "_THETA_NEGATED", tuple(sorted({*uea._THETA_NEGATED} ^ {g})))
        assert {"anti-multiplicative", "reference"} <= _theta_failures(algebra, elements)


class TestAddScaled:
    def test_a_cancelled_key_is_removed(self):
        m, n = Word.from_letters([TH]), Word.from_letters([T1])
        out = {m: as_rf(2), n: RationalFunction(1, H)}
        add_scaled(out, as_rf(-2), [(m, RF_ONE), (n, as_rf(3))])
        assert out == {n: RationalFunction(1, H) - 6}
        add_scaled(out, RationalFunction(1, H), [(n, as_rf(6 * H - 1))])
        assert out == {}

    def test_a_zero_scalar_adds_nothing(self):
        m = Word.from_letters([TH])
        out = {m: as_rf(2)}
        add_scaled(out, as_rf(0), [(m, as_rf(-2)), (Word.from_letters([T1]), RF_ONE)])
        assert out == {m: as_rf(2)}
