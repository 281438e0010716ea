"""Tests for the extremal-projector coefficients and the diamond product."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospz.coeffs import H, RationalFunction, as_rf
from ospz.engine import bilinear
from ospz.uea import (
    T1,
    T2,
    TH,
    TILDE_GENS,
    TN1,
    TN2,
    UeaElement,
    Word,
    X1,
    X2,
    XN1,
    XN2,
    mul,
    straighten,
    super_bracket,
)
from ospz import verify
from ospz.projector import (
    _diamond_mono,
    _lower_chain,
    _raise_chain,
    diamond,
    kappa,
    phi,
    projected_generator,
)
from ospz.zalgebra import tilde_word


def gen(g):
    return UeaElement.gen(g)


class TestPhiTable:
    def test_closed_forms(self):
        assert phi(0) == as_rf(1)
        assert phi(1) == RationalFunction(-1, H - 1)
        assert phi(2) == RationalFunction(-1, H - 1)
        assert phi(3) == RationalFunction(1, (H - 2) * (H - 1))
        assert phi(4) == phi(3) * as_rf(1) / as_rf(2)

    def test_kappa_closed_form(self):
        # even n: n/2; odd n: H - (n-1)/2
        assert kappa(2) == 1
        assert kappa(4) == 2
        assert kappa(1) == H
        assert kappa(3) == H - 1
        assert kappa(5) == H - 2

    def test_kappa_against_bracket_oracle(self):
        power = UeaElement.one()
        for n in range(1, 11):
            power = mul(power, gen(XN1))
            prev = UeaElement.one()
            for _ in range(n - 1):
                prev = mul(prev, gen(XN1))
            bracket = super_bracket(gen(X1), power)
            expected = mul(
                UeaElement.coeff(RationalFunction(kappa(n))), prev
            )
            assert bracket == expected, n

    def test_recursion(self):
        # (-1)^n phi_n(H+1) + phi_{n+1}(H+1) kappa_{n+1}(H) = 0
        for n in range(10):
            lhs = (-1) ** n * phi(n).shift(1) + phi(n + 1).shift(1) * as_rf(kappa(n + 1))
            assert not lhs, n
        rows = [c for c in verify.verify_projector(10)["checks"] if c["name"].startswith("recursion")]
        assert [c["name"] for c in rows] == [f"recursion at n={n}" for n in range(10)]
        assert all(c["pass"] for c in rows)


class TestDiamond:
    def test_well_defined_left_perturbation(self):
        # The left factor is a class modulo the left ideal generated by
        # the lowering operators; perturbing by X(-1) * m cannot change
        # the product.
        rng = random.Random(3)
        for _ in range(15):
            u = gen(rng.choice(TILDE_GENS))
            v = gen(rng.choice(TILDE_GENS))
            m = straighten([rng.choice(TILDE_GENS)])
            perturbed = u + mul(gen(XN1), m)
            assert diamond(perturbed, v) == diamond(u, v)

    def test_well_defined_right_perturbation(self):
        rng = random.Random(4)
        for _ in range(15):
            u = gen(rng.choice(TILDE_GENS))
            v = gen(rng.choice(TILDE_GENS))
            m = straighten([rng.choice(TILDE_GENS)])
            perturbed = v + mul(m, gen(X1))
            assert diamond(u, perturbed) == diamond(u, v)

    def test_associative_on_all_generator_triples(self):
        for a, b, c in itertools.product(TILDE_GENS, repeat=3):
            u, v, w = gen(a), gen(b), gen(c)
            assert diamond(diamond(u, v), w) == diamond(u, diamond(v, w)), (
                a,
                b,
                c,
            )

    @pytest.mark.parametrize("g", TILDE_GENS)
    def test_lowering_chain_stops_where_the_raising_chain_does(self, g):
        mu = tilde_word((1, 0, 1, 0, 1))  # t(-2) th t(2)
        for cache in (_lower_chain, _raise_chain, _diamond_mono):
            cache.cache_clear()
        diamond(UeaElement.monomial(mu), gen(g))
        expected = {TN2: 5, TN1: 4, TH: 3, T1: 2, T2: 1}[g]
        word = Word.from_letters([g])
        assert sum(1 for n in range(9) if _raise_chain(word, n)) == expected
        assert _lower_chain.cache_info().currsize == expected

    def test_lowering_terms_are_homogeneous_in_the_root_sum(self):
        # every monomial of the n-th lowering term has root sum
        # root_sum(mu) - n, so _diamond_mono scales the term by one phi_n shift
        rng = random.Random(7)
        words = [Word.from_letters(rng.choices(range(9), k=rng.randint(0, 6))) for _ in range(300)]
        for mu in words:
            n, term = 0, _lower_chain(mu, 0)
            while term:
                assert {m.root_sum() for m, _ in term} == {mu.root_sum() - n}, (mu, n)
                n += 1
                term = _lower_chain(mu, n)

    def test_bilinear_with_coefficient_shift(self):
        f = RationalFunction(1, H - 1)
        u = gen(T1)
        v = gen(TN1)
        lhs = diamond(mul(UeaElement.coeff(f), u), v)
        rhs = mul(UeaElement.coeff(f), diamond(u, v))
        assert lhs == rhs


def _exact_chain(word, bracket):
    u, chain = UeaElement.monomial(word), []
    while u:
        chain.append(u)
        u = bracket(u)
    return chain


def _exact_diamond_mono(mu, mv):
    lefts = _exact_chain(mu, lambda u: super_bracket(u, gen(XN1)))
    rights = _exact_chain(mv, lambda v: super_bracket(gen(X1), v))
    total = UeaElement.zero()
    for n in range(min(len(lefts), len(rights))):
        mid = UeaElement.coeff(phi(n).shift(n))
        total = total + mul(mul(lefts[n], mid), rights[n])
    return total.mod_ii()


def exact_diamond(u, v):
    """Reference: the diamond formula in U itself -- exact bracket chains,
    full products, and only then the reduction modulo II."""
    return UeaElement(bilinear(u, v, _exact_diamond_mono))


# The 19 tilde monomials of degree at most 2.
TILDE_MONOS = [
    tilde_word(e)
    for e in itertools.product(range(3), range(2), range(3), range(2), range(3))
    if sum(e) <= 2
]
NON_TILDE = {
    "X(-1) t(1)": straighten([XN1, T1]),
    "X(1) t(1)": straighten([X1, T1]),
    "t(-1) X(1)": straighten([TN1, X1]),
}


class TestQuotientDiamond:
    """`diamond` works modulo g_-U, U g_+ and II from the start; it must
    agree with the exact formula that reduces only at the end."""

    def test_tilde_monomials_up_to_degree_two(self):
        assert len(TILDE_MONOS) == 19
        for mu, mv in itertools.product(TILDE_MONOS, repeat=2):
            u, v = UeaElement.monomial(mu), UeaElement.monomial(mv)
            assert diamond(u, v) == exact_diamond(u, v), (mu, mv)

    @pytest.mark.parametrize("name", sorted(NON_TILDE))
    def test_non_tilde_representatives(self, name):
        rep = NON_TILDE[name]
        others = [UeaElement.monomial(m) for m in TILDE_MONOS] + list(NON_TILDE.values())
        for other in others:
            assert diamond(rep, other) == exact_diamond(rep, other), other
            assert diamond(other, rep) == exact_diamond(other, rep), other


_IDEAL_LETTERS = {"left": (XN2, XN1), "right": (X1, X2), "both": (XN2, XN1, X1, X2)}
_ITEMS = st.one_of(st.sampled_from(range(9)), st.just(H + 1))
_TERMS = st.lists(st.tuples(st.integers(-3, 3), st.lists(_ITEMS, max_size=4)), min_size=1, max_size=3)


@given(_TERMS, _TERMS)
@settings(max_examples=60, deadline=None)
def test_quotient_mul_drops_exactly_the_ideal(us, vs):
    # g_-U is spanned by the PBW monomials with a lowering letter, U g_+ by
    # those with a raising letter, II by those with a diagonal letter.
    u, v = (sum((straighten(items, c) for c, items in terms), UeaElement.zero()) for terms in (us, vs))
    full = mul(u, v)
    for q, letters in _IDEAL_LETTERS.items():
        kept = {m: c for m, c in full.terms.items() if not any(m[g] for g in letters)}
        assert mul(u, v, q) == UeaElement(kept), q


class TestProjectedGenerators:
    """The five explicit representatives P(tilde generator) mod I."""

    def _expected(self, spec):
        total = UeaElement.zero()
        for coeff, lower_power, tilde in spec:
            term = UeaElement.coeff(coeff)
            for _ in range(lower_power):
                term = mul(term, gen(XN1))
            term = mul(term, gen(tilde))
            total = total + term
        return total

    def test_raising_generator_is_fixed(self):
        assert projected_generator(T2) == gen(T2)

    def test_odd_raising_generator(self):
        expected = self._expected(
            [(as_rf(1), 0, T1), (as_rf(-2) * phi(1), 1, T2)]
        )
        assert projected_generator(T1) == expected

    def test_cartan_partner(self):
        expected = self._expected(
            [
                (as_rf(1), 0, TH),
                (phi(1), 1, T1),
                (as_rf(-2) * phi(2), 2, T2),
            ]
        )
        assert projected_generator(TH) == expected

    def test_odd_lowering_generator(self):
        expected = self._expected(
            [
                (as_rf(1), 0, TN1),
                (phi(1), 1, TH),
                (phi(2), 2, T1),
                (as_rf(-2) * phi(3), 3, T2),
            ]
        )
        assert projected_generator(TN1) == expected

    def test_even_lowering_generator(self):
        expected = self._expected(
            [
                (as_rf(1), 0, TN2),
                (phi(1), 1, TN1),
                (phi(2), 2, TH),
                (phi(3), 3, T1),
                (as_rf(-2) * phi(4), 4, T2),
            ]
        )
        assert projected_generator(TN2) == expected


class TestLemmaTables:
    def test_check_names_and_order(self):
        plain = [
            pair
            for g in ("t(-2)", "t(-1)", "th", "t(1)", "t(2)")
            for pair in ((g, "t(2)"), ("t(-2)", g))
        ]
        corrected = [
            ("t(1)", "t(1)"),
            ("th", "t(1)"),
            ("t(-1)", "t(1)"),
            ("th", "th"),
            ("t(-1)", "th"),
            ("t(-1)", "t(-1)"),
        ]
        expected = (
            [f"{a} <> {b} is the plain product" for a, b in plain]
            + [f"{a} <> {b}" for a, b in corrected]
            + [f"inversion: {a} {b}" for a, b in plain + corrected]
        )
        report = verify.verify_lemmas()
        assert [c["name"] for c in report["checks"]] == expected
        assert report["passed"]

    def test_a_wrong_phi_2_fails_exactly_the_rows_that_use_it(self, monkeypatch):
        monkeypatch.setattr(verify, "phi", lambda n: phi(n) + 1 if n == 2 else phi(n))
        report = verify.verify_lemmas()
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["th <> th", "inversion: th th"]
