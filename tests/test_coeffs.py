"""Tests for the exact coefficient field Q(H).

Identities are cross-checked against an independent oracle: evaluation
at rational sample points chosen away from every pole.
"""

import itertools
import operator
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospz.coeffs import (
    RF_ONE,
    RF_ZERO,
    H,
    PoleEvaluationError,
    Polynomial,
    RationalFunction,
    as_rf,
    poly_gcd,
)
from ospz import coeffs, projector, uea, zalgebra
from ospz.text import parse_element, parse_ratfunc

# Sample points that avoid the integer lattice, where localized
# denominators may vanish.
SAMPLES = [Fraction(1, 3), Fraction(-5, 2), Fraction(17, 7), Fraction(-31, 9)]


def small_polys():
    coeff = st.integers(min_value=-6, max_value=6)
    return st.lists(coeff, min_size=1, max_size=4).map(
        lambda cs: Polynomial({i: c for i, c in enumerate(cs)})
    )


def fraction_polys(min_size=1):
    """Polynomials with fractional coefficients, leading one included."""
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    return st.lists(coeff, min_size=min_size, max_size=5).map(
        lambda cs: Polynomial(dict(enumerate(cs)))
    )


nonzero_polys = fraction_polys().filter(bool)


def small_rfs():
    nonzero = small_polys().filter(lambda p: bool(p.coeffs))
    return st.builds(RationalFunction, small_polys(), nonzero)


def rf_eval(f, x):
    return f.eval(x)


def int_polys(max_size=5, height=10**12):
    return st.lists(st.integers(-height, height), min_size=1, max_size=max_size).map(
        lambda cs: Polynomial(dict(enumerate(cs)))
    )


# Denominators that split into integer roots, and ones that keep a residual:
# no integer root (H^2 + 1, 2H - 1) or one beyond the constructor's root search
# (H - 5000), which a shift of 1/H still lists as a root.
DENOMS = [H - 1, (H + 2) ** 2, H * (H - 3), H * H + 1, 2 * H - 1, H - 100, H - 5000]


def mixed_rfs():
    built = st.builds(RationalFunction, small_polys(), st.sampled_from(DENOMS))
    shifted = st.builds(
        lambda n, k: RationalFunction(n, H).shift(k), small_polys(), st.sampled_from([-5000, -100, 3])
    )
    return st.one_of(built, shifted)


small_fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


class TestPolynomial:
    def test_arithmetic_matches_evaluation(self):
        p = H * H - 3 * H + 2
        q = 2 * H + 5
        for x in SAMPLES:
            assert (p + q).eval(x) == p.eval(x) + q.eval(x)
            assert (p * q).eval(x) == p.eval(x) * q.eval(x)
            assert (p - q).eval(x) == p.eval(x) - q.eval(x)

    def test_shift_is_substitution(self):
        p = H * H * H - 7 * H + 1
        for k in (-3, -1, 1, 2, 5):
            for x in SAMPLES:
                assert p.shift(k).eval(x) == p.eval(x + k)

    def test_degree_and_zero(self):
        assert not Polynomial()
        assert (H * H).degree == 2

    def test_float_coefficients_are_rejected(self):
        with pytest.raises(TypeError):
            Polynomial({0: 0.1})
        with pytest.raises(TypeError):
            Polynomial.const(0.5)

    @given(fraction_polys(0), nonzero_polys)
    @settings(max_examples=150, deadline=None)
    def test_divmod_is_euclidean_division(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert a // b == q and a % b == r

    def test_division_by_a_non_monic_fractional_divisor(self):
        a = H**3 + 2 * H + Fraction(1, 3)
        b = Fraction(-2, 3) * H**2 + Fraction(5, 7)
        q, r = divmod(a, b)
        assert q == Fraction(-3, 2) * H
        assert r == Fraction(43, 14) * H + Fraction(1, 3)
        with pytest.raises(ZeroDivisionError):
            divmod(a, Polynomial())

    @given(fraction_polys(0), fraction_polys(0), fraction_polys(0))
    @settings(max_examples=150, deadline=None)
    def test_gcd_is_monic_and_divides_both(self, a, b, c):
        a, b = a * c, b * c
        g = poly_gcd(a, b)
        if not (a or b):
            assert not g
            return
        assert g.lead == 1
        assert a % g == 0 and b % g == 0
        if c:
            assert g % c == 0  # c divides both, so it divides the greatest divisor

    @given(int_polys(), int_polys(), int_polys(max_size=4, height=9))
    @settings(max_examples=150, deadline=None)
    def test_certified_gcd_equals_the_prs_gcd(self, a, b, c):
        # coprime pairs take the modular certificate, a planted factor the
        # PRS; with the certificate refused every pair takes the PRS
        for x, y in ((a, b), (a * c, b * c)):
            with mock.patch.object(coeffs, "_coprime_mod_p", lambda a, b: False):
                prs = poly_gcd(x, y)
            assert poly_gcd(x, y) == prs

    def test_no_certificate_when_the_prime_divides_a_leading_coefficient(self):
        assert not coeffs._coprime_mod_p((1, coeffs._CERT_PRIME), (2, 1))  # p*H + 1 and H + 2

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_str_matches_a_fraction_reference(self, den, a):
        # the integer form (1/den) * sum a[d] H^d, printed term by term with
        # Fraction magnitudes
        p = Polynomial({d: Fraction(n, den) for d, n in enumerate(a)})
        parts = []
        for d, c in sorted(p.coeffs.items(), reverse=True):
            mag = abs(c)
            var = "H" if d == 1 else f"H^{d}"
            body = str(mag) if d == 0 else var if mag == 1 else f"{mag}*{var}"
            if parts:
                body = f"{'+' if c > 0 else '-'} {body}"
            elif c < 0:
                body = f"-{body}"
            parts.append(body)
        assert str(p) == (" ".join(parts) or "0")

    def test_sum_of_large_coprime_powers_is_fast(self):
        x = "((123456789*H^2+3*H+7)/(987654321*H^2+5*H+11))^32"
        t0 = time.perf_counter()
        total = parse_ratfunc(x + "+" + x)
        elapsed = time.perf_counter() - t0
        assert total == 2 * parse_ratfunc(x)
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


class TestRationalFunction:
    @given(small_rfs(), small_rfs())
    @settings(max_examples=60, deadline=None)
    def test_addition_matches_evaluation(self, f, g):
        total = f + g
        for x in SAMPLES:
            try:
                expected = rf_eval(f, x) + rf_eval(g, x)
            except (ZeroDivisionError, PoleEvaluationError):
                continue
            assert rf_eval(total, x) == expected

    @given(small_rfs(), small_rfs())
    @settings(max_examples=60, deadline=None)
    def test_multiplication_matches_evaluation(self, f, g):
        prod = f * g
        for x in SAMPLES:
            try:
                expected = rf_eval(f, x) * rf_eval(g, x)
            except (ZeroDivisionError, PoleEvaluationError):
                continue
            assert rf_eval(prod, x) == expected

    @given(small_rfs())
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, f):
        one = as_rf(1)
        zero = as_rf(0)
        assert f + zero == f
        assert f * one == f
        assert f - f == zero
        if f != zero:
            assert f * (one / f) == one

    @given(small_rfs(), st.integers(min_value=-4, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_shift_composition(self, f, k):
        assert f.shift(k).shift(-k) == f
        for x in SAMPLES:
            try:
                expected = rf_eval(f, x + k)
            except (ZeroDivisionError, PoleEvaluationError):
                continue
            assert rf_eval(f.shift(k), x) == expected

    @given(st.one_of(small_rfs(), st.builds(RationalFunction, fraction_polys(0), nonzero_polys)))
    @settings(max_examples=100, deadline=None)
    def test_rendering_parses_back(self, f):
        assert parse_ratfunc(str(f)) == f

    def test_canonical_form_is_reduced(self):
        f = RationalFunction((H - 1) * (H - 2), (H - 1) * (H + 3))
        g = RationalFunction(H - 2, H + 3)
        assert f == g
        assert str(f) == str(g)

    @given(mixed_rfs(), mixed_rfs(), st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_split_is_canonical(self, f, g, k):
        values = [f, g, f + g, f - g, f * g, -f, f.shift(k)] + ([f / g] if g else [])
        for r in values:
            assert r.den.lead == 1
            assert poly_gcd(r.num, r.den) == 1
            back = parse_ratfunc(str(r))
            assert back == r and str(back) == str(r)
            assert r.shift(k).shift(-k) == r
            for x in SAMPLES:
                if r.den.eval(x):  # a shifted 2H - 1 may vanish at one
                    assert back.eval(x) == r.eval(x) == r.num.eval(x) / r.den.eval(x)
            for root, _ in r.roots:
                with pytest.raises(PoleEvaluationError):
                    r.eval(root)
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b)

    def test_a_constant_is_its_own_shift(self):
        for c in (RF_ONE, RF_ZERO, as_rf(Fraction(-3, 4)), Polynomial.const(7)):
            for k in (-2, 1, 5):
                assert c.shift(k) is c
        assert RationalFunction(1, H - 1).shift(1) == RationalFunction(1, H)
        assert H.shift(2) == H + 2
        q = Fraction(-3, 4)
        assert coeffs._rational(q) is q

    def test_two_splits_of_one_denominator_are_equal(self):
        built = RationalFunction(1, H - 5000)  # the root lies beyond the search
        shifted = RationalFunction(1, H).shift(-5000)
        assert built.rest == H - 5000 and shifted.roots == ((5000, 1),)
        assert built == shifted and hash(built) == hash(shifted)
        assert str(built) == str(shifted) == "1/(H - 5000)"
        assert RationalFunction(1, H - 100).roots == ((100, 1),)

    def test_oracle_product_runs_no_gcd(self, monkeypatch):
        calls = []
        real = coeffs.poly_gcd
        monkeypatch.setattr(coeffs, "poly_gcd", lambda a, b: calls.append((a, b)) or real(a, b))
        for step in (
            zalgebra._oracle_fold,
            zalgebra._z_mono_tilde,
            projector._diamond_mono,
            projector._lower_chain,
            projector._raise_chain,
            uea._word_times_gen,
            uea._word_times_word,
        ):
            step.cache_clear()
        left, right = parse_element("E(2)", "z"), parse_element("E(-2) E(-1)", "z")
        calls.clear()
        assert zalgebra.z_oracle_multiply(left, right)
        assert calls == []

    def test_the_engines_multiply_by_no_one_and_add_no_zero(self, monkeypatch):
        # from cold caches: the engines' call sites skip identity operations
        identities = []

        def watch(real, is_identity):
            def op(a, b):
                caller = sys._getframe(1).f_globals["__name__"]
                outside = caller != "ospz.coeffs" and isinstance(b, RationalFunction)
                if outside and (is_identity(a) or is_identity(b)):
                    identities.append((caller, real.__name__, str(a), str(b)))
                return real(a, b)

            return op

        mul, add = RationalFunction.__mul__, RationalFunction.__add__
        monkeypatch.setattr(RationalFunction, "__mul__", watch(mul, RationalFunction.is_one))
        monkeypatch.setattr(RationalFunction, "__add__", watch(add, lambda f: not f))
        for step in (
            zalgebra._oracle_fold,
            zalgebra._z_mono_tilde,
            zalgebra._z_mono_times_gen,
            projector._diamond_mono,
            projector._lower_chain,
            projector._raise_chain,
            uea._word_times_gen,
            uea._word_times_word,
        ):
            step.cache_clear()
        left, right = parse_element("E(2) E(0)", "z"), parse_element("(1/(H - 1)) E(-2) E(-1)", "z")
        assert zalgebra.z_oracle_multiply(left, right) == zalgebra.z_multiply(left, right)
        assert zalgebra.z_theta(left) and uea.theta(parse_element("X(1) t(-1) th", "u"))
        assert identities == []

    def test_integer_powers(self):
        f = RationalFunction(H + 1, H - 2)
        assert f**0 == 1
        assert f**-2 == 1 / (f * f)
        for x in SAMPLES:
            assert (f**-2).eval(x) == ((x - 2) / (x + 1)) ** 2

    def test_pole_evaluation_raises(self):
        f = RationalFunction(1, H - 1)
        with pytest.raises(PoleEvaluationError):
            f.eval(1)

    def test_projector_coefficient_identity(self):
        # 2 phi_2(H) - 2 phi_1(H) phi_1(H-1) = -2/(H-2) where
        # phi_1 = phi_2 = -1/(H-1).
        phi1 = RationalFunction(-1, H - 1)
        phi2 = RationalFunction(-1, H - 1)
        lhs = as_rf(2) * phi2 - as_rf(2) * phi1 * phi1.shift(-1)
        rhs = RationalFunction(-2, H - 2)
        assert lhs == rhs
        for x in SAMPLES:
            assert lhs.eval(x) == Fraction(-2, 1) / (x - 2)


class TestMixedOperands:
    """Polynomial operators return NotImplemented for an operand they cannot
    coerce, so a RationalFunction on the right takes over."""

    def test_polynomial_then_rational_function(self):
        f = RationalFunction(1, H)
        assert H + f == f + H == RationalFunction(H * H + 1, H)
        assert H - f == -(f - H) == RationalFunction(H * H - 1, H)
        assert H * f == f * H == 1

    @given(small_polys(), mixed_rfs())
    @settings(max_examples=100, deadline=None)
    def test_every_operator_matches_its_reflected_form(self, p, f):
        assert p + f == f + p and p - f == -(f - p) and p * f == f * p
        assert type(p + f) is type(p - f) is type(p * f) is RationalFunction

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_other_operands_still_raise(self, op):
        for bad in (1.5, "x"):
            with pytest.raises(TypeError):
                op(H, bad)
            with pytest.raises(TypeError):
                op(bad, H)
        with pytest.raises(TypeError):
            divmod(H, RationalFunction(1, H))


@pytest.mark.parametrize("x", [0, 1, -3, 2**70, Fraction(3, 2), Fraction(-7, 5)])
def test_equal_scalars_hash_equal(x):
    # eq and hash agree across the scalar types and the int or Fraction value
    values = [Polynomial.const(x), as_rf(x), RationalFunction(x), RationalFunction(2 * x, 2)]
    for value in values:
        assert value == x and hash(value) == hash(x)
    assert len({x, *values}) == 1
    f = RationalFunction(x * H * H - 1)
    assert f == x * H * H - 1 and hash(f) == hash(x * H * H - 1)


@pytest.mark.parametrize("x", [0, 2, Fraction(-7, 5)])
def test_equal_constants_are_one_set_element_in_any_order(x):
    # equality is transitive across the scalar types: an int or Fraction
    # equals the Polynomial and RationalFunction constants of the same value
    values = [x, Polynomial.const(x), as_rf(x)]
    for order in itertools.permutations(values):
        assert len(set(order)) == 1
    assert all(a == b and not a != b for a in values for b in values)


# Fast paths of RationalFunction arithmetic, each against the general
# constructor RationalFunction(num, den), which runs poly_gcd.
def same(r: RationalFunction, num, den) -> bool:
    general = RationalFunction(num, den)
    return r == general and str(r) == str(general) and hash(r) == hash(general)


class TestFastPaths:
    @given(nonzero_polys, st.sampled_from(DENOMS), small_fractions)
    @settings(max_examples=200, deadline=None)
    def test_constant_times_a_fraction(self, num, den, c):
        f, k = RationalFunction(num, den), as_rf(c)
        assert same(k * f, c * num, den) and same(f * k, c * num, den)
        assert same(c * f, c * num, den) and same(f * c, c * num, den)
        assert same(RF_ONE * f, num, den) and same(f * RF_ONE, num, den)
        assert same(-f, -num, den) and same(f * -1, -num, den) and same(-1 * f, -num, den)
        assert (RF_ZERO * f) is RF_ZERO and (f * 0) is RF_ZERO and not RF_ZERO * f
        assert (-num)._form == Polynomial({d: -x for d, x in num.coeffs.items()})._form

    @given(fraction_polys(), fraction_polys().filter(bool), st.integers(-6, 6), st.integers(1, 3),
           st.sampled_from([Polynomial.const(1), H * H + 1, 2 * H - 1, H - 5000]))
    @settings(max_examples=200, deadline=None)
    def test_cancellation_at_a_listed_root(self, n1, n2, k, m, rest):
        # (H - k)^m in one denominator meets H - k in the other numerator
        d1 = (H - k) ** m * rest
        f, g = RationalFunction(n1, d1), RationalFunction((H - k) * n2, H + 7)
        assert same(f * g, n1 * (H - k) * n2, d1 * (H + 7)) and same(g * f, n1 * (H - k) * n2, d1 * (H + 7))
        assert same(f + g, n1 * (H + 7) + (H - k) * n2 * d1, d1 * (H + 7))
        assert same(f * (H - k) ** m, n1, rest) and same(f.shift(k), n1.shift(k), H**m * rest.shift(k))

    @given(small_polys(), small_polys(), st.sampled_from(DENOMS), st.sampled_from(DENOMS))
    @settings(max_examples=150, deadline=None)
    def test_products_and_sums_of_mixed_denominators(self, n1, n2, d1, d2):
        f, g = RationalFunction(n1, d1), RationalFunction(n2, d2)
        assert same(f * g, n1 * n2, d1 * d2) and same(f + g, n1 * d2 + n2 * d1, d1 * d2)
        assert bool(f) == bool(n1) and same(f - f, 0, 1)

    @given(fraction_polys(0), small_fractions)
    @settings(max_examples=150, deadline=None)
    def test_evaluation_matches_a_fraction_horner(self, p, x):
        acc = Fraction(0)
        for d in range(p.degree, -1, -1):
            acc = acc * x + p.coeffs.get(d, 0)
        assert p.eval(x) == acc and type(p.eval(x)) is Fraction


# A root both summands of a split sum have, and split denominators around it
# (roots 1, -2, 0 and 3, none of them shared).
SHARED = (-1, 2, 5)
AROUND = [Polynomial.const(1), H - 1, (H + 2) ** 2, H * (H - 3)]


def split_sum(f, g, expected=None):
    """Check f + g and g + f against the constructor's canonical form of
    n1 d2 + n2 d1 over d1 d2, against `expected` and at SAMPLES."""
    general = f.num * g.den + g.num * f.den, f.den * g.den
    for total in (f + g, g + f):
        assert same(total, *general)
        assert expected is None or total == expected
        for x in SAMPLES:
            assert total.eval(x) == f.eval(x) + g.eval(x)
    return f + g


class TestSplitSums:
    # A sum of split fractions tests for cancellation only at the roots of
    # equal multiplicity in both summands.

    @given(small_polys(), small_polys(), st.integers(1, 6), st.sampled_from(SHARED), st.integers(1, 3),
           st.integers(1, 4), st.sampled_from(AROUND), st.sampled_from(AROUND), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equal_multiplicity_cancels_partly_fully_or_to_zero(self, p, c, a0, k, m, t, e1, e2, zero):
        # f + g = c (H - k)^t / ((H - k)^m e1 e2): t < m leaves part of
        # (H - k)^m, t >= m none of it, and c = 0 leaves zero
        c = 0 * c if zero else c
        d, a = (H - k) ** m, p * (H - k) + a0
        f = RationalFunction(a, d * e1)
        g = RationalFunction(c * (H - k) ** t - a * e2, d * e1 * e2)
        assert dict(f.roots)[k] == dict(g.roots)[k] == m
        total = split_sum(f, g, RationalFunction(c * (H - k) ** t, d * e1 * e2))
        assert dict(total.roots).get(k, 0) <= max(m - t, 0) and bool(total) == bool(c)

    @given(small_polys(), small_polys(), st.integers(1, 6), st.integers(-6, -1), st.sampled_from(SHARED),
           st.integers(0, 3), st.integers(1, 3), st.sampled_from(AROUND), st.sampled_from(AROUND))
    @settings(max_examples=150, deadline=None)
    def test_unequal_multiplicity_never_cancels(self, p, q, a0, b0, k, m, extra, e1, e2):
        # both numerators are nonzero at k, where the denominators' powers differ
        f = RationalFunction(p * (H - k) + a0, (H - k) ** m * e1)
        g = RationalFunction(q * (H - k) + b0, (H - k) ** (m + extra) * e2)
        assert dict(split_sum(f, g).roots)[k] == m + extra
