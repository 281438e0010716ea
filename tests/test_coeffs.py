"""Tests for the exact coefficient field Q(H).

Identities are cross-checked against an independent oracle: evaluation
at rational sample points chosen away from every pole.
"""

import itertools
import operator
import sys
import time
from fractions import Fraction
from math import comb, gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospz.coeffs import (
    RF_ONE,
    RF_ZERO,
    H,
    PoleEvaluationError,
    RationalFunction,
    as_rf,
    form_add,
    form_div,
    form_eval,
    form_monic,
    form_mul,
    form_pow,
    form_shift,
    form_size,
    form_text,
    poly_gcd,
)
from ospz import coeffs, projector, uea, zalgebra
from ospz.text import parse_element, parse_ratfunc

# Sample points that avoid the integer lattice, where localized
# denominators may vanish.
SAMPLES = [Fraction(1, 3), Fraction(-5, 2), Fraction(17, 7), Fraction(-31, 9)]


# A polynomial's model is the plain dict {degree: nonzero Fraction}.
def form(model: dict) -> tuple:
    """The integer form (den, a) of the polynomial sum c H^d over the items
    (d, c) of model: den the lcm of the denominators, so with content 1."""
    model = {d: Fraction(c) for d, c in model.items() if c}
    den = lcm(*(c.denominator for c in model.values()))
    a = [0] * (max(model, default=-1) + 1)
    for d, c in model.items():
        a[d] = int(c * den)
    return den, tuple(a)


def model(f: tuple) -> dict:
    """The model of the form f, which must be canonical."""
    den, a = f
    assert den > 0 and (not a or a[-1]) and gcd(den, *a) == 1, f
    return {d: Fraction(n, den) for d, n in enumerate(a) if n}


def rf(f: tuple) -> RationalFunction:
    """The polynomial of form f, as a RationalFunction."""
    return coeffs._make(f)


def small_polys():
    coeff = st.integers(min_value=-6, max_value=6)
    return st.lists(coeff, min_size=1, max_size=4).map(lambda cs: rf(form(dict(enumerate(cs)))))


def fraction_models(min_size=1):
    """Models with fractional coefficients, leading one included."""
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    return st.lists(coeff, min_size=min_size, max_size=5).map(lambda cs: dict(enumerate(cs)))


def fraction_polys(min_size=1):
    return fraction_models(min_size).map(lambda m: rf(form(m)))


nonzero_polys = fraction_polys().filter(bool)


def small_rfs():
    return st.builds(RationalFunction, small_polys(), small_polys().filter(bool))


def rf_eval(f, x):
    return f.eval(x)


def int_forms(max_size=5, height=10**12):
    return st.lists(st.integers(-height, height), min_size=1, max_size=max_size).map(
        lambda cs: form(dict(enumerate(cs)))
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


def model_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for d, c in p.items():
        for e, b in q.items():
            out[d + e] = out.get(d + e, 0) + c * b
    return {d: c for d, c in out.items() if c}


def model_text(p: dict) -> str:
    """p printed term by term with Fraction magnitudes."""
    parts = []
    for d, c in sorted(p.items(), reverse=True):
        mag = abs(c)
        var = "H" if d == 1 else f"H^{d}"
        body = str(mag) if d == 0 else var if mag == 1 else f"{mag}*{var}"
        if parts:
            body = f"{'+' if c > 0 else '-'} {body}"
        elif c < 0:
            body = f"-{body}"
        parts.append(body)
    return " ".join(parts) or "0"


class TestPolynomial:
    """Polynomial arithmetic on integer forms, the numerators and residuals
    of RationalFunction."""

    @given(fraction_models(0), fraction_models(0), st.integers(0, 3), st.integers(-6, 6), small_fractions)
    @settings(max_examples=200, deadline=None)
    def test_form_functions_match_a_fraction_model(self, p, q, n, k, x):
        p = {d: c for d, c in p.items() if c}
        q = {d: c for d, c in q.items() if c}
        fp, fq = form(p), form(q)
        assert model(form_add(fp, fq)) == {
            d: p.get(d, 0) + q.get(d, 0) for d in p.keys() | q.keys() if p.get(d, 0) + q.get(d, 0)
        }
        assert model(form_mul(fp, fq)) == model_mul(p, q)
        power = {0: Fraction(1)}
        for _ in range(n):
            power = model_mul(power, p)
        assert model(form_pow(fp, n)) == power
        shifted: dict = {}
        for d, c in p.items():
            for i in range(d + 1):
                shifted[i] = shifted.get(i, 0) + c * comb(d, i) * k ** (d - i)
        assert model(form_shift(fp, k)) == {d: c for d, c in shifted.items() if c}
        assert form_eval(fp, x) == sum(c * x**d for d, c in p.items()) and type(form_eval(fp, x)) is Fraction
        lead = p[max(p)] if p else 1
        assert model(form_monic(fp)) == {d: c / lead for d, c in p.items()}
        if q:
            assert model(form_div(form_mul(fp, fq), fq)) == p
        assert form_text(fp) == model_text(p)
        assert form_size(fp) == (max(p, default=-1), max([fp[0], *map(abs, fp[1])]))

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
        assert not RF_ZERO and RF_ZERO.num == (1, ()) and form_size(RF_ZERO.num)[0] == -1
        assert form_size((H * H).num)[0] == 2

    def test_float_coefficients_are_rejected(self):
        with pytest.raises(TypeError):
            RationalFunction(0.1)
        with pytest.raises(TypeError):
            as_rf(0.5)
        with pytest.raises(TypeError):
            form_eval(H.num, 0.5)

    def test_division_by_a_non_monic_fractional_divisor(self):
        a = H**3 + 2 * H + Fraction(1, 3)
        b = Fraction(-2, 3) * H**2 + Fraction(5, 7)
        assert form_div((a * b).num, b.num) == a.num
        assert form_div((Fraction(-3, 2) * H * b).num, b.num) == (Fraction(-3, 2) * H).num

    @given(fraction_models(0), fraction_models(0), fraction_models(0))
    @settings(max_examples=150, deadline=None)
    def test_gcd_is_monic_and_divides_both(self, a, b, c):
        a, b, c = form(a), form(b), form(c)
        a, b = form_mul(a, c), form_mul(b, c)
        g = poly_gcd(a, b)
        if not (a[1] or b[1]):
            assert not g[1]
            return
        assert g[1][-1] == g[0]
        assert form_mul(form_div(a, g), g) == a and form_mul(form_div(b, g), g) == b
        if c[1]:  # c divides both, so it divides the greatest divisor
            assert form_mul(form_div(g, c), c) == g

    @given(int_forms(), int_forms(), int_forms(max_size=4, height=9))
    @settings(max_examples=150, deadline=None)
    def test_certified_gcd_equals_the_prs_gcd(self, a, b, c):
        # coprime pairs take the modular certificate, a planted factor the
        # PRS; with the certificate refused every pair takes the PRS
        for x, y in ((a, b), (form_mul(a, c), form_mul(b, c))):
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
        # Fraction magnitudes, by form_text and as a RationalFunction
        p = {d: Fraction(n, den) for d, n in enumerate(a) if n}
        assert form_text(form(p)) == str(rf(form(p))) == model_text(p)

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

    @given(mixed_rfs(), mixed_rfs().filter(bool), small_fractions)
    @settings(max_examples=80, deadline=None)
    def test_constructor_takes_fractions_on_both_sides(self, f, g, c):
        for num, den in ((f, g), (c, g), (f, c or 1)):
            r = RationalFunction(num, den)
            assert r == as_rf(num) / den and str(r) == str(as_rf(num) / den)
            assert (r.rest is coeffs._ONE) == (form_size(r.rest)[0] == 0)

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
            assert r.den[1][-1] == r.den[0]
            assert poly_gcd(r.num, r.den) == (1, (1,))
            back = parse_ratfunc(str(r))
            assert back == r and str(back) == str(r)
            assert r.shift(k).shift(-k) == r
            for x in SAMPLES:
                if form_eval(r.den, x):  # a shifted 2H - 1 may vanish at one
                    assert back.eval(x) == r.eval(x) == form_eval(r.num, x) / form_eval(r.den, x)
            for root, _ in r.roots:
                with pytest.raises(PoleEvaluationError):
                    r.eval(root)
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b)

    def test_a_constant_is_its_own_shift(self):
        for c in (RF_ONE, RF_ZERO, as_rf(Fraction(-3, 4)), RationalFunction(7)):
            for k in (-2, 1, 5):
                assert c.shift(k) is c
        assert RationalFunction(1, H - 1).shift(1) == RationalFunction(1, H)
        assert H.shift(2) == H + 2
        q = Fraction(-3, 4)
        assert coeffs._rational(q) is q

    def test_two_splits_of_one_denominator_are_equal(self):
        built = RationalFunction(1, H - 5000)  # the root lies beyond the search
        shifted = RationalFunction(1, H).shift(-5000)
        assert built.rest == (H - 5000).num and shifted.roots == ((5000, 1),)
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
    """H and other polynomials are RationalFunctions, so every operator
    takes them on either side, with int and Fraction operands, and refuses
    any other type."""

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

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_other_operands_still_raise(self, op):
        for value, bad in itertools.product((H, RationalFunction(1, H)), (1.5, "x")):
            with pytest.raises(TypeError):
                op(value, bad)
            with pytest.raises(TypeError):
                op(bad, value)
        with pytest.raises(TypeError):
            divmod(H, RationalFunction(1, H))


@pytest.mark.parametrize("x", [0, 1, -3, 2**70, Fraction(3, 2), Fraction(-7, 5)])
def test_equal_scalars_hash_equal(x):
    # eq and hash agree between a constant and its int or Fraction value
    values = [as_rf(x), RationalFunction(x), RationalFunction(2 * x, 2)]
    for value in values:
        assert value == x and hash(value) == hash(x)
    assert len({x, *values}) == 1
    f = RationalFunction(x * H * H - 1)
    assert f == x * H * H - 1 and hash(f) == hash(x * H * H - 1)


@pytest.mark.parametrize("x", [0, 2, Fraction(-7, 5)])
def test_equal_constants_are_one_set_element_in_any_order(x):
    # equality is transitive: an int or Fraction equals the constants of the
    # same value, however they were built
    values = [x, as_rf(x), RationalFunction(2 * x, 2)]
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
        assert (-num).num == form({d: -x for d, x in model(num.num).items()})

    @given(fraction_polys(), fraction_polys().filter(bool), st.integers(-6, 6), st.integers(1, 3),
           st.sampled_from([RF_ONE, H * H + 1, 2 * H - 1, H - 5000]))
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

    @given(fraction_models(0), small_fractions)
    @settings(max_examples=150, deadline=None)
    def test_evaluation_matches_a_fraction_horner(self, p, x):
        acc = Fraction(0)
        for d in range(len(p) - 1, -1, -1):
            acc = acc * x + p[d]
        value = rf(form(p)).eval(x)
        assert value == acc and type(value) is Fraction


# A root both summands of a split sum have, and split denominators around it
# (roots 1, -2, 0 and 3, none of them shared).
SHARED = (-1, 2, 5)
AROUND = [RF_ONE, H - 1, (H + 2) ** 2, H * (H - 3)]


def split_sum(f, g, expected=None):
    """Check f + g and g + f against the constructor's canonical form of
    n1 d2 + n2 d1 over d1 d2, against `expected` and at SAMPLES."""
    general = rf(form_add(form_mul(f.num, g.den), form_mul(g.num, f.den))), rf(form_mul(f.den, g.den))
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


# A sum with a zero summand takes the general path of `+`, which must give
# the canonical form of the other summand: a constant, a split fraction and
# one with a residual (H - 5000 lies beyond the root search).
ZERO_SUMMANDS = [
    RationalFunction(Fraction(-3, 4)),
    RationalFunction(2 * H - 1, (H - 1) ** 2 * (H + 2)),
    RationalFunction(H, (H * H + 1) * (H - 5000)),
    RF_ZERO,
]


@pytest.mark.parametrize("x", ZERO_SUMMANDS, ids=["constant", "split", "residual", "zero"])
def test_adding_zero_gives_the_canonical_form(x):
    canonical = RationalFunction(rf(x.num), rf(x.den))
    for total in (x + RF_ZERO, RF_ZERO + x, x + 0, 0 + x):
        assert total == x
        assert (total.num, total.roots, total.rest) == (canonical.num, canonical.roots, canonical.rest)
        assert hash(total) == hash(canonical)
        assert (total.rest is coeffs._ONE) == (canonical.rest is coeffs._ONE)
    p = x.num
    assert form_add(p, RF_ZERO.num) == form_add(RF_ZERO.num, p) == p
