"""Tests for the expression parser and the renderers."""

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospz.coeffs import H, RationalFunction, as_rf
from ospz.text import (
    ExprSyntaxError,
    parse_element,
    parse_ratfunc,
    render,
    render_uea,
    render_z,
)
from ospz.uea import TILDE_GENS, UeaElement, straighten
from ospz.zalgebra import Z2, ZN2, ZElement, ZMonomial, all_monomials, derived_rule, z_multiply


class TestParsing:
    def test_simple_product(self):
        e = parse_element("t(1) t(1)", "u")
        assert e == straighten([TILDE_GENS[3], TILDE_GENS[3]])

    def test_word_reached_along_many_rewrite_paths_parses_fast(self):
        # the straightener rewrites each distinct pending word once; kept
        # as a stack of paths, this input took minutes
        t0 = time.perf_counter()
        e = parse_element("E(2)^5 E(-2)^5", "z")
        elapsed = time.perf_counter() - t0
        left, right = ZElement.monomial(ZMonomial.make(t=5)), ZElement.monomial(ZMonomial.make(p=5))
        assert e == z_multiply(left, right)
        assert elapsed < 10.0

    def test_coefficient_term(self):
        e = parse_element("(1 - 2/(H-1)) t(1) t(2)", "u")
        coeff = as_rf(1) - RationalFunction(2, H - 1)
        expected = UeaElement.coeff(coeff) * straighten(
            [TILDE_GENS[3], TILDE_GENS[4]]
        )
        assert e == expected

    def test_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_element("t(1", "u")
        assert "column 4" in str(err.value)

    def test_unknown_token(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("t(1) % t(2)", "u")

    def test_mixing_algebras_is_an_error(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("E(1) t(1)", "u")
        with pytest.raises(ExprSyntaxError):
            parse_element("t(1) E(1)", "z")

    def test_ratfunc_arithmetic(self):
        f = parse_ratfunc("(H^2 - 1)/(H - 1) - 1")
        assert f == RationalFunction(H)

    def test_diamond_token_only_in_z_mode(self):
        e = parse_element("E(0) <> E(2)", "z")
        assert e == z_multiply(ZElement.gen(2), ZElement.gen(4))
        with pytest.raises(ExprSyntaxError):
            parse_element("t(1) <> t(2)", "u")


class TestRendering:
    def test_z_example_display(self):
        z = ZElement.monomial(
            ZMonomial.make(r=1, t=1), RationalFunction(2, H)
        )
        assert render_z(z) == "(2/H) * E(0) <> E(2)"

    def test_zero(self):
        assert render_z(ZElement.zero()) == "0"
        assert render_uea(UeaElement.zero()) == "0"

    def test_json_round_trips_through_loads(self):
        z = ZElement.monomial(ZMonomial.make(p=1, t=1), RationalFunction(1, H - 1))
        payload = json.loads(render(z, "json"))
        assert payload["terms"]

    def test_latex_uses_paper_notation(self):
        z = ZElement.monomial(ZMonomial.make(r=1, t=1), RationalFunction(2, H))
        tex = render(z, "latex")
        assert "\\bar" in tex and "\\diamond" in tex
        u = straighten([TILDE_GENS[3]])
        assert "\\tilde" in render(u, "latex")

    def test_deterministic_ordering(self):
        terms = {
            ZMonomial.make(p=1): as_rf(1),
            ZMonomial.make(t=1): as_rf(1),
            ZMonomial(): as_rf(3),
        }
        a = render_z(ZElement(dict(terms)))
        b = render_z(ZElement(dict(reversed(list(terms.items())))))
        assert a == b


def _json(terms) -> str:
    """The JSON rendering of (numerator, denominator, word) terms, a word
    written as in "X(-2) th^2 t(2)"."""

    def word(w):
        return [[tok, int(e or 1)] for tok, _, e in (f.partition("^") for f in w.split())]

    data = {"terms": [{"coeff": {"num": n, "den": d}, "word": word(w)} for n, d, w in terms]}
    return json.dumps(data, indent=2, sort_keys=True)


class TestTermOrder:
    """Terms print by degree, then U terms in the order of their
    (generator, exponent) pairs and Z terms in that of their exponent
    tuples, in every format."""

    def test_u_element(self):
        e = parse_element("X(1) t(-1) th X(-2) t(2) + 3 t(2) t(-2) X(-1)", "u")
        assert render(e) == (
            "-(3*H) * X(-1) + 2 * X(-2) t(2) - 3 * t(-2) t(1) + 3 * X(-1) t(-2) t(2)"
            " + 2 * t(-2) th t(2) - X(-2) t(-1) t(1) t(2) + X(-2) th^2 t(2)"
            " + X(-1) t(-1) th t(2) - 2 * t(-2) t(-1) t(2) X(1) - X(-2) t(-1) th t(2) X(1)"
        )
        assert render(e, "latex") == (
            r"-\left(3 H\right) \, X_{-\alpha} + 2 \, X_{-2\alpha} \tilde{x}_{2\alpha}"
            r" - 3 \, \tilde{x}_{-2\alpha} \tilde{x}_{\alpha}"
            r" + 3 \, X_{-\alpha} \tilde{x}_{-2\alpha} \tilde{x}_{2\alpha}"
            r" + 2 \, \tilde{x}_{-2\alpha} \tilde{h} \tilde{x}_{2\alpha}"
            r" - X_{-2\alpha} \tilde{x}_{-\alpha} \tilde{x}_{\alpha} \tilde{x}_{2\alpha}"
            r" + X_{-2\alpha} \tilde{h}^{2} \tilde{x}_{2\alpha}"
            r" + X_{-\alpha} \tilde{x}_{-\alpha} \tilde{h} \tilde{x}_{2\alpha}"
            r" - 2 \, \tilde{x}_{-2\alpha} \tilde{x}_{-\alpha} \tilde{x}_{2\alpha} X_{\alpha}"
            r" - X_{-2\alpha} \tilde{x}_{-\alpha} \tilde{h} \tilde{x}_{2\alpha} X_{\alpha}"
        )
        assert render(e, "json") == _json(
            [
                ("-3*H", "1", "X(-1)"),
                ("2", "1", "X(-2) t(2)"),
                ("-3", "1", "t(-2) t(1)"),
                ("3", "1", "X(-1) t(-2) t(2)"),
                ("2", "1", "t(-2) th t(2)"),
                ("-1", "1", "X(-2) t(-1) t(1) t(2)"),
                ("1", "1", "X(-2) th^2 t(2)"),
                ("1", "1", "X(-1) t(-1) th t(2)"),
                ("-2", "1", "t(-2) t(-1) t(2) X(1)"),
                ("-1", "1", "X(-2) t(-1) th t(2) X(1)"),
            ]
        )

    def test_z_element(self):
        z = derived_rule(Z2, ZN2)
        assert render(z) == (
            "-((H^2)/(H + 1)) + (1/(H + 1)) * E(0)^2 - ((H^2 - H - 1)/(H^3 - H)) * E(-1) <> E(1)"
            " + ((H^2 - H)/(H^2 - H - 2)) * E(-2) <> E(2)"
        )
        assert render(z, "latex") == (
            r"-\frac{H^2}{H + 1} + \frac{1}{H + 1} \, \bar{h}^{2}"
            r" - \frac{H^2 - H - 1}{H^3 - H} \, \bar{x}_{-\alpha} \mathbin{\diamond} \bar{x}_{\alpha}"
            r" + \frac{H^2 - H}{H^2 - H - 2} \, \bar{x}_{-2\alpha} \mathbin{\diamond} \bar{x}_{2\alpha}"
        )
        assert render(z, "json") == _json(
            [
                ("-H^2", "H + 1", ""),
                ("1", "H + 1", "E(0)^2"),
                ("-H^2 + H + 1", "H^3 - H", "E(-1) E(1)"),
                ("H^2 - H", "H^2 - H - 2", "E(-2) E(2)"),
            ]
        )


class TestRoundTrip:
    def test_round_trip_on_z_monomials(self):
        rng = random.Random(31)
        monos = all_monomials(1)
        for _ in range(25):
            z = ZElement.monomial(
                rng.choice(monos), RationalFunction(rng.randint(1, 5), H - 1)
            )
            assert parse_element(render_z(z), "z") == z

    def test_round_trip_on_u_elements(self):
        rng = random.Random(37)
        for _ in range(25):
            word = [rng.choice(TILDE_GENS) for _ in range(rng.randint(1, 3))]
            e = straighten(word)
            assert parse_element(render_uea(e), "u") == e

    @given(st.text(alphabet="Et(-)1202^ <>+*/Hh\t\n", max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_never_crashes(self, text):
        for algebra in ("u", "z"):
            try:
                parse_element(text, algebra)
            except ExprSyntaxError:
                pass
