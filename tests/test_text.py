"""Tests for the expression parser and the renderers."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospz.coeffs import H, RationalFunction, as_rf, form_text
from ospz.engine import LinComb
from ospz.text import (
    ExprSyntaxError,
    UnknownToken,
    _coeff_text,
    parse_element,
    parse_ratfunc,
    render,
)
from ospz import zalgebra
from ospz.uea import GENERATORS, TILDE_GENS, X2, XN2, UeaElement, Word, straighten, theta
from ospz.zalgebra import (
    RULE_KEYS,
    Z2,
    ZN2,
    Z_TOKENS,
    ZElement,
    ZMonomial,
    all_monomials,
    derived_rule,
    z_multiply,
    z_straighten,
    z_theta,
)

GOLDEN = Path(__file__).parent / "golden"


class TestParsing:
    def test_simple_product(self):
        e = parse_element("t(1) t(1)", "u")
        assert e == straighten([TILDE_GENS[3], TILDE_GENS[3]])

    def test_word_reached_along_many_rewrite_paths_parses_fast(self):
        # the straightener takes each distinct (monomial, letter) step once,
        # from the cached step table; kept as a stack of paths, this input
        # took minutes
        t0 = time.perf_counter()
        e = parse_element("E(2)^5 E(-2)^5", "z")
        elapsed = time.perf_counter() - t0
        left, right = ZElement.monomial(ZMonomial.make(t=5)), ZElement.monomial(ZMonomial.make(p=5))
        assert e == z_multiply(left, right)
        assert elapsed < 10.0

    def test_long_z_word_parses_fast(self):
        # from a cold step table; through a merged agenda of pending words
        # this took about 7 s
        zalgebra._z_mono_times_gen.cache_clear()
        t0 = time.perf_counter()
        e = parse_element("E(2)^12 E(-2)^12", "z")
        assert time.perf_counter() - t0 < 3.0
        assert e.terms[ZMonomial.make(p=12, t=12)]

    @pytest.mark.parametrize("text, algebra", [("E(2)^63 E(-2)", "z"), ("X(2)^63 X(-2)", "u")])
    def test_a_letter_past_63_equal_letters_normalizes(self, text, algebra):
        # a step recurses once per letter it passes: 63 levels, no RecursionError
        e = parse_element(text, algebra)
        lead = ZMonomial.make(p=1, t=63) if algebra == "z" else Word.from_letters([XN2] + [X2] * 63)
        assert e.terms[lead]

    @pytest.mark.parametrize("algebra", ["u", "z"])
    def test_a_long_sum_is_the_sum_of_its_straightened_terms(self, algebra, monkeypatch):
        # several hundred terms, many cancelling, accumulated in one dict:
        # parsing never adds two elements
        rng = random.Random(f"long sum/{algebra}")
        tokens = [g.token for g in GENERATORS] if algebra == "u" else list(Z_TOKENS)
        sep = " " if algebra == "u" else " <> "
        terms = []
        for _ in range(300):
            word = sep.join(rng.choices(tokens, k=rng.randint(0, 3)))
            coeff = rng.choice(["", "2 ", "(1/(H - 1)) ", "(H + 3) "])
            terms.append(rng.choice(["+ ", "- "]) + ((coeff + word).strip() or "1"))
        cls = UeaElement if algebra == "u" else ZElement
        expected = cls.zero()
        for term in terms:
            expected = expected + parse_element(term, algebra)
        monkeypatch.setattr(LinComb, "__add__", lambda *a: pytest.fail("an element sum while parsing"))
        e = parse_element(" ".join(terms), algebra)
        assert e == expected and all(c for _, c in e)

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

    @pytest.mark.parametrize(
        "text, algebra, message",
        [
            ("t(1)\n\tt(2) %", "u", "line 2, column 7: unexpected character '%'"),
            ("X(1)\t+\n  \tX(-1) t(2)^\n", "u", "line 3, column 1: expected integer exponent"),
            ("E(1)\n\n\t<> E(2) <> \t$", "z", "line 3, column 14: unexpected character '$'"),
            ("t(1) +\n\t(H\n - ) t(2)", "u", "line 3, column 4: expected a coefficient atom"),
            ("t(1 \t", "u", "line 1, column 6: expected ')'"),
            ("1" * 1001 + " t(1)", "u", "line 1, column 1: integer of more than 1000 digits"),
            ("t(1)\n  " + "2" * 1001, "u", "line 2, column 3: integer of more than 1000 digits"),
            ("t(1) t(2)#", "u", "line 1, column 10: unexpected character '#'"),
            ("E(0)?", "z", "line 1, column 5: unexpected character '?'"),
            ("t(1", "u", "line 1, column 4: expected ')'"),
            ("X(3)", "u", "line 1, column 1: unknown generator 'X(3)'"),
            ("E(3)", "z", "line 1, column 1: unknown generator 'E(3)' (z-algebra uses E(-2)..E(2))"),
            ("t(1) <> t(2)", "u", "line 1, column 6: '<>' is only valid in z-algebra expressions"),
            ("t(1)\n<>", "u", "line 2, column 1: '<>' is only valid in z-algebra expressions"),
            # a zero divisor is reported at its first token, in a term or a coefficient
            ("1/0 t(1)", "u", "line 1, column 3: division by zero in coefficient"),
            ("(1/0) t(1)", "u", "line 1, column 4: division by zero in coefficient"),
            ("(1/(H-H)) t(1)", "u", "line 1, column 4: division by zero in coefficient"),
            ("(H^x) t(1)", "u", "line 1, column 4: expected integer exponent"),
            ("(y) t(1)", "u", "line 1, column 2: unknown symbol 'y' in coefficient"),
            # '<>' stands between two factors, never at the end of a term
            ("E(1) <>", "z", "line 1, column 8: expected a generator after '<>'"),
            ("E(1) <> E(2) <>", "z", "line 1, column 16: expected a generator after '<>'"),
            ("E(1) <> + E(2)", "z", "line 1, column 9: expected a generator after '<>'"),
            # a letter read as one token keeps the errors of its spelled-out form
            ("X(-0)", "u", "line 1, column 1: unknown generator 'X(0)'"),
            ("E(1", "z", "line 1, column 4: expected ')'"),
            ("X(" + "1" * 1001 + ")", "u", "line 1, column 3: integer of more than 1000 digits"),
            ("(E(1)) t(1)", "u", "line 1, column 2: unknown symbol 'E' in coefficient"),
            ("th E(1)", "u", "line 1, column 4: unknown generator 'E(1)'"),
        ],
    )
    def test_pinned_error_messages(self, text, algebra, message):
        with pytest.raises(ExprSyntaxError) as err:
            parse_element(text, algebra)
        assert str(err.value) == message
        line, column = message.split(":")[0].removeprefix("line ").split(", column ")
        assert (err.value.line, err.value.column) == (int(line), int(column))

    @pytest.mark.parametrize(
        "text, same, algebra",
        [
            ("X ( - 1 )", "X(-1)", "u"),
            ("X(01)", "X(1)", "u"),
            ("X(-01) t( 2 )^2", "X(-1) t(2) t(2)", "u"),
            ("X(1)X(-1)", "X(1) X(-1)", "u"),
            ("E(-0)<>E(-2)", "E(0) <> E(-2)", "z"),
            ("E(\n1)", "E(1)", "z"),
            ("(H+1)t(1)", "(H + 1) * t(1)", "u"),
        ],
    )
    def test_spellings_of_one_element(self, text, same, algebra):
        assert parse_element(text, algebra) == parse_element(same, algebra)

    def test_unknown_coefficient_symbol_is_an_unknown_token(self):
        with pytest.raises(UnknownToken):
            parse_element("(y) t(1)", "u")

    def test_trailing_input_after_a_coefficient(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_ratfunc("H H")
        assert str(err.value) == "line 1, column 3: trailing input"


class TestRendering:
    def test_z_example_display(self):
        z = ZElement.monomial(
            ZMonomial.make(r=1, t=1), RationalFunction(2, H)
        )
        assert render(z) == "(2/H) * E(0) <> E(2)"

    def test_zero(self):
        assert render(ZElement.zero()) == "0"
        assert render(UeaElement.zero()) == "0"

    @pytest.mark.parametrize("zero", [UeaElement.zero(), ZElement.zero()])
    def test_an_unknown_format_fails_on_zero_too(self, zero):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            render(zero, "xml")

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

    def test_latex_braces_two_digit_exponents(self):
        # H^12 + 2 has no integer root, so both exponents stay in one
        # numerator and one denominator, and H^2 shows that one digit stays bare
        c = RationalFunction(H**10 - 3 * H**2, H**12 + 2)
        tex = render(ZElement.monomial(ZMonomial.make(t=1), c), "latex")
        assert tex == r"\frac{H^{10} - 3 H^2}{H^{12} + 2} \, \bar{x}_{2\alpha}"
        tex = render(UeaElement.coeff(RationalFunction(H**12 + 2, H**10 + 1)), "latex")
        assert tex == r"\frac{H^{12} + 2}{H^{10} + 1}"

    def test_deterministic_ordering(self):
        terms = {
            ZMonomial.make(p=1): as_rf(1),
            ZMonomial.make(t=1): as_rf(1),
            ZMonomial.make(): as_rf(3),
        }
        a = render(ZElement(dict(terms)))
        b = render(ZElement(dict(reversed(list(terms.items())))))
        assert a == b

    @pytest.mark.parametrize(
        "c, text",
        [
            (as_rf(3), "3"),
            (as_rf(Fraction(1, 2)), "(1/2)"),
            (as_rf(-3), "(-3)"),
            (as_rf(H), "(H)"),
            (RationalFunction(1, H), "(1/H)"),
            (RationalFunction(1, H**2), "(1/H^2)"),
            (RationalFunction(1, H - 1), "(1/(H - 1))"),
            (RationalFunction(-1, H), "((-1)/H)"),
            (RationalFunction(Fraction(1, 2), H), "((1/2)/H)"),
            (RationalFunction(H, H**2 + 1), "((H)/(H^2 + 1))"),
            (RationalFunction(2 * H + 1, H**2), "((2*H + 1)/H^2)"),
        ],
    )
    def test_coeff_text(self, c, text):
        # atomic factors stay bare: a nonnegative integer, a one-term denominator
        assert _coeff_text(c) == text


# Every letter of both alphabets: its algebra, text name and LaTeX name.
_LETTERS = [
    ("u", "X(-2)", r"X_{-2\alpha}"),
    ("u", "X(-1)", r"X_{-\alpha}"),
    ("u", "t(-2)", r"\tilde{x}_{-2\alpha}"),
    ("u", "t(-1)", r"\tilde{x}_{-\alpha}"),
    ("u", "th", r"\tilde{h}"),
    ("u", "t(1)", r"\tilde{x}_{\alpha}"),
    ("u", "t(2)", r"\tilde{x}_{2\alpha}"),
    ("u", "X(1)", r"X_{\alpha}"),
    ("u", "X(2)", r"X_{2\alpha}"),
    ("z", "E(-2)", r"\bar{x}_{-2\alpha}"),
    ("z", "E(-1)", r"\bar{x}_{-\alpha}"),
    ("z", "E(0)", r"\bar{h}"),
    ("z", "E(1)", r"\bar{x}_{\alpha}"),
    ("z", "E(2)", r"\bar{x}_{2\alpha}"),
]


class TestLetters:
    def test_the_table_names_every_letter(self):
        assert [tok for _, tok, _ in _LETTERS] == [g.token for g in GENERATORS] + list(Z_TOKENS)

    @pytest.mark.parametrize("algebra, token, latex", _LETTERS)
    def test_each_letter_renders_and_parses_back(self, algebra, token, latex):
        cls = UeaElement if algebra == "u" else ZElement
        index = ([g.token for g in GENERATORS] if algebra == "u" else list(Z_TOKENS)).index(token)
        e = cls.gen(index)
        assert render(e) == token
        assert render(e, "latex") == latex
        assert render(e, "json") == _json([("1", "1", token)])
        assert parse_element(token, algebra) == e
        square = cls.monomial(cls.MONOMIAL.from_letters([index, index]))
        assert render(square) == f"{token}^2"
        assert render(square, "latex") == f"{latex}^{{2}}"


def _json(terms) -> str:
    """The JSON rendering of (numerator, denominator, word) terms, a word
    written as in "X(-2) th^2 t(2)"."""

    def word(w):
        return [[tok, int(e or 1)] for tok, _, e in (f.partition("^") for f in w.split())]

    data = {"terms": [{"coeff": {"num": n, "den": d}, "word": word(w)} for n, d, w in terms]}
    return json.dumps(data, indent=2, sort_keys=True)


_COEFFS = (
    as_rf(1),
    as_rf(-1),
    as_rf(5),
    as_rf(Fraction(1, 2)),
    as_rf(Fraction(-7, 3)),
    as_rf(H),
    as_rf(Fraction(-1, 2) * H**2 + 3),
    RationalFunction(H, H**2 + 1),
    RationalFunction(1, H - 1),
    RationalFunction(-2, H),
    RationalFunction(H**2 - 2, H + 3),
    RationalFunction(Fraction(2, 3) * H + 1, H * (H - 1) ** 2),
)


def _random_elements(seed: int, n: int) -> list:
    """n seeded U elements and n Z elements, straightened from random
    words with coefficients left of and between the letters."""
    rng = random.Random(seed)
    out = []
    for size, cap, fn in ((9, 4, straighten), (5, 3, z_straighten)):
        for _ in range(n):
            items = [rng.choice(_COEFFS)]
            for _ in range(rng.randint(0, cap)):
                items.append(rng.randrange(size))
                if rng.random() < 0.2:
                    items.append(rng.choice(_COEFFS))
            out.append(fn(items, rng.choice((1, -1))))
    return out


def _golden_elements() -> list:
    """The seeded elements of tests/golden/render.txt."""
    elements = [UeaElement.zero(), ZElement.zero(), UeaElement.coeff(RationalFunction(H, H**2 + 1))]
    elements += _random_elements(22, 20)
    elements += [derived_rule(a, b) for a, b in RULE_KEYS]
    elements += [theta(e) for e in elements[3:13]] + [z_theta(e) for e in elements[23:33]]
    return elements


def _reference_json(e) -> str:
    """json.dumps of the JSON rendering's data, terms in print order."""
    if isinstance(e, UeaElement):
        tokens = [g.token for g in GENERATORS]
        rank = lambda m: [(g, ex) for g, ex in enumerate(m) if ex]  # noqa: E731
    else:
        tokens, rank = Z_TOKENS, tuple
    terms = [
        {
            "coeff": {"num": form_text(c.num), "den": form_text(c.den)},
            "word": [[tokens[g], ex] for g, ex in enumerate(m) if ex],
        }
        for m, c in sorted(e, key=lambda t: (t[0].degree(), rank(t[0])))
    ]
    return json.dumps({"terms": terms}, indent=2, sort_keys=True)


class TestJsonWriter:
    def test_random_elements(self):
        elements = _random_elements(7, 40)
        assert any(ex > 1 for e in elements for m in e.terms for ex in m)
        for e in elements:
            assert render(e, "json") == _reference_json(e)

    def test_special_cases(self):
        cases = [
            UeaElement.zero(),
            ZElement.zero(),
            UeaElement.coeff(Fraction(-3, 4)),
            ZElement.coeff(RationalFunction(H, H**2 + 1)),
            UeaElement.coeff(RationalFunction(H, H**2 + 1)) * straighten([TILDE_GENS[3]] * 2),
            derived_rule(Z2, ZN2),
            ZElement.monomial(ZMonomial.make(p=3, r=2), RationalFunction(Fraction(-5, 2), H - 1)),
        ]
        for e in cases:
            assert render(e, "json") == _reference_json(e)
        assert render(UeaElement.zero(), "json") == '{\n  "terms": []\n}'


def test_render_matches_golden_file():
    blocks = []
    for i, e in enumerate(_golden_elements()):
        blocks.append(f"## {i} {type(e).__name__}")
        blocks += [render(e, fmt) for fmt in ("text", "latex", "json")]
    assert "\n".join(blocks) + "\n" == (GOLDEN / "render.txt").read_text()


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
            assert parse_element(render(z), "z") == z

    def test_round_trip_on_u_elements(self):
        rng = random.Random(37)
        for _ in range(25):
            word = [rng.choice(TILDE_GENS) for _ in range(rng.randint(1, 3))]
            e = straighten(word)
            assert parse_element(render(e), "u") == e

    @given(st.text(alphabet="EXt(-)1202^ <>+*/Hh\t\n", max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_never_crashes(self, text):
        for algebra in ("u", "z"):
            try:
                parse_element(text, algebra)
            except ExprSyntaxError:
                pass
