"""Expression grammar, parser and pretty printers.

Grammar (EBNF)::

    element := ("+"|"-")? term (("+"|"-") term)*
    term    := coeff "*"? word? | word
    word    := factor ("<>"? factor)*
    factor  := gen ("^" nat)?
    gen     := "X(" int ")" | "t(" int ")" | "th" | "E(" int ")"
    coeff   := "(" ratfunc ")" | rational
    rational:= nat ("/" nat)?

inside a coefficient, `ratfunc` is ordinary field arithmetic over integers
and the symbol H with operators + - * / ^ and parentheses.

Two distinct modes: "u" elements use the X/t/th alphabet, "z" elements use
the E(k) alphabet with "<>" accepted (and printed) between two factors.
Mixing alphabets is a syntax error; the quotient map between the algebras is
an explicit operation, never implied by notation.  The parser's letters and
the renderers' names come from `GENERATORS` and `Z_TOKENS`/`Z_ROOTS`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple

from .coeffs import RationalFunction, RF_ONE, H, Polynomial, as_rf
from .engine import add_scaled
from .uea import GENERATORS, TOKEN_TO_GEN, UeaElement, straighten
from .zalgebra import ZElement, Z_ROOTS, Z_TOKENS, z_straighten


class ExprSyntaxError(ValueError):
    """Malformed expression; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownToken(ExprSyntaxError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer

# Most generator letters one term may expand to; also the largest exponent
# and degree in H of a parsed coefficient.  The limit bounds the size of the
# input, not the cost of straightening it.  U words are cheap (X(1)^8 X(-1)^8
# takes about 2 ms); Z words cost more: E(2)^8 E(-2)^8 takes about 0.1 s,
# E(2)^16 E(-2)^16 about 2 s, and E(2)^32 E(-2)^32, at the limit, still
# about two minutes (2-core machine, Python 3.11).
MAX_TERM_LETTERS = 64
# Most decimal digits of an integer literal, and of any integer in the integer
# form of a coefficient the parser builds; the text renderer's int-to-str
# conversion stops at 4300.
MAX_COEFF_DIGITS = 1000
_COEFF_BOUND = 10**MAX_COEFF_DIGITS

# One token and the whitespace before it.  Lines are matched one at a time,
# with trailing whitespace stripped, so a match always ends in a token.  A
# generator letter written without spaces, such as X(-1), is one name token;
# spaced or malformed ones (X ( - 1 ), X(a), a label of more than
# MAX_COEFF_DIGITS digits) are read as a name and the tokens after it.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+)"
    rf"|(?P<name>[XtE]\(-?\d{{1,{MAX_COEFF_DIGITS}}}\)|[A-Za-z]+)"
    r"|(?P<diamond><>)"
    r"|(?P<sym>[()^+\-*/])"
    r"|(?P<bad>\S))"
)


class Token(NamedTuple):
    kind: str  # num | name (a name or a whole letter, X(-1)) | diamond | sym | end
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    for line, chunk in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(chunk.rstrip()):
            i = m.lastindex
            kind, tok, column = m.lastgroup, m[i], m.start(i) + 1
            if kind == "bad":
                raise UnknownToken(f"unexpected character {tok!r}", line, column)
            if kind == "num" and len(tok) > MAX_COEFF_DIGITS:
                raise ExprSyntaxError(f"integer of more than {MAX_COEFF_DIGITS} digits", line, column)
            out.append(Token(kind, tok, line, column))
    out.append(Token("end", "", line, len(chunk) + 1))
    return out


# ---------------------------------------------------------------------------
# Parser

# Per algebra, the parser's letter table (token -> letter index) and the hint
# its unknown-generator message ends in.
_LETTERS = {
    "u": (TOKEN_TO_GEN, ""),
    "z": ({tok: i for i, tok in enumerate(Z_TOKENS)}, " (z-algebra uses E(-2)..E(2))"),
}


class _Parser:
    def __init__(self, tokens: list[Token], algebra: str):
        if algebra not in _LETTERS:
            raise ValueError("algebra must be 'u' or 'z'")
        self.toks = tokens
        self.i = 0
        self.tok = tokens[0]  # the next token, tokens[i]
        self.algebra = algebra
        self.letters, self.hint = _LETTERS[algebra]
        self.overflow: Token | None = None  # first letter past MAX_TERM_LETTERS

    def next(self) -> Token:
        t = self.tok
        self.i += 1
        self.tok = self.toks[self.i]
        return t

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.tok
        raise ExprSyntaxError(message, tok.line, tok.column)

    def bounded(self, value: RationalFunction, tok: Token, power: int = 1) -> RationalFunction:
        """value, if value**power stays within the coefficient limits; else an
        ExprSyntaxError at tok.  Checked before the power is taken: every
        integer of the integer form of p**n is at most
        height(p)**n * (deg p + 1)**(n - 1)."""
        for p in (value.num, value.den):
            if p.degree * power > MAX_TERM_LETTERS:
                self.fail(f"coefficient of degree above {MAX_TERM_LETTERS} in H", tok)
            if p.height**power * (p.degree + 1) ** max(power - 1, 0) >= _COEFF_BOUND:
                self.fail(f"coefficient with integers of more than {MAX_COEFF_DIGITS} digits", tok)
        return value

    def expect(self, text: str) -> Token:
        t = self.tok
        if t.text != text:
            self.fail(f"expected {text!r}", t)
        return self.next()

    # -- element -------------------------------------------------------
    def element(self) -> list[tuple[int, list]]:
        """The terms as (sign, items) pairs, ready for straighten or
        z_straighten.  A term of more than MAX_TERM_LETTERS generator letters
        is an ExprSyntaxError at the letter that passes the limit, raised
        only once the whole input has parsed."""
        terms = [self.term(self.sign())]
        while self.tok.text in ("+", "-"):
            terms.append(self.term(self.sign()))
        if self.tok.kind != "end":
            self.fail("trailing input")
        if self.overflow:
            self.fail(f"term has more than {MAX_TERM_LETTERS} generator letters", self.overflow)
        return terms

    def sign(self) -> int:
        if self.tok.text in ("+", "-"):
            return -1 if self.next().text == "-" else 1
        return 1

    def power(self) -> Token | None:
        """The exponent token of a following "^" nat, if there is one."""
        if self.tok.text != "^":
            return None
        self.next()
        if self.tok.kind != "num":
            self.fail("expected integer exponent")
        return self.next()

    def term(self, sign: int) -> tuple[int, list]:
        coeff = None
        if self.tok.text == "(":
            coeff = self.ratom()
        elif self.tok.kind == "num":
            num = int(self.next().text)
            den = 1
            if self.tok.text == "/":
                self.next()
                dt = self.tok
                if dt.kind != "num":
                    self.fail("expected integer denominator")
                den = int(self.next().text)
                if den == 0:
                    self.fail("division by zero in coefficient", dt)
            coeff = as_rf(Fraction(num, den))
        if coeff is not None and self.tok.text == "*":
            self.next()
        if coeff is None and self.tok.kind != "name":
            self.fail("expected a term")
        items: list = [RF_ONE if coeff is None else coeff]
        letters = 0
        while self.tok.kind == "name":
            tok = self.tok
            g, exp = self.factor()
            letters += exp
            if letters > MAX_TERM_LETTERS:
                self.overflow = self.overflow or tok
            else:
                items.extend([g] * exp)
            if self.tok.kind == "diamond":
                if self.algebra != "z":
                    self.fail("'<>' is only valid in z-algebra expressions")
                self.next()
                if self.tok.kind != "name":
                    self.fail("expected a generator after '<>'")
        return sign, items

    def factor(self) -> tuple[int, int]:
        """One generator power: (generator index, exponent)."""
        t = self.next()
        token = t.text
        g = self.letters.get(token)
        if g is None:
            if token in ("X", "t", "E"):
                self.expect("(")
                neg = self.tok.text == "-"
                if neg:
                    self.next()
                if self.tok.kind != "num":
                    self.fail("expected integer generator label")
                k = int(self.next().text)
                self.expect(")")
                token = f"{token}({-k if neg else k})"
            elif "(" in token:  # one letter token off the table, e.g. X(01), X(-0), X(3)
                token = f"{token[0]}({int(token[2:-1])})"
            elif token != "th":
                raise UnknownToken(f"unknown generator {token!r}", t.line, t.column)
            g = self.letters.get(token)
            if g is None:
                self.fail(f"unknown generator {token!r}{self.hint}", t)
        et = self.power()
        return g, int(et.text) if et else 1

    # -- rational functions in H --------------------------------------
    def ratfunc(self) -> RationalFunction:
        value = self.rterm()
        while self.tok.text in ("+", "-"):
            op = self.next()
            rhs = self.rterm()
            value = self.bounded(value + rhs if op.text == "+" else value - rhs, op)
        return value

    def rterm(self) -> RationalFunction:
        value = self.runary()
        while self.tok.text in ("*", "/"):
            op = self.next()
            divisor = self.tok
            rhs = self.runary()
            if op.text == "*":
                value = value * rhs
            else:
                if not rhs:
                    self.fail("division by zero in coefficient", divisor)
                value = value / rhs
            value = self.bounded(value, op)
        return value

    def runary(self) -> RationalFunction:
        sign = 1
        while self.tok.text in ("+", "-"):
            if self.next().text == "-":
                sign = -sign
        value = self.ratom()
        et = self.power()
        if et:
            exp = int(et.text)
            if exp > MAX_TERM_LETTERS:
                self.fail(f"coefficient exponent above {MAX_TERM_LETTERS}", et)
            value = self.bounded(value, et, exp) ** exp
        return value if sign == 1 else -value

    def ratom(self) -> RationalFunction:
        t = self.tok
        if t.kind == "num":
            return as_rf(int(self.next().text))
        if t.text == "H":
            self.next()
            return as_rf(H)
        if t.kind == "name":
            name = t.text.partition("(")[0]  # E, not E(1)
            raise UnknownToken(f"unknown symbol {name!r} in coefficient", t.line, t.column)
        if t.text == "(":
            self.next()
            value = self.ratfunc()
            self.expect(")")
            return value
        self.fail("expected a coefficient atom")


def parse_ratfunc(text: str) -> RationalFunction:
    p = _Parser(tokenize(text), "u")
    value = p.ratfunc()
    if p.tok.kind != "end":
        p.fail("trailing input")
    return value


def parse_element(text: str, algebra: str = "u"):
    """Parse and straighten an expression to a canonical element of the
    selected algebra ("u" or "z")."""
    terms = _Parser(tokenize(text), algebra).element()
    cls, straighten_fn = (UeaElement, straighten) if algebra == "u" else (ZElement, z_straighten)
    total: dict = {}
    for sign, items in terms:
        add_scaled(total, RF_ONE, straighten_fn(items, sign))
    return cls.wrap(total)


# ---------------------------------------------------------------------------
# Rendering

def _bare(p: Polynomial) -> bool:
    """Whether p prints as a nonnegative integer."""
    den, a = p._form
    return den == 1 and len(a) <= 1 and not (a and a[0] < 0)


def _coeff_text(c: RationalFunction) -> str:
    """The coefficient as a text factor, parenthesized unless atomic."""
    num, den = c.num, c.den
    ns = str(num)
    if den._form == (1, (1,)):
        return ns if _bare(num) else f"({ns})"
    if not _bare(num):
        ns = f"({ns})"
    ds, da = str(den), den._form[1]
    if len(da) - da.count(0) > 1:  # e.g. "H - 1"; bare "H" or "H^2" stays unwrapped
        ds = f"({ds})"
    return f"({ns}/{ds})"


# An exponent of two or more digits, which LaTeX needs in braces.
_LONG_EXPONENT = re.compile(r"\^(\d\d+)")


def _poly_latex(p: Polynomial) -> str:
    s = str(p).replace("*", " ")
    return _LONG_EXPONENT.sub(r"^{\1}", s) if "^" in s else s


def _coeff_latex(c: RationalFunction) -> str:
    num, den = c.num, c.den
    s = _poly_latex(num)
    if den._form == (1, (1,)):
        a = num._form[1]
        return rf"\left({s}\right)" if len(a) > 1 or a[-1] < 0 else s
    return rf"\frac{{{s}}}{{{_poly_latex(den)}}}"


def _json_payload(terms, names) -> str:
    """json.dumps({"terms": [{"coeff": {"num", "den"}, "word"}]}, indent=2,
    sort_keys=True) for the (monomial, coefficient) pairs `terms`, letters
    named by `names`, written directly: that layout is fixed, and only the
    strings need escaping."""
    q = json.dumps
    blocks = []
    for m, c in terms:
        word = ",\n".join(f"        [\n          {q(names[g])},\n          {ex}\n        ]" for g, ex in _pairs(m))
        word = f"[\n{word}\n      ]" if word else "[]"
        blocks.append(
            f'    {{\n      "coeff": {{\n        "den": {q(str(c.den))},\n        "num": {q(str(c.num))}\n'
            f'      }},\n      "word": {word}\n    }}'
        )
    body = ",\n".join(blocks)
    return f'{{\n  "terms": [\n{body}\n  ]\n}}' if blocks else '{\n  "terms": []\n}'


def _pairs(m) -> list[tuple[int, int]]:
    """The (letter, exponent) pairs of monomial m with a nonzero exponent."""
    return [(g, ex) for g, ex in enumerate(m) if ex]


def _latex_name(x: str, h: str, root: int) -> str:
    """The LaTeX name of a letter of root k: x with subscript kα, h if k = 0."""
    if not root:
        return h
    k = {1: "", -1: "-"}.get(root, str(root))
    return rf"{x}_{{{k}\alpha}}"


# Per algebra and format, the row that drives render: the letter names by
# index, the format of a letter to a power above 1, the separator between
# factors, the coefficient printer and the separator between a coefficient
# other than 1 and its monomial.  JSON names letters as text does.
_U_FORMATS = {
    "text": (tuple(g.token for g in GENERATORS), "{}^{}", " ", _coeff_text, " * "),
    "latex": (tuple(_latex_name("X" if g.diagonal else r"\tilde{x}", r"\tilde{h}", g.root) for g in GENERATORS),
              "{}^{{{}}}", " ", _coeff_latex, r" \, "),
}
_Z_FORMATS = {
    "text": (Z_TOKENS, "{}^{}", " <> ", _coeff_text, " * "),
    "latex": (tuple(_latex_name(r"\bar{x}", r"\bar{h}", k) for k in Z_ROOTS),
              "{}^{{{}}}", r" \mathbin{\diamond} ", _coeff_latex, r" \, "),
}
# Per algebra, its format rows and the rank of a term among those of its degree.
_RENDERING = {UeaElement: (_U_FORMATS, _pairs), ZElement: (_Z_FORMATS, tuple)}


def render(e, fmt: str = "text") -> str:
    """Render a sum in either algebra as text, LaTeX or JSON, terms by
    degree, then by the algebra's rank: U terms of one degree print in the
    order of their (letter, exponent) pairs, Z terms in the order of their
    exponent tuples.  Text and LaTeX read "a + b - c": a leading sign is
    split off each coefficient, and the format row prints what is left."""
    row = _RENDERING.get(type(e))
    if row is None:
        raise TypeError(f"cannot render {type(e).__name__}")
    formats, rank = row
    if fmt != "json" and fmt not in formats:
        raise ValueError(f"unknown format {fmt!r}")
    order = sorted(e.terms, key=lambda m: (m.degree(), rank(m)))
    if fmt == "json":
        return _json_payload([(m, e.terms[m]) for m in order], formats["text"][0])
    if not e:
        return "0"
    names, power, sep, coeff_str, coeff_sep = formats[fmt]
    parts: list[str] = []
    for m in order:
        c = e.terms[m]
        mono = sep.join(power.format(names[g], ex) if ex > 1 else names[g] for g, ex in _pairs(m))
        negative = c.num._form[1][-1] < 0
        if negative:
            c = -c
        if mono and c.is_one():
            body = mono
        elif mono:
            body = f"{coeff_str(c)}{coeff_sep}{mono}"
        else:
            body = coeff_str(c)
        if parts:
            parts.append(f"{'-' if negative else '+'} {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts)
