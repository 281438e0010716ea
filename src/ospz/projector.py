"""Extremal projector machinery: kappa / phi coefficients, the diamond
product on the double coset space, and the projected generators.

The projector P = sum_n phi_n(H) X(-1)^n X(1)^n is never materialized as a
series; only its finite actions appear.  The diamond product of cosets is
computed from

    u <> v  =  sum_n  [.,X(-1)]^n(u) * phi_n(H+n) * [X(1),.]^n(v)   mod II,

and every step is taken in the quotient its result ends up in, II being
g_-U + U g_+.  The left chain is carried modulo g_-U: since [g_-U, X(-1)]
lies in g_-U, a representative there is as good as the exact bracket, and
[u, X(-1)] = u X(-1) modulo g_-U, so the X(-1) u half of the bracket is never
formed.  Symmetrically the right chain is carried modulo U g_+, where
[X(1), v] = X(1) v.  This is exact because g_-U * w and w * U g_+ lie in II
for every w, so a term changed by an element of its ideal changes the
product only modulo II, and the middle product is straightened straight into
U/II.  For the same reason the chains need only terminate modulo their
ideals, and the series stops at the first term where one of them vanishes
there.  Every monomial of the n-th left term has root sum root_sum(u) - n,
since each bracket with X(-1) lowers it by one, so phi_n(H+n) passes all of
them as the one scalar phi_n(H + root_sum(u)), which scales the n-th middle
product as a whole.  Both chains are cached term by term, the raising one
read first and the lowering one only where the raising term is nonzero: the
oracle's right factors are single generators, whose chains have at most five
terms, and lowering brackets are the costly ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count

from .coeffs import RF_ONE, Polynomial, RationalFunction, as_rf
from .engine import add_scaled, bilinear
from .uea import (
    TILDE_GENS,
    X1,
    XN1,
    UeaElement,
    Word,
    mul,
    super_bracket,
)

_X_LOWER = UeaElement.gen(XN1)
_X_RAISE = UeaElement.gen(X1)


def kappa(n: int) -> Polynomial:
    """Coefficient in [X(1), X(-1)^n] = kappa_n(H) X(-1)^(n-1).

    Closed form: n/2 for even n, H - (n-1)/2 for odd n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n % 2 == 0:
        return Polynomial.const(Fraction(n, 2))
    return Polynomial.var() - Polynomial.const(Fraction(n - 1, 2))


# phi_0, phi_1, ... as far as they have been asked for.
_PHI = [RF_ONE]


def phi(n: int) -> RationalFunction:
    """Projector coefficient phi_n(H), memoized:
    phi_0 = 1 and phi_n(h) = (-1)^n / kappa_n(h-1) * phi_{n-1}(h)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    while len(_PHI) <= n:
        m = len(_PHI)
        sign = 1 if m % 2 == 0 else -1
        _PHI.append(_PHI[m - 1] / as_rf(kappa(m).shift(-1)) * sign)
    return _PHI[n]


def diamond(u: UeaElement, v: UeaElement) -> UeaElement:
    """Diamond product of the cosets of u and v in U/II, returned as its
    pure-tilde representative.

    Bilinear over the coefficient ring; per-monomial products are cached.
    Each monomial product is the quotient formula of the module docstring:
    the n-th left bracket modulo g_-U times phi_n(H+n) times the n-th right
    bracket modulo U g_+, straightened modulo II, summed until either chain
    vanishes modulo its ideal.  Inputs are arbitrary representatives: the
    chains start from monomials, on which ad X(-1) and ad X(1) are locally
    nilpotent, so they always end.
    """
    return UeaElement(bilinear(u, v, _diamond_mono))


@lru_cache(maxsize=None)
def _lower_chain(mu, n: int) -> UeaElement:
    """The n-th term of (u, [u, X(-1)], [[u, X(-1)], X(-1)], ...) modulo g_-U
    for the monomial u = `mu`.  It is zero from the first bracket that
    vanishes there on, within 4 * degree + 2 brackets (the root sum of the
    terms moves by one per bracket); a later nonzero term raises."""
    if n == 0:
        return UeaElement.monomial(mu)
    term = super_bracket(_lower_chain(mu, n - 1), _X_LOWER, "left")
    if term and n > 4 * mu.degree() + 2:
        raise RuntimeError("lowering chain failed to terminate")
    return term


@lru_cache(maxsize=None)
def _raise_chain(mv, n: int) -> UeaElement:
    """The n-th term of (v, [X(1), v], [X(1), [X(1), v]], ...) modulo U g_+
    for the monomial v = `mv`, ending as `_lower_chain` does."""
    if n == 0:
        return UeaElement.monomial(mv)
    term = super_bracket(_X_RAISE, _raise_chain(mv, n - 1), "right")
    if term and n > 4 * mv.degree() + 2:
        raise RuntimeError("raising chain failed to terminate")
    return term


@lru_cache(maxsize=None)
def _diamond_mono(mu, mv) -> UeaElement:
    # The raising chain goes first (see the module docstring), so a lowering
    # bracket is taken only for a term the series sums.
    total: dict = {}
    for n in count():
        right = _raise_chain(mv, n)
        left = right and _lower_chain(mu, n)
        if not left:
            return UeaElement(total)
        # phi_n(H + n) right of a monomial m of root sum mu.root_sum() - n
        # moves left as phi_n(H + mu.root_sum()), one scalar for the term
        add_scaled(total, phi(n).shift(mu.root_sum()), mul(left, right, "both"))


@lru_cache(maxsize=None)
def projected_generator(g: int) -> UeaElement:
    """P * (tilde generator) reduced mod I: the finite normal form with
    X(-1) powers on the left of the surviving tilde letters."""
    if g not in TILDE_GENS:
        raise ValueError("projected generators are defined for tilde generators only")
    word = Word.from_letters([g])
    # X(1)^n g = [X(1), .]^n(g) modulo U g_+, which X(-1)^n keeps.
    total: dict = {}
    lower_pow = UeaElement.one()
    for n in count():
        term = _raise_chain(word, n)
        if not term:
            return UeaElement(total)
        add_scaled(total, phi(n), mul(lower_pow, term, "right"))
        lower_pow = mul(lower_pow, _X_LOWER)
