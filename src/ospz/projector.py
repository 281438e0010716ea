"""Extremal projector machinery: kappa / phi coefficients, the diamond
product on the double coset space, and the projected generators.

The projector P = sum_n phi_n(H) X(-1)^n X(1)^n is never materialized as a
series; only its finite actions appear.  The diamond product of cosets is
computed from

    u <> v  =  sum_n  [.,X(-1)]^n(u) * phi_n(H+n) * [X(1),.]^n(v)   mod II,

with the series truncated as soon as one iterated bracket vanishes.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

from .coeffs import RF_ONE, Polynomial, RationalFunction, as_rf
from .engine import bilinear
from .uea import (
    TILDE_GENS,
    X1,
    XN1,
    UeaElement,
    mul,
    super_bracket,
    word_root_sum,
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


class PhiTable:
    """Memoized projector coefficients phi_n(H).

    phi_0 = 1 and phi_n(h) = (-1)^n / kappa_n(h-1) * phi_{n-1}(h); the cache
    fill is idempotent and guarded by a lock so the table can be shared
    across threads.
    """

    def __init__(self):
        self._memo: dict[int, RationalFunction] = {0: RF_ONE}
        self._lock = threading.Lock()

    def phi(self, n: int) -> RationalFunction:
        if n < 0:
            raise ValueError("n must be non-negative")
        got = self._memo.get(n)
        if got is not None:
            return got
        with self._lock:
            top = max(self._memo)
            for m in range(top + 1, n + 1):
                sign = 1 if m % 2 == 0 else -1
                f = self._memo[m - 1] / as_rf(kappa(m).shift(-1)) * sign
                self._memo[m] = f
            return self._memo[n]


_TABLE = PhiTable()


def phi(n: int) -> RationalFunction:
    return _TABLE.phi(n)


def verify_projector_recursion(n_max: int) -> list[dict]:
    """Check (-1)^n phi_n(h+1) + phi_{n+1}(h+1) kappa_{n+1}(h) = 0 for n < n_max."""
    rows = []
    for n in range(n_max):
        sign = 1 if n % 2 == 0 else -1
        value = sign * phi(n).shift(1) + phi(n + 1).shift(1) * as_rf(kappa(n + 1))
        rows.append({"n": n, "zero": not value, "value": str(value)})
    return rows


def diamond(u: UeaElement, v: UeaElement) -> UeaElement:
    """Diamond product of the cosets of u and v in U/II.

    Bilinear over the coefficient ring; per-monomial products are cached.
    Inputs are arbitrary representatives whose iterated brackets with the
    diagonal root vectors terminate (all pure-tilde elements do).
    """
    return UeaElement(bilinear(u, v, word_root_sum, _diamond_mono))


def _bracket_chain(word, bracket, kind: str) -> tuple[UeaElement, ...]:
    """(u, bracket(u), bracket(bracket(u)), ...) for the monomial `word`,
    until the bracket vanishes."""
    u = UeaElement.monomial(word) if word else UeaElement.one()
    bound = 4 * u.max_degree() + 2
    chain = [u]
    while u:
        if len(chain) > bound:
            raise RuntimeError(f"{kind} bracket chain failed to terminate")
        u = bracket(u)
        if u:
            chain.append(u)
    return tuple(chain)


@lru_cache(maxsize=None)
def _lower_chain(mu) -> tuple[UeaElement, ...]:
    """(u, [u, X(-1)], [[u, X(-1)], X(-1)], ...) until the bracket vanishes."""
    return _bracket_chain(mu, lambda u: super_bracket(u, _X_LOWER), "lowering")


@lru_cache(maxsize=None)
def _raise_chain(mv) -> tuple[UeaElement, ...]:
    """(v, [X(1), v], [X(1), [X(1), v]], ...) until the bracket vanishes."""
    return _bracket_chain(mv, lambda v: super_bracket(_X_RAISE, v), "raising")


@lru_cache(maxsize=None)
def _diamond_mono(mu, mv) -> UeaElement:
    lefts = _lower_chain(mu)
    rights = _raise_chain(mv)
    total = mul(lefts[0], rights[0]).mod_ii()
    for n in range(1, min(len(lefts), len(rights))):
        mid = UeaElement.coeff(phi(n).shift(n))
        total = total + mul(mul(lefts[n], mid), rights[n]).mod_ii()
    return total


@lru_cache(maxsize=None)
def projected_generator(g: int) -> UeaElement:
    """P * (tilde generator) reduced mod I: the finite normal form with
    X(-1) powers on the left of the surviving tilde letters."""
    if g not in TILDE_GENS:
        raise ValueError("projected generators are defined for tilde generators only")
    acc = UeaElement.gen(g)
    total = acc.mod_i()
    lower_pow = UeaElement.one()
    n = 0
    while True:
        n += 1
        acc = super_bracket(_X_RAISE, acc)
        if not acc:
            break
        if n > 6:
            raise RuntimeError("projected generator series failed to terminate")
        lower_pow = mul(lower_pow, _X_LOWER)
        term = mul(UeaElement.coeff(phi(n)), mul(lower_pow, acc))
        total = total + term.mod_i()
    return total
