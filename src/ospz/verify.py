"""Verification suites for the reduction-algebra engine.

Each suite re-derives a family of identities from first principles and
checks them exactly (no tolerances).  Suites return JSON-serializable
reports with a uniform shape::

    {"schema_version": 1, "suite": <name>, "passed": bool, "checks": [...]}

Every entry in ``checks`` carries ``name``, ``pass`` and, where useful,
rendered witnesses.  A failing check never raises; it is reported so a
caller (CLI or test) can decide what to do.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import H, RF_ONE, RationalFunction
from .uea import (
    GENERATORS,
    T1,
    T2,
    TH,
    TILDE_GENS,
    TN1,
    TN2,
    UeaElement,
    X1,
    XN1,
    mul,
    super_bracket,
)
from .projector import diamond, kappa, phi
from .zalgebra import (
    TILDE,
    Z1,
    Z2,
    ZH,
    ZN1,
    ZN2,
    Z_ROOTS,
    Z_TOKENS,
    ZElement,
    ZMonomial,
    _tilde_key,
    all_monomials,
    catalog,
    derived_rule,
    monomials_up_to_degree,
    step_sweep,
    z_multiply,
    z_oracle_multiply,
    tilde_to_z,
    tilde_word,
    z_to_tilde,
)
from . import rep as repmod
from .text import render

SCHEMA_VERSION = 1


def _report(suite: str, checks: list[dict], **extra) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "passed": all(c["pass"] for c in checks),
        "checks": checks,
    }
    out.update(extra)
    return out


def _check(name: str, ok: bool, **extra) -> dict:
    c = {"name": name, "pass": bool(ok)}
    c.update(extra)
    return c


# ---------------------------------------------------------------------------
# projector suite
# ---------------------------------------------------------------------------

# The closed-form phi coefficients for n = 0..4, written directly.
_PHI_EXPECTED = (
    RationalFunction(1),
    RationalFunction(-1, H - 1),
    RationalFunction(-1, H - 1),
    RationalFunction(1, (H - 2) * (H - 1)),
    RationalFunction(Fraction(1, 2), (H - 2) * (H - 1)),
)


def verify_projector(n_max: int = 10) -> dict:
    checks = []
    for n, expected in enumerate(_PHI_EXPECTED):
        got = phi(n)
        checks.append(
            _check(f"phi_{n} closed form", got == expected, value=str(got))
        )

    # kappa oracle: the super bracket [X_alpha, X_-alpha^n] must equal
    # kappa_n(H) X_-alpha^(n-1) with the coefficient in leftmost position.
    x_low = UeaElement.gen(XN1)
    x_hi = UeaElement.gen(X1)
    power = UeaElement.one()
    for n in range(1, n_max + 1):
        prev, power = power, mul(power, x_low)
        bracket = super_bracket(x_hi, power)
        expected = mul(UeaElement.coeff(kappa(n)), prev)
        checks.append(
            _check(
                f"kappa_{n} matches bracket extraction",
                bracket == expected,
                kappa=str(kappa(n)),
            )
        )

    # (-1)^n phi_n(h+1) + phi_{n+1}(h+1) kappa_{n+1}(h) = 0
    for n in range(n_max):
        value = (-1) ** n * phi(n).shift(1) + phi(n + 1).shift(1) * kappa(n + 1)
        checks.append(_check(f"recursion at n={n}", not value))
    return _report("projector", checks, n_max=n_max)


# ---------------------------------------------------------------------------
# lemmas suite: the ordered diamond products of generator pairs and the
# inversion formulas expressing tilde products through diamond products, as
# two tables.  A row (a, b, [(f, c, d), ...]) states
#     lhs(a, b) == rhs(a, b) + sum f(H) rhs(c, d),
# where lhs is the diamond product and rhs the plain product for the product
# table, and the other way round for the inversion table.
# ---------------------------------------------------------------------------

# `_prod` multiplies in U and reduces modulo II only at the end, not with
# mul(..., "both") as `diamond` does: it is the independent reference the
# lemmas are checked against.
def _prod(a: int, b: int) -> UeaElement:
    return mul(TILDE[a - TN2], TILDE[b - TN2]).mod_ii()


def _diamond(a: int, b: int) -> UeaElement:
    return diamond(TILDE[a - TN2], TILDE[b - TN2])


def verify_lemmas() -> dict:
    p1, p2 = phi(1), phi(2)
    p1u, p1d = p1.shift(1), p1.shift(-1)
    # With t(2) on the right or t(-2) on the left both products agree.
    plain = [row for g in TILDE_GENS for row in ((g, T2, []), (TN2, g, []))]
    products = [
        (T1, T1, [(-2 * p1u, TH, T2)]),
        (TH, T1, [(-2 * p1, TN1, T2)]),
        (TN1, T1, [(-4 * p1d, TN2, T2)]),
        (TH, TH, [(p1, TN1, T1), (-4 * p2, TN2, T2)]),
        (TN1, TH, [(2 * p1d, TN2, T1)]),
        (TN1, TN1, [(2 * p1d, TN2, TH)]),
    ]
    inversions = [
        (T1, T1, [(2 * p1u, TH, T2)]),
        (TH, T1, [(2 * p1, TN1, T2)]),
        (TN1, T1, [(4 * p1d, TN2, T2)]),
        (TH, TH, [(-p1, TN1, T1), (4 * (p2 - p1 * p1d), TN2, T2)]),
        (TN1, TH, [(-2 * p1d, TN2, T1)]),
        (TN1, TN1, [(-2 * p1d, TN2, TH)]),
    ]
    checks = []
    for lhs, rhs, names, table in (
        (_diamond, _prod, ("{} <> {} is the plain product", "{} <> {}"), products),
        (_prod, _diamond, ("inversion: {} {}",) * 2, inversions),
    ):
        for a, b, terms in plain + table:
            want = rhs(a, b)
            for f, c, d in terms:
                want = want + rhs(c, d).scale(f)
            name = names[bool(terms)].format(GENERATORS[a].token, GENERATORS[b].token)
            checks.append(_check(name, lhs(a, b) == want))
    return _report("lemmas", checks)


# ---------------------------------------------------------------------------
# relations suite: all 14 defining-relation families, verified against the
# diamond-product oracle.  For the 12 product families the verifier derives
# the right-hand side itself and reports the discovered coefficients; the
# published coefficients are compared alongside, never assumed.
# ---------------------------------------------------------------------------

def _family_holds(row: dict) -> bool:
    """Whether the derived rule of a `catalog()` row, E(a) E(b),
    expands through z_to_tilde to exactly the diamond product t(a) <> t(b)."""
    a, b = row["key"]
    lhs = diamond(TILDE[a], TILDE[b])
    return lhs == z_to_tilde(row["derived"])


def verify_relations() -> dict:
    checks = []

    # Family (a): coefficients commute among themselves.
    f = RationalFunction(1, H - 1)
    g = RationalFunction(H, H + 1)
    fa = z_multiply(ZElement.coeff(f), ZElement.coeff(g))
    fb = z_multiply(ZElement.coeff(g), ZElement.coeff(f))
    checks.append(_check("coefficients commute: f(H) g(H) = g(H) f(H)", fa == fb))

    # Family (b): moving a generator past a coefficient shifts its argument.
    # Both products take this from engine.bilinear's coefficient shift, and so
    # does the presentation suite's "family E(k) f(H) shift", where
    # z_oracle_multiply folds no letter; the independent evidence for the rule
    # is the rep suite's matrix identity "E(k) f(H) shift".
    for gidx, root in ((ZN2, -2), (ZN1, -1), (Z1, 1), (Z2, 2)):
        lhs = z_multiply(ZElement.gen(gidx), ZElement.coeff(f))
        rhs = z_multiply(ZElement.coeff(f.shift(root)), ZElement.gen(gidx))
        checks.append(
            _check(
                f"shift rule: {Z_TOKENS[gidx]} f(H) = f(H{'+' if root > 0 else ''}{root}) {Z_TOKENS[gidx]}",
                lhs == rhs,
            )
        )

    # The 12 ordered-product families.
    mismatches = []
    for row in catalog():
        a, b = row["key"]
        check = _check(
            f"{Z_TOKENS[a]} * {Z_TOKENS[b]} rewrites exactly (oracle)",
            _family_holds(row),
            discovered=render(row["derived"]),
            published=render(row["stated"]),
            published_matches=row["match"],
        )
        checks.append(check)
        if not row["match"]:
            mismatches.append(
                {"family": row["family"], "published": check["published"], "discovered": check["discovered"]}
            )

    # Constant terms singled out by the presentation: the scalar parts of
    # E(2)E(-2) and E(1)E(-1).
    for a, b, name, want in (
        (Z2, ZN2, "E(2)*E(-2) is -H^2/(H+1)", RationalFunction(-(H * H), H + 1)),
        (Z1, ZN1, "E(1)*E(-1) is H", RationalFunction(H)),
    ):
        const = derived_rule(a, b).terms.get(ZMonomial.make(), None)
        checks.append(_check(f"constant term of {name}", const == want, value=str(const)))
    return _report(
        "relations",
        checks,
        published_mismatches=mismatches,
        note=(
            "the rewriting system uses the oracle-derived coefficients; "
            "families where the published coefficient differs are listed "
            "under published_mismatches"
        ),
    )


# ---------------------------------------------------------------------------
# presentation suite
# ---------------------------------------------------------------------------

def verify_presentation(max_exponent: int = 1) -> dict:
    """Check the presentation against the diamond oracle.

    (i) every rewrite-rule family holds under the oracle (and the published
    coefficients are compared against the derived ones), (ii) z_multiply
    agrees with z_oracle_multiply on all ordered-monomial pairs with
    p, r, t <= max_exponent, (iii) round-trip triangularity up to total
    degree 2 * max_exponent.

    (ii) is certified by step_sweep: both products fold the right factor
    into the left one letter at a time, so where the rule step and the
    oracle step agree on every (monomial, generator) the rule fold of those
    pairs reaches, every pair's two products agree.  The check keeps the
    pairs it covers in its name and `pairs`; `mismatches` counts the steps
    where the two step tables differ.
    """
    if max_exponent < 1:
        raise ValueError("max_exponent must be at least 1")
    checks = [
        _check(
            f"family {row['family']}",
            _family_holds(row),
            stated_matches_derived=row["match"],
            discovered=render(row["derived"]),
            stated=render(row["stated"]),
        )
        for row in catalog()
    ]
    # structural families: Cartan commutativity and the coefficient shift,
    # for a denominator split into integer roots and for one with a residual
    fs = (RationalFunction(1, H - 1), RationalFunction(H, H * H + 1))
    cartan_ok = all(
        z_multiply(ZElement.coeff(f), ZElement.gen(ZH)) == z_multiply(ZElement.gen(ZH), ZElement.coeff(f))
        for f in fs
    )
    checks.append(_check("family f(H) E(0) commutation", cartan_ok))
    shift_ok = all(
        z_oracle_multiply(ZElement.gen(g), ZElement.coeff(f))
        == ZElement.gen(g).scale(f.shift(Z_ROOTS[g]))
        for f in fs
        for g in range(5)
    )
    checks.append(_check("family E(k) f(H) shift", shift_ok))

    monos = len(all_monomials(max_exponent))
    mismatches = sum(len(bad) for _, _, bad in step_sweep(max_exponent))
    checks.append(
        _check(
            f"oracle sweep ({monos}^2 monomial pairs)",
            mismatches == 0,
            pairs=monos**2,
            mismatches=mismatches,
        )
    )

    round_trip = (ZElement.monomial(m) for m in monomials_up_to_degree(2 * max_exponent))
    tri_ok = all(tilde_to_z(z_to_tilde(z)) == z for z in round_trip)
    checks.append(_check(f"round trip to degree {2 * max_exponent}", tri_ok))
    return _report("presentation", checks, max_exponent=max_exponent)


# ---------------------------------------------------------------------------
# pbw suite: unit-triangularity of the change of basis between ordered
# diamond monomials and tilde monomials, plus exact round trips.
# ---------------------------------------------------------------------------

PBW_MAX_DEGREE = 4


def verify_pbw() -> dict:
    monos = monomials_up_to_degree(PBW_MAX_DEGREE)
    bad_lead, bad_lower, bad_round, bad_rev = [], [], [], []
    for mono in monos:
        z = ZElement.monomial(mono)
        expansion = z_to_tilde(z)
        lead_word = tilde_word(mono)
        lead = expansion.terms.get(lead_word, None)
        if lead != RF_ONE:
            bad_lead.append(render(z))
        key = _tilde_key(lead_word)
        for word in expansion.terms:
            if word != lead_word and _tilde_key(word) >= key:
                bad_lower.append((render(z), render(UeaElement({word: RF_ONE}))))
        if tilde_to_z(expansion) != z:
            bad_round.append(render(z))
        # reverse round trip on the pure tilde monomial of the same exponents
        u = UeaElement({lead_word: RF_ONE})
        if z_to_tilde(tilde_to_z(u)) != u:
            bad_rev.append(render(u))
    checks = [
        _check(name, not bad, failures=bad)
        for name, bad in (
            (f"leading tilde coefficient is 1 on all {len(monos)} monomials", bad_lead),
            ("correction terms are strictly lower in the triangular order", bad_lower[:10]),
            ("tilde_to_z(z_to_tilde(m)) = m on the whole span", bad_round),
            (f"z_to_tilde(tilde_to_z(w)) = w on {len(monos)} tilde monomials", bad_rev),
        )
    ]
    return _report("pbw", checks, max_degree=PBW_MAX_DEGREE)


# ---------------------------------------------------------------------------
# rep suite: the polynomial-tensor-standard module, its primitive vectors,
# and the induced matrix representation of the reduction algebra.
# ---------------------------------------------------------------------------

_EXPECTED_CORNERS = {
    ZN2: [[0, 0], [0, 0]],
    ZN1: [[0, 0], [2, 0]],
    ZH: [[Fraction(3, 2), 0], [0, Fraction(9, 2)]],
    Z1: [[0, 2], [0, 0]],
    Z2: [[0, 0], [0, 0]],
}


def verify_rep(trunc: int = 6) -> dict:
    checks = []
    module = repmod.TensorModule.standard(trunc=trunc)
    # the published vectors on the tensors y_k (x) v_i, y_k = x^k / sqrt(2)^k
    w1 = repmod.ModuleVector.basis(0, 2)
    w2 = repmod.ModuleVector.basis(0, 0) + repmod.ModuleVector.basis(1, 2).scale(2)

    # Primitive extraction in the weight window {-1/2, 1/2}.
    window = [Fraction(-1, 2), Fraction(1, 2)]
    prims = module.primitive_vectors(window)
    checks.append(
        _check(
            "window {-1/2, 1/2}: primitive space is exactly span{w1, w2}",
            len(prims) == 2 and repmod.span_dim(prims + [w1, w2]) == 2,
            basis=[repmod.x_basis_text(v) for v in prims],
        )
    )

    # Full primitive space within the closed part of the truncation.
    full_window = repmod.weight_window(Fraction(-1, 2), Fraction(2 * trunc - 5, 2))
    full = module.primitive_vectors(full_window)
    w3 = (
        repmod.ModuleVector.basis(0, 1)
        - repmod.ModuleVector.basis(1, 0).scale(2)
        + repmod.ModuleVector.basis(2, 2).scale(2)
    )
    checks.append(
        _check(
            "full primitive space is 3-dimensional: span{w1, w2, w3}",
            len(full) == 3 and repmod.span_dim(full + [w1, w2, w3]) == 3,
            basis=[repmod.x_basis_text(v) for v in full],
            note=(
                "one more primitive vector than the published span{w1, w2}: "
                "w3 = 1(x)v1 - sqrt2 x(x)v0 + x^2(x)v2 at weight 3/2"
            ),
        )
    )

    basis = [w1, w2, w3]
    eigen = [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    rho = {}
    rho_render = {}
    for g in range(5):
        m = module.rho_matrix(ZElement.gen(g), basis)
        rho[g] = m
        rho_render[Z_TOKENS[g]] = [[str(x) for x in row] for row in m]

    # The published 2x2 displays are exactly the upper-left corner blocks.
    corner_bad = [
        Z_TOKENS[g] for g, want in _EXPECTED_CORNERS.items() if [row[:2] for row in rho[g][:2]] != want
    ]
    checks.append(
        _check(
            "published matrix displays match the (w1, w2) corner blocks",
            not corner_bad,
            failures=corner_bad,
        )
    )

    # rho(f(H)) acts diagonally by evaluation: diag(f(-1/2), f(1/2), f(3/2)).
    f = RationalFunction(1, H - 1)
    fv = [module.act_coeff(f, b) for b in basis]
    diag_ok = all(
        fv[i] == basis[i].scale(f.eval(eigen[i])) for i in range(3)
    )
    checks.append(
        _check("rho(f(H)) is diag(f(-1/2), f(1/2), f(3/2)) for f = 1/(H-1)", diag_ok)
    )

    # All 14 relation families hold as exact matrix identities for the
    # computed representation.
    rel = repmod.check_rep_relations(rho, eigen)
    for c in rel["checks"]:
        checks.append(_check(f"matrix identity: {c['name']}", c["pass"]))

    # The published 2x2 matrices alone do not close under the relations;
    # report that honestly rather than reconciling it silently.
    rel2 = repmod.check_rep_relations(_EXPECTED_CORNERS, eigen[:2])
    checks.append(
        _check(
            "published 2x2 block is NOT closed under the relations (expected)",
            not rel2["passed"],
            failing_families=[c["name"] for c in rel2["checks"] if not c["pass"]],
        )
    )

    checks.append(
        _check("irreducibility witness", repmod.irreducibility_witness(rho, eigen))
    )

    # Projector behavior on module vectors: idempotent, fixes primitives,
    # kills lowering translates of primitives.
    pw = module.apply_projector(w2)
    checks.append(_check("projector fixes primitive vectors", pw == w2))
    lowered = module.act(XN1, w1)
    checks.append(
        _check(
            "projector kills lowering translates",
            not module.apply_projector(lowered),
        )
    )
    # The projector, the action and primitivity are linear, so the
    # nine basis vectors stand for every combination of them.
    tensors = [repmod.ModuleVector.basis(k, i) for k in range(3) for i in range(3)]
    images = [module.apply_projector(v) for v in tensors]
    idem_ok = all(module.apply_projector(p) == p and module.is_primitive(p) for p in images)
    checks.append(_check("projector is idempotent on x^k (x) v_i, k < 3", idem_ok))

    return _report(
        "rep",
        checks,
        trunc=trunc,
        rho=rho_render,
        eigenvalues=[str(e) for e in eigen],
    )


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

# Each suite's function and the one run_suite option it reads, if any.
SUITES = {
    "projector": (verify_projector, "n"),
    "lemmas": (verify_lemmas, None),
    "relations": (verify_relations, None),
    "presentation": (verify_presentation, "max_exp"),
    "pbw": (verify_pbw, None),
    "rep": (verify_rep, "trunc"),
}


def run_suite(name: str, *, n: int = 10, max_exp: int = 1, trunc: int = 6) -> dict:
    """Run one suite: `n` bounds the projector suite, `max_exp` the
    presentation sweep and `trunc` the rep suite's polynomial truncation."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    suite, option = SUITES[name]
    options = {"n": n, "max_exp": max_exp, "trunc": trunc}
    return suite(options[option]) if option else suite()
