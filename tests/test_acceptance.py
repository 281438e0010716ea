"""Acceptance gate: one test per release criterion, exact (zero) tolerance.

Each test prints a single ``criterion N: PASS/FAIL`` line so the gate can be
read off a plain ``pytest -s`` run.  Every identity is checked exactly over
the rational function field; there are no numerical tolerances anywhere.

Criterion 11 asserts that the published 2x2 matrices of the weight-window
example do not close, and why.  They are the (w1, w2) corner blocks of the
action on the 3-dimensional primitive space, where a product of two
generators can pass through the third primitive vector w3 at weight 3/2.
Each family's 2x2 defect is exactly minus that w3-path term, which is
nonzero in exactly four of the 14 families.
"""

import gc
import itertools
import random
import time
from fractions import Fraction

from ospz.coeffs import RF_ONE, H, RationalFunction, as_rf
from ospz.projector import (
    diamond,
    kappa,
    phi,
    projected_generator,
)
from ospz.uea import (
    GENERATORS,
    T1,
    T2,
    TH,
    TILDE_GENS,
    TN1,
    TN2,
    TOKEN_TO_GEN,
    UeaElement,
    X1,
    X2,
    XN1,
    XN2,
    mul,
    straighten,
    super_bracket,
    theta,
)
from ospz.zalgebra import (
    RULE_KEYS,
    Z_ROOTS,
    Z_TOKENS,
    Z1,
    Z2,
    ZH,
    ZN1,
    ZN2,
    ZElement,
    all_monomials,
    derived_rule,
    step_sweep,
    z_multiply,
    z_theta,
)
from ospz.verify import run_suite
from ospz import projector as projmod
from ospz import rep as repmod

ALL_GENS = (XN2, XN1, TN2, TN1, TH, T1, T2, X1, X2)


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def gen(g: int) -> UeaElement:
    return UeaElement.gen(g)


def test_criterion_01_phi_table():
    # the least of a few cold computations (memo reset to phi_0 before each)
    # measures the work, not a moment when the process is off the CPU
    gc.collect()  # so no pending collection lands in a timed window
    times = []
    for _ in range(5):
        projmod._PHI[:] = [RF_ONE]
        t0 = time.perf_counter()
        values = [phi(n) for n in range(5)]
        times.append(time.perf_counter() - t0)
    elapsed = min(times)
    expected = [
        as_rf(1),
        RationalFunction(-1, H - 1),
        RationalFunction(-1, H - 1),
        RationalFunction(1, (H - 2) * (H - 1)),
        RationalFunction(1, (H - 2) * (H - 1)) * as_rf(Fraction(1, 2)),
    ]
    ok = values == expected and elapsed < 0.001
    _line(1, ok, f"phi_0..phi_4 closed forms exact; {elapsed * 1000:.3f} ms")
    assert values == expected
    assert elapsed < 0.001, f"phi table took {elapsed * 1000:.3f} ms"


def test_criterion_02_kappa_oracle():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 11):
        power = UeaElement.one()
        for _ in range(n):
            power = mul(power, gen(XN1))
        prev = UeaElement.one()
        for _ in range(n - 1):
            prev = mul(prev, gen(XN1))
        bracket = super_bracket(gen(X1), power)
        expected = mul(UeaElement.coeff(RationalFunction(kappa(n))), prev)
        ok = ok and bracket == expected
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(2, ok, f"kappa_n bracket oracle exact for n <= 10; {elapsed:.3f} s")
    assert ok


def test_criterion_03_projector_recursion():
    rows = [c for c in run_suite("projector", n=10)["checks"] if c["name"].startswith("recursion")]
    ok = len(rows) == 10 and all(c["pass"] for c in rows)
    _line(3, ok, "(-1)^n phi_n(h+1) + phi_{n+1}(h+1) kappa_{n+1}(h) = 0, n <= 10")
    assert ok


# Iterated adjoint chains of the base generators in the diagonal copy,
# entry for entry, including the vanishing positions.
_RAISING = {
    XN2: ["X(-1)", "H", "X(1)", "-2*X(2)", "0"],
    XN1: ["H", "X(1)", "-2*X(2)", "0"],
    "H": ["X(1)", "-2*X(2)", "0"],
    X1: ["-2*X(2)", "0"],
    X2: ["0"],
}
_LOWERING = {
    XN2: ["0"],
    XN1: ["2*X(-2)", "0"],
    "H": ["X(-1)", "2*X(-2)", "0"],
    X1: ["H", "X(-1)", "2*X(-2)", "0"],
    X2: ["-X(1)", "-H", "-X(-1)", "-2*X(-2)", "0"],
}


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
        base = gen(TOKEN_TO_GEN[name])
    return UeaElement({m: c * as_rf(sign) for m, c in base.terms.items()})


def _start(key) -> UeaElement:
    if key == "H":
        return UeaElement.coeff(RationalFunction(H))
    return gen(key)


def test_criterion_04_adjoint_table():
    ok = True
    for key, chain in _RAISING.items():
        current = _start(key)
        for name in chain:
            current = super_bracket(gen(X1), current)
            ok = ok and current == _named(name)
    for key, chain in _LOWERING.items():
        current = _start(key)
        for name in chain:
            current = super_bracket(current, gen(XN1))
            ok = ok and current == _named(name)
    _line(4, ok, "adjoint chain table entry-for-entry incl. vanishing positions")
    assert ok


def test_criterion_05_projected_generators():
    def expect(spec):
        total = UeaElement.zero()
        for coeff, lower_power, tilde in spec:
            term = UeaElement.coeff(coeff)
            for _ in range(lower_power):
                term = mul(term, gen(XN1))
            total = total + mul(term, gen(tilde))
        return total

    one = as_rf(1)
    m2 = as_rf(-2)
    formulas = {
        T2: expect([(one, 0, T2)]),
        T1: expect([(one, 0, T1), (m2 * phi(1), 1, T2)]),
        TH: expect([(one, 0, TH), (phi(1), 1, T1), (m2 * phi(2), 2, T2)]),
        TN1: expect(
            [(one, 0, TN1), (phi(1), 1, TH), (phi(2), 2, T1), (m2 * phi(3), 3, T2)]
        ),
        TN2: expect(
            [
                (one, 0, TN2),
                (phi(1), 1, TN1),
                (phi(2), 2, TH),
                (phi(3), 3, T1),
                (m2 * phi(4), 4, T2),
            ]
        ),
    }
    ok = all(projected_generator(g) == want for g, want in formulas.items())
    _line(5, ok, "all five projected-generator formulas regenerated term-for-term")
    assert ok


def test_criterion_06_ordered_products_and_inversions():
    report = run_suite("lemmas")
    n = len(report["checks"])
    good = sum(1 for c in report["checks"] if c["pass"])
    ok = report["passed"] and n >= 16
    _line(6, ok, f"16 ordered diamond products + 16 inversions exact ({good}/{n})")
    assert ok, [c["name"] for c in report["checks"] if not c["pass"]]


def test_criterion_07_relation_families():
    t0 = time.perf_counter()
    report = run_suite("relations")
    elapsed = time.perf_counter() - t0
    ok = report["passed"] and elapsed < 10.0
    mism = report.get("published_mismatches", [])
    _line(
        7,
        ok,
        f"all 14 relation families verified via the projector oracle in "
        f"{elapsed:.2f} s; constants -H^2/(H+1) and +H exact; "
        f"{len(mism)} published coefficients differ from the derived ones "
        f"(reported verbatim in the relations report)",
    )
    assert report["passed"], [c["name"] for c in report["checks"] if not c["pass"]]
    assert elapsed < 10.0


def test_criterion_08_presentation_oracle_equivalence():
    # step_sweep compares the rule step with the oracle step on every
    # (monomial, generator) step the fold of the pairs reaches; both
    # products are that fold, so agreeing steps mean agreeing products
    def sweep(max_exp):
        rows = list(step_sweep(max_exp))
        pairs = len(rows) * len(all_monomials(max_exp))
        steps = sum(len(reached) for _, reached, _ in rows)
        return pairs, steps, sum(len(bad) for _, _, bad in rows)

    pairs, steps, bad = sweep(1)
    t0 = time.perf_counter()
    stretch_pairs, stretch_steps, stretch_bad = sweep(2)
    elapsed = time.perf_counter() - t0
    assert (pairs, steps, stretch_pairs, stretch_steps) == (1024, 594, 11664, 2498)
    ok = bad == stretch_bad == 0 and elapsed < 300.0
    _line(
        8,
        ok,
        f"z_multiply = z_oracle_multiply on {pairs} base pairs and "
        f"{stretch_pairs} stretch pairs exactly: their {steps} and "
        f"{stretch_steps} rule steps equal the oracle steps; stretch sweep "
        f"{elapsed:.1f} s (< 300 s)",
    )
    assert ok, f"mismatches={bad + stretch_bad} elapsed={elapsed:.1f}s"


def test_criterion_09_pbw_triangularity():
    report = run_suite("pbw")
    ok = report["passed"]
    _line(
        9,
        ok,
        "change of basis up to degree 4 is unit-triangular; "
        "both round trips are the identity",
    )
    assert ok, [c["name"] for c in report["checks"] if not c["pass"]]


def test_criterion_10_theta():
    def zgen(g):
        return ZElement.gen(g)

    involution = all(theta(theta(gen(g))) == gen(g) for g in ALL_GENS) and all(
        z_theta(z_theta(zgen(g))) == zgen(g) for g in range(5)
    )
    anti = all(
        z_theta(z_multiply(zgen(a), zgen(b)))
        == z_multiply(z_theta(zgen(b)), z_theta(zgen(a)))
        for a, b in itertools.product(range(5), repeat=2)
    )
    # the E(1)E(-2) rewriting rule is the theta image of the E(2)E(-1) one
    derived = z_multiply(zgen(Z1), zgen(ZN2))
    via_theta = -z_theta(z_multiply(zgen(Z2), zgen(ZN1)))
    derivation = derived == via_theta and derived == derived_rule(Z1, ZN2)
    ok = involution and anti and derivation
    _line(
        10,
        ok,
        "theta is an involution, anti-multiplicative on all 25 generator "
        "pairs, and derives the E(1)E(-2) rule from the E(2)E(-1) rule",
    )
    assert ok


def test_criterion_11_weight_window_example():
    module = repmod.TensorModule.standard(trunc=6)
    # the published vectors on the tensors y_k (x) v_i, y_k = x^k / sqrt(2)^k
    w1 = repmod.ModuleVector.basis(0, 2)
    w2 = repmod.ModuleVector.basis(0, 0) + repmod.ModuleVector.basis(1, 2).scale(2)
    w3 = (
        repmod.ModuleVector.basis(0, 1)
        - repmod.ModuleVector.basis(1, 0).scale(2)
        + repmod.ModuleVector.basis(2, 2).scale(2)
    )

    prims = module.primitive_vectors([Fraction(-1, 2), Fraction(1, 2)])
    window_ok = len(prims) == 2 and repmod.span_dim(prims + [w1, w2]) == 2

    basis = [w1, w2, w3]
    eigen = [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    rho = {g: module.rho_matrix(ZElement.gen(g), basis) for g in range(5)}

    z = 0
    displays = {
        Z1: [[z, 2], [z, z]],
        ZN1: [[z, z], [2, z]],
        Z2: [[z, z], [z, z]],
        ZN2: [[z, z], [z, z]],
        ZH: [[Fraction(3, 2), z], [z, Fraction(9, 2)]],
    }
    corners_ok = all(
        [[rho[g][i][j] for j in range(2)] for i in range(2)] == want
        for g, want in displays.items()
    )
    f = RationalFunction(1, H - 1)
    diag_ok = all(
        module.act_coeff(f, v) == v.scale(f.eval(mu))
        for v, mu in ((w1, Fraction(-1, 2)), (w2, Fraction(1, 2)))
    )
    full_ok = repmod.check_rep_relations(rho, eigen)["passed"]
    irr_ok = repmod.irreducibility_witness(rho, eigen)

    # The displays fail exactly these families, and each 2x2 defect is
    # minus the part of the 3x3 identity routed through w3.
    two_by_two = repmod.check_rep_relations(displays, eigen[:2])
    failing = {c["name"] for c in two_by_two["checks"] if not c["pass"]}
    failing_ok = failing == set(_W3_PATHS)
    defects = _family_values(displays, eigen, _corner_product)
    paths = _family_values(rho, eigen, _w3_path)
    off_path = [
        name
        for name, d in defects.items()
        if d != [[[-x for x in row] for row in p] for p in paths[name]]
    ]
    path_ok = len(defects) == 14 and not off_path
    nonzero_paths = {
        name: [_nonzero(p) for p in ps]
        for name, ps in paths.items()
        if any(_nonzero(p) for p in ps)
    }
    pinned_ok = nonzero_paths == {
        name: [want] for name, want in _W3_PATHS.items()
    }

    ok = (
        window_ok
        and corners_ok
        and diag_ok
        and full_ok
        and irr_ok
        and failing_ok
        and path_ok
        and pinned_ok
    )
    _line(
        11,
        ok,
        "window extraction = span{w1, w2}; displayed matrices match; "
        "rho(f(H)) evaluates diagonally; irreducibility witness passes; "
        "the 14 families hold as exact 3x3 identities on the full "
        "primitive space (incl. w3 at weight 3/2); the 2x2 displays fail "
        "exactly E(1) E(-2), E(1) E(-1), E(2) E(-2), E(2) E(-1), each "
        "defect being minus the path through w3",
    )
    assert window_ok and corners_ok and diag_ok and full_ok and irr_ok
    assert failing_ok, sorted(failing)
    assert path_ok, f"2x2 defect is not minus the w3 path in {off_path}"
    assert pinned_ok, nonzero_paths


# The nonzero w3-path entries (1-based row, column) of the four families the
# 2x2 displays fail; the path term of every other family is zero.
_W3_PATHS = {
    "E(1) E(-2)": {(2, 1): -12},
    "E(1) E(-1)": {(2, 2): -36},
    "E(2) E(-2)": {(1, 1): 4},
    "E(2) E(-1)": {(1, 2): 12},
}


def _corner_product(a, b, i, j):
    return sum(a[i][t] * b[t][j] for t in range(len(b)))


def _w3_path(a, b, i, j):
    return a[i][2] * b[2][j]


def _family_values(rho, eigen, product):
    """Evaluate each of the 14 relation families on the (w1, w2) corner.

    A family is a list of identities sum_k c_k(H) A_k B_k = 0, where A_k and
    B_k are generator matrices, f(H) diagonals or the identity; the value of
    a family is one 2x2 matrix per identity.  `product(A, B, i, j)` picks the
    part of (A B)[i][j] that is taken: the whole product on the 2x2 displays
    gives the defect, the step through index 2 on the 3x3 matrices gives the
    w3-path term.
    """
    n = len(rho[ZH])
    mus = eigen[:n]

    def diag(fn):
        return [
            [fn.eval(mus[i]) if i == j else 0 for j in range(n)]
            for i in range(n)
        ]

    one = diag(as_rf(1))
    f = RationalFunction(1, H - 1)
    families = {}
    for a, b in RULE_KEYS:
        terms = [(as_rf(1), rho[a], rho[b])]
        for mono, coeff in derived_rule(a, b):
            letters = [rho[g] for g in mono.letters()]
            assert len(letters) <= 2
            terms.append((-coeff, *([one] * (2 - len(letters)) + letters)))
        families[f"{Z_TOKENS[a]} {Z_TOKENS[b]}"] = [terms]
    families["f(H) E(0) commutation"] = [
        [(as_rf(1), diag(f), rho[ZH]), (as_rf(-1), rho[ZH], diag(f))]
    ]
    families["E(k) f(H) shift"] = [
        [
            (as_rf(1), rho[g], diag(f)),
            (as_rf(-1), diag(f.shift(Z_ROOTS[g])), rho[g]),
        ]
        for g in range(5)
    ]
    return {
        name: [
            [
                [
                    sum(c.eval(eigen[i]) * product(x, y, i, j) for c, x, y in identity)
                    for j in range(2)
                ]
                for i in range(2)
            ]
            for identity in identities
        ]
        for name, identities in families.items()
    }


def _nonzero(m):
    return {
        (i + 1, j + 1): x
        for i, row in enumerate(m)
        for j, x in enumerate(row)
        if x != 0
    }


def test_criterion_12_property_suites():
    confluence = True
    for seed in range(100):
        rng = random.Random(seed)
        word = [rng.choice(ALL_GENS) for _ in range(rng.randint(2, 6))]
        reference = straighten(word)
        pick = random.Random(seed + 1)
        chooser = lambda viols, w: pick.randrange(len(viols))
        confluence = confluence and straighten(word, chooser=chooser) == reference

    assoc = all(
        diamond(diamond(gen(a), gen(b)), gen(c))
        == diamond(gen(a), diamond(gen(b), gen(c)))
        for a, b, c in itertools.product(TILDE_GENS, repeat=3)
    )

    def parity(g):
        return 1 if GENERATORS[g].odd else 0

    jacobi = True
    for a, b, c in itertools.product(ALL_GENS, repeat=3):
        ea, eb, ec = gen(a), gen(b), gen(c)
        lhs = super_bracket(ea, super_bracket(eb, ec))
        rhs = super_bracket(super_bracket(ea, eb), ec)
        term = super_bracket(eb, super_bracket(ea, ec))
        rhs = rhs - term if (parity(a) and parity(b)) else rhs + term
        jacobi = jacobi and lhs == rhs

    conserved = True
    rng = random.Random(41)
    for _ in range(60):
        word = [rng.choice(ALL_GENS) for _ in range(rng.randint(2, 5))]
        weight = sum(GENERATORS[g].root for g in word)
        par = sum(1 for g in word if GENERATORS[g].odd) % 2
        for m in straighten(word).terms:
            conserved = conserved and m.root_sum() == weight
            conserved = conserved and m.parity() == par

    ok = confluence and assoc and jacobi and conserved
    _line(
        12,
        ok,
        "confluence (100 seeds), diamond associativity (125 triples), "
        "graded Jacobi (729 triples), weight/parity conservation",
    )
    assert ok, (confluence, assoc, jacobi, conserved)
