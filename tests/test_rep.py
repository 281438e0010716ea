"""Tests for the polynomial-tensor-standard module and the induced
matrix representation of the reduction algebra."""

import random
from fractions import Fraction

import pytest

import json
from pathlib import Path

from ospz.coeffs import H, RationalFunction
from ospz.uea import T1, T2, TH, TILDE_GENS, TN1, X1, X2, XN1, XN2
from ospz.verify import verify_rep
from ospz.zalgebra import Z1, Z2, ZH, ZN1, ZN2, ZElement
from ospz.rep import (
    IrrepData,
    ModuleVector,
    NotPrimitive,
    PolyModule,
    TensorModule,
    TruncationOverflow,
    check_rep_relations,
    eliminate,
    irreducibility_witness,
    span_dim,
    weight_window,
    x_basis_text,
)

EIGEN = [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]  # weights of w1, w2, w3


# The published vectors, on the tensors y_k (x) v_i with y_k = x^k / sqrt(2)^k.
def w1():
    return ModuleVector.basis(0, 2)


def w2():
    return ModuleVector.basis(0, 0) + ModuleVector.basis(1, 2).scale(2)


def w3():
    return (
        ModuleVector.basis(0, 1)
        - ModuleVector.basis(1, 0).scale(2)
        + ModuleVector.basis(2, 2).scale(2)
    )


@pytest.fixture(scope="module")
def module():
    return TensorModule.standard(trunc=6)


class TestIrrepData:
    @pytest.mark.parametrize("lam", [0, 1, 2, 3])
    def test_defining_relations(self, lam):
        irrep = IrrepData.from_highest_weight(lam)
        irrep.validate()
        assert irrep.dimension == 2 * lam + 1

    def test_standard_copy_is_valid(self):
        irrep = IrrepData.standard()
        irrep.validate()
        assert sorted(
            irrep.h_eigenvalue(j) for j in range(3)
        ) == [-1, 0, 1]


class TestPolyModule:
    def test_cartan_spectrum(self):
        poly = PolyModule(6)
        assert [poly.h_eigenvalue(k) for k in range(3)] == [
            Fraction(1, 2),
            Fraction(3, 2),
            Fraction(5, 2),
        ]

    def test_ladder_bracket_is_cartan(self):
        # the anticommutator {x_alpha, x_-alpha} acts as h on y_k
        poly = PolyModule(6)
        for k in range(5):
            deg, c1 = poly.act(-1, k)
            _, c2 = poly.act(1, deg)
            total = c1 * c2
            if k > 0:
                deg, d1 = poly.act(1, k)
                _, d2 = poly.act(-1, deg)
                total = total + d1 * d2
            assert total == poly.h_eigenvalue(k), k

    def test_truncation_overflow(self):
        poly = PolyModule(2)
        with pytest.raises(TruncationOverflow):
            poly.act(-1, 2)


class TestTensorModule:
    def test_weight_compatibility(self, module):
        v = ModuleVector.basis(2, 1)
        mu = module.weight(2, 1)
        for g, root in ((XN2, -2), (XN1, -1), (X1, 1), (X2, 2)):
            image = module.act(g, v)
            for k, i in image.terms:
                assert module.weight(k, i) == mu - root, g

    def test_supercommutators_hold_on_vectors(self, module):
        # spot-check the module property [a, b] v = a(bv) -+ b(av) for the
        # doubled algebra acting through the tensor construction
        from ospz.uea import GENERATORS, UeaElement, super_bracket

        probes = [ModuleVector.basis(k, i) for k in range(3) for i in range(3)]
        gens = (XN2, XN1, X1, X2, TILDE_GENS[0], TN1, TH, T1, T2)
        for a in gens:
            for b in gens:
                bracket = super_bracket(UeaElement.gen(a), UeaElement.gen(b))
                sign = -1 if (GENERATORS[a].odd and GENERATORS[b].odd) else 1
                for v in probes:
                    direct = module.act_uea(bracket, v)
                    ab = module.act(a, module.act(b, v))
                    ba = module.act(b, module.act(a, v))
                    two_sided = ab - ba.scale(sign)
                    assert direct == two_sided, (a, b)

    def test_primitive_window(self, module):
        prims = module.primitive_vectors([Fraction(-1, 2), Fraction(1, 2)])
        assert len(prims) == 2
        assert span_dim(prims + [w1(), w2()]) == 2

    def test_full_primitive_space_is_three_dimensional(self, module):
        weights = [Fraction(2 * n - 1, 2) for n in range(0, 5)]
        prims = module.primitive_vectors(weights)
        assert len(prims) == 3
        # the third primitive vector sits at weight 3/2
        v3 = prims[2]
        assert all(module.weight(k, i) == Fraction(3, 2) for k, i in v3.terms)
        assert module.is_primitive(v3)

    def test_projector_fixes_primitives_and_kills_translates(self, module):
        assert module.apply_projector(w1()) == w1()
        assert module.apply_projector(w2()) == w2()
        lowered = module.act(XN1, w1())
        assert not module.apply_projector(lowered)

    def test_act_z_requires_primitive(self, module):
        with pytest.raises(NotPrimitive):
            module.act_z(ZElement.gen(Z1), ModuleVector.basis(1, 1))

    def test_rho_matrix_rejects_a_span_the_action_leaves(self, module):
        # E(-1) w2 = -6 w3 lies outside span{w1, w2}
        assert module.act_z(ZElement.gen(ZN1), w2()) == w3().scale(-6)
        with pytest.raises(NotPrimitive, match="left the primitive span"):
            module.rho_matrix(ZElement.gen(ZN1), [w1(), w2()])


@pytest.mark.parametrize("seed", range(20))
def test_elimination_on_random_sparse_vectors(seed):
    # five keys, eight inputs, some of them combinations of earlier ones;
    # input j has the source e_j
    rng = random.Random(seed)
    keys = [(0, i) for i in range(5)]

    def scalar():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 3))

    inputs = []
    for _ in range(8):
        if inputs and rng.random() < 0.3:
            v = sum((u.scale(scalar()) for u in rng.sample(inputs, min(2, len(inputs)))), ModuleVector())
        else:
            v = ModuleVector({key: scalar() for key in rng.sample(keys, rng.randint(0, 3))})
        inputs.append(v)
    pivots, null = eliminate((v, ModuleVector({j: 1})) for j, v in enumerate(inputs))
    assert len(pivots) + len(null) == len(inputs) and null
    for source in null:
        image = sum((inputs[j].scale(c) for j, c in source.terms.items()), ModuleVector())
        assert not image
    # a null source's own input is the last one it involves
    own = [max(source.terms) for source in null]
    assert len(set(own)) == len(own)
    for source, j in zip(null, own):
        assert source.terms[j] == 1
        assert not any(source.terms.get(other) for other in own if other != j)


class TestRho:
    @pytest.fixture()
    def rho(self, module):
        basis = [w1(), w2(), w3()]
        return {
            g: module.rho_matrix(ZElement.gen(g), basis) for g in range(5)
        }

    def test_corner_blocks_match_published_displays(self, rho):
        def corner(m):
            return [[m[i][j] for j in range(2)] for i in range(2)]

        z, two = 0, 2
        assert corner(rho[Z1]) == [[z, two], [z, z]]
        assert corner(rho[ZN1]) == [[z, z], [two, z]]
        assert corner(rho[Z2]) == [[z, z], [z, z]]
        assert corner(rho[ZN2]) == [[z, z], [z, z]]
        assert corner(rho[ZH]) == [
            [Fraction(3, 2), z],
            [z, Fraction(9, 2)],
        ]

    def test_full_matrices(self, rho):
        # the action does not vanish on the full primitive space: E(-2)
        # and E(-1) reach the weight-3/2 primitive vector
        assert rho[ZN2][2][0] == -2
        assert rho[ZN1][2][1] == -6
        assert rho[Z2][0][2] == -2
        assert rho[ZH][2][2] == Fraction(-9, 2)

    def test_all_relation_families_hold_as_matrix_identities(self, rho):
        report = check_rep_relations(rho, EIGEN)
        assert report["passed"], [
            c["name"] for c in report["checks"] if not c["pass"]
        ]

    def test_published_two_by_two_block_does_not_close(self):
        # Substituting the published 2x2 matrices alone into the relations
        # fails in exactly the four families whose products pass through
        # the third primitive vector w3 (E(1) and E(2) leave w3, E(-1) and
        # E(-2) reach it).
        z, two = 0, 2
        rho2 = {
            Z1: [[z, two], [z, z]],
            ZN1: [[z, z], [two, z]],
            Z2: [[z, z], [z, z]],
            ZN2: [[z, z], [z, z]],
            ZH: [[Fraction(3, 2), z], [z, Fraction(9, 2)]],
        }
        report = check_rep_relations(rho2, [Fraction(-1, 2), Fraction(1, 2)])
        failing = {c["name"] for c in report["checks"] if not c["pass"]}
        assert failing == {"E(1) E(-2)", "E(1) E(-1)", "E(2) E(-2)", "E(2) E(-1)"}

    @pytest.mark.parametrize(
        "g, i, j, entry, failing",
        [
            # E(0) is no longer diagonal: both structural checks fail, and
            # eight families
            (
                ZH, 0, 1, lambda x: 1,
                {"E(-1) E(-1)", "E(0) E(-1)", "E(0) E(-2)", "E(1) E(-1)", "E(1) E(-2)",
                 "E(1) E(0)", "E(2) E(-1)", "E(2) E(-2)", "f(H) E(0) commutation", "E(k) f(H) shift"},
            ),
            # E(1) sending w3 to w1 lowers the weight by 2, not 1
            (
                Z1, 0, 2, lambda x: 1,
                {"E(1) E(-1)", "E(1) E(-2)", "E(1) E(0)", "E(2) E(-1)", "E(2) E(-2)", "E(k) f(H) shift"},
            ),
            # a wrong scalar keeps the weights: the structural checks pass
            (
                Z1, 0, 1, lambda x: x * 2,
                {"E(1) E(-2)", "E(1) E(-1)", "E(1) E(1)", "E(2) E(-2)", "E(2) E(-1)"},
            ),
        ],
        ids=["H off-diagonal", "E(1) off-weight", "E(1) doubled"],
    )
    def test_a_perturbed_matrix_fails_exactly_these_checks(self, rho, g, i, j, entry, failing):
        perturbed = {k: [row[:] for row in m] for k, m in rho.items()}
        perturbed[g][i][j] = entry(perturbed[g][i][j])
        report = check_rep_relations(perturbed, EIGEN)
        assert not report["passed"]
        assert {c["name"] for c in report["checks"] if not c["pass"]} == failing

    def test_irreducibility(self, rho):
        assert irreducibility_witness(rho, EIGEN)

    def test_certificate_sees_an_invariant_line(self, rho):
        # without E(1) and E(2) nothing leaves w3, so span{w3} is invariant
        zero = [[0] * 3 for _ in range(3)]
        assert not irreducibility_witness({**rho, Z1: zero, Z2: zero}, EIGEN)

    def test_certificate_needs_distinct_eigenvalues(self, rho):
        with pytest.raises(ValueError, match="distinct"):
            irreducibility_witness(rho, [Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)])

    def test_rho_of_coefficient_is_diagonal_evaluation(self, module):
        f = RationalFunction(1, H - 1)
        for v, mu in ((w1(), Fraction(-1, 2)), (w2(), Fraction(1, 2))):
            assert module.act_coeff(f, v) == v.scale(f.eval(mu))


_REAL_PROJECTOR = TensorModule.apply_projector


@pytest.mark.parametrize(
    "projector",
    [
        lambda self, v: v,  # idempotent, but non-primitive vectors stay
        lambda self, v: _REAL_PROJECTOR(self, v) + _REAL_PROJECTOR(self, v),
    ],
    ids=["identity", "doubled"],
)
def test_rep_report_catches_a_wrong_projector(monkeypatch, projector):
    monkeypatch.setattr(TensorModule, "apply_projector", projector)
    checks = {c["name"]: c["pass"] for c in verify_rep(6)["checks"]}
    assert checks["projector is idempotent on x^k (x) v_i, k < 3"] is False


@pytest.mark.parametrize("lam", [2, 3])
def test_polynomial_tensor_irrep_is_an_irreducible_z_module(lam):
    # C[x] (x) V(lambda): 2 lambda + 1 primitive vectors, one at each weight
    # -lambda + 1/2 .. lambda + 1/2, on which every relation family holds
    # and the weight graph is strongly connected.
    trunc = 2 * lam + 6
    module = TensorModule(PolyModule(trunc), IrrepData.from_highest_weight(lam))
    low = Fraction(1, 2) - lam
    basis = module.primitive_vectors(weight_window(low, low + trunc))
    eigen = [module.weight(*next(iter(v.terms))) for v in basis]
    assert eigen == weight_window(low, Fraction(1, 2) + lam)
    rho = {g: module.rho_matrix(ZElement.gen(g), basis) for g in range(5)}
    report = check_rep_relations(rho, eigen)
    assert len(report["checks"]) == 14 and report["passed"]
    assert irreducibility_witness(rho, eigen)


class TestRationalScalars:
    def test_module_scalars_reject_floats(self):
        with pytest.raises(TypeError):
            ModuleVector.basis(0, 0).scale(0.5)

    def test_every_action_entry_is_rational(self, module):
        def rational(x):
            return type(x) in (int, Fraction)

        for lam in range(4):
            for images in IrrepData.from_highest_weight(lam).matrices.values():
                assert all(rational(x) for image in images for x in image.values()), lam
        poly = PolyModule(6)
        for root in (-2, -1, 0, 1, 2):
            for k in range(poly.trunc + 1 + min(root, 0)):  # lowering stays within trunc
                assert rational(poly.act(root, k)[1]), (root, k)
        basis = [w1(), w2(), w3()]
        for g in range(5):
            m = module.rho_matrix(ZElement.gen(g), basis)
            assert all(rational(x) for row in m for x in row), g


class TestPublishedText:
    GOLDEN = json.loads((Path(__file__).parent / "golden" / "rep.json").read_text())

    def test_published_vectors_render_as_the_golden_basis(self):
        full = next(c for c in self.GOLDEN["checks"] if c["name"].startswith("full primitive space"))
        assert [x_basis_text(v) for v in (w1(), w2(), w3())] == full["basis"]
        # the vector itself prints honestly, unscaled, on the tensors y_k (x) v_i
        assert repr(w2()) == "ModuleVector((1) y^0*v0 + (2) y^1*v2)"

    @pytest.mark.parametrize("c", [2, -1, Fraction(1, 3), Fraction(-7, 4), 12])
    def test_text_ignores_a_nonzero_scale(self, c):
        module = TensorModule(PolyModule(6), IrrepData.from_highest_weight(2))
        vectors = [w1(), w2(), w3()] + module.primitive_vectors(weight_window(Fraction(-3, 2), Fraction(9, 2)))
        for v in vectors:
            assert x_basis_text(v.scale(c)) == x_basis_text(v)
