"""Tests for the reduction algebra: the rewriting system, the diamond
oracle, the relation catalog, and the triangular change of basis."""

import copy
import itertools
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest

from ospz.coeffs import H, RF_ONE, Polynomial, RationalFunction, as_rf
from ospz.engine import ordered_times
from ospz.rep import ModuleVector
from ospz.text import parse_element, render
from ospz.uea import X1, UeaElement
from ospz.zalgebra import (
    RULE_KEYS,
    STATED_RULES,
    Z1,
    Z2,
    ZH,
    ZN1,
    ZN2,
    ZElement,
    ZMonomial,
    all_monomials,
    catalog,
    derived_rule,
    step_sweep,
    tilde_to_z,
    tilde_word,
    z_multiply,
    z_oracle_multiply,
    z_straighten,
    z_theta,
    z_to_tilde,
)
from ospz import verify
from ospz.verify import run_suite


def zgen(g):
    return ZElement.gen(g)


class TestRelationCatalog:
    def test_every_rule_family_is_covered(self):
        # pairs (a, b) with a > b, plus the three equal odd pairs handled
        # by the rewriting of squares
        assert len(RULE_KEYS) == 12

    def test_derived_rules_verify_against_diamond_oracle(self):
        # The tilde expansion of each rewritten product must equal the
        # diamond product of the corresponding generators.
        from ospz.projector import diamond
        from ospz.uea import TILDE_GENS

        for a, b in RULE_KEYS:
            lhs = diamond(
                UeaElement.gen(TILDE_GENS[a]), UeaElement.gen(TILDE_GENS[b])
            )
            assert z_to_tilde(derived_rule(a, b)) == lhs, (a, b)

    def test_exactly_three_published_coefficients_disagree(self):
        rows = catalog()
        mismatched = sorted(r["family"] for r in rows if not r["match"])
        assert mismatched == ["E(-1) E(-2)", "E(2) E(-2)", "E(2) E(1)"]

    def test_discovered_coefficients_for_disagreeing_families(self):
        # E(2) E(1): leading coefficient (H-1)/(H+1), not (H-3)/(H-1)
        rule = derived_rule(Z2, Z1)
        mono = ZMonomial.make(s=1, t=1)
        assert rule.terms[mono] == RationalFunction(H - 1, H + 1)
        # E(-1) E(-2): leading coefficient (H-4)/(H-2), not (H-6)/(H-4)
        rule = derived_rule(ZN1, ZN2)
        mono = ZMonomial.make(p=1, q=1)
        assert rule.terms[mono] == RationalFunction(H - 4, H - 2)
        # E(2) E(-2): coefficient of E(-2)E(2) is (H^2-H)/(H^2-H-2)
        rule = derived_rule(Z2, ZN2)
        mono = ZMonomial.make(p=1, t=1)
        assert rule.terms[mono] == RationalFunction(H * H - H, H * H - H - 2)

    def test_constant_terms(self):
        assert derived_rule(Z2, ZN2).terms[ZMonomial.make()] == RationalFunction(
            -(H * H), H + 1
        )
        assert derived_rule(Z1, ZN1).terms[ZMonomial.make()] == RationalFunction(H)

    def test_agreeing_families_match_published_coefficients(self):
        rows = {r["family"]: r for r in catalog()}
        assert rows["E(1) E(1)"]["match"]
        stated = STATED_RULES[(Z1, Z1)]
        assert stated.terms[ZMonomial.make(r=1, t=1)] == RationalFunction(2, H)


class TestMultiplication:
    def test_oracle_equivalence_on_unit_exponents(self):
        monos = all_monomials(1)
        assert len(monos) == 32  # ordered monomials with all exponents <= 1
        rows = list(step_sweep(1))
        assert [mu for mu, _, _ in rows] == monos
        assert not any(bad for _, _, bad in rows)

    def test_step_sweep_compares_the_steps_of_the_pairwise_sweep(self):
        # from cold caches, the step sweep computes exactly the oracle steps
        # that comparing the two products on all 1 024 pairs does
        import ospz.zalgebra as zalgebra

        caches = (zalgebra._z_mono_times_gen, zalgebra._oracle_fold, zalgebra._z_mono_tilde)
        monos = [ZElement.monomial(m) for m in all_monomials(1)]

        def cold(sweep):
            # run a sweep from cold caches; return it and the oracle steps it computed
            for cache in caches:
                cache.cache_clear()
            return sweep(), zalgebra._oracle_fold.cache_info().currsize

        try:
            agree, pairwise = cold(lambda: all(z_multiply(u, v) == z_oracle_multiply(u, v) for u in monos for v in monos))
            rows, steps = cold(lambda: list(step_sweep(1)))
        finally:
            for cache in caches:
                cache.cache_clear()
        assert agree and not any(bad for _, _, bad in rows)
        assert steps == pairwise == sum(len(reached) for _, reached, _ in rows) == 594

    def test_step_sweep_reports_a_wrong_step(self, monkeypatch):
        # one wrong rule step: the step sweep names exactly it, and the
        # presentation report counts one mismatch and fails
        import ospz.zalgebra as zalgebra

        m, g = ZMonomial.make(q=1, r=1), Z1
        right = zalgebra._z_mono_times_gen

        def wrong_on_one_step(mono, gen):
            step = right(mono, gen)
            return step + ZElement.one() if (mono, gen) == (m, g) else step

        monkeypatch.setattr(zalgebra, "_z_mono_times_gen", wrong_on_one_step)
        assert [step for _, _, bad in step_sweep(1) for step in bad] == [(m, g)]
        report = run_suite("presentation")
        sweep = next(c for c in report["checks"] if c["name"].startswith("oracle sweep"))
        assert sweep["mismatches"] == 1
        assert not sweep["pass"] and not report["passed"]

    def test_ordered_oracle_steps_equal_their_diamond(self):
        # an ordered step reads its expansion from _z_mono_tilde; it must
        # equal the diamond built directly
        import ospz.zalgebra as zalgebra
        from ospz.projector import diamond
        from ospz.uea import TILDE_GENS

        ordered = 0
        for _, steps, _ in step_sweep(1):
            for m, g in steps:
                last = m.letters()[-1:]
                if last and (g < last[0] or (g == last[0] and ZMonomial.ODD[g])):
                    continue
                ordered += 1
                direct = tilde_to_z(diamond(zalgebra._z_mono_tilde(m), UeaElement.gen(TILDE_GENS[g])))
                assert zalgebra._oracle_fold(m, g) == direct, (m, g)
        assert ordered == 298

    def test_oracle_reads_no_rewrite_rule(self, monkeypatch):
        # perturbing one derived coefficient changes z_multiply but must not
        # move the oracle, and the sweep must then report a mismatch
        import ospz.zalgebra as zalgebra

        caches = (
            zalgebra._z_mono_times_gen,
            zalgebra._oracle_fold,
            zalgebra._z_mono_tilde,
        )
        u, v = zgen(Z1), z_multiply(zgen(ZN1), zgen(ZH))
        expected = z_oracle_multiply(u, v)
        rules = dict(zalgebra._z_pair_rules())
        (sign, f, letters), *rest = rules[Z1, ZN1]
        rules[Z1, ZN1] = ((sign, f + RF_ONE, letters), *rest)
        monkeypatch.setattr(zalgebra, "_z_pair_rules", lambda: rules)
        try:
            for cache in caches:
                cache.cache_clear()
            assert z_oracle_multiply(u, v) == expected
            assert z_multiply(u, v) != expected
            assert any(bad for _, _, bad in step_sweep(1))
        finally:
            for cache in caches:
                cache.cache_clear()

    def test_presentation_suite_builds_no_u_generator(self, monkeypatch):
        # from cold caches, the oracle reads the tilde generators built at
        # import instead of building one per step
        import ospz.projector as projector
        import ospz.uea as uea
        import ospz.zalgebra as zalgebra

        caches = (
            zalgebra._oracle_fold,
            zalgebra._z_mono_tilde,
            zalgebra._z_mono_times_gen,
            zalgebra._tilde_key,
            projector._diamond_mono,
            projector._lower_chain,
            projector._raise_chain,
            uea._word_times_gen,
            uea._word_times_word,
        )
        calls = []
        real = UeaElement.gen
        monkeypatch.setattr(UeaElement, "gen", staticmethod(lambda g: calls.append(g) or real(g)))
        for cache in caches:
            cache.cache_clear()
        assert run_suite("presentation")["passed"]
        assert calls == []

    def test_associativity_on_generator_triples(self):
        # This certifies that straightening in Z is confluent.  The 125
        # triples hold the 20 overlaps E(a)E(b)E(c) of the 12 pair rules, and
        # each side is the normal form reached from r_ab * c or from a * r_bc:
        # equal sides are Bergman's resolvability condition for the overlap.
        for a, b, c in itertools.product(range(5), repeat=3):
            u, v, w = zgen(a), zgen(b), zgen(c)
            assert z_multiply(z_multiply(u, v), w) == z_multiply(
                u, z_multiply(v, w)
            ), (a, b, c)

    def test_associativity_on_random_elements(self):
        # two-term factors with coefficients, so the oracle's coefficient
        # shift is reached from both ends of a product
        rng = random.Random(23)
        monos = all_monomials(1)
        coeffs = (RationalFunction(H + 2, H - 1), 3, RationalFunction(1, H + 1))

        def element():
            terms = [(rng.choice(monos), rng.choice(coeffs)) for _ in range(2)]
            return sum((ZElement.monomial(m, c) for m, c in terms), ZElement.zero())

        for _ in range(10):
            u, v = element(), element()
            w = zgen(rng.randrange(5))
            assert z_multiply(z_multiply(u, v), w) == z_multiply(
                u, z_multiply(v, w)
            )
            assert z_oracle_multiply(u, v) == z_multiply(u, v)

    def test_coefficient_shift(self):
        f = RationalFunction(1, H - 1)
        for g, root in ((ZN2, -2), (ZN1, -1), (ZH, 0), (Z1, 1), (Z2, 2)):
            lhs = z_multiply(zgen(g), ZElement.coeff(f))
            rhs = z_multiply(ZElement.coeff(f.shift(root)), zgen(g))
            assert lhs == rhs, g

    @pytest.mark.parametrize(
        "make",
        [lambda: z_straighten([Z2] * 32 + [ZN2] * 32, 0), lambda: parse_element("0 E(2)^32 E(-2)^32", "z")],
        ids=["z_straighten", "parse_element"],
    )
    def test_a_zero_scalar_straightens_nothing(self, make):
        # z_straighten's zero exit: folding E(2)^32 E(-2)^32 would take minutes
        t0 = time.perf_counter()
        assert make() == ZElement.zero()
        assert time.perf_counter() - t0 < 1

    def test_straightening_confluence(self):
        # A coefficient item inserted anywhere must give the product with
        # that coefficient, which `z_multiply` shifts itself (bilinear).
        # The order of rewriting is certified by the generator triples above.
        f = RationalFunction(H + 2, H - 1)
        for seed in range(40):
            rng = random.Random(seed)
            letters = [rng.randrange(5) for _ in range(rng.randint(2, 4))]
            cut = rng.randint(0, len(letters))
            pre, post = letters[:cut], letters[cut:]
            items = pre + [f] + post
            expected = z_multiply(
                z_multiply(z_straighten(pre), ZElement.coeff(f)), z_straighten(post)
            )
            assert z_straighten(items) == expected, items

    def test_straightening_equals_the_oracle_fold_of_its_letters(self):
        # z_straighten and z_multiply fold through one rule step table, so
        # they cannot tell a wrong step apart; the oracle's fold reads no rule
        coeffs = [RationalFunction(H + 2, H - 1), as_rf(Fraction(-3, 2)), as_rf(H)]
        for seed in range(200):
            rng = random.Random(f"oracle fold/{seed}")
            items = [rng.randrange(5) for _ in range(rng.randint(2, 6))]
            items.insert(rng.randint(0, len(items)), rng.choice(coeffs))
            expected = ZElement.one()
            for it in items:
                factor = zgen(it) if isinstance(it, int) else ZElement.coeff(it)
                expected = z_oracle_multiply(expected, factor)
            assert z_straighten(items) == expected, items

    def test_step_table_entries_equal_straightening(self):
        # the table answers an ordered product itself, without straightening;
        # every entry is what z_straighten makes of its letters
        import ospz.zalgebra as zalgebra

        ordered = 0
        for m, g in itertools.product(all_monomials(2), range(5)):
            entry = zalgebra._z_mono_times_gen(m, g)
            assert entry == z_straighten(m.letters() + [g]), (m, g)
            if ordered_times(m, g) is not None:
                ordered += 1
                assert entry == ZElement.monomial(ZMonomial.from_letters(m.letters() + [g])), (m, g)
        assert ordered == 150
        # E(1) E(1) and E(-1) E(-1) go through their pair rules
        for g in (ZN1, Z1):
            m = ZMonomial.from_letters([g])
            assert ordered_times(m, g) is None
            assert zalgebra._z_mono_times_gen(m, g) == derived_rule(g, g) == STATED_RULES[g, g]

    def test_cached_steps_and_diamonds_hold_no_zero(self):
        # sums are zero-free by construction (add_scaled deletes what cancels,
        # LinComb.wrap does not filter): after a presentation run, every
        # value of the step, product, chain and diamond caches has none
        import gc

        from ospz import projector, uea
        import ospz.zalgebra as zalgebra

        run_suite("presentation")
        caches = [
            uea._word_times_gen,
            uea._word_times_word,
            projector._lower_chain,
            projector._raise_chain,
            projector._diamond_mono,
            zalgebra._z_mono_times_gen,
            zalgebra._z_mono_tilde,
            zalgebra._oracle_fold,
        ]
        for cache in caches:
            # CPython's lru_cache refers to its {key: value} dict, the one
            # dict among its referents besides its __dict__
            (values,) = [r for r in gc.get_referents(cache) if type(r) is dict and r is not cache.__dict__]
            assert len(values) == cache.cache_info().currsize > 0, cache.__name__
            for key, element in values.items():
                assert all(c for _, c in element), (cache.__name__, key)


class TestTriangularity:
    def test_unit_triangular_change_of_basis(self):
        from ospz.zalgebra import _tilde_key

        for mono in all_monomials(2):
            if mono.degree() > 4:
                continue
            expansion = z_to_tilde(ZElement.monomial(mono))
            lead = tilde_word(tuple(mono))
            assert expansion.terms.get(lead) == RF_ONE, mono
            for word in expansion.terms:
                if word != lead:
                    assert _tilde_key(word) < _tilde_key(lead), (mono, word)

    def test_round_trip_z_to_tilde(self):
        for mono in all_monomials(2):
            if mono.degree() > 4:
                continue
            z = ZElement.monomial(mono)
            assert tilde_to_z(z_to_tilde(z)) == z, mono

    def test_round_trip_tilde_to_z(self):
        for mono in all_monomials(2):
            if mono.degree() > 4:
                continue
            u = UeaElement.monomial(tilde_word(tuple(mono)))
            assert z_to_tilde(tilde_to_z(u)) == u, mono

    @pytest.mark.parametrize("text", ["X(1)", "t(1) + X(1)"])
    def test_tilde_to_z_refuses_a_diagonal_letter(self, text):
        with pytest.raises(ValueError, match="not a pure tilde monomial"):
            tilde_to_z(parse_element(text, "u"))


def _failures(report, name):
    """The failures of the check named `name` in `report`, which must fail,
    and so must the report."""
    (check,) = [c for c in report["checks"] if c["name"].startswith(name)]
    assert not check["pass"] and not report["passed"]
    return check["failures"]


class TestPbwChecksCanFail:
    """Each check of the pbw suite fails, naming the monomial, when the
    change of basis is wrong on one monomial."""

    target = ZMonomial.make(1, 0, 1, 0, 0)  # E(-2) E(0)

    def add_to_expansion(self, monkeypatch, extra):
        real, z_target = verify.z_to_tilde, ZElement.monomial(self.target)
        monkeypatch.setattr(verify, "z_to_tilde", lambda z: real(z) + extra if z == z_target else real(z))

    def test_leading_coefficient_two(self, monkeypatch):
        self.add_to_expansion(monkeypatch, UeaElement.monomial(tilde_word(self.target)))
        failures = _failures(run_suite("pbw"), "leading tilde coefficient is 1")
        assert render(ZElement.monomial(self.target)) in failures

    def test_higher_correction_term(self, monkeypatch):
        higher = UeaElement.monomial(tilde_word((2, 0, 1, 0, 0)))
        self.add_to_expansion(monkeypatch, higher)
        failures = _failures(run_suite("pbw"), "correction terms are strictly lower")
        assert (render(ZElement.monomial(self.target)), render(higher)) in failures

    def test_dropped_term(self, monkeypatch):
        real = verify.tilde_to_z
        monkeypatch.setattr(verify, "tilde_to_z", lambda u: ZElement({m: c for m, c in real(u) if m != self.target}))
        report = run_suite("pbw")
        round_trip = _failures(report, "tilde_to_z(z_to_tilde(m)) = m")
        assert render(ZElement.monomial(self.target)) in round_trip
        reverse = _failures(report, "z_to_tilde(tilde_to_z(w)) = w")
        assert render(UeaElement.monomial(tilde_word(self.target))) in reverse


class TestTheta:
    def test_involution(self):
        for g in range(5):
            assert z_theta(z_theta(zgen(g))) == zgen(g)
        rng = random.Random(29)
        for mono in rng.sample(all_monomials(1), 8):
            z = ZElement.monomial(mono)
            assert z_theta(z_theta(z)) == z

    def test_anti_multiplicative(self):
        for a, b in itertools.product(range(5), repeat=2):
            lhs = z_theta(z_multiply(zgen(a), zgen(b)))
            rhs = z_multiply(z_theta(zgen(b)), z_theta(zgen(a)))
            assert lhs == rhs, (a, b)

    def test_relation_derivation_through_theta(self):
        # The E(1)E(-2) rewriting follows from the E(2)E(-1) one by the
        # anti-involution: theta(E(1)) = E(-1), theta(E(-2)) = -E(2).
        lhs = z_multiply(zgen(Z1), zgen(ZN2))
        via_theta = -z_theta(z_multiply(zgen(Z2), zgen(ZN1)))
        assert lhs == via_theta
        assert lhs == derived_rule(Z1, ZN2)

    def test_theta_images_of_generators(self):
        assert z_theta(zgen(Z1)) == zgen(ZN1)
        assert z_theta(zgen(ZN1)) == zgen(Z1)
        assert z_theta(zgen(ZH)) == zgen(ZH)
        assert z_theta(zgen(Z2)) == -zgen(ZN2)
        assert z_theta(zgen(ZN2)) == -zgen(Z2)


def test_element_operators():
    z1, z2 = zgen(Z2) + ZElement.coeff(H), zgen(ZN1) - zgen(ZH)
    assert z1 * z2 == z_multiply(z1, z2)
    assert 2 * z1 == z1.scale(2)
    with pytest.raises(TypeError):
        z1 * 2
    assert z1 + z2 == z2 + z1 and hash(z1 + z2) == hash(z2 + z1)


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_sums_stay_in_one_algebra(op):
    values = (UeaElement.gen(X1), zgen(Z1), ModuleVector.basis(0, 1), 1)
    for a, b in itertools.permutations(values, 2):
        with pytest.raises(TypeError):
            op(a, b)


def test_monomials_survive_copy_and_pickle():
    for m in (ZMonomial.make(1, 0, 2, 1, 0), tilde_word((1, 0, 2, 1, 0))):
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and type(twin) is type(m)


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
@pytest.mark.parametrize(
    "value",
    [
        Polynomial({0: 1, 2: Fraction(3, 2)}),
        RF_ONE,
        RationalFunction(H + 1, (H - 1) * (H * H + 1)),
        parse_element("(H/(H-1)) t(1) X(-1) + 2", "u"),
        parse_element("(1/(H^2+1)) E(2) E(-1) - E(0)", "z"),
        ModuleVector.basis(0, 1).scale(Fraction(-7, 3)),
    ],
    ids=["Polynomial", "RF_ONE", "RationalFunction", "UeaElement", "ZElement", "ModuleVector"],
)
def test_values_survive_copy_and_pickle(value, round_trip):
    twin = round_trip(value)
    assert twin == value and str(twin) == str(value) and type(twin) is type(value)
    if value is RF_ONE:
        assert twin.is_one()
