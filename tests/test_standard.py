import random
from fractions import Fraction

import pytest

from kmforge import linalg
from kmforge.catalog import _ad, _auto, catalog_for
from kmforge.errors import (
    IncompatibleDataError,
    InvalidInputError,
    NotFirstKindError,
    NotSecondKindError,
    OrderMismatchError,
    SquareMismatchError,
    TwistMismatchError,
)
from kmforge.field import CyclotomicNumber, imaginary_unit
from kmforge.invariants import (
    FirstKindInvariant,
    extract_invariant_first,
    extract_invariant_second,
    invariants_equal,
    realize_first,
    realize_second,
)
from kmforge.liealg import FiniteAutomorphism, builtin_algebra, exp_ad, exp_curve
from kmforge.loop import (
    LoopElement,
    TwistContext,
    constant_loop,
    loop_bracket,
    validate,
)
from kmforge.standard import (
    ScaledMap,
    apply,
    compose,
    conjugate,
    identity_automorphism,
    inverse,
    loop_map_order,
    pointwise,
    reflection,
    rotation,
    standard_automorphism,
    standard_order,
)

SL2 = builtin_algebra("sl2C")
E, H, F = SL2.basis_element(0), SL2.basis_element(1), SL2.basis_element(2)
CAT = catalog_for("sl2C")


def untwisted(D=1):
    return TwistContext(SL2, FiniteAutomorphism.identity(SL2), D=D)


def tau_context(D=2):
    return TwistContext(SL2, CAT.named("tau"), D=D)


def random_loop(rng, ctx, max_degree=4, terms=3):
    acc = {}
    for _ in range(terms):
        k = rng.randint(-max_degree, max_degree)
        basis = ctx.eigenbasis_for_exponent(k)
        if not basis:
            continue
        x = ctx.algebra.zero_element()
        for b in basis:
            x = x + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * b
        acc[k] = acc.get(k, ctx.algebra.zero_element()) + x
    return type(constant_loop(ctx, H))(ctx, acc)


def half_h_exp_curve(scale=Fraction(1, 2)):
    i = imaginary_unit()
    X = SL2.element([0, i * scale, 0])
    return exp_curve(X, [2 * scale, Fraction(0), -2 * scale])


def test_apply_shift_example():
    ctx = untwisted()
    phi = rotation(ctx, Fraction(1, 2))
    assert apply(phi, LoopElement(ctx, {1: H})) == LoopElement(ctx, {1: -1 * H})


def test_whole_shift_folds_modulo_the_twist_order_with_its_sign():
    # on an order-3 twist the whole parts -1, 2 and -1 -/+ 3*10^7 all give the
    # base sigma^-1 = sigma^2; folding without the sign would give sigma
    sigma = CAT.named("r3")
    ctx = TwistContext(SL2, sigma, D=3)
    for whole in (-1, 2, -1 - 3 * 10**7, 2 + 3 * 10**7):
        phi = rotation(ctx, whole + Fraction(1, 3))
        assert phi.shift == Fraction(1, 3)
        assert phi.base == sigma.power(-1)
    assert rotation(ctx, Fraction(4, 3)).base == sigma


def test_apply_identity():
    ctx = tau_context()
    phi = identity_automorphism(ctx)
    rng = random.Random(0)
    u = random_loop(rng, ctx)
    assert apply(phi, u) == u


def test_apply_reflection():
    ctx = untwisted()
    phi = reflection(ctx)
    assert apply(phi, LoopElement(ctx, {1: H})) == LoopElement(phi.target, {-1: H})


def test_apply_rejects_invalid_input():
    # h is not in the -1 eigenspace: the constructor refuses the element, so
    # no map is applied to it; apply still refuses a loop of another context
    ctx = tau_context()
    with pytest.raises(InvalidInputError, match="twist condition"):
        LoopElement(ctx, {1: H})
    with pytest.raises(TwistMismatchError):
        apply(identity_automorphism(ctx), LoopElement(untwisted(), {1: H}))


def _rational_entry_points():
    """Every public entry point that takes a rational parameter, as a
    function of that parameter."""
    from kmforge.field import zeta_of
    from kmforge.liealg import ExpCurveData
    from kmforge.loop import tau_r_apply
    from kmforge.verify import verify_tau_r

    ctx = untwisted()
    curve = half_h_exp_curve()
    pairs = [(q, vs) for q, vs in curve.eigenpairs]
    identity = FiniteAutomorphism.identity(SL2)
    return {
        "tau_r_apply": lambda r: tau_r_apply(r, LoopElement(ctx, {1: H})),
        "standard_automorphism": lambda r: standard_automorphism(1, r, identity, ctx),
        "rotation": lambda r: rotation(ctx, r),
        "pointwise": lambda r: pointwise(ctx, CAT.named("mu"), shift=r),
        "eigenvalues": lambda r: ExpCurveData(curve.generator, [(r, pairs[0][1])] + pairs[1:]),
        "scaled": lambda r: curve.scaled(r),
        "exp_curve": lambda r: exp_curve(curve.generator, [r]),
        "exp_ad": lambda r: exp_ad(curve, r),
        "zeta_of": zeta_of,
        "verify_tau_r": lambda r: verify_tau_r(r=r, trials=1),
    }


@pytest.mark.parametrize("value", [0.1, "1/3"], ids=["float", "string"])
@pytest.mark.parametrize("entry", sorted(_rational_entry_points()))
def test_rational_parameters_refuse_floats_and_strings(entry, value):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, and
    # Fraction("1/3") a parsed string
    with pytest.raises(InvalidInputError, match="int or a Fraction"):
        _rational_entry_points()[entry](value)


@pytest.mark.parametrize("D", [2.7, 2.0, True], ids=["float", "whole-float", "bool"])
def test_twist_context_refuses_a_D_that_is_not_an_int(D):
    # int(D) would make 2.7 a 2 and True a 1
    with pytest.raises(InvalidInputError, match="D must be an int"):
        TwistContext(SL2, FiniteAutomorphism.identity(SL2), D=D)


@pytest.mark.parametrize("epsilon", [True, 1.0, -1.0, 2, 0], ids=str)
def test_epsilon_is_the_int_one_or_minus_one(epsilon):
    # True would be stored and encoded as "epsilon": true, and 1.0 would fail
    # with a TypeError in FiniteAutomorphism.power
    ctx = untwisted()
    with pytest.raises(InvalidInputError, match="epsilon"):
        standard_automorphism(epsilon, 0, FiniteAutomorphism.identity(SL2), ctx)
    with pytest.raises(InvalidInputError, match="epsilon"):
        pointwise(ctx, CAT.named("mu"), epsilon=epsilon)


def test_int_and_fraction_parameters_are_unchanged():
    ctx = untwisted()
    assert rotation(ctx, 1).shift == rotation(ctx, Fraction(0)).shift == 0
    assert pointwise(ctx, CAT.named("mu"), epsilon=-1, shift=Fraction(5, 4)).shift == Fraction(1, 4)
    assert TwistContext(SL2, FiniteAutomorphism.identity(SL2), D=3).D == 3
    curve = half_h_exp_curve()
    assert curve.scaled(2).eigenpairs == curve.scaled(Fraction(2)).eigenpairs
    assert exp_ad(curve, 1) == exp_ad(curve, Fraction(1))


def test_twist_condition_is_checked_once_per_element(monkeypatch):
    # the constructor checks each element once; apply checks neither its
    # input nor its result, however often a map is applied
    from kmforge import loop

    checked = []

    def counting(u):
        checked.append(u.terms)
        return validate(u)

    monkeypatch.setattr(loop, "validate", counting)
    ctx = tau_context()
    with pytest.raises(InvalidInputError, match="twist condition"):
        LoopElement(ctx, {1: H})
    good = LoopElement(ctx, {1: E})
    maps = [identity_automorphism(ctx), pointwise(ctx, CAT.named("tau")), reflection(ctx)]
    for phi in maps + maps:
        apply(phi, good)
    assert checked == [((1, H),), ((1, E),)]


def _constant_maps(ctx):
    return [rotation(ctx, Fraction(1, 3)), reflection(ctx), pointwise(ctx, CAT.named("tau")),
            pointwise(ctx, CAT.named("mu"), epsilon=-1), pointwise(ctx, CAT.named("r3")),
            pointwise(ctx, CAT.omega(), shift=Fraction(1, 4))]


def test_compose_target_is_the_twist_recomputed_from_periodicity():
    # compose takes a constant composite's target from its outer factor;
    # recomputing base o sigma^epsilon o base^-1 gives the same twist
    for name in CAT.names():
        for b in _constant_maps(TwistContext(SL2, CAT.named(name))):
            for a in _constant_maps(b.target):
                ab = compose(a, b)
                recomputed = standard_automorphism(ab.epsilon, ab.shift, ab.base, ab.source)
                assert recomputed.target.sigma == ab.target.sigma
                assert recomputed.base == ab.base and recomputed.shift == ab.shift


def test_compose_matches_pointwise_application():
    rng = random.Random(1)
    ctx = tau_context()
    maps = [
        rotation(ctx, Fraction(1, 3)),
        pointwise(ctx, CAT.named("tau")),
        reflection(ctx),
    ]
    for a in maps:
        for b in maps:
            if b.target != a.source:
                continue
            ab = compose(a, b)
            for _ in range(4):
                u = random_loop(rng, b.source)
                assert apply(ab, u) == apply(a, apply(b, u))


def test_compose_exp_curves_with_pointwise_check():
    ctx = tau_context()
    psi = standard_automorphism(
        1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=half_h_exp_curve())
    rng = random.Random(2)
    phi = pointwise(ctx, CAT.named("tau"))
    comp = compose(psi, phi)
    for _ in range(4):
        u = random_loop(rng, ctx)
        assert apply(comp, u) == apply(psi, apply(phi, u))
    inv = inverse(psi)
    for _ in range(4):
        u = random_loop(rng, ctx)
        assert apply(inv, apply(psi, u)) == u


def test_rotation_composed_thrice_is_identity():
    ctx = untwisted()
    phi = rotation(ctx, Fraction(1, 3))
    assert standard_order(phi) == 3
    cubed = compose(phi, compose(phi, phi))
    rng = random.Random(3)
    u = random_loop(rng, ctx)
    assert apply(cubed, u) == u


def test_reflection_squares_to_identity():
    ctx = untwisted()
    phi = reflection(ctx)
    sq = compose(phi, inverse(phi))
    rng = random.Random(4)
    u = random_loop(rng, ctx)
    assert apply(sq, u) == u


def test_standard_order_examples():
    assert standard_order(rotation(untwisted(), Fraction(1, 3))) == 3
    # u(t) -> tau(u(t + pi)) on the untwisted algebra: phi0^2 sigma = tau^2 = id
    phi = pointwise(untwisted(2), CAT.named("tau"), shift=Fraction(1, 2))
    assert standard_order(phi) == 2


def test_standard_order_second_kind():
    sigma, phi = realize_second("sl2C", "mu", "id")
    assert standard_order(phi) == 2


def test_tau_r_composed_map_is_unbounded():
    ctx = untwisted()
    scaled = ScaledMap(Fraction(2), identity_automorphism(ctx))
    assert loop_map_order(scaled.apply, ctx, 48) is None


def test_order_bounds_below_one_are_rejected():
    ctx = untwisted()
    phi = rotation(ctx, Fraction(1, 3))
    for bound in (0, -3):
        with pytest.raises(ValueError):
            standard_order(phi, bound)
        with pytest.raises(ValueError):
            loop_map_order(phi.apply, ctx, bound)


def test_apply_preserves_bracket_constant_and_exp():
    rng = random.Random(5)
    ctx = tau_context()
    maps = [
        pointwise(ctx, CAT.named("tau"), shift=Fraction(1, 2)),
        reflection(ctx),
        standard_automorphism(
            1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=half_h_exp_curve()),
        pointwise(ctx, CAT.omega()),  # antilinear compact conjugation
    ]
    for phi in maps:
        for _ in range(5):
            u, v = random_loop(rng, ctx), random_loop(rng, ctx)
            lhs = apply(phi, loop_bracket(u, v))
            rhs = loop_bracket(apply(phi, u), apply(phi, v))
            assert lhs == rhs
            assert validate(apply(phi, u))


def test_exp_curve_isomorphism_untwists_tau():
    # psi_t = e^{ad tX} with psi_{2pi} = tau^{-1} maps L(g,tau) onto L(g,id)
    ctx = tau_context()
    curve = half_h_exp_curve(Fraction(1, 4))  # X = (i/4) h, monodromy tau
    psi = standard_automorphism(
        1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=curve)
    assert psi.target.sigma.is_identity()
    rng = random.Random(6)
    for _ in range(6):
        u, v = random_loop(rng, ctx), random_loop(rng, ctx)
        pu, pv = apply(psi, u), apply(psi, v)
        assert validate(pu) and validate(pv)
        assert apply(psi, loop_bracket(u, v)) == loop_bracket(pu, pv)


def test_realize_first_golden_examples():
    sigma, phi = realize_first("sl2C", 0, "mu", "id", 2)
    assert sigma.is_identity()
    inv = extract_invariant_first(phi)
    assert inv == FirstKindInvariant("sl2C", 2, 0, "mu", "id")

    sigma, phi = realize_first("sl2C", 0, "mu", "tau", 2)
    assert sigma == CAT.named("tau")
    inv = extract_invariant_first(phi)
    assert inv == FirstKindInvariant("sl2C", 2, 0, "mu", "tau")

    sigma, phi = realize_first("sl2C", 1, "id", "id", 2)
    assert sigma.is_identity()
    assert phi.shift == Fraction(1, 2)
    inv = extract_invariant_first(phi)
    assert inv == FirstKindInvariant("sl2C", 2, 1, "id", "id")


def test_identity_invariant():
    phi = identity_automorphism(untwisted())
    inv = extract_invariant_first(phi)
    assert inv == FirstKindInvariant("sl2C", 1, 0, "id", "id")


def test_beta_outside_class_rep_lands_on_class_label():
    # beta = tau with rho = id: the centralizer of id is connected, so the
    # component class of tau collapses to the identity label
    sigma, phi = realize_first("sl2C", 1, "id", "tau", 2)
    assert sigma.is_identity()  # tau^2
    inv = extract_invariant_first(phi)
    assert inv.beta_class == "id"
    other = extract_invariant_first(realize_first("sl2C", 1, "id", "id", 2)[1])
    assert invariants_equal(inv, other)


def test_first_kind_round_trip_all_catalog():
    for q in (2, 3, 4, 6):
        for p in range(0, q // 2 + 1):
            import math

            r = math.gcd(p, q)
            for entry in CAT.rho_reps(r):
                for label in CAT.component_labels(entry.name):
                    sigma, phi = realize_first("sl2C", p, entry.name, label, q)
                    assert standard_order(phi) == q
                    inv = extract_invariant_first(phi, q)
                    assert inv == FirstKindInvariant("sl2C", q, p, entry.name, label)


def test_normalization_flip():
    for q, p in ((4, 3), (3, 2), (6, 5)):
        import math

        r = math.gcd(p, q)
        [entry] = CAT.rho_reps(r)[:1]
        _, phi_hi = realize_first("sl2C", p, entry.name, "id", q)
        _, phi_lo = realize_first("sl2C", q - p, entry.name, "id", q)
        inv_hi = extract_invariant_first(phi_hi, q)
        inv_lo = extract_invariant_first(phi_lo, q)
        assert inv_hi == inv_lo
        assert inv_hi.p == q - p if 2 * p > q else p


def test_second_kind_round_trips():
    pairs = [("id", "id"), ("tau", "tau"), ("tau", "id"), ("mu", "mu"), ("mu", "id")]
    for pn, mn in pairs:
        sigma, phi = realize_second("sl2C", pn, mn)
        assert standard_order(phi) == 2
        inv = extract_invariant_second(phi, 2)
        assert inv.plus == CAT.named(pn)
        assert inv.minus == CAT.named(mn)


def test_second_kind_swap_and_conjugation_equivalence():
    _, phi_a = realize_second("sl2C", "tau", "id")
    _, phi_b = realize_second("sl2C", "id", "tau")
    inv_a = extract_invariant_second(phi_a, 2)
    inv_b = extract_invariant_second(phi_b, 2)
    assert invariants_equal(inv_a, inv_b)
    # [tau, tau] and [mu, mu] are conjugate pairs
    inv_tt = extract_invariant_second(realize_second("sl2C", "tau", "tau")[1], 2)
    inv_mm = extract_invariant_second(realize_second("sl2C", "mu", "mu")[1], 2)
    assert invariants_equal(inv_tt, inv_mm)
    inv_ii = extract_invariant_second(realize_second("sl2C", "id", "id")[1], 2)
    assert not invariants_equal(inv_tt, inv_ii)
    assert not invariants_equal(inv_mm, extract_invariant_second(
        realize_second("sl2C", "mu", "id")[1], 2))


def _catalog_invariants():
    """Invariants of sl2C's catalog triples with q <= 4, of sl3C's with q = 2,
    and of every second-kind pair, on sl2C also [tau, tau] and [tau, id]."""
    invs = []
    for algebra, qs, extra in (("sl2C", (1, 2, 3, 4), [("tau", "tau"), ("tau", "id")]),
                               ("sl3C", (2,), [])):
        cat = catalog_for(algebra)
        invs += [extract_invariant_first(realize_first(algebra, p, rho, beta, q)[1], q)
                 for q in qs for p, rho, beta in cat.first_kind_triples(q)]
        invs += [extract_invariant_second(realize_second(algebra, plus, minus)[1], 2)
                 for plus, minus in cat.second_kind_pairs() + extra]
    return invs


def test_invariants_equal_is_reflexive_symmetric_and_within_kind_and_algebra():
    invs = _catalog_invariants()
    assert {type(a).__name__ for a in invs} == {"FirstKindInvariant", "SecondKindInvariant"}
    assert {a.algebra for a in invs} == {"sl2C", "sl3C"}
    for a in invs:
        assert invariants_equal(a, a)
        for b in invs:
            equal = invariants_equal(a, b)
            assert equal == invariants_equal(b, a)
            if type(a) is not type(b) or a.algebra != b.algebra:
                assert not equal
            elif isinstance(a, FirstKindInvariant):
                assert equal == (a == b)


def test_invariants_equal_needs_invariants():
    inv = extract_invariant_first(identity_automorphism(untwisted()))
    with pytest.raises(InvalidInputError):
        invariants_equal(inv, inv.as_tuple())


def test_second_kind_conjugated_partner():
    # [mu, mu] vs [mu, g mu g^{-1}] for g in the diagonal torus
    g = exp_ad(half_h_exp_curve(), Fraction(1, 8))
    mu = CAT.named("mu")
    conj_mu = g.compose(mu).compose(g.inverse())
    assert conj_mu != mu
    _, phi_a = realize_second("sl2C", "mu", "mu")
    sigma, phi_b = realize_second("sl2C", mu, conj_mu)
    inv_a = extract_invariant_second(phi_a, 2)
    inv_b = extract_invariant_second(phi_b, 2)
    assert invariants_equal(inv_a, inv_b)


def test_extract_errors():
    with pytest.raises(NotFirstKindError):
        extract_invariant_first(reflection(untwisted()))
    with pytest.raises(OrderMismatchError):
        extract_invariant_first(rotation(untwisted(), Fraction(1, 3)), q=2)


def test_extract_second_of_a_first_kind_map():
    _, phi = realize_first("sl2C", 1, "id", "id", 3)
    with pytest.raises(NotSecondKindError):
        extract_invariant_second(phi)


def test_order_of_a_reflection_that_moves_the_twist():
    # u(t) -> u(-t) sends the r3 twist to its inverse, another context
    cat = catalog_for("sl3C")
    ctx = TwistContext(cat.algebra, cat.named("r3"))
    with pytest.raises(TwistMismatchError, match="endomorphisms of one context"):
        standard_order(reflection(ctx))


def test_realize_errors():
    with pytest.raises(IncompatibleDataError):
        realize_first("sl2C", 0, "id", "id", 2)  # rho order must be gcd(0,2)=2
    with pytest.raises(SquareMismatchError):
        realize_second("sl2C", "mu", "r3")


def test_twist_mismatch_on_compose():
    a = identity_automorphism(untwisted())
    b = identity_automorphism(tau_context())
    with pytest.raises(TwistMismatchError):
        compose(a, b)


SU2 = builtin_algebra("su2")


@pytest.mark.parametrize("target", [
    TwistContext(SL2, CAT.named("mu"), D=2),
    tau_context(D=4),
    TwistContext(SU2, FiniteAutomorphism.identity(SU2), D=2),
], ids=["sigma", "D", "algebra"])
def test_supplied_target_must_match_the_computed_twist(target):
    # a constant identity curve maps the tau twist (D = 2) to itself
    base = FiniteAutomorphism.identity(SL2)
    assert standard_automorphism(1, 0, base, tau_context(), tau_context()).target == tau_context()
    with pytest.raises(TwistMismatchError):
        standard_automorphism(1, 0, base, tau_context(), target)


def test_conjugation_by_exp_curve_keeps_invariant():
    ctx = untwisted(2)
    psi = standard_automorphism(
        1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=half_h_exp_curve())
    phi = pointwise(ctx, CAT.named("mu"))
    moved = conjugate(psi, phi)
    assert moved.exp is not None
    assert standard_order(moved) == 2


def test_incompatible_curve_denominator_rejected():
    from kmforge.errors import IncompatibleDenominatorError
    from kmforge.field import imaginary_unit as iu

    ctx = untwisted(2)
    X = SL2.element([0, iu() * Fraction(1, 6), 0])  # ad eigenvalues +-i/3
    curve = exp_curve(X, [Fraction(1, 3), Fraction(0), Fraction(-1, 3)])
    with pytest.raises(IncompatibleDenominatorError):
        standard_automorphism(
            1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=curve)


def test_antilinear_standard_json_round_trip():
    from kmforge import jsonio

    ctx = tau_context()
    theta = pointwise(ctx, CAT.omega())
    back = jsonio.dec_standard(jsonio.enc_standard(theta))
    assert back.antilinear
    u = LoopElement(ctx, {1: E})
    assert apply(back, u) == apply(theta, u)


def test_inverse_of_shifted_exp_curve():
    ctx = tau_context()
    psi = standard_automorphism(
        1, Fraction(1, 3), FiniteAutomorphism.identity(SL2), ctx, exp=half_h_exp_curve())
    inv = inverse(psi)
    rng = random.Random(11)
    for _ in range(5):
        u = random_loop(rng, ctx)
        assert apply(inv, apply(psi, u)) == u
        assert apply(psi, apply(inv, u)) == u


def test_second_kind_extraction_normalizes_shift():
    from kmforge.standard import rotation as _rotation

    sigma, phi = realize_second("sl2C", "mu", "id")
    rot = _rotation(phi.source, Fraction(1, 4))
    moved = compose(rot, compose(phi, inverse(rot)))
    assert moved.shift != 0
    inv_moved = extract_invariant_second(moved, 2)
    inv_orig = extract_invariant_second(phi, 2)
    assert invariants_equal(inv_moved, inv_orig)


def test_compose_corner_cases_against_pointwise():
    ctx = tau_context()
    psi = standard_automorphism(
        1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=half_h_exp_curve())
    psi_shift = standard_automorphism(
        1, Fraction(1, 4), FiniteAutomorphism.identity(SL2), ctx, exp=half_h_exp_curve())
    rng = random.Random(21)
    cases = [
        (pointwise(psi.target, CAT.omega()), psi),     # antilinear after exp
        (reflection(psi.target), psi),                 # orientation flip after exp
        (psi, pointwise(ctx, CAT.omega())),            # exp after antilinear
        (psi_shift, psi),                              # shifted exp after exp
    ]
    for outer, inner in cases:
        comp = compose(outer, inner)
        for _ in range(5):
            u = random_loop(rng, inner.source)
            assert apply(comp, u) == apply(outer, apply(inner, u))


def test_non_commuting_curve_composition_falls_back():
    from kmforge.errors import CurveCompositionError
    from kmforge.liealg import exp_curve as _exp_curve

    ctx = untwisted(2)
    rot_curve = _exp_curve(E - F, [Fraction(2), Fraction(0), Fraction(-2)])
    a = standard_automorphism(
        1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=half_h_exp_curve())
    b = standard_automorphism(
        1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=rot_curve)
    with pytest.raises(CurveCompositionError):
        compose(a, b)
    # a map whose square leaves the supported family: the base moves the
    # generator off its own centralizer, so order falls back to the
    # spanning-slice iteration
    one, i = CyclotomicNumber.one(), imaginary_unit()
    bridge = [[one, one], [i, -i]]  # Ad bridge^-1 conjugates mu to tau
    alpha = _auto("sl2C", _ad(linalg.invert(bridge), bridge))
    assert not alpha.is_identity()
    phi = standard_automorphism(
        1, Fraction(0), alpha, ctx, exp=half_h_exp_curve())
    assert standard_order(phi, 8) is None


def test_rank_two_round_trips():
    from kmforge.verify import verify_roundtrip

    report = verify_roundtrip("sl3C", qs=(2, 3))
    assert report["ok"], [c for c in report["checks"] if not c["pass"]]
