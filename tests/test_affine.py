import random
from fractions import Fraction

from kmforge.affine import (
    AffineElement,
    HatExtensionData,
    affine_bracket,
    c_element,
    center_and_derived_check,
    d_element,
    extend_to_hat,
    finite_order_extension,
    hat_order,
    hat_preserves_bracket,
)
from kmforge.catalog import catalog_for
from kmforge.field import imaginary_unit
from kmforge.invariants import realize_first
from kmforge.liealg import AlgebraElement, FiniteAutomorphism, builtin_algebra, exp_curve
from kmforge.loop import LoopElement, TwistContext, constant_loop
from kmforge.standard import (
    apply,
    conjugate,
    pointwise,
    rotation,
    standard_automorphism,
    standard_order,
)

SL2 = builtin_algebra("sl2C")
E, H, F = SL2.basis_element(0), SL2.basis_element(1), SL2.basis_element(2)
CAT = catalog_for("sl2C")


def untwisted(D=1):
    return TwistContext(SL2, FiniteAutomorphism.identity(SL2), D=D)


def tau_context():
    return TwistContext(SL2, CAT.named("tau"), D=2)


def random_affine(rng, ctx, max_degree=4):
    acc = {}
    for _ in range(3):
        k = rng.randint(-max_degree, max_degree)
        basis = ctx.eigenbasis_for_exponent(k)
        if not basis:
            continue
        x = ctx.algebra.zero_element()
        for b in basis:
            x = x + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * b
        acc[k] = acc.get(k, ctx.algebra.zero_element()) + x
    loop = type(constant_loop(ctx, H))(ctx, acc)
    return AffineElement(loop, Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))


def test_d_acts_as_derivative():
    ctx = untwisted()
    u = AffineElement(LoopElement(ctx, {1: H}))
    i = imaginary_unit()
    out = affine_bracket(d_element(ctx), u)
    assert out.loop == LoopElement(ctx, {1: i * H})
    assert not out.c_coef and not out.d_coef


def test_c_is_central():
    ctx = tau_context()
    rng = random.Random(0)
    for _ in range(5):
        x = random_affine(rng, ctx)
        assert not affine_bracket(c_element(ctx), x)
        assert not affine_bracket(x, c_element(ctx))


def test_cocycle_term():
    ctx = untwisted()
    i = imaginary_unit()
    x = AffineElement(LoopElement(ctx, {1: H}))
    y = AffineElement(LoopElement(ctx, {-1: H}))
    out = affine_bracket(x, y)
    assert not out.loop
    assert out.c_coef == 8 * i
    assert not out.d_coef


def test_affine_jacobi_including_c_d():
    rng = random.Random(1)
    for ctx in (untwisted(), tau_context()):
        for _ in range(8):
            x, y, z = (random_affine(rng, ctx) for _ in range(3))
            total = (
                affine_bracket(x, affine_bracket(y, z))
                + affine_bracket(y, affine_bracket(z, x))
                + affine_bracket(z, affine_bracket(x, y))
            )
            assert not total


def test_center_and_derived_check():
    for ctx in (untwisted(), tau_context()):
        report = center_and_derived_check(ctx, 3)
        assert report["passed"]
        assert report["no_d_component"]
        assert report["c_central"]
        assert report["d_outside_derived_span"]


def test_extension_of_identity_with_free_constant():
    ctx = untwisted()
    from kmforge.standard import identity_automorphism

    data = extend_to_hat(identity_automorphism(ctx), nu=5)
    out = data.apply(d_element(ctx))
    assert out.d_coef == 1
    assert out.c_coef == 5
    rng = random.Random(2)
    pairs = [(random_affine(rng, ctx), random_affine(rng, ctx)) for _ in range(5)]
    assert hat_preserves_bracket(data, pairs)


def test_constant_curve_extension_has_zero_shadow():
    ctx = tau_context()
    phi = pointwise(ctx, CAT.named("mu"))
    data = extend_to_hat(phi)
    assert not data.shadow
    rng = random.Random(3)
    pairs = [(random_affine(rng, ctx), random_affine(rng, ctx)) for _ in range(5)]
    assert hat_preserves_bracket(data, pairs)


def _exp_conjugated_mu(D=2):
    ctx = untwisted(D)
    i = imaginary_unit()
    X = SL2.element([0, i * Fraction(1, 2), 0])
    curve = exp_curve(X, [Fraction(1), Fraction(0), Fraction(-1)])
    psi = standard_automorphism(1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=curve)
    return conjugate(psi, pointwise(ctx, CAT.named("mu")))


def test_exp_curve_extension_shadow_value():
    moved = _exp_conjugated_mu()
    data = extend_to_hat(moved)
    i = imaginary_unit()
    # generator of the conjugated curve is 2X = i*h, so the shadow is -i*h
    assert data.shadow == constant_loop(moved.target, SL2.element([0, -i, 0]))


def test_finite_order_extension_of_exp_conjugated_involution():
    moved = _exp_conjugated_mu()
    assert standard_order(moved) == 2
    data = finite_order_extension(moved)
    assert hat_order(data, bound=4) == 2
    # the prescribed central constant: -eps*|shadow|^2/2 = 4
    assert data.nu == 4
    rng = random.Random(4)
    ctx = moved.source
    pairs = [(random_affine(rng, ctx), random_affine(rng, ctx)) for _ in range(5)]
    assert hat_preserves_bracket(data, pairs)


def test_wrong_constant_breaks_finite_order():
    moved = _exp_conjugated_mu()
    bad = extend_to_hat(moved, nu=0)
    assert bad.shadow
    assert hat_order(bad, bound=8) is None
    d = d_element(moved.source)
    twice = bad.apply(bad.apply(d))
    assert twice != d
    assert twice.c_coef == -8


def test_a_wrong_shadow_breaks_the_bracket():
    # the finite-order extension of the exp-conjugated mu preserves the hat
    # bracket; the same data with its shadow doubled does not
    moved = _exp_conjugated_mu()
    data = finite_order_extension(moved)
    wrong = HatExtensionData(moved, data.shadow * 2, data.nu)
    rng = random.Random(4)
    ctx = moved.source
    pairs = [(random_affine(rng, ctx), random_affine(rng, ctx)) for _ in range(5)]
    assert hat_preserves_bracket(data, pairs)
    assert not hat_preserves_bracket(wrong, pairs)


def test_rotation_extension_order_three():
    ctx = untwisted(3)
    phi = rotation(ctx, Fraction(1, 3))
    data = finite_order_extension(phi)
    assert hat_order(data, bound=6) == 3
    assert not data.nu


def test_extension_restricts_to_phi_on_loops():
    ctx = tau_context()
    sigma, phi = realize_first("sl2C", 0, "mu", "tau", 2)
    data = finite_order_extension(phi)
    rng = random.Random(5)
    for _ in range(5):
        x = random_affine(rng, phi.source)
        pure = AffineElement(x.loop)
        assert data.apply(pure).loop == apply(phi, x.loop)
        assert data.apply(pure).d_coef == 0


def test_extensions_differ_only_in_central_image_of_d():
    moved = _exp_conjugated_mu()
    a = extend_to_hat(moved, nu=0)
    b = finite_order_extension(moved)
    d = d_element(moved.source)
    diff = b.apply(d) - a.apply(d)
    assert not diff.loop and not diff.d_coef
    assert diff.c_coef == b.nu
    rng = random.Random(6)
    for _ in range(3):
        x = random_affine(rng, moved.source)
        pure = AffineElement(x.loop, x.c_coef, 0)
        assert a.apply(pure) == b.apply(pure)


def test_raw_exp_curve_shadow_is_minus_generator():
    ctx = untwisted(2)
    i = imaginary_unit()
    X = SL2.element([0, i * Fraction(1, 2), 0])
    curve = exp_curve(X, [Fraction(1), Fraction(0), Fraction(-1)])
    psi = standard_automorphism(
        1, Fraction(0), FiniteAutomorphism.identity(SL2), ctx, exp=curve)
    data = extend_to_hat(psi)
    assert data.shadow == constant_loop(psi.target, -1 * X)


def test_constant_involution_extension_has_zero_constant():
    ctx = tau_context()
    phi = pointwise(ctx, CAT.named("mu"))
    data = finite_order_extension(phi)
    assert not data.nu
    assert hat_order(data, bound=4) == 2


def _lifted(x, level):
    loop = LoopElement(x.context, {k: AlgebraElement(y.algebra, tuple(c.lift(level) for c in y.coords))
                                   for k, y in x.loop.terms})
    return AffineElement(loop, x.c_coef.lift(level), x.d_coef.lift(level))


def test_equality_agrees_with_a_zero_difference():
    rng = random.Random(21)
    for ctx in (untwisted(), tau_context()):
        c, d = c_element(ctx), d_element(ctx)
        for _ in range(20):
            x, y = random_affine(rng, ctx), random_affine(rng, ctx)
            candidates = [y, (x + y) - y, _lifted(x, 8), _lifted(y, 12), x + c * 0,
                          x * 2, x + c, x - d, AffineElement(x.loop)]
            for z in candidates:
                assert (x == z) == (not (x - z))
            assert x == (x + y) - y == _lifted(x, 24)
    assert AffineElement(constant_loop(untwisted(), H)) != AffineElement(constant_loop(tau_context(), H))
