import random
from fractions import Fraction

import pytest

from kmforge.catalog import catalog_for
from kmforge.errors import ContextMismatchError, InvalidInputError
from kmforge.field import imaginary_unit
from kmforge.liealg import AlgebraElement, FiniteAutomorphism, builtin_algebra
from kmforge.loop import (
    LoopElement,
    TwistContext,
    cocycle,
    constant_loop,
    loop_bracket,
    loop_derivative,
    loop_inner,
    slice_terms,
    tau_r_apply,
    validate,
    zero_loop,
)

SL2 = builtin_algebra("sl2C")
E, H, F = SL2.basis_element(0), SL2.basis_element(1), SL2.basis_element(2)


def untwisted(D=1):
    return TwistContext(SL2, FiniteAutomorphism.identity(SL2), D=D)


def tau_context():
    return TwistContext(SL2, catalog_for("sl2C").named("tau"), D=2)


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
        if rng.random() < 0.3:
            x = imaginary_unit() * x
        if k in acc:
            acc[k] = acc[k] + x
        else:
            acc[k] = x
    return LoopElement(ctx, acc)


def test_slice_terms_counts_and_order():
    ctx = tau_context()
    twisted = slice_terms(ctx, 4)
    # even exponents -4..4 carry the 1-dim tau-fixed space, odd ones the 2-dim rest
    assert len(twisted) == 5 * 1 + 4 * 2
    assert all(validate(LoopElement(ctx, {k: b})) for k, b in twisted)
    plain = slice_terms(untwisted(), 2)
    assert len(plain) == 5 * 3
    for terms in (twisted, plain):
        ks = [k for k, _ in terms]
        assert ks == sorted(ks) and ks[0] == -ks[-1]


def test_validate_examples():
    assert validate(constant_loop(untwisted(), H))
    ctx = tau_context()
    assert validate(LoopElement(ctx, {1: E}))  # tau(e) = -e = zeta_2^1 e
    # tau(h) = h != -h: the constructor refuses the term; built unchecked,
    # the element fails validate
    with pytest.raises(InvalidInputError, match="twist condition"):
        LoopElement(ctx, {1: H})
    assert not validate(LoopElement._trusted(ctx, {1: H}))


@pytest.mark.parametrize("k", [1.5, 1.0, Fraction(1), True, "1", None])
def test_constructor_rejects_non_integer_exponents(k):
    # int(k) would store 1.5 and 1.0 at exponent 1 and True at exponent 1
    for terms in ({k: H}, [(k, H)]):
        with pytest.raises(InvalidInputError, match="exponent"):
            LoopElement(untwisted(), terms)


def test_validate_random_constructions():
    rng = random.Random(4)
    for ctx in (untwisted(), tau_context()):
        for _ in range(10):
            assert validate(random_loop(rng, ctx))


def test_loop_bracket_examples():
    ctx = untwisted()
    assert (loop_bracket(LoopElement(ctx, {1: H}), LoopElement(ctx, {1: E}))
            == LoopElement(ctx, {2: 2 * E}))
    assert (loop_bracket(LoopElement(ctx, {1: E}), LoopElement(ctx, {-1: F}))
            == constant_loop(ctx, H))
    rng = random.Random(5)
    u = random_loop(rng, ctx)
    assert not loop_bracket(u, u)


def test_loop_bracket_jacobi():
    rng = random.Random(6)
    for ctx in (untwisted(), tau_context()):
        for _ in range(8):
            u, v, w = (random_loop(rng, ctx) for _ in range(3))
            total = (
                loop_bracket(u, loop_bracket(v, w))
                + loop_bracket(v, loop_bracket(w, u))
                + loop_bracket(w, loop_bracket(u, v))
            )
            assert not total


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        loop_bracket(constant_loop(untwisted(), H), constant_loop(tau_context(), H))


def test_loop_derivative_examples():
    ctx = untwisted()
    i = imaginary_unit()
    assert not loop_derivative(constant_loop(ctx, H))
    assert loop_derivative(LoopElement(ctx, {1: H})) == LoopElement(ctx, {1: i * H})
    ctx2 = tau_context()
    assert (loop_derivative(LoopElement(ctx2, {1: E}))
            == LoopElement(ctx2, {1: (i * Fraction(1, 2)) * E}))


def test_derivative_is_a_derivation():
    rng = random.Random(7)
    ctx = tau_context()
    for _ in range(8):
        u, v = random_loop(rng, ctx), random_loop(rng, ctx)
        lhs = loop_derivative(loop_bracket(u, v))
        rhs = loop_bracket(loop_derivative(u), v) + loop_bracket(u, loop_derivative(v))
        assert lhs == rhs


def test_loop_inner_examples():
    ctx = untwisted()
    assert loop_inner(constant_loop(ctx, H), constant_loop(ctx, H)) == 8
    assert loop_inner(LoopElement(ctx, {1: H}), constant_loop(ctx, H)) == 0
    assert loop_inner(LoopElement(ctx, {1: H}), LoopElement(ctx, {-1: H})) == 8


def test_cocycle_examples():
    ctx = untwisted()
    i = imaginary_unit()
    u = LoopElement(ctx, {1: H})
    v = LoopElement(ctx, {-1: H})
    assert cocycle(u, v) == 8 * i
    assert cocycle(u, u) == 0
    assert cocycle(constant_loop(ctx, H), constant_loop(ctx, E)) == 0


def test_cocycle_antisymmetry_and_identity():
    rng = random.Random(8)
    for ctx in (untwisted(), tau_context()):
        for _ in range(8):
            u, v, w = (random_loop(rng, ctx) for _ in range(3))
            assert cocycle(u, v) == -cocycle(v, u)
            total = (
                cocycle(loop_bracket(u, v), w)
                + cocycle(loop_bracket(v, w), u)
                + cocycle(loop_bracket(w, u), v)
            )
            assert not total


def test_tau_r_examples():
    ctx = untwisted()
    u = LoopElement(ctx, {1: H})
    assert tau_r_apply(Fraction(1), u) == u
    assert tau_r_apply(Fraction(2), u) == LoopElement(ctx, {1: 2 * H})
    assert (tau_r_apply(Fraction(2), LoopElement(ctx, {-1: H}))
            == LoopElement(ctx, {-1: Fraction(1, 2) * H}))
    with pytest.raises(InvalidInputError):
        tau_r_apply(Fraction(-1), u)


def test_tau_r_is_bracket_homomorphism():
    rng = random.Random(9)
    ctx = tau_context()
    for _ in range(8):
        u, v = random_loop(rng, ctx), random_loop(rng, ctx)
        assert tau_r_apply(2, loop_bracket(u, v)) == loop_bracket(tau_r_apply(2, u), tau_r_apply(2, v))


def test_twist_preserved_by_operations():
    rng = random.Random(10)
    ctx = tau_context()
    for _ in range(5):
        u, v = random_loop(rng, ctx), random_loop(rng, ctx)
        assert validate(u + v) and validate(u - v) and validate(-u)
        assert validate(u * Fraction(-3, 2)) and validate(imaginary_unit() * u)
        assert validate(loop_bracket(u, v))
        assert validate(loop_derivative(u))
        assert validate(tau_r_apply(Fraction(3, 2), u))


def test_context_requires_multiple_of_order():
    with pytest.raises(InvalidInputError):
        TwistContext(SL2, catalog_for("sl2C").named("tau"), D=3)


@pytest.mark.parametrize("D", [0, -2])
def test_context_rejects_D_below_one(D):
    # -2 is a multiple of the identity's order 1; the degree <= 2D slice of
    # such a context would be empty, so every order test on it would pass
    with pytest.raises(InvalidInputError):
        untwisted(D)


@pytest.mark.parametrize("algebra, name, D", [("sl2C", "tau", 4), ("sl3C", "r3", 6)])
def test_eigenbases_when_D_is_a_proper_multiple_of_the_twist_order(algebra, name, D):
    sigma = catalog_for(algebra).named(name)
    ctx = TwistContext(sigma.algebra, sigma, D=D)
    step = D // ctx.twist_order
    assert step > 1
    total = 0
    for r in range(D):
        basis = ctx.eigenbasis_for_exponent(r)
        assert all(ctx.term_ok(r, b) for b in basis)
        if r % step:
            assert basis == ()
        # exponents in one residue class mod D share one eigenspace
        assert ctx.eigenbasis_for_exponent(r - 3 * D) == basis
        total += len(basis)
    assert total == sigma.algebra.dim


def test_zero_loop():
    assert not zero_loop(untwisted())
    assert zero_loop(untwisted()).degree() == 0


def _lifted(u, level):
    return LoopElement(u.context, {k: AlgebraElement(x.algebra, tuple(c.lift(level) for c in x.coords))
                                   for k, x in u.terms})


def test_equality_compares_values_across_levels():
    ctx = untwisted()
    u = LoopElement(ctx, {1: imaginary_unit() * E}) + constant_loop(ctx, H)
    e8 = imaginary_unit(8) * SL2.basis_element(0, 8)
    v = LoopElement(ctx, {1: e8}) + constant_loop(ctx, SL2.basis_element(1, 12))
    assert {c.level for _, x in v.terms for c in x.coords} == {8, 12}
    assert u == v and v == u
    assert u != LoopElement(ctx, {1: e8})


def test_equal_contexts_that_are_distinct_objects():
    a, b = tau_context(), tau_context()
    assert a is not b
    assert a == b and a == a
    assert LoopElement(a, {1: E}) == LoopElement(b, {1: E})
    assert untwisted() != untwisted(D=2)


def test_loops_from_different_contexts_are_unequal_without_raising():
    pairs = [(untwisted(), tau_context()), (untwisted(), untwisted(D=2))]
    for ctx_a, ctx_b in pairs:
        u, v = constant_loop(ctx_a, H), constant_loop(ctx_b, H)
        assert (u == v) is False and (u != v) is True
        assert zero_loop(ctx_a) != zero_loop(ctx_b)


def test_equality_agrees_with_a_zero_difference():
    rng = random.Random(12)
    for ctx in (untwisted(), tau_context()):
        for _ in range(20):
            u, w = random_loop(rng, ctx), random_loop(rng, ctx)
            candidates = [w, (u + w) - w, _lifted(u, 8), u + LoopElement(ctx, {0: 0 * H}), u * 2]
            for v in candidates:
                assert (u == v) == (not (u - v))
            assert u == (u + w) - w == _lifted(u, 24)
