"""The twist condition is an invariant of ``LoopElement``: the public
constructor checks it once, and loop operations and maps build their results
through the unchecked ``LoopElement._trusted``.  These oracles apply every
family of maps to loops of its source context and check each term of the
result with sigma(x) == zeta_D^k * x in the result's context, written out in
``test_kernels._term_ok_per_term``, and that ``validate`` agrees."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, strategies as st

from kmforge.affine import AffineElement, extend_to_hat
from kmforge.catalog import catalog_for
from kmforge.field import imaginary_unit
from kmforge.liealg import FiniteAutomorphism, exp_curve
from kmforge.loop import TwistContext, validate
from kmforge.standard import ScaledMap, compose, conjugate, inverse, pointwise, standard_automorphism
from kmforge.verify import _exp_conjugator

from test_kernels import KERNEL_SETTINGS, _maps, _term_ok_per_term, scalars, twisted_loops


def _assert_twisted(u):
    assert all(_term_ok_per_term(u.context, k, x) for k, x in u.terms), u
    assert validate(u)


@cache
def _hat_maps():
    """Per algebra, the exp conjugator of verify_hat over the untwisted
    context with D = 2, and each catalog involution conjugated by it."""
    out = []
    for name in ("sl2C", "sl3C"):
        cat = catalog_for(name)
        ctx = TwistContext(cat.algebra, cat.named("id"), D=2)
        psi = _exp_conjugator(ctx)
        out.append((f"{name}:exp-conjugator", psi))
        out += [(f"{name}:hat:{inv}", conjugate(psi, pointwise(ctx, cat.named(inv))))
                for inv in cat.involutions()]
    return out


@cache
def _families():
    """(label, map): test_kernels' catalog, antilinear, shifted, real-form
    and exp-curve maps, and omega over the order-3 twist r3, where an
    antilinear map's exponent reversal shows; the inverse of each; composites
    of maps that chain; the exp-curve map that untwists tau; the hat maps;
    and tau_r after a standard map."""
    base = dict(_maps())
    for name in ("sl2C", "sl3C"):
        cat = catalog_for(name)
        r3 = TwistContext(cat.algebra, cat.named("r3"))
        base[f"{name}:omega:r3:shift1/5"] = pointwise(r3, cat.omega(), shift=Fraction(1, 5))
    out = list(base.items())
    out += [(f"inverse:{label}", inverse(phi)) for label, phi in base.items()]
    chains = [("sl2C:r3:eps-1:shift1/3", "sl2C:mu:eps-1:shift1/3"),
              ("sl2C:omega:shift2/5", "sl2C:r4:eps-1:shift1/3"),
              ("sl3C:rot:eps-1:shift1/3", "sl3C:theta:eps-1:shift1/3"),
              ("sl3C:omega:shift2/5", "sl3C:mu:eps-1:shift1/3"),
              ("sl2C:exp:shift1/3", "sl2C:tau:own-twist"),
              ("sl2C:exp:shift1/3", "sl2C:exp:shift0")]
    out += [(f"compose:{a}:{b}", compose(base[a], base[b])) for a, b in chains]
    sl2 = catalog_for("sl2C")
    tau = TwistContext(sl2.algebra, sl2.named("tau"), D=2)
    x = sl2.algebra.element([0, imaginary_unit() * Fraction(1, 4), 0])
    curve = exp_curve(x, [Fraction(1, 2), Fraction(0), Fraction(-1, 2)])
    untwist = standard_automorphism(1, Fraction(0), FiniteAutomorphism.identity(sl2.algebra),
                                    tau, exp=curve)
    out.append(("sl2C:untwist", untwist))
    out += _hat_maps()
    out += [("scaled:2:untwist", ScaledMap(Fraction(2), untwist)),
            ("scaled:1/3:sl2C:omega:shift2/5", ScaledMap(Fraction(1, 3), base["sl2C:omega:shift2/5"]))]
    return out


HAT_COUNT = 2 * (1 + 2)
FAMILY_COUNT = 2 * (35 + 2) + 6 + 1 + HAT_COUNT + 2


def test_family_inventory():
    families = dict(_families())
    assert len(families) == len(_families()) == FAMILY_COUNT
    assert len(_hat_maps()) == HAT_COUNT
    assert families["sl2C:untwist"].target.sigma.is_identity()
    assert any(phi.antilinear and phi.epsilon == -1 for phi in families.values()
               if not isinstance(phi, ScaledMap))


@pytest.mark.parametrize("index", range(FAMILY_COUNT))
@KERNEL_SETTINGS
@given(data=st.data())
def test_apply_results_keep_the_twist(index, data):
    _label, phi = _families()[index]
    _assert_twisted(phi.apply(data.draw(twisted_loops(phi.source))))


@pytest.mark.parametrize("index", range(HAT_COUNT))
@KERNEL_SETTINGS
@given(data=st.data())
def test_hat_extension_loop_part_keeps_the_twist(index, data):
    # the loop part of a hat image is phi(u) plus the shadow times d; the
    # central constant nu does not reach it
    phi = _hat_maps()[index][1]
    u = data.draw(twisted_loops(phi.source))
    x = AffineElement(u, data.draw(scalars()), data.draw(scalars()))
    _assert_twisted(extend_to_hat(phi).apply(x).loop)
