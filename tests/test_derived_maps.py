"""Maps built by ``compose``, ``inverse`` and ``conjugate`` are checked maps.

``standard_automorphism`` checks a map where it enters; the maps derived
from checked maps are built without those checks.  Here every derived map
of a drawn chain on an sl2C or sl3C twist must be accepted again by
``standard_automorphism`` with the same fields, act as its factors do on the
degree <= 2 slice, give loops that the public ``LoopElement`` constructor
accepts, and satisfy each fact that is no longer tested where it is used:
the curve's eigenspace grading and 1/D grid, and, for a constant
endomorphism of finite order q, the extraction facts q * shift integral
(first kind) and plus^2 = minus^2 of order q/2 (second kind).
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kmforge.catalog import catalog_for
from kmforge.element import bracket
from kmforge.errors import KmforgeError
from kmforge.field import imaginary_unit
from kmforge.liealg import automorphism_order
from kmforge.loop import LoopElement, TwistContext, slice_terms
from kmforge.standard import (
    apply,
    compose,
    conjugate,
    inverse,
    pointwise,
    reflection,
    rotation,
    standard_automorphism,
    standard_order,
)
from kmforge.verify import _exp_conjugator

BOUND = 12  # orders of drawn constant endomorphisms are looked for up to here
SHIFTS = st.builds(Fraction, st.integers(-6, 12), st.integers(1, 6))


@st.composite
def contexts(draw):
    """A twist by an sl2C or sl3C catalog map, D its order or twice that."""
    cat = catalog_for(draw(st.sampled_from(("sl2C", "sl3C"))))
    sigma = cat.named(draw(st.sampled_from(cat.names())))
    return TwistContext(cat.algebra, sigma, D=automorphism_order(sigma) * draw(st.sampled_from((1, 2))))


@st.composite
def factors(draw, ctx):
    """A map that enters through ``standard_automorphism``: a catalog base or
    the antilinear compact conjugation with drawn epsilon and shift, a
    rotation, the reflection, or verify's exp curve (X = (i/2) h) with drawn
    epsilon and shift and a drawn base, else the identity; a rotation where
    ctx refuses that curve."""
    cat = catalog_for(ctx.algebra.name)
    # the exp curve is drawn twice as often as each other kind: several twists refuse it
    kind = draw(st.sampled_from(("catalog", "omega", "rotation", "reflection", "exp", "exp")))
    eps, shift = draw(st.sampled_from((1, -1))), draw(SHIFTS)
    base = cat.named(draw(st.sampled_from(cat.names())))
    if kind == "catalog":
        return pointwise(ctx, base, eps, shift)
    if kind == "omega":
        return pointwise(ctx, cat.omega(), eps, shift)
    if kind == "reflection":
        return reflection(ctx)
    if kind == "exp":
        for b in (base, cat.named("id")):
            try:
                return standard_automorphism(eps, shift, b, ctx, exp=_exp_conjugator(ctx).exp)
            except KmforgeError:
                pass
    return rotation(ctx, shift)


@st.composite
def endomorphisms(draw, ctx):
    """A drawn factor that maps ctx to itself, else a power of its twist as a
    constant base (which commutes with the twist), with a drawn shift."""
    phi = draw(factors(ctx))
    if phi.target == ctx:
        return phi
    return pointwise(ctx, ctx.sigma.power(draw(st.integers(0, 3))), shift=draw(SHIFTS))


def _slice(ctx):
    """The degree <= 2 slice's spanning terms, and i times each."""
    i = imaginary_unit()
    return [LoopElement(ctx, {k: c * b}) for k, b in slice_terms(ctx, 2) for c in (1, i)]


def _applied(phi, u):
    """apply(phi, u), which the public constructor must accept unchanged."""
    out = apply(phi, u)
    assert LoopElement(phi.target, out.terms_dict()) == out
    return out


def _qs(phi):
    return None if phi.exp is None else [q for q, _ in phi.exp.eigenpairs]


def _check_entry(r):
    """r is the map ``standard_automorphism`` builds from r's fields."""
    s = standard_automorphism(r.epsilon, r.shift, r.base, r.source, r.target, exp=r.exp)
    assert s.target is r.target
    assert s.shift == r.shift and s.base._entry_key() == r.base._entry_key()
    assert _qs(s) == _qs(r)


def _check_curve(r):
    """Eigenvalues on the 1/D grid, and [V_q1, V_q2] inside V_(q1+q2)."""
    if r.exp is None:
        return
    assert all((q * r.source.D).denominator == 1 for q in _qs(r))
    vectors = [(q, v) for q, vs in r.exp.eigenpairs for v in vs]
    for q1, v1 in vectors:
        for q2, v2 in vectors:
            assert set(r.exp.decompose(bracket(v1, v2))) <= {q1 + q2}


def _check_extractable(r):
    """The facts invariant extraction reads off a linear constant-curve
    endomorphism of finite order q."""
    if r.exp is not None or r.antilinear or r.source != r.target:
        return
    q = standard_order(r, BOUND)
    if q is None:
        return
    if r.epsilon == 1:
        assert (r.shift * q).denominator == 1
        return
    m = conjugate(rotation(r.source, r.shift / 2), r) if r.shift else r
    assert m.shift == 0 and standard_order(m, BOUND) == q
    plus = m.base
    minus = plus.compose(m.source.sigma.inverse())
    assert plus.power(2) == minus.power(2)
    assert automorphism_order(plus.power(2), BOUND) == q // 2


def _check(r):
    _check_entry(r)
    _check_curve(r)
    _check_extractable(r)


def _check_compose(a, b):
    r = compose(a, b)
    _check(r)
    for u in _slice(b.source):
        assert _applied(r, u) == _applied(a, _applied(b, u))
    return r


def _check_inverse(p):
    r = inverse(p)
    _check(r)
    for u in _slice(p.source):
        assert _applied(r, _applied(p, u)) == u
    return r


def _check_conjugate(psi, phi):
    r = conjugate(psi, phi)
    _check(r)
    for u in _slice(phi.source):
        assert _applied(r, _applied(psi, u)) == _applied(psi, _applied(phi, u))
    return r


@given(contexts(), st.data())
def test_derived_maps_are_checked_maps(ctx, data):
    # each step's inputs were checked at the step before, so every step
    # compares its result with the factors it was built from
    p = data.draw(factors(ctx))
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(("compose", "inverse", "conjugate")))
        if op == "compose":
            p = _check_compose(data.draw(factors(p.target)), p)
        elif op == "inverse":
            p = _check_inverse(p)
        elif p.target == p.source and data.draw(st.booleans()):
            p = _check_conjugate(data.draw(factors(p.source)), p)
        else:
            p = _check_conjugate(p, data.draw(endomorphisms(p.source)))


@pytest.mark.parametrize("algebra", ["sl2C", "sl3C"])
def test_exp_curves_under_shifted_and_reflected_factors(algebra):
    # the exp curve after a shift, a reflection and an antilinear base, its
    # inverse, and verify_hat's conjugates of every involution
    cat = catalog_for(algebra)
    ctx = TwistContext(cat.algebra, cat.named("id"), D=2)
    psi = _exp_conjugator(ctx)
    for outer in (rotation(psi.target, Fraction(1, 3)), reflection(psi.target),
                  pointwise(psi.target, cat.omega(), shift=Fraction(1, 4))):
        _check_inverse(_check_compose(outer, psi))
    _check_inverse(_check_compose(psi, rotation(ctx, Fraction(2, 5))))
    for name in cat.involutions():
        _check_inverse(_check_conjugate(psi, pointwise(ctx, cat.named(name))))
