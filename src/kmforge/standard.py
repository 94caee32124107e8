"""Standard automorphisms of twisted loop algebras.

A standard map sends u(t) to phi_t(u(epsilon*t + 2*pi*shift)) where the curve
phi_t is either constant or of exponential form e^{ad tX} composed with a
constant base.  Reparametrization shifts fold into the base modulo full
periods, so every map carries a canonical shift in [0, 1).  Antilinear bases
conjugate coefficients and reverse Fourier exponents on top of epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CurveCompositionError,
    IncompatibleDenominatorError,
    InvalidInputError,
    TwistMismatchError,
)
from .field import zeta_of
from .liealg import FiniteAutomorphism, bracket, exp_ad, exp_curve, order_by_iteration
from .loop import LoopElement, TwistContext, slice_terms, tau_r_apply, validate


@dataclass(frozen=True)
class ConstantCurve:
    base: FiniteAutomorphism


@dataclass(frozen=True)
class ExpCurve:
    data: object  # ExpCurveData
    base: FiniteAutomorphism


@dataclass(frozen=True)
class StandardAutomorphism:
    epsilon: int
    shift: Fraction
    curve: object
    source: TwistContext
    target: TwistContext

    @property
    def antilinear(self):
        return self.curve.base.antilinear

    @property
    def is_constant(self):
        return isinstance(self.curve, ConstantCurve)

    def apply(self, u):
        return apply(self, u)

    def __repr__(self):
        kind = "constant" if self.is_constant else "exp"
        return (f"StandardAutomorphism(eps={self.epsilon}, shift={self.shift}, "
                f"{kind}, antilinear={self.antilinear})")


def standard_automorphism(epsilon, shift, curve, source, target=None):
    """Build and validate a standard automorphism.

    The target twist is computed from periodicity: for constant curves
    sigma_tgt = base o sigma^epsilon o base^{-1}, with the monodromy
    e^{2*pi*ad X} composed in front for exponential curves.  A supplied
    target is checked against the computed one.
    """
    if epsilon not in (1, -1):
        raise InvalidInputError("epsilon must be +1 or -1")
    shift = Fraction(shift)
    whole = math.floor(shift)
    shift -= whole
    # sigma^twist_order is the identity, so the whole turns fold modulo the
    # twist order, keeping their sign: a huge shift costs no more than a small one
    turns = abs(whole) % source.twist_order
    whole = turns if whole > 0 else -turns
    if isinstance(curve, ExpCurve) and not curve.data.generator:
        curve = ConstantCurve(curve.base)
    base = curve.base
    sigma = source.sigma
    if whole:
        base = base.compose(sigma.power(whole))
        curve = (ConstantCurve(base) if isinstance(curve, ConstantCurve)
                 else ExpCurve(curve.data, base))
    computed = base.compose(sigma.power(epsilon)).compose(base.inverse())
    if isinstance(curve, ExpCurve):
        for q, _ in curve.data.eigenpairs:
            if (q * source.D).denominator != 1:
                raise IncompatibleDenominatorError(
                    f"curve eigenvalue {q} does not fit the 1/{source.D} exponent grid")
        monodromy = exp_ad(curve.data, Fraction(1))
        computed = monodromy.compose(computed)
        if computed.apply(curve.data.generator) != curve.data.generator:
            raise InvalidInputError("target twist does not fix the curve generator")
    if target is None:
        target = TwistContext(source.algebra, computed, D=source.D)
    elif (target.algebra is not source.algebra or target.D != source.D
          or target.sigma != computed):
        raise TwistMismatchError("supplied target twist disagrees with periodicity")
    return StandardAutomorphism(epsilon, shift, curve, source, target)


def identity_automorphism(context):
    return standard_automorphism(
        1, Fraction(0), ConstantCurve(FiniteAutomorphism.identity(context.algebra)),
        context, context)


def rotation(context, shift):
    """u(t) -> u(t + 2*pi*shift); twist-preserving."""
    return standard_automorphism(
        1, Fraction(shift), ConstantCurve(FiniteAutomorphism.identity(context.algebra)),
        context)


def reflection(context):
    """u(t) -> u(-t); maps the twist to its inverse."""
    return standard_automorphism(
        -1, Fraction(0), ConstantCurve(FiniteAutomorphism.identity(context.algebra)),
        context)


def pointwise(context, auto, epsilon=1, shift=Fraction(0)):
    """u(t) -> auto(u(epsilon*t + 2*pi*shift)) with a constant curve."""
    return standard_automorphism(epsilon, Fraction(shift), ConstantCurve(auto), context)


def apply(phi, u):
    """Act on a loop element; output lives in the target context."""
    if u.context != phi.source:
        raise TwistMismatchError("loop element is not in the source context")
    if not validate(u):
        raise InvalidInputError("loop element violates its twist condition")
    D = phi.source.D
    eps_exp = phi.epsilon * (-1 if phi.antilinear else 1)
    base = phi.curve.base
    out = {}
    for k, x in u.terms:
        fac = zeta_of(Fraction(k) * phi.shift / D)
        y = base.apply(fac * x)
        if isinstance(phi.curve, ConstantCurve):
            pieces = {Fraction(0): y}
        else:
            pieces = phi.curve.data.decompose(y)
        for q, comp in pieces.items():
            shift_k = q * D
            if shift_k.denominator != 1:
                raise IncompatibleDenominatorError(
                    f"eigenvalue {q} does not fit the 1/{D} exponent grid")
            k2 = eps_exp * k + int(shift_k)
            out[k2] = out[k2] + comp if k2 in out else comp
    return LoopElement(phi.target, out)


def _reparam_curve(curve, eps, shift):
    """The curve t -> phi_{eps*t + 2*pi*shift}."""
    if isinstance(curve, ConstantCurve):
        return curve
    data = curve.data
    base = curve.base
    if shift:
        base = exp_ad(data, Fraction(shift)).compose(base)
    return ExpCurve(data.scaled(eps) if eps != 1 else data, base)


def _prepend_curve(outer, inner):
    """Pointwise composition outer_t o inner_t of two curves."""
    if isinstance(outer, ConstantCurve) and isinstance(inner, ConstantCurve):
        return ConstantCurve(outer.base.compose(inner.base))
    if isinstance(outer, ConstantCurve):
        moved = inner.data.transformed(outer.base)
        return ExpCurve(moved, outer.base.compose(inner.base))
    if isinstance(inner, ConstantCurve):
        return ExpCurve(outer.data, outer.base.compose(inner.base))
    moved = inner.data.transformed(outer.base)
    x_elem = outer.data.generator
    z_elem = moved.generator
    if bracket(x_elem, z_elem):
        raise CurveCompositionError("exponential generators do not commute")
    qs = {qx + qz for qx, _ in outer.data.eigenpairs for qz, _ in moved.eigenpairs}
    merged = exp_curve(x_elem + z_elem, sorted(qs))
    return ExpCurve(merged, outer.base.compose(inner.base))


def compose(a, b):
    """The standard automorphism a o b (apply b first)."""
    if b.target != a.source:
        raise TwistMismatchError("inner target twist does not match outer source")
    eps = a.epsilon * b.epsilon
    shift = b.epsilon * a.shift + b.shift
    inner = _reparam_curve(b.curve, a.epsilon, a.shift)
    curve = _prepend_curve(a.curve, inner)
    return standard_automorphism(eps, shift, curve, b.source, a.target)


def inverse(phi):
    eps = phi.epsilon
    base_inv = phi.curve.base.inverse()
    if isinstance(phi.curve, ConstantCurve):
        curve = ConstantCurve(base_inv)
    else:
        neg = phi.curve.data.transformed(base_inv).scaled(-1)
        base = exp_ad(neg, -eps * phi.shift).compose(base_inv)
        curve = ExpCurve(neg.scaled(eps) if eps != 1 else neg, base)
    return standard_automorphism(eps, -eps * phi.shift, curve, phi.target, phi.source)


def conjugate(psi, phi):
    """psi o phi o psi^{-1}."""
    return compose(psi, compose(phi, inverse(psi)))


def is_identity_standard(phi):
    return (phi.epsilon == 1 and phi.shift == 0 and phi.is_constant
            and phi.curve.base.is_identity())


def standard_order(phi, bound=48):
    """Least n <= bound with phi^n the identity map, else None.

    Powers are composed symbolically, so the identity test is the canonical
    form (constant curve, trivial base, zero shift).  When a composition of
    exponential curves leaves the supported family the order is decided on a
    spanning slice of the loop algebra instead.
    """
    if phi.source != phi.target:
        raise TwistMismatchError("order is defined for endomorphisms of one context")
    try:
        return order_by_iteration(phi, lambda acc: compose(phi, acc),
                                  is_identity_standard, bound)
    except CurveCompositionError:
        return loop_map_order(phi.apply, phi.source, bound)


def loop_map_order(apply_fn, context, bound=48, test_elements=None):
    """Least n <= bound with apply_fn^n fixing every test element, else None.

    The default test elements span the degree <= 2D slice of the loop algebra.
    """
    tests = test_elements if test_elements is not None else [
        LoopElement(context, {k: b}) for k, b in slice_terms(context, 2 * context.D)]
    return order_by_iteration(
        [apply_fn(u) for u in tests], lambda current: [apply_fn(c) for c in current],
        lambda current: all(c == u for c, u in zip(current, tests)), bound)


@dataclass(frozen=True)
class ScalingAutomorphism:
    """The algebraic-category scaling u_k -> r^k u_k."""

    r: Fraction

    def apply(self, u):
        return tau_r_apply(self.r, u)


@dataclass(frozen=True)
class ComposedLoopMap:
    """Composition of loop self-maps, applied right to left."""

    maps: tuple

    def apply(self, u):
        for m in reversed(self.maps):
            u = m.apply(u)
        return u
