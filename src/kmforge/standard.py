"""Standard automorphisms of twisted loop algebras.

A standard map sends u(t) to phi_t(u(epsilon*t + 2*pi*shift)) where the curve
phi_t is either constant or of exponential form e^{ad tX} composed with a
constant base.  Reparametrization shifts fold into the base modulo full
periods, so every map carries a canonical shift in [0, 1).  Antilinear bases
conjugate coefficients and reverse Fourier exponents on top of epsilon.

A map is checked once, where it enters: ``standard_automorphism`` (behind the
constructors below and the JSON decoder) checks its target twist, the fit of
its curve eigenvalues to the 1/D exponent grid and its monodromy, and
``liealg.exp_curve`` the curve's eigen data.  ``compose`` and ``inverse``
check none of it again: periodicity gives a product's or an inverse's target
twist, and scaling, transforming and adding commuting generators keep the
eigenvalues on the grid, so ``apply`` reads their exponent shifts unchecked.

``apply`` costs one integer-row product per term k: the base matrix times
zeta^(k*shift/D) (its conjugate for an antilinear base, which acts on
conj(x)) as ``element.IntRows``, cached on the map per k modulo the
denominator of shift/D, so at most that many kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .element import IntRows, bracket
from .errors import (
    CurveCompositionError,
    IncompatibleDenominatorError,
    InvalidInputError,
    TwistMismatchError,
)
from .field import _rational, zeta_of
from .liealg import ORDER_BOUND, FiniteAutomorphism, exp_ad, exp_curve, order_by_iteration
from .loop import LoopElement, TwistContext, slice_terms, tau_r_apply


@dataclass(frozen=True)
class StandardAutomorphism:
    """u(t) -> phi_t(u(epsilon*t + 2*pi*shift)), where the curve phi_t is the
    constant ``base``, or e^{ad tX} o base when ``exp`` holds the
    ExpCurveData of X (``exp`` is None for a constant curve)."""

    epsilon: int
    shift: Fraction
    base: FiniteAutomorphism
    exp: object  # ExpCurveData | None
    source: TwistContext
    target: TwistContext
    _kernels: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # realforms' slice generators per exponent and fixed spans per block
    _slices: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _step: Fraction = field(init=False, compare=False, repr=False)  # shift / D

    def __post_init__(self):
        object.__setattr__(self, "_step", self.shift / self.source.D)

    @property
    def antilinear(self):
        return self.base.antilinear

    def apply(self, u):
        return apply(self, u)

    def __repr__(self):
        kind = "constant" if self.exp is None else "exp"
        return (f"StandardAutomorphism(eps={self.epsilon}, shift={self.shift}, "
                f"{kind}, antilinear={self.antilinear})")


def standard_automorphism(epsilon, shift, base, source, target=None, exp=None):
    """Build and validate a standard automorphism: the one place that checks
    a map's target twist, curve grid and monodromy.

    The target twist is computed from periodicity: for constant curves
    sigma_tgt = base o sigma^epsilon o base^{-1}, with the monodromy
    e^{2*pi*ad X} composed in front for exponential curves.  A supplied
    target is checked against the computed one.  A computed twist with
    sigma's entry key (levels included) reuses the source context.
    """
    shift, base, exp = _fold(epsilon, shift, base, source, exp)
    sigma = source.sigma
    computed = base.compose(sigma.power(epsilon)).compose(base.inverse())
    if exp is not None:
        for q, _ in exp.eigenpairs:
            if (q * source.D).denominator != 1:
                raise IncompatibleDenominatorError(
                    f"curve eigenvalue {q} does not fit the 1/{source.D} exponent grid")
        monodromy = exp_ad(exp, Fraction(1))
        computed = monodromy.compose(computed)
        if computed.apply(exp.generator) != exp.generator:
            raise InvalidInputError("target twist does not fix the curve generator")
    if target is None:
        target = (source if computed._entry_key() == sigma._entry_key()
                  else TwistContext(source.algebra, computed, D=source.D))
    elif (target.algebra is not source.algebra or target.D != source.D
          or target.sigma != computed):
        raise TwistMismatchError("supplied target twist disagrees with periodicity")
    return StandardAutomorphism(epsilon, shift, base, exp, source, target)


def _fold(epsilon, shift, base, source, exp):
    """(shift, base, exp) in canonical form: the shift's whole turns folded
    into the base as base o sigma^whole, and a zero curve generator dropped."""
    if type(epsilon) is not int or epsilon not in (1, -1):
        raise InvalidInputError(f"epsilon must be the int +1 or -1, got {epsilon!r}")
    shift = _rational(shift)
    whole = math.floor(shift)
    shift -= whole
    # sigma^twist_order is the identity, so the whole turns fold modulo the
    # twist order, keeping their sign: a huge shift costs no more than a small one
    turns = abs(whole) % source.twist_order
    whole = turns if whole > 0 else -turns
    if exp is not None and not exp.generator:
        exp = None
    if whole:
        base = base.compose(source.sigma.power(whole))
    return shift, base, exp


def identity_automorphism(context):
    return standard_automorphism(
        1, Fraction(0), FiniteAutomorphism.identity(context.algebra), context, context)


def rotation(context, shift):
    """u(t) -> u(t + 2*pi*shift); twist-preserving."""
    return standard_automorphism(
        1, shift, FiniteAutomorphism.identity(context.algebra), context)


def reflection(context):
    """u(t) -> u(-t); maps the twist to its inverse."""
    return standard_automorphism(
        -1, Fraction(0), FiniteAutomorphism.identity(context.algebra), context)


def pointwise(context, auto, epsilon=1, shift=Fraction(0)):
    """u(t) -> auto(u(epsilon*t + 2*pi*shift)) with a constant curve."""
    return standard_automorphism(epsilon, shift, auto, context)


def _kernel(phi, k):
    """The integer rows that act on term k: the base matrix times
    zeta^(k*s) for s = shift/D, conjugated for an antilinear base."""
    s = phi._step
    r = k % s.denominator
    if r not in phi._kernels:
        fac = zeta_of(-r * s if phi.antilinear else r * s)
        phi._kernels[r] = (IntRows([[fac * a if a else a for a in row] for row in phi.base.matrix])
                           if s else phi.base.int_rows())
    return phi._kernels[r]


def apply(phi, u):
    """Act on a loop element of the source context; the output lives in
    the target context and keeps the twist condition, since the target twist
    is derived from periodicity.  Term k is one mat-vec with the kernel
    cached for k modulo the denominator of shift/D, written to exponent eps*k
    for a constant curve."""
    if u.context != phi.source:
        raise TwistMismatchError("loop element is not in the source context")
    D = phi.source.D
    eps_exp = phi.epsilon * (-1 if phi.antilinear else 1)
    exp = phi.exp
    out = {}
    for k, x in u.terms:
        y = _kernel(phi, k).apply(x.conj() if phi.antilinear else x)
        if exp is None:
            out[eps_exp * k] = y
            continue
        for q, comp in exp.decompose(y).items():
            k2 = eps_exp * k + int(q * D)
            out[k2] = out[k2] + comp if k2 in out else comp
    return LoopElement._trusted(phi.target, out)


def compose(a, b):
    """The standard automorphism a o b (apply b first).

    b's curve is reparametrised by t -> a.epsilon*t + 2*pi*a.shift and pushed
    through a's base; the curves are then multiplied pointwise, which keeps
    two exponential curves in the family only when their generators commute.
    The target twist is a.target by periodicity and the eigenvalues stay on
    the grid, so no check of ``standard_automorphism`` is made again.
    """
    if b.target != a.source:
        raise TwistMismatchError("inner target twist does not match outer source")
    eps = a.epsilon * b.epsilon
    shift = b.epsilon * a.shift + b.shift
    base, exp = b.base, b.exp
    if exp is not None:
        if a.shift:
            base = exp_ad(exp, a.shift).compose(base)
        if a.epsilon != 1:
            exp = exp.scaled(a.epsilon)
        exp = exp.transformed(a.base)
        if a.exp is not None:
            x, z = a.exp.generator, exp.generator
            if bracket(x, z):
                raise CurveCompositionError("exponential generators do not commute")
            qs = {qx + qz for qx, _ in a.exp.eigenpairs for qz, _ in exp.eigenpairs}
            exp = exp_curve(x + z, sorted(qs))
    else:
        exp = a.exp
    shift, base, exp = _fold(eps, shift, a.base.compose(base), b.source, exp)
    return StandardAutomorphism(eps, shift, base, exp, b.source, a.target)


def inverse(phi):
    """phi^{-1}: its target twist is phi.source by periodicity and its
    eigenvalues are phi's up to sign, so like ``compose`` it checks none."""
    eps = phi.epsilon
    base = phi.base.inverse()
    exp = phi.exp
    if exp is not None:
        exp = exp.transformed(base).scaled(-1)
        base = exp_ad(exp, -eps * phi.shift).compose(base)
        if eps != 1:
            exp = exp.scaled(eps)
    shift, base, exp = _fold(eps, -eps * phi.shift, base, phi.target, exp)
    return StandardAutomorphism(eps, shift, base, exp, phi.target, phi.source)


def conjugate(psi, phi):
    """psi o phi o psi^{-1}."""
    return compose(psi, compose(phi, inverse(psi)))


def is_identity_standard(phi):
    return (phi.epsilon == 1 and phi.shift == 0 and phi.exp is None
            and phi.base.is_identity())


def standard_order(phi, bound=ORDER_BOUND):
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


def loop_map_order(apply_fn, context, bound=ORDER_BOUND, test_elements=None):
    """Least n <= bound with apply_fn^n fixing every test element, else None.

    The default test elements span the degree <= 2D slice of the loop algebra.
    """
    tests = test_elements if test_elements is not None else [
        LoopElement(context, {k: b}) for k, b in slice_terms(context, 2 * context.D)]
    return order_by_iteration(
        [apply_fn(u) for u in tests], lambda current: [apply_fn(c) for c in current],
        lambda current: all(c == u for c, u in zip(current, tests)), bound)


@dataclass(frozen=True)
class ScaledMap:
    """tau_r after a standard map: u -> tau_r(phi(u)), where the
    algebraic-category scaling tau_r sends u_k to r^k u_k."""

    r: Fraction
    phi: StandardAutomorphism

    @property
    def source(self):
        return self.phi.source

    def apply(self, u):
        return tau_r_apply(self.r, apply(self.phi, u))
