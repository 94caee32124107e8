"""The two-dimensional extension of a twisted loop algebra.

Elements carry a loop part plus central and derivation coordinates.  The
bracket adds the central cocycle term and lets the derivation coordinate act
by the loop derivative; brackets never produce a derivation component.  A
sum of brackets is one contraction, ``bracket_sum``; ``affine_bracket`` is
its one-pair case.
Loop-algebra automorphisms extend to the hat algebra by the closed formulas
for the scaling constants, the shadow loop, and the central correction, with
exactly one choice of the free constant giving a finite-order extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .element import _as_scalar, _blocks, _contract_rows
from .errors import ContextMismatchError, NotFiniteOrderError, OrderMismatchError
from .field import CyclotomicNumber, _immutable, _make
from .liealg import ORDER_BOUND
from .linalg import in_span, rref
from .loop import (
    LoopElement,
    cocycle_sum,
    constant_loop,
    loop_coords,
    loop_inner,
    slice_terms,
    zero_loop,
)
from .standard import apply, loop_map_order, standard_order


class AffineElement:
    """Loop part plus central (c) and derivation (d) coordinates."""

    __slots__ = ("loop", "c_coef", "d_coef")

    def __init__(self, loop, c_coef=0, d_coef=0):
        object.__setattr__(self, "loop", loop)
        object.__setattr__(self, "c_coef", _as_scalar(c_coef))
        object.__setattr__(self, "d_coef", _as_scalar(d_coef))

    __setattr__ = __delattr__ = _immutable

    @property
    def context(self):
        return self.loop.context

    def __add__(self, other):
        self._check(other)
        return AffineElement(self.loop + other.loop, self.c_coef + other.c_coef,
                             self.d_coef + other.d_coef)

    def __neg__(self):
        return AffineElement(-self.loop, -self.c_coef, -self.d_coef)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return AffineElement(self.loop * scalar, self.c_coef * scalar, self.d_coef * scalar)

    __rmul__ = __mul__

    def _check(self, other):
        if self.context != other.context:
            raise ContextMismatchError("affine elements from different contexts")

    def __bool__(self):
        return bool(self.loop) or bool(self.c_coef) or bool(self.d_coef)

    def __eq__(self, other):
        if not isinstance(other, AffineElement):
            return NotImplemented
        # loop equality compares the contexts first; scalar equality compares
        # values across levels
        return (self.loop == other.loop and self.c_coef == other.c_coef
                and self.d_coef == other.d_coef)

    __hash__ = None

    def __repr__(self):
        return f"AffineElement(loop={self.loop!r}, c={self.c_coef!r}, d={self.d_coef!r})"


def c_element(context):
    return AffineElement(zero_loop(context), c_coef=1)


def d_element(context):
    return AffineElement(zero_loop(context), d_coef=1)


def affine_bracket(x, y):
    """[u + a c + b d, v + a' c + b' d] = [u,v]_0 + b v' - b' u' + w(u,v) c:
    ``bracket_sum``'s one-pair case."""
    return bracket_sum(((x, y),))


def bracket_sum(pairs):
    """The sum of [x, y] over the (x, y) in ``pairs`` (at least one, of one
    context): every term pair and every derivative term b (ik/D) v_k meeting
    at exponent k, the scalar b i/D on the scalar row with weight k, go into
    one integer row at the lcm of their levels; c is one ``cocycle_sum``."""
    ctx = pairs[0][0].context
    alg, unit, groups = ctx.algebra, _make(4, (0, 1), ctx.D), {}  # unit = i/D
    for x, y in pairs:
        pairs[0][0]._check(x)
        x._check(y)
        us, vs = ([(k, tb) for (k, _), tb in zip(u.terms, _blocks([t for _, t in u.terms])[1])]
                  for u in (x.loop, y.loop))
        for k1, xb in us:
            for k2, yb in vs:
                groups.setdefault(k1 + k2, []).append((1, xb, yb))
        for b, sign, terms in ((x.d_coef, 1, vs), (y.d_coef, -1, us)):
            if b:
                sb = (s := b * unit, [(alg.dim, s.nums)])
                for k, tb in terms:
                    if k:
                        groups.setdefault(k, []).append((sign * k, sb, tb))
    return AffineElement(LoopElement._trusted(ctx, _contract_rows(alg, groups)),
                         cocycle_sum([(x.loop, y.loop) for x, y in pairs]))


@dataclass(frozen=True)
class HatExtensionData:
    """Extension of a standard automorphism to the hat algebra.

    Scaling constants on c and d both equal epsilon; ``shadow`` is the loop
    whose adjoint action matches the curve's logarithmic derivative (zero for
    constant curves, -epsilon * X for exponential ones); ``nu`` is the free
    central coordinate of the image of d.
    """

    phi: object  # StandardAutomorphism
    shadow: LoopElement
    nu: CyclotomicNumber

    @property
    def epsilon(self):
        return self.phi.epsilon

    def apply(self, x):
        """Hat action: c and d scale by epsilon, d picks up the shadow loop,
        and the loop image phi(u) adds -epsilon * (phi(u), shadow) to c."""
        if x.context != self.phi.source:
            raise ContextMismatchError("element is not in the source context")
        loop_part = apply(self.phi, x.loop)
        c_part = (x.c_coef - loop_inner(loop_part, self.shadow)) * self.epsilon
        d_part = x.d_coef * self.epsilon
        if x.d_coef:
            loop_part = loop_part + self.shadow * x.d_coef
            c_part = c_part + self.nu * x.d_coef
        return AffineElement(loop_part, c_part, d_part)


def extend_to_hat(phi, nu=0):
    """Hat extension of a standard automorphism with free central constant."""
    if phi.exp is None:
        shadow = zero_loop(phi.target)
    else:
        shadow = constant_loop(phi.target, phi.exp.generator * Fraction(-phi.epsilon))
    return HatExtensionData(phi, shadow, _as_scalar(nu))


def finite_order_extension(phi, bound=ORDER_BOUND):
    """The unique finite-order hat extension: nu = -eps*|shadow|^2/2.

    The order of the extension is verified by iterating the hat action on c,
    d, and a spanning slice of loops; it must equal the order of phi.
    """
    q = standard_order(phi, bound)
    if q is None:
        raise NotFiniteOrderError("map has no finite order within the bound")
    data = extend_to_hat(phi, 0)
    nu = loop_inner(data.shadow, data.shadow) * Fraction(-phi.epsilon, 2)
    data = HatExtensionData(phi, data.shadow, nu)
    order = hat_order(data, bound=q)
    if order != q:
        raise OrderMismatchError(f"hat extension has order {order}, expected {q}")
    return data


def _hat_slice(context, N):
    """c, d, then the degree <= N loop slice as hat elements."""
    return [c_element(context), d_element(context)] + [
        AffineElement(LoopElement._trusted(context, {k: b})) for k, b in slice_terms(context, N)]


def hat_order(data, bound=ORDER_BOUND):
    """Order of the hat action on {c, d} + the degree <= 2D slice, or None."""
    ctx = data.phi.source
    if ctx != data.phi.target:
        raise ContextMismatchError("order needs matching source and target")
    return loop_map_order(data.apply, ctx, bound, test_elements=_hat_slice(ctx, 2 * ctx.D))


def hat_preserves_bracket(data, pairs):
    """Check the extension against the affine bracket on given element pairs."""
    for x, y in pairs:
        lhs = data.apply(affine_bracket(x, y))
        rhs = affine_bracket(data.apply(x), data.apply(y))
        if lhs != rhs:
            return False
    return True


def center_and_derived_check(context, N):
    """Desk-scale check that brackets avoid d, c is central, and d is not
    spanned by brackets of the degree <= N slice."""
    slice_elems = _hat_slice(context, N)
    results = []
    c_ok = True
    d_free = True
    c = c_element(context)
    for x in slice_elems:
        if affine_bracket(c, x) or affine_bracket(x, c):
            c_ok = False
    for i, x in enumerate(slice_elems):
        for y in slice_elems[i:]:
            w = affine_bracket(x, y)
            if w.d_coef:
                d_free = False
            if w:
                results.append(w)
    levels = {cf.level for w in results for cf in (w.c_coef, w.d_coef)}
    levels.update(x.level for w in results for _, x in w.loop.terms)
    lev = math.lcm(4, *levels)
    support = sorted({k for w in results for k in w.loop.support()} | {0})
    flat = [_flatten_affine(w, support, lev) for w in results]
    rr, piv = rref(flat)
    d_vec = _flatten_affine(d_element(context), support, lev)
    d_in_derived = in_span(rr, piv, d_vec)
    return {
        "context": repr(context),
        "N": N,
        "bracket_count": len(results),
        "no_d_component": d_free,
        "c_central": c_ok,
        "d_outside_derived_span": not d_in_derived,
        "passed": d_free and c_ok and not d_in_derived,
    }


def _flatten_affine(w, support, lev):
    """The integer numerators of w's loop and central coordinates over
    their common denominator; span membership ignores that denominator."""
    loop_nums, a = loop_coords(w.loop, support, lev)
    cd = [w.c_coef.lift(lev), w.d_coef.lift(lev)]
    den = math.lcm(a, *(c.den for c in cd))
    return [v * (den // a) for v in loop_nums] + [v * (den // c.den) for c in cd for v in c.nums]
