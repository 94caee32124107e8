"""Classification invariants of finite-order standard automorphisms.

First kind (epsilon = +1): a triple (p, rho, [beta]) with 0 <= p <= q/2,
rho a catalog representative of order gcd(p, q), and [beta] a component
class inside the centralizer of rho.  Second kind (epsilon = -1): a pair
of automorphisms with a common square, taken modulo swapping and coupled
conjugation.  Extraction uses the closed forms available for constant
curves; realization inverts it and lands on a loop algebra whose twist is
built from the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .catalog import catalog_for
from .errors import (
    ClassifierUnavailableError,
    IncompatibleDataError,
    InvalidInputError,
    NotFiniteOrderError,
    NotFirstKindError,
    NotSecondKindError,
    OrderMismatchError,
    SquareMismatchError,
)
from .liealg import ORDER_BOUND, FiniteAutomorphism, automorphism_order, builtin_algebra
from .loop import TwistContext
from .standard import (
    conjugate,
    pointwise,
    reflection,
    rotation,
    standard_order,
)


@dataclass(frozen=True)
class FirstKindInvariant:
    algebra: str
    q: int
    p: int
    rho: str
    beta_class: str

    def as_tuple(self):
        return (self.p, self.rho, self.beta_class)


@dataclass(frozen=True)
class SecondKindInvariant:
    algebra: str
    q: int
    plus: FiniteAutomorphism
    minus: FiniteAutomorphism
    plus_name: str | None = None
    minus_name: str | None = None


def _resolve(cat, auto_or_name):
    if isinstance(auto_or_name, str):
        return cat.named(auto_or_name)
    return auto_or_name


def _bezout(p1, q1):
    """l, m with l*p1 + m*q1 = 1 and 0 <= l < q1 (q1 >= 1, gcd = 1)."""
    if q1 == 1:
        return 0, 1
    l = pow(p1 % q1, -1, q1)
    m = (1 - l * p1) // q1
    return l, m


def _check_extractable(phi):
    if phi.antilinear:
        raise InvalidInputError("invariants are defined for linear maps only")
    if phi.exp is not None:
        raise InvalidInputError("extraction needs a constant curve; quasiconjugate first")


def _checked_order(phi, q, bound):
    """The order of phi within the bound, which a declared q must equal."""
    order = standard_order(phi, bound)
    if order is None:
        raise NotFiniteOrderError(f"no finite order within bound {bound}")
    if q is not None and q != order:
        raise OrderMismatchError(f"declared order {q} but computed {order}")
    return order


def extract_invariant_first(phi, q=None, bound=ORDER_BOUND):
    """Invariant (p, rho, [beta]) of a first-kind constant-curve map."""
    if phi.epsilon != 1:
        raise NotFirstKindError("map is of the second kind")
    _check_extractable(phi)
    q = _checked_order(phi, q, bound)
    # phi^q is the identity, whose shift is 0: q * shift is a whole number
    p = int(phi.shift * q)
    if 2 * p > q:
        flipped = conjugate(reflection(phi.source), phi)
        return extract_invariant_first(flipped, q, bound)
    cat = catalog_for(phi.source.algebra.name)
    r = math.gcd(p, q)  # r = q when p = 0
    p1, q1 = p // r, q // r
    l, m = _bezout(p1, q1)
    base = phi.base
    sigma = phi.source.sigma
    rho_t = base.power(q1).compose(sigma.power(p1))
    lam = base.power(l).compose(sigma.power(-m))
    rho = cat.match(rho_t, bound).name
    label = cat.component_class(rho, lam.inverse(), rho_t)
    return FirstKindInvariant(phi.source.algebra.name, q, p, rho, label)


def realize_first(algebra_name, p, rho, beta, q, D=None):
    """Representative automorphism with the given first-kind invariant.

    Returns (sigma, phi) with sigma = rho^l beta^{q'} and
    phi: u(t) -> phi_0(u(t + 2*pi*p/q)) for phi_0 = rho^m beta^{-p'}.
    """
    cat = catalog_for(algebra_name)
    rho = _resolve(cat, rho)
    beta = _resolve(cat, beta)
    if not 0 <= p <= q:
        raise IncompatibleDataError("p must lie in [0, q]")
    r = math.gcd(p, q)
    if automorphism_order(rho) != r:
        raise IncompatibleDataError(f"rho must have order gcd(p,q) = {r}")
    if rho.compose(beta) != beta.compose(rho):
        raise IncompatibleDataError("beta must commute with rho")
    p1, q1 = p // r, q // r
    l, m = _bezout(p1, q1)
    sigma = rho.power(l).compose(beta.power(q1))
    phi0 = rho.power(m).compose(beta.power(-p1))
    if not phi0.power(q).compose(sigma.power(p)).is_identity():
        raise IncompatibleDataError("phi_0^q sigma^p is not the identity")
    ctx = TwistContext(builtin_algebra(algebra_name), sigma, D=D)
    phi = pointwise(ctx, phi0, epsilon=1, shift=Fraction(p, q))
    if phi.target != ctx:
        raise IncompatibleDataError("realization does not preserve its twist")
    return sigma, phi


def extract_invariant_second(phi, q=None, bound=ORDER_BOUND):
    """Invariant [phi_plus, phi_minus] of a second-kind constant-curve map."""
    if phi.epsilon != -1:
        raise NotSecondKindError("map is of the first kind")
    _check_extractable(phi)
    if phi.shift:
        rot = rotation(phi.source, phi.shift / 2)
        return extract_invariant_second(conjugate(rot, phi), q, bound)
    q = _checked_order(phi, q, bound)
    base = phi.base
    sigma = phi.source.sigma
    # phi maps its context to itself, base sigma^-1 base^-1 = sigma, so base^2
    # commutes with sigma and plus^2 = minus^2; phi^2 is the constant map
    # base^2, of order q/2
    plus = base
    minus = base.compose(sigma.inverse())
    cat = catalog_for(phi.source.algebra.name)
    return SecondKindInvariant(
        phi.source.algebra.name, q, plus, minus,
        cat.name_of(plus), cat.name_of(minus))


def realize_second(algebra_name, plus, minus, D=None):
    """Representative u(t) -> phi_plus(u(-t)) on the twist phi_minus^{-1} phi_plus."""
    cat = catalog_for(algebra_name)
    plus = _resolve(cat, plus)
    minus = _resolve(cat, minus)
    if plus.power(2) != minus.power(2):
        raise SquareMismatchError("phi_plus^2 must equal phi_minus^2")
    sigma = minus.inverse().compose(plus)
    ctx = TwistContext(builtin_algebra(algebra_name), sigma, D=D)
    if sigma.compose(plus).compose(sigma) != plus:
        raise IncompatibleDataError("pair violates the reflection periodicity")
    phi = pointwise(ctx, plus, epsilon=-1, shift=Fraction(0))
    return sigma, phi


def invariants_equal(a, b, bound=ORDER_BOUND):
    """Equality of classification invariants: never across kinds, as data for
    the first kind, and for the second kind modulo the generated relation
    (swap, coupled conjugation)."""
    kinds = (FirstKindInvariant, SecondKindInvariant)
    if not (isinstance(a, kinds) and isinstance(b, kinds)):
        raise InvalidInputError("classification invariants expected")
    if type(a) is not type(b):
        return False
    if isinstance(a, FirstKindInvariant):
        return a == b
    if a.algebra != b.algebra or a.q != b.q:
        return False
    cat = catalog_for(a.algebra)
    pairs = ((b.plus, b.minus), (b.minus, b.plus))
    # equality first: a conjugacy test raises CatalogMissError when an order
    # is not found within the bound
    if any(a.plus == c_plus and a.minus == c_minus for c_plus, c_minus in pairs):
        return True
    if not a.plus.power(2).is_identity():
        raise ClassifierUnavailableError(
            "second-kind coupling beyond involution pairs is decided only by equality")
    # for both built-ins the involution centralizers meet every component, so
    # coupled conjugation reduces to factorwise conjugacy
    return any(cat.conjugate_in_aut(a.plus, c_plus, bound)
               and cat.conjugate_in_aut(a.minus, c_minus, bound) for c_plus, c_minus in pairs)
