"""Twisted algebraic loop algebras.

A loop element is a finite sum of terms x * e^{i*k*t/D} with x in the
complexified algebra and k an integer on the 1/D exponent grid.  The twist
condition ties each exponent to an eigenspace of the twist automorphism:
sigma(u_k) = zeta_D^k * u_k.  All operations are exact and term-wise.
"""

from __future__ import annotations

import math

from .element import IntRows, convolve, killing_sum
from .errors import ContextMismatchError, InvalidInputError, NotFiniteOrderError
from .field import _immutable, _make, _rational, check_level, field_degree, zeta_power
from .liealg import automorphism_order, eigenspace_decomposition


class TwistContext:
    """Algebra + linear finite-order twist + exponent denominator D."""

    def __init__(self, algebra, sigma, D=None):
        if sigma.antilinear:
            raise InvalidInputError("twist automorphism must be linear")
        if sigma.algebra is not algebra:
            raise InvalidInputError("twist lives over a different algebra")
        order = automorphism_order(sigma)
        if order is None:
            raise NotFiniteOrderError("twist automorphism has no finite order within bound")
        self.algebra = algebra
        self.sigma = sigma
        self.twist_order = order
        if D is not None and type(D) is not int:
            raise InvalidInputError(f"D must be an int, got {type(D).__name__}")
        self.D = order if D is None else D
        if self.D < 1:
            raise InvalidInputError(f"D={self.D} must be >= 1")
        if self.D % order:
            raise InvalidInputError(f"D={self.D} must be a multiple of the twist order {order}")
        # zeta_D lives at level lcm(4, D); refusing a D beyond every valid level
        # here keeps slices and orders of such a context from ever being built
        check_level(math.lcm(4, self.D))
        self._eigenbases = None
        self._kernels = {}

    def __eq__(self, other):
        if not isinstance(other, TwistContext):
            return NotImplemented
        if self is other:
            return True
        return (
            self.algebra is other.algebra
            and self.D == other.D
            and self.sigma == other.sigma
        )

    __hash__ = None

    def __repr__(self):
        return f"TwistContext({self.algebra.name}, order {self.twist_order}, D={self.D})"

    def term_ok(self, k, x):
        """Twist condition sigma(x) = zeta_D^k x for one term, checked as
        (sigma - zeta_D^r I) x = 0 (sigma is linear), with the integer rows
        of that kernel cached per r = k mod D."""
        if not x:
            return True
        r = k % self.D
        if r not in self._kernels:
            z = zeta_power(self.D, r)
            self._kernels[r] = IntRows([[a - z if i == j else a for j, a in enumerate(row)]
                                        for i, row in enumerate(self.sigma.matrix)])
        return not self._kernels[r].apply(x)

    def eigenbasis_for_exponent(self, k):
        """Basis of the sigma-eigenspace attached to exponent k: zeta_D^k is
        zeta_n^(k*n/D) for the twist order n, and no eigenvalue when D/n
        does not divide k."""
        step = self.D // self.twist_order
        if k % step:
            return ()
        if self._eigenbases is None:
            self._eigenbases = eigenspace_decomposition(self.sigma, order=self.twist_order)
        return self._eigenbases.get(k // step % self.twist_order, ())


def slice_terms(context, N):
    """(k, b) pairs spanning the degree <= N slice: k ascends over -N..N and
    b runs over the eigenbasis attached to k."""
    return [(k, b) for k in range(-N, N + 1) for b in context.eigenbasis_for_exponent(k)]


class LoopElement:
    """Finite Laurent element of a twisted loop algebra: every element
    satisfies the twist condition of its context.

    The public constructor cleans what it is given (exponents must be ints;
    equal exponents are summed, zero terms dropped and the rest sorted) and
    then checks the twist condition once.  Internal results come from
    ``_trusted``, which checks nothing.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        object.__setattr__(self, "context", context)
        clean = {}
        for k, x in (terms.items() if isinstance(terms, dict) else terms):
            if type(k) is not int:
                raise InvalidInputError(f"loop exponent must be an int, got {k!r}")
            if x:
                clean[k] = clean[k] + x if k in clean else x
        clean = {k: x for k, x in clean.items() if x}
        object.__setattr__(self, "terms", tuple(sorted(clean.items())))
        if not validate(self):
            raise InvalidInputError("loop element violates its twist condition")

    @classmethod
    def _trusted(cls, context, terms):
        """Internal results only: ``terms`` maps distinct int exponents of
        ``context`` to its elements; zero terms are dropped and the rest
        sorted.  The caller guarantees the twist condition: sums and scalar
        multiples of valid terms keep it, so does a bracket (sigma[x, y] =
        [sigma x, sigma y]), a rescaling of each term and a combination of
        one exponent's eigenbasis, and a standard map lands in the target
        twist derived from periodicity."""
        self = object.__new__(cls)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", tuple(sorted([(k, x) for k, x in terms.items() if x])))
        return self

    __setattr__ = __delattr__ = _immutable

    def terms_dict(self):
        return dict(self.terms)

    def support(self):
        return [k for k, _ in self.terms]

    def degree(self):
        return max((abs(k) for k, _ in self.terms), default=0)

    def _check(self, other):
        if self.context != other.context:
            raise ContextMismatchError("loop elements from different twist contexts")

    def __add__(self, other):
        self._check(other)
        acc = self.terms_dict()
        for k, x in other.terms:
            acc[k] = acc[k] + x if k in acc else x
        return LoopElement._trusted(self.context, acc)

    def __neg__(self):
        return LoopElement._trusted(self.context, {k: -x for k, x in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return LoopElement._trusted(self.context, {k: x * scalar for k, x in self.terms})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LoopElement):
            return NotImplemented
        # terms are zero-free and sorted by exponent, and AlgebraElement
        # equality compares values across levels
        return self.context == other.context and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        D = self.context.D
        parts = [f"({x!r})*e^{{{k}it/{D}}}" for k, x in self.terms]
        return " + ".join(parts) if parts else "0"


def constant_loop(context, x):
    return LoopElement(context, {0: x})


def zero_loop(context):
    return LoopElement(context, {})


def loop_coords(u, exponents, lev):
    """Rational coordinates of u over ``exponents`` as ``(nums, den)``:
    integer numerators over one positive denominator, the lcm of the terms'.
    For each k come the level-``lev`` numerators of the k-th term's block,
    or a zero block where the term is missing."""
    terms = u.terms_dict()
    den = math.lcm(*(x.den for _, x in u.terms))
    zero = [0] * (u.context.algebra.dim * field_degree(lev))
    out = []
    for k in exponents:
        x = terms.get(k)
        if x is None:
            out += zero
        elif x.den == den:
            out += x.nums_at(lev)
        else:
            m = den // x.den
            out += [v * m for v in x.nums_at(lev)]
    return out, den


def validate(u):
    """True iff every term satisfies the twist eigenspace condition."""
    return all(u.context.term_ok(k, x) for k, x in u.terms)


def loop_bracket(u, v):
    """Pointwise bracket, computed as an exponent convolution."""
    u._check(v)
    return LoopElement._trusted(u.context, convolve(u.terms, v.terms))


def loop_derivative(u, c=1):
    """c * u': term k picks up the factor c*i*k/D."""
    s = _make(4, (0, 1), u.context.D) * c  # i/D
    return LoopElement._trusted(u.context, {k: x * (s * k) for k, x in u.terms if k})


def _opposite(u, v):
    """(k, u_k, v_-k) for every k where both terms exist."""
    u._check(v)
    vd = v.terms_dict()
    return [(k, x, vd[-k]) for k, x in u.terms if -k in vd]


def loop_inner(u, v):
    """Mean over a period of the pointwise Killing form: sum of kappa(u_k, v_{-k})."""
    return killing_sum([(1, x, y) for _, x, y in _opposite(u, v)])


def cocycle(u, v):
    """The central 2-cocycle <u', v> = (i/D) * sum of k * kappa(u_k, v_{-k}):
    ``cocycle_sum``'s one-pair case."""
    return cocycle_sum(((u, v),))


def cocycle_sum(pairs):
    """The sum of cocycle(u, v) over the (u, v) in ``pairs`` (at least one,
    of one context) as one weighted ``killing_sum``, times i/D."""
    s = killing_sum([(k, x, y) for u, v in pairs for k, x, y in _opposite(u, v) if k])
    return s * _make(4, (0, 1), pairs[0][0].context.D)  # i/D


def tau_r_apply(r, u):
    """Scaling map of the algebraic category: term k picks up r^k."""
    r = _rational(r)
    if r <= 0:
        raise InvalidInputError("scaling parameter must be positive")
    return LoopElement._trusted(u.context, {k: x * (r ** k) for k, x in u.terms})
