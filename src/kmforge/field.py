"""Exact arithmetic in cyclotomic fields Q(zeta_L).

A value of level L is an element of Q(z), z = e^{2*pi*i/L}, written in the
power basis 1, z, ..., z^{n-1} modulo the L-th cyclotomic polynomial Phi_L,
where n = deg Phi_L = phi(L).  It is stored as a tuple of integer numerators
``nums`` over one positive common denominator ``den`` (the layout of FLINT's
``fmpq_poly``/``nf_elem``), always in lowest terms: gcd(*nums, den) == 1, and
zero is all-zero numerators over 1.  Reduction mod Phi_L is canonical, so
equality is equality of (nums, den).  ``coords`` gives the same value as a
tuple of reduced Fractions.

Levels are multiples of 4, so that i = z^{L/4} is always available, and at
most MAX_LEVEL, so that untrusted input cannot ask for a huge Phi_L:
``check_level`` enforces both before any table is built.  A value of level M
embeds into any level L with M | L; binary operations lift both operands to
the lcm of their levels.  Requests to re-express a value at a level that does
not contain its own raise LevelMismatchError.

Level 4 (the Gaussian rationals, degree 2) multiplies and adds in closed
form.  Other levels multiply schoolbook and reduce with a per-level table of
reduced powers of z, built on first use.  Every level inverts through the
norm, on integer numerators: 1/x is the product of x's other Galois
conjugates over N(x).  Its cost grows fast with the level: one dense inverse
took about 3.5 s at level 512 and 40 s at level 1024 (one run each, CPython
3.11 on a 2-vCPU host).  The ring maps on numerators, the embedding
Q(zeta_M) in Q(zeta_L) (``_lift_nums``) and the Galois maps z -> z^a
(``_galois_nums``, conjugation is a = -1), are stated once here: ``element``
applies them to each segment of an element block and to the integer rows of
a matrix.  ``Fraction`` only converts rational input and gives ``coords``.
Every value is immutable, ``del`` included, and exact; there is no floating
point.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .errors import InvalidInputError, InvalidLevelError, LevelMismatchError

# Largest accepted level.  Building Phi_L costs about L^2 and the power table
# L * phi(L) integers; at 1024 either takes well under a second.
MAX_LEVEL = 1024


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    nz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nz:
                out[i + j] += x * y
    return out


def _poly_divmod_int(num, den):
    # Exact division of integer polynomials, den monic up to leading unit.
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c % lead:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        quot[i - dn] = q
        if q:
            for j, y in enumerate(den):
                num[i - dn + j] -= q * y
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@functools.cache
def cyclotomic_polynomial(L):
    """Coefficients (low to high) of the L-th cyclotomic polynomial."""
    if L < 1:
        raise ValueError("level must be positive")
    poly = [-1] + [0] * (L - 1) + [1]  # x^L - 1
    for d in _divisors(L):
        if d < L:
            poly, rem = _poly_divmod_int(poly, cyclotomic_polynomial(d))
            assert not rem
    return tuple(poly)


@functools.cache
def field_degree(L):
    """Degree of Q(zeta_L) over Q, i.e. Euler phi of L, by trial factoring."""
    if L < 1:
        raise ValueError("level must be positive")
    phi, rest, p = L, L, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            phi -= phi // p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


def check_level(level):
    """Field degree at ``level``, once ``level`` is known to be a multiple of
    4 between 4 and MAX_LEVEL; raises InvalidLevelError otherwise.  Builds no
    polynomial, so it is cheap on any input."""
    if not isinstance(level, int) or not 4 <= level <= MAX_LEVEL or level % 4:
        raise InvalidLevelError(
            f"level must be a multiple of 4 between 4 and {MAX_LEVEL}, got {level!r}")
    return field_degree(level)


@functools.cache
def _power_table(L):
    """z^m reduced mod Phi_L, for 0 <= m <= max(L, 2*deg-2); integer coords."""
    phi = cyclotomic_polynomial(L)
    n = len(phi) - 1
    top = max(L, 2 * n - 1)
    rows = []
    cur = [0] * n
    cur[0] = 1
    for _ in range(top + 1):
        rows.append(tuple(cur))
        nxt = [0] * (n + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] = c
        lead = nxt[n]
        if lead:
            # subtract lead * Phi_L (monic)
            nxt = [nxt[i] - lead * phi[i] for i in range(n)]
        else:
            nxt = nxt[:n]
        cur = nxt
    return tuple(rows)


def _reduce(L, raw):
    """Coefficients of sum_m raw[m] * z^m reduced mod Phi_L, as a tuple."""
    n = field_degree(L)
    out = list(raw[:n])
    out.extend([0] * (n - len(out)))
    table = _power_table(L)
    for m in range(n, len(raw)):
        c = raw[m]
        if c:
            for i, t in enumerate(table[m]):
                if t:
                    out[i] += c * t
    return tuple(out)


def _lift_nums(nums, step, level):
    """The power-basis numerators ``nums`` of a value of level ``level //
    step``, re-expressed at ``level``: z_M^j is z_L^(j*step).  Z[zeta_M] is
    Z[zeta_L] cut down to Q(zeta_M), so numerators in lowest terms over a
    denominator stay so."""
    raw = [0] * (len(nums) * step)
    raw[::step] = nums
    return _reduce(level, raw)


def _galois_nums(nums, a, level):
    """The numerators ``nums`` of a level-``level`` value under the Galois
    map sigma_a: z -> z^a, for ``a`` prime to the level, i.e. z^j -> z^(a*j
    mod L); conjugation is a = -1.  It is an automorphism of Z[zeta_L], so
    numerators in lowest terms over a denominator stay so."""
    raw = [0] * level
    for j, c in enumerate(nums):
        raw[a * j % level] = c
    return _reduce(level, raw)


def _ratio(x):
    """(numerator, positive denominator) of an int or Fraction, else None."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


def _rational(c):
    """``c`` as a Fraction when it is an int or a Fraction; a float or a
    string is refused, so no inexact or parsed value enters the field."""
    if not isinstance(c, (int, Fraction)):
        raise InvalidInputError(f"a rational scalar must be an int or a Fraction, "
                                f"got {type(c).__name__}")
    return Fraction(c)


def _split(coords):
    """Fractions as integer numerators over their least common denominator;
    the pair is in lowest terms."""
    den = math.lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


def _immutable(self, *_):
    """``__setattr__`` and ``__delattr__`` of kmforge's immutable values."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class CyclotomicNumber:
    """Element of Q(zeta_L): integer numerators ``nums`` in the power basis
    mod Phi_L over one positive denominator ``den``, in lowest terms."""

    __slots__ = ("level", "nums", "den")

    def __init__(self, level, coords):
        n = check_level(level)
        coords = [_rational(c) for c in coords]
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinates at level {level}, got {len(coords)}")
        nums, den = _split(coords)
        _set_level(self, level)
        _set_nums(self, nums)
        _set_den(self, den)

    __setattr__ = __delattr__ = _immutable

    @property
    def coords(self):
        """The value as reduced Fractions in the power basis."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rational(cls, value, level=4):
        q = _rational(value)
        n = check_level(level)
        return _make(level, (q.numerator,) + (0,) * (n - 1), q.denominator)

    @classmethod
    def zero(cls, level=4):
        return _make(level, (0,) * check_level(level), 1)

    @classmethod
    def one(cls, level=4):
        return _make(level, (1,) + (0,) * (check_level(level) - 1), 1)

    # -- level handling ----------------------------------------------------

    def lift(self, level):
        """Re-express at a higher level; requires self.level | level."""
        if level == self.level:
            return self
        if level % self.level:
            raise LevelMismatchError(f"cannot lift level {self.level} into {level}")
        check_level(level)
        return _make(level, _lift_nums(self.nums, level // self.level, level), self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return _add(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return _add(self, other, -1)

    def __rsub__(self, other):
        return _add(-self, other, 1)

    def __neg__(self):
        return _make(self.level, tuple(map(operator.neg, self.nums)), self.den)

    def __mul__(self, other):
        if type(other) is not CyclotomicNumber:
            q = _ratio(other)
            if q is None:
                return NotImplemented
            p, s = q
            return _canon(self.level, [x * p for x in self.nums], self.den * s)
        a, b = (self, other) if self.level == other.level else _common(self, other)
        den = a.den * b.den
        if a.level == 4:  # (x0 + x1 i)(y0 + y1 i)
            x0, x1 = a.nums
            y0, y1 = b.nums
            r0 = x0 * y0 - x1 * y1
            r1 = x0 * y1 + x1 * y0
            g = math.gcd(r0, r1, den)
            if g != 1:
                r0 //= g
                r1 //= g
                den //= g
            return _make(4, (r0, r1), den)
        return _canon(a.level, _reduce(a.level, _poly_mul(a.nums, b.nums)), den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse through the norm, on integers.  For x =
        X / den: P, the product of sigma_a(X) over the a prime to L other
        than 1, has integer numerators, and X * P is the norm N(X), a
        positive integer; so 1/x is den * P / N(X)."""
        if not any(self.nums):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        L, nums = self.level, self.nums
        conjugates = [_galois_nums(nums, a, L) for a in range(2, L) if math.gcd(a, L) == 1]
        prod = functools.reduce(lambda p, q: _reduce(L, _poly_mul(p, q)), conjugates)
        norm = _reduce(L, _poly_mul(nums, prod))
        if norm[0] <= 0 or any(norm[1:]):
            raise ArithmeticError("norm of a nonzero cyclotomic number is not a positive rational")
        return _canon(L, [self.den * c for c in prod], norm[0])

    def __truediv__(self, other):
        if type(other) is CyclotomicNumber:
            return self * other.inverse()
        q = _ratio(other)
        if q is None:
            return NotImplemented
        return self * Fraction(q[1], q[0])

    def __rtruediv__(self, other):
        if _ratio(other) is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicNumber.one(self.level)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conj(self):
        """Complex conjugation, the ring automorphism z -> z^{-1}."""
        return _make(self.level, _galois_nums(self.nums, -1, self.level), self.den)

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if type(other) is not CyclotomicNumber:
            q = _ratio(other)
            if q is None:
                return NotImplemented
            return self.den == q[1] and self.nums[0] == q[0] and not any(self.nums[1:])
        a, b = (self, other) if self.level == other.level else _common(self, other)
        return a.nums == b.nums and a.den == b.den

    __hash__ = None

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coords):
            if c:
                terms.append(f"{c}*z^{j}" if j else f"{c}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyc[{self.level}]({body})"


_new = object.__new__
_set_level = CyclotomicNumber.level.__set__
_set_nums = CyclotomicNumber.nums.__set__
_set_den = CyclotomicNumber.den.__set__


def _make(level, nums, den):
    """Trusted constructor: (nums, den) must already be in lowest terms."""
    x = _new(CyclotomicNumber)
    _set_level(x, level)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _canon(level, nums, den):
    """Value nums/den (any integer sequence, any positive den) in lowest terms."""
    g = math.gcd(den, *nums)
    if g != 1:
        return _make(level, tuple([x // g for x in nums]), den // g)
    return _make(level, tuple(nums), den)


def _common(a, b):
    lev = math.lcm(a.level, b.level)
    return a.lift(lev), b.lift(lev)


def _add(a, b, sign):
    """a + sign * b for a CyclotomicNumber a and b a CyclotomicNumber, int or
    Fraction."""
    if type(b) is not CyclotomicNumber:
        q = _ratio(b)
        if q is None:
            return NotImplemented
        p, s = q
        nums = [x * s for x in a.nums]
        nums[0] += sign * p * a.den
        return _canon(a.level, nums, a.den * s)
    if a.level != b.level:
        a, b = _common(a, b)
    da, db = a.den, b.den
    if a.level == 4:
        x0, x1 = a.nums
        y0, y1 = b.nums
        if da == db:
            r0, r1 = (x0 + y0, x1 + y1) if sign > 0 else (x0 - y0, x1 - y1)
            den = da
        else:
            r0, r1 = x0 * db + sign * y0 * da, x1 * db + sign * y1 * da
            den = da * db
        g = math.gcd(r0, r1, den)
        if g != 1:
            r0 //= g
            r1 //= g
            den //= g
        return _make(4, (r0, r1), den)
    if da == db:
        op = operator.add if sign > 0 else operator.sub
        return _canon(a.level, tuple(map(op, a.nums, b.nums)), da)
    nums = tuple(x * db + sign * y * da for x, y in zip(a.nums, b.nums))
    return _canon(a.level, nums, da * db)


def zeta_power(L, k):
    """Canonical representative of zeta_L^k (level lifted to lcm(4, L))."""
    if L < 1:
        raise InvalidLevelError("level must be positive")
    lev = math.lcm(4, L)
    check_level(lev)
    k = (k * (lev // L)) % lev
    # a root of unity is a unit of Z[zeta], so its numerators share no factor
    return _make(lev, _power_table(lev)[k], 1)


def zeta_of(r):
    """e^{2*pi*i*r} for rational r (an int or a Fraction), as an exact root
    of unity."""
    r = _rational(r)
    b = r.denominator
    return zeta_power(b, r.numerator % b)


def imaginary_unit(level=4):
    """i = zeta_L^{L/4}; requires 4 | level, which all levels satisfy."""
    return zeta_power(level, level // 4)

