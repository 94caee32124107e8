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

Level 4 (the Gaussian rationals, degree 2) multiplies and inverts in closed
form.  Other levels multiply schoolbook and reduce with a per-level table of
reduced powers of z, built on first use, and invert by the extended Euclidean
algorithm.  Everything is immutable and exact; there is no floating point
outside the debug helper ``to_complex``.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .errors import InvalidLevelError, LevelMismatchError

# Largest accepted level.  Building Phi_L costs about L^2 and the power table
# L * phi(L) integers; at 1024 either takes well under a second.
MAX_LEVEL = 1024


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_mul(a, b):
    # int coefficients for products, Fraction ones in the Euclidean inverse
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
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


def _ratio(x):
    """(numerator, positive denominator) of an int or Fraction, else None."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


def _split(coords):
    """Fractions as integer numerators over their least common denominator;
    the pair is in lowest terms."""
    den = math.lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


class CyclotomicNumber:
    """Element of Q(zeta_L): integer numerators ``nums`` in the power basis
    mod Phi_L over one positive denominator ``den``, in lowest terms."""

    __slots__ = ("level", "nums", "den")

    def __init__(self, level, coords):
        n = check_level(level)
        coords = [Fraction(c) for c in coords]
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinates at level {level}, got {len(coords)}")
        nums, den = _split(coords)
        _set_level(self, level)
        _set_nums(self, nums)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @property
    def coords(self):
        """The value as reduced Fractions in the power basis."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rational(cls, value, level=4):
        q = Fraction(value)
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
        step = level // self.level
        raw = [0] * (len(self.nums) * step)
        raw[::step] = self.nums
        # Z[zeta_M] is Z[zeta_L] cut down to Q(zeta_M), so lowest terms survive.
        return _make(level, _reduce(level, raw), self.den)

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
        """Multiplicative inverse: conjugate over the norm at level 4, the
        extended Euclidean algorithm mod Phi_L elsewhere."""
        if not any(self.nums):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        L, d = self.level, self.den
        if L == 4:  # d / (a + b i) = d (a - b i) / (a^2 + b^2)
            a, b = self.nums
            return _canon(4, (d * a, -d * b), a * a + b * b)
        # inverse of nums/d is d * nums^{-1} mod Phi_L
        r0 = [Fraction(c) for c in cyclotomic_polynomial(L)]
        r1 = [Fraction(c) for c in self.nums]
        t0, t1 = [], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                scale = d / r1[0]
                nums, den = _split(_reduce(L, [c * scale for c in t1]))
                return _make(L, nums, den)
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            t_new = _poly_sub(t0, _poly_mul(q, t1))
            t0, t1 = t1, t_new

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
        L = self.level
        if L == 4:
            x0, x1 = self.nums
            return _make(4, (x0, -x1), self.den)
        raw = [0] * L
        for j, c in enumerate(self.nums):
            raw[-j] = c  # z^j -> z^{L-j}
        # an automorphism of Z[zeta_L], so lowest terms survive
        return _make(L, _reduce(L, raw), self.den)

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

    def is_rational(self):
        return not any(self.nums[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.nums[0], self.den)

    # -- debug -------------------------------------------------------------

    def to_complex(self):
        """Floating-point embedding at the primitive root; debugging only."""
        z = complex(math.cos(2 * math.pi / self.level), math.sin(2 * math.pi / self.level))
        acc = 0j
        for c in reversed(self.nums):
            acc = acc * z + c
        return acc / self.den

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


def _poly_divmod_frac(num, den):
    num = list(num)
    while den and not den[-1]:
        den = den[:-1]
    dn = len(den) - 1
    inv = 1 / den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            q = c * inv
            quot[i - dn] = q
            for j, y in enumerate(den):
                num[i - dn + j] -= q * y
    while num and not num[-1]:
        num.pop()
    return quot, num


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
            for i in range(n)]


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
    """e^{2*pi*i*r} for rational r, as an exact root of unity."""
    r = Fraction(r)
    b = r.denominator
    return zeta_power(b, r.numerator % b)


def imaginary_unit(level=4):
    """i = zeta_L^{L/4}; requires 4 | level, which all levels satisfy."""
    return zeta_power(level, level // 4)


def conj(a):
    return a.conj()
