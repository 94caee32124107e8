"""Lie algebra elements as integer blocks, and matrices that act on them.

An ``AlgebraElement`` over a ``liealg.LieAlgebraTable`` of dimension d is the
layout of ``field``'s scalars widened to a vector: a ``level`` L, a flat tuple
``nums`` of d segments of phi(L) power-basis numerators (segment i is
coordinate i), and one positive ``den``, with gcd(*nums, den) == 1.
``coords`` builds the d CyclotomicNumbers on demand, every one at the
element's level.  As the block is in lowest terms, ``den`` is the lcm of the
coordinates' denominators, so ``(nums_at(L), den)`` are the element's
rational coordinates at level L.  ``nums_at`` and ``conj`` apply ``field``'s
numerator kernels ``_lift_nums`` and ``_conj_nums`` segment by segment, and
``IntRows.apply`` lifts its rows with ``_lift_nums``.  The level rule:

* an element built from coordinates is at lcm(4, their levels), zero
  coordinates included;
* x + y, x - y, bracket(x, y) and c * x for a CyclotomicNumber c are at the
  lcm of the operands' levels; -x, conj(x) and q * x for a rational q keep
  x's level;
* killing_form(x, y) is a scalar at lcm(x.level, y.level), or the level-4
  zero when no nonzero coordinates of x and y meet a nonzero Killing entry;
* a matrix acts through ``IntRows``, whose level is lcm(4, the levels of its
  nonzero entries); its image of x is at the lcm of that and x.level.

Equality compares values across levels.  ``bracket`` and ``killing_form``
contract the blocks with the table's integer constants (``int_pairs`` and
``int_killing`` over ``scale`` and ``scale**2``).  Scalar products,
``bracket`` and ``IntRows.apply`` are in closed form at level 4; otherwise,
and for the Killing form, each output coordinate sums unreduced polynomial
products (``_contract``) and is reduced once with ``field``'s power table.
"""

from __future__ import annotations

import math

from .errors import AlgebraMismatchError, LevelMismatchError
from .field import (CyclotomicNumber, _canon, _conj_nums, _lift_nums, _poly_mul, _ratio, _rational,
                    _reduce, check_level)


def _as_scalar(c):
    """A CyclotomicNumber from an int, a Fraction or a CyclotomicNumber;
    anything else raises InvalidInputError."""
    if isinstance(c, CyclotomicNumber):
        return c
    return CyclotomicNumber.from_rational(c)


class AlgebraElement:
    """Coordinate vector over a LieAlgebraTable, scalars in Q(zeta_L), stored
    as one integer block (layout and level rule in the module docstring)."""

    __slots__ = ("algebra", "level", "nums", "den")

    def __init__(self, algebra, coords):
        coords = tuple(c if type(c) is CyclotomicNumber else _as_scalar(c) for c in coords)
        if len(coords) != algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")
        level = coords[0].level if coords else 4
        if any(c.level != level for c in coords):
            level = math.lcm(*(c.level for c in coords))
            coords = [c.lift(level) for c in coords]
        # each coordinate is in lowest terms, so the block over the lcm is too
        den = math.lcm(*(c.den for c in coords))
        if den == 1:
            nums = tuple(v for c in coords for v in c.nums)
        else:
            nums = tuple(v * (den // c.den) for c in coords for v in c.nums)
        _set_algebra(self, algebra)
        _set_level(self, level)
        _set_nums(self, nums)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def coords(self):
        """The coordinates as CyclotomicNumbers, each at the element's level."""
        nums, den, level = self.nums, self.den, self.level
        n = len(nums) // self.algebra.dim
        return tuple(_canon(level, nums[i:i + n], den) for i in range(0, len(nums), n))

    def nums_at(self, level):
        """The numerators re-expressed at ``level``, a multiple of self.level,
        over the same ``den``."""
        if level == self.level:
            return self.nums
        if level % self.level:
            raise LevelMismatchError(f"cannot lift level {self.level} into {level}")
        check_level(level)
        nums = self.nums
        n = len(nums) // self.algebra.dim
        step = level // self.level
        return tuple(v for i in range(0, len(nums), n)
                     for v in _lift_nums(nums[i:i + n], step, level))

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("elements live over different algebras")

    def __add__(self, other):
        return _add(self, other, 1)

    def __sub__(self, other):
        return _add(self, other, -1)

    def __neg__(self):
        return _element(self.algebra, self.level, tuple([-v for v in self.nums]), self.den)

    def __mul__(self, scalar):
        alg, den = self.algebra, self.den
        if type(scalar) is not CyclotomicNumber:
            p, q = _ratio(scalar) or _ratio(_rational(scalar))
            return _canonical(alg, self.level, [v * p for v in self.nums], den * q)
        level = math.lcm(self.level, scalar.level)
        nums = self.nums_at(level)
        s = scalar.nums if scalar.level == level else scalar.lift(level).nums
        den *= scalar.den
        if level == 4:  # (x0 + x1 i)(s0 + s1 i), segment by segment
            s0, s1 = s
            out = [v for x0, x1 in zip(nums[::2], nums[1::2])
                   for v in (x0 * s0 - x1 * s1, x0 * s1 + x1 * s0)]
        else:
            n = len(s)
            out = [v for i in range(0, len(nums), n)
                   for v in _reduce(level, _poly_mul(nums[i:i + n], s))]
        return _canonical(alg, level, out, den)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.algebra is not other.algebra or self.den != other.den:
            return False
        if self.level == other.level:
            return self.nums == other.nums
        level = math.lcm(self.level, other.level)
        return self.nums_at(level) == other.nums_at(level)

    __hash__ = None

    def conj(self):
        """Complex conjugation of every coordinate, z -> z^{-1}."""
        nums, level = self.nums, self.level
        if level == 4:
            out = list(nums)
            out[1::2] = [-v for v in nums[1::2]]
            return _element(self.algebra, 4, tuple(out), self.den)
        n = len(nums) // self.algebra.dim
        out = tuple(v for i in range(0, len(nums), n)
                    for v in _conj_nums(nums[i:i + n], level))
        return _element(self.algebra, level, out, self.den)

    def __repr__(self):
        names = self.algebra.basis_names
        terms = [f"({c})*{n}" for c, n in zip(self.coords, names) if c]
        return " + ".join(terms) if terms else "0"


_set_algebra = AlgebraElement.algebra.__set__
_set_level = AlgebraElement.level.__set__
_set_nums = AlgebraElement.nums.__set__
_set_den = AlgebraElement.den.__set__


def _element(algebra, level, nums, den):
    """Trusted constructor: the block (nums, den) is already in lowest terms."""
    x = object.__new__(AlgebraElement)
    _set_algebra(x, algebra)
    _set_level(x, level)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _canonical(algebra, level, nums, den):
    """The element nums/den (any ints, any positive den) in lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            return _element(algebra, level, tuple([v // g for v in nums]), den // g)
    return _element(algebra, level, tuple(nums), den)


def _common(x, y):
    """(level, x's numerators, y's numerators) at the lcm of the two levels."""
    x._check(y)
    if x.level == y.level:
        return x.level, x.nums, y.nums
    level = math.lcm(x.level, y.level)
    return level, x.nums_at(level), y.nums_at(level)


def _add(x, y, sign):
    """x + sign * y: a/da + sign * b/db over da * db, or over da when equal."""
    level, a, b = _common(x, y)
    da, db = x.den, y.den
    fa, fb, den = (1, sign, da) if da == db else (db, sign * da, da * db)
    return _canonical(x.algebra, level, [p * fa + q * fb for p, q in zip(a, b)], den)


def _segments(nums, n):
    """(index, segment) for every nonzero coordinate of a block."""
    return [(i, nums[i * n:i * n + n]) for i in range(len(nums) // n)
            if any(nums[i * n:i * n + n])]


def bracket(x, y):
    """Lie bracket, contracting the two blocks with the table's integer
    structure constants."""
    level, a, b = _common(x, y)
    alg = x.algebra
    d, pairs = alg.dim, alg.int_pairs
    den = x.den * y.den * alg.scale
    if level == 4:
        r0, r1 = [0] * d, [0] * d
        ys = _segments(b, 2)
        for i, (x0, x1) in _segments(a, 2):
            row = pairs[i]
            for j, (y0, y1) in ys:
                cs = row[j]
                if cs:
                    p0, p1 = x0 * y0 - x1 * y1, x0 * y1 + x1 * y0
                    for k, c in cs:
                        r0[k] += c * p0
                        r1[k] += c * p1
        nums = [v for pair in zip(r0, r1) for v in pair]
        return _canonical(alg, 4, nums, den)
    n = len(a) // d
    ys = _segments(b, n)
    terms = [(pairs[i][j], xs, yseg) for i, xs in _segments(a, n) for j, yseg in ys if pairs[i][j]]
    return _canonical(alg, level, _contract(level, n, d, terms), den)


def killing_form(x, y):
    """Killing form, extended bilinearly over the cyclotomic scalars."""
    level, a, b = _common(x, y)
    alg = x.algebra
    kappa = alg.int_killing
    n = len(a) // alg.dim
    ys = _segments(b, n)
    terms = [(((0, kappa[i][j]),), xs, yseg) for i, xs in _segments(a, n) for j, yseg in ys
             if kappa[i][j]]
    if not terms:
        return CyclotomicNumber.zero()
    return _canon(level, _contract(level, n, 1, terms), x.den * y.den * alg.scale ** 2)


def _contract(level, n, size, terms):
    """Numerators of ``size`` coordinates: output k sums c * a * b over the
    ``terms`` (pairs, a, b), where the (k, c) in pairs take the product of
    the segments a and b.  Products are summed unreduced and each output is
    reduced once."""
    acc = [None] * size
    for pairs, a, b in terms:
        prod = _poly_mul(a, b)
        for k, c in pairs:
            raw = acc[k]
            if raw is None:
                acc[k] = [c * v for v in prod]
            else:
                for m, v in enumerate(prod):
                    raw[m] += c * v
    zero = (0,) * n
    return [v for raw in acc for v in (zero if raw is None else _reduce(level, raw))]


class IntRows:
    """A square CyclotomicNumber matrix as integer rows that act on element
    blocks: one ``level``, lcm(4, the levels of the nonzero entries), one
    positive ``den``, the lcm of their denominators, and ``rows``, where an
    entry is its numerators at that level over ``den``, or None when it is
    zero.  Owners build it once and cache it; an apply to an element of a
    higher level lifts the rows for that call only."""

    __slots__ = ("level", "den", "rows")

    def __init__(self, matrix):
        nonzero = [a for row in matrix for a in row if a]
        self.level = level = math.lcm(4, *(a.level for a in nonzero))
        self.den = den = math.lcm(*(a.den for a in nonzero))
        self.rows = tuple(tuple(None if not a else tuple(
            v * (den // a.den) for v in (a.nums if a.level == level else a.lift(level).nums))
            for a in row) for row in matrix)

    def apply(self, x):
        """The matrix times the coordinate vector of x, as an element at
        lcm(self.level, x.level)."""
        level = self.level if x.level == self.level else math.lcm(self.level, x.level)
        nums = x.nums_at(level)  # checks the level before any table is built
        rows = self.rows
        if level != self.level:
            step = level // self.level
            rows = [[None if e is None else _lift_nums(e, step, level) for e in row]
                    for row in rows]
        alg = x.algebra
        den = self.den * x.den
        if level == 4:
            xs = _segments(nums, 2)
            out = []
            for row in rows:
                r0 = r1 = 0
                for k, (y0, y1) in xs:
                    e = row[k]
                    if e is not None:
                        a0, a1 = e
                        r0 += a0 * y0 - a1 * y1
                        r1 += a0 * y1 + a1 * y0
                out.append(r0)
                out.append(r1)
            return _canonical(alg, 4, out, den)
        n = len(nums) // alg.dim
        xs = _segments(nums, n)
        terms = [(((i, 1),), e, seg) for i, row in enumerate(rows) for k, seg in xs
                 for e in (row[k],) if e is not None]
        return _canonical(alg, level, _contract(level, n, len(rows), terms), den)
