"""Lie algebra elements as integer blocks, and matrices that act on them.

An ``AlgebraElement`` over a ``liealg.LieAlgebraTable`` of dimension d is the
layout of ``field``'s scalars widened to a vector: a ``level`` L, a flat tuple
``nums`` of d segments of phi(L) power-basis numerators (segment i is
coordinate i), and one positive ``den``, with gcd(*nums, den) == 1.
``coords`` builds the d CyclotomicNumbers on demand, every one at the
element's level.  As the block is in lowest terms, ``den`` is the lcm of the
coordinates' denominators, so ``(nums_at(L), den)`` are the element's
rational coordinates at level L.  ``nums_at`` and ``conj`` apply ``field``'s
numerator kernels ``_lift_nums`` and ``_galois_nums`` (at a = -1) segment by
segment, and ``IntRows.apply`` lifts its rows with ``_lift_nums``.  The level
rule:

* an element built from coordinates is at lcm(4, their levels), zero
  coordinates included;
* x + y, x - y, bracket(x, y) and c * x for a CyclotomicNumber c are at the
  lcm of the operands' levels; -x, conj(x) and q * x for a rational q keep
  x's level;
* output k of convolve(xs, ys) is at the lcm of the levels of all pairs
  meeting at k, also where a pair's bracket is zero, as x + y is (so is
  ``affine.bracket_sum``'s, derivative terms included);
  combination(scalars, elements) is at lcm(4, every level);
* killing_sum(pairs) and killing_form(x, y) are scalars at lcm(4, the levels
  of the pairs whose nonzero coordinates meet a nonzero Killing entry);
* a matrix acts through ``IntRows``, whose level is lcm(4, the levels of its
  nonzero entries); its image of x is at the lcm of that and x.level.

Equality compares values across levels.  ``convolve``, ``killing_sum`` and
``combination`` sum all pairs meeting in an output into one integer row
(``_sum_pairs``), with the table's ``int_pairs`` over ``scale`` and
``killing_pairs`` over ``scale**2``; a scalar c on ``int_pairs``' scalar
row d, a block (c, [(d, c.nums)]), times y is scale * c * y.  Scalar
products, ``_sum_pairs``, ``combination`` and ``IntRows.apply`` are in
closed form at level 4; otherwise each output coordinate sums unreduced
polynomial products (``_contract``) and is reduced once with ``field``'s
power table.  ``_contract_rows``, behind ``convolve`` and
``affine.bracket_sum``, contracts every exponent group of a call in one
loop (``_sum_pairs4``, one lcm of denominators a group) when every block
of the call is at level 4, and calls ``_sum_pairs`` once a group otherwise.

``IntRows.apply(x, conj=True)`` is the matrix times conj(x), read off x's
segments with no conjugated element built: at level 4 the closed form takes
y0 - y1 i for each segment (y0, y1), above it each segment goes through
``_galois_nums`` at a = -1.  Antilinear maps (``liealg`` and ``standard``)
act through it.  ``IntRows.product`` is the same product before it is put
in lowest terms, which ``standard.fixes`` compares without an element.

The contractions read an element as its nonzero segments, (index, segment)
pairs at the element's own level.  The element caches them in the slot
``segs``: lazy (None until ``_segs`` cuts them on first use), immutable once
set, and not part of equality or repr.  So a basis vector, a drawn term or a
slice basis element is cut into segments once, however many contractions
read it.  An ``IntRows.apply`` at a higher level than x's cuts x's lifted
block for that call only.
"""

from __future__ import annotations

import math

from .errors import AlgebraMismatchError, LevelMismatchError
from .field import (CyclotomicNumber, _canon, _galois_nums, _immutable, _lift_nums, _make,
                    _poly_mul, _ratio, _rational, _reduce, check_level)


def _as_scalar(c):
    """A CyclotomicNumber from an int, a Fraction or a CyclotomicNumber;
    anything else raises InvalidInputError."""
    if isinstance(c, CyclotomicNumber):
        return c
    p, q = _ratio(c) or _ratio(_rational(c))
    return _make(4, (int(p), 0), q)


class AlgebraElement:
    """Coordinate vector over a LieAlgebraTable, scalars in Q(zeta_L), stored
    as one integer block (layout and level rule in the module docstring)."""

    __slots__ = ("algebra", "level", "nums", "den", "segs")

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
        _set_segs(self, None)

    __setattr__ = __delattr__ = _immutable

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
        return _lift_block(self.nums, len(self.nums) // self.algebra.dim, self.level, level)

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
        if type(scalar) is not CyclotomicNumber:
            p, q = _ratio(scalar) or _ratio(_rational(scalar))
            return _canonical(self.algebra, self.level, [v * p for v in self.nums], self.den * q)
        return combination((scalar,), (self,))

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
                    for v in _galois_nums(nums[i:i + n], -1, level))
        return _element(self.algebra, level, out, self.den)

    def __repr__(self):
        names = self.algebra.basis_names
        terms = [f"({c})*{n}" for c, n in zip(self.coords, names) if c]
        return " + ".join(terms) if terms else "0"


_set_algebra = AlgebraElement.algebra.__set__
_set_level = AlgebraElement.level.__set__
_set_nums = AlgebraElement.nums.__set__
_set_den = AlgebraElement.den.__set__
_set_segs = AlgebraElement.segs.__set__


def _element(algebra, level, nums, den):
    """Trusted constructor: the block (nums, den) is already in lowest terms."""
    x = object.__new__(AlgebraElement)
    _set_algebra(x, algebra)
    _set_level(x, level)
    _set_nums(x, nums)
    _set_den(x, den)
    _set_segs(x, None)
    return x


def _canonical(algebra, level, nums, den):
    """The element nums/den (any ints, any positive den) in lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            return _element(algebra, level, tuple([v // g for v in nums]), den // g)
    return _element(algebra, level, tuple(nums), den)


def _add(x, y, sign):
    """x + sign * y: a/da + sign * b/db over da * db, or over da when equal."""
    x._check(y)
    level, a, b = x.level, x.nums, y.nums
    if y.level != level:
        level = math.lcm(level, y.level)
        a, b = x.nums_at(level), y.nums_at(level)
    da, db = x.den, y.den
    fa, fb, den = (1, sign, da) if da == db else (db, sign * da, da * db)
    return _canonical(x.algebra, level, [p * fa + q * fb for p, q in zip(a, b)], den)


def _lift_block(nums, n, level, target):
    """A block of segments of length n at ``level`` re-expressed at ``target``,
    a multiple of it, segment by segment."""
    step = target // level
    return tuple(v for i in range(0, len(nums), n)
                 for v in _lift_nums(nums[i:i + n], step, target))


def _segments(nums, n):
    """(index, segment) for every nonzero coordinate of a block."""
    return tuple([(i, seg) for i, seg in enumerate(zip(*[iter(nums)] * n)) if any(seg)])


def _segs(x):
    """x's nonzero segments at its level, cut on first use and kept on x."""
    segs = x.segs
    if segs is None:
        segs = _segments(x.nums, len(x.nums) // x.algebra.dim)
        _set_segs(x, segs)
    return segs


def _blocks(elements):
    """(algebra, [(x, x's nonzero segments)]) of elements over one algebra."""
    alg = elements[0].algebra if elements else None
    if any(x.algebra is not alg for x in elements):
        raise AlgebraMismatchError("elements live over different algebras")
    return alg, [(x, _segs(x)) for x in elements]


def _sum_pairs(table, size, pairs, every):
    """(level, nums, den): ``size`` numerator segments over ``den`` of the sum
    of w * T(x, y) over the (w, (x, xsegs), (y, ysegs)) in ``pairs``, where
    output k of T(x, y) sums c * x_i * y_j over the (k, c) in table[i][j].
    den is the lcm of the pairs' x.den * y.den, and each pair's products are
    scaled to it by den // (x.den * y.den); nums need not be in lowest terms.
    The level is lcm(4, the levels of every pair) when ``every`` is true, and
    otherwise of the pairs whose nonzero coordinates meet a nonzero entry."""
    top = math.lcm(4, *[v.level for _, (x, _), (y, _) in pairs for v in (x, y)])
    if top == 4:
        nums, den = _sum_pairs4(table, size, {0: pairs})[0]
        return 4, nums, den
    den = math.lcm(*[x.den * y.den for _, (x, _), (y, _) in pairs])
    level, met = top if every else 4, []
    for w, (x, xs), (y, ys) in pairs:
        hits = [(cs, a, b) for i, a in xs for j, b in ys for cs in (table[i][j],) if cs]
        if hits:
            level = math.lcm(level, x.level, y.level)
            met.append((w * (den // (x.den * y.den)), x.level, y.level, hits))
    n = check_level(level)
    terms = [(cs if m == 1 else tuple((k, m * c) for k, c in cs),
              a if lx == level else _lift_nums(a, level // lx, level),
              b if ly == level else _lift_nums(b, level // ly, level))
             for m, lx, ly, hits in met for cs, a, b in hits]
    return level, _contract(level, n, size, terms), den


def _sum_pairs4(table, size, groups):
    """{g: (nums, den)}: ``_sum_pairs`` of every group of pairs in ``groups``
    in one loop, in closed form, when every block is at level 4."""
    out = {}
    for g, pairs in groups.items():
        den = math.lcm(*[x.den * y.den for _, (x, _), (y, _) in pairs])
        r0, r1 = [0] * size, [0] * size
        for w, (x, xs), (y, ys) in pairs:
            m = w * (den // (x.den * y.den))
            for i, (x0, x1) in xs:
                row = table[i]
                for j, (y0, y1) in ys:
                    cs = row[j]
                    if cs:
                        p0, p1 = m * (x0 * y0 - x1 * y1), m * (x0 * y1 + x1 * y0)
                        for k, c in cs:
                            r0[k] += c * p0
                            r1[k] += c * p1
        out[g] = [v for pair in zip(r0, r1) for v in pair], den
    return out


def convolve(xs, ys):
    """The exponent convolution of two sequences of (k, element) terms:
    {k: the sum of [x, y] over the terms (k1, x) of xs and (k2, y) of ys
    with k1 + k2 = k}, for every k some pair meets, zero values included.
    Each term is cut into segments once, and every pair meeting at k is
    contracted into one integer row, put in lowest terms once."""
    alg, blocks = _blocks([x for _, x in xs] + [y for _, y in ys])
    groups = {}
    for (k1, _), xb in zip(xs, blocks):
        for (k2, _), yb in zip(ys, blocks[len(xs):]):
            groups.setdefault(k1 + k2, []).append((1, xb, yb))
    return _contract_rows(alg, groups)


def _contract_rows(alg, groups):
    """{k: groups[k]'s (w, x block, y block) contracted with ``int_pairs``}:
    one loop over every group when every block is at level 4, else one
    ``_sum_pairs`` a group."""
    if groups and all(x.level == 4 and y.level == 4
                      for pairs in groups.values() for _, (x, _), (y, _) in pairs):
        return {k: _canonical(alg, 4, nums, den * alg.scale)
                for k, (nums, den) in _sum_pairs4(alg.int_pairs, alg.dim, groups).items()}
    out = {}
    for k, pairs in groups.items():
        level, nums, den = _sum_pairs(alg.int_pairs, alg.dim, pairs, True)
        out[k] = _canonical(alg, level, nums, den * alg.scale)
    return out


def bracket(x, y):
    """Lie bracket: the one-pair case of ``convolve``."""
    return convolve(((0, x),), ((0, y),))[0]


def killing_sum(pairs):
    """The sum of w * kappa(x, y) over the (w, x, y) in ``pairs``, w an int,
    as one contraction with the table's integer Killing entries."""
    alg, blocks = _blocks([e for _, x, y in pairs for e in (x, y)])
    if not blocks:
        return CyclotomicNumber.zero()
    level, nums, den = _sum_pairs(alg.killing_pairs, 1, [
        (w, blocks[2 * p], blocks[2 * p + 1]) for p, (w, _, _) in enumerate(pairs)], False)
    return _canon(level, nums, den * alg.scale ** 2)


def killing_form(x, y):
    """Killing form, extended bilinearly: ``killing_sum``'s one-pair case."""
    return killing_sum(((1, x, y),))


def combination(scalars, elements):
    """The sum of c * x over the paired ``scalars`` (int, Fraction or
    CyclotomicNumber) and ``elements`` (at least one, of one algebra), as one
    contraction on the table's scalar row, in closed form at level 4; c * x
    off level 4 is its one-pair case."""
    scalars = [_as_scalar(c) for c in scalars]
    alg, blocks = _blocks(elements)
    if all(c.level == 4 for c in scalars) and all(x.level == 4 for x in elements):
        den = math.lcm(*[c.den * x.den for c, x in zip(scalars, elements)])
        out = [0] * (2 * alg.dim)
        for c, (x, xs) in zip(scalars, blocks):  # (c0 + c1 i)(x0 + x1 i), segment by segment
            m = den // (c.den * x.den)
            c0, c1 = (m * v for v in c.nums)
            for j, (x0, x1) in xs:
                out[2 * j] += x0 * c0 - x1 * c1
                out[2 * j + 1] += x0 * c1 + x1 * c0
        return _canonical(alg, 4, out, den)
    pairs = [(1, (c, [(alg.dim, c.nums)]), xb) for c, xb in zip(scalars, blocks)]
    level, nums, den = _sum_pairs(alg.int_pairs, alg.dim, pairs, True)
    return _canonical(alg, level, nums, den * alg.scale)


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

    def apply(self, x, conj=False):
        """The matrix times the coordinate vector of x, or of conj(x) when
        ``conj`` is true, as an element at lcm(self.level, x.level)."""
        return _canonical(x.algebra, *self.product(x, conj))

    def product(self, x, conj=False):
        """``apply``'s (level, nums, den) before it is put in lowest terms.
        conj(x) is read off x's segments: at level 4 the closed form takes
        y0 - y1 i for each segment (y0, y1) in the loop, and above it each
        segment goes through ``_galois_nums`` at a = -1."""
        level = self.level if x.level == self.level else math.lcm(self.level, x.level)
        nums = x.nums_at(level)  # checks the level before any table is built
        rows = self.rows
        if level != self.level:
            step = level // self.level
            rows = [[None if e is None else _lift_nums(e, step, level) for e in row]
                    for row in rows]
        den = self.den * x.den
        n = len(nums) // x.algebra.dim
        xs = _segs(x) if level == x.level else _segments(nums, n)
        if level == 4:
            out = []
            for row in rows:
                r0 = r1 = 0
                for k, (y0, y1) in xs:
                    e = row[k]
                    if e is not None:
                        a0, a1 = e
                        if conj:
                            r0 += a0 * y0 + a1 * y1
                            r1 += a1 * y0 - a0 * y1
                        else:
                            r0 += a0 * y0 - a1 * y1
                            r1 += a0 * y1 + a1 * y0
                out.append(r0)
                out.append(r1)
            return 4, out, den
        if conj:
            xs = [(k, _galois_nums(seg, -1, level)) for k, seg in xs]
        terms = [(((i, 1),), e, seg) for i, row in enumerate(rows) for k, seg in xs
                 for e in (row[k],) if e is not None]
        return level, _contract(level, n, len(rows), terms), den
