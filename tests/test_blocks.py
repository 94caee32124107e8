"""The integer-block ``AlgebraElement`` against the per-scalar code it replaced.

``ScalarElement``, ``scalar_bracket``, ``scalar_killing_form`` and
``scalar_apply`` are verbatim copies of the per-scalar ``AlgebraElement``,
``bracket``, ``killing_form`` and ``FiniteAutomorphism.apply`` from before
elements became integer blocks (only the names differ).  Each coordinate of
the old code kept its own level; they are the oracle for every value.  Levels
are checked against the rule in the ``element`` docstring instead.

The number of examples comes from the hypothesis profile (``conftest.py``).
"""

import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, strategies as st

from kmforge import linalg
from kmforge.catalog import catalog_for
from kmforge.errors import AlgebraMismatchError
from kmforge.field import CyclotomicNumber, field_degree, zeta_power
from kmforge.element import _as_scalar
from kmforge.liealg import (
    BUILTIN_NAMES,
    AlgebraElement,
    FiniteAutomorphism,
    bracket,
    builtin_algebra,
    killing_form,
)
from kmforge.realforms import enumerate_real_forms

LEVELS = (4, 8, 12)
# level 4, where the closed-form products are, comes up half the time
LEVEL = st.sampled_from((4, 4, 8, 12))


# -- verbatim per-scalar copies ---------------------------------------------


class ScalarElement:
    """Coordinate vector over a LieAlgebraTable, scalars in Q(zeta_L)."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", tuple(coords))
        if len(self.coords) != algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("elements live over different algebras")

    def __add__(self, other):
        self._check(other)
        return ScalarElement(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return ScalarElement(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return ScalarElement(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, scalar):
        scalar = _as_scalar(scalar) if not isinstance(scalar, CyclotomicNumber) else scalar
        return ScalarElement(self.algebra, tuple(scalar * a for a in self.coords))

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, ScalarElement):
            return NotImplemented
        return self.algebra is other.algebra and all(a == b for a, b in zip(self.coords, other.coords))

    __hash__ = None

    def conj(self):
        return ScalarElement(self.algebra, tuple(a.conj() for a in self.coords))


def scalar_bracket(x, y):
    """Lie bracket from the structure constants."""
    x._check(y)
    alg = x.algebra
    out = [CyclotomicNumber.zero()] * alg.dim
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        plane = alg.structure[i]
        for j, yj in enumerate(y.coords):
            if yj and any(plane[j]):
                prod = xi * yj
                for k, c in enumerate(plane[j]):
                    if c:
                        out[k] = out[k] + prod * c
    return ScalarElement(alg, tuple(out))


def scalar_killing_form(x, y):
    """Killing form, extended bilinearly over the cyclotomic scalars."""
    x._check(y)
    kappa = x.algebra.killing
    acc = CyclotomicNumber.zero()
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j, yj in enumerate(y.coords):
            if yj and kappa[i][j]:
                acc = acc + xi * yj * kappa[i][j]
    return acc


def scalar_apply(self, x):
    if x.algebra is not self.algebra:
        raise AlgebraMismatchError("element is over a different algebra")
    coords = [c.conj() for c in x.coords] if self.antilinear else list(x.coords)
    return ScalarElement(self.algebra, tuple(linalg.mat_vec(self.matrix, coords)))


# -- strategies ---------------------------------------------------------------


def _scalars(level):
    """A scalar at ``level``, zero one time in four."""
    n = field_degree(level)
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    nonzero = st.lists(coord, min_size=n, max_size=n).map(lambda cs: CyclotomicNumber(level, cs))
    return st.integers(0, 3).flatmap(
        lambda r: nonzero if r else st.just(CyclotomicNumber.zero(level)))


def coordinate_lists(dim):
    """d scalars: all at one level of 4, 8, 12 (or all zero), or each at its
    own level."""
    single = LEVEL.flatmap(lambda lev: st.lists(_scalars(lev), min_size=dim, max_size=dim))
    zero = LEVEL.map(lambda lev: [CyclotomicNumber.zero(lev)] * dim)
    mixed = st.lists(LEVEL.flatmap(_scalars), min_size=dim, max_size=dim)
    return st.one_of(single, zero, mixed)


def factors():
    """An int, a Fraction or a CyclotomicNumber at a level of 4, 8, 12."""
    return st.one_of(st.integers(-3, 3),
                     st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
                     LEVEL.flatmap(_scalars))


def _pair(alg, coords):
    return AlgebraElement(alg, coords), ScalarElement(alg, tuple(coords))


def _level(*levels):
    return math.lcm(4, *levels)


def _agree(new, old, level):
    """``new`` is the value of ``old`` as one block at ``level``, in lowest
    terms, and every coordinate ``coords`` builds is at that level."""
    assert new.level == level
    assert len(new.nums) == new.algebra.dim * field_degree(level)
    assert new.den > 0 and math.gcd(new.den, *new.nums) == 1
    assert all(a == b and a.level == level for a, b in zip(new.coords, old.coords))
    assert new == AlgebraElement(new.algebra, old.coords)
    assert bool(new) == bool(old)


# -- construction, arithmetic, equality ---------------------------------------


@pytest.mark.parametrize("name", ("sl2C", "sl3C"))
@given(data=st.data())
def test_construction_keeps_every_value_at_the_lcm_level(name, data):
    alg = builtin_algebra(name)
    coords = data.draw(coordinate_lists(alg.dim))
    x, old = _pair(alg, coords)
    _agree(x, old, _level(*(c.level for c in coords)))


@pytest.mark.parametrize("name", ("sl2C", "sl3C"))
@given(data=st.data())
def test_linear_operations_match_the_scalar_code(name, data):
    alg = builtin_algebra(name)
    x, ox = _pair(alg, data.draw(coordinate_lists(alg.dim)))
    y, oy = _pair(alg, data.draw(coordinate_lists(alg.dim)))
    c = data.draw(factors())
    both = _level(x.level, y.level)
    _agree(x + y, ox + oy, both)
    _agree(x - y, ox - oy, both)
    _agree(-x, -ox, x.level)
    _agree(x.conj(), ox.conj(), x.level)
    scaled = _level(x.level, c.level) if isinstance(c, CyclotomicNumber) else x.level
    _agree(x * c, ox * c, scaled)
    _agree(c * x, c * ox, scaled)


@pytest.mark.parametrize("name", ("sl2C", "sl3C"))
@given(data=st.data())
def test_equality_and_truth_match_the_scalar_code_across_levels(name, data):
    alg = builtin_algebra(name)
    coords = data.draw(coordinate_lists(alg.dim))
    x, ox = _pair(alg, coords)
    y, oy = _pair(alg, data.draw(coordinate_lists(alg.dim)))
    assert (x == y) == (ox == oy) and (x != y) == (ox != oy)
    assert bool(x) == bool(ox)
    up = data.draw(st.sampled_from((24, 48)))
    lifted = AlgebraElement(alg, [c.lift(up) for c in coords])
    assert lifted.level == up and lifted == x and x == lifted
    assert lifted - x == alg.zero_element(8) and not (lifted - x)
    if x:
        assert x + x != x and x != -x


def test_zero_elements_at_every_level_are_equal_and_false():
    alg = builtin_algebra("sl3C")
    zeros = [alg.zero_element(lev) for lev in LEVELS]
    assert all(not z for z in zeros)
    assert all(a == b for a in zeros for b in zeros)
    assert [z.level for z in zeros] == list(LEVELS)
    assert alg.basis_element(2, 12) == alg.basis_element(2) != zeros[0]


# -- bracket and Killing form -------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@given(data=st.data())
def test_bracket_and_killing_form_match_the_scalar_code(name, data):
    alg = builtin_algebra(name)
    x, ox = _pair(alg, data.draw(coordinate_lists(alg.dim)))
    y, oy = _pair(alg, data.draw(coordinate_lists(alg.dim)))
    _agree(bracket(x, y), scalar_bracket(ox, oy), _level(x.level, y.level))
    got, want = killing_form(x, y), scalar_killing_form(ox, oy)
    assert got == want
    # the level-4 zero when no nonzero coordinates meet a nonzero entry
    met = any(alg.killing[i][j] for i, a in enumerate(ox.coords) if a
              for j, b in enumerate(oy.coords) if b)
    assert got.level == (_level(x.level, y.level) if met else 4)


def _complex_multiples(alg, level):
    """Every basis element times z + 2 and times 3 - 2z, z = zeta_level:
    coordinates with both power-basis parts nonzero."""
    z = zeta_power(level, 1)
    return [e * (z + 2) for e in alg.basis(level)] + [e * (3 - 2 * z) for e in alg.basis(level)]


@pytest.mark.parametrize("level", (4, 12))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_bracket_of_complex_basis_multiples_matches_the_scalar_code(name, level):
    alg = builtin_algebra(name)
    xs = _complex_multiples(alg, level)
    c = zeta_power(level, 1) + 2
    for x in xs:
        ox = ScalarElement(alg, x.coords)
        _agree(x * c, ox * c, level)
        _agree(x.conj(), ox.conj(), level)
        for y in xs:
            oy = ScalarElement(alg, y.coords)
            _agree(bracket(x, y), scalar_bracket(ox, oy), level)
            assert killing_form(x, y) == scalar_killing_form(ox, oy)


# -- automorphisms --------------------------------------------------------------


@cache
def _maps():
    """Every sl2C and sl3C catalog map, linear and as an antilinear map with
    the same matrix; the compact conjugations; one trusted composite per
    algebra; the bases of the seven sl2C real-form conjugations."""
    out = []
    for name in ("sl2C", "sl3C"):
        cat = catalog_for(name)
        for n in cat.names():
            a = cat.named(n)
            out += [a, FiniteAutomorphism(a.algebra, a.matrix, antilinear=True)]
        out += [cat.omega(), cat.named("r3").compose(cat.omega()).inverse()]
    out += [f.conjugation.base for f in enumerate_real_forms("sl2C")]
    return out


def test_map_inventory():
    maps = _maps()
    assert len(maps) == 2 * 6 + 2 + 2 * 5 + 2 + 7
    assert sum(m.antilinear for m in maps) == 6 + 1 + 1 + 5 + 1 + 1 + 7
    assert any({x.level for row in m.matrix for x in row} == {4, 12} for m in maps)


def _rows_level(auto):
    return _level(*(a.level for row in auto.matrix for a in row if a))


def test_catalog_maps_apply_to_every_basis_element_as_the_scalar_code():
    for auto in _maps():
        alg = auto.algebra
        for level in (4, 12):
            elements = [alg.zero_element(level)] + alg.basis(level)
            for x in elements:
                _agree(auto.apply(x), scalar_apply(auto, ScalarElement(alg, x.coords)),
                       _level(_rows_level(auto), level))


@given(data=st.data())
def test_catalog_maps_apply_as_the_scalar_code(data):
    auto = data.draw(st.sampled_from(_maps()))
    alg = auto.algebra
    x, ox = _pair(alg, data.draw(coordinate_lists(alg.dim)))
    _agree(auto.apply(x), scalar_apply(auto, ox), _level(_rows_level(auto), x.level))


@pytest.mark.parametrize("name", ("sl2C", "sl3C"))
@given(data=st.data())
def test_sparse_mixed_level_matrices_apply_as_the_scalar_code(name, data):
    """Arbitrary matrices, mostly zero, entries at levels 4, 8 and 12,
    applied twice to elements at those levels and twice at each of two
    higher levels: the same rows serve every apply, lifted for that call
    when the element's level is higher."""
    alg = builtin_algebra(name)
    entry = st.one_of(st.just(CyclotomicNumber.zero()), LEVEL.flatmap(_scalars))
    rows = data.draw(st.lists(st.lists(entry, min_size=alg.dim, max_size=alg.dim),
                              min_size=alg.dim, max_size=alg.dim))
    auto = FiniteAutomorphism(alg, rows, antilinear=data.draw(st.booleans()))
    for _ in range(2):
        x, ox = _pair(alg, data.draw(coordinate_lists(alg.dim)))
        _agree(auto.apply(x), scalar_apply(auto, ox), _level(_rows_level(auto), x.level))
    # multiples of 24, the lcm of every level the rows and x can have
    for up in (48, 72):
        for _ in range(2):
            coords = [c.lift(up) for c in data.draw(coordinate_lists(alg.dim))]
            x, ox = _pair(alg, coords)
            _agree(auto.apply(x), scalar_apply(auto, ox), up)


def rational_coords(scalars, lev):
    """The power-basis rationals at level ``lev`` of each scalar, concatenated,
    as ``(nums, den)``: integer numerators over one positive denominator.  An
    injective, rational-linear coordinate map."""
    lifted = [c.lift(lev) for c in scalars]
    den = math.lcm(*(c.den for c in lifted))
    return [v * (den // c.den) for c in lifted for v in c.nums], den


@pytest.mark.parametrize("name", ("sl2C", "sl3C"))
@given(data=st.data())
def test_a_block_is_its_rational_coordinates(name, data):
    """``fixed_subalgebra``'s antilinear flatten, ``(x.nums_at(lev), x.den)``,
    against a verbatim copy of the ``liealg.rational_coords`` it replaced:
    the block's denominator is the lcm of its coordinates'."""
    alg = builtin_algebra(name)
    x = AlgebraElement(alg, data.draw(coordinate_lists(alg.dim)))
    for lev in (x.level, 24, 48):
        nums, den = rational_coords(x.coords, lev)
        assert (list(x.nums_at(lev)), x.den) == (nums, den)
