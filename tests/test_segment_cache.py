"""The segment cache on ``AlgebraElement``.

An element's ``segs`` slot holds its nonzero (index, segment) pairs at its
own level.  It starts empty on every constructor path, ``_segs`` fills it on
first use, and the contractions (``_blocks`` behind ``convolve``,
``killing_sum`` and ``combination``, and ``IntRows.apply``) read it.  These
tests hold the cache to a fresh ``_segments(x.nums, n)`` before and after
contractions read it, at levels 4, 8 and 12 on sl2C and sl3C, and hold each
contraction on a cached element to the same contraction on an uncached copy.
The slot cannot be set from outside, and equality and repr never read it.

The number of examples comes from the hypothesis profile (``conftest.py``).
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kmforge.element import (AlgebraElement, IntRows, _canonical, _element, _segments, _segs,
                             _set_segs, bracket, combination, convolve, killing_form,
                             killing_sum)
from kmforge.field import CyclotomicNumber, field_degree
from kmforge.liealg import builtin_algebra

LEVEL = st.sampled_from((4, 8, 12))


def _scalars(level):
    """A scalar at ``level``, zero one time in three."""
    n = field_degree(level)
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    nonzero = st.lists(coord, min_size=n, max_size=n).map(lambda cs: CyclotomicNumber(level, cs))
    return st.one_of(nonzero, nonzero, st.just(CyclotomicNumber.zero(level)))


def _coords(dim, level):
    return st.lists(_scalars(level), min_size=dim, max_size=dim)


def _fresh(x):
    """x's nonzero segments, cut afresh at x's level."""
    return _segments(x.nums, len(x.nums) // x.algebra.dim)


def _copy(x):
    """x with an empty cache."""
    return _element(x.algebra, x.level, x.nums, x.den)


def _exact(v):
    """(level, nums, den) of an element or a scalar."""
    return v.level, v.nums, v.den


@st.composite
def elements(draw, name):
    """Two elements x and y of one algebra, each at a level of 4, 8 and 12."""
    alg = builtin_algebra(name)
    return [AlgebraElement(alg, draw(_coords(alg.dim, draw(LEVEL)))) for _ in range(2)]


@st.composite
def matrices(draw, dim, level):
    """A square matrix at ``level`` with up to 2 * dim nonzero entries."""
    rows = [[CyclotomicNumber.zero(level)] * dim for _ in range(dim)]
    index = st.integers(0, dim - 1)
    for i, j, a in draw(st.lists(st.tuples(index, index, _scalars(level)), max_size=2 * dim)):
        rows[i][j] = a
    return rows


@st.composite
def cases(draw, name):
    """Two elements x and y, a scalar c, and two matrices, one at level 4 and
    one at 8 or 12."""
    x, y = draw(elements(name))
    c = draw(LEVEL.flatmap(_scalars))
    mats = [draw(matrices(x.algebra.dim, level)) for level in (4, draw(st.sampled_from((8, 12))))]
    return x.algebra, x, y, c, mats


def _made(alg, x, y, c, mats):
    """(path, element) for every way an element is made."""
    coords = [CyclotomicNumber(x.level, [Fraction(v, x.den) for v in seg])
              for seg in zip(*[iter(x.nums)] * (len(x.nums) // alg.dim))]
    out = [("AlgebraElement", AlgebraElement(alg, coords)),
           ("_element", _copy(x)),
           ("_canonical", _canonical(alg, x.level, [3 * v for v in x.nums], 3 * x.den)),
           ("neg", -x), ("conj", x.conj()), ("scalar", x * c),
           ("combination", combination([c, 2], [x, y])),
           ("bracket", bracket(x, y))]
    out += [(f"convolve:{k}", z) for k, z in convolve(((0, x), (1, y)), ((0, y), (2, x))).items()]
    out += [(f"apply:{r.level}", r.apply(x)) for r in map(IntRows, mats)]
    return out


def _reads(z, y, c, mats):
    """Every contraction that reads z's segments, higher levels first."""
    return [_exact(r.apply(z)) for r in map(IntRows, reversed(mats))] + [
        _exact(bracket(z, y)), _exact(bracket(y, z)), _exact(killing_form(z, y)),
        _exact(killing_sum([(2, z, z), (1, y, z)])), _exact(combination([c], [z])),
        [(k, _exact(v)) for k, v in convolve(((0, z),), ((1, y), (2, z))).items()]]


@pytest.mark.parametrize("name", ("sl2C", "sl3C"))
@given(data=st.data())
def test_the_cache_is_the_fresh_segments_before_and_after_it_is_read(name, data):
    alg, x, y, c, mats = data.draw(cases(name))
    for v in (x, y):  # the operands' caches are full before anything is made of them
        assert _segs(v) == _fresh(v)
    for path, z in _made(alg, x, y, c, mats):
        assert z.segs is None, path
        # read first by the contractions, a higher-level apply first of all
        reads = _reads(z, y, c, mats)
        assert z.segs == _fresh(z), path
        assert reads == _reads(_copy(z), y, c, mats), path
        # cut first by _segs, then read
        w = _copy(z)
        assert _segs(w) == _fresh(w), path
        assert _reads(w, y, c, mats) == reads, path
        assert w.segs == _fresh(w), path


@pytest.mark.parametrize("name", ("sl2C", "sl3C"))
@given(data=st.data())
def test_the_slot_is_immutable_and_no_part_of_the_value(name, data):
    x, y = data.draw(elements(name))
    for z in (x, _copy(x)):
        with pytest.raises(AttributeError):
            z.segs = _fresh(z)
    _segs(x)
    with pytest.raises(AttributeError):
        x.segs = None
    assert x.segs == _fresh(x)
    # a cache that reads wrong changes neither equality nor repr
    bogus = _copy(x)
    _set_segs(bogus, ((0, (1,) * field_degree(x.level)),))
    for z in (_copy(x), bogus, -(-x)):
        assert z == x and x == z and not (z != x)
        assert repr(z) == repr(x)
    assert (bogus == y) == (x == y)
