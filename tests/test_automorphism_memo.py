"""The product memo of the algebra tables against the direct computation,
and the cross-level equality against the entrywise comparison.

``FiniteAutomorphism.compose`` and ``inverse`` keep their results on the
table, keyed by each operand's flag and entry key (levels included).  The
oracle is the direct code, kept verbatim: every memoized product, inverse and
power must carry the flag and the entry key, levels included, that it builds.
Each map comes as built and lifted to levels 8 and 24, with equal values, so
a memo that answered by value would return another level's matrix and fail
here.

``FiniteAutomorphism.__eq__`` compares two matrices whose entries sit at
other levels on each side's (nums, den) pairs, lifted per entry to the lcm of
the pair and kept per level tuple.  The oracle is the comparison it replaced,
kept verbatim: entry by entry, each pair lifted by ``CyclotomicNumber.__eq__``.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmforge import linalg
from kmforge.catalog import _ad, _auto, catalog_for
from kmforge.errors import InvalidLevelError
from kmforge.field import MAX_LEVEL, CyclotomicNumber, field_degree, zeta_power
from kmforge.liealg import PRODUCT_MEMO_SIZE, FiniteAutomorphism, builtin_algebra

ONE, ZERO = CyclotomicNumber.one(), CyclotomicNumber.zero()
LEVELS = (1, 8, 24)  # 1: the map as built


def _direct_compose(f, g):
    m2 = g.matrix
    if f.antilinear:
        m2 = [[x.conj() for x in row] for row in m2]
    return FiniteAutomorphism._trusted(f.algebra, linalg.mat_mul(f.matrix, m2),
                                       f.antilinear != g.antilinear)


def _direct_inverse(f):
    inv = linalg.invert([list(r) for r in f.matrix])
    if f.antilinear:
        inv = [[x.conj() for x in row] for row in inv]
    return FiniteAutomorphism._trusted(f.algebra, inv, f.antilinear)


def _direct_power(f, n):
    if n < 0:
        return _direct_power(_direct_inverse(f), -n)
    if n == 0:
        return f.algebra.identity
    acc = f
    for _ in range(n - 1):
        acc = _direct_compose(f, acc)
    return acc


def _same(got, want):
    assert (got.antilinear, got._entry_key()) == (want.antilinear, want._entry_key())


def _lifted(f, level):
    """f with every entry lifted to the lcm of its level and ``level``."""
    return FiniteAutomorphism(f.algebra, [[x.lift(math.lcm(x.level, level)) for x in row]
                                          for row in f.matrix], f.antilinear)


def _ad_of(name, p):
    return _auto(name, _ad(p, linalg.invert(p)))


def _maps(name, conjugators):
    """The catalog maps, omega, and for each g: Ad g and its conjugates of
    the first two catalog maps, each lifted to every level of LEVELS in
    turn, as built first."""
    cat = catalog_for(name)
    base = [cat.named(n) for n in cat.names()] + [cat.omega()]
    for p in conjugators:
        g = _ad_of(name, p)
        base += [g, *(g.compose(f).compose(g.inverse()) for f in base[1:3])]
    return [_lifted(f, level) for level in LEVELS for f in base]


SL2 = [[[2 * ONE, ONE], [ONE, ONE]],                       # integer, determinant 1
       [[zeta_power(8, 1), ZERO], [ZERO, ONE]]]             # torus
SL3 = [[[ONE, 2 * ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, -ONE, ONE]],
       [[zeta_power(3, 1), ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]]


@pytest.mark.parametrize("name, conjugators", [("sl2C", SL2), ("sl3C", SL3)])
def test_memoized_products_carry_the_direct_entry_keys(name, conjugators):
    maps = _maps(name, conjugators)
    for f in maps:
        for g in maps:
            _same(f.compose(g), _direct_compose(f, g))
        _same(f.inverse(), _direct_inverse(f))
        for n in range(-3, 7):
            _same(f.power(n), _direct_power(f, n))


def test_the_memo_keeps_its_capacity_and_recomputes_an_evicted_product(monkeypatch):
    alg = builtin_algebra("sl2C")
    # a memo of this test's own, so the filler products leave the shared
    # table's entries in place for the tests after it
    monkeypatch.setattr(alg, "products", {})
    a, b = catalog_for("sl2C").named("r3"), catalog_for("sl2C").named("mu")
    first = a.compose(b)
    key = (a.antilinear, a._entry_key(), b.antilinear, b._entry_key())
    assert alg.products[key] is first
    # PRODUCT_MEMO_SIZE new products, each with its own operands, push
    # every older entry out
    for k in range(1, PRODUCT_MEMO_SIZE + 1):
        u = FiniteAutomorphism(alg, [[1, k, 0], [0, 1, 0], [0, 0, 1]])
        u.compose(u)
        assert len(alg.products) <= PRODUCT_MEMO_SIZE
    assert key not in alg.products
    again = a.compose(b)
    assert again is not first
    _same(again, first)
    _same(again, _direct_compose(a, b))


# -- cross-level equality ------------------------------------------------------


def _entrywise_eq(self, other):
    """``FiniteAutomorphism.__eq__`` before the lifted keys, verbatim."""
    if not isinstance(other, FiniteAutomorphism):
        return NotImplemented
    if self is other:
        return True
    if self.algebra is not other.algebra or self.antilinear != other.antilinear:
        return False
    a, b = self._entry_key(), other._entry_key()
    if a == b:
        return True
    # only entries at different levels need a comparison of values
    return a[0] != b[0] and self.matrix == other.matrix


def _verdict(f, *args):
    try:
        return f(*args)
    except InvalidLevelError as exc:
        return type(exc)


def _agree(f, g):
    want = _verdict(_entrywise_eq, f, g)
    assert _verdict(f.__eq__, g) == want
    return want


EQ_LEVELS = (4, 8, 12, 24)


@st.composite
def _value(draw):
    """A sparse value at one of EQ_LEVELS."""
    level = draw(st.sampled_from(EQ_LEVELS))
    if draw(st.booleans()):
        return CyclotomicNumber.zero(level)
    n = field_degree(level)
    return CyclotomicNumber(level, draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))


@st.composite
def _cross_level_pair(draw, name):
    """Two matrices of equal values, each entry lifted on each side to the
    lcm of its level and a level drawn for that side."""
    alg = builtin_algebra(name)
    values = [[draw(_value()) for _ in range(alg.dim)] for _ in range(alg.dim)]
    antilinear = draw(st.booleans())
    sides = []
    for _ in range(2):
        levels = [[draw(st.sampled_from(EQ_LEVELS)) for _ in row] for row in values]
        sides.append(FiniteAutomorphism(
            alg, [[x.lift(math.lcm(x.level, lev)) for x, lev in zip(row, lrow)]
                  for row, lrow in zip(values, levels)], antilinear))
    i, j = draw(st.integers(0, alg.dim - 1)), draw(st.integers(0, alg.dim - 1))
    return sides, (i, j)


def _replaced(f, i, j, x, antilinear=None):
    rows = [list(row) for row in f.matrix]
    rows[i][j] = x
    return FiniteAutomorphism(f.algebra, rows, f.antilinear if antilinear is None else antilinear)


@pytest.mark.parametrize("name", ["sl2C", "sl3C"])
@given(data=st.data())
def test_cross_level_equality_answers_as_the_entrywise_comparison(name, data):
    (a, b), (i, j) = data.draw(_cross_level_pair(name))
    assert _agree(a, b) is True and _agree(b, a) is True
    # one entry that differs, at its own level
    c = _replaced(b, i, j, b.matrix[i][j] + 1)
    assert _agree(a, c) is False and _agree(c, a) is False
    # a mismatched antilinear flag
    assert _agree(a, _replaced(b, i, j, b.matrix[i][j], not b.antilinear)) is False
    la, lb = a._entry_key()[0], b._entry_key()[0]
    if la != lb:
        # a repeated comparison is served from the kept lifted pairs
        kept = a._lifted[lb], b._lifted[la]
        assert a == b and b == a
        assert a._lifted[lb] is kept[0] and b._lifted[la] is kept[1]

def _identity_with(alg, diagonal):
    """The identity of ``alg`` with the diagonal entries {i: x} set."""
    rows = [[ONE if r == c else ZERO for c in range(alg.dim)] for r in range(alg.dim)]
    for i, x in diagonal.items():
        rows[i][i] = x
    return FiniteAutomorphism(alg, rows)

def test_equality_needs_only_each_pair_of_entries_to_have_a_common_level():
    alg = builtin_algebra("sl2C")
    # lcm(512, 12) passes MAX_LEVEL over the two matrices, while each pair of
    # entries meets at 512 or 12
    assert math.lcm(512, 12) > MAX_LEVEL
    a = _identity_with(alg, {0: ONE.lift(512)})
    b = _identity_with(alg, {1: ONE.lift(12)})
    assert _agree(a, b) is True and _agree(b, a) is True
    # answered by the lifted pairs, not by the entrywise fallback
    assert b._entry_key()[0] in a._lifted and a._entry_key()[0] in b._lifted
    c = _identity_with(alg, {1: ONE.lift(12), 2: (2 * ONE).lift(12)})
    assert _agree(a, c) is False and _agree(c, a) is False


def test_a_pair_of_entries_without_a_common_level_answers_as_the_entrywise_comparison():
    alg = builtin_algebra("sl2C")
    a = _identity_with(alg, {2: ONE.lift(512)})
    b = _identity_with(alg, {2: ONE.lift(12)})
    assert _agree(a, b) is InvalidLevelError and _agree(b, a) is InvalidLevelError
    # a differing entry before the pair answers first
    c = _identity_with(alg, {0: 2 * ONE, 2: ONE.lift(12)})
    assert _agree(a, c) is False and _agree(c, a) is False
