"""The product memo of the algebra tables against the direct computation.

``FiniteAutomorphism.compose`` and ``inverse`` keep their results on the
table, keyed by each operand's flag and entry key (levels included).  The
oracle is the direct code, kept verbatim: every memoized product, inverse and
power must carry the flag and the entry key, levels included, that it builds.
Each map comes as built and lifted to levels 8 and 24, with equal values, so
a memo that answered by value would return another level's matrix and fail
here.
"""

import math

import pytest

from kmforge import linalg
from kmforge.catalog import _ad, _auto, catalog_for
from kmforge.field import CyclotomicNumber, zeta_power
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
