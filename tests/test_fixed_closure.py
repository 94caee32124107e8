"""``liealg.fixed_subalgebra`` certifies that its fixed set is bracket closed
by the map alone: a bracket of two basis elements lies in the fixed set
exactly when the map fixes it.  The oracle is the check it replaced, kept
verbatim as ``old_check_bracket_closed`` (only the name differs): the basis
flattened (field coordinates for a linear map, rational numerators for an
antilinear one), reduced by ``linalg.rref``, and every bracket tested with
``linalg.in_span``.

The maps are every sl2C and sl3C catalog map, omega and their pairwise
products, all automorphisms, plus every diagonal sign matrix on the table
basis, linear and antilinear: an order-2 map whose fixed set is closed only
when its signs respect the bracket.
"""

import functools
import itertools
import math

import pytest

from kmforge import liealg, linalg
from kmforge.catalog import catalog_for
from kmforge.element import bracket
from kmforge.liealg import FiniteAutomorphism, builtin_algebra, fixed_subalgebra


def old_check_bracket_closed(basis, flatten):
    """Raise unless every bracket of two basis elements lies in their span;
    ``flatten`` maps an element to the coordinate vector the span is taken in
    (field coordinates for a linear map, rational numerators for an
    antilinear one)."""
    if not basis:
        return
    rr, piv = linalg.rref([flatten(b) for b in basis])
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            w = bracket(basis[i], basis[j])
            if w and not linalg.in_span(rr, piv, flatten(w)):
                raise ArithmeticError("fixed set is not bracket closed")


def old_flatten(auto):
    """The flatten ``fixed_subalgebra`` passed the old check for ``auto``."""
    if not auto.antilinear:
        return lambda x: list(x.coords)
    lev = math.lcm(4, *[x.level for row in auto.matrix for x in row])
    return lambda x: x.nums_at(lev)


def verdict(check, *args):
    try:
        check(*args)
    except ArithmeticError:
        return False
    return True


def fixed_basis(monkeypatch, auto):
    """The basis ``fixed_subalgebra`` hands its closure check."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(liealg, "_check_bracket_closed", lambda _auto, basis: seen.append(basis))
        fixed_subalgebra(auto)
    return seen[0]


@functools.cache
def catalog_maps(algebra):
    cat = catalog_for(algebra)
    maps = [cat.named(name) for name in cat.names()] + [cat.omega()]
    return tuple(maps + [a.compose(b) for a, b in itertools.product(maps, repeat=2)])


def sign_maps(algebra):
    alg = builtin_algebra(algebra)
    for signs in itertools.product((1, -1), repeat=alg.dim):
        diag = [[signs[i] if i == j else 0 for j in range(alg.dim)] for i in range(alg.dim)]
        for antilinear in (False, True):
            yield FiniteAutomorphism(alg, diag, antilinear=antilinear)


@pytest.mark.parametrize("algebra", ["sl2C", "sl3C"])
def test_the_certificate_matches_the_span_test(monkeypatch, algebra):
    closed = open_ = 0
    for auto in catalog_maps(algebra) + tuple(sign_maps(algebra)):
        basis = fixed_basis(monkeypatch, auto)
        new = verdict(liealg._check_bracket_closed, auto, basis)
        assert new == verdict(old_check_bracket_closed, basis, old_flatten(auto))
        assert new == verdict(fixed_subalgebra, auto)
        closed += new
        open_ += not new
    # both verdicts are drawn
    assert closed and open_


@pytest.mark.parametrize("algebra", ["sl2C", "sl3C"])
def test_every_catalog_map_and_product_is_closed(algebra):
    # each has an order within the bound, so each reaches the closure check
    for auto in catalog_maps(algebra):
        fixed_subalgebra(auto)


@pytest.mark.parametrize("antilinear", [False, True], ids=["linear", "antilinear"])
def test_a_map_fixing_e_and_f_but_not_h_is_not_closed(antilinear):
    # diag(1, -1, 1) on (e, h, f) has order 2 but is no automorphism: it
    # fixes e and f, not h = [e, f]; after complex conjugation it fixes e, f
    # and i*h, and sends h = [e, f] to -h
    sl2 = builtin_algebra("sl2C")
    auto = FiniteAutomorphism(sl2, [[1, 0, 0], [0, -1, 0], [0, 0, 1]], antilinear=antilinear)
    assert liealg.automorphism_order(auto) == 2
    with pytest.raises(ArithmeticError, match="fixed set is not bracket closed"):
        fixed_subalgebra(auto)
