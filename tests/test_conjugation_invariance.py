"""First-kind invariants are invariants of the conjugacy class.

Every catalog realization of the first kind with q <= 6 is conjugated by a
constant map Ad g (which conjugates its twist context as well), a rotation,
a rotation after Ad g, or the reflection; its extracted invariant must
compare equal to the original, and unequal to every other catalog triple of
the same order.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmforge import linalg
from kmforge.catalog import Catalog, _ad, _auto, catalog_for
from kmforge.field import CyclotomicNumber, imaginary_unit, zeta_power
from kmforge.invariants import (
    FirstKindInvariant,
    extract_invariant_first,
    invariants_equal,
    realize_first,
)
from kmforge.loop import TwistContext
from kmforge.standard import compose, conjugate, pointwise, reflection, rotation

ONE, ZERO = CyclotomicNumber.one(), CyclotomicNumber.zero()
SIZE = {"sl2C": 2, "sl3C": 3}
TRIPLES = [(algebra, q, triple) for algebra in SIZE for q in range(1, 7)
           for triple in catalog_for(algebra).first_kind_triples(q)]


@functools.cache
def _realized(index):
    algebra, q, triple = TRIPLES[index]
    return realize_first(algebra, *triple, q)[1]


def _ad_of(algebra, p):
    """Ad p on the algebra, for an invertible matrix p of its size."""
    return _auto(algebra, _ad(p, linalg.invert(p)))


def _corner(algebra, m):
    """The 2x2 matrix m in the top-left corner of the identity."""
    n = SIZE[algebra]
    return [[m[r][s] if r < 2 and s < 2 else ONE * (r == s) for s in range(n)] for r in range(n)]


def _check_moved(index, psi):
    """Conjugate the realization by psi(its context), a standard map."""
    algebra, q, triple = TRIPLES[index]
    phi = _realized(index)
    got = extract_invariant_first(conjugate(psi(phi.source), phi))
    for other in catalog_for(algebra).first_kind_triples(q):
        want = FirstKindInvariant(algebra, q, *other)
        assert invariants_equal(got, want) == (other == triple), (triple, other)


def _check_conjugate(index, g):
    _check_moved(index, lambda ctx: pointwise(ctx, g))


FIXED = {
    "unipotent": [[ONE, ONE], [ZERO, ONE]],
    "integer": [[2 * ONE, ONE], [ONE, ONE]],
    "torus": [[zeta_power(8, 1), ZERO], [ZERO, ONE]],
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_every_catalog_triple_survives_a_fixed_conjugation(name):
    for index, (algebra, _q, _triple) in enumerate(TRIPLES):
        _check_conjugate(index, _ad_of(algebra, _corner(algebra, FIXED[name])))


MOVES = {
    "reflection": reflection,
    "rotation 1/3": lambda ctx: rotation(ctx, Fraction(1, 3)),
    "rotation 2/5": lambda ctx: rotation(ctx, Fraction(2, 5)),
}
# Conjugating by the reflection u(t) -> u(-t) swaps the labels of these two
# sl3C triples, with 2p = q: (4, 2, mu, id) extracts as (4, 2, mu, mu), and
# back.  Whether the classification at 2p = q is taken up to the reflection
# is not settled; the classifier is left as it is.
REFLECTION_SWAPS = [("sl3C", 4, (2, "mu", "id")), ("sl3C", 4, (2, "mu", "mu"))]


@pytest.mark.parametrize("move", sorted(MOVES))
def test_every_catalog_triple_survives_a_rotation_or_reflection(move):
    for index, case in enumerate(TRIPLES):
        if not (move == "reflection" and case in REFLECTION_SWAPS):
            _check_moved(index, MOVES[move])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the reflection swaps the labels id and mu of sl3C (4, 2, mu)")
@pytest.mark.parametrize("case", REFLECTION_SWAPS)
def test_the_reflection_keeps_the_sl3C_labels_at_2p_equal_q(case):
    _check_moved(TRIPLES.index(case), reflection)


@pytest.mark.parametrize("case", [("sl2C", 2, (0, "mu", "id")), ("sl3C", 3, (0, "r3", "rot"))])
def test_a_conjugated_rho_is_matched_once(case, monkeypatch):
    # rho_t is the conjugated base, no representative: its class comes from
    # one eigen signature, which the component label reuses
    algebra, q, triple = case
    cat = catalog_for(algebra)
    cat._rep_of_signature  # the representatives' signatures, built once per catalog
    calls = []
    signature = Catalog.eigen_signature
    monkeypatch.setattr(Catalog, "eigen_signature",
                        lambda self, *args: calls.append(args) or signature(self, *args))
    phi = _realized(TRIPLES.index(case))
    g = _ad_of(algebra, _corner(algebra, FIXED["unipotent"]))
    got = extract_invariant_first(conjugate(pointwise(phi.source, g), phi))
    assert got.as_tuple() == triple
    assert len(calls) == 1


def test_an_involution_without_a_cyclotomic_conjugator_to_mu():
    # Ad [[0, 1+i], [1, 0]] has eigenvalues +-sqrt(1+i) on its 2x2 matrix:
    # x^4 - 2x^2 + 2 has Galois group D4, so no conjugator over any
    # cyclotomic field carries it to mu, yet its class is mu's
    p = [[ZERO, ONE + imaginary_unit()], [ONE, ZERO]]
    g = _ad_of("sl2C", p)
    cat = catalog_for("sl2C")
    assert cat.match(g) is cat.entries["mu"]
    ctx = TwistContext(cat.algebra, cat.named("id"))
    assert extract_invariant_first(pointwise(ctx, g)).as_tuple() == (0, "mu", "id")
    for index, (algebra, _q, _triple) in enumerate(TRIPLES):
        if algebra == "sl2C":
            _check_conjugate(index, g)


@st.composite
def integer_conjugators(draw, algebra):
    """Ad of a product of elementary integer matrices: determinant 1."""
    n = SIZE[algebra]
    p = [[ONE * (r == s) for s in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(1, 4))):
        r, s = draw(st.sampled_from([(r, s) for r in range(n) for s in range(n) if r != s]))
        k = draw(st.sampled_from((-2, -1, 1, 2)))
        p[r] = [x + k * y for x, y in zip(p[r], p[s])]
    return _ad_of(algebra, p)


@st.composite
def torus_conjugators(draw, algebra):
    """Ad diag(zeta_m^a_1, ..., zeta_m^a_n)."""
    m = draw(st.sampled_from((3, 4, 6, 8)))
    d = [zeta_power(m, draw(st.integers(0, m - 1))) for _ in range(SIZE[algebra])]
    return _ad_of(algebra, [[x if r == s else ZERO for s, _ in enumerate(d)]
                            for r, x in enumerate(d)])


@st.composite
def conjugated_triples(draw):
    """(index, psi): the constant map Ad g, or a rotation by a/b (b <= 7)
    after it, on the twist that Ad g moves the context to."""
    index = draw(st.integers(0, len(TRIPLES) - 1))
    algebra = TRIPLES[index][0]
    g = draw(st.one_of(integer_conjugators(algebra), torus_conjugators(algebra)))
    if not draw(st.booleans()):
        return index, lambda ctx: pointwise(ctx, g)
    b = draw(st.integers(1, 7))
    shift = Fraction(draw(st.integers(-b, 2 * b)), b)

    def psi(ctx):
        moved = pointwise(ctx, g)
        return compose(rotation(moved.target, shift), moved)
    return index, psi


@given(conjugated_triples())
def test_conjugates_keep_their_invariant(case):
    _check_moved(*case)
