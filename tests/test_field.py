import math
import operator
import random
from fractions import Fraction

import time

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from kmforge import jsonio
from kmforge.errors import InvalidInputError, LevelMismatchError
from kmforge.field import (
    MAX_LEVEL,
    CyclotomicNumber,
    _galois_nums,
    _poly_mul,
    _reduce,
    check_level,
    cyclotomic_polynomial,
    field_degree,
    imaginary_unit,
    zeta_of,
    zeta_power,
)
from kmforge.liealg import builtin_algebra

SL2 = builtin_algebra("sl2C")


def rat(x, level=4):
    return CyclotomicNumber.from_rational(Fraction(x), level)


@pytest.mark.parametrize("L", list(range(1, 41)) + [48, 60, 77])
def test_cyclotomic_polynomial_matches_sympy(L):
    x = sympy.Symbol("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(L, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(L)) == [int(c) for c in expected]


def test_degree_is_euler_phi():
    assert field_degree(4) == 2
    assert field_degree(12) == 4
    assert field_degree(60) == 16


def test_product_of_conjugate_units():
    z4 = zeta_power(4, 1)
    assert (1 + z4) * (1 - z4) == 2


def test_root_of_unity_sum_vanishes():
    z3 = zeta_power(3, 1)
    assert 1 + z3 + z3 * z3 == rat(0, 12)


def test_inverse_multiplies_back():
    a = 1 + zeta_power(5, 1)
    assert a * a.inverse() == 1
    b = rat(Fraction(3, 7), 12) + zeta_power(12, 5) * 2
    assert b * b.inverse() == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rat(0).inverse()


def test_zeta_power_basics():
    assert zeta_power(4, 2) == -1
    assert zeta_power(6, 3) == -1
    assert zeta_power(4, 0) == 1
    assert zeta_power(8, 9) == zeta_power(8, 1)


def test_zeta12_4_is_cube_root():
    w = zeta_power(12, 4)
    # minimal polynomial x^2 + x + 1
    assert w * w + w + 1 == 0
    assert w == zeta_power(3, 1)


def test_conj_examples():
    z4 = zeta_power(4, 1)
    assert z4.conj() == -z4
    q = rat(Fraction(7, 3))
    assert q.conj() == q
    a = 2 + 3 * zeta_power(8, 1)
    prod = a.conj() * a
    assert prod.conj() == prod  # real


def test_conj_is_involutive_field_automorphism():
    rng = random.Random(20240901)
    for _ in range(25):
        a = _random_value(rng, 12)
        b = _random_value(rng, 12)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a


def _random_value(rng, level):
    n = field_degree(level)
    return CyclotomicNumber(level, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])


def test_field_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (_random_value(rng, 12) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_zeta_addition_law_grid():
    L = 12
    for k in range(-6, 7):
        for m in range(-6, 7):
            assert zeta_power(L, k) * zeta_power(L, m) == zeta_power(L, k + m)


def test_zeta_of_rational():
    assert zeta_of(Fraction(1, 2)) == -1
    assert zeta_of(Fraction(-1, 4)) == -imaginary_unit()
    assert zeta_of(Fraction(5, 1)) == 1


def test_lift_and_mixed_level_arithmetic():
    z3 = zeta_power(3, 1)  # lives at level 12
    z4 = zeta_power(4, 1)
    prod = z3 * z4
    assert prod.level == 12
    assert prod == zeta_power(12, 7)
    with pytest.raises(LevelMismatchError):
        z3.lift(8)


def test_equality_across_levels():
    assert rat(5, 4) == rat(5, 12)
    assert zeta_power(4, 1).lift(24) == zeta_power(24, 6)


def test_imaginary_unit_squares_to_minus_one():
    for level in (4, 12, 20):
        i = imaginary_unit(level)
        assert i * i == -1


def test_power_and_division():
    z = zeta_power(12, 1)
    assert z ** 12 == 1
    assert z ** -1 == z.conj()
    assert (z / z) == 1


def test_constructor_rejects_bad_levels():
    with pytest.raises(ValueError):
        CyclotomicNumber(6, [Fraction(0)] * 2)


@pytest.mark.parametrize("build", [
    lambda: CyclotomicNumber(4, [0.5, 0]),
    lambda: CyclotomicNumber(4, ["1/3", 0]),
    lambda: CyclotomicNumber.from_rational(0.1),
    lambda: SL2.element([0.1, 0, 0]),
    lambda: SL2.element(["1/3", 0, 0]),
    lambda: SL2.basis_element(0) * 0.5,
    lambda: 0.5 * SL2.basis_element(0),
], ids=["cyclo-float", "cyclo-string", "rational-float", "element-float", "element-string",
        "mul-float", "rmul-float"])
def test_scalar_entry_points_refuse_floats_and_strings(build):
    # Fraction(0.1) would hold 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(InvalidInputError, match="int or a Fraction"):
        build()


@pytest.mark.parametrize("level", [0, -4, 2, 6, 77, MAX_LEVEL + 4, 40000])
def test_check_level_rejects_before_building(level):
    with pytest.raises(InvalidInputError):
        check_level(level)
    with pytest.raises(InvalidInputError):
        CyclotomicNumber(level, [0, 0])


def test_check_level_is_euler_phi():
    assert check_level(4) == 2
    assert check_level(60) == 16
    assert check_level(MAX_LEVEL) == MAX_LEVEL // 2
    assert [field_degree(L) for L in range(1, 41)] == [len(cyclotomic_polynomial(L)) - 1
                                                       for L in range(1, 41)]


def test_huge_level_document_is_rejected_quickly():
    t0 = time.perf_counter()
    with pytest.raises(InvalidInputError):
        jsonio.dec_cyclo({"level": 40000, "coords": [["1", "1"]]})
    assert time.perf_counter() - t0 < 0.05


def test_internal_lift_respects_the_level_cap():
    with pytest.raises(InvalidInputError):
        rat(1, 1020) * rat(1, 1024)


def test_coords_view_matches_numerators():
    x = CyclotomicNumber(12, [Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 6)])
    assert x.nums == (3, -4, 0, 5) and x.den == 6
    assert x.coords == (Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5, 6))
    assert rat(0).nums == (0, 0) and rat(0).den == 1
    with pytest.raises(AttributeError):
        x.den = 1


# -- differential tests against sympy -----------------------------------------

LEVELS = (4, 8, 12, 24)
X = sympy.Symbol("x")
QQ = sympy.QQ
_coord = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
_scalar = st.one_of(st.integers(-9, 9), _coord)


def _values_at(level):
    n = field_degree(level)
    return st.lists(_coord, min_size=n, max_size=n).map(lambda cs: CyclotomicNumber(level, cs))


values = st.sampled_from(LEVELS).flatmap(_values_at)
# 60 examples under the default profile, ten times as many under ci
differential = settings(max_examples=settings().max_examples * 12 // 5, deadline=None)


def _poly_at(x, level):
    """x as a polynomial in zeta_level (zeta_{x.level} = zeta_level^step)."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(x.coords)]
    return sympy.Poly(coeffs, X, domain=QQ).compose(
        sympy.Poly(X ** (level // x.level), X, domain=QQ))


def _expected(poly, level):
    """Reduced coordinates of poly mod Phi_level, via sympy."""
    rem = poly.rem(sympy.Poly(sympy.cyclotomic_poly(level, X), X, domain=QQ))
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return tuple(cs + [Fraction(0)] * (field_degree(level) - len(cs)))


def _check(result, level, poly):
    assert result.level == level
    assert result.coords == _expected(poly, level)
    assert result.den > 0 and math.gcd(result.den, *result.nums) == 1


@differential
@given(values, values, _scalar)
def test_mul_matches_sympy(a, b, q):
    L = math.lcm(a.level, b.level)
    _check(a * b, L, _poly_at(a, L) * _poly_at(b, L))
    _check(a * q, a.level, _poly_at(a, a.level) * sympy.Rational(q.numerator, q.denominator))


@differential
@given(values, values, _scalar)
def test_add_matches_sympy(a, b, q):
    L = math.lcm(a.level, b.level)
    _check(a + b, L, _poly_at(a, L) + _poly_at(b, L))
    _check(a - b, L, _poly_at(a, L) - _poly_at(b, L))
    r = sympy.Rational(q.numerator, q.denominator)
    _check(a + q, a.level, _poly_at(a, a.level) + r)
    _check(a - q, a.level, _poly_at(a, a.level) - r)
    _check(q - a, a.level, r - _poly_at(a, a.level))
    _check(a - a, a.level, sympy.Poly(0, X, domain=QQ))


@differential
@given(values)
def test_inverse_matches_sympy(a):
    assume(a)
    L = a.level
    _check(a.inverse(), L,
           _poly_at(a, L).invert(sympy.Poly(sympy.cyclotomic_poly(L, X), X, domain=QQ)))


@differential
@given(values)
def test_conj_matches_sympy(a):
    L = a.level
    _check(a.conj(), L, _poly_at(a, L).compose(sympy.Poly(X ** (L - 1), X, domain=QQ)))


@differential
@given(values, st.sampled_from((1, 2, 3, 6)))
def test_lift_matches_sympy(a, step):
    M = a.level * step
    _check(a.lift(M), M, _poly_at(a, M))


# -- the norm inverse and the Galois maps -----------------------------------------


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("level, own_denominators", [(48, True), (96, True), (192, False)])
def test_dense_inverse_matches_sympy(level, own_denominators, seed):
    # every coordinate nonzero; sympy's Euclid over QQ takes about 20 s at
    # level 192 when each coordinate has its own denominator, so there they
    # share one
    rng = random.Random(level * 10 + seed)
    n = field_degree(level)
    common = rng.randint(1, 12)
    coords = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 60),
                       rng.randint(1, 12) if own_denominators else common) for _ in range(n)]
    a = CyclotomicNumber(level, coords)
    _check(a.inverse(), level,
           _poly_at(a, level).invert(sympy.Poly(sympy.cyclotomic_poly(level, X), X, domain=QQ)))


def _units(level):
    return [a for a in range(1, level) if math.gcd(a, level) == 1]


def _numerators(level):
    n = field_degree(level)
    return st.lists(st.integers(-50, 50), min_size=n, max_size=n).map(tuple)


def _numerators_at(levels, count):
    """(L, then ``count`` numerator tuples at level L), L drawn from ``levels``."""
    return st.sampled_from(levels).flatmap(
        lambda L: st.tuples(st.just(L), *[_numerators(L)] * count))


@differential
@given(_numerators_at(LEVELS, 2))
def test_galois_nums_is_a_ring_map(case):
    L, x, y = case
    total = tuple(map(operator.add, x, y))
    product = _reduce(L, _poly_mul(x, y))
    for a in _units(L) + [-1]:
        gx, gy = _galois_nums(x, a, L), _galois_nums(y, a, L)
        assert _galois_nums(total, a, L) == tuple(map(operator.add, gx, gy))
        assert _galois_nums(product, a, L) == _reduce(L, _poly_mul(gx, gy))
    assert _galois_nums(x, 1, L) == x


def old_conj_nums(nums, level):
    """The numerators ``nums`` of a level-``level`` value under complex
    conjugation z -> z^{-1}, i.e. z^j -> z^(L-j).  It is an automorphism of
    Z[zeta_L], so numerators in lowest terms over a denominator stay so."""
    raw = [0] * level
    for j, c in enumerate(nums):
        raw[-j] = c
    return _reduce(level, raw)


@differential
@given(_numerators_at(range(4, 61, 4), 1))
def test_galois_nums_at_minus_one_is_the_old_conjugation(case):
    # old_conj_nums is a verbatim copy of field._conj_nums from before it
    # became the case a = -1 of _galois_nums (only the name differs)
    L, x = case
    assert _galois_nums(x, -1, L) == old_conj_nums(x, L)


@differential
@given(_numerators_at(LEVELS, 1).filter(lambda case: any(case[1])))
def test_product_of_all_conjugates_is_the_norm(case):
    # the norm of x in Q(zeta_L) is the resultant of Phi_L and x's polynomial
    L, x = case
    prod = (1,)
    for a in _units(L):
        prod = _reduce(L, _poly_mul(prod, _galois_nums(x, a, L)))
    assert not any(prod[1:])
    phi = sympy.Poly(sympy.cyclotomic_poly(L, X), X)
    assert prod[0] == sympy.resultant(phi, sympy.Poly(list(reversed(x)), X)) > 0


def _dense_level_256_automorphism():
    """The identity of sl2C, except one dense level-256 entry at [0][0]: its
    coordinates 3^j mod 1009 mod 19, less 9, with 1 for 0, follow no short
    period."""
    one = {"level": 4, "coords": [["1", "1"], ["0", "1"]]}
    zero = {"level": 4, "coords": [["0", "1"], ["0", "1"]]}
    matrix = [[one if i == j else zero for j in range(3)] for i in range(3)]
    matrix[0][0] = {"level": 256, "coords": [[str(pow(3, j, 1009) % 19 - 9 or 1), "1"]
                                                 for j in range(128)]}
    return {"algebra": "sl2C", "matrix": matrix}


def test_dense_level_256_automorphism_is_refused_quickly():
    # the Fraction Euclid inverse of the entry ran for over a minute, and the
    # norm inverse about a second; the Killing-form check inverts nothing
    t0 = time.perf_counter()
    with pytest.raises(InvalidInputError, match="not an automorphism"):
        jsonio.dec_automorphism(_dense_level_256_automorphism())
    assert time.perf_counter() - t0 < 20
