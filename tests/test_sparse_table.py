"""The sparse structure tensor against dense reference copies.

``LieAlgebraTable`` computes from ``int_pairs[i][j]``, the nonzero constants
of [x_i, x_j] over one denominator.  The dense loops below are the table
code as it read while it walked the whole d x d x d cube; they are the
oracle for the sparse validation and for every sparse reader.  ``golden_tables.json`` holds the
``algebra show`` documents of the four built-in tables, recorded from the
dense implementation.
"""

import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmforge.cli import main
from kmforge.field import CyclotomicNumber, field_degree
from kmforge.liealg import (
    BUILTIN_NAMES,
    AlgebraElement,
    FiniteAutomorphism,
    LieAlgebraTable,
    ad_matrix,
    bracket,
    builtin_algebra,
    killing_form,
)

with open(os.path.join(os.path.dirname(__file__), "golden_tables.json")) as fh:
    GOLDEN = json.load(fh)


# -- dense reference copies -------------------------------------------------


def dense_checks(name, s, d):
    """The dense antisymmetry and Jacobi loops of ``_validate``."""
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if s[i][j][k] != -s[j][i][k]:
                    raise ValueError(f"{name}: antisymmetry fails at {i},{j},{k}")
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for n in range(d):
                    acc = Fraction(0)
                    for m in range(d):
                        acc += s[j][k][m] * s[i][m][n]
                        acc += s[k][i][m] * s[j][m][n]
                        acc += s[i][j][m] * s[k][m][n]
                    if acc:
                        raise ValueError(f"{name}: Jacobi fails at {i},{j},{k}")


def dense_killing_matrix(structure, d):
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = Fraction(0)
            for a in range(d):
                for b in range(d):
                    if structure[i][a][b] and structure[j][b][a]:
                        acc += structure[i][a][b] * structure[j][b][a]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def dense_bracket(x, y):
    x._check(y)
    alg = x.algebra
    d = alg.dim
    out = [CyclotomicNumber.zero() for _ in range(d)]
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j, yj in enumerate(y.coords):
            if not yj:
                continue
            row = alg.structure[i][j]
            prod = xi * yj
            for k in range(d):
                if row[k]:
                    out[k] = out[k] + prod * row[k]
    return AlgebraElement(alg, tuple(out))


def dense_killing_form(x, y):
    x._check(y)
    kappa = dense_killing_matrix(x.algebra.structure, x.algebra.dim)
    acc = CyclotomicNumber.zero()
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j, yj in enumerate(y.coords):
            if yj and kappa[i][j]:
                acc = acc + xi * yj * kappa[i][j]
    return acc


def dense_ad_matrix(x):
    alg = x.algebra
    d = alg.dim
    cols = []
    for j in range(d):
        col = [CyclotomicNumber.zero() for _ in range(d)]
        for i, xi in enumerate(x.coords):
            if not xi:
                continue
            row = alg.structure[i][j]
            for k in range(d):
                if row[k]:
                    col[k] = col[k] + xi * row[k]
        cols.append(col)
    return [[cols[j][i] for j in range(d)] for i in range(d)]


# -- encoding and shape -----------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_algebra_show_is_byte_identical_to_the_golden_table(capsys, name):
    assert main(["algebra", "show", "--algebra", name]) == 0
    assert capsys.readouterr().out == json.dumps(GOLDEN[name], sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("shape", ["ragged-row", "short-plane", "non-cubic"])
def test_malformed_structure_is_a_value_error(shape):
    sl2 = builtin_algebra("sl2C")
    s = [[list(row) for row in plane] for plane in sl2.structure]
    if shape == "ragged-row":
        s[1][2] = s[1][2][:2]
    elif shape == "short-plane":
        s[0] = s[0][:2]
    else:
        s = [[row + [Fraction(0)] for row in plane] for plane in s]
    with pytest.raises(ValueError, match="cube"):
        LieAlgebraTable("bad", s, sl2.basis_names, "complex", False)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pairs_are_the_nonzero_constants_as_ints(name):
    # every built-in constant is an integer, so scale is 1 and int_pairs
    # holds the constants themselves
    alg = builtin_algebra(name)
    assert alg.scale == 1 and len(alg.int_pairs) == alg.dim + 1
    for i, plane in enumerate(alg.structure):
        for j, row in enumerate(plane):
            assert alg.int_pairs[i][j] == tuple((k, c) for k, c in enumerate(row) if c)
            assert all(type(c) is int for _, c in alg.int_pairs[i][j])
    assert alg.int_pairs[alg.dim] == tuple(((k, 1),) for k in range(alg.dim))
    assert all(type(x) is int for row in alg.killing for x in row)


def test_identity_is_built_once_per_table():
    for name in BUILTIN_NAMES:
        alg = builtin_algebra(name)
        ident = FiniteAutomorphism.identity(alg)
        assert ident is FiniteAutomorphism.identity(alg)
        assert ident.is_identity() and not ident.antilinear
        assert ident.power(3) == ident


# -- corrupted constants: sparse and dense give the same verdict ------------


VALUES = [Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)] + [Fraction(1, 2)]


def _verdict(make):
    """The antisymmetry or Jacobi message ``make`` raises, else None."""
    try:
        make()
    except ValueError as exc:
        if "antisymmetry" in str(exc) or "Jacobi" in str(exc):
            return str(exc)
    return None


@pytest.mark.parametrize("kind", ["value", "partner"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_corrupted_constant_gets_the_dense_verdict(name, kind, data):
    alg = builtin_algebra(name)
    d = alg.dim
    index = st.integers(0, d - 1)
    i, j, k = data.draw(st.tuples(index, index, index))
    v = data.draw(st.sampled_from(VALUES).filter(lambda v: v != alg.structure[i][j][k]))
    s = [[list(row) for row in plane] for plane in alg.structure]
    s[i][j][k] = v
    if kind == "value":  # a changed constant; its antisymmetric partner follows
        s[j][i][k] = -v
    oracle = _verdict(lambda: dense_checks(name, s, d))
    sparse = _verdict(lambda: LieAlgebraTable(name, s, alg.basis_names,
                                              alg.base_field_tag, alg.compact_flag))
    assert sparse == oracle
    if kind == "partner" or i == j:
        assert oracle.startswith(f"{name}: antisymmetry fails at")
    elif d == 8:  # a changed constant of a 3-dimensional table may still be a Lie algebra
        assert oracle.startswith(f"{name}: Jacobi fails at")


def test_the_first_failing_index_follows_the_dense_loop_order():
    # two broken partners in one pair, and one in an earlier pair
    alg = builtin_algebra("sl3C")
    s = [[list(row) for row in plane] for plane in alg.structure]
    for i, j, k in ((5, 2, 6), (5, 2, 1), (6, 4, 0)):
        s[i][j][k] += 1
    with pytest.raises(ValueError) as exc:
        LieAlgebraTable("sl3C", s, alg.basis_names, "complex", False)
    assert str(exc.value) == _verdict(lambda: dense_checks("sl3C", s, 8)) == (
        "sl3C: antisymmetry fails at 2,5,1")


# -- sparse readers against the dense ones ----------------------------------


def _scalar(level):
    n = field_degree(level)
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.one_of(st.just(CyclotomicNumber.zero(level)),
                     st.lists(coord, min_size=n, max_size=n).map(
                         lambda cs: CyclotomicNumber(level, cs)))


def _elements(alg):
    coord = st.sampled_from((4, 8, 12)).flatmap(_scalar)
    return st.lists(coord, min_size=alg.dim, max_size=alg.dim).map(
        lambda cs: AlgebraElement(alg, tuple(cs)))


def _same(a, b):
    return a == b and a.level == b.level


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_sparse_readers_agree_with_the_dense_ones(name):
    alg = builtin_algebra(name)
    assert alg.killing == dense_killing_matrix(alg.structure, alg.dim)

    @settings(max_examples=30, deadline=None)
    @given(_elements(alg), _elements(alg))
    def check(x, y):
        # the dense copy starts each coordinate from a level-4 zero; an
        # element has one level, so every bracket coordinate is at the lcm
        got, want = bracket(x, y), dense_bracket(x, y)
        assert got == want
        assert all(a == b and a.level == math.lcm(x.level, y.level)
                   for a, b in zip(got.coords, want.coords))
        assert _same(killing_form(x, y), dense_killing_form(x, y))
        # ad_matrix's columns are brackets [x, e_j], so every entry, zeros
        # included, is at x's level
        got, want = ad_matrix(x), dense_ad_matrix(x)
        assert all(a == b and a.level == x.level
                   for ra, rb in zip(got, want) for a, b in zip(ra, rb))

    check()
