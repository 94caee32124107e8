import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kmforge import linalg
from kmforge.field import CyclotomicNumber, field_degree, zeta_power


def _random_fraction_matrix(rng, n, m):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]


def _random_cyclo_matrix(rng, n, m, level=12):
    deg = field_degree(level)
    return [
        [CyclotomicNumber(level, [Fraction(rng.randint(-2, 2)) for _ in range(deg)]) for _ in range(m)]
        for _ in range(n)
    ]


def test_invert_round_trip_fractions():
    rng = random.Random(3)
    for _ in range(10):
        m = _random_fraction_matrix(rng, 4, 4)
        try:
            inv = linalg.invert(m)
        except ValueError:
            continue
        prod = linalg.mat_mul(m, inv)
        ident = linalg.identity_like(4, Fraction(1))
        assert prod == ident


def test_invert_round_trip_cyclotomic():
    rng = random.Random(5)
    found = 0
    while found < 4:
        m = _random_cyclo_matrix(rng, 3, 3)
        try:
            inv = linalg.invert(m)
        except ValueError:
            continue
        found += 1
        prod = linalg.mat_mul(m, inv)
        for i in range(3):
            for j in range(3):
                assert prod[i][j] == (1 if i == j else 0)


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(10):
        m = _random_fraction_matrix(rng, 3, 5)
        basis = linalg.kernel_basis(m, Fraction(0), Fraction(1))
        assert len(basis) >= 2
        for v in basis:
            assert not any(linalg.mat_vec(m, v))


def test_kernel_dimension_counts():
    z = zeta_power(4, 1)
    one = CyclotomicNumber.one(4)
    zero = CyclotomicNumber.zero(4)
    m = [[one, z], [z, z * z]]  # rank 1
    basis = linalg.kernel_basis(m, zero, one)
    assert len(basis) == 1
    assert not any(linalg.mat_vec(m, basis[0]))


def test_solve_consistent_and_inconsistent():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.solve(m, [Fraction(3), Fraction(6)]) is not None
    assert linalg.solve(m, [Fraction(3), Fraction(7)]) is None
    sol = linalg.solve([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]], [Fraction(4), Fraction(9)])
    assert sol == [Fraction(2), Fraction(3)]


def test_in_span():
    rows = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(1)]]
    rr, piv = linalg.rref(rows)
    assert linalg.in_span(rr, piv, [Fraction(2), Fraction(3), Fraction(5)])
    assert not linalg.in_span(rr, piv, [Fraction(0), Fraction(0), Fraction(1)])


def test_rank():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)]]
    assert linalg.rank(m) == 2


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        linalg.invert([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


# -- differential tests of the zero-skipping elimination ----------------------
#
# _dense_rref and _dense_in_span are the elimination before zero skipping,
# kept verbatim as the oracle: every entry is updated, zero or not.


def _dense_rref(matrix):
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _dense_in_span(rref_rows, pivots, vec):
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        if v[p]:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    return not any(v)


def _dense(fn, *args):
    """``fn`` from linalg (kernel_basis, invert, rank) on the dense oracle."""
    with mock.patch.object(linalg, "rref", _dense_rref):
        return fn(*args)


def _lifted(matrix):
    """Every entry at the lcm of the matrix's levels, the documented result
    level of the zero-skipping elimination.  The dense oracle leaves an entry
    it never updates at its own level, so on a mixed-level matrix it is run
    on the lifted matrix (and compared by value on the raw one)."""
    lev = math.lcm(4, *(x.level for row in matrix for x in row))
    return [[x.lift(lev) for x in row] for row in matrix]


def _same_entries(a, b):
    """Equal shape, and entrywise equal value, type and level."""
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(
            x == y and type(x) is type(y) and getattr(x, "level", None) == getattr(y, "level", None)
            for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


_nonzero_fraction = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))


@st.composite
def sparse_fraction_matrices(draw, rows=None, cols=None, square=False):
    """Fraction matrices (up to 8 x 8) with at least 70 % zero entries."""
    n = rows or draw(st.integers(1, 8))
    m = cols or (n if square else draw(st.integers(1, 8)))
    cells = n * m
    budget = (cells * 3) // 10
    nonzero = draw(st.lists(st.integers(0, cells - 1), max_size=budget, unique=True))
    flat = [Fraction(0)] * cells
    for pos in nonzero:
        flat[pos] = draw(_nonzero_fraction)
    return [flat[i * m:(i + 1) * m] for i in range(n)]


@st.composite
def invertible_sparse_fraction_matrices(draw):
    """A scaled permutation matrix plus a few more entries, at least 70 % zeros."""
    n = draw(st.integers(4, 8))
    perm = draw(st.permutations(range(n)))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = draw(_nonzero_fraction)
    for _ in range((n * n * 3) // 10 - n):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_nonzero_fraction)
    return rows


@st.composite
def mixed_level_matrices(draw, rows=None, cols=None, square=False):
    """CyclotomicNumber matrices (up to 4 x 5) whose entries sit at levels 4,
    8 and 12, about half of them zero (a zero keeps its own level)."""
    n = rows or draw(st.integers(1, 4))
    m = cols or (n if square else draw(st.integers(1, 5)))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            level = draw(st.sampled_from((4, 8, 12)))
            if draw(st.booleans()):
                row.append(CyclotomicNumber.zero(level))
            else:
                coords = draw(st.lists(st.integers(-3, 3), min_size=field_degree(level),
                                       max_size=field_degree(level)))
                row.append(CyclotomicNumber(level, coords))
        rows.append(row)
    return rows


_fast = settings(max_examples=150, deadline=None)
_slow = settings(max_examples=60, deadline=None)


@_fast
@given(sparse_fraction_matrices())
def test_rref_rank_kernel_match_dense_on_sparse_fractions(m):
    rows, pivots = linalg.rref(m)
    ref_rows, ref_pivots = _dense_rref(m)
    assert pivots == ref_pivots
    assert _same_entries(rows, ref_rows)
    assert linalg.rank(m) == _dense(linalg.rank, m)
    basis = linalg.kernel_basis(m, Fraction(0), Fraction(1))
    assert _same_entries(basis, _dense(linalg.kernel_basis, m, Fraction(0), Fraction(1)))
    for v in basis:
        assert not any(linalg.mat_vec(m, v))


@_fast
@given(sparse_fraction_matrices(), st.data())
def test_in_span_matches_dense_on_sparse_fractions(m, data):
    rows, pivots = linalg.rref(m)
    ncols = len(m[0])
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(m), max_size=len(m)))
    inside = [sum((c * row[j] for c, row in zip(coeffs, m)), Fraction(0)) for j in range(ncols)]
    assert linalg.in_span(rows, pivots, inside)
    vec = data.draw(st.one_of(
        st.just(inside),
        sparse_fraction_matrices(rows=1, cols=ncols).map(lambda r: r[0]),
        st.lists(_nonzero_fraction, min_size=ncols, max_size=ncols),
    ))
    units = [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    for v in [vec] + units:
        assert linalg.in_span(rows, pivots, v) == _dense_in_span(*_dense_rref(m), v)


@_fast
@given(st.one_of(invertible_sparse_fraction_matrices(), sparse_fraction_matrices(square=True)))
def test_invert_matches_dense_on_sparse_fractions(m):
    try:
        ref = _dense(linalg.invert, m)
    except ValueError:
        with pytest.raises(ValueError):
            linalg.invert(m)
        return
    inv = linalg.invert(m)
    assert _same_entries(inv, ref)
    assert linalg.mat_mul(m, inv) == linalg.identity_like(len(m), Fraction(1))


@_slow
@given(mixed_level_matrices())
def test_rref_rank_kernel_match_dense_on_mixed_levels(m):
    rows, pivots = linalg.rref(m)
    ref_rows, ref_pivots = _dense_rref(_lifted(m))
    assert pivots == ref_pivots == _dense_rref(m)[1]
    assert _same_entries(rows, ref_rows)
    # the values do not depend on the lift
    assert all(x == y for rr, rd in zip(rows, _dense_rref(m)[0]) for x, y in zip(rr, rd))
    assert linalg.rank(m) == _dense(linalg.rank, m)
    zero, one = CyclotomicNumber.zero(), CyclotomicNumber.one()
    basis = linalg.kernel_basis(m, zero, one)
    assert _same_entries(basis, _dense(linalg.kernel_basis, _lifted(m), zero, one))
    for v in basis:
        assert not any(linalg.mat_vec(m, v))


@_slow
@given(mixed_level_matrices(), st.data())
def test_in_span_matches_dense_on_mixed_levels(m, data):
    rows, pivots = linalg.rref(m)
    ncols = len(m[0])
    vec = data.draw(mixed_level_matrices(rows=1, cols=ncols).map(lambda r: r[0]))
    combo = [sum((row[j] for row in m), CyclotomicNumber.zero()) for j in range(ncols)]
    for v in (vec, combo):
        assert linalg.in_span(rows, pivots, v) == _dense_in_span(*_dense_rref(m), v)
    assert linalg.in_span(rows, pivots, combo)


@_slow
@given(mixed_level_matrices(square=True))
def test_invert_matches_dense_on_mixed_levels(m):
    try:
        ref = _dense(linalg.invert, _lifted(m))
    except ValueError:
        with pytest.raises(ValueError):
            linalg.invert(m)
        return
    inv = linalg.invert(m)
    assert _same_entries(inv, ref)
    assert all(x == (1 if i == j else 0)
               for i, row in enumerate(linalg.mat_mul(m, inv)) for j, x in enumerate(row))
