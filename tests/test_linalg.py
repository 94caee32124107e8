import functools
import math
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kmforge import linalg
from kmforge.catalog import catalog_for
from kmforge.errors import InvalidLevelError
from kmforge.field import MAX_LEVEL, CyclotomicNumber, field_degree, zeta_power
from kmforge.liealg import FiniteAutomorphism, builtin_algebra
from kmforge.loop import loop_bracket, loop_coords
from kmforge.realforms import enumerate_real_forms, fixed_point_basis


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


def _is_inverse(m, inv):
    return all(x == (1 if i == j else 0)
               for prod in (linalg.mat_mul(m, inv), linalg.mat_mul(inv, m))
               for i, row in enumerate(prod) for j, x in enumerate(row))


def test_invert_int_matrices_gives_fractions():
    # the identity block of an int matrix was first / first, the float 1.0
    assert linalg.invert([[2]]) == [[Fraction(1, 2)]]
    assert linalg.invert([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    rng = random.Random(11)
    found = 0
    while found < 6:
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        try:
            inv = linalg.invert(m)
        except ValueError:
            continue
        found += 1
        assert all(type(x) is Fraction for row in inv for x in row)
        assert _is_inverse(m, inv)
        assert inv == linalg.invert([[Fraction(x) for x in row] for row in m])


def test_invert_fraction_matrices_gives_fractions():
    assert linalg.invert([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(1, 4)]]) == [
        [2, Fraction(-8, 3)], [0, 4]]
    rng = random.Random(13)
    for _ in range(6):
        m = _random_fraction_matrix(rng, 3, 3)
        try:
            inv = linalg.invert(m)
        except ValueError:
            continue
        assert all(type(x) is Fraction for row in inv for x in row)
        assert _is_inverse(m, inv)


def test_invert_cyclotomic_matrices_keeps_the_entry_level():
    z = zeta_power(12, 1)
    inv = linalg.invert([[z, 1], [0, 2 * z]])
    assert inv == [[z.conj(), -z.conj() ** 2 / 2], [0, z.conj() / 2]]
    assert all(x.level == 12 for row in inv for x in row)
    rng = random.Random(17)
    found = 0
    while found < 3:
        m = _random_cyclo_matrix(rng, 3, 3)
        try:
            inv = linalg.invert(m)
        except ValueError:
            continue
        found += 1
        assert all(type(x) is CyclotomicNumber and x.level == 12 for row in inv for x in row)
        assert _is_inverse(m, inv)


def test_field_rref_inverts_each_pivot_once(monkeypatch):
    # a pivot row is multiplied by the pivot's reciprocal, not divided by
    # the pivot entry by entry
    m = _random_cyclo_matrix(random.Random(5), 4, 6)
    calls = []
    inverse = CyclotomicNumber.inverse
    monkeypatch.setattr(CyclotomicNumber, "inverse", lambda x: calls.append(x) or inverse(x))
    rows, pivots = linalg.rref(m)
    assert len(calls) == len(pivots) == 4
    monkeypatch.undo()
    assert (rows, pivots) == _dense_rref(m)


def _invert_by_division(matrix):
    """``invert`` with its identity block built as ``x / x``, the oracle for
    the entries' values, levels and numerators."""
    n = len(matrix)
    first = next(x for row in matrix for x in row if x)
    one = first / first
    rows, _ = linalg.rref([list(row) + ident for row, ident
                           in zip(matrix, linalg.identity_like(n, one))])
    return [row[n:] for row in rows]


def test_cyclotomic_invert_inverts_each_pivot_and_nothing_else(monkeypatch):
    # the identity block is x ** 0: one inverse per pivot, none for the 1
    rng = random.Random(23)
    inverse = CyclotomicNumber.inverse
    for n in (1, 2, 3, 4):
        while True:
            m = _random_cyclo_matrix(rng, n, n)
            if linalg.rank(m) == n:
                break
        calls = []
        monkeypatch.setattr(CyclotomicNumber, "inverse",
                            lambda x: calls.append(x) or inverse(x))
        inv = linalg.invert(m)
        monkeypatch.undo()
        assert len(calls) == n
        want = _invert_by_division(m)
        assert [[(x.level, x.nums, x.den) for x in row] for row in inv] == \
            [[(x.level, x.nums, x.den) for x in row] for row in want]


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


# -- differential tests of the sparse products ---------------------------------
#
# _dense_mat_vec and _dense_mat_mul are the products before the sparse rows,
# kept verbatim as the oracle: every entry is tested against every term.


def _dense_mat_vec(matrix, vec):
    out = []
    for row in matrix:
        acc = None
        for a, x in zip(row, vec):
            if a and x:
                term = a * x
                acc = term if acc is None else acc + term
        if acc is None:
            acc = row[0] * 0 if row else vec[0] * 0
        out.append(acc)
    return out


def _dense_mat_mul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = None
            for x, y in zip(row, col):
                if x and y:
                    term = x * y
                    acc = term if acc is None else acc + term
            if acc is None:
                acc = row[0] * 0
            out_row.append(acc)
        out.append(out_row)
    return out


# None stands for Fraction entries; a pair is the levels of a mixed-level
# CyclotomicNumber matrix, as in the catalog
_LEVEL_MIXES = (None, (4, 12), (4, 20), (4, 196))
_SHAPES = ("monomial", "sparse", "dense")


@st.composite
def _scalars(draw, levels, nonzero):
    """A Fraction, or q * zeta^j (plus a second root) at one of ``levels``;
    a zero CyclotomicNumber keeps the level drawn for it."""
    if levels is None:
        return draw(_nonzero_fraction) if nonzero else Fraction(0)
    level = draw(st.sampled_from(levels))
    if not nonzero:
        return CyclotomicNumber.zero(level)
    x = zeta_power(level, draw(st.integers(0, level - 1))) * draw(_nonzero_fraction)
    if draw(st.booleans()):
        x = x + zeta_power(level, draw(st.integers(0, level - 1)))
    return x


@st.composite
def _product_matrices(draw, n, m, levels, shape):
    """An n x m matrix: at most one nonzero per row, about 30 % nonzero, or
    every entry drawn nonzero (a sum of two roots may still cancel)."""
    if shape == "monomial":
        cols = [draw(st.one_of(st.none(), st.integers(0, m - 1))) for _ in range(n)]
        nonzero = {(i, j) for i, j in enumerate(cols) if j is not None}
    elif shape == "sparse":
        cells = draw(st.lists(st.integers(0, n * m - 1), max_size=(n * m * 3) // 10 + 1,
                              unique=True))
        nonzero = {divmod(c, m) for c in cells}
    else:
        nonzero = {(i, j) for i in range(n) for j in range(m)}
    return [[draw(_scalars(levels, (i, j) in nonzero)) for j in range(m)] for i in range(n)]


@st.composite
def product_operands(draw):
    """(a, b, v) with a n x m, b m x p and v of length m, over one level mix."""
    levels = draw(st.sampled_from(_LEVEL_MIXES))
    n, m, p = (draw(st.integers(1, 6)) for _ in range(3))
    a = draw(_product_matrices(n, m, levels, draw(st.sampled_from(_SHAPES))))
    b = draw(_product_matrices(m, p, levels, draw(st.sampled_from(_SHAPES))))
    v = draw(_product_matrices(1, m, levels, draw(st.sampled_from(_SHAPES))))[0]
    return a, b, v


@_fast
@given(product_operands())
def test_mat_mul_and_mat_vec_match_dense(operands):
    a, b, v = operands
    assert _same_entries(linalg.mat_mul(a, b), _dense_mat_mul(a, b))
    assert _same_entries([linalg.mat_vec(a, v)], [_dense_mat_vec(a, v)])


# The FiniteAutomorphism operations before the trusted constructor, kept
# verbatim (on the dense product) as the oracle.


def _old_compose(f, g):
    m2 = g.matrix
    if f.antilinear:
        m2 = [[x.conj() for x in row] for row in m2]
    return FiniteAutomorphism(f.algebra, _dense_mat_mul(f.matrix, m2),
                              antilinear=f.antilinear != g.antilinear)


def _old_inverse(f):
    inv = linalg.invert([list(r) for r in f.matrix])
    if f.antilinear:
        inv = [[x.conj() for x in row] for row in inv]
    return FiniteAutomorphism(f.algebra, inv, antilinear=f.antilinear)


def _old_power(f, n):
    if n < 0:
        return _old_power(_old_inverse(f), -n)
    acc = FiniteAutomorphism.identity(f.algebra)
    for _ in range(n):
        acc = _old_compose(f, acc)
    return acc


def _old_is_identity(f):
    if f.antilinear:
        return False
    d = f.algebra.dim
    return all(f.matrix[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d))


def _old_eq(f, g):
    """Same algebra and flag, and entrywise equal values (levels may differ)."""
    return (f.algebra is g.algebra and f.antilinear == g.antilinear
            and all(a == b for ra, rb in zip(f.matrix, g.matrix) for a, b in zip(ra, rb)))


_ALGEBRAS = ("sl2C", "sl3C")


@st.composite
def automorphisms(draw, algebra=None):
    """A catalog matrix, a permutation matrix whose scalars are roots of
    unity at a level mix (finite order), or one with general scalars and up
    to two extra entries (possibly singular); either flag."""
    alg = builtin_algebra(algebra or draw(st.sampled_from(_ALGEBRAS)))
    d = alg.dim
    kind = draw(st.sampled_from(("catalog", "roots", "general")))
    if kind == "catalog":
        cat = catalog_for(alg.name)
        matrix = cat.named(draw(st.sampled_from(cat.names()))).matrix
    else:
        levels = draw(st.sampled_from(_LEVEL_MIXES[1:]))
        perm = draw(st.permutations(range(d)))
        matrix = [[draw(_scalars(levels, False)) for _ in range(d)] for _ in range(d)]
        for i, j in enumerate(perm):
            level = draw(st.sampled_from(levels))
            matrix[i][j] = (zeta_power(level, draw(st.integers(0, level - 1))) if kind == "roots"
                            else draw(_scalars(levels, True)))
        if kind == "general":
            for _ in range(draw(st.integers(0, 2))):
                matrix[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = \
                    draw(_scalars(levels, True))
    return FiniteAutomorphism(alg, matrix, antilinear=draw(st.booleans()))


@_slow
@given(automorphisms(), st.data())
def test_automorphism_algebra_matches_the_dense_implementation(f, data):
    g = data.draw(automorphisms(f.algebra.name))
    assert _old_eq(f.compose(g), _old_compose(f, g))
    assert _old_eq(g.compose(f), _old_compose(g, f))
    assert (f == g) == _old_eq(f, g) and (g == g) and _old_eq(g, g)
    try:
        old_inverse = _old_inverse(f)
    except ValueError:
        with pytest.raises(ValueError):
            f.inverse()
        powers = range(0, 7)
    else:
        assert _old_eq(f.inverse(), old_inverse)
        powers = range(-2, 7)
    for n in powers:
        power, old = f.power(n), _old_power(f, n)
        assert _old_eq(power, old)
        assert power.is_identity() == _old_is_identity(old)
        assert (power == f) == _old_eq(old, f)


def test_is_identity_compares_values_at_any_level():
    for name in _ALGEBRAS:
        alg = builtin_algebra(name)
        for level in (4, 12, 196):
            ident = FiniteAutomorphism(
                alg, linalg.identity_like(alg.dim, CyclotomicNumber.one(level)))
            assert ident.is_identity() and _old_is_identity(ident)
            assert ident == alg.identity
            flipped = FiniteAutomorphism(alg, ident.matrix, antilinear=True)
            assert not flipped.is_identity() and not _old_is_identity(flipped)
            assert flipped != alg.identity


def test_a_matrix_past_the_field_levels_is_refused():
    # entries at levels 196, 24 and 4 would be applied at level 1176; the
    # level-20 zeros are not counted (with them, 588 would be 2940), as apply
    # skips them
    alg = builtin_algebra("sl2C")
    ones = [CyclotomicNumber.one(level) for level in (196, 24, 4)]
    zero = CyclotomicNumber.zero(20)
    rows = [[x if i == j else zero for j in range(3)] for i, x in enumerate(ones)]
    with pytest.raises(InvalidLevelError, match="got 1176"):
        FiniteAutomorphism(alg, rows)
    rows[1][1] = CyclotomicNumber.one(12)
    assert FiniteAutomorphism(alg, rows) == alg.identity


def _scaled_levels(f, data):
    """f's matrix with each entry below level 196 lifted by a drawn factor of
    1 or 2 (twice 196 would leave MAX_LEVEL behind once compared at level 12)."""
    return FiniteAutomorphism(f.algebra, [[x.lift(x.level * data.draw(st.sampled_from((1, 2))))
                                           if x.level < 196 else x for x in row]
                                          for row in f.matrix], f.antilinear)


@settings(deadline=None)
@given(automorphisms(), st.data())
def test_equality_matches_the_entrywise_comparison(f, data):
    """``==`` compares cached (level, nums, den) keys and falls back to values
    only across levels; the entrywise comparison is the oracle, on a matrix
    equal to f at other levels and on copies that differ in one entry.  A
    copy whose nonzero entries' levels have an lcm past MAX_LEVEL (a level-12
    delta on a level-196 entry beside a level-8 one: 1176) could not be
    applied, so the constructor refuses it."""
    g = _scaled_levels(f, data)
    assert f == g and g == f and _old_eq(f, g)
    d = f.algebra.dim
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    delta = data.draw(_scalars(_LEVEL_MIXES[1], True))
    for other in (f, g):
        rows = [list(r) for r in other.matrix]
        rows[i][j] = rows[i][j] + delta
        if math.lcm(4, *(x.level for row in rows for x in row if x)) > MAX_LEVEL:
            with pytest.raises(InvalidLevelError):
                FiniteAutomorphism(f.algebra, rows, f.antilinear)
            continue
        h = FiniteAutomorphism(f.algebra, rows, f.antilinear)
        for a, b in ((f, h), (h, f), (g, h), (h, g)):
            assert (a == b) == _old_eq(a, b) == (not delta)


# -- differential tests of the fraction-free elimination -----------------------
#
# An all-int matrix is eliminated fraction-free.  The oracle is _dense_rref on
# the same matrix as Fractions: each integer row is a positive multiple of the
# oracle's row, and the kernel, rank and span verdicts are the oracle's.


@st.composite
def int_matrices(draw):
    """int matrices up to 8 x 10, sparse (at least 70 % zeros) or dense, with
    entries up to 9 or up to 10**6 in size."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    entries = draw(st.sampled_from((st.integers(-9, 9), st.integers(-10**6, 10**6))))
    if draw(st.booleans()):
        flat = [0] * (n * m)
        for pos in draw(st.lists(st.integers(0, n * m - 1), max_size=(n * m * 3) // 10,
                                 unique=True)):
            flat[pos] = draw(entries.filter(bool))
    else:
        flat = draw(st.lists(entries, min_size=n * m, max_size=n * m))
    return [flat[i * m:(i + 1) * m] for i in range(n)]


def _cleared(m):
    """Each Fraction row times the lcm of its denominators, as ints."""
    out = []
    for row in m:
        den = math.lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def _as_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


integer_rows = st.one_of(int_matrices(), sparse_fraction_matrices().map(_cleared))


@settings(deadline=None)
@given(integer_rows)
def test_fraction_free_rref_rank_kernel_match_dense(m):
    rows, pivots = linalg.rref(m)
    ref_rows, ref_pivots = _dense_rref(_as_fractions(m))
    assert pivots == ref_pivots
    assert all(type(x) is int for row in rows for x in row)
    for row, ref, p in zip(rows, ref_rows, pivots):
        assert row[p] > 0 and math.gcd(*row) == 1
        assert [Fraction(x, row[p]) for x in row] == ref
    assert not any(x for row in rows[len(pivots):] for x in row)
    assert linalg.rank(m) == len(ref_pivots)
    basis = linalg.kernel_basis(m, Fraction(0), Fraction(1))
    assert _same_entries(basis, _dense(linalg.kernel_basis, _as_fractions(m),
                                       Fraction(0), Fraction(1)))


@settings(deadline=None)
@given(integer_rows, st.data())
def test_fraction_free_in_span_matches_dense(m, data):
    rows, pivots = linalg.rref(m)
    ref = _dense_rref(_as_fractions(m))
    ncols = len(m[0])
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
    inside = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(ncols)]
    assert linalg.in_span(rows, pivots, inside)
    vec = data.draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))
    units = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    for v in [inside, vec] + units:
        assert linalg.in_span(rows, pivots, v) == _dense_in_span(*ref, _as_fractions([v])[0])
    # all-int systems M^T x = b; inside = M^T coeffs is consistent
    mt = [list(col) for col in zip(*m)]
    assert linalg.solve(mt, inside) is not None
    for b in (inside, vec):
        assert linalg.solve(mt, b) == _dense(linalg.solve, _as_fractions(mt),
                                             _as_fractions([b])[0])


def _fraction_loop_coords(u, exponents, lev):
    """``loop.loop_coords`` before integer rows, kept verbatim as the oracle."""
    terms = u.terms_dict()
    zero = [Fraction(0)] * (u.context.algebra.dim * field_degree(lev))
    out = []
    for k in exponents:
        x = terms.get(k)
        if x is None:
            out += zero
        else:
            den = x.den
            out += [Fraction(v, den) for v in x.nums_at(lev)]
    return out


@functools.cache
def _slice_bases(N):
    """The degree <= N fixed-point basis of every sl2C real form."""
    return [fixed_point_basis(form, N) for form in enumerate_real_forms("sl2C")]


@settings(deadline=None)
@given(st.data())
def test_loop_coords_match_the_fraction_coordinates_on_realform_slices(data):
    """On rational combinations of a real form's slice basis (N = 2) and
    their brackets (degree <= 4), at levels 4 and 8."""
    basis = data.draw(st.sampled_from(_slice_bases(2)))
    coeffs = data.draw(st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
                                min_size=len(basis), max_size=len(basis)))
    u = functools.reduce(operator.add, (b * c for b, c in zip(basis, coeffs)))
    w = loop_bracket(u, data.draw(st.sampled_from(basis)))
    lev = data.draw(st.sampled_from((4, 8)))
    for x in (u, w):
        nums, den = loop_coords(x, range(-4, 5), lev)
        assert den > 0 and all(type(v) is int for v in nums)
        assert [Fraction(v, den) for v in nums] == _fraction_loop_coords(x, range(-4, 5), lev)
