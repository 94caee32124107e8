"""Small exact linear algebra over any exact scalar type.

Works uniformly for Fraction and CyclotomicNumber entries: scalars must
support +, -, *, /, bool (nonzero test) and ==.  Matrices are lists of rows;
nothing here mutates its arguments.

Products pay only for nonzero entries: ``mat_vec`` and ``mat_mul`` read the
nonzero ``(k, value)`` pairs of the vector and of each row of the right
operand, computed once per call.  An entry sums the products ``a * b`` of its
nonzero pairs in ascending k, starting from the first product, and an entry
with no such product is ``row[0] * 0`` for the left operand's row, so values
and levels are those of the dense triple loop.  Algebra elements do not come
through here: an element is one integer block at one level, and matrices
act on it as ``element.IntRows``; ``mat_vec`` serves scalar vectors such as
the eigencoordinates of ``liealg.ExpCurveData``.

Elimination skips structural zeros: a pivot row is multiplied by the
pivot's reciprocal r, computed once, as ``x * r if x else x``, and a row
update (in ``rref`` and ``in_span``) is ``x - f * y if y else x``.  A
skipped CyclotomicNumber operation does not lift ``x`` to the lcm of the
operands' levels, so ``rref`` first lifts a matrix whose CyclotomicNumber
entries have mixed levels to their lcm level, once; every returned entry of
such a matrix is at that level.  A single-level matrix is not touched.

Rational rows are integer rows.  A caller holding rational vectors, as
integer numerators over one denominator, passes the numerators: the
denominator changes no pivot, rank, kernel or span membership.  When every
entry of a matrix is an ``int``, ``rref`` eliminates fraction-free: a row
update is ``a * x - b * y`` with the pivot a and the entry b divided by
their gcd, and every updated row is divided by the gcd of its entries.  Each
returned row is then primitive, has a positive pivot and zeros in the other
pivot columns, so it is a positive multiple of the row of the reduced
echelon form, with the same pivots.  ``in_span`` cross-multiplies on such
rows, ``rank`` counts their pivots and ``kernel_basis`` divides by the pivot
only for its output, as ``Fraction``s equal to the field path's, and so
do ``solve`` and ``invert``.  Matrices of Fractions or CyclotomicNumbers
take the field path; ``invert``'s identity block then holds ``x ** 0`` for
the first nonzero entry x, which is 1 at x's level with no inverse taken, so
a cyclotomic inverse keeps its entry levels.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import CyclotomicNumber


def _nonzeros(row):
    return [(k, x) for k, x in enumerate(row) if x]


def mat_vec(matrix, vec):
    nonzero = _nonzeros(vec)
    out = []
    for row in matrix:
        acc = None
        for k, x in nonzero:
            a = row[k]
            if a:
                term = a * x
                acc = term if acc is None else acc + term
        if acc is None:
            acc = row[0] * 0 if row else vec[0] * 0
        out.append(acc)
    return out


def mat_mul(a, b):
    b_rows = [_nonzeros(row) for row in b]
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [None] * ncols
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    term = x * y
                    acc[j] = term if acc[j] is None else acc[j] + term
        if any(v is None for v in acc):
            zero = row[0] * 0
            acc = [zero if v is None else v for v in acc]
        out.append(acc)
    return out


def identity_like(n, one):
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _one_level(rows):
    """Lift every CyclotomicNumber entry to the lcm of the entries' levels."""
    levels = {x.level for row in rows for x in row if type(x) is CyclotomicNumber}
    if len(levels) < 2:
        return rows
    lev = math.lcm(*levels)
    return [[x.lift(lev) if type(x) is CyclotomicNumber else x for x in row] for row in rows]


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot column list).  An
    all-``int`` matrix is eliminated fraction-free (module docstring)."""
    rows = [list(r) for r in matrix]
    if {type(x) for row in rows for x in row} <= {int}:
        return _gauss_jordan(rows, _int_pivot, _int_update)
    return _gauss_jordan(_one_level(rows), _field_pivot, _field_update)


def _gauss_jordan(rows, pivot_row, update):
    """Gauss-Jordan on ``rows`` in place: each pivot row goes through
    ``pivot_row(row, c)``, and every other row with an entry in the pivot
    column c becomes ``update(row, prow, c)``."""
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
        prow = rows[r] = pivot_row(rows[r], c)
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = update(rows[i], prow, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _field_pivot(row, c):
    r = Fraction(1) / row[c]
    return [x * r if x else x for x in row]


def _field_update(v, row, p):
    """v minus v[p] times the normalised row: v with its entry at p cleared."""
    f = v[p]
    return [x - f * y if y else x for x, y in zip(v, row)]


def _int_pivot(row, c):
    """The row over the gcd of its entries, with a positive entry at c."""
    g = math.gcd(*row)
    if row[c] < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def _int_update(v, row, p):
    v = _cross(v, row, p)
    g = math.gcd(*v)
    return v if g < 2 else [x // g for x in v]


def _cross(v, row, p):
    """a * v - b * row for the integer row's positive pivot a = row[p] and
    b = v[p], both divided by their gcd: v with its entry at p cleared."""
    a, b = row[p], v[p]
    g = math.gcd(a, b)
    if g > 1:
        a, b = a // g, b // g
    if a == 1:
        return [x - b * y if y else x for x, y in zip(v, row)]
    return [a * x - b * y if y else a * x for x, y in zip(v, row)]


def rank(matrix):
    _, pivots = rref(matrix)
    return len(pivots)


def kernel_basis(matrix, zero, one):
    """Basis of the right kernel {v : M v = 0}; for an all-``int`` matrix the
    entries are the ``Fraction``s of the reduced echelon form."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(rows, pivots):
            x = row[f]
            if type(row[p]) is not int:
                v[p] = -x
            elif x:
                v[p] = Fraction(-x, row[p])
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """One solution of M x = rhs, or None when inconsistent."""
    if not matrix:
        return None
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    for row in rows:
        if row[-1] and not any(row[:-1]):
            return None
    zero = rhs[0] * 0
    x = [zero] * ncols
    for row, p in zip(rows, pivots):
        if p == ncols:
            return None
        x[p] = Fraction(row[-1], row[p]) if type(row[p]) is int else row[-1]
    return x


def invert(matrix):
    """Exact inverse; raises ValueError on singular input.  An all-``int``
    matrix gives ``Fraction``s."""
    n = len(matrix)
    first = next((x for row in matrix for x in row if x), None)
    if first is None:
        raise ValueError("singular matrix")
    one = 1 if type(first) is int else first ** 0
    aug = [list(row) + ident_row for row, ident_row in zip(matrix, identity_like(n, one))]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [[Fraction(x, row[i]) for x in row[n:]] if type(row[i]) is int else row[n:]
            for i, row in enumerate(rows)]


def in_span(rref_rows, pivots, vec):
    """Membership of vec in the row space given by a precomputed rref; an
    integer rref takes an integer vec."""
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        if v[p]:
            v = _cross(v, row, p) if type(row[p]) is int else _field_update(v, row, p)
    return not any(v)
