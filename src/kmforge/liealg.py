"""Finite-dimensional simple Lie algebras by structure constants.

Tables hold exact rational structure constants in a fixed basis; elements
carry cyclotomic coordinate vectors over the table, so one table serves both
a real form and its complexification.  Elements are integer blocks, each at
one level; ``element`` states their layout and level rule, and holds the
bracket, the Killing form and ``IntRows``, the integer rows through which
automorphism matrices act.  Automorphisms are matrices plus an antilinearity
flag: an antilinear map acts by conjugating coordinates first, then applying
the matrix.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from . import linalg
from .element import AlgebraElement, IntRows, _as_scalar, _element, bracket
from .element import killing_form  # noqa: F401  (re-exported: part of liealg's API)
from .errors import AlgebraMismatchError, NotFiniteOrderError, UnknownAlgebraError
from .field import (CyclotomicNumber, _rational, check_level, field_degree, imaginary_unit, zeta_of,
                    zeta_power)

BUILTIN_NAMES = ("sl2C", "sl3C", "su2", "su3")

# Capacity of each table's memo of automorphism products and inverses; when
# it is full the oldest entry goes first.  One command of the CLI makes at
# most 42 distinct ones on the classify-cli benchmark (232 distinct operand
# pairs and 58 inverse inputs in 1,737 calls over its 45 commands), and a
# whole pass of those commands leaves 106, so a command never evicts what it
# repeats.  A composed sl3C map with its kept keys holds 5 to 7 KB, so a full
# memo stays under 2 MB.
PRODUCT_MEMO_SIZE = 256


class LieAlgebraTable:
    """Simple Lie algebra with exact structure constants and Killing form.

    The dense ``structure[i][j][k]`` (coefficient of x_k in [x_i, x_j]) is the
    input and the encoded view; computations read ``pairs[i][j]``, the nonzero
    constants of [x_i, x_j] as ``(k, c)`` in increasing k, c an int if integral.
    """

    def __init__(self, name, structure, basis_names, base_field_tag, compact_flag):
        self.name = name
        self.dim = d = len(structure)
        if any(len(plane) != d or any(len(row) != d for row in plane) for plane in structure):
            raise ValueError(f"{name}: structure constants must form a {d}x{d}x{d} cube")
        self.structure = structure
        self.pairs = tuple(tuple(tuple((k, _integral(c)) for k, c in enumerate(row) if c)
                                 for row in plane) for plane in structure)
        self.basis_names = tuple(basis_names)
        self.base_field_tag = base_field_tag
        self.compact_flag = compact_flag
        self.killing = self._killing_matrix()
        # for integer blocks: the constants as ints over one denominator s, then
        # the scalar row d, and the Killing entries as ints over s^2
        s = self.scale = math.lcm(*(c.denominator for plane in self.pairs for row in plane
                                     for _, c in row))
        self.int_pairs = tuple(tuple(tuple((k, int(c * s)) for k, c in row) for row in plane)
                                for plane in self.pairs) + (tuple(((k, s),) for k in range(d)),)
        self.int_killing = tuple(tuple(int(c * s * s) for c in row) for row in self.killing)
        # the Killing entries in the layout of int_pairs, with one output
        self.killing_pairs = tuple(tuple(((0, c),) if c else () for c in row)
                                   for row in self.int_killing)
        self.products = {}
        self._validate()

    def remember(self, key, auto):
        """Keep ``auto`` in ``products`` under ``key``, evicting the oldest
        entry when the memo holds PRODUCT_MEMO_SIZE; returns ``auto``."""
        if len(self.products) >= PRODUCT_MEMO_SIZE:
            del self.products[next(iter(self.products))]
        self.products[key] = auto
        return auto

    @functools.cached_property
    def identity(self):
        """The identity automorphism, built once and shared: it is immutable."""
        return FiniteAutomorphism(self, linalg.identity_like(self.dim, 1))

    def _killing_matrix(self):
        """kappa(x_i, x_j) = tr(ad x_i ad x_j) = sum of c[i][a][b] * c[j][b][a]."""
        cols = [[dict(row) for row in plane] for plane in self.pairs]
        return tuple(tuple(_integral(sum(c * cols[j][b].get(a, 0)
                                         for a, row in enumerate(self.pairs[i]) for b, c in row))
                           for j in range(self.dim)) for i in range(self.dim))

    def _validate(self):
        d, p = self.dim, self.pairs
        for i in range(d):
            for j in range(d):
                a, b = dict(p[i][j]), dict(p[j][i])
                bad = [k for k in sorted(a.keys() | b.keys()) if a.get(k, 0) != -b.get(k, 0)]
                if bad:
                    raise ValueError(f"{self.name}: antisymmetry fails at {i},{j},{bad[0]}")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    # acc[n]: x_n-coefficient of the cyclic sum of [x_i, [x_j, x_k]]
                    acc = {}
                    for x, y, z in ((j, k, i), (k, i, j), (i, j, k)):
                        for m, c in p[x][y]:
                            for n, c2 in p[z][m]:
                                acc[n] = acc.get(n, 0) + c * c2
                    if any(acc.values()):
                        raise ValueError(f"{self.name}: Jacobi fails at {i},{j},{k}")
        if any(self.killing[i][j] != self.killing[j][i] for i in range(d) for j in range(d)):
            raise ValueError(f"{self.name}: Killing form not symmetric")
        if linalg.rank(self.int_killing) < d:
            raise ValueError(f"{self.name}: Killing form degenerate")
        if self.compact_flag and not _negative_definite(
                [[Fraction(x) for x in row] for row in self.killing]):
            raise ValueError(f"{self.name}: compact table must have negative definite Killing form")

    def basis_element(self, i, level=4):
        n = check_level(level)
        nums = [0] * (self.dim * n)
        nums[i * n] = 1
        return _element(self, level, tuple(nums), 1)

    def zero_element(self, level=4):
        return _element(self, level, (0,) * (self.dim * check_level(level)), 1)

    def element(self, coords):
        return AlgebraElement(self, coords)

    def basis(self, level=4):
        return [self.basis_element(i, level) for i in range(self.dim)]

    def __repr__(self):
        return f"LieAlgebraTable({self.name}, dim={self.dim})"


def _integral(c):
    """A rational as an int when it is integral, else as a Fraction."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _negative_definite(matrix):
    """Symmetric elimination without row swaps: pivot k is D_k / D_(k-1), so
    every pivot is negative exactly when Sylvester's criterion holds."""
    m = [list(r) for r in matrix]
    for c in range(len(m)):
        pivot = m[c][c]
        if pivot >= 0:
            return False
        for r in range(c + 1, len(m)):
            f = m[r][c] / pivot
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return True


def ad_matrix(x):
    """Matrix of ad(x) in the table basis (columns are [x, e_j])."""
    d = x.algebra.dim
    out = [[CyclotomicNumber.zero()] * d for _ in range(d)]
    for i, xi in enumerate(x.coords):
        if xi:
            for j, row in enumerate(x.algebra.pairs[i]):
                for k, c in row:
                    out[k][j] = out[k][j] + xi * c
    return out


class FiniteAutomorphism:
    """(Anti)linear bracket-preserving map, stored as matrix + flag.

    The public constructor validates: it wraps every entry as a
    CyclotomicNumber and checks the d x d shape and that the lcm of the
    nonzero entries' levels, the level ``apply`` works at, is a valid field
    level (``jsonio`` decodes through it).  ``_trusted`` is internal only: it
    takes d x d rows that are already CyclotomicNumbers, the results of
    ``compose`` and ``inverse``, and stores them without re-wrapping or
    checking.  ``apply`` builds the matrix's ``IntRows`` on first use and
    keeps them; ``==`` builds and keeps the entries' levels and (nums, den)
    pairs.

    ``compose`` and ``inverse`` are memoized on the algebra table
    (``LieAlgebraTable.products``), keyed by each operand's flag and
    ``_entry_key()``.  The key holds every entry's level, so a hit is the
    matrix a recomputation would build, entry levels and encoded bytes
    included; keying on ``==``, which compares values across levels, would
    hand back another level's matrix.  The memo keeps PRODUCT_MEMO_SIZE
    entries, oldest evicted first: the repeats of one command (powers, order
    loops, target twists) fit in it with room to spare.
    """

    __slots__ = ("algebra", "matrix", "antilinear", "_rows", "_key")

    def __init__(self, algebra, matrix, antilinear=False):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrix", tuple(tuple(_as_scalar(x) for x in row) for row in matrix))
        object.__setattr__(self, "antilinear", bool(antilinear))
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_key", None)
        if len(self.matrix) != algebra.dim or any(len(r) != algebra.dim for r in self.matrix):
            raise ValueError("matrix shape does not match algebra dimension")
        check_level(math.lcm(4, *(x.level for row in self.matrix for x in row if x)))

    @classmethod
    def _trusted(cls, algebra, rows, antilinear):
        self = object.__new__(cls)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrix", tuple(map(tuple, rows)))
        object.__setattr__(self, "antilinear", antilinear)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_key", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FiniteAutomorphism is immutable")

    @classmethod
    def identity(cls, algebra):
        return algebra.identity

    def apply(self, x):
        if x.algebra is not self.algebra:
            raise AlgebraMismatchError("element is over a different algebra")
        return self.int_rows().apply(x.conj() if self.antilinear else x)

    def int_rows(self):
        """The matrix as ``IntRows``, built on first use and kept."""
        if self._rows is None:
            object.__setattr__(self, "_rows", IntRows(self.matrix))
        return self._rows

    def compose(self, other):
        """self after other."""
        if other.algebra is not self.algebra:
            raise AlgebraMismatchError("automorphisms over different algebras")
        key = (self.antilinear, self._entry_key(), other.antilinear, other._entry_key())
        out = self.algebra.products.get(key)
        if out is None:
            m2 = other.matrix
            if self.antilinear:
                m2 = [[x.conj() for x in row] for row in m2]
            out = self.algebra.remember(key, FiniteAutomorphism._trusted(
                self.algebra, linalg.mat_mul(self.matrix, m2), self.antilinear != other.antilinear))
        return out

    def inverse(self):
        key = (self.antilinear, self._entry_key())  # a compose key has four parts
        out = self.algebra.products.get(key)
        if out is None:
            inv = linalg.invert([list(r) for r in self.matrix])
            if self.antilinear:
                inv = [[x.conj() for x in row] for row in inv]
            out = self.algebra.remember(key, FiniteAutomorphism._trusted(
                self.algebra, inv, self.antilinear))
        return out

    def power(self, n):
        if n < 0:
            return self.inverse().power(-n)
        if n == 0:
            return self.algebra.identity
        acc = self
        for _ in range(n - 1):
            acc = self.compose(acc)
        return acc

    def is_identity(self):
        return not self.antilinear and self == self.algebra.identity

    def _entry_key(self):
        """(levels, values): the entries' levels, and their (nums, den) pairs,
        built on first use and kept.  Values are canonical at each level, so
        equal keys mean equal matrices, and keys with equal levels but other
        values mean different ones."""
        if self._key is None:
            entries = [x for row in self.matrix for x in row]
            object.__setattr__(self, "_key", (tuple([x.level for x in entries]),
                                              tuple([(x.nums, x.den) for x in entries])))
        return self._key

    def __eq__(self, other):
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

    __hash__ = None

    def __repr__(self):
        kind = "antilinear" if self.antilinear else "linear"
        return f"FiniteAutomorphism({self.algebra.name}, {kind})"


def check_automorphism(auto):
    """True iff the map is invertible and preserves the bracket."""
    alg = auto.algebra
    d = alg.dim
    try:
        linalg.invert([list(r) for r in auto.matrix])
    except ValueError:
        return False
    cols = [AlgebraElement(alg, tuple(auto.matrix[i][j] for i in range(d))) for j in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            lhs = auto.apply(bracket(alg.basis_element(i), alg.basis_element(j)))
            rhs = bracket(cols[i], cols[j])
            if lhs != rhs:
                return False
    return True


# the default bound of every order search
ORDER_BOUND = 48


def order_by_iteration(first, step, is_identity, bound):
    """Least n <= bound with is_identity(x_n), else None, where x_1 = first
    and x_(n+1) = step(x_n).  Every order in the package is found here."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    acc = first
    for n in range(1, bound + 1):
        if is_identity(acc):
            return n
        acc = step(acc)
    return None


def automorphism_order(auto, bound=ORDER_BOUND):
    """Least n <= bound with auto^n = id, else None."""
    return order_by_iteration(auto, auto.compose, FiniteAutomorphism.is_identity, bound)


def _eigenvectors(alg, matrix, lam):
    """Basis of the kernel of M - lam*I as elements.  ``lam``'s level must be
    a multiple of every entry's: ``linalg.rref`` lifts the shifted matrix to
    it, and the basis is at that level."""
    shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
               for i, row in enumerate(matrix)]
    zero, one = CyclotomicNumber.zero(lam.level), CyclotomicNumber.one(lam.level)
    return [AlgebraElement(alg, tuple(v)) for v in linalg.kernel_basis(shifted, zero, one)]


def eigenspace_decomposition(auto, order):
    """{k: basis} over the nonzero eigenspaces of a linear map of the given
    order, keyed by the exponent k of the eigenvalue zeta_order^k."""
    if auto.antilinear:
        raise NotFiniteOrderError("eigenspace decomposition needs a linear map")
    lev = math.lcm(4, order, *[x.level for row in auto.matrix for x in row])
    out = {}
    for k in range(order):
        basis = _eigenvectors(auto.algebra, auto.matrix, zeta_power(order, k).lift(lev))
        if basis:
            out[k] = tuple(basis)
    if sum(map(len, out.values())) != auto.algebra.dim:
        raise NotFiniteOrderError("eigenspaces do not span; map is not of the declared order")
    return out


def fixed_subalgebra(auto, bound=ORDER_BOUND):
    """Basis of the fixed-point set; rational-span basis for antilinear maps."""
    if automorphism_order(auto, bound) is None:
        raise NotFiniteOrderError(f"no order within bound {bound}")
    alg = auto.algebra
    lev = math.lcm(4, *[x.level for row in auto.matrix for x in row])
    if not auto.antilinear:
        basis = _eigenvectors(alg, auto.matrix, CyclotomicNumber.one(lev))
        _check_bracket_closed(basis, lambda x: list(x.coords))
        return basis
    gens = [alg.basis_element(i, lev) * zeta_power(lev, j)
            for i in range(alg.dim) for j in range(field_degree(lev))]

    def flatten(x):
        return x.nums_at(lev), x.den

    basis = [x for _, x in fixed_span_columns(gens, [auto.apply(g) for g in gens], flatten)]
    _check_bracket_closed(basis, lambda x: flatten(x)[0])
    return basis


def fixed_span_columns(gens, images, flatten, sign=1):
    """Basis of the rational combinations x of ``gens`` with image(x) = sign*x,
    as (free column, element) pairs.  ``images`` lists image(g) for a map that
    is additive and commutes with rational scalars; ``flatten`` is injective,
    rational-linear and returns ``(nums, den)``, integers over a positive
    denominator.  The kernel of the columns flatten(image(g) - sign*g), on
    their numerators over one denominator, is read off the fraction-free rref
    (``linalg``): free column f's vector as integer multipliers over one
    scale, the lcm of the pivots it divides by."""
    if not gens:
        return []
    cols = [flatten(img - g * sign) for g, img in zip(gens, images)]
    den = math.lcm(*(d for _, d in cols))
    rows, pivots = linalg.rref(list(zip(*[nums if d == den else [v * (den // d) for v in nums]
                                          for nums, d in cols])))
    out = []
    for f in sorted(set(range(len(gens))) - set(pivots)):
        used = [(p, row[f], row[p]) for row, p in zip(rows, pivots) if row[f]]
        scale = math.lcm(*(a for _, _, a in used))
        x = functools.reduce(operator.add, (gens[p] * (-v * (scale // a)) for p, v, a in used),
                             gens[f] * scale)
        out.append((f, x * Fraction(1, scale)))
    return out


def _check_bracket_closed(basis, flatten):
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


class ExpCurveData:
    """Generator X with the eigenspace data of ad(X).

    ad(X) acts on the eigenspace attached to rational q as multiplication by
    i*q; the eigenspaces must span the algebra.  The constructor checks both,
    one bracket per supplied vector, and nothing more: the grading
    [V_q1, V_q2] in V_(q1+q2) follows.  ad X is a derivation, so
    [X, [v1, v2]] = i(q1+q2)[v1, v2], and since the eigenspaces span, the
    i(q1+q2)-eigenspace of ad X is V_(q1+q2), or zero when q1+q2 is no label.
    """

    def __init__(self, generator, eigenpairs):
        self.generator = generator
        self.eigenpairs = tuple((_rational(q), tuple(vs)) for q, vs in eigenpairs)
        alg = generator.algebra
        d = alg.dim
        cols = []
        self._labels = []
        for q, vs in self.eigenpairs:
            for v in vs:
                cols.append(v)
                self._labels.append(q)
        if len(cols) != d:
            raise ValueError("eigenspaces do not span the algebra")
        lev = math.lcm(4, *[v.level for v in cols])
        coords = [v.coords for v in cols]
        cmat = [[coords[j][i].lift(lev) for j in range(d)] for i in range(d)]
        self._cols = cols
        self._cmat = cmat
        self._cinv = linalg.invert(cmat)
        i_unit = imaginary_unit()
        for q, v in zip(self._labels, cols):
            if bracket(generator, v) != (i_unit * q) * v:
                raise ValueError(f"ad(X) does not act as i*{q} on a supplied vector")

    def decompose(self, x):
        """Split x into its ad(X)-eigencomponents, keyed by q."""
        parts = {}
        for c, q, v in zip(linalg.mat_vec(self._cinv, list(x.coords)), self._labels, self._cols):
            if c:
                parts[q] = parts[q] + c * v if q in parts else c * v
        return parts

    def scaled(self, c):
        c = _rational(c)
        return ExpCurveData(self.generator * c, [(q * c, vs) for q, vs in self.eigenpairs])

    def transformed(self, auto):
        """Push the curve data through an automorphism of the algebra."""
        sign = -1 if auto.antilinear else 1
        pairs = [(q * sign, tuple(auto.apply(v) for v in vs)) for q, vs in self.eigenpairs]
        return ExpCurveData(auto.apply(self.generator), pairs)

    def __repr__(self):
        qs = sorted(q for q, _ in self.eigenpairs)
        return f"ExpCurveData(qs={qs})"


def exp_curve(x, candidate_qs):
    """Eigenspace data for ad(x) computed from candidate rational eigenvalues."""
    adX = ad_matrix(x)
    lev = math.lcm(4, *[c.level for row in adX for c in row])
    i_unit = imaginary_unit(lev)
    pairs = []
    seen = set()
    for q in candidate_qs:
        q = _rational(q)
        if q in seen:
            continue
        seen.add(q)
        basis = _eigenvectors(x.algebra, adX, i_unit * q)
        if basis:
            pairs.append((q, tuple(basis)))
    return ExpCurveData(x, pairs)


def exp_ad(data, s):
    """The automorphism e^{ad tX} at t = 2*pi*s, evaluated exactly."""
    s = _rational(s)
    alg = data.generator.algebra
    d = alg.dim
    scaled_cols = []
    for idx, q in enumerate(data._labels):
        z = zeta_of(q * s)
        scaled_cols.append([z * data._cmat[i][idx] for i in range(d)])
    cd = [[scaled_cols[j][i] for j in range(d)] for i in range(d)]
    m = linalg.mat_mul(cd, data._cinv)
    return FiniteAutomorphism(alg, m, antilinear=False)


# -- built-in tables --------------------------------------------------------

# name -> (basis names, base field tag, compact flag)
_BUILTINS = {
    "sl2C": (("e", "h", "f"), "complex", False),
    "sl3C": (("e12", "e13", "e23", "e21", "e31", "e32", "h1", "h2"), "complex", False),
    "su2": (("u1", "u2", "u3"), "real", True),
    "su3": (("a12", "a13", "a23", "b12", "b13", "b23", "c1", "c2"), "real", True),
}


def _m(n, *terms):
    """The n x n matrix sum of c * E_rs over the terms (c, r, s), at level 4."""
    rows = [[CyclotomicNumber.zero()] * n for _ in range(n)]
    for c, r, s in terms:
        rows[r][s] = rows[r][s] + c
    return tuple(map(tuple, rows))


@functools.cache
def builtin_matrices(name):
    """The basis matrices of a built-in table, in its basis order, at level 4:
    sl(n) is spanned by E_rs (r != s) and the h_k = E_kk - E_(k+1)(k+1), su(n)
    by E_rs - E_sr, i(E_rs + E_sr) for r < s, and the i h_k."""
    if name not in _BUILTINS:
        raise UnknownAlgebraError(f"unknown algebra {name!r}; built-ins: {BUILTIN_NAMES}")
    n = 2 if name in ("sl2C", "su2") else 3
    upper = [(r, s) for r in range(n) for s in range(r + 1, n)]
    if name.startswith("su"):
        i = imaginary_unit()
        return tuple([_m(n, (1, r, s), (-1, s, r)) for r, s in upper]
                     + [_m(n, (i, r, s), (i, s, r)) for r, s in upper]
                     + [_m(n, (i, k, k), (-i, k + 1, k + 1)) for k in range(n - 1)])
    e = [_m(n, (1, r, s)) for r, s in upper]
    f = [_m(n, (1, s, r)) for r, s in upper]
    h = [_m(n, (1, k, k), (-1, k + 1, k + 1)) for k in range(n - 1)]
    return tuple(e + h + f if n == 2 else e + f + h)


def matrix_coordinates(basis, mats):
    """Coordinates of each matrix of ``mats`` in the independent matrices
    ``basis``, from one elimination of the basis columns beside the target
    columns: the first d pivots are 0..d-1, and a pivot past them is a target
    outside the span, which raises ValueError (nothing is projected)."""
    d = len(basis)
    columns = [[x for row in m for x in row] for m in (*basis, *mats)]
    rows, pivots = linalg.rref([list(r) for r in zip(*columns)])
    if pivots != list(range(d)):
        raise ValueError("matrix outside the span of the basis")
    return [tuple(rows[k][t] for k in range(d)) for t in range(d, len(columns))]


def _commutator(a, b):
    return [[x - y for x, y in zip(r1, r2)]
            for r1, r2 in zip(linalg.mat_mul(a, b), linalg.mat_mul(b, a))]


def _structure_constant(c):
    """A level-4 structure constant as a Fraction; it must be rational."""
    if c.nums[1]:
        raise ValueError("structure constant is not rational")
    return Fraction(c.nums[0], c.den)


@functools.cache
def builtin_algebra(name):
    """Validated built-in table; names: sl2C, sl3C, su2, su3.  The structure
    constants are the coordinates of the commutators of the basis matrices."""
    mats = builtin_matrices(name)
    d = len(mats)
    coords = matrix_coordinates(mats, [_commutator(a, b) for a in mats for b in mats])
    structure = tuple(tuple(tuple(map(_structure_constant, coords[i * d + j])) for j in range(d))
                      for i in range(d))
    return LieAlgebraTable(name, structure, *_BUILTINS[name])
