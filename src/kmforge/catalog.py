"""Catalogs of automorphism representatives and component classifiers.

Built-ins cover the rank-1 and rank-2 special linear algebras.  Catalog
representatives are the automorphisms that may appear in classification
invariants.  Each is stated by its defining map on matrices (Ad of a diagonal
or permutation matrix, or m -> -m^T) and read back in the table's basis by
``_auto``.  The class of a map is the representative with the same eigen
signature (``match``).  The classifier assigns component labels inside
centralizer groups by closed-form tests that conjugation does not change
(sign on the fixed line for rank 1; the cubic invariant tr(X^3) and the
action on the fixed Cartan subalgebra for rank 2), instead of any
Lie-group topology, so every conjugate of a catalog map has its invariant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import linalg
from .errors import CatalogMissError, ClassifierUnavailableError, UnknownAlgebraError
from .field import CyclotomicNumber, zeta_power
from .liealg import (
    ORDER_BOUND,
    FiniteAutomorphism,
    automorphism_order,
    builtin_algebra,
    builtin_matrices,
    eigenspace_decomposition,
    matrix_coordinates,
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    order: int
    auto: FiniteAutomorphism


_ONE, _ZERO = CyclotomicNumber.one(), CyclotomicNumber.zero()


def _auto(table, image):
    """The automorphism of the built-in ``table`` that sends each basis matrix
    m to image(m), read back in that basis; zero entries are level-4 zeros."""
    mats = builtin_matrices(table)
    cols = matrix_coordinates(mats, [image(m) for m in mats])
    return FiniteAutomorphism(builtin_algebra(table),
                              [[c or _ZERO for c in row] for row in zip(*cols)])


def _ad(p, p_inv):
    """m -> p m p^-1."""
    return lambda m: linalg.mat_mul(linalg.mat_mul(p, m), p_inv)


def _diagonal(d):
    return [[x if r == s else _ZERO for s in range(len(d))] for r, x in enumerate(d)]


def _ad_diag(*d):
    """Ad diag(d)."""
    d = [_ONE * x for x in d]
    return _ad(_diagonal(d), _diagonal([x.inverse() for x in d]))


def _ad_perm(*perm):
    """Ad P for the permutation matrix with P e_i = e_perm[i]; P^-1 is P^T."""
    p = [[_ONE if perm[s] == r else _ZERO for s in range(len(perm))] for r in range(len(perm))]
    return _ad(p, [list(col) for col in zip(*p)])


def _minus_transpose(m):
    """m -> -m^T, the Cartan involution of sl(n)."""
    return [[-x for x in col] for col in zip(*m)]


def _cubic_trace(x):
    """tr(M^3) for the matrix M of the sl3C element x."""
    terms = [(c, b) for c, b in zip(x.coords, builtin_matrices("sl3C")) if c]
    m = [[sum((c * b[r][s] for c, b in terms), _ZERO) for s in range(3)] for r in range(3)]
    cube = linalg.mat_mul(linalg.mat_mul(m, m), m)
    return cube[0][0] + cube[1][1] + cube[2][2]


class Catalog:
    """Catalog plus component classifier for one built-in complex algebra."""

    def __init__(self, algebra_name):
        if algebra_name == "sl2C":
            self.rank = 1
            specs = [("id", 1, _ad_diag(1, 1)), ("tau", 2, _ad_diag(1, -1)),
                     ("mu", 2, _minus_transpose)]
            specs += [(f"r{n}", n, _ad_diag(zeta_power(n, 1), 1)) for n in (3, 4, 6)]
            self.rho_rep_names = ("id", "mu", "r3", "r4", "r6")
        elif algebra_name == "sl3C":
            self.rank = 2
            z3 = zeta_power(3, 1)
            specs = [("id", 1, _ad_diag(1, 1, 1)), ("theta", 2, _ad_diag(1, 1, -1)),
                     ("mu", 2, _minus_transpose), ("r3", 3, _ad_diag(1, z3, z3 * z3)),
                     ("rot", 3, _ad_perm(1, 2, 0))]  # the 3-cycle 0 -> 1 -> 2 -> 0
            self.rho_rep_names = ("id", "theta", "mu", "r3")
        else:
            raise UnknownAlgebraError(f"no catalog for {algebra_name!r}")
        self.entries = {name: CatalogEntry(name, order, _auto(algebra_name, image))
                        for name, order, image in specs}
        self.algebra_name = algebra_name
        self.algebra = builtin_algebra(algebra_name)
        self._omega = FiniteAutomorphism(self.algebra, self.named("mu").matrix, antilinear=True)

    # -- plain lookups -----------------------------------------------------

    def named(self, name):
        try:
            return self.entries[name].auto
        except KeyError:
            raise CatalogMissError(f"no catalog automorphism named {name!r}") from None

    def names(self):
        return list(self.entries)

    def name_of(self, auto):
        """Name of the catalog entry equal to ``auto``, or None."""
        for entry in self.entries.values():
            if entry.auto == auto:
                return entry.name
        return None

    def omega(self):
        """Conjugation with respect to the standard compact real form."""
        return self._omega

    def involutions(self):
        """Names of the order-2 entries, in catalog order."""
        return [name for name, entry in self.entries.items() if entry.order == 2]

    def rho_reps(self, order):
        """Designated conjugacy-class representatives of the given order."""
        return [self.entries[n] for n in self.rho_rep_names if self.entries[n].order == order]

    def first_kind_triples(self, q):
        """Every first-kind invariant (p, rho, beta label) of order q: p in
        [0, q/2], rho a representative of order gcd(p, q), and the labels of
        rho's component classes that name a catalog entry."""
        return [(p, entry.name, label)
                for p in range(q // 2 + 1)
                for entry in self.rho_reps(math.gcd(p, q))
                for label in self.component_labels(entry.name) if label in self.entries]

    def second_kind_pairs(self):
        """Involution pairs (plus, minus) up to the generated relation: every
        unordered pair of representatives of order <= 2, equal pairs first."""
        invs = [n for n in self.rho_rep_names if self.entries[n].order <= 2]
        return [(a, a) for a in invs] + [(b, a) for i, a in enumerate(invs) for b in invs[i + 1:]]

    # -- component classifier ----------------------------------------------

    def component_labels(self, rho_name):
        """Every label ``component_class`` can return for the named rho: the
        identity component first, an outer class last.

        Each label names the catalog entry that represents its class, except
        the outer class of r3 on rank 2, which has no representative.  On
        rank 1 the nontrivial component of the centralizer of an involution
        swaps its two off-axis eigenlines; the involution itself sits in the
        identity component, so the swap class is represented by the other
        involution.  On rank 2 the outer involution mu represents the outer
        class of each order <= 2 representative, and the rotation the inner
        class of r3 that moves its fixed Cartan subalgebra.
        """
        if self.rank == 2 and rho_name not in self.rho_rep_names:
            raise ClassifierUnavailableError(f"no pi0 data for rho={rho_name!r}")
        order = self.entries[rho_name].order
        if self.rank == 1:
            others = [name for name in self.involutions() if name != rho_name] if order == 2 else []
        else:
            others = ["mu"] if order <= 2 else ["rot", "out"]
        return ["id", *others]

    def component_class(self, rho_class, beta, rho=None):
        """Label of the component of beta inside the centralizer of rho: the
        element of ``component_labels`` that the closed-form tests pick.

        ``rho_class`` is the catalog name of rho's class and ``rho`` the map
        itself, the representative when omitted.  The tests read rho itself
        and never a representative, so conjugating rho and beta together
        keeps the label.  Rank 1: beta's sign on the fixed line of an
        involution rho.  Rank 2: beta is inner exactly when
        tr(beta(X)^3) = tr(X^3) for X = diag(1, 1, -2), outer maps negating
        this cubic invariant; an inner beta centralizing an order-3 rho is in
        the identity component exactly when it fixes the fixed subalgebra of
        rho (a Cartan subalgebra) pointwise.
        """
        labels = self.component_labels(rho_class)
        if rho is None:
            rho = self.named(rho_class)
        if self.rank == 1:
            if len(labels) == 1:
                return labels[0]
            # beta swaps the two off-axis eigenlines of the involution rho
            # exactly when it acts by -1 on the one-dimensional fixed line
            fixed = eigenspace_decomposition(rho, order=2).get(0, ())
            if len(fixed) != 1:
                raise ClassifierUnavailableError("unexpected fixed space for an order-2 map")
            w = beta.apply(fixed[0])
            if w == fixed[0]:
                return labels[0]
            if w == -fixed[0]:
                return labels[1]
            raise ClassifierUnavailableError("map does not centralize rho")
        if beta.compose(rho) != rho.compose(beta):
            raise ClassifierUnavailableError("map does not centralize rho")
        x = self.algebra.element([0] * 6 + [1, 2])  # diag(1, 1, -2) = h_0 + 2 h_1
        cubic, image = _cubic_trace(x), _cubic_trace(beta.apply(x))
        if image == -cubic:
            return labels[-1]
        if image != cubic:
            raise ClassifierUnavailableError("map does not preserve the cubic invariant up to sign")
        if len(labels) == 3 and any(beta.apply(v) != v
                                    for v in eigenspace_decomposition(rho, order=3)[0]):
            return labels[1]
        return labels[0]

    # -- conjugacy at catalog scope ------------------------------------------

    def eigen_signature(self, auto, bound=ORDER_BOUND):
        """(order, eigenspace dimensions by exponent); raises CatalogMissError
        when the map has no finite order within the bound."""
        order = automorphism_order(auto, bound)
        if order is None:
            raise CatalogMissError("map has no finite order within the bound")
        eig = eigenspace_decomposition(auto, order=order)
        return (order, tuple((k, len(basis)) for k, basis in eig.items()))

    def conjugate_in_aut(self, a, b, bound=ORDER_BOUND):
        """Conjugacy test, complete for the finite orders in the catalog."""
        if a == b:
            return True
        if a.antilinear != b.antilinear:
            return False
        if a.antilinear:
            raise ClassifierUnavailableError("antilinear conjugacy is decided only by equality")
        return self.eigen_signature(a, bound) == self.eigen_signature(b, bound)

    def match(self, auto, bound=ORDER_BOUND):
        """The representative of auto's conjugacy class.

        A representative equal to auto is its own class; otherwise the class
        is the representative with auto's ``eigen_signature``.  At the
        catalog's orders an equal signature means conjugate.  On sl2C every
        automorphism is Ad g, and Ad g of order n is conjugate to
        Ad diag(zeta_n^k, 1), whose class the exponents +-k fix.  On sl3C the
        inner involutions form one class (fixed dimension 4), the inner maps
        of order 3 two classes (fixed dimensions 4 and 2), and the outer
        involutions one class (so3, fixed dimension 3).
        """
        for name in self.rho_rep_names:
            if self.entries[name].auto == auto:
                return self.entries[name]
        name = self._rep_of_signature.get(self.eigen_signature(auto, bound))
        if name is None:
            raise CatalogMissError("no catalog representative matches the map")
        return self.entries[name]

    @functools.cached_property
    def _rep_of_signature(self):
        """{eigen signature: name} over the representatives, built on the
        first match that is not an equality."""
        table = {}
        for name in self.rho_rep_names:
            sig = self.eigen_signature(self.entries[name].auto)
            if sig in table:
                raise ValueError(f"representatives {table[sig]!r} and {name!r} share a signature")
            table[sig] = name
        return table


@functools.cache
def catalog_for(algebra_name):
    return Catalog(algebra_name)
