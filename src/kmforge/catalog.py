"""Catalogs of automorphism representatives and component classifiers.

Built-ins cover the rank-1 and rank-2 special linear algebras.  Catalog
representatives are the automorphisms that may appear in classification
invariants.  Each is stated by its defining map on matrices (Ad of a diagonal
or permutation matrix, or m -> -m^T) and read back in the table's basis by
``_auto``.  The classifier assigns component labels inside centralizer
groups, using closed-form tests (sign on a fixed line for rank 1, root-line
permutations for rank 2) instead of any Lie-group topology.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import linalg
from .errors import CatalogMissError, ClassifierUnavailableError, UnknownAlgebraError
from .field import CyclotomicNumber, imaginary_unit, zeta_power
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


_A2_ROOT_PAIRS = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]


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
        class of r3 that moves the root lines.
        """
        if self.rank == 2 and rho_name not in self.rho_rep_names:
            raise ClassifierUnavailableError(f"no pi0 data for rho={rho_name!r}")
        order = self.entries[rho_name].order
        if self.rank == 1:
            others = [name for name in self.involutions() if name != rho_name] if order == 2 else []
        else:
            others = ["mu"] if order <= 2 else ["rot", "out"]
        return ["id", *others]

    def component_class(self, rho_name, beta):
        """Label of the component of beta inside the centralizer of rho: the
        element of ``component_labels(rho_name)`` that the closed-form tests
        pick."""
        if self.rank == 1:
            return self._a1_sign_label(rho_name, beta)
        rho = self.entries[rho_name].auto
        if beta.compose(rho) != rho.compose(beta):
            raise ClassifierUnavailableError("map does not centralize the representative")
        perm = self._a2_root_permutation(beta)
        inner = self._a2_is_inner(perm)
        labels = self.component_labels(rho_name)
        if not inner:
            return labels[-1]
        return labels[1] if len(labels) == 3 and perm != list(range(6)) else labels[0]

    def _a1_sign_label(self, rho_name, beta):
        labels = self.component_labels(rho_name)
        if len(labels) == 1:
            return labels[0]
        # beta swaps the two off-axis eigenlines of the involution rho exactly
        # when it acts by -1 on the one-dimensional fixed line
        fixed = eigenspace_decomposition(self.entries[rho_name].auto, order=2).get(0, ())
        if len(fixed) != 1:
            raise ClassifierUnavailableError("unexpected fixed space for an order-2 map")
        v = fixed[0]
        w = beta.apply(v)
        if w == v:
            return labels[0]
        if w == -v:
            return labels[1]
        raise ClassifierUnavailableError("map does not centralize the representative")

    def _a2_root_permutation(self, beta):
        g = self.algebra
        for idx in (6, 7):
            img = beta.apply(g.basis_element(idx))
            if any(img.coords[r] for r in range(6)):
                raise ClassifierUnavailableError("map does not preserve the diagonal Cartan")
        perm = []
        for r in range(6):
            img = beta.apply(g.basis_element(r))
            hits = [k for k in range(8) if img.coords[k]]
            if len(hits) != 1 or hits[0] > 5:
                raise ClassifierUnavailableError("map does not permute the root lines")
            perm.append(hits[0])
        return perm

    def _a2_is_inner(self, perm):
        pair_index = {p: i for i, p in enumerate(_A2_ROOT_PAIRS)}
        for pi in itertools.permutations(range(3)):
            weyl = [pair_index[(pi[i], pi[j])] for (i, j) in _A2_ROOT_PAIRS]
            if perm == weyl:
                return True
            negated = [pair_index[(pi[j], pi[i])] for (i, j) in _A2_ROOT_PAIRS]
            if perm == negated:
                return False
        raise ClassifierUnavailableError("root permutation is not a diagram symmetry")

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
        """(entry, conjugator) with conjugator * entry * conjugator^{-1} = auto.

        Exact matches against the designated representatives come first; the
        fallback searches a structured conjugator family that covers the
        built-in catalogs (torus elements, diagram permutations, and the
        bridge between the diagonal and rotation pictures of an involution).
        """
        for name in self.rho_rep_names:
            if self.entries[name].auto == auto:
                return self.entries[name], FiniteAutomorphism.identity(self.algebra)
        sig = self.eigen_signature(auto, bound)
        for name in self.rho_rep_names:
            entry = self.entries[name]
            if entry.order != sig[0] or self.eigen_signature(entry.auto, bound) != sig:
                continue
            for cand in self._conjugators:
                if cand.compose(entry.auto).compose(cand.inverse()) == auto:
                    return entry, cand
        raise CatalogMissError("no catalog representative matches the map")

    @functools.cached_property
    def _conjugators(self):
        base = [e.auto for e in self.entries.values()]
        if self.rank == 1:
            # Ad of the eigenvector matrix of the rotation picture: carries
            # the diagonal involution to the rotation involution
            i = imaginary_unit()
            p = [[_ONE, _ONE], [i, -i]]
            bridge = _auto("sl2C", _ad(p, linalg.invert(p)))
            base += [bridge, bridge.inverse()]
        else:
            base += [_auto("sl3C", _ad_perm(*perm)) for perm in itertools.permutations(range(3))]
        out = list(base)
        for a, b in itertools.product(base, base):
            out.append(a.compose(b))
        return out


@functools.cache
def catalog_for(algebra_name):
    return Catalog(algebra_name)
