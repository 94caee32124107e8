"""Catalogs of automorphism representatives and component classifiers.

Built-ins cover the rank-1 and rank-2 special linear algebras.  Catalog
representatives are the automorphisms that may appear in classification
invariants; the classifier assigns component labels inside centralizer
groups, using closed-form tests (sign on a fixed line for rank 1, root-line
permutations for rank 2) instead of any Lie-group topology.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CatalogMissError, ClassifierUnavailableError, UnknownAlgebraError
from .field import CyclotomicNumber, zeta_power
from .liealg import (
    FiniteAutomorphism,
    automorphism_order,
    builtin_algebra,
    eigenspace_decomposition,
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    order: int
    auto: FiniteAutomorphism


def _diag_auto(algebra, scalars):
    d = algebra.dim
    rows = [[scalars[i] if i == j else 0 for j in range(d)] for i in range(d)]
    return FiniteAutomorphism(algebra, rows)


def _images_auto(algebra, images):
    cols = []
    for tgt, coeff in images:
        idx = algebra.basis_names.index(tgt)
        col = [CyclotomicNumber.zero() for _ in range(algebra.dim)]
        col[idx] = coeff if isinstance(coeff, CyclotomicNumber) else CyclotomicNumber.from_rational(Fraction(coeff))
        cols.append(col)
    rows = [[cols[j][i] for j in range(algebra.dim)] for i in range(algebra.dim)]
    return FiniteAutomorphism(algebra, rows)


@functools.cache
def _catalog_a1():
    g = builtin_algebra("sl2C")
    one = CyclotomicNumber.one()
    entries = {}

    def add(name, order, auto):
        entries[name] = CatalogEntry(name, order, auto)

    add("id", 1, FiniteAutomorphism.identity(g))
    # tau = Ad diag(1,-1): e -> -e, h -> h, f -> -f
    add("tau", 2, _diag_auto(g, [-one, one, -one]))
    # mu: A -> -A^t, i.e. e -> -f, h -> -h, f -> -e
    add("mu", 2, _images_auto(g, [("f", -1), ("h", -1), ("e", -1)]))
    for n in (3, 4, 6):
        z = zeta_power(n, 1)
        add(f"r{n}", n, _diag_auto(g, [z, one.lift(z.level), z.inverse()]))
    return entries


@functools.cache
def _catalog_a2():
    g = builtin_algebra("sl3C")
    one = CyclotomicNumber.one()
    entries = {}

    def add(name, order, auto):
        entries[name] = CatalogEntry(name, order, auto)

    def ad_diag(dvals):
        # basis order: e12 e13 e23 e21 e31 e32 h1 h2
        pairs = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
        scal = [dvals[i] * dvals[j].inverse() for (i, j) in pairs] + [one.lift(dvals[0].level)] * 2
        return _diag_auto(g, scal)

    add("id", 1, FiniteAutomorphism.identity(g))
    add("theta", 2, ad_diag([one, one, -one]))
    # mu: A -> -A^t swaps e_ij with -e_ji and negates the Cartan
    add("mu", 2, _images_auto(
        g,
        [("e21", -1), ("e31", -1), ("e32", -1), ("e12", -1), ("e13", -1), ("e23", -1),
         ("h1", -1), ("h2", -1)]))
    z3 = zeta_power(3, 1)
    add("r3", 3, ad_diag([one.lift(z3.level), z3, z3 * z3]))
    # rot: Ad of the 3-cycle permutation matrix (0 -> 1 -> 2 -> 0)
    add("rot", 3, _perm_ad(g, {0: 1, 1: 2, 2: 0}))
    return entries


def _perm_ad(g, perm):
    """Ad of a permutation matrix on the rank-2 table."""
    cols = {name: idx for idx, name in enumerate(g.basis_names)}
    name_of = {(0, 1): "e12", (0, 2): "e13", (1, 2): "e23",
               (1, 0): "e21", (2, 0): "e31", (2, 1): "e32"}
    diag_diff = {  # E_aa - E_bb in the (h1, h2) coordinates
        (0, 1): (1, 0), (1, 2): (0, 1), (0, 2): (1, 1),
        (1, 0): (-1, 0), (2, 1): (0, -1), (2, 0): (-1, -1),
    }
    rows = [[CyclotomicNumber.zero() for _ in range(8)] for _ in range(8)]
    for src, (i, j) in enumerate(_A2_ROOT_PAIRS):
        rows[cols[name_of[(perm[i], perm[j])]]][src] = CyclotomicNumber.one()
    for src, (i, j) in ((6, (0, 1)), (7, (1, 2))):
        c1, c2 = diag_diff[(perm[i], perm[j])]
        rows[6][src] = CyclotomicNumber.from_rational(c1)
        rows[7][src] = CyclotomicNumber.from_rational(c2)
    return FiniteAutomorphism(g, rows)


def _gl2_ad(gmat):
    """Ad of an invertible 2x2 matrix on the (e, h, f) basis of sl2C."""
    g = builtin_algebra("sl2C")
    inv = linalg.invert(gmat)
    basis = {
        "e": [[CyclotomicNumber.zero(), CyclotomicNumber.one()],
              [CyclotomicNumber.zero(), CyclotomicNumber.zero()]],
        "h": [[CyclotomicNumber.one(), CyclotomicNumber.zero()],
              [CyclotomicNumber.zero(), CyclotomicNumber.from_rational(-1)]],
        "f": [[CyclotomicNumber.zero(), CyclotomicNumber.zero()],
              [CyclotomicNumber.one(), CyclotomicNumber.zero()]],
    }
    cols = []
    for name in ("e", "h", "f"):
        m = linalg.mat_mul(linalg.mat_mul(gmat, basis[name]), inv)
        # traceless [[p, q], [r, -p]] has coordinates (q, p, r) in (e, h, f)
        cols.append((m[0][1], m[0][0], m[1][0]))
    rows = [[cols[j][i] for j in range(3)] for i in range(3)]
    return FiniteAutomorphism(g, rows)


_A2_ROOT_PAIRS = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]


class Catalog:
    """Catalog plus component classifier for one built-in complex algebra."""

    def __init__(self, algebra_name):
        if algebra_name == "sl2C":
            self.entries = _catalog_a1()
            self.rank = 1
            self.rho_rep_names = ("id", "mu", "r3", "r4", "r6")
        elif algebra_name == "sl3C":
            self.entries = _catalog_a2()
            self.rank = 2
            self.rho_rep_names = ("id", "theta", "mu", "r3")
        else:
            raise UnknownAlgebraError(f"no catalog for {algebra_name!r}")
        self.algebra_name = algebra_name
        self.algebra = builtin_algebra(algebra_name)

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
        mu = self.named("mu")
        return FiniteAutomorphism(self.algebra, mu.matrix, antilinear=True)

    def rho_reps(self, order):
        """Designated conjugacy-class representatives of the given order."""
        return [self.entries[n] for n in self.rho_rep_names if self.entries[n].order == order]

    def involution_rhos(self):
        if self.rank == 1:
            return [self.entries["mu"]]
        return [self.entries["theta"], self.entries["mu"]]

    def outer_class_reps(self):
        """Representatives of pi0(Aut g), used by period-halving involutions."""
        if self.rank == 1:
            return [("id", self.named("id"))]
        return [("id", self.named("id")), ("mu", self.named("mu"))]

    def second_kind_pairs(self):
        """Involution pairs (plus, minus) up to the generated relation."""
        if self.rank == 1:
            return [("id", "id"), ("mu", "mu"), ("mu", "id")]
        return [("id", "id"), ("theta", "theta"), ("mu", "mu"),
                ("theta", "id"), ("mu", "id"), ("mu", "theta")]

    # -- component classifier ----------------------------------------------

    def pi0_class_reps(self, rho_name):
        """(label, representative) pairs for the component classes of the
        centralizer of the named catalog automorphism.

        The nontrivial component of the centralizer of an order-2 map swaps
        its two off-axis eigenlines; the map itself sits in the identity
        component, so the swap class is represented by the other involution.
        """
        if self.rank == 1:
            if rho_name == "id" or self.entries[rho_name].order >= 3:
                return [("id", self.named("id"))]
            if rho_name == "mu":
                return [("id", self.named("id")), ("tau", self.named("tau"))]
            if rho_name == "tau":
                return [("id", self.named("id")), ("mu", self.named("mu"))]
        else:
            if rho_name in ("id", "theta", "mu"):
                return [("id", self.named("id")), ("mu", self.named("mu"))]
            if rho_name == "r3":
                return [("id", self.named("id")), ("rot", self.named("rot"))]
        raise ClassifierUnavailableError(f"no pi0 data for rho={rho_name!r}")

    def component_class(self, rho_name, beta):
        """Label of the component of beta inside the centralizer of rho."""
        if self.rank == 1:
            rho = self.entries[rho_name]
            if rho.order == 1 or rho.order >= 3:
                return "id"
            swap_label = "tau" if rho_name == "mu" else "mu"
            return self._a1_sign_label(rho.auto, beta, swap_label)
        rho = self.entries[rho_name]
        if beta.compose(rho.auto) != rho.auto.compose(beta):
            raise ClassifierUnavailableError("map does not centralize the representative")
        inner = self._a2_is_inner(beta)
        if rho_name in ("id", "theta", "mu"):
            return "id" if inner else "mu"
        if rho_name == "r3":
            if not inner:
                return "out"
            perm = self._a2_root_permutation(beta)
            return "id" if perm == list(range(6)) else "rot"
        raise ClassifierUnavailableError(f"no classifier for rho={rho_name!r}")

    def _a1_sign_label(self, rho, beta, swap_label):
        # beta swaps the two off-axis eigenlines of rho exactly when it acts
        # by -1 on the one-dimensional fixed line
        fixed = eigenspace_decomposition(rho, order=2).get(0, ())
        if len(fixed) != 1:
            raise ClassifierUnavailableError("unexpected fixed space for an order-2 map")
        v = fixed[0]
        w = beta.apply(v)
        if w == v:
            return "id"
        if w == -v:
            return swap_label
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

    def _a2_is_inner(self, beta):
        perm = self._a2_root_permutation(beta)
        pair_index = {p: i for i, p in enumerate(_A2_ROOT_PAIRS)}
        for pi in itertools.permutations(range(3)):
            weyl = [pair_index[(pi[i], pi[j])] for (i, j) in _A2_ROOT_PAIRS]
            if perm == weyl:
                return True
            negated = [pair_index[(pi[j], pi[i])] for (i, j) in _A2_ROOT_PAIRS]
            if perm == negated:
                return False
        raise ClassifierUnavailableError("root permutation is not a diagram symmetry")

    def in_identity_component(self, square, alpha):
        """Membership of alpha in the identity component of the centralizer
        of the given square (used by second-kind equivalence)."""
        if self.rank == 1:
            order = automorphism_order(square)
            if order == 1:
                return True
            if order == 2:
                return self._a1_sign_label(square, alpha, "swap") == "id"
            return True  # centralizer of a rank-1 torus element is the torus
        if square.is_identity():
            return self._a2_is_inner(alpha)
        raise ClassifierUnavailableError("second-kind coupling beyond involutions is not catalogued")

    # -- conjugacy at catalog scope ------------------------------------------

    def eigen_signature(self, auto, bound=48):
        order = automorphism_order(auto, bound)
        if order is None:
            return None
        eig = eigenspace_decomposition(auto, order=order)
        return (order, tuple((k, len(basis)) for k, basis in eig.items()))

    def conjugate_in_aut(self, a, b, bound=48):
        """Conjugacy test, complete for the finite orders in the catalog."""
        if a == b:
            return True
        if a.antilinear != b.antilinear:
            return False
        if a.antilinear:
            raise ClassifierUnavailableError("antilinear conjugacy is decided only by equality")
        return self.eigen_signature(a, bound) == self.eigen_signature(b, bound)

    def match(self, auto, bound=48):
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
        if sig is None:
            raise CatalogMissError("map has no finite order within the bound")
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
            i = zeta_power(4, 1)
            one = CyclotomicNumber.one()
            # Ad of the eigenvector matrix of the rotation picture: carries
            # the diagonal involution to the rotation involution
            bridge = _gl2_ad([[one, one], [i, -i]])
            base += [bridge, bridge.inverse()]
        else:
            for perm in itertools.permutations(range(3)):
                base.append(_perm_ad(self.algebra, dict(enumerate(perm))))
        out = list(base)
        for a, b in itertools.product(base, base):
            out.append(a.compose(b))
        return out


@functools.cache
def catalog_for(algebra_name):
    return Catalog(algebra_name)
