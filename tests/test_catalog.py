import itertools
import json
import os
from fractions import Fraction

import pytest

from kmforge import linalg
from kmforge.catalog import _ad, _auto, catalog_for
from kmforge.errors import CatalogMissError, ClassifierUnavailableError
from kmforge.field import CyclotomicNumber, imaginary_unit, zeta_power
from kmforge.liealg import (
    FiniteAutomorphism,
    automorphism_order,
    builtin_algebra,
    check_automorphism,
    exp_ad,
    exp_curve,
)

SL2 = builtin_algebra("sl2C")
SL3 = builtin_algebra("sl3C")
A1 = catalog_for("sl2C")
A2 = catalog_for("sl3C")
E, H, F = SL2.basis_element(0), SL2.basis_element(1), SL2.basis_element(2)

with open(os.path.join(os.path.dirname(__file__), "golden_catalog.json")) as fh:
    GOLDEN = json.load(fh)


def test_catalog_orders():
    for name, order in (("id", 1), ("tau", 2), ("mu", 2), ("r3", 3), ("r4", 4), ("r6", 6)):
        assert automorphism_order(A1.named(name)) == order
    for name, order in (("id", 1), ("theta", 2), ("mu", 2), ("r3", 3), ("rot", 3)):
        assert automorphism_order(A2.named(name)) == order


def test_all_entries_are_automorphisms():
    for cat in (A1, A2):
        for name in cat.names():
            assert check_automorphism(cat.named(name)), name


def test_rho_reps_are_one_per_order():
    assert [e.name for e in A1.rho_reps(2)] == ["mu"]
    assert [e.name for e in A1.rho_reps(3)] == ["r3"]
    assert {e.name for e in A2.rho_reps(2)} == {"theta", "mu"}


def test_component_class_labels_mu():
    assert A1.component_class("mu", A1.named("id")) == "id"
    assert A1.component_class("mu", A1.named("tau")) == "tau"
    # mu centralizes itself and sits in the identity component (its rotation torus)
    assert A1.component_class("mu", A1.named("mu")) == "id"


def test_component_class_labels_tau():
    assert A1.component_class("tau", A1.named("id")) == "id"
    assert A1.component_class("tau", A1.named("mu")) == "mu"
    assert A1.component_class("tau", A1.named("tau")) == "id"
    assert A1.component_class("tau", A1.named("r4")) == "id"


def test_classifier_constant_on_torus_conjugates():
    # the label is unchanged along the identity component of the centralizer
    torus = exp_curve(E - F, [Fraction(2), Fraction(0), Fraction(-2)])
    for s in (Fraction(1, 8), Fraction(1, 3), Fraction(2, 5)):
        g = exp_ad(torus, s)
        for beta_name in ("id", "tau"):
            beta = A1.named(beta_name)
            moved = g.compose(beta).compose(g.inverse())
            assert A1.component_class("mu", moved) == A1.component_class("mu", beta)


def test_classifier_rejects_non_centralizing():
    # both ranks test rho itself, so the message names rho, not a representative;
    # r4 does not centralize mu on sl2C, nor r3 mu on sl3C
    for cat, rho, beta in ((A1, "mu", "r4"), (A2, "mu", "r3")):
        with pytest.raises(ClassifierUnavailableError, match="^map does not centralize rho$"):
            cat.component_class(rho, cat.named(beta))


def test_a2_innerness():
    assert A2.component_class("id", A2.named("id")) == "id"
    assert A2.component_class("id", A2.named("r3")) == "id"
    assert A2.component_class("id", A2.named("rot")) == "id"
    assert A2.component_class("id", A2.named("mu")) == "mu"
    assert A2.component_class("theta", A2.named("mu")) == "mu"
    assert A2.component_class("r3", A2.named("rot")) == "rot"
    assert A2.component_class("r3", A2.named("id")) == "id"


def test_match_exact_and_conjugated():
    assert A1.match(A1.named("mu")) is A1.entries["mu"]
    # tau is conjugate to the designated order-2 representative
    assert A1.match(A1.named("tau")) is A1.entries["mu"]


def test_match_miss_for_order_five():
    z5 = zeta_power(5, 1)
    auto = FiniteAutomorphism(SL2, [[z5, 0, 0], [0, 1, 0], [0, 0, z5.inverse()]])
    with pytest.raises(CatalogMissError):
        A1.match(auto)


def test_conjugacy_by_signature():
    assert A1.conjugate_in_aut(A1.named("tau"), A1.named("mu"))
    assert not A1.conjugate_in_aut(A1.named("tau"), A1.named("id"))
    assert not A2.conjugate_in_aut(A2.named("theta"), A2.named("mu"))
    assert A2.conjugate_in_aut(A2.named("r3"), A2.named("rot"))


def test_an_order_beyond_the_bound_is_a_catalog_miss():
    # theta is inner and mu outer; with no order found neither has a
    # signature, so conjugacy must not be decided by comparing two misses
    for bound in (2, 48):
        assert not A2.conjugate_in_aut(A2.named("theta"), A2.named("mu"), bound)
    with pytest.raises(CatalogMissError):
        A2.eigen_signature(A2.named("theta"), bound=1)
    with pytest.raises(CatalogMissError):
        A2.conjugate_in_aut(A2.named("theta"), A2.named("mu"), bound=1)
    with pytest.raises(CatalogMissError):
        A2.match(A2.named("mu").compose(A2.named("theta")), bound=1)


def test_omega_is_antilinear_involution():
    for cat in (A1, A2):
        om = cat.omega()
        assert om.antilinear and om.matrix == cat.named("mu").matrix
        assert cat.omega() is om  # built once, with the catalog
        assert automorphism_order(om) == 2
        assert check_automorphism(om)


def test_second_kind_pairs_have_common_squares():
    for cat in (A1, A2):
        for pn, mn in cat.second_kind_pairs():
            assert cat.named(pn).power(2) == cat.named(mn).power(2)


def test_first_kind_triples_of_order_two():
    # p = 0 gives the 1a involutions, p = 1 the period-halving 1b ones
    assert A1.first_kind_triples(2) == [(0, "mu", "id"), (0, "mu", "tau"), (1, "id", "id")]
    assert A2.first_kind_triples(2) == [
        (0, "theta", "id"), (0, "theta", "mu"), (0, "mu", "id"), (0, "mu", "mu"),
        (1, "id", "id"), (1, "id", "mu")]


# The classification data each catalog enumerates: first_kind_triples(q) for
# q = 1..6, second_kind_pairs(), and component_labels of every rho
# representative (and of sl2C's tau).
PINNED = {
    "sl2C": {
        "triples": {
            1: [(0, "id", "id")],
            2: [(0, "mu", "id"), (0, "mu", "tau"), (1, "id", "id")],
            3: [(0, "r3", "id"), (1, "id", "id")],
            4: [(0, "r4", "id"), (1, "id", "id"), (2, "mu", "id"), (2, "mu", "tau")],
            5: [(1, "id", "id"), (2, "id", "id")],
            6: [(0, "r6", "id"), (1, "id", "id"), (2, "mu", "id"), (2, "mu", "tau"),
                (3, "r3", "id")],
        },
        "pairs": [("id", "id"), ("mu", "mu"), ("mu", "id")],
        "labels": {"id": ["id"], "mu": ["id", "tau"], "r3": ["id"], "r4": ["id"],
                   "r6": ["id"], "tau": ["id", "mu"]},
    },
    "sl3C": {
        "triples": {
            1: [(0, "id", "id"), (0, "id", "mu")],
            2: [(0, "theta", "id"), (0, "theta", "mu"), (0, "mu", "id"), (0, "mu", "mu"),
                (1, "id", "id"), (1, "id", "mu")],
            3: [(0, "r3", "id"), (0, "r3", "rot"), (1, "id", "id"), (1, "id", "mu")],
            4: [(1, "id", "id"), (1, "id", "mu"), (2, "theta", "id"), (2, "theta", "mu"),
                (2, "mu", "id"), (2, "mu", "mu")],
            5: [(1, "id", "id"), (1, "id", "mu"), (2, "id", "id"), (2, "id", "mu")],
            6: [(1, "id", "id"), (1, "id", "mu"), (2, "theta", "id"), (2, "theta", "mu"),
                (2, "mu", "id"), (2, "mu", "mu"), (3, "r3", "id"), (3, "r3", "rot")],
        },
        "pairs": [("id", "id"), ("theta", "theta"), ("mu", "mu"),
                  ("theta", "id"), ("mu", "id"), ("mu", "theta")],
        "labels": {"id": ["id", "mu"], "theta": ["id", "mu"], "mu": ["id", "mu"],
                   "r3": ["id", "rot", "out"]},
    },
}


@pytest.mark.parametrize("algebra", sorted(PINNED))
def test_first_kind_triples_are_pinned(algebra):
    cat = catalog_for(algebra)
    assert {q: cat.first_kind_triples(q) for q in range(1, 7)} == PINNED[algebra]["triples"]


@pytest.mark.parametrize("algebra", sorted(PINNED))
def test_second_kind_pairs_are_pinned(algebra):
    assert catalog_for(algebra).second_kind_pairs() == PINNED[algebra]["pairs"]


@pytest.mark.parametrize("algebra", sorted(PINNED))
def test_component_labels_are_pinned(algebra):
    cat = catalog_for(algebra)
    labels = PINNED[algebra]["labels"]
    assert set(cat.rho_rep_names) <= set(labels)
    assert {rho: cat.component_labels(rho) for rho in labels} == labels


def _golden_conjugators(cat):
    """The golden conjugator family of ``tests/golden_catalog.json``: the
    catalog entries, the sl2C bridge or the six sl3C permutation maps, and
    their pairwise products, decoded from [level, numerators, denominator]."""
    def scalar(level, nums, den):
        return CyclotomicNumber(level, [Fraction(n, den) for n in nums])
    return [FiniteAutomorphism(cat.algebra, [[scalar(*x) for x in row] for row in cells])
            for cells in GOLDEN[cat.algebra_name]["conjugators"]]


def test_component_labels_are_exactly_what_the_classifier_returns():
    # the conjugator family holds the outer centralizer elements of r3 on sl3C
    for cat in (A1, A2):
        betas = _golden_conjugators(cat)
        for rho in cat.rho_rep_names:
            seen = set()
            for beta in betas:
                try:
                    seen.add(cat.component_class(rho, beta))
                except ClassifierUnavailableError:
                    pass
            assert seen == set(cat.component_labels(rho))


# An independent rank-2 classifier, kept as the oracle for component_class:
# the permutation of the root lines of a map that preserves the diagonal
# Cartan subalgebra gives innerness and the Weyl group element, but only for
# maps that permute the root lines.
_A2_ROOT_PAIRS = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]


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


def _root_permutation_label(rho_name, beta):
    rho = A2.entries[rho_name].auto
    if beta.compose(rho) != rho.compose(beta):
        raise ClassifierUnavailableError("map does not centralize the representative")
    perm = _a2_root_permutation(A2, beta)
    inner = _a2_is_inner(A2, perm)
    labels = A2.component_labels(rho_name)
    if not inner:
        return labels[-1]
    return labels[1] if len(labels) == 3 and perm != list(range(6)) else labels[0]


def _label_or_error(classify, *args):
    try:
        return classify(*args)
    except ClassifierUnavailableError:
        return ClassifierUnavailableError


def _ad3(p):
    return _auto("sl3C", _ad(p, linalg.invert(p)))


def test_a2_labels_match_the_root_permutation_oracle():
    # on every golden map (each permutes the root lines) the label, or the
    # refusal, is the oracle's; conjugating rho and beta together by a map
    # that moves the root lines keeps it
    one, zero = CyclotomicNumber.one(), CyclotomicNumber.zero()
    unipotent = _ad3([[one, one, zero], [zero, one, zero], [zero, zero, one]])
    for beta in _golden_conjugators(A2):
        moved = unipotent.compose(beta).compose(unipotent.inverse())
        for rho in A2.rho_rep_names:
            want = _label_or_error(_root_permutation_label, rho, beta)
            assert _label_or_error(A2.component_class, rho, beta) == want
            rho_moved = unipotent.compose(A2.named(rho)).compose(unipotent.inverse())
            assert _label_or_error(A2.component_class, rho, moved, rho_moved) == want


def test_a2_classifier_rejects_non_centralizing():
    with pytest.raises(ClassifierUnavailableError, match="does not centralize rho"):
        A2.component_class("theta", A2.named("rot"))


def test_a2_classifier_constant_on_inner_conjugates():
    i = imaginary_unit()
    coords = [0] * 8
    coords[6] = i * Fraction(1, 2)
    x = SL3.element(coords)
    torus = exp_curve(x, [Fraction(1), Fraction(-1), Fraction(1, 2),
                          Fraction(-1, 2), Fraction(0)])
    g = exp_ad(torus, Fraction(1, 3))
    moved = g.compose(A2.named("mu")).compose(g.inverse())
    assert A2.component_class("id", moved) == "mu"
    moved_inner = g.compose(A2.named("rot")).compose(g.inverse())
    assert A2.component_class("id", moved_inner) == "id"
