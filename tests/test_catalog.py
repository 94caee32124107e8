from fractions import Fraction

import pytest

from kmforge.catalog import catalog_for
from kmforge.errors import CatalogMissError, ClassifierUnavailableError
from kmforge.field import imaginary_unit, zeta_power
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
    with pytest.raises(ClassifierUnavailableError):
        A1.component_class("mu", A1.named("r4"))  # r4 does not centralize mu


def test_a2_innerness():
    assert A2.component_class("id", A2.named("id")) == "id"
    assert A2.component_class("id", A2.named("r3")) == "id"
    assert A2.component_class("id", A2.named("rot")) == "id"
    assert A2.component_class("id", A2.named("mu")) == "mu"
    assert A2.component_class("theta", A2.named("mu")) == "mu"
    assert A2.component_class("r3", A2.named("rot")) == "rot"
    assert A2.component_class("r3", A2.named("id")) == "id"


def test_match_exact_and_conjugated():
    entry, alpha = A1.match(A1.named("mu"))
    assert entry.name == "mu" and alpha.is_identity()
    # tau is conjugate to the designated order-2 representative
    entry, alpha = A1.match(A1.named("tau"))
    assert entry.name == "mu"
    assert alpha.compose(entry.auto).compose(alpha.inverse()) == A1.named("tau")


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


def test_omega_is_antilinear_involution():
    for cat in (A1, A2):
        om = cat.omega()
        assert om.antilinear
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


def test_component_labels_are_exactly_what_the_classifier_returns():
    # the conjugator family holds the outer centralizer elements of r3 on sl3C
    for cat in (A1, A2):
        for rho in cat.rho_rep_names:
            seen = set()
            for beta in cat._conjugators:
                try:
                    seen.add(cat.component_class(rho, beta))
                except ClassifierUnavailableError:
                    pass
            assert seen == set(cat.component_labels(rho))


def test_a2_classifier_rejects_non_centralizing():
    with pytest.raises(ClassifierUnavailableError):
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
