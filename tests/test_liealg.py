import random
from fractions import Fraction

import pytest

from kmforge.catalog import catalog_for
from kmforge.errors import AlgebraMismatchError, NotFiniteOrderError, UnknownAlgebraError
from kmforge.field import CyclotomicNumber, imaginary_unit
from kmforge.liealg import (
    FiniteAutomorphism,
    LieAlgebraTable,
    ad_matrix,
    automorphism_order,
    bracket,
    builtin_algebra,
    check_automorphism,
    eigenspace_decomposition,
    exp_ad,
    exp_curve,
    fixed_subalgebra,
    killing_form,
)

SL2 = builtin_algebra("sl2C")
E, H, F = SL2.basis_element(0), SL2.basis_element(1), SL2.basis_element(2)


def _rand_element(rng, alg, level=4):
    return alg.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(alg.dim)])


def test_sl2_structure():
    assert bracket(H, E) == 2 * E
    assert bracket(H, F) == -2 * F
    assert bracket(E, F) == H


def test_bracket_of_element_with_itself_vanishes():
    rng = random.Random(1)
    for _ in range(10):
        x = _rand_element(rng, SL2)
        assert not bracket(x, x)


def test_killing_form_sl2():
    assert killing_form(H, H) == 8
    assert killing_form(E, E) == 0
    assert killing_form(E, F) == 4
    assert killing_form(H, E) == 0


def test_killing_symmetry_and_invariance():
    rng = random.Random(2)
    for _ in range(10):
        x, y, z = (_rand_element(rng, SL2) for _ in range(3))
        assert killing_form(x, y) == killing_form(y, x)
        assert killing_form(bracket(z, x), y) + killing_form(x, bracket(z, y)) == 0


def test_su2_is_compact():
    su2 = builtin_algebra("su2")
    assert su2.compact_flag
    assert su2.base_field_tag == "real"
    assert su2.killing[0][0] < 0
    for i in range(3):
        for j in range(3):
            assert su2.killing[i][j] == (Fraction(-8) if i == j else 0)


def test_sl3_and_su3_tables_validate():
    sl3 = builtin_algebra("sl3C")
    su3 = builtin_algebra("su3")
    assert sl3.dim == 8 and su3.dim == 8
    assert su3.compact_flag


def test_unknown_algebra():
    with pytest.raises(UnknownAlgebraError):
        builtin_algebra("g2")


def test_algebra_mismatch():
    su2 = builtin_algebra("su2")
    with pytest.raises(AlgebraMismatchError):
        bracket(E, su2.basis_element(0))


def test_tau_is_automorphism():
    tau = catalog_for("sl2C").named("tau")
    assert check_automorphism(tau)
    assert tau.apply(E) == -E
    assert tau.apply(H) == H


def test_identity_is_automorphism():
    assert check_automorphism(FiniteAutomorphism.identity(SL2))


def test_non_automorphism_detected():
    # e -> e, h -> 2h, f -> f violates [h,e] = 2e
    bad = FiniteAutomorphism(SL2, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert not check_automorphism(bad)


def test_orders_of_named_automorphisms():
    cat = catalog_for("sl2C")
    assert automorphism_order(cat.named("tau")) == 2
    assert automorphism_order(cat.named("mu")) == 2
    assert automorphism_order(cat.named("r3")) == 3
    assert automorphism_order(cat.named("r6")) == 6
    assert automorphism_order(cat.omega()) == 2


def test_order_exceeding_bound_reports_none():
    # two incommensurate rotation speeds: orders 5 and 12 give order 60 > 48
    sl3 = builtin_algebra("sl3C")
    i = imaginary_unit()
    # X = i*diag(x1,x2,x3), x1-x2 = 1/5, x2-x3 = 1/12, traceless
    x1 = (2 * Fraction(1, 5) + Fraction(1, 12)) / 3
    x2 = x1 - Fraction(1, 5)
    x3 = x2 - Fraction(1, 12)
    assert x1 + x2 + x3 == 0
    # diag(x1,x2,x3) = x1*H1 + (-x3)*H2
    coords = [CyclotomicNumber.zero() for _ in range(8)]
    coords[6] = i * x1
    coords[7] = i * (-x3)
    X = sl3.element(coords)
    qs = [Fraction(0), Fraction(1, 5), -Fraction(1, 5), Fraction(1, 12), -Fraction(1, 12),
          Fraction(1, 5) + Fraction(1, 12), -(Fraction(1, 5) + Fraction(1, 12))]
    curve = exp_curve(X, qs)
    auto = exp_ad(curve, Fraction(1))
    assert automorphism_order(auto, 48) is None
    assert automorphism_order(auto, 60) == 60


def test_eigenspace_decomposition_tau():
    tau = catalog_for("sl2C").named("tau")
    eig = eigenspace_decomposition(tau, order=2)
    by_val = {(-1) ** k: basis for k, basis in eig.items()}
    assert len(by_val[1]) == 1 and by_val[1][0] == H
    assert len(by_val[-1]) == 2


def test_eigenspace_decomposition_identity():
    eig = eigenspace_decomposition(FiniteAutomorphism.identity(SL2), order=1)
    assert len(eig) == 1
    assert len(eig[0]) == 3


def test_eigenspace_decomposition_r3_on_sl3():
    r3 = catalog_for("sl3C").named("r3")
    eig = eigenspace_decomposition(r3, order=3)
    dims = {k: len(basis) for k, basis in eig.items()}
    assert dims == {0: 2, 1: 3, 2: 3}


def test_eigenspace_requires_linear():
    omega = catalog_for("sl2C").omega()
    with pytest.raises(NotFiniteOrderError):
        eigenspace_decomposition(omega, order=2)


def _half_h_curve():
    i = imaginary_unit()
    X = SL2.element([0, i * Fraction(1, 2), 0])
    return exp_curve(X, [Fraction(1), Fraction(0), Fraction(-1)])


def test_exp_ad_at_zero_is_identity():
    assert exp_ad(_half_h_curve(), Fraction(0)).is_identity()


def test_exp_ad_full_turn_is_identity():
    assert exp_ad(_half_h_curve(), Fraction(1)).is_identity()


def test_exp_ad_half_turn_equals_tau():
    tau = catalog_for("sl2C").named("tau")
    assert exp_ad(_half_h_curve(), Fraction(1, 2)) == tau


def test_exp_ad_translation_property():
    i = imaginary_unit()
    X = SL2.element([0, i * Fraction(1, 4), 0])
    curve = exp_curve(X, [Fraction(1, 2), Fraction(0), Fraction(-1, 2)])
    period = exp_ad(curve, Fraction(1))
    for s in (Fraction(1, 3), Fraction(2, 5)):
        lhs = exp_ad(curve, s + 1)
        rhs = exp_ad(curve, s).compose(period)
        assert lhs == rhs


def test_exp_curve_validates_grading():
    data = _half_h_curve()
    qs = sorted(q for q, _ in data.eigenpairs)
    assert qs == [Fraction(-1), Fraction(0), Fraction(1)]


def test_fixed_subalgebra_of_antilinear_involution_is_split_form():
    cat = catalog_for("sl2C")
    omega_mu = cat.omega().compose(cat.named("mu"))
    basis = fixed_subalgebra(omega_mu)
    assert len(basis) == 3  # sl(2,R) has real dimension 3
    for b in basis:
        for c in b.coords:
            assert c.conj() == c  # real coordinates in the (e,h,f) basis


def test_fixed_subalgebra_identity_and_tau():
    assert len(fixed_subalgebra(FiniteAutomorphism.identity(SL2))) == 3
    tau_fixed = fixed_subalgebra(catalog_for("sl2C").named("tau"))
    assert len(tau_fixed) == 1
    assert tau_fixed[0].coords[0] == 0 and tau_fixed[0].coords[2] == 0


def test_bracket_preservation_of_catalog_automorphisms():
    for name in ("sl2C", "sl3C"):
        cat = catalog_for(name)
        for entry_name in cat.names():
            assert check_automorphism(cat.named(entry_name)), entry_name
        assert check_automorphism(cat.omega())


def test_ad_matrix_consistency():
    rng = random.Random(9)
    for _ in range(5):
        x = _rand_element(rng, SL2)
        y = _rand_element(rng, SL2)
        from kmforge import linalg

        img = linalg.mat_vec(ad_matrix(x), list(y.coords))
        assert SL2.element(img) == bracket(x, y)


def test_degenerate_killing_form_is_rejected():
    abelian = (((Fraction(0),),),)
    with pytest.raises(ValueError, match="degenerate"):
        LieAlgebraTable("abelian1", abelian, ("x",), "complex", False)


def test_indefinite_killing_form_cannot_be_flagged_compact():
    with pytest.raises(ValueError, match="negative definite"):
        LieAlgebraTable("sl2C", SL2.structure, SL2.basis_names, "complex", True)
