from dataclasses import replace
from fractions import Fraction

import pytest

from kmforge.catalog import catalog_for
from kmforge.errors import InvalidInputError, NotApplicableError
from kmforge.field import imaginary_unit
from kmforge.invariants import FirstKindInvariant, invariants_equal
from kmforge.liealg import FiniteAutomorphism, builtin_algebra
from kmforge.loop import LoopElement, TwistContext, validate
from kmforge.realforms import (
    CartanDecomposition,
    cartan_decomposition,
    compact_real_form,
    enumerate_involutions,
    enumerate_real_forms,
    finite_order_product_check,
    fixed_point_basis,
    hat_adjunction_check,
    verify_cartan,
    verify_real_form,
)
from kmforge.standard import apply, pointwise, standard_order

SL2 = builtin_algebra("sl2C")
CAT = catalog_for("sl2C")
E, H, F = SL2.basis_element(0), SL2.basis_element(1), SL2.basis_element(2)


def test_enumerate_involutions_counts_sl2():
    assert len(enumerate_involutions("sl2C", "1a")) == 2
    assert len(enumerate_involutions("sl2C", "1b")) == 1
    assert len(enumerate_involutions("sl2C", "2")) == 3


def test_enumerated_involutions_have_order_two():
    for kind in ("1a", "1b", "2"):
        for desc in enumerate_involutions("sl2C", kind):
            assert standard_order(desc.psi) == 2


def test_1a_descriptors_match_golden_data():
    descs = enumerate_involutions("sl2C", "1a")
    datas = [d.data for d in descs]
    assert {"rho": "mu", "beta": "id"} in datas
    assert {"rho": "mu", "beta": "tau"} in datas
    # the (mu, tau) involution lives on the tau-twisted algebra
    twisted = [d for d in descs if d.data["beta"] == "tau"][0]
    assert twisted.sigma == CAT.named("tau")


def test_seven_real_forms_for_sl2():
    forms = enumerate_real_forms("sl2C")
    assert len(forms) == 7
    kinds = [f.kind for f in forms]
    assert kinds == ["compact", "1a", "1a", "1b", "2", "2", "2"]


def test_golden_invariants():
    forms = enumerate_real_forms("sl2C")
    first = [f.invariant for f in forms if f.kind in ("compact", "1a", "1b")]
    assert FirstKindInvariant("sl2C", 1, 0, "id", "id") in first
    assert FirstKindInvariant("sl2C", 2, 0, "mu", "id") in first
    assert FirstKindInvariant("sl2C", 2, 0, "mu", "tau") in first
    assert FirstKindInvariant("sl2C", 2, 1, "id", "id") in first
    second = [f.invariant for f in forms if f.kind == "2"]
    pairs = {(inv.plus_name, inv.minus_name) for inv in second}
    assert pairs == {("id", "id"), ("mu", "mu"), ("mu", "id")}


def test_real_forms_pairwise_inequivalent():
    forms = enumerate_real_forms("sl2C")
    for i in range(len(forms)):
        for j in range(len(forms)):
            assert invariants_equal(forms[i].invariant, forms[j].invariant) == (i == j)


def test_split_tags_and_adjoin_tags():
    for f in enumerate_real_forms("sl2C"):
        if f.kind == "2":
            assert f.hat_adjoin == "R(ic)+R(id)"
            assert f.split_tag == "almost_split"
        else:
            assert f.hat_adjoin == "Rc+Rd"
            assert f.split_tag == "almost_compact"


def test_compact_form_basis_at_zero():
    compact = compact_real_form("sl2C")
    basis = fixed_point_basis(compact, 0)
    assert len(basis) == 3
    theta = compact.conjugation
    for b in basis:
        assert apply(theta, b) == b


def test_kind2_untwisted_dimension_nine_at_depth_one():
    forms = enumerate_real_forms("sl2C")
    idid = [f for f in forms if f.kind == "2" and f.involution.data == {"plus": "id", "minus": "id"}][0]
    basis = fixed_point_basis(idid, 1)
    # at level 4 the rational kernel's dimension is the real dimension
    assert len(basis) == 9
    for b in basis:
        # coefficientwise membership in the compact form
        for k, x in b.terms:
            assert CAT.omega().apply(x) == x


def test_1b_form_structure():
    forms = enumerate_real_forms("sl2C")
    onebee = [f for f in forms if f.kind == "1b"][0]
    basis = fixed_point_basis(onebee, 1)
    assert len(basis) == 9
    omega = CAT.omega()
    for b in basis:
        terms = b.terms_dict()
        # u_{-k} = (-1)^k * omega(u_k): constants in the compact form,
        # odd exponents i times it
        if 0 in terms:
            assert omega.apply(terms[0]) == terms[0]
        if 1 in terms:
            assert omega.apply(terms[1]) == -1 * terms[-1]


def test_half_integer_exponents_for_twisted_kind2():
    forms = enumerate_real_forms("sl2C")
    muid = [f for f in forms if f.kind == "2" and f.involution.data == {"plus": "mu", "minus": "id"}][0]
    assert muid.context.D == 2
    basis = fixed_point_basis(muid, 2)
    assert any(1 in b.support() or -1 in b.support() for b in basis)
    # coefficient condition: values in the split form fixed by omega*mu
    omega_mu = CAT.omega().compose(CAT.named("mu"))
    for b in basis:
        for k, x in b.terms:
            assert omega_mu.apply(x) == x


def test_verify_real_forms_small_truncation():
    for f in enumerate_real_forms("sl2C"):
        report = verify_real_form(f, 2)
        assert report["passed"], report


def test_a_conjugation_that_breaks_the_bracket_fails_closure():
    # diag(1, -1, 1) after complex conjugation is an antilinear involution of
    # sl2C but no automorphism: it fixes e and f, not h = [e, f]
    compact = compact_real_form("sl2C")
    ctx = compact.context
    base = FiniteAutomorphism(SL2, [[1, 0, 0], [0, -1, 0], [0, 0, 1]], antilinear=True)
    bad = replace(compact, conjugation=pointwise(ctx, base))
    assert standard_order(bad.conjugation) == 2
    report = verify_real_form(bad, 1)
    assert not report["bracket_closed"]
    # the first failing pair of 27: e and i*h, whose bracket -2i*e goes to 2i*e
    assert report["closure_witness"] == (0, 1)
    basis = fixed_point_basis(bad, 1)
    assert [x.terms for x in basis[:2]] == [((0, E),), ((0, H * imaginary_unit()),)]
    assert not report["passed"]


def test_corrupted_condition_fails_twist_validation():
    # su(2)-valued coefficients on the mu-twisted lattice break the twist:
    # e - f spans the +1 eigenspace of mu but is attached to an odd exponent
    ctx = TwistContext(SL2, CAT.named("mu"), D=2)
    with pytest.raises(InvalidInputError, match="twist condition"):
        LoopElement(ctx, {1: E - F})
    assert not validate(LoopElement._trusted(ctx, {1: E - F}))


def test_cartan_split_of_split_form_constants():
    forms = enumerate_real_forms("sl2C")
    sl2r = [f for f in forms if f.invariant == FirstKindInvariant("sl2C", 2, 0, "mu", "id")][0]
    dec = cartan_decomposition(sl2r, 1)
    k_consts = [b.terms_dict()[0] for b in dec.k_basis if b.support() == [0]]
    m_consts = [b.terms_dict()[0] for b in dec.m_basis if b.support() == [0]]
    assert len(k_consts) == 1  # so(2): the span of e - f
    assert len(m_consts) == 2  # symmetric traceless part: h and e + f
    x = k_consts[0]
    assert x.coords[1] == 0 and x.coords[0] == -x.coords[2] and x


def test_cartan_inclusions_all_noncompact():
    for f in enumerate_real_forms("sl2C"):
        if f.kind == "compact":
            with pytest.raises(NotApplicableError):
                cartan_decomposition(f, 1)
            continue
        dec = cartan_decomposition(f, 2)
        report = verify_cartan(dec)
        assert report["passed"], report
        assert report["dim_k"] + report["dim_m"] == len(fixed_point_basis(f, 2))


def test_swapped_k_and_m_vectors_fail_the_halved_bracket_checks():
    # the m vector sits last in k, so only pairs (i, last) with i < last reach it
    for f in enumerate_real_forms("sl2C")[1:]:
        dec = cartan_decomposition(f, 1)
        k, m = list(dec.k_basis), list(dec.m_basis)
        k[-1], m[0] = m[0], k[-1]
        report = verify_cartan(CartanDecomposition(f, dec.N, tuple(k), tuple(m), dec.theta_c))
        assert report["kk_in_k"] is False, f.label
        assert report["passed"] is False


def test_hat_adjunction_checks():
    for f in enumerate_real_forms("sl2C"):
        report = hat_adjunction_check(f, 2)
        assert report["passed"], report


def test_finite_order_product_check():
    ident = CAT.named("id")
    mu = CAT.named("mu")
    assert finite_order_product_check(mu, mu, ident) == 1
    # mu^2 = id^2, so (h id h^{-1})^{-1} mu = mu has order 2
    assert finite_order_product_check(mu, ident, ident) == 2


def test_finite_order_product_check_unbounded():
    from kmforge.liealg import exp_ad, exp_curve

    mu = CAT.named("mu")
    i = imaginary_unit()
    X = SL2.element([0, i * Fraction(1, 2), 0])
    curve = exp_curve(X, [Fraction(1), Fraction(0), Fraction(-1)])
    h = exp_ad(curve, Fraction(1, 49))
    # (h mu h^{-1})^{-1} mu = h^{-2} has order 49 > 48
    assert finite_order_product_check(mu, mu, h, 48) is None
    assert finite_order_product_check(mu, mu, h, 49) == 49


def test_sl3_enumerations_work():
    assert len(enumerate_involutions("sl3C", "1a")) == 4
    assert len(enumerate_involutions("sl3C", "1b")) == 2
    assert len(enumerate_involutions("sl3C", "2")) == 6
    forms = enumerate_real_forms("sl3C")
    assert len(forms) == 13
    for f in forms[:3]:
        assert verify_real_form(f, 1)["passed"]


def test_1a_coefficient_condition_pairs_exponents():
    # loops in the twisted split form: u_k = (omega rho)(u_{-k}) per term
    forms = enumerate_real_forms("sl2C")
    twisted = [f for f in forms if f.invariant == FirstKindInvariant("sl2C", 2, 0, "mu", "tau")][0]
    omega_mu = CAT.omega().compose(CAT.named("mu"))
    for b in fixed_point_basis(twisted, 2):
        terms = b.terms_dict()
        for k, x in terms.items():
            partner = terms.get(-k, SL2.zero_element())
            assert omega_mu.apply(partner) == x
