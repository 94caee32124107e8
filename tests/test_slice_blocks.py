"""Real-form slices solved per exponent block against the slice-wide solve.

``old_rational_fixed_span`` and ``old_fixed_point_basis`` are verbatim copies
of ``rational_fixed_span`` and ``fixed_point_basis`` from before the slices
were solved per exponent block (only the names differ).  ``old_membership``
is ``verify_real_form``'s closure membership from then, lifted out of the
closure loop: one rref of the degree <= 2N basis over the whole slice, then
``in_span``.  It is the oracle of the closure certificate that replaced it:
a bracket, or any rational combination of the degree <= 2N generators, is
spanned exactly when theta fixes it.  ``old_cartan_split`` is
``cartan_decomposition``'s k/m split from then: both halves solved over the
whole N basis in slice-wide coordinates.  ``linalg.rref``, ``in_span`` and
``kernel_basis`` are unchanged.

Bases are compared term by term and in order as (k, level, nums, den).  The
number of examples of the hypothesis test comes from the hypothesis profile
(``conftest.py``).
"""

import functools
import json
import math
import operator
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kmforge import cli, linalg, realforms
from kmforge.catalog import catalog_for
from kmforge.field import field_degree, imaginary_unit, zeta_power
from kmforge.invariants import realize_first, realize_second
from kmforge.loop import LoopElement, TwistContext, loop_bracket, slice_terms
from kmforge.realforms import (
    _blocks,
    _coordinates_in_slice,
    _slice_level,
    cartan_decomposition,
    compact_conjugation,
    enumerate_real_forms,
    fixed_point_basis,
    verify_real_form,
)
from kmforge.standard import apply, conjugate, pointwise, reflection, rotation
from kmforge.verify import _exp_conjugator

# -- verbatim copies of the slice-wide code -----------------------------------


def old_rational_fixed_span(gens, images, flatten, sign=1):
    if not gens:
        return []
    cols = [flatten(img - g * sign) for g, img in zip(gens, images)]
    den = math.lcm(*(d for _, d in cols))
    mat = list(zip(*[nums if d == den else [v * (den // d) for v in nums] for nums, d in cols]))
    return [functools.reduce(operator.add, (g * c for g, c in zip(gens, v) if c))
            for v in linalg.kernel_basis(mat, Fraction(0), Fraction(1))]


def old_fixed_point_basis(desc, N):
    """Rational-span basis of the degree <= N slice of the real form."""
    theta = desc.conjugation
    ctx = theta.source
    lev = _slice_level(ctx)
    gens = [LoopElement(ctx, {k: zeta_power(lev, j) * b})
            for k, b in slice_terms(ctx, N) for j in range(field_degree(lev))]
    return old_rational_fixed_span(gens, [apply(theta, g) for g in gens],
                                   lambda u: _coordinates_in_slice(u, N, lev))


def old_membership(desc, N):
    theta = desc.conjugation
    ctx = theta.source
    lev = _slice_level(ctx)
    big_basis = old_fixed_point_basis(desc, 2 * N)
    # span and rank do not depend on a row's scale: rows are the numerators
    rr, piv = linalg.rref([_coordinates_in_slice(b, 2 * N, lev)[0] for b in big_basis])
    return lambda w: linalg.in_span(rr, piv, _coordinates_in_slice(w, 2 * N, lev)[0])


def old_cartan_split(desc, N):
    theta_c = compact_conjugation(desc.conjugation.source)
    lev = _slice_level(theta_c.source)
    basis = old_fixed_point_basis(desc, N)
    images = [apply(theta_c, b) for b in basis]

    def flatten(u):
        return _coordinates_in_slice(u, N, lev)

    return (old_rational_fixed_span(basis, images, flatten, sign=1),
            old_rational_fixed_span(basis, images, flatten, sign=-1))


# -- helpers ------------------------------------------------------------------

NS = {"sl2C": (0, 1, 2, 3, 4, 8), "sl3C": (0, 1, 2)}


def key(basis):
    return [[(k, x.level, x.nums, x.den) for k, x in b.terms] for b in basis]


def outcome(fn, *args):
    """The basis key, or the exception's type and message."""
    try:
        return key(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the two sides must raise alike
        return type(exc), str(exc)


@functools.cache
def forms(algebra):
    return tuple(enumerate_real_forms(algebra))


def generators(ctx, N):
    lev = _slice_level(ctx)
    return [LoopElement(ctx, {k: zeta_power(lev, j) * b})
            for k, b in slice_terms(ctx, N) for j in range(field_degree(lev))]


# -- bases ---------------------------------------------------------------------


@pytest.mark.parametrize("order", [sorted, lambda ns: sorted(ns, reverse=True)],
                         ids=["ascending", "descending"])
@pytest.mark.parametrize("algebra", sorted(NS))
def test_every_form_matches_the_slice_wide_basis(algebra, order):
    # fresh maps, so the first N of each order is solved from an empty cache
    for desc in enumerate_real_forms(algebra):
        for N in order(NS[algebra]):
            assert key(fixed_point_basis(desc, N)) == key(old_fixed_point_basis(desc, N)), \
                (desc.label, N)


def test_exp_conjugated_forms_give_the_same_basis_or_the_same_exception():
    compared = raised = 0
    for algebra in sorted(NS):
        for desc in forms(algebra):
            theta = desc.conjugation
            try:
                moved = replace(desc, conjugation=conjugate(_exp_conjugator(theta.source), theta))
            except Exception:  # noqa: BLE001 - the conjugator does not build here
                continue
            for N in NS[algebra][:4]:
                new = outcome(fixed_point_basis, moved, N)
                assert new == outcome(old_fixed_point_basis, moved, N), (desc.label, N)
                if isinstance(new, list):
                    compared += 1
                else:
                    raised += 1
    # both branches are exercised: images that stay in the slice and ones that leave it
    assert compared and raised


# -- the closure certificate ------------------------------------------------------


@functools.cache
def spans(algebra, index, N):
    """(the certificate, old membership, basis at N, generators at 2N)."""
    desc = forms(algebra)[index]
    theta = desc.conjugation
    return (lambda u: apply(theta, u) == u, old_membership(desc, N),
            fixed_point_basis(desc, N), generators(theta.source, 2 * N))


@pytest.mark.parametrize("algebra,N", [("sl2C", 1), ("sl2C", 2), ("sl3C", 1)])
def test_block_membership_of_brackets_and_their_i_multiples(algebra, N):
    i_unit = imaginary_unit()
    inside = outside = 0
    for index in range(len(forms(algebra))):
        fixed, old, basis, _ = spans(algebra, index, N)
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                w = loop_bracket(basis[a], basis[b])
                for u in (w, w * i_unit):
                    verdict = fixed(u)
                    assert verdict == old(u)
                    inside += verdict
                    outside += not verdict
    assert inside and outside


RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(st.data())
def test_block_membership_of_rational_combinations(data):
    algebra, N = data.draw(st.sampled_from([("sl2C", 1), ("sl2C", 2), ("sl3C", 1)]))
    index = data.draw(st.integers(0, len(forms(algebra)) - 1))
    fixed, old, _, gens = spans(algebra, index, N)
    desc = forms(algebra)[index]
    big = fixed_point_basis(desc, 2 * N)
    # a combination of the 2N basis is inside; adding generators moves it out
    # unless their part is fixed as well, and adding a nonzero multiple of one
    # generator that theta moves always does: theta is real-linear
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(big) - 1), RATIONAL), max_size=4))
    extra = data.draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), RATIONAL), max_size=3))
    moved = [g for g in gens if apply(desc.conjugation, g) != g]
    push = data.draw(st.tuples(st.sampled_from(moved), RATIONAL.filter(bool)))
    w = LoopElement(desc.conjugation.source, {})
    for i, c in picks:
        w = w + big[i] * c
    assert fixed(w) and old(w)
    u = w
    for i, c in extra:
        u = u + gens[i] * c
    assert fixed(u) == old(u)
    v = w + push[0] * push[1]
    assert not fixed(v) and not old(v)


# -- theta applications of verify_real_form -----------------------------------------


@pytest.mark.parametrize("algebra,N", [("sl2C", 4), ("sl3C", 1)])
def test_the_2N_call_applies_theta_to_no_generator_up_to_N(monkeypatch, algebra, N):
    """verify_real_form builds no 2N slice: before its closure check theta
    sees nothing above degree N, and the closure check, which replaced the
    2N call, applies theta to no generator up to N again: only to nonzero
    brackets of the basis, at most once a pair.  A 2N basis built on its
    own still matches the slice-wide solve."""
    merged = realforms._merged
    for desc in enumerate_real_forms(algebra):
        basis = fixed_point_basis(desc, N)
        assert key(fixed_point_basis(desc, 2 * N)) == key(old_fixed_point_basis(desc, 2 * N))
        brackets = set(map(repr, key(
            w for a in range(len(basis)) for b in range(a + 1, len(basis))
            if (w := loop_bracket(basis[a], basis[b])))))
        seen, built = [], []

        def counting_apply(phi, u):
            seen.append(u)
            return apply(phi, u)

        def marking_merged(blocks):
            built.append(len(seen))
            return merged(blocks)

        with monkeypatch.context() as m:
            m.setattr(realforms, "apply", counting_apply)
            m.setattr(realforms, "_merged", marking_merged)
            assert verify_real_form(desc, N)["passed"]
        assert len(built) == 1, desc.label
        closure = list(map(repr, key(seen[built[0]:])))
        assert set(closure) <= brackets, desc.label
        assert len(closure) <= len(basis) * (len(basis) - 1) // 2
        assert all(u.degree() <= N for u in seen[:built[0]]), desc.label


@pytest.mark.parametrize("algebra,N", [("sl2C", 4), ("sl3C", 1)])
def test_verify_real_form_applies_theta_to_the_N_generators_and_the_brackets(
        monkeypatch, algebra, N):
    for desc in enumerate_real_forms(algebra):
        theta = desc.conjugation
        basis = fixed_point_basis(desc, N)
        brackets = [w for a in range(len(basis)) for b in range(a + 1, len(basis))
                    if (w := loop_bracket(basis[a], basis[b]))]
        seen = []

        def recording_apply(phi, u):
            assert phi is theta
            seen.append(u)
            return apply(phi, u)

        with monkeypatch.context() as m:
            m.setattr(realforms, "apply", recording_apply)
            assert verify_real_form(desc, N)["passed"]
        # each generator of degree <= N once, then each nonzero bracket once
        expected = generators(theta.source, N) + brackets
        assert sorted(map(repr, key(seen))) == sorted(map(repr, key(expected))), desc.label


# -- the target twist of an entry map -----------------------------------------------


def entry_maps(algebra):
    """Maps built by standard_automorphism with a computed target."""
    cat = catalog_for(algebra)
    out = []
    for name in cat.names():
        for sigma_name in ("id", cat.involutions()[0]):
            ctx = TwistContext(cat.algebra, cat.named(sigma_name))
            out += [pointwise(ctx, cat.named(name)), pointwise(ctx, cat.named(name), epsilon=-1)]
            out += [rotation(ctx, Fraction(1, 3)), reflection(ctx)]
    for q in (2, 3, 4, 6):
        for p, rho, label in cat.first_kind_triples(q):
            out.append(realize_first(algebra, p, rho, label, q)[1])
    for plus, minus in cat.second_kind_pairs():
        out.append(realize_second(algebra, plus, minus)[1])
    for desc in forms(algebra):
        try:
            out.append(_exp_conjugator(desc.conjugation.source))
        except Exception:  # noqa: BLE001 - the conjugator does not build here
            pass
    return out


@pytest.mark.parametrize("algebra", sorted(NS))
def test_the_target_is_the_source_exactly_when_the_entry_keys_match(algebra):
    reused = level_only = 0
    for phi in entry_maps(algebra):
        same_key = phi.target.sigma._entry_key() == phi.source.sigma._entry_key()
        assert (phi.target is phi.source) == same_key
        reused += same_key
        level_only += not same_key and phi.target.sigma == phi.source.sigma
    # some twists equal the source's in value only, at another level
    assert reused and level_only


# -- the H + iH rank and the Cartan split -------------------------------------

SPLIT_NS = {"sl2C": (0, 1, 2, 3, 4), "sl3C": (0, 1, 2)}


@pytest.mark.parametrize("algebra", sorted(SPLIT_NS))
def test_the_cartan_split_matches_the_slice_wide_split(algebra):
    for desc in enumerate_real_forms(algebra)[1:]:
        for N in SPLIT_NS[algebra]:
            dec = cartan_decomposition(desc, N)
            k_basis, m_basis = old_cartan_split(desc, N)
            assert key(dec.k_basis) == key(k_basis), (desc.label, N)
            assert key(dec.m_basis) == key(m_basis), (desc.label, N)


@pytest.mark.parametrize("algebra", sorted(SPLIT_NS))
def test_the_block_ranks_add_up_to_the_slice_wide_rank(monkeypatch, algebra):
    rank = linalg.rank
    for desc in enumerate_real_forms(algebra):
        lev = _slice_level(desc.context)
        for N in SPLIT_NS[algebra]:
            ranks = []
            with monkeypatch.context() as m:
                m.setattr(linalg, "rank", lambda rows: ranks.append(rank(rows)) or ranks[-1])
                report = verify_real_form(desc, N)
            assert len(ranks) == len(_blocks(desc, N, lev))
            basis = old_fixed_point_basis(desc, N)
            whole = rank([_coordinates_in_slice(y, N, lev)[0]
                          for y in basis + [b * imaginary_unit(lev) for b in basis]])
            assert sum(ranks) == whole, (desc.label, N)
            assert report["h_cap_ih_trivial"] == (whole == 2 * len(basis))
            assert report["h_plus_ih_full"] == (whole == report["slice_dim_rational"])


@pytest.mark.parametrize("algebra", sorted(NS))
def test_a_replaced_conjugation_never_reads_the_original_blocks(algebra):
    expected = [key(old_fixed_point_basis(b, 2)) for b in forms(algebra)]
    # the bases differ between forms, so reading another form's blocks shows
    assert len({repr(k) for k in expected}) > 1
    for a in enumerate_real_forms(algebra):
        fixed_point_basis(a, 2)
        for b, want in zip(forms(algebra), expected):
            moved = replace(a, conjugation=b.conjugation)
            assert key(fixed_point_basis(moved, 2)) == want, (a.label, b.label)


def test_an_image_leaving_its_union_exits_1(capsys, monkeypatch):
    made = []

    def recording(ctx):
        made.append(compact_conjugation(ctx))
        return made[-1]

    def shifted(phi, u):
        y = apply(phi, u)
        if not any(phi is c for c in made):
            return y
        # one period up: still a loop of the twist, outside the union
        return LoopElement(y.context, {k + y.context.D: x for k, x in y.terms})

    monkeypatch.setattr(realforms, "compact_conjugation", recording)
    monkeypatch.setattr(realforms, "apply", shifted)
    assert cli.main(["verify", "cartan", "--N", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == {"code": 1, "type": "ArithmeticError",
                            "message": "compact conjugation leaves a block"}
