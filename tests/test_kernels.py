"""Oracles for the cached term kernels of ``standard.apply``, compared with
the per-term computation they replace, value and level of every coordinate,
and for ``TwistContext.term_ok``, which must accept exactly the terms with
sigma(x) = zeta_D^k x."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kmforge.catalog import catalog_for
from kmforge.errors import IncompatibleDenominatorError, InvalidInputError
from kmforge.field import CyclotomicNumber, field_degree, imaginary_unit, zeta_of, zeta_power
from kmforge.liealg import FiniteAutomorphism, exp_curve
from kmforge.loop import LoopElement, TwistContext
from kmforge.realforms import enumerate_real_forms
from kmforge.standard import apply, pointwise, standard_automorphism

LEVELS = (4, 8, 12)
KERNEL_SETTINGS = settings(max_examples=12, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def _term_ok_per_term(ctx, k, x):
    """The twist test written out: sigma(x) == zeta_D^k * x."""
    return not x or ctx.sigma.apply(x) == zeta_power(ctx.D, k) * x


def _apply_per_term(phi, u):
    """``standard.apply`` before kernels: zeta_of, then fac * x, then
    base.apply, term by term."""
    assert u.context == phi.source
    assert all(_term_ok_per_term(u.context, k, x) for k, x in u.terms)
    D = phi.source.D
    eps_exp = phi.epsilon * (-1 if phi.antilinear else 1)
    base, exp = phi.base, phi.exp
    out = {}
    for k, x in u.terms:
        fac = zeta_of(Fraction(k) * phi.shift / D)
        y = base.apply(fac * x)
        pieces = {Fraction(0): y} if exp is None else exp.decompose(y)
        for q, comp in pieces.items():
            shift_k = q * D
            if shift_k.denominator != 1:
                raise IncompatibleDenominatorError(
                    f"eigenvalue {q} does not fit the 1/{D} exponent grid")
            k2 = eps_exp * k + int(shift_k)
            out[k2] = out[k2] + comp if k2 in out else comp
    return LoopElement(phi.target, out)


def _exact(u):
    """Every term's exponent and every coordinate's level and value."""
    return [(k, [(c.level, c.nums, c.den) for c in x.coords]) for k, x in u.terms]


@cache
def _contexts():
    """Every sl2C and sl3C catalog map as a twist, D its order, plus two
    contexts whose D is a proper multiple of the twist order."""
    out = []
    for name in ("sl2C", "sl3C"):
        cat = catalog_for(name)
        out += [TwistContext(cat.algebra, cat.named(n)) for n in cat.names()]
    sl2 = catalog_for("sl2C")
    out += [TwistContext(sl2.algebra, sl2.named("tau"), D=4),
            TwistContext(sl2.algebra, sl2.named("r3"), D=6)]
    return out


@cache
def _maps():
    """(label, map): every catalog map as a base over its own twist and,
    with epsilon = -1 and shift 1/3, over the untwisted context; the
    antilinear compact conjugation with fractional shifts; tau over D = 4 with
    a shift; the seven sl2C real-form conjugations; exp-curve maps with and
    without a shift."""
    out = []
    for name in ("sl2C", "sl3C"):
        cat = catalog_for(name)
        flat = TwistContext(cat.algebra, cat.named("id"))
        for n in cat.names():
            auto = cat.named(n)
            out.append((f"{name}:{n}:own-twist", pointwise(TwistContext(cat.algebra, auto), auto)))
            out.append((f"{name}:{n}:eps-1:shift1/3",
                        pointwise(flat, auto, epsilon=-1, shift=Fraction(1, 3))))
        out.append((f"{name}:omega:shift2/5", pointwise(flat, cat.omega(), shift=Fraction(2, 5))))
    sl2 = catalog_for("sl2C")
    tau = TwistContext(sl2.algebra, sl2.named("tau"))
    out.append(("sl2C:omega:tau:eps-1:shift1/4",
                pointwise(tau, sl2.omega(), epsilon=-1, shift=Fraction(1, 4))))
    out.append(("sl2C:tau:D=4:shift1/3", pointwise(_contexts()[11], tau.sigma, shift=Fraction(1, 3))))
    out += [(f"sl2C:realform:{f.label}", f.conjugation) for f in enumerate_real_forms("sl2C")]
    i = imaginary_unit()
    curve = exp_curve(sl2.algebra.element([0, i / 2, 0]), [Fraction(1), Fraction(0), Fraction(-1)])
    ident = FiniteAutomorphism.identity(sl2.algebra)
    out += [(f"sl2C:exp:shift{s}", standard_automorphism(1, s, ident, tau, exp=curve))
            for s in (Fraction(0), Fraction(1, 3))]
    return out


MAP_COUNT = 2 * (6 + 5) + 2 + 2 + 7 + 2


def test_map_inventory():
    labels = [label for label, _ in _maps()]
    assert len(labels) == MAP_COUNT == len(set(labels))
    assert sum(1 for label in labels if ":realform:" in label) == 7
    assert any(phi.antilinear and phi.shift for _, phi in _maps())
    assert any(phi.epsilon == -1 and phi.shift.denominator > 1 for _, phi in _maps())
    assert any(phi.exp is not None and phi.shift for _, phi in _maps())


@st.composite
def scalars(draw):
    lev = draw(st.sampled_from(LEVELS))
    n = field_degree(lev)
    return CyclotomicNumber(lev, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))


@st.composite
def twisted_loops(draw, ctx):
    """Loops satisfying ctx's twist, coefficients at mixed levels."""
    terms = {}
    for k in draw(st.lists(st.integers(-7, 7), max_size=4)):
        x = ctx.algebra.zero_element()
        for b in ctx.eigenbasis_for_exponent(k):
            x = x + b * draw(scalars())
        terms[k] = terms[k] + x if k in terms else x
    return LoopElement(ctx, terms)


@pytest.mark.parametrize("index", range(MAP_COUNT))
@KERNEL_SETTINGS
@given(data=st.data())
def test_apply_matches_the_per_term_path(index, data):
    _label, phi = _maps()[index]
    u = data.draw(twisted_loops(phi.source))
    got, want = apply(phi, u), _apply_per_term(phi, u)
    assert got.context == want.context
    assert _exact(got) == _exact(want)


@pytest.mark.parametrize("index", range(13))
@KERNEL_SETTINGS
@given(data=st.data())
def test_term_ok_matches_sigma_apply(index, data):
    """Terms from k's own eigenspace, from k + 1's, or arbitrary; the
    ``LoopElement`` constructor takes exactly the terms that keep the twist."""
    ctx = _contexts()[index]
    k = data.draw(st.integers(-9, 9))
    source = data.draw(st.sampled_from(["own", "next", "any"]))
    basis = {"own": ctx.eigenbasis_for_exponent(k),
             "next": ctx.eigenbasis_for_exponent(k + 1),
             "any": ctx.algebra.basis()}[source]
    x = ctx.algebra.zero_element()
    for b in basis:
        x = x + b * data.draw(scalars())
    ok = _term_ok_per_term(ctx, k, x)
    assert ctx.term_ok(k, x) == ok
    if ok:
        LoopElement(ctx, {k: x})
    else:
        with pytest.raises(InvalidInputError, match="twist condition"):
            LoopElement(ctx, {k: x})


def test_context_inventory():
    assert len(_contexts()) == 13
    assert _contexts()[11].D == 4 and _contexts()[11].twist_order == 2


def test_term_ok_matches_sigma_apply_on_every_eigenvector():
    """Every context, every k in -2D..2D, every eigenbasis vector of every
    exponent class: valid and violating terms alike."""
    seen = set()
    for ctx in _contexts():
        vectors = [b for r in range(ctx.D) for b in ctx.eigenbasis_for_exponent(r)]
        for k in range(-2 * ctx.D, 2 * ctx.D + 1):
            for b in vectors:
                ok = _term_ok_per_term(ctx, k, b)
                assert ctx.term_ok(k, b) == ok, (ctx, k, b)
                seen.add(ok)
    assert seen == {True, False}


def test_kernel_caches_stay_within_their_bounds():
    sl2 = catalog_for("sl2C")
    ctx = TwistContext(sl2.algebra, sl2.named("tau"))  # D = 2
    phi = pointwise(ctx, sl2.named("tau"), shift=Fraction(1, 3))  # shift/D = 1/6
    flat = pointwise(ctx, sl2.named("tau"))
    u = LoopElement(ctx, {k: ctx.eigenbasis_for_exponent(k)[0] for k in range(-60, 61)})
    assert apply(phi, u) == _apply_per_term(phi, u)
    assert apply(flat, u) == _apply_per_term(flat, u)
    assert len(phi._kernels) == 6
    assert len(flat._kernels) == 1
