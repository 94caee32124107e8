"""The slice loops, built as trusted loop elements, against the public path.

Three builders make one-term loops from an eigenbasis vector of their
exponent: the default test elements of ``standard.loop_map_order``, the
loops of ``affine._hat_slice`` and the generators of
``realforms._exponent``, each a vector zeta_lev^j * b.  Such a term meets
the twist condition by construction, so each builder uses
``LoopElement._trusted``.  These tests hold every loop they build to that
claim: it passes ``loop.validate`` and equals the public constructor's loop
on the same terms, compared as (k, level, nums, den).

The contexts are sl2C and sl3C under the identity and every catalog
involution, with D the twist order and twice it; the sl3C context that
``verify_hat``'s exp conjugator moves its maps onto; and the context of
every sl2C and sl3C real form, with its slice at N = 0, 1 and 2.
"""

import dataclasses
import functools

import pytest

from kmforge.affine import _hat_slice
from kmforge.catalog import catalog_for
from kmforge.field import field_degree
from kmforge.liealg import builtin_algebra
from kmforge.loop import LoopElement, TwistContext, slice_terms, validate
from kmforge.realforms import _exponent, _slice_level, enumerate_real_forms
from kmforge.standard import loop_map_order
from kmforge.verify import _exp_conjugator

ALGEBRAS = ("sl2C", "sl3C")


def _exact(u):
    return [(k, x.level, x.nums, x.den) for k, x in u.terms]


def _assert_trusted_slice(loops, ctx):
    """Every loop is one term, lives in ctx, passes validate and equals the
    public constructor's loop on its terms."""
    for u in loops:
        assert u.context is ctx
        assert len(u.terms) == 1
        assert validate(u), u
        public = LoopElement(ctx, u.terms_dict())
        assert _exact(u) == _exact(public)
        assert u == public


@functools.cache
def _contexts():
    """(label, context): each algebra under the identity and every catalog
    involution, D the twist order and twice it, then the sl3C context that
    verify_hat's exp conjugator moves its maps onto."""
    out = []
    for name in ALGEBRAS:
        cat = catalog_for(name)
        for twist in ("id",) + tuple(cat.involutions()):
            order = TwistContext(cat.algebra, cat.named(twist)).twist_order
            out += [(f"{name}:{twist}:D={D}", TwistContext(cat.algebra, cat.named(twist), D=D))
                    for D in (order, 2 * order)]
    sl3 = builtin_algebra("sl3C")
    moved = _exp_conjugator(TwistContext(sl3, catalog_for("sl3C").named("id"), D=2)).target
    out.append(("sl3C:hat-moved", moved))
    return tuple(out)


@functools.cache
def _real_forms():
    return tuple(f for name in ALGEBRAS for f in enumerate_real_forms(name))


def test_the_contexts():
    labels = [label for label, _ in _contexts()]
    assert labels == ["sl2C:id:D=1", "sl2C:id:D=2", "sl2C:tau:D=2", "sl2C:tau:D=4",
                      "sl2C:mu:D=2", "sl2C:mu:D=4", "sl3C:id:D=1", "sl3C:id:D=2",
                      "sl3C:theta:D=2", "sl3C:theta:D=4", "sl3C:mu:D=2", "sl3C:mu:D=4",
                      "sl3C:hat-moved"]
    moved = _contexts()[-1][1]
    assert moved.D == 2 and not moved.sigma.is_identity()
    assert len(_real_forms()) == 7 + 13


@pytest.mark.parametrize("index", range(13))
def test_loop_map_order_slice_is_valid_and_equals_the_public_slice(index):
    _label, ctx = _contexts()[index]
    seen = []

    def identity(u):
        seen.append(u)
        return u

    assert loop_map_order(identity, ctx, bound=1) == 1
    # order 1 is found on the first iterate, so seen holds the test elements once
    public = [LoopElement(ctx, {k: b}) for k, b in slice_terms(ctx, 2 * ctx.D)]
    assert len(seen) == len(public) > 0
    _assert_trusted_slice(seen, ctx)
    assert [_exact(u) for u in seen] == [_exact(u) for u in public]


@pytest.mark.parametrize("N", (0, 1, 2, "2D"))
@pytest.mark.parametrize("index", range(13))
def test_hat_slice_is_valid_and_equals_the_public_slice(index, N):
    _label, ctx = _contexts()[index]
    N = 2 * ctx.D if N == "2D" else N
    elems = _hat_slice(ctx, N)
    loops = [x.loop for x in elems[2:]]
    assert not elems[0].loop and not elems[1].loop  # c and d
    public = [LoopElement(ctx, {k: b}) for k, b in slice_terms(ctx, N)]
    assert len(loops) == len(public)
    _assert_trusted_slice(loops, ctx)
    assert [_exact(u) for u in loops] == [_exact(u) for u in public]


@pytest.mark.parametrize("N", (0, 1, 2))
@pytest.mark.parametrize("index", range(20))
def test_real_form_generators_are_valid_and_equal_the_public_loops(index, N):
    desc = dataclasses.replace(_real_forms()[index])  # a fresh _slices cache
    ctx = desc.context
    lev = _slice_level(ctx)
    total = 0
    for k in range(-N, N + 1):
        pairs = _exponent(desc, k, lev)
        gens = [g for g, _ in pairs]
        assert len(gens) == len(ctx.eigenbasis_for_exponent(k)) * field_degree(lev)
        assert all(g.support() == [k] for g in gens)
        _assert_trusted_slice(gens, ctx)
        total += len(gens)
    # the slice has one generator per eigenbasis vector and per power of zeta_lev
    assert total == len(slice_terms(ctx, N)) * field_degree(lev)
