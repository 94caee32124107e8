"""``affine.center_and_derived_check`` certifies that d lies outside the span
of the slice brackets by their d coordinates alone.  The oracle is the check
it replaced, kept verbatim: every bracket flattened to integer rows, reduced
by ``linalg.rref``, and d tested with ``linalg.in_span``."""

import math

import pytest

from kmforge import affine
from kmforge.affine import (
    AffineElement,
    _hat_slice,
    affine_bracket,
    c_element,
    center_and_derived_check,
    d_element,
)
from kmforge.catalog import catalog_for
from kmforge.linalg import in_span, rref
from kmforge.loop import TwistContext, loop_coords, zero_loop


def _rref_center_and_derived_check(context, N):
    """``center_and_derived_check`` before the d-coordinate certificate."""
    slice_elems = _hat_slice(context, N)
    results = []
    c_ok = True
    d_free = True
    c = c_element(context)
    for x in slice_elems:
        if affine_bracket(c, x) or affine_bracket(x, c):
            c_ok = False
    for i, x in enumerate(slice_elems):
        for y in slice_elems[i:]:
            w = affine_bracket(x, y)
            if w.d_coef:
                d_free = False
            if w:
                results.append(w)
    levels = {cf.level for w in results for cf in (w.c_coef, w.d_coef)}
    levels.update(x.level for w in results for _, x in w.loop.terms)
    lev = math.lcm(4, *levels)
    support = sorted({k for w in results for k in w.loop.support()} | {0})
    flat = [_flatten_affine(w, support, lev) for w in results]
    rr, piv = rref(flat)
    d_vec = _flatten_affine(d_element(context), support, lev)
    d_in_derived = in_span(rr, piv, d_vec)
    return {
        "context": repr(context),
        "N": N,
        "bracket_count": len(results),
        "no_d_component": d_free,
        "c_central": c_ok,
        "d_outside_derived_span": not d_in_derived,
        "passed": d_free and c_ok and not d_in_derived,
    }


def _flatten_affine(w, support, lev):
    """The integer numerators of w's loop and central coordinates over
    their common denominator; span membership ignores that denominator."""
    loop_nums, a = loop_coords(w.loop, support, lev)
    cd = [w.c_coef.lift(lev), w.d_coef.lift(lev)]
    den = math.lcm(a, *(c.den for c in cd))
    return [v * (den // a) for v in loop_nums] + [v * (den // c.den) for c in cd for v in c.nums]


def _contexts():
    """(label, context): sl2C and sl3C under id and under the catalog's first
    involution, each with D the twist order n and with D = 2n."""
    out = []
    for name in ("sl2C", "sl3C"):
        cat = catalog_for(name)
        for twist in ("id", cat.involutions()[0]):
            sigma = cat.named(twist)
            n = TwistContext(cat.algebra, sigma).twist_order
            out += [(f"{name}:{twist}:D={D}", TwistContext(cat.algebra, sigma, D=D))
                    for D in (n, 2 * n)]
    return out


@pytest.mark.parametrize("N", range(4))
@pytest.mark.parametrize("label,ctx", _contexts(), ids=[label for label, _ in _contexts()])
def test_certificate_matches_the_rref_span_check(label, ctx, N):
    got, want = center_and_derived_check(ctx, N), _rref_center_and_derived_check(ctx, N)
    assert got == want
    assert got["passed"] and got["d_outside_derived_span"]


def test_a_leaked_d_coordinate_fails_the_check(monkeypatch):
    """A bracket of two loops that picks up a d coordinate leaves the
    certificate unproven: no_d_component, d_outside_derived_span and passed
    are all false, while c stays central."""
    ctx = _contexts()[0][1]
    honest = affine.affine_bracket

    def leaky(x, y):
        w = honest(x, y)
        if x.loop and y.loop:
            w = w + AffineElement(zero_loop(x.context), d_coef=1)
        return w

    monkeypatch.setattr(affine, "affine_bracket", leaky)
    report = center_and_derived_check(ctx, 1)
    assert report["c_central"]
    assert not report["no_d_component"]
    assert not report["d_outside_derived_span"]
    assert not report["passed"]
