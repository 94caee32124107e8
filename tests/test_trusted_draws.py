"""The seeded draws, built as trusted loop elements, against the public path.

``verify.random_loop`` builds its result with ``LoopElement._trusted``: each
term is a combination of one exponent's eigenbasis, so it meets the twist
condition by construction.  These tests hold every draw to that claim.  A
draw passes ``loop.validate``, equals the public constructor's element on
the same terms, and equals the parent draw, ``test_hat_kernels``'s
``old_random_loop``, as (k, level, nums, den) with the same RNG state
afterwards.  ``old_random_affine`` is a verbatim copy of ``verify.random_affine``
from before its c and d coefficients were built as level-4 scalars (only the
name differs, and it calls ``old_random_loop``).  The public constructor
keeps its check for every other caller.

The number of examples comes from the hypothesis profile (``conftest.py``).
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import kmforge.verify as verify
from kmforge.affine import AffineElement
from kmforge.catalog import catalog_for
from kmforge.errors import InvalidInputError
from kmforge.liealg import builtin_algebra
from kmforge.loop import LoopElement, TwistContext, validate
from test_hat_kernels import _contexts, old_random_loop


def old_random_affine(rng, ctx, max_degree=6):
    return AffineElement(
        old_random_loop(rng, ctx, max_degree),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
    )


@functools.cache
def _draw_contexts():
    """Both twists of ``verify._twists_for`` on sl2C and sl3C, the sl3C
    source of ``verify_hat``, and the contexts of ``verify_tau_r`` (the
    identity twist, D = 1) and ``verify_untwisting`` (tau, D = 2) on sl2C."""
    sl2, cat = builtin_algebra("sl2C"), catalog_for("sl2C")
    return _contexts() + (TwistContext(sl2, cat.named("id"), D=1),
                          TwistContext(sl2, cat.named("tau"), D=2))


def _exact(u):
    return [(k, x.level, x.nums, x.den) for k, x in u.terms]


def _scalar(c):
    return c.level, c.nums, c.den


def _public(u):
    """The element the public constructor builds from u's terms."""
    return LoopElement(u.context, u.terms_dict())


def test_the_draw_contexts():
    names = [(ctx.algebra.name, ctx.sigma.is_identity(), ctx.D) for ctx in _draw_contexts()]
    assert names == [("sl2C", True, 1), ("sl2C", False, 2), ("sl3C", True, 1),
                     ("sl3C", False, 2), ("sl3C", False, 2), ("sl2C", True, 1),
                     ("sl2C", False, 2)]


@pytest.mark.parametrize("ctx", range(7))
@given(seed=st.integers(0, 2 ** 32), max_degree=st.sampled_from((3, 4, 6)))
def test_loop_draws_are_valid_and_equal_the_public_draws(ctx, seed, max_degree):
    ctx = _draw_contexts()[ctx]
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(4):
        u, v = verify.random_loop(new, ctx, max_degree), old_random_loop(old, ctx, max_degree)
        assert validate(u)
        assert _exact(u) == _exact(_public(u)) == _exact(v)
        assert u == v
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("ctx", range(7))
@given(seed=st.integers(0, 2 ** 32), max_degree=st.sampled_from((3, 4, 6)))
def test_affine_draws_are_valid_and_equal_the_public_draws(ctx, seed, max_degree):
    ctx = _draw_contexts()[ctx]
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(4):
        a, b = verify.random_affine(new, ctx, max_degree), old_random_affine(old, ctx, max_degree)
        assert validate(a.loop)
        assert _exact(a.loop) == _exact(_public(a.loop)) == _exact(b.loop)
        assert (_scalar(a.c_coef), _scalar(a.d_coef)) == (_scalar(b.c_coef), _scalar(b.d_coef))
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("ctx", (1, 3, 4, 6))  # the contexts with D = 2
def test_the_public_constructor_still_checks_the_twist_condition(ctx):
    # a nonzero vector of exponent 0's eigenspace is fixed by sigma, so at
    # exponent 1 it misses sigma(x) = zeta_D x for every D > 1
    ctx = _draw_contexts()[ctx]
    x = ctx.eigenbasis_for_exponent(0)[0]
    assert validate(LoopElement(ctx, {0: x}))
    with pytest.raises(InvalidInputError, match="twist condition"):
        LoopElement(ctx, {1: x})
    with pytest.raises(InvalidInputError, match="twist condition"):
        LoopElement(ctx, {0: x, 1: x})
