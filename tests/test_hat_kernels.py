"""The hat-bracket kernels against the code they replace.

``old_affine_bracket``, ``old_cocycle``, ``old_jacobi_witness``,
``old_cocycle_witness``, ``old_random_loop`` and ``old_combination`` are
verbatim copies of ``affine.affine_bracket``, ``loop.cocycle``,
``verify._jacobi_witness``, ``verify._cocycle_witness``,
``verify.random_loop`` and ``element.combination`` from before
``affine.bracket_sum``, ``loop.cocycle_sum`` and ``combination``'s level-4
closed form (only the names differ, each copy calls the other copies, and
``_scaling`` is the table the old ``combination`` used).  What they share
with the new code, ``loop_bracket``, ``loop_derivative``, ``killing_sum``,
``_blocks``, ``_sum_pairs`` and ``_canonical``, is unchanged.

The level rule of ``bracket_sum``: output k is at the lcm of the levels of
every term pair and every derivative term meeting at k, a derivative term
b (ik/D) v_k being at lcm(4, b.level, v_k.level), also where they sum to
zero.  The pair-by-pair sum drops a zero term of one pair before adding the
next, so the two agree as (level, nums, den) where every loop term and every
nonzero d coefficient shares one level, and by value elsewhere.  The central
coordinate is one ``killing_sum`` and keeps its level rule in every case.

The number of examples comes from the hypothesis profile (``conftest.py``);
the golden report bytes were recorded from ``cli.main`` before the change.
"""

import contextlib
import functools
import io
import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import kmforge.verify as verify
from kmforge import cli
from kmforge.affine import AffineElement, affine_bracket, bracket_sum
from kmforge.element import (_as_scalar, _blocks, _canonical, _sum_pairs, combination,
                             killing_sum)
from kmforge.field import CyclotomicNumber, _make, field_degree, imaginary_unit
from kmforge.liealg import FiniteAutomorphism, LieAlgebraTable, builtin_algebra
from kmforge.loop import (
    LoopElement,
    TwistContext,
    _opposite,
    cocycle,
    cocycle_sum,
    loop_bracket,
    loop_derivative,
    zero_loop,
)

# -- verbatim copies of the replaced code ---------------------------------------


def old_cocycle(u, v):
    """The central 2-cocycle <u', v> = (i/D) * sum of k * kappa(u_k, v_{-k})."""
    s = killing_sum([(k, x, y) for k, x, y in _opposite(u, v) if k])
    return s * _make(4, (0, 1), u.context.D)  # i/D


def old_affine_bracket(x, y):
    """[u + a c + b d, v + a' c + b' d] = [u,v]_0 + b v' - b' u' + w(u,v) c."""
    x._check(y)
    loop_part = loop_bracket(x.loop, y.loop)
    if x.d_coef:
        loop_part = loop_part + loop_derivative(y.loop, x.d_coef)
    if y.d_coef:
        loop_part = loop_part + loop_derivative(x.loop, -y.d_coef)
    return AffineElement(loop_part, old_cocycle(x.loop, y.loop), 0)


def old_jacobi_witness(x, y, z):
    total = (
        old_affine_bracket(x, old_affine_bracket(y, z))
        + old_affine_bracket(y, old_affine_bracket(z, x))
        + old_affine_bracket(z, old_affine_bracket(x, y))
    )
    return repr(total) if total else None


def old_cocycle_witness(u, v, w):
    if old_cocycle(u, v) != -old_cocycle(v, u):
        return "antisymmetry"
    total = (
        old_cocycle(loop_bracket(u, v), w)
        + old_cocycle(loop_bracket(v, w), u)
        + old_cocycle(loop_bracket(w, u), v)
    )
    return "cocycle identity" if total else None


@functools.cache
def _scaling(d):
    """The table of c * x, for a scalar c as coordinate 0 and x of dimension d."""
    return (tuple(((j, 1),) for j in range(d)),)


def old_combination(scalars, elements):
    """The sum of c * x over the paired ``scalars`` (int, Fraction or
    CyclotomicNumber) and ``elements`` (at least one, of one algebra), as one
    contraction; c * x off level 4 is its one-pair case."""
    alg, blocks = _blocks(elements)
    pairs = [(1, (c, [(0, c.nums)]), xb) for c, xb in zip(map(_as_scalar, scalars), blocks)]
    level, nums, den = _sum_pairs(_scaling(alg.dim), alg.dim, pairs, True)
    return _canonical(alg, level, nums, den)


def old_random_loop(rng, ctx, max_degree=6):
    acc = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-max_degree, max_degree)
        basis = ctx.eigenbasis_for_exponent(k)
        if not basis:
            continue
        scalars = []
        for _ in basis:
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            scalars.append(imaginary_unit() * c if rng.random() < 0.25 else c)
        x = old_combination(scalars, basis)
        acc[k] = acc[k] + x if k in acc else x
    return LoopElement(ctx, acc)


# -- inputs -------------------------------------------------------------------


@functools.cache
def _contexts():
    """Both twists of ``verify._twists_for`` on sl2C and sl3C, and the sl3C
    source that ``verify_hat``'s exp conjugator moves its maps onto."""
    out = [TwistContext(builtin_algebra(name), sigma, D=D)
           for name in ("sl2C", "sl3C") for _, sigma, D in verify._twists_for(name)]
    sl3 = builtin_algebra("sl3C")
    moved = verify._exp_conjugator(TwistContext(sl3, verify.catalog_for("sl3C").named("id"), D=2))
    return tuple(out) + (moved.target,)


CONTEXT = st.integers(0, 4).map(lambda i: _contexts()[i])
# one shared level, so that every result keeps the old level rule, or mixed
LEVEL_POOL = st.sampled_from(((4,), (8,), (12,), (4, 8, 12)))


def _scalars(pool):
    """Cyclotomic scalars at a level of ``pool``, denominators up to 4."""
    return st.sampled_from(pool).flatmap(lambda level: st.lists(
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
        min_size=field_degree(level), max_size=field_degree(level)).map(
            lambda coords: CyclotomicNumber(level, coords)))


@st.composite
def loops(draw, ctx, pool):
    """A loop of up to four terms, each a combination of the eigenbasis at
    its exponent with scalars from ``pool``; possibly empty."""
    terms = {}
    for k in draw(st.lists(st.integers(-4, 4), max_size=4, unique=True)):
        basis = ctx.eigenbasis_for_exponent(k)
        if basis:
            x = ctx.algebra.zero_element()
            for b in basis:
                x = x + draw(_scalars(pool)) * b
            terms[k] = x
    return LoopElement(ctx, terms)


def d_coefs(pool):
    """Zero, a rational, or a non-rational cyclotomic scalar."""
    return st.one_of(st.just(0), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
                     _scalars(pool).filter(lambda c: any(c.nums[1:])))


@st.composite
def hat_pairs(draw, ctx, pool):
    """One to four pairs of hat elements with d coefficients from ``pool``."""
    def element():
        return AffineElement(draw(loops(ctx, pool)), draw(d_coefs(pool)), draw(d_coefs(pool)))
    return [(element(), element()) for _ in range(draw(st.integers(1, 4)))]


def _exact(u):
    """Every term's exponent and block."""
    return [(k, x.level, x.nums, x.den) for k, x in u.terms]


def _scalar(c):
    return c.level, c.nums, c.den


def _one_level(pairs):
    """True when every loop term and every nonzero d coefficient shares one level."""
    levels = {t.level for x, y in pairs for e in (x, y) for _, t in e.loop.terms}
    levels |= {e.d_coef.level for x, y in pairs for e in (x, y) if e.d_coef}
    return len(levels) <= 1


def _pair_by_pair(pairs):
    total = None
    for x, y in pairs:
        w = old_affine_bracket(x, y)
        total = w if total is None else total + w
    return total


# -- the kernels against the copies -------------------------------------------


@given(data=st.data())
def test_bracket_sum_matches_the_pair_by_pair_sum(data):
    ctx, pool = data.draw(CONTEXT), data.draw(LEVEL_POOL)
    pairs = data.draw(hat_pairs(ctx, pool))
    new, old = bracket_sum(pairs), _pair_by_pair(pairs)
    assert new == old
    assert _scalar(new.c_coef) == _scalar(old.c_coef)
    assert _scalar(new.d_coef) == (4, (0, 0), 1)
    if _one_level(pairs):
        assert _exact(new.loop) == _exact(old.loop)
    one = affine_bracket(*pairs[0])
    assert one == old_affine_bracket(*pairs[0])
    if _one_level(pairs[:1]):
        assert _exact(one.loop) == _exact(old_affine_bracket(*pairs[0]).loop)


@given(data=st.data())
def test_bracket_sum_keeps_its_level_rule(data):
    ctx, pool = data.draw(CONTEXT), data.draw(LEVEL_POOL)
    pairs = data.draw(hat_pairs(ctx, pool))
    levels = {}
    for x, y in pairs:
        for k1, a in x.loop.terms:
            for k2, b in y.loop.terms:
                levels.setdefault(k1 + k2, set()).update((a.level, b.level))
        for coef, u in ((x.d_coef, y.loop), (y.d_coef, x.loop)):
            for k, t in u.terms:
                if coef and k:
                    levels.setdefault(k, set()).update((coef.level, t.level))
    for k, t in bracket_sum(pairs).loop.terms:
        assert t.level == math.lcm(4, *levels[k])


@given(data=st.data())
def test_cocycle_sum_is_the_sum_of_the_cocycles(data):
    ctx, pool = data.draw(CONTEXT), data.draw(LEVEL_POOL)
    pairs = [(data.draw(loops(ctx, pool)), data.draw(loops(ctx, pool)))
             for _ in range(data.draw(st.integers(1, 4)))]
    old = sum((old_cocycle(u, v) for u, v in pairs[1:]), old_cocycle(*pairs[0]))
    assert _scalar(cocycle_sum(pairs)) == _scalar(old)
    assert _scalar(cocycle(*pairs[0])) == _scalar(old_cocycle(*pairs[0]))


@pytest.mark.parametrize("ctx", range(5))
def test_empty_loops_and_pure_central_elements(ctx):
    ctx = _contexts()[ctx]
    u = old_random_loop(random.Random(3), ctx)
    c, d = AffineElement(zero_loop(ctx), c_coef=1), AffineElement(zero_loop(ctx), d_coef=1)
    x = AffineElement(u, 2, Fraction(-1, 2))
    for pairs in ([(c, d)], [(d, d)], [(d, x), (x, d)], [(c, x), (x, x), (d, c)]):
        new, old = bracket_sum(pairs), _pair_by_pair(pairs)
        assert _exact(new.loop) == _exact(old.loop)
        assert _scalar(new.c_coef) == _scalar(old.c_coef)
    assert not bracket_sum([(d, x), (x, d)])


# -- witnesses on a broken table ----------------------------------------------


@functools.cache
def _broken_contexts():
    """The four twist contexts over test-local copies of sl2C and sl3C whose
    first nonzero int_pairs[0][j] has its first constant raised by one, so
    that the hat bracket is no Lie bracket and the identities fail."""
    out = []
    for name in ("sl2C", "sl3C"):
        alg = builtin_algebra(name)
        table = LieAlgebraTable(alg.name, alg.structure, alg.basis_names, alg.base_field_tag,
                                alg.compact_flag)
        row = table.int_pairs[0]
        j = next(j for j, cs in enumerate(row) if cs)
        (k, c), *rest = row[j]
        table.int_pairs = (row[:j] + (((k, c + 1), *rest),) + row[j + 1:],) + table.int_pairs[1:]
        for _, sigma, D in verify._twists_for(name):
            out.append(TwistContext(table, FiniteAutomorphism(table, sigma.matrix), D=D))
    return tuple(out)


def _triples(ctx, seed, draw, n=4):
    rng = random.Random(seed)
    return [[draw(rng, ctx, 3) for _ in range(3)] for _ in range(n)]


@pytest.mark.parametrize("ctx", range(4))
@given(seed=st.integers(0, 2 ** 32))
def test_witnesses_on_a_broken_table_equal_the_parent_strings(ctx, seed):
    ctx = _broken_contexts()[ctx]
    for x, y, z in _triples(ctx, seed, verify.random_affine):
        assert verify._jacobi_witness(x, y, z) == old_jacobi_witness(x, y, z)
    for u, v, w in _triples(ctx, seed, verify.random_loop):
        assert verify._cocycle_witness(u, v, w) == old_cocycle_witness(u, v, w)


@pytest.mark.parametrize("ctx", range(4))
def test_the_broken_table_makes_witnesses(ctx):
    broken, sound = _broken_contexts()[ctx], _contexts()[ctx]
    assert any(verify._jacobi_witness(*t) for t in _triples(broken, 0, verify.random_affine, 20))
    assert any(verify._cocycle_witness(*t) for t in _triples(broken, 0, verify.random_loop, 20))
    assert not any(verify._jacobi_witness(*t) for t in _triples(sound, 0, verify.random_affine))


# -- draws ----------------------------------------------------------------------


@pytest.mark.parametrize("ctx", range(5))
@given(seed=st.integers(0, 2 ** 32), max_degree=st.sampled_from((3, 6)))
def test_draws_equal_the_parent_draws(ctx, seed, max_degree):
    ctx = _contexts()[ctx]
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(4):
        assert _exact(verify.random_loop(new, ctx, max_degree)) == _exact(
            old_random_loop(old, ctx, max_degree))
        assert new.getstate() == old.getstate()


@given(data=st.data())
def test_combination_matches_the_parent(data):
    ctx, pool = data.draw(CONTEXT), data.draw(LEVEL_POOL)
    alg = ctx.algebra
    elements = [x for _, x in data.draw(loops(ctx, pool)).terms] or [alg.basis_element(0, 4)]
    elements += [alg.basis_element(j, data.draw(st.sampled_from(pool))) for j in range(alg.dim)]
    scalars = [data.draw(st.one_of(st.integers(-3, 3), d_coefs(pool), _scalars(pool)))
               for _ in elements]
    new, old = combination(scalars, elements), old_combination(scalars, elements)
    assert (new.level, new.nums, new.den) == (old.level, old.nums, old.den)


# -- report bytes ---------------------------------------------------------------

with open(os.path.join(os.path.dirname(__file__), "golden_identity_reports.json")) as fh:
    GOLDEN_REPORTS = json.load(fh)


@pytest.mark.parametrize("key", sorted(GOLDEN_REPORTS))
def test_identity_reports_keep_their_bytes(key):
    want = GOLDEN_REPORTS[key]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(want["argv"])
    assert (rc, out.getvalue()) == (want["exit_code"], want["stdout"])
