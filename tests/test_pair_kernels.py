"""The kernels behind the real-form pair checks against the code they replace.

``old_int_rows_apply`` is a verbatim copy of ``IntRows.apply`` from before it
took a ``conj`` flag, when an antilinear map conjugated its input first with
``AlgebraElement.conj`` (unchanged); ``IntRows.apply(x, True)`` must give the
(level, nums, den) of ``old_int_rows_apply(rows, x.conj())``.

``old_sum_pairs`` and ``old_contract_rows`` are verbatim copies of
``_sum_pairs`` and ``_contract_rows`` from before the level-4 groups of a call
were contracted in one loop (only the names differ): one ``_sum_pairs`` a
group.  The helpers they use, ``_canonical``, ``_contract`` and
``_lift_nums``, are unchanged.  They are compared on groups built directly,
with mixed denominators, zero weights and zero brackets, and on the groups
``affine.bracket_sum`` hands to ``_contract_rows``, derivative rows included.

The oracle of ``standard.fixes(phi, u, s)`` is its definition,
``apply(phi, u) == s * u``, over every catalog map, linear and antilinear,
at shift 0 and 1/3 and both epsilons, the real-form conjugations and
``verify_hat``'s exp-conjugated maps.

The number of examples comes from the hypothesis profile (``conftest.py``).
"""

import math
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, strategies as st

import kmforge.affine as affine
import kmforge.verify as verify
from kmforge.affine import AffineElement, bracket_sum
from kmforge.catalog import catalog_for
from kmforge.element import (AlgebraElement, IntRows, _blocks, _canonical, _contract,
                             _contract_rows, _segments, _segs, _sum_pairs)
from kmforge.errors import TwistMismatchError
from kmforge.field import CyclotomicNumber, _lift_nums, check_level, field_degree, zeta_power
from kmforge.liealg import builtin_algebra
from kmforge.loop import LoopElement, TwistContext
from kmforge.realforms import enumerate_real_forms
from kmforge.standard import apply, conjugate, fixes, pointwise

# -- verbatim copies of the replaced code ---------------------------------------


def old_int_rows_apply(self, x):
    """The matrix times the coordinate vector of x, as an element at
    lcm(self.level, x.level)."""
    level = self.level if x.level == self.level else math.lcm(self.level, x.level)
    nums = x.nums_at(level)  # checks the level before any table is built
    rows = self.rows
    if level != self.level:
        step = level // self.level
        rows = [[None if e is None else _lift_nums(e, step, level) for e in row]
                for row in rows]
    alg = x.algebra
    den = self.den * x.den
    n = len(nums) // alg.dim
    xs = _segs(x) if level == x.level else _segments(nums, n)
    if level == 4:
        out = []
        for row in rows:
            r0 = r1 = 0
            for k, (y0, y1) in xs:
                e = row[k]
                if e is not None:
                    a0, a1 = e
                    r0 += a0 * y0 - a1 * y1
                    r1 += a0 * y1 + a1 * y0
            out.append(r0)
            out.append(r1)
        return _canonical(alg, 4, out, den)
    terms = [(((i, 1),), e, seg) for i, row in enumerate(rows) for k, seg in xs
             for e in (row[k],) if e is not None]
    return _canonical(alg, level, _contract(level, n, len(rows), terms), den)


def old_sum_pairs(table, size, pairs, every):
    """(level, nums, den): ``size`` numerator segments over ``den`` of the sum
    of w * T(x, y) over the (w, (x, xsegs), (y, ysegs)) in ``pairs``, where
    output k of T(x, y) sums c * x_i * y_j over the (k, c) in table[i][j].
    den is the lcm of the pairs' x.den * y.den, and each pair's products are
    scaled to it by den // (x.den * y.den); nums need not be in lowest terms.
    The level is lcm(4, the levels of every pair) when ``every`` is true, and
    otherwise of the pairs whose nonzero coordinates meet a nonzero entry."""
    den = math.lcm(*[x.den * y.den for _, (x, _), (y, _) in pairs])
    top = math.lcm(4, *[v.level for _, (x, _), (y, _) in pairs for v in (x, y)])
    if top == 4:
        r0, r1 = [0] * size, [0] * size
        for w, (x, xs), (y, ys) in pairs:
            m = w * (den // (x.den * y.den))
            for i, (x0, x1) in xs:
                row = table[i]
                for j, (y0, y1) in ys:
                    cs = row[j]
                    if cs:
                        p0, p1 = m * (x0 * y0 - x1 * y1), m * (x0 * y1 + x1 * y0)
                        for k, c in cs:
                            r0[k] += c * p0
                            r1[k] += c * p1
        return 4, [v for pair in zip(r0, r1) for v in pair], den
    level, met = top if every else 4, []
    for w, (x, xs), (y, ys) in pairs:
        hits = [(cs, a, b) for i, a in xs for j, b in ys for cs in (table[i][j],) if cs]
        if hits:
            level = math.lcm(level, x.level, y.level)
            met.append((w * (den // (x.den * y.den)), x.level, y.level, hits))
    n = check_level(level)
    terms = [(cs if m == 1 else tuple((k, m * c) for k, c in cs),
              a if lx == level else _lift_nums(a, level // lx, level),
              b if ly == level else _lift_nums(b, level // ly, level))
             for m, lx, ly, hits in met for cs, a, b in hits]
    return level, _contract(level, n, size, terms), den


def old_contract_rows(alg, groups):
    """{k: groups[k]'s (w, x block, y block) contracted with ``int_pairs``}."""
    out = {}
    for k, pairs in groups.items():
        level, nums, den = old_sum_pairs(alg.int_pairs, alg.dim, pairs, True)
        out[k] = _canonical(alg, level, nums, den * alg.scale)
    return out


# -- inputs -------------------------------------------------------------------

ALGEBRAS = st.sampled_from(("sl2C", "sl3C")).map(builtin_algebra)
KERNEL_LEVELS = st.sampled_from((4, 8, 12, 24))
RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


def scalars(level):
    """A cyclotomic scalar at ``level``, denominators up to 4, often zero."""
    return st.one_of(st.just(CyclotomicNumber.zero()), st.lists(
        RATIONAL, min_size=field_degree(level), max_size=field_degree(level)).map(
            lambda coords: CyclotomicNumber(level, coords)))


def elements(alg, levels):
    """An element whose coordinates sit at levels drawn from ``levels``."""
    return st.lists(levels.flatmap(scalars), min_size=alg.dim, max_size=alg.dim).map(
        lambda coords: AlgebraElement(alg, coords))


def _exact(x):
    return x.level, tuple(x.nums), x.den


# -- (1) the conjugation inside IntRows.apply --------------------------------------


@given(data=st.data())
def test_a_conjugating_apply_matches_the_apply_of_the_conjugate(data):
    alg = data.draw(ALGEBRAS)
    level, xlevel = data.draw(KERNEL_LEVELS), data.draw(KERNEL_LEVELS)
    matrix = data.draw(st.lists(st.lists(scalars(level), min_size=alg.dim, max_size=alg.dim),
                                min_size=alg.dim, max_size=alg.dim))
    # rows at ``level`` exactly, and a second element at ``xlevel`` exactly:
    # one entry or coordinate carries zeta at that level
    matrix[0][0] = matrix[0][0] + zeta_power(level, 1)
    rows = IntRows(matrix)
    assert rows.level == level
    x = data.draw(elements(alg, st.just(xlevel)))
    for y in (x, x + alg.basis_element(0, xlevel) * zeta_power(xlevel, 1)):
        assert _exact(rows.apply(y, True)) == _exact(old_int_rows_apply(rows, y.conj()))
        assert _exact(rows.apply(y)) == _exact(old_int_rows_apply(rows, y))
        level_, nums, den = rows.product(y, True)
        assert _exact(_canonical(alg, level_, nums, den)) == _exact(rows.apply(y, True))


@pytest.mark.parametrize("algebra", ["sl2C", "sl3C"])
def test_an_antilinear_automorphism_conjugates_inside_the_kernel(algebra):
    cat = catalog_for(algebra)
    alg = cat.algebra
    omega = cat.omega()
    autos = [omega.compose(cat.named(name)) for name in cat.names()]
    assert all(a.antilinear for a in autos)
    rng = random.Random(5)
    for level in (4, 8, 12, 24):
        for _ in range(4):
            x = AlgebraElement(alg, [CyclotomicNumber(level, [
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(field_degree(level))])
                for _ in range(alg.dim)])
            for auto in autos:
                assert _exact(auto.apply(x)) == _exact(old_int_rows_apply(auto.int_rows(), x.conj()))


# -- (2) one pass per contraction ---------------------------------------------------

GROUP_LEVELS = st.sampled_from(((4,), (8,), (4, 8, 12)))


@st.composite
def groups(draw, alg):
    """Up to four exponent groups of (w, x block, y block): weights from -3 to
    3 (0 makes a zero row), mixed denominators, and zero brackets."""
    levels = st.sampled_from(draw(GROUP_LEVELS))
    out = {}
    for k in draw(st.lists(st.integers(-3, 3), max_size=4, unique=True)):
        pairs = []
        for _ in range(draw(st.integers(1, 3))):
            x = draw(elements(alg, levels))
            y = x * draw(RATIONAL) if draw(st.booleans()) else draw(elements(alg, levels))
            _, blocks = _blocks([x, y])
            pairs.append((draw(st.integers(-3, 3)), *blocks))
        out[k] = pairs
    return out


def _same_rows(new, old):
    assert new.keys() == old.keys()
    assert {k: _exact(x) for k, x in new.items()} == {k: _exact(x) for k, x in old.items()}


@given(data=st.data())
def test_one_pass_contraction_matches_one_sum_a_group(data):
    alg = data.draw(ALGEBRAS)
    gs = data.draw(groups(alg))
    _same_rows(_contract_rows(alg, gs), old_contract_rows(alg, gs))
    for pairs in gs.values():
        for table, size, every in ((alg.int_pairs, alg.dim, True),
                                   (alg.killing_pairs, 1, False)):
            level, nums, den = _sum_pairs(table, size, pairs, every)
            old_level, old_nums, old_den = old_sum_pairs(table, size, pairs, every)
            assert (level, list(nums), den) == (old_level, list(old_nums), old_den)


@cache
def _contexts():
    """Both twists of ``verify._twists_for`` on sl2C and sl3C, and the sl3C
    source that ``verify_hat``'s exp conjugator moves its maps onto."""
    out = [TwistContext(builtin_algebra(name), sigma, D=D)
           for name in ("sl2C", "sl3C") for _, sigma, D in verify._twists_for(name)]
    sl3 = builtin_algebra("sl3C")
    moved = verify._exp_conjugator(TwistContext(sl3, verify.catalog_for("sl3C").named("id"), D=2))
    return tuple(out) + (moved.target,)


CONTEXT = st.integers(0, 4).map(lambda i: _contexts()[i])


@st.composite
def loops(draw, ctx, levels):
    """A loop of up to four terms, each a combination of the eigenbasis at
    its exponent with scalars at levels from ``levels``; possibly empty."""
    terms = {}
    for k in draw(st.lists(st.integers(-4, 4), max_size=4, unique=True)):
        basis = ctx.eigenbasis_for_exponent(k)
        if basis:
            x = ctx.algebra.zero_element()
            for b in basis:
                x = x + draw(levels.flatmap(scalars)) * b
            terms[k] = x
    return LoopElement(ctx, terms)


def d_coefs(levels):
    """Zero, a rational, or a cyclotomic scalar."""
    return st.one_of(st.just(0), RATIONAL, levels.flatmap(scalars))


@given(data=st.data())
def test_the_hat_bracket_groups_contract_alike(data):
    ctx = data.draw(CONTEXT)
    levels = st.sampled_from(data.draw(GROUP_LEVELS))
    pairs = [(AffineElement(data.draw(loops(ctx, levels)), 0, data.draw(d_coefs(levels))),
              AffineElement(data.draw(loops(ctx, levels)), 0, data.draw(d_coefs(levels))))
             for _ in range(data.draw(st.integers(1, 3)))]
    seen = []

    def recording(alg, gs):
        seen.append((alg, gs))
        return _contract_rows(alg, gs)

    affine._contract_rows = recording
    try:
        bracket_sum(pairs)
    finally:
        affine._contract_rows = _contract_rows
    [(alg, gs)] = seen
    _same_rows(_contract_rows(alg, gs), old_contract_rows(alg, gs))


# -- (3) fixes without an image --------------------------------------------------------


@cache
def _maps(i):
    """Every catalog map on context i, linear and antilinear (omega after
    it), at both epsilons and shifts 0 and 1/3."""
    ctx = _contexts()[i]
    cat = catalog_for(ctx.algebra.name)
    return tuple(pointwise(ctx, base, eps, shift)
                 for name in cat.names()
                 for base in (cat.named(name), cat.omega().compose(cat.named(name)))
                 for eps in (1, -1) for shift in (Fraction(0), Fraction(1, 3)))


@cache
def _special_maps():
    """The real-form conjugations and verify_hat's exp-conjugated maps."""
    out = []
    for algebra in ("sl2C", "sl3C"):
        out += [desc.conjugation for desc in enumerate_real_forms(algebra)]
        cat = catalog_for(algebra)
        ctx = TwistContext(cat.algebra, cat.named("id"), D=2)
        psi = verify._exp_conjugator(ctx)
        out += [psi] + [conjugate(psi, pointwise(ctx, cat.named(name)))
                        for name in cat.involutions()]
    assert any(phi.exp is not None for phi in out)
    return tuple(out)


def _orbit_sum(phi, w, sign, bound=12):
    """The sum of sign^i phi^i(w) over i below the first n <= bound with
    phi^n(w) = w and sign^n = 1, so that phi maps it to sign times itself;
    w when there is none, or phi changes the context."""
    if phi.target != phi.source:
        return w
    acc, image = w, w
    for n in range(1, bound + 1):
        image = apply(phi, image)
        if image == w and sign ** n == 1:
            return acc
        acc = acc + image * sign ** n
    return w


def _cases(phi, w):
    """(u, sign) pairs drawn from w: the zero loop, w itself, its orbit sums,
    an orbit sum with one term dropped, and one pushed off by w."""
    out = [(LoopElement._trusted(w.context, {}), 1)]
    for sign in (1, -1):
        u = _orbit_sum(phi, w, sign)
        out += [(w, sign), (u, sign), (u + w, sign)]
        if len(u.terms) > 1:
            out.append((LoopElement._trusted(u.context, dict(u.terms[1:])), sign))
    return out


@given(data=st.data())
def test_fixes_is_apply_against_a_sign_multiple(data):
    i = data.draw(st.integers(0, 4))
    phi = data.draw(st.sampled_from(_maps(i) + _special_maps()))
    levels = st.sampled_from(data.draw(st.sampled_from(((4,), (8,), (4, 8, 12)))))
    w = data.draw(loops(phi.source, levels))
    for u, sign in _cases(phi, w):
        assert fixes(phi, u, sign) == (apply(phi, u) == sign * u)


def test_fixes_draws_both_verdicts_on_every_map_kind():
    """Seeded loops at mixed levels over every map: each of linear,
    antilinear and exp maps, and each sign, gives both verdicts, and a
    support that is not closed under k -> eps*k gives False."""
    rng = random.Random(3)
    verdicts = set()
    # some maps change the twist: their images are never a multiple of u
    assert any(phi.target != phi.source for phi in _maps(3))
    for phi in sum((_maps(i) for i in range(5)), ()) + _special_maps():
        ctx = phi.source
        terms = {}
        for k in range(-3, 4):
            for j, b in enumerate(ctx.eigenbasis_for_exponent(k)):
                level = (4, 8, 12)[(k + j) % 3]
                c = CyclotomicNumber(level, [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                                             for _ in range(field_degree(level))])
                terms[k] = terms[k] + c * b if k in terms else c * b
        w = LoopElement(ctx, terms)
        kind = "exp" if phi.exp is not None else "anti" if phi.antilinear else "linear"
        for u, sign in _cases(phi, w):
            got = fixes(phi, u, sign)
            assert got == (apply(phi, u) == sign * u)
            verdicts.add((kind, sign, got))
        eps = -phi.epsilon if phi.antilinear else phi.epsilon
        if phi.exp is None and eps == -1:
            # one term at a nonzero exponent k whose -k is missing
            k, x = next((k, x) for k, x in w.terms if k)
            assert not fixes(phi, LoopElement._trusted(ctx, {k: x}))
    assert verdicts == {(kind, sign, got) for kind in ("linear", "anti", "exp")
                        for sign in (1, -1) for got in (True, False)}


def test_fixes_refuses_a_loop_of_another_context():
    a, b = _contexts()[0], _contexts()[1]
    assert a != b
    u = LoopElement(b, {0: b.eigenbasis_for_exponent(0)[0]})
    for phi in _maps(0):
        with pytest.raises(TwistMismatchError):
            apply(phi, u)
        with pytest.raises(TwistMismatchError):
            fixes(phi, u)
