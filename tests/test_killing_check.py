"""The Killing-form automorphism check against the check it replaced.

``check_automorphism`` tests kappa(A e_i, A e_j) == kappa(e_i, e_j) on the
columns of A, then the bracket, with products only.  ``old_check`` is the
check as it read when it inverted the matrix to learn that it is invertible,
kept verbatim as the oracle: both must give one answer on drawn maps of
either flag at mixed levels, on products of catalog maps and omega after
torus maps, on those with a zero, scaled or perturbed row, on the zero map,
and over a table whose structure constants and Killing entries are
Fractions.

The time-bounded tests decode dense maps near the top of the field levels,
where the inverse ran for minutes.  Their bounds are on the CPU time of this
process, so a busy host does not fail them.
"""

import functools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kmforge import jsonio, linalg
from kmforge.catalog import catalog_for
from kmforge.cli import main
from kmforge.field import CyclotomicNumber, field_degree, zeta_power
from kmforge.liealg import (
    AlgebraElement,
    FiniteAutomorphism,
    LieAlgebraTable,
    bracket,
    builtin_algebra,
    builtin_matrices,
    check_automorphism,
)

from test_linalg import automorphisms


def old_check(auto):
    """True iff the map is invertible and preserves the bracket."""
    alg = auto.algebra
    d = alg.dim
    try:
        linalg.invert([list(r) for r in auto.matrix])
    except ValueError:
        return False
    cols = [AlgebraElement(alg, tuple(auto.matrix[i][j] for i in range(d))) for j in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            lhs = auto.apply(bracket(alg.basis_element(i), alg.basis_element(j)))
            rhs = bracket(cols[i], cols[j])
            if lhs != rhs:
                return False
    return True


def _same_answer(auto):
    answer = check_automorphism(auto)
    assert answer == old_check(auto)
    return answer


# -- automorphisms at mixed levels, and maps broken from them -----------------


def torus(alg, ts):
    """Ad diag(t_1, ..., t_n) on the built-in sl(n) table ``alg``, for roots
    of unity t (so 1/t is conj(t)): E_rs -> (t_r / t_s) E_rs, h fixed."""
    diag = []
    for b in builtin_matrices(alg.name):
        cells = [(r, s) for r, row in enumerate(b) for s, x in enumerate(row) if x]
        diag.append(ts[cells[0][0]] * ts[cells[0][1]].conj() if len(cells) == 1 else 1)
    return FiniteAutomorphism(alg, [[diag[i] if i == j else 0 for j in range(alg.dim)]
                                    for i in range(alg.dim)])


@st.composite
def true_automorphisms(draw, name):
    """A torus map, whose scalars are roots of unity at levels 4, 12 and 20,
    after the product of two catalog maps or omega: an automorphism of
    either flag."""
    alg, cat = builtin_algebra(name), catalog_for(name)
    bases = st.sampled_from([cat.named(n) for n in cat.names()] + [cat.omega()])
    n = 2 if alg.dim == 3 else 3
    ts = [zeta_power(level, draw(st.integers(0, level - 1)))
          for level in draw(st.lists(st.sampled_from((4, 12, 20)), min_size=n, max_size=n))]
    return torus(alg, ts).compose(draw(bases).compose(draw(bases)))


BREAKS = ("zero map", "zero row", "scaled row", "perturbed row", "negated", "scaled")


def broken(auto, kind, row, c):
    """``auto`` with one change of ``kind``; c is a nonzero scalar != 1.  The
    negated map -A is invertible and keeps the Killing form, so only the
    bracket half refuses it; c * A is invertible and changes kappa unless
    c^2 = 1."""
    d = auto.algebra.dim
    m = [list(r) for r in auto.matrix]
    if kind == "zero map":
        m = [[0] * d for _ in range(d)]
    elif kind == "zero row":
        m[row] = [0] * d
    elif kind == "scaled row":
        m[row] = [c * x for x in m[row]]
    elif kind == "perturbed row":
        m[row] = [x + c for x in m[row]]
    elif kind == "negated":
        m = [[-x for x in r] for r in m]
    else:
        m = [[c * x for x in r] for r in m]
    return FiniteAutomorphism(auto.algebra, m, antilinear=auto.antilinear)


_nonunit = st.one_of(
    st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 3)]),
    st.sampled_from((8, 12, 20)).flatmap(
        lambda level: st.integers(1, level - 1).map(lambda k: zeta_power(level, k))))


@given(automorphisms())
def test_drawn_maps_get_the_old_answer(f):
    _same_answer(f)


@given(st.sampled_from(("sl2C", "sl3C")).flatmap(true_automorphisms), st.data())
def test_automorphisms_and_their_breakings_get_the_old_answer(auto, data):
    assert _same_answer(auto)
    kind = data.draw(st.sampled_from(BREAKS))
    row = data.draw(st.integers(0, auto.algebra.dim - 1))
    answer = _same_answer(broken(auto, kind, row, data.draw(_nonunit)))
    if kind in ("zero map", "zero row", "negated"):
        assert not answer


@pytest.mark.parametrize("name", ["sl2C", "sl3C", "su2", "su3"])
def test_the_zero_map_and_minus_the_identity_are_refused(name):
    # on su2 and su3 the Killing matrix is diagonal, so only its diagonal
    # entries refuse the zero map
    alg = builtin_algebra(name)
    for kind in ("zero map", "negated", "scaled row"):
        for flag in (False, True):
            auto = broken(FiniteAutomorphism(alg, alg.identity.matrix, flag), kind, 0, 2)
            assert not check_automorphism(auto) and not old_check(auto)


# -- a table that is not built in, with Fraction constants and Killing entries


P = (Fraction(1, 3), Fraction(1, 4), Fraction(1))


@functools.cache
def scaled_sl2():
    """sl2C on the basis (e/3, h/4, f): [b_i, b_j] = sum of p_i p_j c_ijk / p_k
    b_k, so the constants are over 6 and kappa(e/3, f) = 4/3, kappa(h/4, h/4)
    = 1/2."""
    sl2 = builtin_algebra("sl2C")
    structure = [[[P[i] * P[j] * c / P[k] for k, c in enumerate(row)]
                  for j, row in enumerate(plane)] for i, plane in enumerate(sl2.structure)]
    return LieAlgebraTable("sl2C/scaled", structure, ("e/3", "h/4", "f"), "complex", False)


def transported(auto):
    """A map of sl2C as a map of ``scaled_sl2()``: P^-1 A P for P = diag(p)."""
    return FiniteAutomorphism(scaled_sl2(), [[x * P[j] / P[i] for j, x in enumerate(row)]
                                             for i, row in enumerate(auto.matrix)],
                              antilinear=auto.antilinear)


def test_the_scaled_table_has_fraction_constants_and_killing_entries():
    table = scaled_sl2()
    assert table.scale == 6
    assert table.killing[0][2] == Fraction(4, 3) and table.killing[1][1] == Fraction(1, 2)


@given(automorphisms("sl2C"))
def test_drawn_maps_of_a_fraction_table_get_the_old_answer(f):
    assert _same_answer(transported(f)) == old_check(f)


@given(true_automorphisms("sl2C"), st.sampled_from(BREAKS), st.integers(0, 2), _nonunit)
def test_automorphisms_of_a_fraction_table_get_the_old_answer(auto, kind, row, c):
    assert _same_answer(transported(auto))
    _same_answer(broken(transported(auto), kind, row, c))


# -- dense maps near the top of the field levels, in bounded time -------------


def _dense(level, base, mod):
    """A value whose phi(level) coordinates, base^j mod ``mod`` mod 19 less
    9 with 1 for 0, are all nonzero and follow no short period."""
    return CyclotomicNumber(level, [pow(base, j, mod) % 19 - 9 or 1
                                    for j in range(field_degree(level))])


def _cpu_seconds(fn, *args):
    t0 = time.process_time()
    out = fn(*args)
    return out, time.process_time() - t0


@functools.cache
def ad_diag_256():
    """Ad diag(a, 1) on sl2C, e -> a e and f -> f / a, with a dense at level
    256, and its inverse Ad diag(1/a, 1)."""
    sl2 = builtin_algebra("sl2C")
    a = _dense(256, 3, 1009)
    b = a.inverse()
    return (FiniteAutomorphism(sl2, [[a, 0, 0], [0, 1, 0], [0, 0, b]]),
            FiniteAutomorphism(sl2, [[b, 0, 0], [0, 1, 0], [0, 0, a]]))


def test_a_dense_level_256_automorphism_is_decoded_within_a_second():
    # the inverse the old check made took about a minute
    ad, _ = ad_diag_256()
    decoded, seconds = _cpu_seconds(jsonio.dec_automorphism, jsonio.enc_automorphism(ad))
    assert decoded == ad
    assert seconds < 1


def test_a_dense_conjugate_of_mu_is_equivalent_to_itself_within_5_seconds(tmp_path, capsys):
    # four decodes of Ad diag(a, 1) mu Ad diag(a, 1)^-1; each old check took
    # minutes
    ad, ad_inv = ad_diag_256()
    conj = ad.compose(catalog_for("sl2C").named("mu")).compose(ad_inv)
    doc = {"kind": "second", "algebra": "sl2C", "q": 2,
           "plus_matrix": jsonio.enc_automorphism(conj),
           "minus_matrix": jsonio.enc_automorphism(conj)}
    path = tmp_path / "second.json"
    path.write_text(json.dumps(doc))
    code, seconds = _cpu_seconds(main, ["auto", "equivalent", "--a", str(path), "--b", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"equal": True}
    assert seconds < 5


def _sl3_coordinates(m):
    """The coordinates of a traceless 3 x 3 matrix in the sl3C basis (e12,
    e13, e23, e21, e31, e32, h1, h2), with h1 = E11 - E22, h2 = E22 - E33."""
    assert not m[0][0] + m[1][1] + m[2][2]
    return (m[0][1], m[0][2], m[1][2], m[1][0], m[2][0], m[2][1], m[0][0], -m[2][2])


def test_a_dense_level_1024_unipotent_conjugation_is_accepted_within_3_seconds():
    # Ad g for g = I + a E13 + b E23, a and b dense at level 1024: g^-1 is
    # I - a E13 - b E23, and 23 of the 64 map entries are nonzero
    a, b = _dense(1024, 3, 1009), _dense(1024, 5, 1013)
    one, zero = CyclotomicNumber.one(), CyclotomicNumber.zero()
    g = [[one, zero, a], [zero, one, b], [zero, zero, one]]
    g_inv = [[one, zero, -a], [zero, one, -b], [zero, zero, one]]
    cols = [_sl3_coordinates(linalg.mat_mul(linalg.mat_mul(g, m), g_inv))
            for m in builtin_matrices("sl3C")]
    ad = FiniteAutomorphism(builtin_algebra("sl3C"), [list(r) for r in zip(*cols)])
    assert sum(1 for row in ad.matrix for x in row if x) == 23
    decoded, seconds = _cpu_seconds(jsonio.dec_automorphism, jsonio.enc_automorphism(ad))
    assert decoded == ad
    assert seconds < 3

