import json
import random
from fractions import Fraction

import pytest

from kmforge import jsonio
from kmforge.affine import AffineElement
from kmforge.catalog import catalog_for
from kmforge.errors import InvalidInputError
from kmforge.field import imaginary_unit, zeta_power
from kmforge.invariants import extract_invariant_second, realize_first, realize_second
from kmforge.liealg import FiniteAutomorphism, builtin_algebra
from kmforge.loop import LoopElement, TwistContext
from kmforge.standard import apply, standard_order

SL2 = builtin_algebra("sl2C")
CAT = catalog_for("sl2C")


def test_rational_round_trip():
    q = Fraction(-22, 7)
    assert jsonio.dec_rational(jsonio.enc_rational(q)) == q
    assert jsonio.enc_rational(q) == ["-22", "7"]


def test_cyclo_round_trip():
    x = 2 + 3 * zeta_power(8, 1) - zeta_power(8, 3) * Fraction(1, 2)
    enc = jsonio.enc_cyclo(x)
    assert jsonio.dec_cyclo(enc) == x
    # a forced level lifts every nested scalar and leaves the other keys alone
    doc = {"D": 2, "terms": [{"k": 1, "coeff": enc}], "level": 4}
    lifted = jsonio.lift_scalars(doc, 24)
    assert lifted["D"] == 2 and lifted["level"] == 4 and lifted["terms"][0]["k"] == 1
    assert lifted["terms"][0]["coeff"]["level"] == 24
    assert jsonio.dec_cyclo(lifted["terms"][0]["coeff"]) == x
    assert jsonio.lift_scalars(doc, 12)["terms"][0]["coeff"]["level"] == 24
    assert enc["level"] == 8  # the input document is not changed


def test_cyclo_decode_validates():
    with pytest.raises(InvalidInputError):
        jsonio.dec_cyclo({"level": 4, "coords": [["1", "1"]]})


def test_element_and_automorphism_round_trip():
    x = SL2.element([1, imaginary_unit() * Fraction(1, 2), -2])
    assert jsonio.dec_element(jsonio.enc_element(x)) == x
    for name in ("tau", "mu", "r4"):
        a = CAT.named(name)
        enc = jsonio.enc_automorphism(a)
        assert enc["name"] == name
        assert jsonio.dec_automorphism(enc) == a
    omega = CAT.omega()
    enc = jsonio.enc_automorphism(omega)
    assert enc["antilinear"]
    assert jsonio.dec_automorphism(enc) == omega
    assert jsonio.dec_automorphism({"algebra": "sl2C", "name": "mu"}) == CAT.named("mu")


def test_loop_and_affine_round_trip():
    ctx = TwistContext(SL2, CAT.named("tau"), D=2)
    u = LoopElement(ctx, {1: SL2.basis_element(0)}) + LoopElement(ctx, {-2: SL2.basis_element(1)})
    enc = jsonio.enc_loop(u)
    assert jsonio.dec_loop(enc) == u
    x = AffineElement(u, Fraction(1, 2), -3)
    assert jsonio.dec_affine(jsonio.enc_affine(x)) == x


def test_loop_decode_rejects_a_repeated_exponent():
    # a dict of terms would keep only the last of two terms at k = 1
    ctx = TwistContext(SL2, CAT.named("tau"), D=2)
    enc = jsonio.enc_loop(LoopElement(ctx, {1: SL2.basis_element(0)}))
    enc["terms"].append({"k": 1, "coeff": jsonio.enc_element(SL2.basis_element(2))})
    with pytest.raises(InvalidInputError, match="repeated"):
        jsonio.dec_loop(enc)
    enc["terms"][1]["k"] = -1
    assert jsonio.dec_loop(enc) == LoopElement(
        ctx, {1: SL2.basis_element(0), -1: SL2.basis_element(2)})


def test_standard_round_trip_constant():
    _, phi = realize_first("sl2C", 1, "id", "id", 2)
    enc = jsonio.enc_standard(phi)
    back = jsonio.dec_standard(enc)
    assert back.epsilon == phi.epsilon
    assert back.shift == phi.shift
    assert back.base == phi.base
    assert back.source == phi.source
    assert standard_order(back) == 2


def test_standard_round_trip_second_kind():
    _, phi = realize_second("sl2C", "mu", "id")
    back = jsonio.dec_standard(jsonio.enc_standard(phi))
    inv = extract_invariant_second(back, 2)
    assert inv.plus_name == "mu" and inv.minus_name == "id"


def test_standard_round_trip_exp_curve():
    from kmforge.liealg import exp_curve
    from kmforge.standard import standard_automorphism

    ctx = TwistContext(SL2, CAT.named("tau"), D=2)
    x = SL2.element([0, imaginary_unit() * Fraction(1, 4), 0])
    curve = exp_curve(x, [Fraction(1, 2), Fraction(0), Fraction(-1, 2)])
    psi = standard_automorphism(1, Fraction(0),
                                FiniteAutomorphism.identity(SL2), ctx, exp=curve)
    back = jsonio.dec_standard(jsonio.enc_standard(psi))
    rng = random.Random(3)
    u = LoopElement(ctx, {1: SL2.basis_element(0) * Fraction(rng.randint(1, 5))})
    assert apply(back, u) == apply(psi, u)


def test_loop_map_with_scaling():
    _, phi = realize_first("sl2C", 0, "mu", "id", 2)
    obj = jsonio.enc_standard(phi)
    obj["tau_r"] = jsonio.enc_rational(Fraction(2))
    composed = jsonio.dec_loop_map(obj)
    from kmforge.standard import ScaledMap

    assert isinstance(composed, ScaledMap)
    obj["tau_r"] = jsonio.enc_rational(Fraction(1))
    assert not isinstance(jsonio.dec_loop_map(obj), ScaledMap)


def test_invariant_round_trips():
    from kmforge.invariants import FirstKindInvariant

    inv = FirstKindInvariant("sl2C", 2, 0, "mu", "tau")
    assert jsonio.dec_invariant(jsonio.enc_invariant(inv)) == inv
    _, phi = realize_second("sl2C", "mu", "mu")
    inv2 = extract_invariant_second(phi, 2)
    back = jsonio.dec_invariant(jsonio.enc_invariant(inv2))
    assert back.plus == inv2.plus and back.minus == inv2.minus


def test_table_encoding_is_json_serializable():
    doc = json.dumps(jsonio.enc_table(builtin_algebra("su2")), sort_keys=True)
    parsed = json.loads(doc)
    assert parsed["compact"] is True
    assert parsed["killing"][0][0] == ["-8", "1"]
