import contextlib
import io
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmforge import cli, jsonio, verify
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


# -- the indented writer against json.dumps ----------------------------------


def _stdlib(value):
    return json.dumps(value, sort_keys=True, indent=2)


# quotes, backslashes, control characters, non-ASCII and astral characters
_specials = '"\\/\x00\x1f\x7f\b\f\n\r\t\u2028éß€\U0001d11e'
_text = st.text(alphabet=st.one_of(st.characters(exclude_categories=("Cs",)),
                                   st.sampled_from(_specials)))
_leaves = st.one_of(_text, st.integers(), st.integers(min_value=-10 ** 60, max_value=-10 ** 40),
                    st.booleans(), st.none(), st.floats())
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_text, inner, max_size=4),
        # keys json writes as strings; bool and int keys sort together
        st.dictionaries(st.one_of(st.integers(), st.booleans()), inner, max_size=4),
        # two NaN keys would sort by their values, which may not compare
        st.dictionaries(st.floats(allow_nan=False), inner, max_size=3),
        st.dictionaries(st.none(), inner, max_size=1)),
    max_leaves=40)


@given(_values)
@example([[], {}, (), {"a": [], "b": {}}, ""])
@example([-(10 ** 50), True, False, None, 0])
@example({1: "x", True: "y", 2: "z"})
@example({None: 1})
def test_dumps_writes_the_text_of_json_dumps(value):
    assert jsonio.dumps(value) == _stdlib(value)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, [Fraction(1)], {"a": {"b": {3}}},
                                   {(1, 2): "tuple key"}])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        _stdlib(value)
    with pytest.raises(TypeError):
        jsonio.dumps(value)


@pytest.mark.parametrize("path", sorted(pathlib.Path(__file__).parent.glob("golden_*.json")),
                         ids=lambda p: p.name)
def test_dumps_writes_every_golden_document_as_json_does(path):
    doc = json.loads(path.read_text())
    assert jsonio.dumps(doc) == _stdlib(doc)


def test_every_cli_document_is_the_text_of_json_dumps(tmp_path, monkeypatch):
    """Every payload ``cli.main`` writes, tuples and all, is checked before it
    is written: each verify suite at its defaults, classify, and the auto
    commands, an error document included."""
    written = []
    dumps = jsonio.dumps

    def checked(payload):
        text = dumps(payload)
        assert text == _stdlib(payload)
        written.append(text)
        return text

    monkeypatch.setattr(jsonio, "dumps", checked)
    phi, inv = str(tmp_path / "phi.json"), str(tmp_path / "inv.json")
    commands = [["verify", suite] for suite in sorted(verify.SUITES)] + [
        ["classify", "involutions", "--algebra", "sl2C"],
        ["classify", "involutions", "--algebra", "sl3C"],
        ["classify", "realforms", "--algebra", "sl3C"],
        ["auto", "realize", "--algebra", "sl2C", "--kind", "first", "--q", "4", "--p", "1",
         "--rho", "id", "--beta", "id", "--out", phi],
        ["auto", "realize", "--algebra", "sl2C", "--kind", "second", "--plus", "mu",
         "--minus", "id"],
        ["auto", "invariant", "--in", phi, "--out", inv],
        ["auto", "order", "--in", phi],
        ["auto", "equivalent", "--a", inv, "--b", inv],
        ["auto", "order", "--in", str(tmp_path / "missing.json")],
    ]
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(argv)
        if "--out" not in argv:
            assert out.getvalue() == written[-1] + "\n"
    assert len(written) == len(commands)
