"""Standard-map documents pinned byte for byte.

``golden_maps.json`` holds the ``enc_standard`` document of catalog maps of
both kinds, the pointwise compact conjugation, and an exponential-curve map
u(t) -> e^{ad tX}(u(t + 2*pi/3)) with X = (i/2) h on the tau-twisted sl2C
loop algebra, together with its compositions and inverse.  Any change to how
standard maps are built, composed, inverted or encoded must reproduce them.
"""

import functools
import json
import os
from fractions import Fraction

import pytest

from kmforge import cli, jsonio
from kmforge.catalog import catalog_for
from kmforge.field import imaginary_unit
from kmforge.invariants import realize_first, realize_second
from kmforge.liealg import FiniteAutomorphism, builtin_algebra, exp_curve
from kmforge.loop import LoopElement, TwistContext, slice_terms
from kmforge.standard import (
    apply,
    compose,
    inverse,
    is_identity_standard,
    pointwise,
    reflection,
    standard_automorphism,
)

SL2 = builtin_algebra("sl2C")
CAT = catalog_for("sl2C")

with open(os.path.join(os.path.dirname(__file__), "golden_maps.json")) as fh:
    GOLDEN = json.load(fh)


def _canon(doc):
    return json.dumps(doc, sort_keys=True)


def exp_map():
    ctx = TwistContext(SL2, CAT.named("tau"), D=2)
    x = SL2.element([0, imaginary_unit() * Fraction(1, 2), 0])
    curve = exp_curve(x, [Fraction(1), Fraction(0), Fraction(-1)])
    return standard_automorphism(1, Fraction(1, 3),
                                 FiniteAutomorphism.identity(SL2), ctx, exp=curve)


@functools.cache
def golden_maps():
    psi = exp_map()
    mu = CAT.named("mu")
    return {
        "first:sl2C:q=6:p=2:mu:tau": realize_first("sl2C", 2, "mu", "tau", 6)[1],
        "second:sl3C:mu:theta": realize_second("sl3C", "mu", "theta")[1],
        "pointwise:sl2C:omega": pointwise(TwistContext(SL2, CAT.named("id"), D=1), CAT.omega()),
        "exp:shift=1/3": psi,
        "exp:mu-after": compose(pointwise(psi.target, mu), psi),
        "exp:after-mu": compose(psi, pointwise(psi.source, mu)),
        "exp:inverse": inverse(psi),
        "exp:squared": compose(psi, psi),
        "exp:reflected": compose(reflection(psi.target), psi),
    }


def test_every_golden_map_is_built():
    assert sorted(golden_maps()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_standard_map_document_is_unchanged(name):
    assert _canon(jsonio.enc_standard(golden_maps()[name])) == _canon(GOLDEN[name])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_standard_map_document_round_trips(name):
    back = jsonio.dec_standard(GOLDEN[name])
    assert _canon(jsonio.enc_standard(back)) == _canon(GOLDEN[name])


def test_inverse_undoes_a_reflected_exponential_map():
    # epsilon = -1 with an exponential curve
    phi = golden_maps()["exp:reflected"]
    assert phi.epsilon == -1 and phi.exp is not None
    back = inverse(phi)
    assert is_identity_standard(compose(back, phi))
    for k, b in slice_terms(phi.source, 2 * phi.source.D):
        u = LoopElement(phi.source, {k: b})
        assert apply(back, apply(phi, u)) == u


_NO_INVARIANT = ('{\n  "error": {\n    "code": 2,\n    "message": "extraction needs a '
                 'constant curve; quasiconjugate first",\n    "type": "InvalidInputError"\n'
                 '  }\n}\n')


@pytest.mark.parametrize("name, command, code, stdout", [
    ("exp:shift=1/3", "order", 0, '{\n  "bound": 48,\n  "order": "unbounded"\n}\n'),
    ("exp:shift=1/3", "invariant", 2, _NO_INVARIANT),
    ("exp:mu-after", "order", 0, '{\n  "bound": 48,\n  "order": 6\n}\n'),
    ("exp:mu-after", "invariant", 2, _NO_INVARIANT),
    ("exp:inverse", "order", 0, '{\n  "bound": 48,\n  "order": "unbounded"\n}\n'),
])
def test_cli_on_exp_curve_documents(tmp_path, capsys, name, command, code, stdout):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(GOLDEN[name]))
    assert cli.main(["auto", command, "--in", str(path)]) == code
    out, err = capsys.readouterr()
    assert (out, err) == (stdout, "")
