"""kmforge's value types refuse ``del`` as they refuse assignment.

A deleted slot, the lazily filled caches included (``AlgebraElement.segs``,
``FiniteAutomorphism._rows``, ``._key`` and ``._lifted``), would leave a
value that fails on its next read.  Each case deletes every slot of a value whose caches are
filled, expects ``AttributeError`` each time, and then compares the value
with a fresh copy and reads its caches again.
"""

from fractions import Fraction

import pytest

from kmforge.affine import AffineElement
from kmforge.element import _segs
from kmforge.field import CyclotomicNumber, zeta_power
from kmforge.liealg import FiniteAutomorphism, builtin_algebra
from kmforge.loop import LoopElement, TwistContext

SL2 = builtin_algebra("sl2C")


def _cyclo():
    return CyclotomicNumber(12, [1, Fraction(2, 3), 0, -1])


def _element():
    x = SL2.element([1, Fraction(-1, 2), zeta_power(8, 1)])
    _segs(x)
    return x


def _automorphism():
    auto = FiniteAutomorphism(SL2, [[0, 0, -1], [0, -1, 0], [-1, 0, 0]])
    auto.int_rows()
    auto._entry_key()
    assert auto == _at_level_8(auto)  # fills _lifted
    return auto


def _at_level_8(auto):
    return FiniteAutomorphism(SL2, [[x.lift(8) for x in row] for row in auto.matrix])


def _loop():
    ctx = TwistContext(SL2, FiniteAutomorphism.identity(SL2), D=1)
    return LoopElement(ctx, {1: SL2.basis_element(1), -2: SL2.basis_element(0)})


def _affine():
    return AffineElement(_loop(), Fraction(1, 3), 2)


def _reread(value):
    """Read every cache of ``value`` again."""
    if isinstance(value, FiniteAutomorphism):
        value.int_rows()
        value._entry_key()
        assert value == _at_level_8(value)
    elif hasattr(value, "segs"):
        _segs(value)


@pytest.mark.parametrize("build, slots", [
    (_cyclo, ("level", "nums", "den")),
    (_element, ("algebra", "level", "nums", "den", "segs")),
    (_automorphism, ("algebra", "matrix", "antilinear", "_rows", "_key", "_lifted")),
    (_loop, ("context", "terms")),
    (_affine, ("loop", "c_coef", "d_coef")),
], ids=["CyclotomicNumber", "AlgebraElement", "FiniteAutomorphism", "LoopElement",
        "AffineElement"])
def test_del_is_refused_and_the_value_is_kept(build, slots):
    value = build()
    for name in slots:
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    _reread(value)
    assert value == build() and build() == value
