"""``field``'s numerator kernels against the element code they replaced.

``element_lift_segment`` and ``element_conj_block`` are verbatim copies of
``element._lift_segment`` and of the loop in ``AlgebraElement.conj`` from
before the lift and the conjugation of numerators were stated once, in
``field._lift_nums`` and ``field._conj_nums`` (only the names differ, and
the loop is wrapped in a function); ``_conj_nums`` is now the case a = -1
of ``field._galois_nums``.  ``tests/test_field.py`` checks the scalar paths
that call the kernels against sympy.

The number of examples comes from the hypothesis profile (``conftest.py``).
"""

from hypothesis import given, strategies as st

from kmforge.field import _galois_nums, _lift_nums, _reduce, field_degree

LEVELS = st.sampled_from(range(8, 61, 4))
STEPS = st.integers(1, 6)
NUMERATOR = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6))


# -- verbatim copies of the element code ----------------------------------------


def element_lift_segment(seg, step, level):
    """Numerators of one coordinate, given at level // step, at ``level``."""
    raw = [0] * (len(seg) * step)
    raw[::step] = seg
    return _reduce(level, raw)


def element_conj_block(nums, level, n):
    out = []
    raw = [0] * level
    for i in range(0, len(nums), n):
        for j in range(n):
            raw[-j] = nums[i + j]  # z^j -> z^{L-j}
        out.extend(_reduce(level, raw))
    return out


# -- differential tests -----------------------------------------------------------


def _segments(level, count):
    n = field_degree(level)
    return st.lists(NUMERATOR, min_size=n * count, max_size=n * count)


@given(data=st.data(), level=LEVELS, step=STEPS)
def test_lift_nums_matches_the_element_segment_lift(data, level, step):
    seg = data.draw(_segments(level, 1))
    target = level * step
    assert _lift_nums(seg, step, target) == element_lift_segment(seg, step, target)


@given(data=st.data(), level=LEVELS, count=st.integers(1, 3))
def test_conj_nums_matches_the_element_conjugation_loop(data, level, count):
    nums = data.draw(_segments(level, count))
    n = field_degree(level)
    got = [v for i in range(0, len(nums), n) for v in _galois_nums(nums[i:i + n], -1, level)]
    assert got == element_conj_block(nums, level, n)
    # conjugation is an involution
    assert [v for i in range(0, len(got), n) for v in _galois_nums(got[i:i + n], -1, level)] == nums
