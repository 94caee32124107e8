"""Catalog matrices pinned entry for entry.

``golden_catalog.json`` holds, for sl2C and sl3C, the order and matrix of
every catalog entry, each matrix entry as [level, numerators, denominator].
It was recorded from the hand-written constructors that ``catalog._auto``
replaced, so any change to how catalog maps are derived from their defining
matrices must reproduce them entry for entry, levels included.  Its
``conjugators`` (the entries, the sl2C bridge Ad [[1, 1], [i, -i]] and its
inverse or the six sl3C permutation maps, and their pairwise products) are
the family of centralizer elements that ``test_catalog`` classifies.
"""

import json
import os

import pytest

from kmforge.catalog import catalog_for
from kmforge.field import CyclotomicNumber
from kmforge.liealg import builtin_matrices, matrix_coordinates

with open(os.path.join(os.path.dirname(__file__), "golden_catalog.json")) as fh:
    GOLDEN = json.load(fh)


def _cells(auto):
    return [[[x.level, list(x.nums), x.den] for x in row] for row in auto.matrix]


@pytest.mark.parametrize("algebra, name", [(a, n) for a in sorted(GOLDEN)
                                           for n in GOLDEN[a]["entries"]])
def test_catalog_entry_is_unchanged(algebra, name):
    entry = catalog_for(algebra).entries[name]
    assert {"order": entry.order, "matrix": _cells(entry.auto)} == GOLDEN[algebra]["entries"][name]


@pytest.mark.parametrize("algebra", sorted(GOLDEN))
def test_catalog_names_are_unchanged(algebra):
    assert catalog_for(algebra).names() == list(GOLDEN[algebra]["entries"])


def test_matrix_outside_the_span_raises():
    # the 2x2 identity has trace 2, so it is no combination of e, h and f
    mats = builtin_matrices("sl2C")
    one, zero = CyclotomicNumber.one(), CyclotomicNumber.zero()
    identity = ((one, zero), (zero, one))
    with pytest.raises(ValueError, match="outside the span"):
        matrix_coordinates(mats, [identity])
    with pytest.raises(ValueError, match="outside the span"):
        matrix_coordinates(mats, [mats[1], identity])


@pytest.mark.parametrize("name", ["sl2C", "sl3C", "su2", "su3"])
def test_basis_matrices_read_back_as_unit_vectors(name):
    mats = builtin_matrices(name)
    d = len(mats)
    assert matrix_coordinates(mats, mats) == [tuple(int(i == j) for j in range(d))
                                              for i in range(d)]
