"""Exact truncated bases pinned by repr.

``golden_bases.json`` holds the repr of the fixed-point bases of the seven
sl2C real forms, the k/m bases of their Cartan decompositions (all at N=2),
and the antilinear fixed subalgebras of omega and omega*mu on sl2C and sl3C.
It was recorded from the per-term eigenbasis implementation, so any change to
how these bases are computed must reproduce them vector for vector.
"""

import json
import os

import pytest

from kmforge.catalog import catalog_for
from kmforge.liealg import fixed_subalgebra
from kmforge.realforms import cartan_decomposition, enumerate_real_forms, fixed_point_basis

N = 2

with open(os.path.join(os.path.dirname(__file__), "golden_bases.json")) as fh:
    GOLDEN = json.load(fh)

FORMS = {f.label: f for f in enumerate_real_forms("sl2C")}


@pytest.mark.parametrize("label", sorted(GOLDEN["fixed_point_basis"]))
def test_fixed_point_basis_is_unchanged(label):
    assert repr(fixed_point_basis(FORMS[label], N)) == GOLDEN["fixed_point_basis"][label]


@pytest.mark.parametrize("label", sorted(GOLDEN["cartan"]))
def test_cartan_bases_are_unchanged(label):
    dec = cartan_decomposition(FORMS[label], N)
    assert [repr(dec.k_basis), repr(dec.m_basis)] == GOLDEN["cartan"][label]


@pytest.mark.parametrize("key", sorted(GOLDEN["fixed_subalgebra"]))
def test_antilinear_fixed_subalgebra_is_unchanged(key):
    algebra, name = key.split(":")
    cat = catalog_for(algebra)
    auto = cat.omega() if name == "omega" else cat.omega().compose(cat.named("mu"))
    assert repr(fixed_subalgebra(auto)) == GOLDEN["fixed_subalgebra"][key]


def test_golden_covers_every_form():
    assert sorted(GOLDEN["fixed_point_basis"]) == sorted(FORMS)
    assert sorted(GOLDEN["cartan"]) == sorted(k for k in FORMS if k != "compact")
    assert len(GOLDEN["fixed_subalgebra"]) == 4
