"""Fuzzing the loop-map and invariant decoders through the CLI.

Each example starts from a valid ``auto order`` or ``auto equivalent``
document, drops one key or replaces one value anywhere in it, and runs the
command through ``cli.main``.  A malformed document must be refused with a
JSON error and exit 2 (input error) or 3 (catalog miss): never a traceback,
an internal-failure exit 1, output on stderr, or a hang.  Some edits leave
another valid document (an optional key dropped, a catalog name beside the
matrix it names), so exit 0 with a JSON answer is allowed too.
"""

import contextlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kmforge import cli, jsonio
from kmforge.catalog import catalog_for
from kmforge.invariants import extract_invariant_second, realize_first, realize_second

with open(os.path.join(os.path.dirname(__file__), "golden_maps.json")) as fh:
    _EXP_MAP = json.load(fh)["exp:mu-after"]


def _order_documents():
    first = jsonio.enc_standard(realize_first("sl2C", 0, "mu", "tau", 2)[1])
    second = jsonio.enc_standard(realize_second("sl2C", "mu", "id")[1])
    scaled = dict(first, tau_r=jsonio.enc_rational(Fraction(2)))
    return {"first": first, "second": second, "scaled": scaled, "exp": _EXP_MAP}


def _invariant_documents():
    # the Weyl swap w = r4 mu r4^-1 is no catalog entry, so its pair is written as matrices
    cat = catalog_for("sl2C")
    w = cat.named("r4").compose(cat.named("mu")).compose(cat.named("r4").inverse())
    return {
        "first": {"kind": "first", "algebra": "sl2C", "q": 2, "p": 0, "rho": "mu",
                  "beta_class": "tau"},
        "second": {"kind": "second", "algebra": "sl2C", "q": 2, "plus": "mu", "minus": "id"},
        "second-matrix": jsonio.enc_invariant(
            extract_invariant_second(realize_second("sl2C", w, w)[1])),
    }


ORDER_DOCS = _order_documents()
INVARIANT_DOCS = _invariant_documents()


# a path is a tuple of dict keys and list indices from the document root
def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


_REPLACEMENTS = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.text(max_size=4),
    st.integers(-3, 3).map(lambda k: 10 ** 400 + k),
)


@st.composite
def _edits(draw, docs):
    name = draw(st.sampled_from(sorted(docs)))
    doc = docs[name]
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = path[:-1]
    container = doc
    for key in parent:
        container = container[key]
    drop = bool(path) and isinstance(container, dict) and draw(st.booleans())
    value = None if drop else draw(_REPLACEMENTS)
    return name, path, drop, value


def _edited(doc, path, drop, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    container = doc
    for key in path[:-1]:
        container = container[key]
    if drop:
        del container[path[-1]]
    else:
        container[path[-1]] = value
    return doc


def _run(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = (["order", "--in", path] if command == "order"
                else ["equivalent", "--a", path, "--b", path])
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["auto", *argv])
        elapsed = time.perf_counter() - t0
    return code, json.loads(out.getvalue()), err.getvalue(), elapsed


# keys whose value is a boolean
_BOOLEAN = {"antilinear"}


def _check(command, docs, edit):
    name, path, drop, value = edit
    key = path[-1] if path else None
    code, out, err, elapsed = _run(command, _edited(docs[name], path, drop, value))
    assert elapsed < 5
    assert err == ""
    assert code in (0, 2, 3), out
    assert ("error" in out) == (code != 0)
    if code:
        assert out["error"]["code"] == code
    # no float, and no bool outside a flag, stands for a structural value
    if type(value) is float:
        assert code != 0, out
    if type(value) is bool and key not in _BOOLEAN:
        assert code != 0, out


def test_the_fuzzed_documents_are_valid():
    for doc in ORDER_DOCS.values():
        code, out, _, _ = _run("order", doc)
        assert code == 0 and out["order"] in (2, 6, "unbounded")
    for doc in INVARIANT_DOCS.values():
        code, out, _, _ = _run("equivalent", doc)
        assert code == 0 and out == {"equal": True}


_fuzz = settings(max_examples=150, deadline=None)


@_fuzz
@given(_edits(ORDER_DOCS))
@example(("exp", ("curve", "generator"), False, None))  # an element that is not an object
def test_edited_loop_map_documents_never_crash(edit):
    _check("order", ORDER_DOCS, edit)


@_fuzz
@given(_edits(INVARIANT_DOCS))
def test_edited_invariant_documents_never_crash(edit):
    _check("equivalent", INVARIANT_DOCS, edit)


def _edit_first(edit):
    doc = json.loads(json.dumps(ORDER_DOCS["first"]))
    edit(doc)
    return doc


def _set(path, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


# each of these used to be accepted with exit 0
@pytest.mark.parametrize("edit", [
    # int() also reads digit separators, padding and non-ASCII digits
    _set(("shift",), ["1_0", "1"]),
    _set(("shift",), [" 3 ", "1"]),
    _set(("shift",), ["\u0661", "1"]),
    _set(("tau_r",), ["2", "1_0"]),
    _set(("tau_r",), ["2", " 3 "]),
    _set(("tau_r",), ["2", "\u0661"]),
    # the base is mu, not tau
    _set(("curve", "base", "name"), "tau"),
    _set(("type",), "scaled"),
    lambda doc: doc.pop("type"),
], ids=["shift-underscore", "shift-padded", "shift-arabic-indic", "tau_r-underscore",
        "tau_r-padded", "tau_r-arabic-indic", "name-contradicts-matrix", "type-scaled",
        "type-dropped"])
def test_documents_the_encoder_never_writes_exit_2(edit):
    code, out, err, _ = _run("order", _edit_first(edit))
    assert code == 2 and out["error"]["type"] == "InvalidInputError", out
    assert err == ""
