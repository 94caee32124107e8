import functools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from kmforge import cli, jsonio, realforms, verify
from kmforge.catalog import catalog_for
from kmforge.cli import main
from kmforge.field import imaginary_unit, zeta_power
from kmforge.invariants import extract_invariant_second, realize_second
from kmforge.liealg import FiniteAutomorphism, builtin_algebra
from kmforge.loop import TwistContext
from kmforge.standard import pointwise


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_algebra_list(capsys):
    code, doc = run_cli(capsys, "algebra", "list")
    assert code == 0
    assert doc["algebras"] == ["sl2C", "sl3C", "su2", "su3"]


def test_algebra_show(capsys):
    code, doc = run_cli(capsys, "algebra", "show", "--algebra", "sl2C")
    assert code == 0
    assert doc["dim"] == 3
    assert doc["basis"] == ["e", "h", "f"]


def test_algebra_show_unknown_exits_2(capsys):
    code, doc = run_cli(capsys, "algebra", "show", "--algebra", "nope")
    assert code == 2
    assert doc["error"]["code"] == 2


def test_classify_counts(capsys):
    code, doc = run_cli(capsys, "classify", "realforms", "--algebra", "sl2C")
    assert code == 0
    assert len(doc) == 7
    code, doc = run_cli(capsys, "classify", "involutions", "--algebra", "sl2C", "--kind", "2")
    assert code == 0
    assert len(doc) == 3
    code, doc = run_cli(capsys, "classify", "involutions", "--algebra", "sl2C", "--kind", "1b")
    assert code == 0
    assert len(doc) == 1


@pytest.mark.parametrize("what", ["involutions", "realforms"])
def test_classify_without_a_catalog_exits_2(capsys, what):
    code, doc = run_cli(capsys, "classify", what, "--algebra", "su2")
    assert code == 2
    assert doc["error"]["message"] == "no catalog for 'su2'"


def test_realize_invariant_round_trip(tmp_path, capsys):
    phi_path = tmp_path / "phi.json"
    code, doc = run_cli(capsys, "auto", "realize", "--algebra", "sl2C", "--kind", "first",
                        "--q", "2", "--p", "1", "--rho", "id", "--beta", "id",
                        "--out", str(phi_path))
    assert code == 0
    code, doc = run_cli(capsys, "auto", "invariant", "--in", str(phi_path))
    assert code == 0
    assert doc == {"algebra": "sl2C", "kind": "first", "q": 2, "p": 1,
                   "rho": "id", "beta_class": "id"}


def test_order_command(tmp_path, capsys):
    phi_path = tmp_path / "phi.json"
    run_cli(capsys, "auto", "realize", "--kind", "second", "--plus", "mu", "--minus", "id",
            "--out", str(phi_path))
    code, doc = run_cli(capsys, "auto", "order", "--in", str(phi_path))
    assert code == 0
    assert doc["order"] == 2
    # scaling composed with a reflection still has order 2: the exponent flip
    # cancels the scaling between successive applications
    obj = json.loads(phi_path.read_text())
    obj["tau_r"] = ["2", "1"]
    phi_path.write_text(json.dumps(obj))
    code, doc = run_cli(capsys, "auto", "order", "--in", str(phi_path))
    assert code == 0
    assert doc["order"] == 2


def test_order_command_scaled_first_kind_unbounded(tmp_path, capsys):
    phi_path = tmp_path / "phi.json"
    run_cli(capsys, "auto", "realize", "--kind", "first", "--q", "2", "--p", "0",
            "--rho", "mu", "--beta", "id", "--out", str(phi_path))
    obj = json.loads(phi_path.read_text())
    obj["tau_r"] = ["2", "1"]
    phi_path.write_text(json.dumps(obj))
    code, doc = run_cli(capsys, "auto", "order", "--in", str(phi_path))
    assert code == 0
    assert doc["order"] == "unbounded"


def test_equivalent_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"kind": "second", "algebra": "sl2C", "q": 2,
                             "plus": "tau", "minus": "id"}))
    b.write_text(json.dumps({"kind": "second", "algebra": "sl2C", "q": 2,
                             "plus": "id", "minus": "mu"}))
    code, doc = run_cli(capsys, "auto", "equivalent", "--a", str(a), "--b", str(b))
    assert code == 0
    assert doc["equal"] is True
    b.write_text(json.dumps({"kind": "second", "algebra": "sl2C", "q": 2,
                             "plus": "id", "minus": "id"}))
    code, doc = run_cli(capsys, "auto", "equivalent", "--a", str(a), "--b", str(b))
    assert doc["equal"] is False
    b.write_text(json.dumps({"kind": "first", "algebra": "sl2C", "q": 2,
                             "p": 0, "rho": "mu", "beta_class": "id"}))
    code, doc = run_cli(capsys, "auto", "equivalent", "--a", str(a), "--b", str(b))
    assert doc["equal"] is False


def test_equivalent_with_no_order_within_the_bound_exits_3(tmp_path, capsys):
    # theta is inner and mu is outer: no bound may make the invariants equal
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"kind": "second", "algebra": "sl3C", "q": 2,
                             "plus": "theta", "minus": "id"}))
    b.write_text(json.dumps({"kind": "second", "algebra": "sl3C", "q": 2,
                             "plus": "mu", "minus": "id"}))
    for bound in ("48", "2"):
        code, doc = run_cli(capsys, "auto", "equivalent", "--a", str(a), "--b", str(b),
                            "--bound", bound)
        assert (code, doc) == (0, {"equal": False})
    code, doc = run_cli(capsys, "auto", "equivalent", "--a", str(a), "--b", str(b),
                        "--bound", "1")
    assert code == 3
    assert doc["error"]["type"] == "CatalogMissError"
    # a pair equal to the other after the swap needs no order
    b.write_text(json.dumps({"kind": "second", "algebra": "sl3C", "q": 2,
                             "plus": "id", "minus": "theta"}))
    code, doc = run_cli(capsys, "auto", "equivalent", "--a", str(a), "--b", str(b),
                        "--bound", "1")
    assert (code, doc) == (0, {"equal": True})


def test_roundtrip_reports_a_wrong_order_map_as_a_failing_check(capsys, monkeypatch):
    # realize hands back an order-2 map when order 4 is asked for
    real = verify.realize_first

    def wrong_order(algebra, p, rho, beta, q):
        return real(algebra, 0, "mu", "id", 2) if q == 4 else real(algebra, p, rho, beta, q)

    monkeypatch.setattr(verify, "realize_first", wrong_order)
    code, doc = run_cli(capsys, "verify", "roundtrip", "--q", "4")
    assert code == 1 and doc["ok"] is False
    first = [c for c in doc["checks"] if c["name"].startswith("first:")]
    assert len(first) == 4
    assert [c for c in doc["checks"] if not c["pass"]] == first
    assert all(c["order_closed_form"] == c["order_bruteforce"] == 2 for c in first)


def test_catalog_miss_exits_3(tmp_path, capsys):
    # a pointwise order-5 torus automorphism has no catalog representative
    sl2 = builtin_algebra("sl2C")
    z5 = zeta_power(5, 1)
    auto = FiniteAutomorphism(sl2, [[z5, 0, 0], [0, 1, 0], [0, 0, z5.inverse()]])
    ctx = TwistContext(sl2, FiniteAutomorphism.identity(sl2), D=1)
    phi = pointwise(ctx, auto)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(jsonio.enc_standard(phi)))
    code, doc = run_cli(capsys, "auto", "invariant", "--in", str(path))
    assert code == 3
    assert doc["error"]["code"] == 3


def test_verify_exit_codes(capsys):
    code, doc = run_cli(capsys, "verify", "cocycle", "--trials", "10", "--seed", "3")
    assert code == 0
    assert doc["ok"] is True


def test_verify_determinism(capsys):
    code1 = main(["verify", "jacobi", "--N", "3", "--trials", "10", "--seed", "9"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "jacobi", "--N", "3", "--trials", "10", "--seed", "9"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv,message", [
    (("--algebra", "sl2C", "--q", "2", "--p", "3", "--rho", "mu", "--beta", "id"),
     "p must lie in [0, q]"),
    # r3 and mu do not commute on sl3C
    (("--algebra", "sl3C", "--q", "3", "--p", "0", "--rho", "r3", "--beta", "mu"),
     "beta must commute with rho"),
], ids=["p-outside-0..q", "beta-not-commuting"])
def test_realize_incompatible_data_exits_2(capsys, argv, message):
    code, doc = run_cli(capsys, "auto", "realize", "--kind", "first", *argv)
    assert code == 2
    assert doc["error"]["type"] == "IncompatibleDataError"
    assert doc["error"]["message"] == message


def test_env_level_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KMFORGE_LEVEL", "24")
    phi_path = tmp_path / "phi.json"
    code, _ = run_cli(capsys, "auto", "realize", "--kind", "first", "--q", "2", "--p", "0",
                      "--rho", "mu", "--beta", "id", "--out", str(phi_path))
    assert code == 0
    doc = json.loads(phi_path.read_text())
    assert doc["curve"]["base"]["matrix"][0][0]["level"] == 24
    monkeypatch.setenv("KMFORGE_LEVEL", "6")
    code, doc = run_cli(capsys, "auto", "realize", "--kind", "first", "--q", "2", "--p", "0",
                        "--rho", "mu", "--beta", "id")
    assert code == 2


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "kmforge.cli", "algebra", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sl2C" in proc.stdout


def test_identity_invariant_via_cli(tmp_path, capsys):
    phi_path = tmp_path / "phi.json"
    code, _ = run_cli(capsys, "auto", "realize", "--kind", "first", "--q", "1", "--p", "0",
                      "--rho", "id", "--beta", "id", "--out", str(phi_path))
    assert code == 0
    code, doc = run_cli(capsys, "auto", "invariant", "--in", str(phi_path))
    assert code == 0
    assert doc == {"algebra": "sl2C", "kind": "first", "q": 1, "p": 0,
                   "rho": "id", "beta_class": "id"}


def test_bad_json_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, doc = run_cli(capsys, "auto", "invariant", "--in", str(path))
    assert code == 2


def test_verify_realforms_via_cli(capsys):
    code, doc = run_cli(capsys, "verify", "realforms", "--algebra", "sl2C", "--N", "2")
    assert code == 0
    assert doc["ok"] is True
    names = [c["name"] for c in doc["checks"] if c["name"].startswith("realform:")]
    assert len(names) == 7


@pytest.mark.parametrize("argv, missing", [
    (["--algebra", "sl2C", "--q", "5"], ["first:sl2C:q=5:p=0:rho_order=5"]),
    (["--algebra", "sl3C"], ["first:sl3C:q=4:p=0:rho_order=4", "first:sl3C:q=6:p=0:rho_order=6"]),
])
def test_roundtrip_fails_on_a_rho_order_without_representative(capsys, argv, missing):
    code, doc = run_cli(capsys, "verify", "roundtrip", *argv)
    assert code == 1 and doc["ok"] is False
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == missing


def test_verify_rejects_out_of_range_q_and_trials(capsys):
    for argv in (["roundtrip", "--q", "0"], ["roundtrip", "--q", "-3"],
                 ["jacobi", "--trials", "-1"]):
        code, doc = run_cli(capsys, "verify", *argv)
        assert code == 2 and doc["error"]["code"] == 2


def test_huge_level_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KMFORGE_LEVEL", "40000")
    t0 = time.perf_counter()
    code, doc = run_cli(capsys, "verify", "jacobi", "--trials", "1")
    assert time.perf_counter() - t0 < 0.05
    assert code == 2 and "40000" in doc["error"]["message"]
    monkeypatch.delenv("KMFORGE_LEVEL")

    phi_path = tmp_path / "phi.json"
    code, _ = run_cli(capsys, "auto", "realize", "--kind", "first", "--q", "1", "--p", "0",
                      "--rho", "id", "--beta", "id", "--out", str(phi_path))
    assert code == 0
    doc = json.loads(phi_path.read_text())
    doc["curve"]["base"]["matrix"][0][0] = {"level": 40000, "coords": [["1", "1"]]}
    phi_path.write_text(json.dumps(doc))
    code, doc = run_cli(capsys, "auto", "order", "--in", str(phi_path))
    assert code == 2 and doc["error"]["type"] == "InvalidLevelError"


def test_auto_bounds_below_one_exit_2(tmp_path, capsys):
    phi_path = tmp_path / "phi.json"
    inv_path = tmp_path / "inv.json"
    run_cli(capsys, "auto", "realize", "--kind", "first", "--q", "2", "--p", "0",
            "--rho", "mu", "--beta", "id", "--out", str(phi_path))
    run_cli(capsys, "auto", "invariant", "--in", str(phi_path), "--out", str(inv_path))
    for bound in ("0", "-3"):
        for argv in (["order", "--in", str(phi_path)], ["invariant", "--in", str(phi_path)],
                     ["equivalent", "--a", str(inv_path), "--b", str(inv_path)]):
            code, doc = run_cli(capsys, "auto", *argv, "--bound", bound)
            assert code == 2 and doc["error"]["code"] == 2, (argv, bound, doc)


def test_verify_cartan_reports_a_failing_inclusion(capsys, monkeypatch):
    bracket = realforms.loop_bracket
    monkeypatch.setattr(realforms, "loop_bracket",
                        lambda a, b: bracket(a, b) * imaginary_unit())
    code, doc = run_cli(capsys, "verify", "cartan", "--N", "1")
    assert code == 1
    assert doc["ok"] is False and doc["failed"] > 0


def test_internal_arithmetic_error_exits_1_without_traceback(capsys, monkeypatch):
    span = realforms.fixed_span_columns

    def no_minus_one_part(gens, images, flatten, sign=1):
        return [] if sign == -1 else span(gens, images, flatten, sign)

    monkeypatch.setattr(realforms, "fixed_span_columns", no_minus_one_part)
    code, doc = run_cli(capsys, "verify", "cartan", "--N", "1")
    assert code == 1
    assert doc["error"] == {"code": 1, "type": "ArithmeticError",
                            "message": "compact conjugation does not split the truncation"}


def test_verify_hat_sl3C_succeeds(capsys):
    # the exp conjugator moves phi onto an order-2 twisted context for sl3C,
    # so the random affine pairs must come from phi's source context
    code, doc = run_cli(capsys, "verify", "hat", "--algebra", "sl3C")
    assert code == 0
    assert doc["ok"] is True and doc["passed"] == 4 and doc["failed"] == 0


# The check names of the suites that read their involutions from the catalog:
# the hat suite runs every involution and twists by the first one, and the
# round trip pairs an involution that is no representative (sl2C's tau) with
# itself and with id.
HAT_CHECKS = {
    "sl2C": ["hat-extension:sl2C:tau", "hat-extension:sl2C:mu",
             "center-derived:sl2C:id", "center-derived:sl2C:tau"],
    "sl3C": ["hat-extension:sl3C:theta", "hat-extension:sl3C:mu",
             "center-derived:sl3C:id", "center-derived:sl3C:theta"],
}
ROUNDTRIP_Q2_CHECKS = {
    "sl2C": ["first:sl2C:q=2:p=0:rho=mu:beta=id", "first:sl2C:q=2:p=0:rho=mu:beta=tau",
             "first:sl2C:q=2:p=1:rho=id:beta=id",
             "second:sl2C:plus=id:minus=id", "second:sl2C:plus=mu:minus=mu",
             "second:sl2C:plus=mu:minus=id", "second:sl2C:plus=tau:minus=tau",
             "second:sl2C:plus=tau:minus=id"],
    "sl3C": ["first:sl3C:q=2:p=0:rho=theta:beta=id", "first:sl3C:q=2:p=0:rho=theta:beta=mu",
             "first:sl3C:q=2:p=0:rho=mu:beta=id", "first:sl3C:q=2:p=0:rho=mu:beta=mu",
             "first:sl3C:q=2:p=1:rho=id:beta=id", "first:sl3C:q=2:p=1:rho=id:beta=mu",
             "second:sl3C:plus=id:minus=id", "second:sl3C:plus=theta:minus=theta",
             "second:sl3C:plus=mu:minus=mu", "second:sl3C:plus=theta:minus=id",
             "second:sl3C:plus=mu:minus=id", "second:sl3C:plus=mu:minus=theta"],
}


@pytest.mark.parametrize("algebra", sorted(HAT_CHECKS))
def test_verify_hat_check_names_are_pinned(capsys, algebra):
    code, doc = run_cli(capsys, "verify", "hat", "--algebra", algebra)
    assert code == 0
    assert [c["name"] for c in doc["checks"]] == HAT_CHECKS[algebra]


@pytest.mark.parametrize("algebra", sorted(ROUNDTRIP_Q2_CHECKS))
def test_verify_roundtrip_check_names_are_pinned(capsys, algebra):
    code, doc = run_cli(capsys, "verify", "roundtrip", "--algebra", algebra, "--q", "2")
    assert code == 0
    assert [c["name"] for c in doc["checks"]] == ROUNDTRIP_Q2_CHECKS[algebra]


@pytest.mark.parametrize("algebra, eigenvalues", [
    ("sl2C", {Fraction(-1), Fraction(0), Fraction(1)}),
    ("sl3C", {Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)}),
])
def test_exp_conjugator_eigenvalues_are_pinned(algebra, eigenvalues):
    cat = catalog_for(algebra)
    ctx = TwistContext(builtin_algebra(algebra), cat.named("id"), D=2)
    psi = verify._exp_conjugator(ctx)
    assert {q for q, _ in psi.exp.eigenpairs} == eigenvalues


def test_huge_whole_shift_folds_modulo_the_twist_order(tmp_path, capsys):
    # sigma^twist_order is the identity, so 10^7 whole turns on top of a
    # shift cost no more than the shift alone and leave the order unchanged
    phi_path = tmp_path / "phi.json"
    for q, p, rho, turns in ((2, 0, "mu", 10**7), (4, 1, "id", 10**7), (4, 2, "mu", -10**7)):
        code, _ = run_cli(capsys, "auto", "realize", "--kind", "first", "--q", str(q),
                          "--p", str(p), "--rho", rho, "--beta", "id", "--out", str(phi_path))
        assert code == 0
        code, doc = run_cli(capsys, "auto", "order", "--in", str(phi_path))
        assert code == 0 and doc["order"] == q
        obj = json.loads(phi_path.read_text())
        obj["shift"] = [str(turns * q + p), str(q)]
        phi_path.write_text(json.dumps(obj))
        proc = subprocess.run([sys.executable, "-m", "kmforge.cli", "auto", "order",
                               "--in", str(phi_path)], capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0 and json.loads(proc.stdout) == doc


def _antilinear_document(tmp_path, *realize):
    """An ``auto realize`` document on sl2C with its base swapped for the
    antilinear compact conjugation omega."""
    path = tmp_path / "phi.json"
    assert main(["auto", "realize", "--algebra", "sl2C", *realize, "--out", str(path)]) == 0
    phi = json.loads(path.read_text())
    del phi["target"]
    phi["antilinear"] = True
    phi["curve"]["base"] = {"algebra": "sl2C", "name": "omega"}
    path.write_text(json.dumps(phi))
    return path


@pytest.mark.parametrize("realize", [
    ("--kind", "first", "--q", "2", "--p", "0", "--rho", "mu", "--beta", "id"),
    ("--kind", "second", "--plus", "mu", "--minus", "mu"),
], ids=["first", "second"])
def test_an_antilinear_map_has_no_invariant(tmp_path, capsys, realize):
    # the second-kind map is the conjugation of the 2:id,id real form; both
    # maps have an order, but invariants are defined for linear maps only
    path = _antilinear_document(tmp_path, *realize)
    capsys.readouterr()
    code, doc = run_cli(capsys, "auto", "order", "--in", str(path))
    assert code == 0 and doc["order"] == 2
    code, doc = run_cli(capsys, "auto", "invariant", "--in", str(path))
    assert code == 2 and doc["error"]["type"] == "InvalidInputError"


def test_an_invariant_document_with_an_antilinear_pair_exits_2(tmp_path, capsys):
    omega = jsonio.enc_automorphism(catalog_for("sl2C").omega())
    inv = {"kind": "second", "algebra": "sl2C", "q": 2, "plus_matrix": omega, "minus_matrix": omega}
    code, doc, err = _run_on_document(tmp_path, capsys, "equivalent", inv)
    assert code == 2 and doc["error"]["type"] == "InvalidInputError"
    assert err == ""


def test_verify_has_no_D_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "jacobi", "--D", "4"])
    assert exc.value.code == 2
    assert "--D" in capsys.readouterr().err


def _realized_documents(tmp_path, capsys, beta="id"):
    """The auto realize and auto invariant documents of the sl2C first-kind
    map with q = 2, p = 0, rho = mu: u(t) -> mu(u(t)) on the twist beta."""
    phi_path, inv_path = tmp_path / "phi.json", tmp_path / "inv.json"
    run_cli(capsys, "auto", "realize", "--kind", "first", "--q", "2", "--p", "0",
            "--rho", "mu", "--beta", beta, "--out", str(phi_path))
    run_cli(capsys, "auto", "invariant", "--in", str(phi_path), "--out", str(inv_path))
    return json.loads(phi_path.read_text()), json.loads(inv_path.read_text())


def _run_on_document(tmp_path, capsys, command, doc):
    """Exit code, stdout document and stderr of one auto command on ``doc``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = (["order", "--in", str(path)] if command == "order"
            else ["equivalent", "--a", str(path), "--b", str(path)])
    code = main(["auto", *argv])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


@pytest.mark.parametrize("D", [0, -2])
def test_scaled_map_on_a_context_with_D_below_one_exits_2(tmp_path, capsys, D):
    # with D = -2 the spanning slice is empty and the order used to read 1
    phi, _ = _realized_documents(tmp_path, capsys)
    phi["tau_r"] = ["2", "1"]
    phi["source"]["D"] = phi["target"]["D"] = D
    code, doc, _ = _run_on_document(tmp_path, capsys, "order", phi)
    assert code == 2
    assert doc["error"]["type"] == "InvalidInputError"


@pytest.mark.parametrize("command, edit", [
    ("order", lambda phi, inv: []),
    ("order", lambda phi, inv: {**phi, "source": "x"}),
    ("order", lambda phi, inv: {**phi, "epsilon": None}),
    ("order", lambda phi, inv: {**phi, "source": {**phi["source"], "algebra": ["sl2C"]}}),
    ("equivalent", lambda phi, inv: []),
    ("equivalent", lambda phi, inv: {**inv, "q": None}),
    ("order", lambda phi, inv: _with_base_matrix(phi, None)),
    ("order", lambda phi, inv: _with_base_matrix(phi, [phi["curve"]["base"]["matrix"][0], None,
                                                       phi["curve"]["base"]["matrix"][2]])),
    ("equivalent", lambda phi, inv: {"kind": "second", "algebra": "sl2C", "q": 2,
                                     "plus": ["mu"], "minus": "id"}),
    ("equivalent", lambda phi, inv: {**inv, "rho": ["mu"]}),
], ids=["top-level-list", "source-string", "epsilon-null", "algebra-list",
        "invariant-list", "q-null", "matrix-null", "matrix-row-null", "plus-list",
        "rho-list"])
def test_malformed_documents_exit_2_without_a_traceback(tmp_path, capsys, command, edit):
    phi, inv = _realized_documents(tmp_path, capsys)
    code, doc, err = _run_on_document(tmp_path, capsys, command, edit(phi, inv))
    assert code == 2
    assert doc["error"]["type"] == "InvalidInputError"
    assert err == ""


def _with_base_matrix(phi, matrix):
    return {**phi, "curve": {**phi["curve"], "base": {**phi["curve"]["base"], "matrix": matrix}}}


def test_a_base_that_is_not_an_automorphism_exits_2(tmp_path, capsys):
    # mu sends f to -e; sending it to -2e breaks [e, f] = h.  The order used
    # to read "unbounded" with exit 0.
    phi, _ = _realized_documents(tmp_path, capsys)
    matrix = [list(row) for row in phi["curve"]["base"]["matrix"]]
    matrix[0][2] = {"level": 4, "coords": [["-2", "1"], ["0", "1"]]}
    base = {k: v for k, v in phi["curve"]["base"].items() if k != "name"}
    phi = {**phi, "curve": {**phi["curve"], "base": {**base, "matrix": matrix}}}
    code, doc, err = _run_on_document(tmp_path, capsys, "order", phi)
    assert code == 2
    assert doc["error"]["type"] == "InvalidInputError"
    assert "not an automorphism" in doc["error"]["message"]
    assert err == ""


def test_unknown_first_kind_rho_is_a_catalog_miss(tmp_path, capsys):
    # it used to be accepted, and compared equal to itself
    _, inv = _realized_documents(tmp_path, capsys)
    code, doc, err = _run_on_document(tmp_path, capsys, "equivalent", {**inv, "rho": "zzz"})
    assert code == 3
    assert doc["error"]["type"] == "CatalogMissError"
    assert err == ""


@pytest.mark.parametrize("suite, trials, seed", [("tau_r", 50, 17), ("untwist", 6, 19)])
def test_tau_r_and_untwist_suites_keep_their_own_defaults(capsys, suite, trials, seed):
    code, doc = run_cli(capsys, "verify", suite)
    assert code == 0 and doc["ok"] is True and doc["failed"] == 0
    assert (doc["config"]["trials"], doc["config"]["seed"]) == (trials, seed)
    code, doc = run_cli(capsys, "verify", suite, "--trials", "2", "--seed", "5")
    assert code == 0 and doc["ok"] is True
    assert (doc["config"]["trials"], doc["config"]["seed"]) == (2, 5)


def test_untwist_suite_is_sl2C_only(capsys):
    code, doc = run_cli(capsys, "verify", "untwist", "--algebra", "sl3C")
    assert code == 2 and doc["error"]["code"] == 2
    assert doc["error"]["type"] == "InvalidInputError"
    code, doc = run_cli(capsys, "verify", "untwist", "--algebra", "sl2C")
    assert code == 0 and doc["ok"] is True


def test_document_whose_target_twist_disagrees_exits_2(tmp_path, capsys):
    # mu commutes with tau, so the map fixes the tau twist; mu is a valid twist
    # of the same D, and only the comparison with the computed twist rejects it
    phi, _ = _realized_documents(tmp_path, capsys, beta="tau")
    code, doc, _ = _run_on_document(tmp_path, capsys, "order", phi)
    assert code == 0 and doc["order"] == 2
    phi["target"]["sigma"] = {"algebra": "sl2C", "name": "mu"}
    code, doc, _ = _run_on_document(tmp_path, capsys, "order", phi)
    assert code == 2
    assert doc["error"]["type"] == "TwistMismatchError"


# The config of every suite at its CLI defaults, as the CLI reported it when
# the defaults were also spelled out in cli.py.
SUITE_CONFIG_AT_DEFAULTS = {
    "jacobi": {"N": 6, "algebra": "sl2C", "seed": 7, "trials": 100},
    "cocycle": {"N": 6, "algebra": "sl2C", "seed": 7, "trials": 100},
    "roundtrip": {"algebra": "sl2C", "bound": 48, "qs": [2, 3, 4, 6]},
    "realforms": {"N": 4, "algebra": "sl2C"},
    "cartan": {"N": 3, "algebra": "sl2C"},
    "hat": {"algebra": "sl2C", "seed": 7, "trials": 10},
    "tau_r": {"algebra": "sl2C", "bound": 48, "r": "2", "seed": 17, "trials": 50},
    "untwist": {"seed": 19, "trials": 6},
}


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suite_config_at_cli_defaults(capsys, suite):
    code, doc = run_cli(capsys, "verify", suite)
    assert code == 0 and doc["ok"] is True
    assert doc["config"] == SUITE_CONFIG_AT_DEFAULTS[suite]


@pytest.mark.parametrize("suite, flag", [("hat", "--N"), ("realforms", "--seed"),
                                         ("jacobi", "--bound")])
def test_a_flag_the_suite_does_not_take_exits_2(capsys, suite, flag):
    code, doc = run_cli(capsys, "verify", suite, flag, "3")
    assert code == 2
    assert doc == {"error": {"code": 2, "message": f"suite {suite!r} takes no {flag}"}}


def test_verify_hat_honours_trials(capsys, monkeypatch):
    draws = []
    original = verify.random_affine
    monkeypatch.setattr(verify, "random_affine",
                        lambda *args: draws.append(args) or original(*args))
    code, doc = run_cli(capsys, "verify", "hat", "--trials", "3")
    assert code == 0 and doc["ok"] is True
    assert doc["config"]["trials"] == 3
    assert len(draws) == 2 * 3 * 2  # two involutions, three pairs each


def test_suite_flags_resolve_through_a_wrapped_suite(capsys, monkeypatch):
    # the benchmark tracer replaces SUITES entries with (*args, **kwargs)
    # wrappers that set __wrapped__
    suite = verify.SUITES["hat"]
    monkeypatch.setitem(verify.SUITES, "hat",
                        functools.wraps(suite)(lambda *args, **kwargs: suite(*args, **kwargs)))
    code, doc = run_cli(capsys, "verify", "hat", "--trials", "1")
    assert code == 0 and doc["config"]["trials"] == 1
    code, doc = run_cli(capsys, "verify", "hat", "--N", "1")
    assert code == 2


@pytest.mark.parametrize("edit, code, error", [
    ({"beta_class": "zzz"}, 3, "CatalogMissError"),
    ({"beta_class": "rot"}, 3, "CatalogMissError"),
    ({"q": 5}, 3, "CatalogMissError"),
    ({"q": 10 ** 400}, 3, "CatalogMissError"),
    ({"q": -4, "p": 77}, 2, "InvalidInputError"),
    ({"q": 0}, 2, "InvalidInputError"),
    ({"p": -1}, 2, "InvalidInputError"),
    ({"q": 4, "p": 3}, 2, "InvalidInputError"),
], ids=["unknown-beta", "beta-of-another-rho", "rho-of-another-order", "huge-q", "negative-q",
        "zero-q", "negative-p", "p-above-half-q"])
def test_first_kind_invariant_documents_are_validated(tmp_path, capsys, edit, code, error):
    # each of these used to compare equal to itself; the base document is
    # q = 2, p = 0, rho = mu, beta = id
    _, inv = _realized_documents(tmp_path, capsys)
    t0 = time.perf_counter()
    got, doc, err = _run_on_document(tmp_path, capsys, "equivalent", {**inv, **edit})
    assert time.perf_counter() - t0 < 5
    assert got == code
    assert doc["error"]["type"] == error
    assert err == ""


def test_first_kind_invariants_with_any_reachable_class_decode(tmp_path, capsys):
    # "out" is a class of r3 on sl3C that component_class returns but that
    # has no representative; q = 10^400 with p = 1 needs rho of order 1
    for doc in ({"algebra": "sl3C", "kind": "first", "q": 3, "p": 0, "rho": "r3",
                 "beta_class": "out"},
                {"algebra": "sl2C", "kind": "first", "q": 10 ** 400, "p": 1, "rho": "id",
                 "beta_class": "id"}):
        code, out, _ = _run_on_document(tmp_path, capsys, "equivalent", doc)
        assert code == 0 and out == {"equal": True}


@pytest.mark.parametrize("algebra, qs", [("sl2C", (1, 2, 3, 4)), ("sl3C", (2, 3))])
def test_every_catalog_invariant_chain_still_decodes(tmp_path, capsys, algebra, qs):
    # the auto realize -> invariant -> equivalent chain on every catalog triple
    phi_path, inv_path = tmp_path / "phi.json", tmp_path / "inv.json"
    for q in qs:
        for p, rho, beta in catalog_for(algebra).first_kind_triples(q):
            assert main(["auto", "realize", "--algebra", algebra, "--kind", "first",
                         "--q", str(q), "--p", str(p), "--rho", rho, "--beta", beta,
                         "--out", str(phi_path)]) == 0
            assert main(["auto", "invariant", "--in", str(phi_path),
                         "--out", str(inv_path)]) == 0
            code, doc = run_cli(capsys, "auto", "equivalent", "--a", str(inv_path),
                                "--b", str(inv_path))
            assert code == 0 and doc == {"equal": True}


@pytest.mark.parametrize("algebra", ["sl2C", "sl3C"])
def test_every_classified_invariant_decodes(capsys, algebra):
    for what in ("involutions", "realforms"):
        code, docs = run_cli(capsys, "classify", what, "--algebra", algebra)
        assert code == 0
        for doc in docs:
            assert jsonio.enc_invariant(jsonio.dec_invariant(doc["invariant"])) == doc["invariant"]


def _base_entry_level(phi, level):
    matrix = [list(row) for row in phi["curve"]["base"]["matrix"]]
    matrix[0][0] = {**matrix[0][0], "level": level}
    return _with_base_matrix(phi, matrix)


@pytest.mark.parametrize("command, edit", [
    ("equivalent", lambda phi, inv: {**inv, "q": 2.9, "p": True}),
    ("equivalent", lambda phi, inv: {**inv, "q": "2"}),
    ("order", lambda phi, inv: {**phi, "source": {**phi["source"], "D": 2.7}}),
    ("order", lambda phi, inv: {**phi, "epsilon": True}),
    ("order", lambda phi, inv: _base_entry_level(phi, 4.5)),
    ("equivalent", lambda phi, inv: {"kind": "second", "algebra": "sl2C", "q": 2.0,
                                     "plus": "mu", "minus": "id"}),
], ids=["float-q-bool-p", "string-q", "float-D", "bool-epsilon", "float-level",
        "second-kind-float-q"])
def test_structural_integers_must_be_json_integers(tmp_path, capsys, command, edit):
    # each of these used to be truncated or coerced by int() and accepted
    phi, inv = _realized_documents(tmp_path, capsys)
    code, doc, err = _run_on_document(tmp_path, capsys, command, edit(phi, inv))
    assert code == 2
    assert doc["error"]["type"] == "InvalidInputError"
    assert "must be an integer" in doc["error"]["message"]
    assert err == ""


@pytest.mark.parametrize("D", [10 ** 8, 10 ** 400])
@pytest.mark.parametrize("scaled", [True, False], ids=["tau_r", "standard"])
def test_a_D_beyond_every_field_level_exits_2(tmp_path, capsys, D, scaled):
    # zeta_D would need level lcm(4, D) > MAX_LEVEL; with tau_r the order
    # used to build the degree-2D slice first (D = 10^8 ran past 25 s)
    phi, _ = _realized_documents(tmp_path, capsys)
    if scaled:
        phi["tau_r"] = ["2", "1"]
    phi["source"]["D"] = phi["target"]["D"] = D
    t0 = time.perf_counter()
    code, doc, err = _run_on_document(tmp_path, capsys, "order", phi)
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert doc["error"]["type"] == "InvalidLevelError"
    assert err == ""


def _matrix_pair_invariant():
    """The matrix invariant w/w (q = 2) of u(t) -> w(u(-t)) on sl2C, for w the
    Weyl swap r4 mu r4^-1, which no catalog entry names."""
    cat = catalog_for("sl2C")
    w = cat.named("r4").compose(cat.named("mu")).compose(cat.named("r4").inverse())
    return jsonio.enc_invariant(extract_invariant_second(realize_second("sl2C", w, w)[1]))


@pytest.mark.parametrize("named", [True, False], ids=["named", "matrix"])
@pytest.mark.parametrize("edit, error", [
    ({"q": -4}, "InvalidInputError"),
    ({"q": 0}, "InvalidInputError"),
    ({"q": 7}, "OrderMismatchError"),
    ({"q": 4}, "OrderMismatchError"),
    ({"q": 10 ** 400}, "OrderMismatchError"),
    ({"minus": "r4"}, "SquareMismatchError"),
], ids=["negative-q", "zero-q", "odd-q", "q-not-twice-the-square-order", "huge-q",
        "no-common-square"])
def test_second_kind_invariant_documents_are_validated(tmp_path, capsys, named, edit, error):
    # the base documents are mu/id and w/w, both with q = 2; each edit
    # used to compare equal to itself
    if named:
        inv = {"kind": "second", "algebra": "sl2C", "q": 2, "plus": "mu", "minus": "id", **edit}
    else:
        inv = _matrix_pair_invariant()
        assert "plus_matrix" in inv
        if "minus" in edit:
            inv["minus_matrix"] = jsonio.enc_automorphism(catalog_for("sl2C").named("r4"))
        inv.update({k: v for k, v in edit.items() if k == "q"})
    t0 = time.perf_counter()
    code, doc, err = _run_on_document(tmp_path, capsys, "equivalent", inv)
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert doc["error"]["type"] == error
    assert err == ""


def test_second_kind_squares_must_agree(tmp_path, capsys):
    # r3 and id have different squares; r3^2 has order 3, so q = 6 would
    # otherwise match
    inv = {"kind": "second", "algebra": "sl3C", "q": 6, "plus": "r3", "minus": "id"}
    code, doc, _ = _run_on_document(tmp_path, capsys, "equivalent", inv)
    assert code == 2 and doc["error"]["type"] == "SquareMismatchError"


@pytest.mark.parametrize("algebra", ["sl2C", "sl3C"])
def test_every_second_kind_chain_still_decodes(tmp_path, capsys, algebra):
    phi_path, inv_path = tmp_path / "phi.json", tmp_path / "inv.json"
    for plus, minus in catalog_for(algebra).second_kind_pairs():
        assert main(["auto", "realize", "--algebra", algebra, "--kind", "second",
                     "--plus", plus, "--minus", minus, "--out", str(phi_path)]) == 0
        assert main(["auto", "invariant", "--in", str(phi_path), "--out", str(inv_path)]) == 0
        code, doc = run_cli(capsys, "auto", "equivalent", "--a", str(inv_path),
                            "--b", str(inv_path))
        assert code == 0 and doc == {"equal": True}


with open(os.path.join(os.path.dirname(__file__), "golden_cli_level.json")) as fh:
    GOLDEN_LEVEL = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN_LEVEL["documents"], ids=lambda e: " ".join(e["argv"][:2]))
def test_forced_level_documents_are_pinned_byte_for_byte(capsys, monkeypatch, entry):
    # the realized map's target twist has level-12 entries, lifted to 24
    monkeypatch.setenv("KMFORGE_LEVEL", GOLDEN_LEVEL["KMFORGE_LEVEL"])
    assert main(entry["argv"]) == 0
    assert capsys.readouterr().out == entry["text"]


@pytest.mark.parametrize("argv", [
    ["algebra", "list"],
    ["algebra", "show"],
    ["auto", "realize", "--kind", "first", "--q", "2", "--p", "0", "--rho", "mu", "--beta", "id"],
    ["auto", "invariant", "--in", "MISSING"],
    ["auto", "order", "--in", "MISSING"],
    ["auto", "equivalent", "--a", "MISSING", "--b", "MISSING"],
    ["classify", "involutions"],
    ["classify", "realforms"],
    *(["verify", suite] for suite in sorted(verify.SUITES)),
], ids=" ".join)
def test_a_level_that_is_no_integer_exits_2_on_every_subcommand(tmp_path, capsys, monkeypatch,
                                                                argv):
    # the level is checked before any work: the input files are never opened
    monkeypatch.setenv("KMFORGE_LEVEL", "abc")
    argv = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in argv]
    code, doc = run_cli(capsys, *argv)
    assert code == 2
    assert doc == {"error": {"code": 2, "message": "KMFORGE_LEVEL must be an integer, got 'abc'"}}


def test_a_level_that_is_no_multiple_of_D_exits_2(tmp_path, capsys, monkeypatch):
    phi_path = tmp_path / "phi.json"
    realize = ["auto", "realize", "--kind", "first", "--q", "2", "--p", "0", "--rho", "mu",
               "--beta", "id", "--D", "8"]
    assert main([*realize, "--out", str(phi_path)]) == 0
    monkeypatch.setenv("KMFORGE_LEVEL", "12")
    for argv in (realize, ["auto", "invariant", "--in", str(phi_path)]):
        code, doc = run_cli(capsys, *argv)
        assert code == 2
        assert doc["error"]["message"] == "KMFORGE_LEVEL=12 must be a multiple of D=8"
    code, doc = run_cli(capsys, *realize[:-1], "0")
    assert code == 2 and doc["error"]["message"] == "D=0 must be >= 1"


@pytest.mark.parametrize("argv, message", [
    (["--kind", "first", "--q", "2", "--p", "0", "--rho", "mu"],
     "first-kind realization needs --q --p --rho --beta"),
    (["--kind", "second", "--plus", "mu"], "second-kind realization needs --plus --minus"),
])
def test_realize_without_its_flags_exits_2(capsys, argv, message):
    code, doc = run_cli(capsys, "auto", "realize", *argv)
    assert code == 2 and doc == {"error": {"code": 2, "message": message}}


def test_invariant_of_a_scaled_map_exits_2(tmp_path, capsys):
    phi, _ = _realized_documents(tmp_path, capsys)
    phi["tau_r"] = ["2", "1"]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(phi))
    code, doc = run_cli(capsys, "auto", "invariant", "--in", str(path))
    assert code == 2
    assert doc["error"]["message"] == "scaling-composed maps carry no classification invariant"


@pytest.mark.parametrize("argv, message", [
    (["verify", "cartan", "--N", "-1"], "N must be >= 0"),
    (["verify", "roundtrip", "--bound", "0"], "bound must be >= 1"),
    (["auto", "realize", "--kind", "first", "--q", "0", "--p", "0", "--rho", "id",
      "--beta", "id"], "q must be >= 1"),
])
def test_a_flag_below_its_least_value_exits_2(capsys, argv, message):
    code, doc = run_cli(capsys, *argv)
    assert code == 2 and doc == {"error": {"code": 2, "message": message}}


@pytest.mark.parametrize("argv, message", [
    (["--q", "6", "--bound", "3"], "bound=3 is below the order 6 of the first-kind maps with q=6"),
    # every second-kind pair has order 2
    (["--q", "1", "--bound", "1"],
     "bound=1 is below the order 2 of the second-kind pair plus=id, minus=id"),
])
def test_roundtrip_rejects_a_bound_below_a_checked_order(capsys, monkeypatch, argv, message):
    def realized_too_early(*args, **kwargs):
        raise AssertionError("a map was realized before the bound was checked")

    monkeypatch.setattr(verify, "realize_first", realized_too_early)
    monkeypatch.setattr(verify, "realize_second", realized_too_early)
    code, doc = run_cli(capsys, "verify", "roundtrip", *argv)
    assert code == 2 and doc["error"]["message"] == message


def test_roundtrip_at_a_bound_equal_to_every_checked_order_passes(capsys):
    code, doc = run_cli(capsys, "verify", "roundtrip", "--q", "2", "--bound", "2")
    assert code == 0 and doc["ok"] is True


def test_a_failing_trial_fails_its_check_with_the_first_witness(capsys, monkeypatch):
    draws = iter(range(1, 4))
    assert verify._seeded_trials(3, lambda: (next(draws),),
                                 lambda n: f"trial {n}" if n >= 2 else None) == (2, "trial 2")

    calls = []

    def fails_from_the_second_call(x, y, z):
        calls.append(None)
        return f"call {len(calls)}" if len(calls) >= 2 else None

    monkeypatch.setattr(verify, "_jacobi_witness", fails_from_the_second_call)
    report = verify.verify_jacobi(N=2, trials=3)
    # the id twist makes calls 1 to 3, of which 2 and 3 fail; the tau twist 4 to 6
    assert report["ok"] is False and report["failed"] == 2
    assert [c["witness"] for c in report["checks"]] == ["call 2", "call 4"]
    calls.clear()
    code, doc = run_cli(capsys, "verify", "jacobi", "--N", "2", "--trials", "3")
    assert code == 1 and doc == report


def test_the_parser_is_built_once_and_carries_nothing_between_calls(tmp_path, capsys,
                                                                   monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    phi = str(tmp_path / "phi.json")
    assert main(["auto", "realize", "--kind", "first", "--q", "2", "--p", "0", "--rho", "mu",
                 "--beta", "id", "--out", phi]) == 0
    # a flag set on one call is back at its default on the next
    assert run_cli(capsys, "auto", "order", "--in", phi, "--bound", "5") == (
        0, {"order": 2, "bound": 5})
    assert run_cli(capsys, "auto", "order", "--in", phi) == (0, {"order": 2, "bound": 48})
    main(["verify", "jacobi", "--trials", "1", "--seed", "3"])
    capsys.readouterr()
    assert main(["verify", "jacobi"]) == 0
    fresh = subprocess.run([sys.executable, "-m", "kmforge.cli", "verify", "jacobi"],
                           capture_output=True, text=True)
    assert fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout
    # KMFORGE_LEVEL is read on every call, not when the parser was built
    realize = ["auto", "realize", "--kind", "first", "--q", "2", "--p", "0", "--rho", "mu",
               "--beta", "id"]
    monkeypatch.setenv("KMFORGE_LEVEL", "12")
    code, doc = run_cli(capsys, *realize)
    assert code == 0 and doc["curve"]["base"]["matrix"][0][0]["level"] == 12
    monkeypatch.delenv("KMFORGE_LEVEL")
    code, doc = run_cli(capsys, *realize)
    assert code == 0 and doc["curve"]["base"]["matrix"][0][0]["level"] == 4
    monkeypatch.setenv("KMFORGE_LEVEL", "abc")
    code, doc = run_cli(capsys, *realize)
    assert code == 2 and "KMFORGE_LEVEL" in doc["error"]["message"]


def test_importing_the_cli_builds_no_parser():
    # kmforge's set-up time is timed from import; the parser is built on the
    # first main call
    proc = subprocess.run([sys.executable, "-c", "from kmforge import cli; "
                           "print(cli.build_parser.cache_info().currsize)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "0"
