"""The benchmark's correctness gate fails wrong verdicts and empty passes.

Run with ``python -m pytest bench/test_gate.py`` from the repository root.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402


def _chain(tmp_path, q, p, rho, beta, expected_order):
    phi = str(tmp_path / "phi.json")
    return [
        wl.Command(["auto", "realize", "--algebra", "sl2C", "--kind", "first", "--q", str(q),
                    "--p", str(p), "--rho", rho, "--beta", beta], phi, wl.judge_realized),
        wl.Command(["auto", "order", "--in", phi], str(tmp_path / "order.json"),
                   wl.judge_equals({"order": expected_order, "bound": wl.ORDER_BOUND})),
    ]


def test_pass_needs_units_verdicts_and_digest():
    assert wl.PassResult(verdicts=[True], digest_ok=True).ok
    assert not wl.PassResult(verdicts=[], digest_ok=True).ok
    assert not wl.PassResult(verdicts=[True, False], digest_ok=True).ok
    assert not wl.PassResult(verdicts=[True], digest_ok=False).ok


def test_zero_trial_suite_fails_the_gate(tmp_path):
    cmd = wl.Command(["verify", "jacobi", "--trials", "0"], str(tmp_path / "j.json"),
                     wl.judge_identity(0), marks="random_affine", every=3)
    res = wl.run_pass([cmd], "bracket-identities")
    with open(cmd.out) as fh:
        assert json.load(fh)["ok"] is True  # the suite claims success
    assert res.unit_s == [] and res.verdicts == []
    assert not res.ok


def test_wrong_known_answer_fails_its_unit(tmp_path):
    good = wl.run_pass(_chain(tmp_path, 3, 1, "id", "id", 3), "none")
    assert good.verdicts == [True, True]
    bad = wl.run_pass(_chain(tmp_path, 3, 1, "id", "id", 4), "none")
    assert bad.verdicts == [True, False] and not bad.ok


def test_unrecorded_output_fails_the_digest(tmp_path):
    res = wl.run_pass(_chain(tmp_path, 2, 1, "id", "id", 2), "classify-cli")
    assert all(res.verdicts) and not res.digest_ok and not res.ok


def test_judges_reject_wrong_reports():
    jacobi = {"checks": [{"name": "jacobi:sl2C:id", "pass": True, "trials": 2},
                         {"name": "jacobi:sl2C:tau", "pass": False, "trials": 2}]}
    assert wl.judge_identity(2)(0, jacobi, []) == [True, True, False, False]
    assert wl.judge_identity(3)(0, jacobi, []) == [False] * 4

    labels = list(wl.GOLDEN_REAL_FORMS)
    report = {"checks": [
        {"name": "count:7", "pass": True},
        {"name": "golden:first-kind", "pass": True, "found": wl.GOLDEN_FIRST_KIND},
        {"name": "golden:second-kind", "pass": True, "found": wl.GOLDEN_SECOND_KIND},
        {"name": "pairwise-distinct", "pass": True},
    ] + [{"name": f"realform:{lab}:N=4", "pass": lab != "1b:id"} for lab in labels]}
    verdicts = wl.judge_realforms(4)(0, report, labels)
    assert verdicts == [lab != "1b:id" for lab in labels]
    assert wl.judge_realforms(4)(0, report, labels[:-1]) == [False] * 6

    roundtrip = {"ok": True, "checks": [
        {"name": "first:sl2C:q=6:p=1:rho=id:beta=id", "order_closed_form": 6,
         "order_bruteforce": 3}]}
    assert wl.judge_roundtrip(0, roundtrip, [None]) == [False]
