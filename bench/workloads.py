"""The three benchmark workloads, their verdict units and their gates.

Every workload is a fixed list of ``kmforge`` CLI commands, run in-process
through ``cli.main`` with each output written to a file, so a pass takes the
time a CLI user waits for and produces the bytes the CLI promises to keep
identical.  A pass is judged in three ways:

* each verdict unit against a known answer that does not come from the code
  under test (golden real forms, the order the map was realized with, an
  identity total of exactly zero);
* the SHA-256 of the pass's canonical output against the digest recorded
  from the seed commit in ``expected.json``;
* a pass with zero units fails, so a suite that checked nothing cannot pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED_DIGESTS = json.load(_fh)["digests"]

# The seven real forms of the sl2C loop algebra (PAPER.md): the compact form,
# three of the first kind and three of the second kind, by report label.
GOLDEN_REAL_FORMS = ("compact", "1a:mu,id", "1a:mu,tau", "1b:id",
                     "2:id,id", "2:mu,mu", "2:mu,id")
GOLDEN_FIRST_KIND = [[1, 0, "id", "id"], [2, 0, "mu", "id"], [2, 0, "mu", "tau"],
                     [2, 1, "id", "id"]]
GOLDEN_SECOND_KIND = [["id", "id"], ["mu", "id"], ["mu", "mu"]]

# First-kind catalog triples (q, p, rho, beta) of sl2C with q <= 4.
SL2_FIRST_KIND_Q4 = [
    (1, 0, "id", "id"), (2, 0, "mu", "id"), (2, 0, "mu", "tau"), (2, 1, "id", "id"),
    (3, 0, "r3", "id"), (3, 1, "id", "id"), (4, 0, "r4", "id"), (4, 1, "id", "id"),
    (4, 2, "mu", "id"), (4, 2, "mu", "tau"),
]

ORDER_BOUND = 48
REFERENCE_EVERY_S = 1.0


@dataclass
class Command:
    """One CLI invocation and how its units are found and judged.

    ``marks`` names a ``verify`` function whose calls start a new unit;
    ``every`` calls make one mark (three draws make one triple).  A unit runs
    from its mark to the next mark or to the end of the command.  Without
    marks the whole command is one unit.  ``judge(rc, doc, labels)`` returns
    one verdict per unit.
    """

    argv: list
    out: str
    judge: object
    marks: str | None = None
    every: int = 1
    label_of: object = None
    canon: object = None  # output text -> canonical text for the digest


@dataclass
class PassResult:
    wall_s: float = 0.0
    reference_s: list = field(default_factory=list)
    unit_s: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    digest: str = ""
    digest_ok: bool = False
    errors: list = field(default_factory=list)

    @property
    def ok(self):
        return bool(self.verdicts) and all(self.verdicts) and self.digest_ok and not self.errors


# -- unit clock ----------------------------------------------------------------


class _Yardstick:
    """Samples the host's speed with ``reference`` at most every
    REFERENCE_EVERY_S; ``spent`` is the time sampling took, which the timings
    it interrupts subtract."""

    def __init__(self, reference):
        self.reference, self.samples = reference, []
        self.spent, self.last = 0.0, float("-inf")

    def sample(self, force=False):
        t0 = time.perf_counter()
        if self.reference is not None and (force or t0 - self.last >= REFERENCE_EVERY_S):
            self.samples.append(self.reference())
            self.last = time.perf_counter()
            self.spent += self.last - t0


class _Marker:
    """Wraps one ``verify`` global for the length of a command; each unit
    start may also take a yardstick sample."""

    def __init__(self, verify_mod, name, every, label_of, yardstick):
        self.mod, self.name = verify_mod, name
        self.original = getattr(verify_mod, name)
        self.marks = []  # (time, yardstick time so far, label)
        seen = [0]
        original, marks, clock = self.original, self.marks, time.perf_counter

        def hook(*args, **kwargs):
            if seen[0] % every == 0:
                yardstick.sample()
                marks.append((clock(), yardstick.spent, label_of(args) if label_of else None))
            seen[0] += 1
            return original(*args, **kwargs)

        setattr(verify_mod, name, hook)

    def remove(self):
        setattr(self.mod, self.name, self.original)


def run_pass(commands, digest_key, reference=None):
    """Run every command once; time units; judge afterwards.

    ``reference`` is a timed computation that does not use kmforge.  It runs
    between commands and at unit starts, at most once every
    REFERENCE_EVERY_S, and once more at the end; its own time is left out of
    the pass and unit timings.
    """
    from kmforge import cli, verify

    res = PassResult()
    yardstick = _Yardstick(reference)
    timings = []  # per command: (command, exit code, unit durations, labels, raise)
    clock = time.perf_counter
    for cmd in commands:
        yardstick.sample()
        marker = (_Marker(verify, cmd.marks, cmd.every, cmd.label_of, yardstick)
                  if cmd.marks else None)
        spent0 = yardstick.spent
        t0 = clock()
        rc, raised = None, None
        try:
            rc = cli.main(cmd.argv + ["--out", cmd.out])
        except Exception as exc:  # a raise is a failed unit, not a crash
            raised = f"{type(exc).__name__}: {exc}"
        finally:
            t1 = clock()
            if marker:
                marker.remove()
        if marker:
            bounds = [(t, spent) for t, spent, _ in marker.marks] + [(t1, yardstick.spent)]
            units = [(tb - ta) - (sb - sa) for (ta, sa), (tb, sb) in zip(bounds, bounds[1:])]
            labels = [lab for _, _, lab in marker.marks]
        else:
            units, labels = [t1 - t0], [None]
        res.wall_s += (t1 - t0) - (yardstick.spent - spent0)
        timings.append((cmd, rc, units, labels, raised))
    yardstick.sample(force=True)
    res.reference_s = yardstick.samples

    hasher = hashlib.sha256()
    for cmd, rc, units, labels, raised in timings:
        res.unit_s.extend(units)
        if raised:
            res.errors.append(f"{' '.join(cmd.argv)}: {raised}")
            res.verdicts.extend([False] * max(len(units), 1))
            continue
        try:
            with open(cmd.out) as fh:
                text = fh.read()
            hasher.update((cmd.canon(text) if cmd.canon else text).encode())
            verdicts = list(cmd.judge(rc, json.loads(text), labels))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            res.errors.append(f"{' '.join(cmd.argv)}: cannot judge output: {exc!r}")
            verdicts = [False] * len(units)
        if len(verdicts) != len(units):
            res.errors.append(f"{' '.join(cmd.argv)}: {len(units)} units, "
                              f"{len(verdicts)} verdicts")
            verdicts = [False] * len(units)
        res.verdicts.extend(verdicts)
    res.digest = hasher.hexdigest()
    res.digest_ok = res.digest == EXPECTED_DIGESTS.get(digest_key)
    if not res.digest_ok:
        res.errors.append(f"output digest {res.digest} differs from the recorded one")
    return res


# -- judges ----------------------------------------------------------------------


def _checks(doc):
    return {c["name"]: c for c in doc["checks"]}


def judge_realforms(N):
    def judge(rc, doc, labels):
        checks = _checks(doc)
        head = (rc == 0 and checks["count:7"]["pass"]
                and checks["golden:first-kind"]["found"] == GOLDEN_FIRST_KIND
                and checks["golden:second-kind"]["found"] == GOLDEN_SECOND_KIND
                and checks["pairwise-distinct"]["pass"]
                and sorted(labels) == sorted(GOLDEN_REAL_FORMS))
        return [head and checks[f"realform:{lab}:N={N}"]["pass"] is True for lab in labels]
    return judge


def judge_cartan(N):
    noncompact = sorted(GOLDEN_REAL_FORMS[1:])

    def judge(rc, doc, labels):
        checks = _checks(doc)
        head = rc == 0 and sorted(labels) == noncompact
        return [head and checks[f"cartan:{lab}:N={N}"]["pass"] is True for lab in labels]
    return judge


def judge_identity(trials):
    """Jacobi / cocycle: each check holds ``trials`` triples whose totals
    must all be exactly zero; a triple carries the verdict of its check."""
    def judge(rc, doc, labels):
        out = []
        for check in doc["checks"]:
            ok = rc == 0 and check["trials"] == trials and check["pass"] is True
            out.extend([ok] * check["trials"])
        return out
    return judge


def judge_hat(rc, doc, labels):
    names = {"hat-extension:sl2C:tau", "hat-extension:sl2C:mu",
             "center-derived:sl2C:id", "center-derived:sl2C:tau"}
    checks = _checks(doc)
    return [rc == 0 and set(checks) == names and all(c["pass"] is True for c in checks.values())]


def judge_roundtrip(rc, doc, labels):
    """Brute-force order oracle equals the closed form, and both equal the q
    the map was realized with."""
    ok = rc == 0 and doc["ok"] is True and bool(doc["checks"])
    for c in doc["checks"]:
        if c["name"].startswith("first:"):
            q = int(c["name"].split(":q=")[1].split(":")[0])
            ok = ok and c["order_closed_form"] == c["order_bruteforce"] == q
        else:
            ok = ok and c["order"] == c["order_bruteforce"] is not None
    return [ok]


def judge_catalog(algebra):
    def judge(rc, doc, labels):
        return [rc == 0 and isinstance(doc, list) and bool(doc)
                and all(entry["algebra"] == algebra for entry in doc)]
    return judge


def judge_equals(expected):
    def judge(rc, doc, labels):
        return [rc == 0 and doc == expected]
    return judge


def judge_realized(rc, doc, labels):
    return [rc == 0 and doc.get("type") == "standard" and doc.get("epsilon") == 1]


def _strip_seed(text):
    """Canonical text of a seeded report: the drawn inputs change with the
    workload seed, the verdicts must not."""
    doc = json.loads(text)
    doc["config"].pop("seed", None)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    algebras: tuple
    commands: object  # (seed, workdir) -> list of Command


def _out(workdir, index, tag):
    return os.path.join(workdir, f"{index:03d}-{tag}.json")


def _realform_slices(seed, workdir):
    return [
        Command(["verify", "realforms", "--algebra", "sl2C", "--N", "4"],
                _out(workdir, 0, "realforms"),
                judge_realforms(4), marks="verify_real_form",
                label_of=lambda args: args[0].label),
        Command(["verify", "cartan", "--algebra", "sl2C", "--N", "3"],
                _out(workdir, 1, "cartan"),
                judge_cartan(3), marks="cartan_decomposition",
                label_of=lambda args: args[0].label),
    ]


def _bracket_identities(seed, workdir):
    rng = random.Random(seed)
    s = [str(rng.randrange(1, 2 ** 31)) for _ in range(4)]
    out = [_out(workdir, i, tag) for i, tag in enumerate(("jacobi", "cocycle", "hat", "jacobi"))]
    return [
        Command(["verify", "jacobi", "--algebra", "sl2C", "--N", "6", "--trials", "100",
                 "--seed", s[0]], out[0], judge_identity(100),
                marks="random_affine", every=3, canon=_strip_seed),
        Command(["verify", "cocycle", "--algebra", "sl2C", "--N", "6", "--trials", "100",
                 "--seed", s[1]], out[1], judge_identity(100),
                marks="random_loop", every=3, canon=_strip_seed),
        Command(["verify", "hat", "--algebra", "sl2C", "--seed", s[2]], out[2],
                judge_hat, canon=_strip_seed),
        Command(["verify", "jacobi", "--algebra", "sl3C", "--N", "6", "--trials", "10",
                 "--seed", s[3]], out[3], judge_identity(10),
                marks="random_affine", every=3, canon=_strip_seed),
    ]


def _classify_cli(seed, workdir):
    cmds = []

    def out(tag):
        return _out(workdir, len(cmds), tag)
    cmds.append(Command(["classify", "realforms", "--algebra", "sl3C"], out("realforms"),
                        judge_catalog("sl3C")))
    cmds.append(Command(["classify", "involutions", "--algebra", "sl3C"], out("involutions"),
                        judge_catalog("sl3C")))
    for algebra, q in (("sl3C", 2), ("sl3C", 3), ("sl2C", 6)):
        cmds.append(Command(["verify", "roundtrip", "--algebra", algebra, "--q", str(q)],
                            out(f"roundtrip-{algebra}-{q}"), judge_roundtrip))
    for q, p, rho, beta in SL2_FIRST_KIND_Q4:
        expected = {"kind": "first", "algebra": "sl2C", "q": q, "p": p,
                    "rho": rho, "beta_class": beta}
        known = os.path.join(workdir, f"known-{q}-{p}-{rho}-{beta}.json")
        with open(known, "w") as fh:
            json.dump(expected, fh, sort_keys=True)
        phi = out("realize")
        cmds.append(Command(["auto", "realize", "--algebra", "sl2C", "--kind", "first",
                             "--q", str(q), "--p", str(p), "--rho", rho, "--beta", beta],
                            phi, judge_realized))
        inv = out("invariant")
        cmds.append(Command(["auto", "invariant", "--in", phi], inv, judge_equals(expected)))
        cmds.append(Command(["auto", "order", "--in", phi], out("order"),
                            judge_equals({"order": q, "bound": ORDER_BOUND})))
        cmds.append(Command(["auto", "equivalent", "--a", inv, "--b", known], out("equivalent"),
                            judge_equals({"equal": True})))
    return cmds


WORKLOADS = {
    w.name: w for w in (
        Workload("realform-slices", ("sl2C",), _realform_slices),
        Workload("bracket-identities", ("sl2C", "sl3C"), _bracket_identities),
        Workload("classify-cli", ("sl2C", "sl3C"), _classify_cli),
    )
}


def build_catalogs(workload):
    """The tables and catalogs a workload needs, built once per process."""
    from kmforge.catalog import catalog_for

    for algebra in workload.algebras:
        catalog_for(algebra)
