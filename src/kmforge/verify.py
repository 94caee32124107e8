"""Verification suites behind the CLI and the acceptance tests.

Every suite is deterministic given (config, seed); all checks are exact.
Reports are plain dicts: a list of named checks, a pass flag, and witnesses
for anything that failed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .affine import (
    AffineElement,
    affine_bracket,
    bracket_sum,
    center_and_derived_check,
    extend_to_hat,
    finite_order_extension,
    hat_order,
    hat_preserves_bracket,
)
from .catalog import catalog_for
from .element import combination
from .errors import InvalidInputError
from .field import _canon, _rational, imaginary_unit
from .invariants import (
    extract_invariant_first,
    extract_invariant_second,
    invariants_equal,
    realize_first,
    realize_second,
)
from .liealg import (
    ORDER_BOUND,
    FiniteAutomorphism,
    automorphism_order,
    builtin_algebra,
    exp_curve,
)
from .loop import (LoopElement, TwistContext, cocycle, cocycle_sum, loop_bracket, tau_r_apply,
                   validate)
from .realforms import (
    cartan_decomposition,
    enumerate_real_forms,
    verify_cartan as verify_cartan_report,
    verify_real_form,
)
from .standard import (
    ScaledMap,
    apply,
    conjugate,
    identity_automorphism,
    loop_map_order,
    pointwise,
    standard_automorphism,
    standard_order,
)


def _twists_for(algebra_name):
    """(name, sigma, D) of the identity twist and of the catalog's first
    involution."""
    cat = catalog_for(algebra_name)
    second = cat.involutions()[0]
    return [("id", cat.named("id"), 1), (second, cat.named(second), 2)]


# The suites look random_loop and random_affine up when they run, so a caller
# may wrap them (the benchmark marks trial boundaries this way).  A drawn term
# is a combination of the eigenbasis of its exponent, so it meets the twist
# condition by construction and the draw is built as a trusted element.
def random_loop(rng, ctx, max_degree=6):
    acc = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-max_degree, max_degree)
        basis = ctx.eigenbasis_for_exponent(k)
        if not basis:
            continue
        scalars = []
        for _ in basis:  # p/q, times i with probability 1/4, as a level-4 scalar
            p, q = rng.randint(-2, 2), rng.randint(1, 2)
            scalars.append(_canon(4, (0, p) if rng.random() < 0.25 else (p, 0), q))
        x = combination(scalars, basis)
        acc[k] = acc[k] + x if k in acc else x
    return LoopElement._trusted(ctx, acc)


def random_affine(rng, ctx, max_degree=6):
    u = random_loop(rng, ctx, max_degree)
    # c and d are p/q, as level-4 scalars
    c = _canon(4, (rng.randint(-2, 2), 0), rng.randint(1, 2))
    d = _canon(4, (rng.randint(-2, 2), 0), rng.randint(1, 2))
    return AffineElement(u, c, d)


def _report(suite, config, checks):
    return {
        "suite": suite,
        "config": config,
        "checks": checks,
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": sum(1 for c in checks if not c["pass"]),
        "ok": all(c["pass"] for c in checks),
    }


def _seeded_trials(trials, draw, check):
    """(failures, first witness) of ``check(*draw())`` over ``trials`` trials.

    ``draw`` makes every random choice of one trial, so the draws happen in
    trial order; ``check`` returns a falsy value on success, a witness
    otherwise.
    """
    bad = 0
    witness = None
    for _ in range(trials):
        found = check(*draw())
        if found:
            bad += 1
            witness = witness or found
    return bad, witness


def _twist_suite(suite, algebra, N, trials, seed, draw, check):
    """One seeded identity check per twist of the algebra (id, then the
    order-2 twist), all drawing from one RNG; each trial checks three
    elements ``draw(rng, ctx, N)``."""
    rng = random.Random(seed)
    checks = []
    for twist_name, sigma, D in _twists_for(algebra):
        ctx = TwistContext(builtin_algebra(algebra), sigma, D=D)
        bad, witness = _seeded_trials(
            trials, lambda: [draw(rng, ctx, N) for _ in range(3)], check)
        checks.append({
            "name": f"{suite}:{algebra}:{twist_name}",
            "pass": bad == 0,
            "trials": trials,
            "witness": witness,
        })
    return _report(suite, {"algebra": algebra, "N": N, "trials": trials, "seed": seed}, checks)


def _jacobi_witness(x, y, z):
    total = bracket_sum([(x, affine_bracket(y, z)), (y, affine_bracket(z, x)),
                         (z, affine_bracket(x, y))])
    return repr(total) if total else None


def verify_jacobi(algebra="sl2C", N=6, trials=100, seed=7):
    """Exact Jacobi identity for the hat bracket on seeded random triples."""
    return _twist_suite("jacobi", algebra, N, trials, seed, random_affine, _jacobi_witness)


def _cocycle_witness(u, v, w):
    if cocycle(u, v) != -cocycle(v, u):
        return "antisymmetry"
    total = cocycle_sum([(loop_bracket(u, v), w), (loop_bracket(v, w), u),
                         (loop_bracket(w, u), v)])
    return "cocycle identity" if total else None


def verify_cocycle(algebra="sl2C", N=6, trials=100, seed=7):
    """Antisymmetry and the 2-cocycle identity, exact, on seeded triples."""
    return _twist_suite("cocycle", algebra, N, trials, seed, random_loop, _cocycle_witness)


def verify_roundtrip(algebra="sl2C", qs=(2, 3, 4, 6), bound=ORDER_BOUND):
    """Realize/extract round trips with a brute-force order oracle."""
    cat = catalog_for(algebra)
    # an involution that is no representative is also paired with itself and id
    pairs = cat.second_kind_pairs() + [pair for name in cat.involutions()
                                       if name not in cat.rho_rep_names
                                       for pair in ((name, name), (name, "id"))]
    # an order past the bound makes an extraction raise mid-run, so every order
    # the suite checks is held against the bound before the first check
    orders = {f"the first-kind maps with q={q}": q for q in qs}
    second_orders = {}
    for pn, mn in pairs:
        half = automorphism_order(cat.named(pn).power(2), bound)
        second_orders[pn, mn] = 2 * half if half else None
        orders[f"the second-kind pair plus={pn}, minus={mn}"] = second_orders[pn, mn]
    for what, order in orders.items():
        if order is None or order > bound:
            shown = order if order else f"> {2 * bound}"
            raise InvalidInputError(f"bound={bound} is below the order {shown} of {what}")
    checks = []
    for q in qs:
        for p, rho, label in cat.first_kind_triples(q):
            sigma, phi = realize_first(algebra, p, rho, label, q)
            # the invariant carries the map's closed-form order
            inv = extract_invariant_first(phi, bound=bound)
            closed = inv.q
            brute = loop_map_order(phi.apply, phi.source, bound)
            ok = closed == q and brute == q and inv.as_tuple() == (p, rho, label)
            checks.append({
                "name": f"first:{algebra}:q={q}:p={p}:rho={rho}:beta={label}",
                "pass": ok,
                "order_closed_form": closed,
                "order_bruteforce": brute,
                "extracted": [inv.p, inv.rho, inv.beta_class],
            })
        # a p whose rho order has no catalog representative fails the run
        checks += [{"name": f"first:{algebra}:q={q}:p={p}:rho_order={m}", "pass": False,
                    "error": "no catalog rho of this order"}
                   for p in range(q // 2 + 1) if not cat.rho_reps(m := math.gcd(p, q))]
    for pn, mn in pairs:
        sigma, phi = realize_second(algebra, pn, mn)
        expected = second_orders[pn, mn]
        inv = extract_invariant_second(phi, bound=bound)
        order = inv.q
        brute = loop_map_order(phi.apply, phi.source, bound)
        _swap_sigma, swap_phi = realize_second(algebra, mn, pn)
        swap_inv = extract_invariant_second(swap_phi, bound=bound)
        swap_equivalent = invariants_equal(inv, swap_inv)
        ok = (order == expected and brute == expected
              and inv.plus == cat.named(pn) and inv.minus == cat.named(mn) and swap_equivalent)
        checks.append({
            "name": f"second:{algebra}:plus={pn}:minus={mn}",
            "pass": ok,
            "order": order,
            "order_bruteforce": brute,
            "swap_equivalent": swap_equivalent,
        })
    return _report("roundtrip", {"algebra": algebra, "qs": list(qs), "bound": bound}, checks)


# The sl2C real forms of the first kind as (q, p, rho, beta) and of the second
# kind as (plus, minus), from PAPER.md.
GOLDEN_FIRST_KIND = {(1, 0, "id", "id"), (2, 0, "mu", "id"), (2, 0, "mu", "tau"), (2, 1, "id", "id")}
GOLDEN_SECOND_KIND = {("id", "id"), ("mu", "mu"), ("mu", "id")}


def verify_realforms(algebra="sl2C", N=4):
    """Golden catalog: enumeration, invariants, distinctness, truncation checks."""
    forms = enumerate_real_forms(algebra)
    checks = []
    if algebra == "sl2C":
        checks.append({"name": "count:7", "pass": len(forms) == 7, "count": len(forms)})
        first = {(f.invariant.q, f.invariant.p, f.invariant.rho, f.invariant.beta_class)
                 for f in forms if f.kind in ("compact", "1a", "1b")}
        second = {(f.invariant.plus_name, f.invariant.minus_name) for f in forms if f.kind == "2"}
        checks.append({"name": "golden:first-kind", "pass": first == GOLDEN_FIRST_KIND,
                       "found": sorted(map(list, first))})
        checks.append({"name": "golden:second-kind", "pass": second == GOLDEN_SECOND_KIND,
                       "found": sorted(map(list, second))})
    distinct = all(
        invariants_equal(a.invariant, b.invariant) == (i == j)
        for i, a in enumerate(forms) for j, b in enumerate(forms)
    )
    checks.append({"name": "pairwise-distinct", "pass": distinct})
    for f in forms:
        report = verify_real_form(f, N)
        checks.append({
            "name": f"realform:{f.label}:N={N}",
            "pass": report["passed"],
            "basis_size": report["basis_size"],
            "witness": report["closure_witness"],
        })
    return _report("realforms", {"algebra": algebra, "N": N}, checks)


def verify_cartan(algebra="sl2C", N=3):
    """Cartan decompositions of every noncompact form at the truncation."""
    checks = []
    for f in enumerate_real_forms(algebra):
        if f.kind == "compact":
            continue
        dec = cartan_decomposition(f, N)
        report = verify_cartan_report(dec)
        checks.append({
            "name": f"cartan:{f.label}:N={N}",
            "pass": report["passed"],
            "dim_k": report["dim_k"],
            "dim_m": report["dim_m"],
        })
    return _report("cartan", {"algebra": algebra, "N": N}, checks)


def _exp_conjugator(ctx):
    """The standard map with curve exp(t ad X), X = (i/2) h for h the first
    basis element whose ad is diagonal in the table basis; the candidate
    eigenvalues are half those diagonal entries."""
    alg = ctx.algebra
    h, plane = next((h, plane) for h, plane in enumerate(alg.pairs)
                    if all(k == j for j, row in enumerate(plane) for k, _ in row))
    x = alg.basis_element(h) * (imaginary_unit() * Fraction(1, 2))
    curve = exp_curve(x, [Fraction(dict(row).get(j, 0), 2) for j, row in enumerate(plane)])
    return standard_automorphism(1, Fraction(0), FiniteAutomorphism.identity(alg), ctx, exp=curve)


def verify_hat(algebra="sl2C", seed=7, trials=10):
    """Finite-order hat extensions of exp-conjugated involutions, with the
    wrong-constant negative control, plus center/derived-algebra checks."""
    rng = random.Random(seed)
    cat = catalog_for(algebra)
    checks = []
    for name in cat.involutions():
        ctx = TwistContext(builtin_algebra(algebra), cat.named("id"), D=2)
        psi = _exp_conjugator(ctx)
        phi = conjugate(psi, pointwise(ctx, cat.named(name)))
        data = finite_order_extension(phi)
        # finite_order_extension raised unless the hat order equals phi's
        order_ok = standard_order(phi) == 2
        # the exp conjugator may move phi onto a twisted context (sl3C)
        src = phi.source
        pairs = [(random_affine(rng, src, 3), random_affine(rng, src, 3)) for _ in range(trials)]
        bracket_ok = hat_preserves_bracket(data, pairs)
        entry = {
            "name": f"hat-extension:{algebra}:{name}",
            "pass": order_ok and bracket_ok,
            "shadow_nonzero": bool(data.shadow),
        }
        if data.shadow:
            bad = extend_to_hat(phi, nu=0)
            control = hat_order(bad, bound=8)
            entry["negative_control_order"] = control
            entry["pass"] = entry["pass"] and control != 2
        checks.append(entry)
    for twist_name, sigma, D in _twists_for(algebra):
        ctx = TwistContext(builtin_algebra(algebra), sigma, D=D)
        report = center_and_derived_check(ctx, 3)
        checks.append({
            "name": f"center-derived:{algebra}:{twist_name}",
            "pass": report["passed"],
        })
    return _report("hat", {"algebra": algebra, "seed": seed, "trials": trials}, checks)


def verify_tau_r(algebra="sl2C", r=Fraction(2), trials=50, seed=17, bound=ORDER_BOUND):
    """Scaling maps: exact bracket homomorphism and unbounded order."""
    r = _rational(r)
    rng = random.Random(seed)
    cat = catalog_for(algebra)
    ctx = TwistContext(builtin_algebra(algebra), cat.named("id"), D=1)

    def broken(u, v):
        return tau_r_apply(r, loop_bracket(u, v)) != loop_bracket(tau_r_apply(r, u),
                                                                  tau_r_apply(r, v))

    bad, _ = _seeded_trials(trials, lambda: (random_loop(rng, ctx), random_loop(rng, ctx)),
                            broken)
    scaled = ScaledMap(r, identity_automorphism(ctx))
    order = loop_map_order(scaled.apply, ctx, bound)
    checks = [
        {"name": f"tau_r:homomorphism:r={r}", "pass": bad == 0, "trials": trials},
        {"name": f"tau_r:unbounded:r={r}", "pass": order is None, "order": order},
    ]
    return _report("tau_r", {"algebra": algebra, "r": str(r), "trials": trials,
                             "seed": seed, "bound": bound}, checks)


def verify_untwisting(algebra="sl2C", seed=19, trials=6):
    """Exponential-curve isomorphism from the twisted onto the untwisted
    algebra: monodromy inverse to the twist, validity, exact brackets."""
    if algebra != "sl2C":
        raise InvalidInputError("the untwist suite is defined on sl2C only")
    rng = random.Random(seed)
    alg = builtin_algebra(algebra)
    cat = catalog_for(algebra)
    ctx = TwistContext(alg, cat.named("tau"), D=2)
    i = imaginary_unit()
    x = alg.element([0, i * Fraction(1, 4), 0])
    curve = exp_curve(x, [Fraction(1, 2), Fraction(0), Fraction(-1, 2)])
    psi = standard_automorphism(1, Fraction(0), FiniteAutomorphism.identity(alg), ctx, exp=curve)
    monodromy_ok = psi.target.sigma.is_identity()

    def witness(u, v):
        pu, pv = apply(psi, u), apply(psi, v)
        if not (validate(pu) and validate(pv)):
            return "validity"
        if apply(psi, loop_bracket(u, v)) != loop_bracket(pu, pv):
            return "bracket"
        return None

    bad, _ = _seeded_trials(trials, lambda: (random_loop(rng, ctx, 4), random_loop(rng, ctx, 4)),
                            witness)
    checks = [
        {"name": "untwist:monodromy", "pass": monodromy_ok},
        {"name": "untwist:validity-and-bracket", "pass": bad == 0, "trials": trials},
    ]
    return _report("untwist", {"seed": seed, "trials": trials}, checks)


SUITES = {
    "jacobi": verify_jacobi,
    "cocycle": verify_cocycle,
    "roundtrip": verify_roundtrip,
    "realforms": verify_realforms,
    "cartan": verify_cartan,
    "hat": verify_hat,
    "tau_r": verify_tau_r,
    "untwist": verify_untwisting,
}
