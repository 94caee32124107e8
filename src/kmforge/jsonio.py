"""JSON encodings for every value type.

All arbitrary-precision integers travel as decimal strings (rationals as
["num", "den"] pairs); structural integers (levels, exponents, orders) stay
native.  Encoders are deterministic: combined with sorted keys this makes
identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .affine import AffineElement
from .catalog import catalog_for
from .errors import CatalogMissError, InvalidInputError, UnknownAlgebraError
from .field import CyclotomicNumber, check_level
from .invariants import FirstKindInvariant, SecondKindInvariant
from .liealg import AlgebraElement, FiniteAutomorphism, builtin_algebra, exp_curve
from .loop import LoopElement, TwistContext
from .standard import (
    ComposedLoopMap,
    ConstantCurve,
    ExpCurve,
    ScalingAutomorphism,
    standard_automorphism,
)


def _object(obj, what):
    """``obj`` if it is a JSON object; any other shape is an input error."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _integer(value, what):
    try:
        return int(value)
    except TypeError as exc:
        raise InvalidInputError(f"{what} must be an integer, got {type(value).__name__}") from exc


def _string(value, what):
    if not isinstance(value, str):
        raise InvalidInputError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise InvalidInputError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def enc_rational(q):
    q = Fraction(q)
    return [str(q.numerator), str(q.denominator)]


def dec_rational(obj):
    try:
        num, den = obj
        return Fraction(int(num), int(den))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad rational encoding: {obj!r}") from exc


def enc_cyclo(x, min_level=None):
    if min_level:
        x = x.lift(math.lcm(x.level, min_level))
    return {"level": x.level, "coords": [enc_rational(c) for c in x.coords]}


def dec_cyclo(obj):
    try:
        level = int(obj["level"])
        degree = check_level(level)  # before anything is built at that level
        coords = [dec_rational(c) for c in obj["coords"]]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"bad cyclotomic encoding: {obj!r}") from exc
    if len(coords) != degree:
        raise InvalidInputError("coordinate count does not match the level")
    return CyclotomicNumber(level, coords)


def enc_element(x, min_level=None):
    return {"algebra": x.algebra.name,
            "coords": [enc_cyclo(c, min_level) for c in x.coords]}


def dec_element(obj):
    algebra = builtin_algebra(_string(obj["algebra"], "algebra name"))
    coords = [dec_cyclo(c) for c in obj["coords"]]
    if len(coords) != algebra.dim:
        raise InvalidInputError("element length does not match the algebra")
    return AlgebraElement(algebra, tuple(coords))


def enc_automorphism(a, min_level=None):
    out = {
        "algebra": a.algebra.name,
        "matrix": [[enc_cyclo(x, min_level) for x in row] for row in a.matrix],
        "antilinear": a.antilinear,
    }
    name = _catalog_name(a)
    if name:
        out["name"] = name
    return out


def _catalog_name(a):
    try:
        cat = catalog_for(a.algebra.name)
    except UnknownAlgebraError:
        return None
    name = cat.name_of(a)
    if name is None and cat.omega() == a:
        return "omega"
    return name


def dec_automorphism(obj):
    algebra = builtin_algebra(_string(_object(obj, "automorphism")["algebra"], "algebra name"))
    if "matrix" not in obj and "name" in obj:
        cat = catalog_for(algebra.name)
        if _string(obj["name"], "automorphism name") == "omega":
            return cat.omega()
        return cat.named(obj["name"])
    matrix = _list(obj["matrix"], "matrix")
    rows = [[dec_cyclo(x) for x in _list(row, "matrix row")] for row in matrix]
    return FiniteAutomorphism(algebra, rows, antilinear=bool(obj.get("antilinear", False)))


def enc_context(ctx, min_level=None):
    return {"algebra": ctx.algebra.name,
            "sigma": enc_automorphism(ctx.sigma, min_level),
            "D": ctx.D}


def dec_context(obj):
    algebra = builtin_algebra(_string(_object(obj, "twist context")["algebra"], "algebra name"))
    sigma = dec_automorphism(obj["sigma"])
    return TwistContext(algebra, sigma, D=_integer(obj["D"], "D"))


def enc_loop(u, min_level=None):
    return {
        "context": enc_context(u.context, min_level),
        "terms": [{"k": k, "coeff": enc_element(x, min_level)} for k, x in u.terms],
    }


def dec_loop(obj):
    ctx = dec_context(obj["context"])
    terms = {int(t["k"]): dec_element(t["coeff"]) for t in obj["terms"]}
    return LoopElement(ctx, terms)


def enc_affine(x, min_level=None):
    return {"loop": enc_loop(x.loop, min_level),
            "c": enc_cyclo(x.c_coef, min_level),
            "d": enc_cyclo(x.d_coef, min_level)}


def dec_affine(obj):
    return AffineElement(dec_loop(obj["loop"]), dec_cyclo(obj["c"]), dec_cyclo(obj["d"]))


def enc_standard(phi, min_level=None):
    if isinstance(phi.curve, ConstantCurve):
        curve = {"kind": "constant", "base": enc_automorphism(phi.curve.base, min_level)}
    else:
        curve = {
            "kind": "exp",
            "generator": enc_element(phi.curve.data.generator, min_level),
            "eigenvalues": [enc_rational(q) for q, _ in phi.curve.data.eigenpairs],
            "base": enc_automorphism(phi.curve.base, min_level),
        }
    return {
        "type": "standard",
        "epsilon": phi.epsilon,
        "shift": enc_rational(phi.shift),
        "antilinear": phi.antilinear,
        "curve": curve,
        "source": enc_context(phi.source, min_level),
        "target": enc_context(phi.target, min_level),
    }


def dec_standard(obj):
    source = dec_context(_object(obj, "standard map")["source"])
    curve_obj = _object(obj["curve"], "curve")
    base = dec_automorphism(curve_obj["base"])
    if curve_obj["kind"] == "constant":
        curve = ConstantCurve(base)
    elif curve_obj["kind"] == "exp":
        gen = dec_element(curve_obj["generator"])
        qs = [dec_rational(q) for q in curve_obj["eigenvalues"]]
        curve = ExpCurve(exp_curve(gen, qs), base)
    else:
        raise InvalidInputError(f"unknown curve kind {curve_obj.get('kind')!r}")
    target = dec_context(obj["target"]) if "target" in obj else None
    phi = standard_automorphism(_integer(obj["epsilon"], "epsilon"), dec_rational(obj["shift"]),
                                curve, source, target)
    if bool(obj.get("antilinear", False)) != phi.antilinear:
        raise InvalidInputError("antilinear flag disagrees with the curve base")
    return phi


def dec_loop_map(obj):
    """A standard automorphism, optionally composed with a scaling tau_r."""
    phi = dec_standard(obj)
    if "tau_r" in obj:
        r = dec_rational(obj["tau_r"])
        if r != 1:
            return ComposedLoopMap((ScalingAutomorphism(r), phi))
    return phi


def enc_invariant(inv, min_level=None):
    if isinstance(inv, FirstKindInvariant):
        return {"kind": "first", "algebra": inv.algebra, "q": inv.q,
                "p": inv.p, "rho": inv.rho, "beta_class": inv.beta_class}
    if isinstance(inv, SecondKindInvariant):
        out = {"kind": "second", "algebra": inv.algebra, "q": inv.q}
        if inv.plus_name and inv.minus_name:
            out["plus"] = inv.plus_name
            out["minus"] = inv.minus_name
        else:
            out["plus_matrix"] = enc_automorphism(inv.plus, min_level)
            out["minus_matrix"] = enc_automorphism(inv.minus, min_level)
        return out
    raise InvalidInputError(f"cannot encode invariant {inv!r}")


def dec_invariant(obj):
    if _object(obj, "invariant").get("kind") == "first":
        cat = catalog_for(_string(obj["algebra"], "algebra name"))
        q, p = _integer(obj["q"], "q"), _integer(obj["p"], "p")
        if q < 1 or not 0 <= 2 * p <= q:
            raise InvalidInputError(f"a first-kind invariant needs q >= 1 and 0 <= p <= q/2, "
                                    f"got q={q}, p={p}")
        rho = _string(obj["rho"], "rho")
        beta = _string(obj["beta_class"], "beta_class")
        # an unknown rho or class is a catalog miss, as an unknown second-kind name is
        r = math.gcd(p, q)
        if rho not in [entry.name for entry in cat.rho_reps(r)]:
            raise CatalogMissError(f"no catalog representative {rho!r} of order {r}")
        if beta not in cat.component_labels(rho):
            raise CatalogMissError(f"no component class {beta!r} in the centralizer of {rho!r}")
        return FirstKindInvariant(obj["algebra"], q, p, rho, beta)
    if obj.get("kind") == "second":
        cat = catalog_for(_string(obj["algebra"], "algebra name"))
        if "plus" in obj:
            plus = cat.named(_string(obj["plus"], "plus"))
            minus = cat.named(_string(obj["minus"], "minus"))
            names = (obj["plus"], obj["minus"])
        else:
            plus = dec_automorphism(obj["plus_matrix"])
            minus = dec_automorphism(obj["minus_matrix"])
            names = (None, None)
        return SecondKindInvariant(obj["algebra"], _integer(obj["q"], "q"), plus, minus, *names)
    raise InvalidInputError(f"unknown invariant kind {obj.get('kind')!r}")


def enc_involution_descriptor(desc, min_level=None):
    return {
        "kind": desc.kind,
        "algebra": desc.algebra,
        "data": dict(desc.data),
        "order": 2,
        "twist": enc_automorphism(desc.sigma, min_level),
        "invariant": enc_invariant(desc.invariant, min_level),
    }


def enc_real_form(desc, min_level=None):
    out = {
        "kind": desc.kind,
        "algebra": desc.algebra,
        "label": desc.label,
        "invariant": enc_invariant(desc.invariant, min_level),
        "hat_adjoin": desc.hat_adjoin,
        "split_tag": desc.split_tag,
        "twist_order": desc.context.twist_order,
        "D": desc.context.D,
    }
    if desc.involution is not None:
        out["data"] = dict(desc.involution.data)
    return out


def enc_table(table):
    return {
        "name": table.name,
        "dim": table.dim,
        "basis": list(table.basis_names),
        "base_field": table.base_field_tag,
        "compact": table.compact_flag,
        "structure_constants": [
            [[enc_rational(c) for c in row] for row in plane] for plane in table.structure
        ],
        "killing": [[enc_rational(c) for c in row] for row in table.killing],
    }
