"""JSON encodings for every value type.

All arbitrary-precision integers travel as decimal strings (rationals as
["num", "den"] pairs); structural integers (levels, exponents, orders) stay
native.  Encoders are deterministic: combined with sorted keys this makes
identical inputs produce byte-identical documents.  ``lift_scalars``
re-expresses every scalar of a finished document at a forced minimum level,
and ``dumps`` writes a finished document as indented text.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .affine import AffineElement
from .catalog import catalog_for
from .errors import (
    CatalogMissError,
    InvalidInputError,
    OrderMismatchError,
    SquareMismatchError,
    UnknownAlgebraError,
)
from .field import CyclotomicNumber, check_level
from .invariants import FirstKindInvariant, SecondKindInvariant
from .liealg import (
    AlgebraElement,
    FiniteAutomorphism,
    automorphism_order,
    builtin_algebra,
    check_automorphism,
    exp_curve,
)
from .loop import LoopElement, TwistContext
from .standard import ScaledMap, standard_automorphism


def _object(obj, what):
    """``obj`` if it is a JSON object; any other shape is an input error."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _integer(value, what):
    """``value`` if it is a JSON integer; a float, a bool or a string is not."""
    if type(value) is not int:
        raise InvalidInputError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _flag(obj, key):
    """``obj[key]`` if it is a JSON boolean; False when the key is absent."""
    value = obj.get(key, False)
    if type(value) is not bool:
        raise InvalidInputError(f"{key} must be true or false, got {type(value).__name__}")
    return value


def _string(value, what):
    if not isinstance(value, str):
        raise InvalidInputError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise InvalidInputError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def dumps(payload):
    """The text of ``json.dumps(payload, sort_keys=True, indent=2)``, written
    in one recursive pass.  With an indent the stdlib falls back to its
    pure-Python encoder, which yields every token through a generator; on a
    CLI document this is about three times faster.  A value or key that
    ``json.dumps`` refuses raises TypeError here too."""
    parts = []
    _write(payload, "\n", parts.append)
    return "".join(parts)


def _write(value, pad, out):
    """Emit ``value`` through ``out``, its nested lines indented by ``pad``.
    The tests are json's, in an order that finds the common types first: no
    value passes two of them, and bool is tested before int."""
    if isinstance(value, str):
        out(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = pad + "  "
        lead = "[" + inner
        for v in value:
            out(lead)
            _write(v, inner, out)
            lead = "," + inner
        out(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = pad + "  "
        lead = "{" + inner
        for k, v in sorted(value.items()):
            out(lead + _quote(_key(k)) + ": ")
            _write(v, inner, out)
            lead = "," + inner
        out(pad + "}")
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(json.dumps(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(k):
    """A dict key as the string json writes for it."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return json.dumps(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def enc_rational(q):
    q = Fraction(q)
    return [str(q.numerator), str(q.denominator)]


_DECIMAL = re.compile(r"-?[0-9]+")


def dec_rational(obj):
    """A [num, den] pair of decimal strings matching ``-?[0-9]+``; JSON
    integers that are not booleans are taken too."""
    if isinstance(obj, list) and len(obj) == 2 and all(
            type(x) is int or (type(x) is str and _DECIMAL.fullmatch(x)) for x in obj):
        try:
            return Fraction(int(obj[0]), int(obj[1]))
        except ValueError:
            pass
    raise InvalidInputError(f"bad rational encoding: {obj!r}")


def enc_cyclo(x):
    den = x.den
    return {"level": x.level, "coords": [[str(n // g), str(den // g)]
                                         for n in x.nums for g in (math.gcd(n, den),)]}


def lift_scalars(doc, level):
    """``doc`` with every encoded scalar (a ``{"level", "coords"}`` object)
    re-expressed at lcm(its level, ``level``); everything else is kept."""
    if isinstance(doc, list):
        return [lift_scalars(v, level) for v in doc]
    if not isinstance(doc, dict):
        return doc
    if doc.keys() == {"level", "coords"}:
        x = dec_cyclo(doc)
        return enc_cyclo(x.lift(math.lcm(x.level, level)))
    return {k: lift_scalars(v, level) for k, v in doc.items()}


def dec_cyclo(obj):
    try:
        level = _integer(obj["level"], "level")
        degree = check_level(level)  # before anything is built at that level
        coords = [dec_rational(c) for c in obj["coords"]]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"bad cyclotomic encoding: {obj!r}") from exc
    if len(coords) != degree:
        raise InvalidInputError("coordinate count does not match the level")
    return CyclotomicNumber(level, coords)


def enc_element(x):
    return {"algebra": x.algebra.name, "coords": [enc_cyclo(c) for c in x.coords]}


def dec_element(obj):
    algebra = builtin_algebra(_string(_object(obj, "element")["algebra"], "algebra name"))
    coords = [dec_cyclo(c) for c in _list(obj["coords"], "element coords")]
    if len(coords) != algebra.dim:
        raise InvalidInputError("element length does not match the algebra")
    return AlgebraElement(algebra, tuple(coords))


def enc_automorphism(a):
    out = {
        "algebra": a.algebra.name,
        "matrix": [[enc_cyclo(x) for x in row] for row in a.matrix],
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
    auto = FiniteAutomorphism(algebra, rows, antilinear=_flag(obj, "antilinear"))
    if not check_automorphism(auto):
        raise InvalidInputError("matrix is not an automorphism: it is singular "
                                "or does not preserve the bracket")
    if "name" in obj and _string(obj["name"], "automorphism name") != _catalog_name(auto):
        raise InvalidInputError(f"name {obj['name']!r} does not match the matrix")
    return auto


def enc_context(ctx):
    return {"algebra": ctx.algebra.name, "sigma": enc_automorphism(ctx.sigma), "D": ctx.D}


def dec_context(obj):
    algebra = builtin_algebra(_string(_object(obj, "twist context")["algebra"], "algebra name"))
    sigma = dec_automorphism(obj["sigma"])
    return TwistContext(algebra, sigma, D=_integer(obj["D"], "D"))


def enc_loop(u):
    return {
        "context": enc_context(u.context),
        "terms": [{"k": k, "coeff": enc_element(x)} for k, x in u.terms],
    }


def dec_loop(obj):
    ctx = dec_context(obj["context"])
    terms = {}
    for t in obj["terms"]:
        k = _integer(t["k"], "k")
        if k in terms:
            raise InvalidInputError(f"loop exponent {k} is repeated")
        terms[k] = dec_element(t["coeff"])
    return LoopElement(ctx, terms)


def enc_affine(x):
    return {"loop": enc_loop(x.loop), "c": enc_cyclo(x.c_coef), "d": enc_cyclo(x.d_coef)}


def dec_affine(obj):
    return AffineElement(dec_loop(obj["loop"]), dec_cyclo(obj["c"]), dec_cyclo(obj["d"]))


def enc_standard(phi):
    curve = {"kind": "constant"}
    if phi.exp is not None:
        curve = {
            "kind": "exp",
            "generator": enc_element(phi.exp.generator),
            "eigenvalues": [enc_rational(q) for q, _ in phi.exp.eigenpairs],
        }
    curve["base"] = enc_automorphism(phi.base)
    return {
        "type": "standard",
        "epsilon": phi.epsilon,
        "shift": enc_rational(phi.shift),
        "antilinear": phi.antilinear,
        "curve": curve,
        "source": enc_context(phi.source),
        "target": enc_context(phi.target),
    }


def dec_standard(obj):
    if _object(obj, "standard map").get("type") != "standard":
        raise InvalidInputError(f"a standard map has type 'standard', got {obj.get('type')!r}")
    source = dec_context(obj["source"])
    curve_obj = _object(obj["curve"], "curve")
    base = dec_automorphism(curve_obj["base"])
    exp = None
    if curve_obj["kind"] == "exp":
        gen = dec_element(curve_obj["generator"])
        qs = _list(curve_obj["eigenvalues"], "eigenvalues")
        exp = exp_curve(gen, [dec_rational(q) for q in qs])
    elif curve_obj["kind"] != "constant":
        raise InvalidInputError(f"unknown curve kind {curve_obj.get('kind')!r}")
    target = dec_context(obj["target"]) if "target" in obj else None
    phi = standard_automorphism(_integer(obj["epsilon"], "epsilon"), dec_rational(obj["shift"]),
                                base, source, target, exp=exp)
    if _flag(obj, "antilinear") != phi.antilinear:
        raise InvalidInputError("antilinear flag disagrees with the curve base")
    return phi


def dec_loop_map(obj):
    """A standard automorphism, optionally composed with a scaling tau_r."""
    phi = dec_standard(obj)
    if "tau_r" in obj:
        r = dec_rational(obj["tau_r"])
        if r != 1:
            return ScaledMap(r, phi)
    return phi


def enc_invariant(inv):
    if isinstance(inv, FirstKindInvariant):
        return {"kind": "first", "algebra": inv.algebra, "q": inv.q,
                "p": inv.p, "rho": inv.rho, "beta_class": inv.beta_class}
    if isinstance(inv, SecondKindInvariant):
        out = {"kind": "second", "algebra": inv.algebra, "q": inv.q}
        if inv.plus_name and inv.minus_name:
            out["plus"] = inv.plus_name
            out["minus"] = inv.minus_name
        else:
            out["plus_matrix"] = enc_automorphism(inv.plus)
            out["minus_matrix"] = enc_automorphism(inv.minus)
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
            if plus.antilinear or minus.antilinear:
                raise InvalidInputError("invariants are defined for linear maps only")
            names = (None, None)
        q = _integer(obj["q"], "q")
        if q < 1:
            raise InvalidInputError(f"a second-kind invariant needs q >= 1, got q={q}")
        square = plus.power(2)
        if square != minus.power(2):
            raise SquareMismatchError("plus and minus have no common square")
        # the order of the square is bounded, so a huge q costs nothing
        half = automorphism_order(square)
        if half is None or 2 * half != q:
            raise OrderMismatchError(f"q={q} is not twice the order of the common square")
        return SecondKindInvariant(obj["algebra"], q, plus, minus, *names)
    raise InvalidInputError(f"unknown invariant kind {obj.get('kind')!r}")


def enc_involution_descriptor(desc):
    return {
        "kind": desc.kind,
        "algebra": desc.algebra,
        "data": dict(desc.data),
        "order": 2,
        "twist": enc_automorphism(desc.sigma),
        "invariant": enc_invariant(desc.invariant),
    }


def enc_real_form(desc):
    out = {
        "kind": desc.kind,
        "algebra": desc.algebra,
        "label": desc.label,
        "invariant": enc_invariant(desc.invariant),
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
