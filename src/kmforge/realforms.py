"""Involutions, real forms, and Cartan decompositions of the built-ins.

Real forms are fixed-point sets of antilinear involutions, built as the
compact conjugation composed with a catalog involution of the loop algebra.
They are represented intensionally; every verification works on an explicit
degree truncation with exact rational kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .catalog import catalog_for
from .errors import InvalidInputError, NotApplicableError, UnknownAlgebraError
from .field import field_degree, imaginary_unit, zeta_power
from .invariants import (
    extract_invariant_first,
    extract_invariant_second,
    invariants_equal_first,
    invariants_equal_second,
    realize_first,
    realize_second,
)
from .liealg import automorphism_order, rational_fixed_span
from .loop import (
    LoopElement,
    TwistContext,
    cocycle,
    loop_bracket,
    loop_coords,
    loop_derivative,
    slice_terms,
    zero_loop,
)
from .standard import apply, compose, identity_automorphism, pointwise, standard_order


@dataclass(frozen=True)
class InvolutionDescriptor:
    kind: str            # "1a" | "1b" | "2"
    algebra: str
    data: dict
    sigma: object        # FiniteAutomorphism, the resulting twist
    psi: object          # StandardAutomorphism of order 2
    invariant: object

    @property
    def antilinear(self):
        return self.psi.antilinear


@dataclass(frozen=True)
class RealFormDescriptor:
    kind: str            # "compact" | "1a" | "1b" | "2"
    algebra: str
    label: str
    involution: object   # InvolutionDescriptor | None (compact form)
    conjugation: object  # antilinear StandardAutomorphism of order 2
    invariant: object
    hat_adjoin: str      # "Rc+Rd" | "R(ic)+R(id)"
    split_tag: str       # "almost_compact" | "almost_split"

    @property
    def context(self):
        return self.conjugation.source


@dataclass(frozen=True)
class CartanDecomposition:
    form: RealFormDescriptor
    N: int
    k_basis: tuple
    m_basis: tuple
    theta_c: object      # the compact conjugation both bases were split by

    def cartan_involution(self, x):
        """+1 on k, -1 on m; defined on the spanned truncation."""
        coords = _solve_in_basis(list(self.k_basis) + list(self.m_basis), x)
        if coords is None:
            raise InvalidInputError("element is outside the decomposed truncation")
        nk = len(self.k_basis)
        out = zero_loop(x.context)
        for c, b in zip(coords[:nk], self.k_basis):
            out = out + b * c
        for c, b in zip(coords[nk:], self.m_basis):
            out = out - b * c
        return out


def enumerate_involutions(algebra_name, kind):
    """Involution descriptors of one of the three shapes, catalog order."""
    cat = catalog_for(algebra_name)
    out = []
    if kind in ("1a", "1b"):
        # 1a involutions have shift p = 0, the period-halving 1b ones p = 1
        shift = 0 if kind == "1a" else 1
        for p, rho, label in cat.first_kind_triples(2):
            if p != shift:
                continue
            sigma, psi = realize_first(algebra_name, p, rho, label, 2)
            inv = extract_invariant_first(psi, 2)
            data = {"rho": rho, "beta": label} if p == 0 else {"phi": label}
            out.append(InvolutionDescriptor(kind, algebra_name, data, sigma, psi, inv))
    elif kind == "2":
        for pn, mn in cat.second_kind_pairs():
            sigma, psi = realize_second(algebra_name, pn, mn)
            inv = extract_invariant_second(psi, 2)
            out.append(InvolutionDescriptor(
                "2", algebra_name, {"plus": pn, "minus": mn}, sigma, psi, inv))
    else:
        raise InvalidInputError(f"unknown involution kind {kind!r}")
    return out


def compact_conjugation(context):
    """The pointwise conjugation against the compact real form."""
    cat = catalog_for(context.algebra.name)
    return pointwise(context, cat.omega())


def real_form_from_involution(desc):
    """Fixed-point descriptor of (compact conjugation) o psi."""
    omega_tilde = compact_conjugation(desc.psi.target)
    theta = compose(omega_tilde, desc.psi)
    if standard_order(theta) != 2:
        raise ArithmeticError("conjugation is not an involution")
    adjoin = "Rc+Rd" if theta.epsilon == 1 else "R(ic)+R(id)"
    tag = "almost_compact" if theta.epsilon == 1 else "almost_split"
    label = f"{desc.kind}:" + ",".join(str(v) for v in desc.data.values())
    return RealFormDescriptor(desc.kind, desc.algebra, label, desc, theta,
                              desc.invariant, adjoin, tag)


def compact_real_form(algebra_name):
    """The compact form of the untwisted loop algebra."""
    cat = catalog_for(algebra_name)
    ctx = TwistContext(cat.algebra, cat.named("id"))
    theta = compact_conjugation(ctx)
    ident = identity_automorphism(ctx)
    inv = extract_invariant_first(ident, 1)
    return RealFormDescriptor("compact", algebra_name, "compact", None, theta,
                              inv, "Rc+Rd", "almost_compact")


def enumerate_real_forms(algebra_name):
    if algebra_name not in ("sl2C", "sl3C"):
        raise UnknownAlgebraError(f"no real-form catalog for {algebra_name!r}")
    out = [compact_real_form(algebra_name)]
    for kind in ("1a", "1b", "2"):
        for desc in enumerate_involutions(algebra_name, kind):
            out.append(real_form_from_involution(desc))
    return out


def real_forms_equivalent(a, b):
    """Equality of the attached classification invariants."""
    first_a = a.kind in ("compact", "1a", "1b")
    first_b = b.kind in ("compact", "1a", "1b")
    if first_a != first_b:
        return False
    if first_a:
        return invariants_equal_first(a.invariant, b.invariant)
    return invariants_equal_second(a.invariant, b.invariant)


# -- truncated fixed-point machinery -----------------------------------------


def _slice_level(context):
    return math.lcm(4, 2 * context.D)


def _coordinates_in_slice(u, N, lev):
    """Rational coordinates of a loop of degree <= N: for k = -N..N, the
    power-basis coordinates at level ``lev`` of every algebra coordinate of the
    k-th term, with a zero block where the term is missing."""
    if u.degree() > N:
        raise InvalidInputError("loop leaves the truncation slice")
    return loop_coords(u, range(-N, N + 1), lev)


def fixed_point_basis(desc, N):
    """Rational-span basis of the degree <= N slice of the real form."""
    theta = desc.conjugation
    ctx = theta.source
    lev = _slice_level(ctx)
    gens = [LoopElement(ctx, {k: zeta_power(lev, j) * b})
            for k, b in slice_terms(ctx, N) for j in range(field_degree(lev))]
    return rational_fixed_span(gens, [apply(theta, g) for g in gens],
                               lambda u: _coordinates_in_slice(u, N, lev))


def real_dimension(desc, N):
    """Real dimension of the truncated slice of the form: the rational kernel
    has dimension (real dimension) * [real subfield : Q]."""
    ctx = desc.conjugation.source
    lev = _slice_level(ctx)
    basis = fixed_point_basis(desc, N)
    return len(basis) * 2 // field_degree(lev)


def verify_real_form(desc, N):
    """Bracket closure, H intersect iH = 0, and H + iH = slice, all exact."""
    theta = desc.conjugation
    ctx = theta.source
    lev = _slice_level(ctx)
    basis = fixed_point_basis(desc, N)
    big_basis = fixed_point_basis(desc, 2 * N)
    rr, piv = linalg.rref([_coordinates_in_slice(b, 2 * N, lev) for b in big_basis])
    closure_ok = True
    closure_witness = None
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            w = loop_bracket(basis[i], basis[j])
            if not w:
                continue
            fixed = apply(theta, w) == w
            spanned = linalg.in_span(rr, piv, _coordinates_in_slice(w, 2 * N, lev))
            if not (fixed and spanned):
                closure_ok = False
                closure_witness = (i, j)
    i_unit = imaginary_unit(lev)
    flat = [_coordinates_in_slice(b, N, lev) for b in basis]
    flat_i = [_coordinates_in_slice(b * i_unit, N, lev) for b in basis]
    slice_dim = len(slice_terms(ctx, N)) * field_degree(lev)
    stacked = flat + flat_i
    rank = linalg.rank(stacked)
    disjoint = rank == 2 * len(basis)
    spanning = rank == slice_dim
    return {
        "form": desc.label,
        "N": N,
        "basis_size": len(basis),
        "slice_dim_rational": slice_dim,
        "bracket_closed": closure_ok,
        "closure_witness": closure_witness,
        "h_cap_ih_trivial": disjoint,
        "h_plus_ih_full": spanning,
        "passed": closure_ok and disjoint and spanning,
    }


def _solve_in_basis(basis, x):
    if not basis:
        return None
    ctx = basis[0].context
    lev = _slice_level(ctx)
    N = max(b.degree() for b in basis + [x])
    cols = [_coordinates_in_slice(b, N, lev) for b in basis]
    return linalg.solve(list(zip(*cols)), _coordinates_in_slice(x, N, lev))


def cartan_decomposition(desc, N):
    """k = truncation intersected with the compact condition, m with its
    i-shifted complement.  ``verify_cartan`` checks the bracket gradings."""
    if desc.kind == "compact":
        raise NotApplicableError("the compact form has no Cartan decomposition here")
    theta = desc.conjugation
    ctx = theta.source
    theta_c = compact_conjugation(ctx)
    lev = _slice_level(ctx)
    basis = fixed_point_basis(desc, N)
    images = [apply(theta_c, b) for b in basis]

    def flatten(u):
        return _coordinates_in_slice(u, N, lev)

    k_basis = rational_fixed_span(basis, images, flatten, sign=1)
    m_basis = rational_fixed_span(basis, images, flatten, sign=-1)
    if len(k_basis) + len(m_basis) != len(basis):
        raise ArithmeticError("compact conjugation does not split the truncation")
    return CartanDecomposition(desc, N, tuple(k_basis), tuple(m_basis), theta_c)


def verify_cartan(dec):
    """The three bracket inclusions plus compactness of k + i*m, exact."""
    desc = dec.form
    theta = desc.conjugation
    theta_c = dec.theta_c
    i_unit = imaginary_unit(_slice_level(theta.source))

    def in_k(w):
        return apply(theta, w) == w and apply(theta_c, w) == w

    def in_m(w):
        return apply(theta, w) == w and apply(theta_c, w) == -1 * w

    kk = all(in_k(loop_bracket(a, b)) for a in dec.k_basis for b in dec.k_basis)
    km = all(in_m(loop_bracket(a, b)) for a in dec.k_basis for b in dec.m_basis)
    mm = all(in_k(loop_bracket(a, b)) for a in dec.m_basis for b in dec.m_basis)
    compact_cond = all(apply(theta_c, b) == b for b in dec.k_basis)
    compact_cond = compact_cond and all(
        apply(theta_c, b * i_unit) == b * i_unit for b in dec.m_basis)
    return {
        "form": desc.label,
        "N": dec.N,
        "dim_k": len(dec.k_basis),
        "dim_m": len(dec.m_basis),
        "kk_in_k": kk,
        "km_in_m": km,
        "mm_in_k": mm,
        "k_plus_im_compact": compact_cond,
        "passed": kk and km and mm and compact_cond,
    }


def hat_adjunction_check(desc, N):
    """Closure of the adjoined span: the derivation generator keeps the
    coefficient condition and central values land in the tagged real line."""
    theta = desc.conjugation
    ctx = theta.source
    basis = fixed_point_basis(desc, N)
    i_unit = imaginary_unit(_slice_level(ctx))
    use_id = desc.hat_adjoin == "R(ic)+R(id)"
    derivation_ok = True
    for b in basis:
        w = loop_derivative(b)
        if use_id:
            w = w * i_unit
        if w and apply(theta, w) != w:
            derivation_ok = False
    central_ok = True
    for a in basis:
        for b in basis:
            val = cocycle(a, b)
            expected = -val.conj() if use_id else val.conj()
            if expected != val:
                central_ok = False
    return {
        "form": desc.label,
        "N": N,
        "hat_adjoin": desc.hat_adjoin,
        "derivation_closure": derivation_ok,
        "central_values_real_line": central_ok,
        "passed": derivation_ok and central_ok,
    }


def finite_order_product_check(g_plus, g_minus, h, bound=48):
    """Order of (h g_minus h^{-1})^{-1} g_plus, or None beyond the bound."""
    if g_plus.power(2) != g_minus.power(2):
        raise InvalidInputError("inputs must share a common square")
    moved = h.compose(g_minus).compose(h.inverse())
    return automorphism_order(moved.inverse().compose(g_plus), bound)
