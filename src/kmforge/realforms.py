"""Involutions, real forms, and Cartan decompositions of the built-ins.

Real forms are fixed-point sets of antilinear involutions, built as the
compact conjugation composed with a catalog involution of the loop algebra.
They are represented intensionally; every verification works on an explicit
degree truncation with exact rational kernels.  A truncation splits into
exponent blocks, joined by each generator's exponent and its image's support
(``_blocks``), and all of its linear algebra reads ``loop_coords`` off a
block: the fixed span and the H + iH rank go block by block, the Cartan split
over unions of blocks under k -> -k.  Bracket closure needs none: a bracket
of two fixed loops lies in the real form exactly when the conjugation fixes
it, which ``standard.fixes`` tests term by term without building the image;
the Cartan gradings test theta and theta_c the same way, theta_c(w) = -w
with sign -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .catalog import catalog_for
from .errors import InvalidInputError, NotApplicableError
from .field import field_degree, imaginary_unit, zeta_power
from .invariants import (
    extract_invariant_first,
    extract_invariant_second,
    realize_first,
    realize_second,
)
from .liealg import ORDER_BOUND, automorphism_order, fixed_span_columns
from .loop import (
    LoopElement,
    TwistContext,
    cocycle,
    loop_bracket,
    loop_coords,
    loop_derivative,
    slice_terms,
)
from .standard import apply, compose, fixes, identity_automorphism, pointwise, standard_order


@dataclass(frozen=True)
class InvolutionDescriptor:
    kind: str            # "1a" | "1b" | "2"
    algebra: str
    data: dict
    psi: object          # StandardAutomorphism of order 2
    invariant: object

    @property
    def sigma(self):
        """The resulting twist."""
        return self.psi.source.sigma


@dataclass(frozen=True)
class RealFormDescriptor:
    kind: str            # "compact" | "1a" | "1b" | "2"
    algebra: str
    label: str
    involution: object   # InvolutionDescriptor | None (compact form)
    conjugation: object  # antilinear StandardAutomorphism of order 2
    invariant: object

    @property
    def context(self):
        return self.conjugation.source

    @property
    def hat_adjoin(self):
        return "Rc+Rd" if self.conjugation.epsilon == 1 else "R(ic)+R(id)"

    @property
    def split_tag(self):
        return "almost_compact" if self.conjugation.epsilon == 1 else "almost_split"


@dataclass(frozen=True)
class CartanDecomposition:
    form: RealFormDescriptor
    N: int
    k_basis: tuple
    m_basis: tuple
    theta_c: object      # the compact conjugation both bases were split by


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
            _sigma, psi = realize_first(algebra_name, p, rho, label, 2)
            inv = extract_invariant_first(psi, 2)
            data = {"rho": rho, "beta": label} if p == 0 else {"phi": label}
            out.append(InvolutionDescriptor(kind, algebra_name, data, psi, inv))
    elif kind == "2":
        for pn, mn in cat.second_kind_pairs():
            _sigma, psi = realize_second(algebra_name, pn, mn)
            inv = extract_invariant_second(psi, 2)
            out.append(InvolutionDescriptor(
                "2", algebra_name, {"plus": pn, "minus": mn}, psi, inv))
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
    label = f"{desc.kind}:" + ",".join(str(v) for v in desc.data.values())
    return RealFormDescriptor(desc.kind, desc.algebra, label, desc, theta, desc.invariant)


def compact_real_form(algebra_name):
    """The compact form of the untwisted loop algebra."""
    cat = catalog_for(algebra_name)
    ctx = TwistContext(cat.algebra, cat.named("id"))
    theta = compact_conjugation(ctx)
    ident = identity_automorphism(ctx)
    inv = extract_invariant_first(ident, 1)
    return RealFormDescriptor("compact", algebra_name, "compact", None, theta, inv)


def enumerate_real_forms(algebra_name):
    out = [compact_real_form(algebra_name)]
    for kind in ("1a", "1b", "2"):
        for desc in enumerate_involutions(algebra_name, kind):
            out.append(real_form_from_involution(desc))
    return out


# -- truncated fixed-point machinery -----------------------------------------


def _slice_level(context):
    return math.lcm(4, 2 * context.D)


def _coordinates_in_slice(u, N, lev):
    """``loop_coords`` of a loop of degree <= N over the whole slice -N..N.
    Nothing here calls it, as coordinates are read off blocks; it stays as the
    tests' slice-wide reference and a name ``bench/tracer.py`` resolves."""
    if u.degree() > N:
        raise InvalidInputError("loop leaves the truncation slice")
    return loop_coords(u, range(-N, N + 1), lev)


def _exponent(desc, k, lev):
    """(zeta_lev^j * b, its theta-image) for the slice at exponent k."""
    ctx = desc.context
    gens = [LoopElement._trusted(ctx, {k: zeta_power(lev, j) * b})
            for b in ctx.eigenbasis_for_exponent(k) for j in range(field_degree(lev))]
    return [(g, apply(desc.conjugation, g)) for g in gens]


def _blocks(desc, N, lev):
    """The degree <= N slice as (block, basis) pairs.  A block is a sorted
    tuple of exponents, a connected set joined by each generator's exponent
    and the support of its image; an image beyond degree N leaves the slice.
    Its basis spans its fixed set as (key, element) pairs, keyed by the
    exponent of the element's free column and that column."""
    pairs = {}
    blocks = []
    for k in range(-N, N + 1):
        pairs[k] = _exponent(desc, k, lev)
        reach = {k}.union(*(y.support() for _, y in pairs[k]))
        if any(abs(j) > N for j in reach):
            raise InvalidInputError("loop leaves the truncation slice")
        if pairs[k]:
            blocks = [b for b in blocks if not b & reach] + [
                reach.union(*(b for b in blocks if b & reach))]
    out = []
    for block in (tuple(sorted(b)) for b in blocks):
        gens, images = zip(*(p for k in block for p in pairs[k]))
        out.append((block, [((gens[f].terms[0][0], f), x) for f, x in fixed_span_columns(
            gens, images, lambda u: loop_coords(u, block, lev))]))
    return out


def _merged(blocks):
    """The blocks' bases merged in free-column order, the vectors of one
    solve over the whole slice."""
    return [x for _, x in sorted((kx for _, basis in blocks for kx in basis),
                                 key=lambda kx: kx[0])]


def fixed_point_basis(desc, N):
    """Rational-span basis of the degree <= N slice of the real form."""
    return _merged(_blocks(desc, N, _slice_level(desc.context)))


def verify_real_form(desc, N):
    """Bracket closure, H intersect iH = 0, and H + iH = slice, all exact.
    A bracket w of two fixed loops lies in the real form exactly when
    theta(w) = w, so ``fixes(theta, w)`` certifies closure.
    Closure takes pairs i < j: [b, a] = -[a, b] and theta is real-linear, so
    the pair (j, i) passes iff (i, j) does, and [a, a] = 0.  The witness is
    the first failing pair.  The rank of H + iH is the sum of the blocks':
    b and i*b lie in b's block."""
    theta = desc.conjugation
    ctx = theta.source
    lev = _slice_level(ctx)
    blocks = _blocks(desc, N, lev)
    basis = _merged(blocks)
    closure_witness = next(((i, j) for i, j in combinations(range(len(basis)), 2)
                            if (w := loop_bracket(basis[i], basis[j])) and not fixes(theta, w)),
                           None)
    closure_ok = closure_witness is None
    i_unit = imaginary_unit(lev)
    # rank does not depend on a row's scale: rows are the numerators
    rank = sum(linalg.rank([loop_coords(y, block, lev)[0]
                            for _, x in block_basis for y in (x, x * i_unit)])
               for block, block_basis in blocks)
    slice_dim = len(slice_terms(ctx, N)) * field_degree(lev)
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


def cartan_decomposition(desc, N):
    """k = truncation intersected with the compact condition, m with its
    i-shifted complement, each solved over the unions of blocks that share an
    |exponent| (theta_c sends k to -k).  ``verify_cartan`` checks the gradings."""
    if desc.kind == "compact":
        raise NotApplicableError("the compact form has no Cartan decomposition here")
    ctx = desc.context
    theta_c = compact_conjugation(ctx)
    lev = _slice_level(ctx)
    unions = {}  # frozenset of |k| -> (key, element) pairs of its blocks
    for block, basis in _blocks(desc, N, lev):
        reach = frozenset(abs(k) for k in block)
        joined = [a for a in unions if a & reach]
        unions[reach.union(*joined)] = basis + [kx for a in joined for kx in unions.pop(a)]
    halves = ([], [])  # (key, element) pairs of k and of m
    for absolute, pairs in unions.items():
        pairs.sort(key=lambda kx: kx[0])
        gens = [x for _, x in pairs]
        images = [apply(theta_c, x) for x in gens]
        exponents = sorted({s * a for a in absolute for s in (1, -1)})
        if not set(exponents).issuperset(k for y in images for k in y.support()):
            raise ArithmeticError("compact conjugation leaves a block")
        for sign, out in zip((1, -1), halves):
            out += [(pairs[f][0], x) for f, x in fixed_span_columns(
                gens, images, lambda u: loop_coords(u, exponents, lev), sign)]
    k_basis, m_basis = ([x for _, x in sorted(h, key=lambda kx: kx[0])] for h in halves)
    if len(k_basis) + len(m_basis) != sum(map(len, unions.values())):
        raise ArithmeticError("compact conjugation does not split the truncation")
    return CartanDecomposition(desc, N, tuple(k_basis), tuple(m_basis), theta_c)


def verify_cartan(dec):
    """The three bracket inclusions plus compactness of k + i*m, exact, each
    a ``fixes`` test: w in k when theta and theta_c fix it, in m when theta
    fixes it and theta_c(w) = -w.  [k,k] and [m,m] take pairs i < j:
    [b,a] = -[a,b], [a,a] = 0, and theta and theta_c are real-linear, so
    in_k(-w) holds iff in_k(w) does."""
    desc = dec.form
    theta = desc.conjugation
    theta_c = dec.theta_c
    i_unit = imaginary_unit(_slice_level(theta.source))

    def in_k(w):
        return fixes(theta, w) and fixes(theta_c, w)

    def in_m(w):
        return fixes(theta, w) and fixes(theta_c, w, -1)

    kk = all(in_k(loop_bracket(a, b)) for a, b in combinations(dec.k_basis, 2))
    km = all(in_m(loop_bracket(a, b)) for a in dec.k_basis for b in dec.m_basis)
    mm = all(in_k(loop_bracket(a, b)) for a, b in combinations(dec.m_basis, 2))
    compact_cond = (all(fixes(theta_c, b) for b in dec.k_basis)
                    and all(fixes(theta_c, b * i_unit) for b in dec.m_basis))
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


def finite_order_product_check(g_plus, g_minus, h, bound=ORDER_BOUND):
    """Order of (h g_minus h^{-1})^{-1} g_plus, or None beyond the bound."""
    if g_plus.power(2) != g_minus.power(2):
        raise InvalidInputError("inputs must share a common square")
    moved = h.compose(g_minus).compose(h.inverse())
    return automorphism_order(moved.inverse().compose(g_plus), bound)
