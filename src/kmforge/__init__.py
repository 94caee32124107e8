"""kmforge: exact twisted loop algebras and affine Kac-Moody classification.

The scalar domain is the cyclotomic field Q(zeta_L); every operation in the
package is exact.  Layers, bottom up: ``field`` (scalars), ``liealg``
(finite-dimensional algebras and their automorphisms), ``loop`` (twisted
algebraic loops), ``affine`` (the two-dimensional extension), ``standard``
and ``invariants`` (automorphisms of the loop algebra and their
classification data), ``realforms`` (involutions, real forms, Cartan
decompositions), ``verify`` (the exact check suites), ``cli`` (JSON front
end).
"""

from .field import CyclotomicNumber, zeta_power
from .liealg import (
    AlgebraElement,
    ExpCurveData,
    FiniteAutomorphism,
    LieAlgebraTable,
    automorphism_order,
    bracket,
    builtin_algebra,
    check_automorphism,
    eigenspace_decomposition,
    exp_ad,
    exp_curve,
    fixed_subalgebra,
    killing_form,
)
from .loop import (
    LoopElement,
    TwistContext,
    cocycle,
    loop_bracket,
    loop_derivative,
    loop_inner,
    tau_r_apply,
    validate,
)
from .affine import (
    AffineElement,
    affine_bracket,
    center_and_derived_check,
    extend_to_hat,
    finite_order_extension,
)
from .standard import (
    ScaledMap,
    StandardAutomorphism,
    apply,
    compose,
    inverse,
    standard_automorphism,
    standard_order,
)
from .invariants import (
    FirstKindInvariant,
    SecondKindInvariant,
    extract_invariant_first,
    extract_invariant_second,
    invariants_equal,
    realize_first,
    realize_second,
)
from .realforms import (
    CartanDecomposition,
    InvolutionDescriptor,
    RealFormDescriptor,
    cartan_decomposition,
    enumerate_involutions,
    enumerate_real_forms,
    finite_order_product_check,
    fixed_point_basis,
    verify_real_form,
)

__version__ = "0.1.0"
