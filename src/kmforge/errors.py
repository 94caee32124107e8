"""Exception types shared across the package."""


class KmforgeError(Exception):
    """Base class for all package-specific errors."""


class LevelMismatchError(KmforgeError):
    """Cyclotomic levels are incompatible for the requested operation."""


class UnknownAlgebraError(KmforgeError):
    """Requested Lie algebra is not a built-in."""


class AlgebraMismatchError(KmforgeError):
    """Operands live over different Lie algebras."""


class NotFiniteOrderError(KmforgeError):
    """Map has no power equal to the identity within the search bound."""


class IncompatibleDenominatorError(KmforgeError):
    """Exponent denominator D does not absorb an eigenvalue denominator."""


class ContextMismatchError(KmforgeError):
    """Loop elements belong to different twist contexts."""


class TwistMismatchError(KmforgeError):
    """Source/target twist contexts do not line up for composition."""


class InvalidInputError(KmforgeError):
    """Input fails validation (twist condition, schema, ...)."""


class InvalidLevelError(InvalidInputError, ValueError):
    """Cyclotomic level is not a multiple of 4 within the supported range."""


class NotFirstKindError(KmforgeError):
    """Operation requires an orientation-preserving (epsilon=+1) map."""


class NotSecondKindError(KmforgeError):
    """Operation requires an orientation-reversing (epsilon=-1) map."""


class OrderMismatchError(KmforgeError):
    """Declared order disagrees with the computed one."""


class CatalogMissError(KmforgeError):
    """No catalog representative matches (or conjugates to) the given map."""


class IncompatibleDataError(KmforgeError):
    """Realization data violates its preconditions (orders, commutation)."""


class SquareMismatchError(KmforgeError):
    """Pair of automorphisms does not share a common square."""


class ClassifierUnavailableError(KmforgeError):
    """No built-in component classifier covers the request."""


class NotApplicableError(KmforgeError):
    """Operation does not apply to this descriptor (e.g. compact form)."""


class CurveCompositionError(KmforgeError):
    """Curve composition leaves the supported constant/exponential family."""
