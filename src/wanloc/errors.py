"""Exception types shared across the package."""


class WanlocError(Exception):
    """Base class for all library errors."""


class ModelTooSmallError(WanlocError):
    pass


class GaplessModelError(WanlocError):
    pass


class GapClosureRiskError(WanlocError):
    pass


class NoGapError(WanlocError):
    """Fermi energy sits on (or within tolerance of) an eigenvalue."""


class TiltTooLargeError(WanlocError):
    """Exponential tilt would overflow the diagonal weight."""


class InsufficientRangeError(WanlocError):
    """Too few usable distance bins / shells for a decay fit."""


class NumericalDegeneracyError(WanlocError):
    pass


class LapackError(WanlocError):
    """A LAPACK routine reported a nonzero info."""


class NotHermitianError(WanlocError):
    """An operator that must be Hermitian is not, beyond rounding."""


class NotOrthonormalError(WanlocError):
    """Columns that must be orthonormal are not, beyond rounding."""


class SqrtResolventError(WanlocError):
    """The mid-gap resolvent square root fails to commute with P or to turn
    the mid-gap operator into a sign operator."""


class ChernResidualError(WanlocError):
    """The Chern-marker trace keeps an imaginary part beyond rounding."""


class IllConditionedSelectionError(WanlocError):
    pass


class IncompleteBasisError(WanlocError):
    pass


class UnsupportedGeometryError(WanlocError):
    pass


class OutsideGapSetError(WanlocError):
    """lambda does not lie in the union of mid-integer gap intervals."""


class ConfigError(WanlocError):
    pass


class WindowTooLargeError(ConfigError):
    """A Chern window leaves less than L/4 of margin: a config choice."""
