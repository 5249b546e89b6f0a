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
