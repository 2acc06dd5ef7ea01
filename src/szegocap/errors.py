"""Exception hierarchy shared across the package."""


class SzegocapError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SzegocapError):
    """Bad run setup: unknown symbol family, invalid grid, insufficient padding."""


class DomainError(SzegocapError):
    """An argument lies outside the documented domain of an operation."""


class AliasingError(ConfigurationError):
    """Grid too coarse for the requested frequency truncation (2*h_x*omega_max > 1)."""


class NonHermitianError(DomainError):
    """A spectral routine received a matrix whose hermitian defect exceeds its tolerance."""


class NoCapacityError(SzegocapError):
    """Water-filling requested on a spectrum or symbol with no positive part."""


class UnsupportedSymbolError(SzegocapError):
    """Continuous water-filling needs a time-invariant or 1-periodic symbol."""


class TruncationWarning(UserWarning):
    """Symbol or kernel mass remains above tail tolerance at the domain edge."""
