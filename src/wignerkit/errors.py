"""Exception types shared across the toolkit."""


class WignerkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(WignerkitError):
    """Operands have incompatible or non-square shapes."""


class NonFiniteError(WignerkitError):
    """A matrix contains NaN or infinite entries, or entries above superop.MAX_ENTRY."""


class NotHermitianError(WignerkitError):
    """Input deviates from its conjugate transpose beyond tolerance."""


class NotAProjectionError(WignerkitError):
    """Spectrum is not within tolerance of {0, 1}."""


class NotUnitaryError(WignerkitError):
    """U*U deviates from the identity beyond tolerance."""


class BadRankError(WignerkitError):
    """Requested rank k is outside [1, n-1]."""


class BadIndexError(WignerkitError):
    """Basis-column index is out of range."""


class BadParameterError(WignerkitError):
    """Generator parameter is outside its admissible range."""


class NotHermiticityPreservingError(WignerkitError):
    """Map does not send Hermitian matrices to Hermitian matrices."""


class SingularMapError(WignerkitError):
    """Superoperator is numerically singular (condition number > 1e12), or its
    inverse has an entry above superop.MAX_ENTRY."""


class NotWignerLikeError(WignerkitError):
    """Neither conjugation model fits the map within tolerance."""


class DegenerateImageError(WignerkitError):
    """Image of a rank-1 matrix unit is not numerically rank 1."""


class SerializationError(WignerkitError):
    """JSON payload does not match the expected schema."""
