"""Exception types shared across the package.

Everything raised on purpose derives from NcError so callers can catch one
type at the CLI boundary.  Evidence too thin for a clean verdict (a split
with no singularity data, or insufficient sampling) is a flag on the
result object (``flags``, ``diagnostic``); a numerical construction that
collapsed (spectral_outer's solve, the wandering certificate, the outer
defect, idempotent_split) raises DiagnosticError.  The CLI exits 2 on both.
"""


class NcError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(NcError):
    """Coefficient shapes (or vector lengths) are incompatible."""


class AlphabetMismatchError(ShapeMismatchError):
    """Two objects built over different free alphabets were combined: a
    shape mismatch in the number of letters."""


class ValidityWindowError(NcError):
    """A degree window larger than the operator's valid degree was requested.

    Truncated shift operators annihilate top-degree basis vectors, so
    measurements outside the validity window would report truncation
    artifacts as defects.  This error keeps that from happening silently.
    """


class NotInvertibleError(NcError):
    """Constant term of a series is numerically singular.

    Carries ``smallest_sigma``, the offending singular value.
    """

    def __init__(self, message, smallest_sigma=None):
        super().__init__(message)
        self.smallest_sigma = smallest_sigma


class InadmissiblePointError(NcError):
    """A matrix point with row norm >= 1 was passed to evaluation.

    Carries ``row_norm`` of the rejected point.
    """

    def __init__(self, message, row_norm=None):
        super().__init__(message)
        self.row_norm = row_norm


class NotInnerError(NcError):
    """A series failed the isometry (inner) gate.  Carries ``defect``."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class NotIdempotentError(NcError):
    """E*E - E exceeded tolerance.  Carries ``residual``."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BoundaryRootError(NcError):
    """A disk-algebra zero sits on (or within margin of) the unit circle.

    The Blaschke/outer classification is discontinuous there, so such
    inputs are rejected rather than silently misclassified.
    """


class DiagnosticError(NcError):
    """A numerical construction collapsed in a way that is informative.

    Examples: no wandering eigenvalue near 1 at the working truncation, or
    an autocorrelation solve that stalls away from machine residuals.  The
    message says what collapsed; the fix is usually more resolution or
    more data, not a different tolerance.
    """


class SchemaError(NcError):
    """A JSON document failed validation.  Carries ``path`` into the doc."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


class AdmissibilityWarning(UserWarning):
    """Row norm is inside the ball but close enough to 1 that tail bounds
    are weak (> 0.99 by default)."""
