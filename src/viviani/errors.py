"""Exception types shared across the package.

Everything raised on bad input derives from :class:`VivianiError` (itself a
``ValueError``), so callers can catch one base class.  Document-handling
errors have their own intermediate base because the CLI maps them to a
different exit code (2 = malformed input) than geometric precondition
failures (3).
"""


class VivianiError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionMismatch(VivianiError):
    """Operands live in different ambient dimensions."""


class NonUnitNormal(VivianiError):
    """A stored hyperplane normal must be unit length to within 1e-9."""


class InvalidPolygon(VivianiError):
    """Vertex list is not a strictly convex polygon."""


class InvalidPolytope(VivianiError):
    """Half-space list does not bound a full-dimensional region."""


class ClosureViolation(VivianiError):
    """Equiangular side lengths do not close up into a polygon."""


class NonPositiveLength(VivianiError):
    """Side lengths must be strictly positive."""


class UnknownSolid(VivianiError):
    """Not one of the five regular polyhedra."""


class DomainError(VivianiError):
    """Parameter outside its admissible open interval."""


class CoincidesWithAnchor(VivianiError):
    """Query point coincides with one of the given points."""


class NotAFermatPoint(VivianiError):
    """Optimality certificate failed for the claimed minimizer."""


class NotViviani(VivianiError):
    """Hyperplane set's unit normals do not sum to zero within tolerance."""


class MixedSigns(VivianiError):
    """Signed distances are required to be one-sided but are not."""


class SpokeViolation(VivianiError):
    """A point is not on its center-to-vertex segment."""


class DocumentError(VivianiError):
    """Base for errors raised while reading or validating a document."""


class DocumentSyntaxError(DocumentError):
    """Input is not well-formed JSON; message carries line and column."""


class SchemaError(DocumentError):
    """JSON is well-formed but does not match the document schema."""


class NormTolerance(DocumentError):
    """A document normal deviates from unit length by more than 1e-6."""


class NormalizationWarning(UserWarning):
    """A document normal was silently renormalized (deviation in (1e-9, 1e-6])."""
