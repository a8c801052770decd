"""Exception types shared across barylab modules, and the one size-budget check."""


class GeometryError(Exception):
    """Base class for all barylab errors."""


class InvalidCoordinates(GeometryError):
    """Point coordinates violate the model-space validity contract."""


class DegenerateGeodesic(GeometryError):
    """A geodesic point requested between coincident ends at nonzero arc length."""


class DegenerateAngle(GeometryError):
    """Angle requested at a vertex coinciding with one of its rays' endpoints."""


class InvalidIsometry(GeometryError):
    """Matrix does not preserve the model's bilinear form within tolerance."""


class EnumerationBound(GeometryError):
    """Group word-length bound is provably insufficient for the query."""


class UncoveredPoint(GeometryError):
    """Query point lies outside every cover element."""


class IndeterminateIntersection(GeometryError):
    """Ball-intersection margin lies inside the tolerance band; perturb radii."""


class UnknownSimplex(GeometryError):
    """Simplex not present in the complex."""


class NoBarycenter(GeometryError):
    """A required barycenter could not be found; carries the certificate."""

    def __init__(self, message, certificate=None, stage=None):
        super().__init__(message)
        self.certificate = certificate
        self.stage = stage


class DiameterTooLarge(GeometryError):
    """Input diameters violate a closed-form rule's precondition."""


class ModelSpaceViolation(GeometryError):
    """A closed-form rule's guaranteed bound failed; signals a bug."""


class UndefinedNormal(GeometryError):
    """Normal flow requested at a point of the convex body itself."""


class PreconditionError(GeometryError):
    """A stated operation precondition was violated by the arguments."""


class CalibrationError(GeometryError):
    """Uniform-continuity calibration failed after the allowed halvings."""


class StagedPreconditionError(GeometryError):
    """A verified pipeline precondition failed; names the failing condition."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class PipelineInconsistency(GeometryError):
    """An internal consistency guarantee was violated upstream."""


class BudgetExceeded(GeometryError):
    """A stage would exceed one of its size budgets (nothing allocated)."""


def check_budget(amount, budget, message):
    """Raise BudgetExceeded unless amount <= budget (NaN is refused);
    message names the amount and what it counts."""
    if not amount <= budget:
        raise BudgetExceeded(f"{message}, over the budget of {budget}")
