"""Exception hierarchy shared by all slq modules."""


class SlqError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveCoefficient(SlqError):
    """p or r evaluated to a non-positive value at a sample point."""


class NonFiniteValue(SlqError):
    """A coefficient evaluated to NaN or infinity at an interior sample."""


class UnknownCatalogEntry(SlqError):
    """Requested model problem is not in the catalog."""


class SpecFileError(SlqError):
    """Problem-spec file failed to parse or contained unknown fields."""


class ExpressionPole(SpecFileError, ZeroDivisionError):
    """An expression divided by zero at a point.  It names the expression,
    and is still a ZeroDivisionError to callers that skip such points."""


class StepSizeUnderflow(SlqError):
    """The ODE integrator could not advance (coefficient singularity)."""


class NonFiniteState(SlqError):
    """The ODE state overflowed; caller must rescale."""


class EvaluationOutsideSupport(SlqError):
    """A trajectory was evaluated outside its dense-output range."""


class Inconclusive(SlqError):
    """Endpoint classification could not be certified within budget."""


class OscillatoryAtLambda0(SlqError):
    """Basis construction requires a nonoscillatory reference energy."""


class IntegralClassificationInconclusive(SlqError):
    """Principal/nonprincipal window test did not resolve."""


class NoConvergence(SlqError):
    """Extrapolation deltas failed to decrease; limit not certified."""


class WindowsOverlap(SlqError):
    """Nonvanishing windows leave no central blending region."""


class VariantMismatch(SlqError):
    """Extension variant incompatible with the endpoint classification."""


class RangeContainsNoBracket(SlqError):
    """No eigenvalue bracket was found in the requested range."""


class ShootingOverflow(SlqError):
    """Rescaled marching failed during eigenvalue shooting."""


class BasisVanishes(SlqError):
    """A basis function vanished inside its certified window."""


class FormIntegralDiverges(SlqError):
    """A form integral failed its window convergence test."""


class WindowInvalid(SlqError):
    """Cut points violate a < c < a0 <= b0 < d < b."""


class DomainConstraintViolated(SlqError):
    """A decorated-form domain condition fails beyond tolerance."""


class NotSelfAdjointPair(SlqError):
    """Matrix pair fails the Hermitian compatibility condition."""


class RankDeficient(SlqError):
    """The n x 2n block (B A) has rank below n."""
