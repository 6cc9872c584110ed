"""Exception types shared across the package."""


class ToralabError(Exception):
    """Base class for all package-specific errors."""


class DegreeTooLarge(ToralabError):
    """Polynomial degree exceeds the configured factorization bound."""


class ConvergenceFailure(ToralabError):
    """An iterative root finder or solver stalled; residuals attached."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class Indeterminate(ToralabError):
    """A tolerance-based decision could not be certified even after
    raising the working precision."""


class NotHyperbolic(ToralabError):
    """The automorphism has (or may have) eigenvalues on the unit circle."""


class VerificationInconclusive(ToralabError):
    """The finite-grid cone check could not certify hyperbolicity.

    Distinct from a negative verdict: the grid plus Lipschitz slack was
    simply not fine enough.
    """


class NewtonDivergence(ToralabError):
    """Newton iteration failed to converge at one or more points."""

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points


class NoContraction(ToralabError):
    """L's adapted contraction factor, as computed in floating point, is
    not below 1.  The Stein-equation norms put it below 1 for every
    hyperbolic L, so this guards against rounding only."""


class ToleranceNotReached(ToralabError):
    """Iteration hit the iteration cap before reaching the tolerance."""


class OrderViolation(ToralabError):
    """Counterexample construction requires mu > lambda > 1."""


class TruncationInsufficient(ToralabError):
    """Certified tail bound of a Fourier-space solve exceeds tolerance."""


class UnreliableFit(ToralabError):
    """Regression diagnostics of an estimator exceed the threshold."""


class SchemaError(ToralabError):
    """An experiment manifest failed validation."""


class IncomparableManifests(ToralabError):
    """Manifests passed to a comparison differ in more than epsilon."""


class GapTooSmall(ToralabError):
    """Finite-time exponent gap too small to isolate a subbundle."""


class LostOrthogonality(ToralabError):
    """QR reorthogonalization produced a degenerate frame."""


class SingularGenerator(ToralabError):
    """A cocycle generator was singular at an encountered point."""
