# Exception types shared across the library.


class StateTransportError(ValueError):
    """Base class for all library errors."""


class NotHermitianError(StateTransportError):
    """Input matrix violates the adjoint-symmetry tolerance."""


class NotUnitaryError(StateTransportError):
    """Input matrix violates the unitarity tolerance."""


class NotFiniteError(StateTransportError):
    """Input has NaN or infinite entries."""


class NotNormalizedError(StateTransportError):
    """State vector does not have unit norm within tolerance."""


class NotPSDError(StateTransportError):
    """Matrix has a significantly negative eigenvalue."""


class SingularMatrixError(StateTransportError):
    """Matrix is rank deficient beyond the allowed tolerance."""


class BranchCutError(StateTransportError):
    """Unitary has spectrum touching -1; principal logarithm undefined."""


class DimensionError(StateTransportError):
    """Ambient dimension too small for the requested construction."""


class InvalidTargetError(StateTransportError):
    """Gram target matrix is not positive semidefinite."""


class HypothesisError(StateTransportError):
    """A quantitative precondition (statistics gap, Gram gap) is violated.

    Carries the measured gap so callers can report the violated hypothesis.
    """

    def __init__(self, message, measured_gap=None):
        super().__init__(message)
        self.measured_gap = measured_gap


class CertificateError(StateTransportError):
    """A computed certificate contradicts the bound it is meant to certify."""


class InfeasiblePartitionError(StateTransportError):
    """No valid cut point in some circle window."""


class DegenerateWindowError(StateTransportError):
    """Requested spectral window arc is shorter than its margin."""


class FlipInconsistencyError(StateTransportError):
    """Flip projection relations cannot be satisfied on the given spans."""


class UnsupportedGroupError(StateTransportError):
    """Group specification is neither a finite group nor Z^d."""


class DetourFailureError(StateTransportError):
    """No admissible intermediate vector found in the orthogonal complement."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class DisjointnessError(StateTransportError):
    """Vector pairs claimed disjoint have overlapping block supports."""


class RoundFailureError(StateTransportError):
    """A back-and-forth round could not meet its transport precondition."""

    def __init__(self, message, round_index=None, measured_gap=None):
        super().__init__(message)
        self.round_index = round_index
        self.measured_gap = measured_gap


class AssemblyError(StateTransportError):
    """Path assembly is missing a required round path."""
