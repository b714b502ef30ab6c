"""Exception hierarchy shared by all spencerkit modules."""

from __future__ import annotations


class SpencerKitError(Exception):
    """Base class for all spencerkit errors."""


class DimensionMismatch(SpencerKitError):
    pass


class NoRealForm(SpencerKitError):
    """No rational real Clifford representation for the requested signature."""


class NoInvariantPairing(SpencerKitError):
    """The invariance system for the spinor pairing has only the zero solution."""


class NotEquivariant(SpencerKitError):
    """A supplied tensor fails the required equivariance check."""


class NotLorentzian(SpencerKitError):
    pass


class NotSymmetric(SpencerKitError):
    pass


class JacobiViolation(SpencerKitError):
    """A bracket tensor fails the (super) Jacobi identity."""

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class NotClosed(SpencerKitError):
    """A subspace fails one of the closure conditions of a graded subalgebra."""

    def __init__(self, condition, witness=None):
        super().__init__(condition)
        self.condition = condition
        self.witness = witness


class NotCompactForm(SpencerKitError):
    """The trace form on the R-symmetry subalgebra is not positive-definite."""


class KappaZero(SpencerKitError):
    pass


class NoEquivariantSplitting(SpencerKitError):
    """No equivariant right inverse of the Dirac current exists."""


class NotHighlySusy(SpencerKitError):
    pass


class OracleMismatch(SpencerKitError):
    """Two independent computation routes disagree; always an implementation bug."""


class FiltrationViolation(SpencerKitError):
    pass


class EquivarianceViolation(SpencerKitError):
    pass


class TorsionViolation(SpencerKitError):
    pass


class CurvatureMismatch(SpencerKitError):
    pass


class ConfigError(SpencerKitError):
    """Invalid pipeline configuration."""


class StageError(SpencerKitError):
    """Wraps a module error with the pipeline stage it occurred in."""

    def __init__(self, stage, original):
        super().__init__(f"stage {stage!r}: {original}")
        self.stage = stage
        self.original = original
