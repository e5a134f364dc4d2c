"""Exception types shared across the package."""


class BranchedQError(Exception):
    """Base class for all errors raised by this package."""


class DegeneracyError(BranchedQError):
    """The Lagrangian Hessian 3*xdot**2 - kappa vanished (or nearly so).

    At the cusp velocities the velocity-momentum map is not invertible and
    the classical equations of motion lose their normal form.  Operations
    that require a nondegenerate Hessian raise this instead of returning
    garbage.
    """

    def __init__(self, message, xdot=None, hessian=None):
        super().__init__(message)
        self.xdot = xdot
        self.hessian = hessian


class IntegrationStalledError(BranchedQError):
    """A trajectory could not be continued past a cusp.

    Carries the partial trajectory computed so far in ``partial``, so
    callers can inspect what was integrated before the stall.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConvergenceError(BranchedQError):
    """An iterative refinement failed to meet its tolerance.

    ``diagnostics`` carries the residual history and last iterate so the
    failure can be inspected.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NonHermitianError(BranchedQError):
    """A matrix expected to be Hermitian failed the symmetry check."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class FluxBalanceError(BranchedQError):
    """Graph drift coefficients violate the vertex flux-balance condition."""

    def __init__(self, message, imbalance=None):
        super().__init__(message)
        self.imbalance = imbalance


class ConfigError(BranchedQError):
    """A run configuration failed schema or semantic validation."""
