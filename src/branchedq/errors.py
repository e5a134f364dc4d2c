"""Exception types shared across the package.

Each message states what a reader needs of the failure; no error carries
fields beyond it.
"""


class BranchedQError(Exception):
    """Base class for all errors raised by this package."""


class DegeneracyError(BranchedQError):
    """The Lagrangian Hessian 3*xdot**2 - kappa vanished (or nearly so).

    At the cusp velocities the velocity-momentum map is not invertible and
    the classical equations of motion lose their normal form.  Operations
    that require a nondegenerate Hessian raise this instead of returning
    garbage.
    """


class IntegrationStalledError(BranchedQError):
    """A trajectory could not be continued: its step size collapsed away
    from any cusp, at the t and xdot that the message gives."""


class ConvergenceError(BranchedQError):
    """An iterative refinement failed to meet its tolerance; the message
    gives its last residual or variance."""


class NonHermitianError(BranchedQError):
    """A matrix expected to be Hermitian failed the symmetry check."""


class FluxBalanceError(BranchedQError):
    """Graph drift coefficients violate the vertex flux-balance condition."""


class ConfigError(BranchedQError):
    """A run configuration failed schema or semantic validation."""
