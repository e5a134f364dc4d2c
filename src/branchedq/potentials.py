"""Scalar potentials and their momentum-space kernels.

Polynomial potentials (degree <= 4) act through finite-difference stencils
and carry no integrable kernel; their formal transforms are derivatives of
delta functions.  The named analytic wells decay at infinity and expose
K(q) = integral of V(x) exp(-i q x) dx in closed form, which is what the
convolution (Wiener-Hopf) assembly consumes.  Sampled tables fall back to
direct quadrature of the same transform at the exact requested offsets.
"""

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

_ROOT2PI = np.sqrt(2.0 * np.pi)


def _real(x):
    """x as float64 values: a Python float as it is, anything else as an
    array.  A classical orbit asks for one force at a time, and there the
    0-d array round trip costs several times the arithmetic."""
    return x if isinstance(x, float) else np.asarray(x, dtype=float)


@dataclass(frozen=True)
class QuadraticPotential:
    """V(x) = alpha * x**2 / 2."""

    alpha: float = 1.0

    def __call__(self, x):
        return 0.5 * self.alpha * np.square(x)

    def gradient(self, x):
        return self.alpha * _real(x)


@dataclass(frozen=True)
class QuarticPotential:
    """V(x) = x**4 + alpha*x**3 + beta*x**2 + gamma*x."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return ((x + self.alpha) * x + self.beta) * x * x + self.gamma * x

    def gradient(self, x):
        x = _real(x)
        return ((4.0 * x + 3.0 * self.alpha) * x + 2.0 * self.beta) * x + self.gamma


@dataclass(frozen=True)
class _Well:
    """Parameters shared by the decaying wells; width must be positive."""

    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if not self.width > 0.0:
            raise ValueError(f"well width must be positive, got {self.width}")


@dataclass(frozen=True)
class GaussianPotential(_Well):
    """V(x) = amplitude * exp(-(x - center)**2 / (2 width**2))."""

    def __call__(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-0.5 * z * z)

    def gradient(self, x):
        z = (_real(x) - self.center) / self.width
        return -self.amplitude * z / self.width * np.exp(-0.5 * z * z)

    def kernel(self, q):
        q = np.asarray(q, dtype=float)
        flat = self.amplitude * self.width * _ROOT2PI * np.exp(-0.5 * np.square(q * self.width))
        return flat * np.exp(-1j * q * self.center)


@dataclass(frozen=True)
class LorentzianPotential(_Well):
    """V(x) = amplitude * width**2 / ((x - center)**2 + width**2)."""

    def __call__(self, x):
        d = np.asarray(x, dtype=float) - self.center
        w2 = self.width * self.width
        return self.amplitude * w2 / (d * d + w2)

    def gradient(self, x):
        d = _real(x) - self.center
        w2 = self.width * self.width
        return -2.0 * self.amplitude * w2 * d / np.square(d * d + w2)

    def kernel(self, q):
        q = np.asarray(q, dtype=float)
        flat = self.amplitude * np.pi * self.width * np.exp(-np.abs(q) * self.width)
        return flat * np.exp(-1j * q * self.center)


@dataclass(frozen=True)
class SechSquaredPotential(_Well):
    """V(x) = amplitude * sech((x - center)/width)**2."""

    def __call__(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude / np.square(np.cosh(z))

    def gradient(self, x):
        z = (_real(x) - self.center) / self.width
        return -2.0 * self.amplitude / self.width * np.tanh(z) / np.square(np.cosh(z))

    def kernel(self, q):
        q = np.asarray(q, dtype=float)
        t = 0.5 * np.pi * q * self.width
        # t/sinh(t) is even analytic; series below 1e-4 avoids the 0/0.
        small = np.abs(t) < 1e-4
        ts = np.where(small, 1.0, t)
        ratio = np.where(small, 1.0 - t * t / 6.0, ts / np.sinh(ts))
        return self.amplitude * 2.0 * self.width * ratio * np.exp(-1j * q * self.center)


@dataclass(frozen=True)
class SampledPotential:
    """Potential known only on a uniform table of nodes.

    The kernel is the plain Riemann quadrature of the transform at the
    exact requested offsets, so no interpolation error enters beyond the
    table itself.  The table must decay toward its ends for the transform
    to mean anything.
    """

    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 4:
            raise ValueError("need matching 1-d tables with at least 4 points")
        dx = np.diff(x)
        if not np.allclose(dx, dx[0], rtol=1e-12, atol=0.0):
            raise ValueError("sample nodes must be uniform")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    @property
    def dx(self):
        return (self.x[-1] - self.x[0]) / (self.x.size - 1)

    def __call__(self, x):
        return np.interp(x, self.x, self.values, left=0.0, right=0.0)

    def gradient(self, x):
        """The derivative of `__call__`: the slope of the segment that holds
        x (the one to its right at a node), and 0 outside the table."""
        slopes = np.diff(self.values) / np.diff(self.x)
        return np.concatenate(([0.0], slopes, [0.0]))[
            np.searchsorted(self.x, x, side="right")]

    def kernel(self, q):
        q = np.asarray(q, dtype=float)
        phases = np.exp(-1j * np.outer(q, self.x))
        return (self.dx * phases @ self.values).reshape(q.shape)


_FORMS = {
    "quadratic": QuadraticPotential,
    "quartic": QuarticPotential,
    "gaussian": GaussianPotential,
    "lorentzian": LorentzianPotential,
    "sech2": SechSquaredPotential,
    "sampled": SampledPotential,
}


def potential_from_mapping(mapping):
    """The potential a mapping describes: a 'form' key plus parameters.

    Forms: quadratic(alpha), quartic(alpha, beta, gamma),
    gaussian/lorentzian/sech2(amplitude, width, center),
    sampled(x, values).
    """
    params = dict(mapping)
    form = params.pop("form", None)
    if form not in _FORMS:
        raise ValueError(f"unknown potential form {form!r}")
    names = {f.name: f.default is MISSING for f in fields(_FORMS[form])}
    unknown = [name for name in params if name not in names]
    if unknown:
        raise TypeError(f"the {form} form takes no parameter {unknown[0]!r}")
    missing = [name for name, required in names.items()
               if required and name not in params]
    if missing:
        raise TypeError(f"the {form} form needs {' and '.join(missing)}")
    return _FORMS[form](**params)


def has_kernel(potential):
    """True when the potential exposes an integrable transform."""
    return hasattr(potential, "kernel")
