"""Potential wells and their momentum-space transforms.

Each closed-form kernel K(q) = int V(x) exp(-i q x) dx is checked against
direct quadrature of the defining integral (trapezoid sums are
exponentially accurate for smooth decaying integrands), and the slow-tail
Lorentzian additionally against the symbolic integral.
"""

import numpy as np
import pytest
import sympy as sp

from branchedq import (ClassicalState, DispersionLaw, GaussianPotential,
                       LorentzianPotential, QuadraticPotential,
                       QuarticPotential, SampledPotential,
                       SechSquaredPotential, has_kernel, integrate_hamilton,
                       potential_from_mapping)


def _quadrature_kernel(potential, q, half_width, n=400001):
    x = np.linspace(-half_width, half_width, n)
    v = potential(x)
    return np.trapezoid(v * np.exp(-1j * q * x), x)


def test_quadratic_values_and_gradient():
    pot = QuadraticPotential(alpha=3.0)
    assert pot(2.0) == pytest.approx(6.0)
    assert pot.gradient(2.0) == pytest.approx(6.0)


def test_quartic_frozen_point():
    pot = QuarticPotential(alpha=1.0, beta=2.0, gamma=3.0)
    # x=2: 16 + 8 + 8 + 6 and 32 + 12 + 8 + 3 by hand
    assert pot(2.0) == pytest.approx(38.0)
    assert pot.gradient(2.0) == pytest.approx(55.0)


# exp(-x**2) on 81 nodes of [-5, 5]: the potential is its piecewise-linear
# interpolant, so the force is the slope of the segment that holds x.
_TABLE_X = np.linspace(-5.0, 5.0, 81)
_TABLE = SampledPotential(_TABLE_X, np.exp(-_TABLE_X**2))


@pytest.mark.parametrize("pot", [
    QuadraticPotential(1.7),
    QuarticPotential(0.4, -1.1, 0.9),
    GaussianPotential(2.0, 1.3, -0.7),
    LorentzianPotential(1.5, 0.8, 0.3),
    SechSquaredPotential(0.9, 1.1, 0.2),
    _TABLE,
])
def test_gradients_match_central_differences(pot):
    rng = np.random.default_rng(20260814)
    x = rng.uniform(-3.0, 3.0, size=40)
    eps = 1e-6
    fd = (pot(x + eps) - pot(x - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd - pot.gradient(x))) < 5e-8


def test_sampled_gradient_is_zero_outside_the_table():
    assert np.all(_TABLE.gradient([-7.0, -5.0 - 1e-9, 5.0 + 1e-9, 7.0]) == 0.0)
    # At a node, the slope of the segment to its right.
    slopes = np.diff(_TABLE.values) / np.diff(_TABLE_X)
    assert np.array_equal(_TABLE.gradient(_TABLE_X[:-1]), slopes)


def test_sampled_potential_conserves_the_classical_energy():
    """The force is the derivative of the potential the energy reads, so
    the flow conserves that energy to the integrator's tolerance (the
    interpolated table derivative used before drifted by 7.7e-3 here)."""
    traj = integrate_hamilton(ClassicalState(-3.0, 1.5), 4.0,
                              DispersionLaw(kappa=3.0), _TABLE, tol=1e-12)
    assert traj.status == "completed"
    assert traj.energy_drift() < 1e-7


def test_gaussian_kernel_against_quadrature():
    pot = GaussianPotential(amplitude=2.0, width=1.0, center=1.5)
    for q in (0.0, 0.7, -2.3):
        ref = _quadrature_kernel(pot, q, 40.0)
        assert abs(pot.kernel(q) - ref) < 1e-10


def test_sech2_kernel_against_quadrature():
    pot = SechSquaredPotential(amplitude=1.2, width=0.9, center=-0.4)
    for q in (0.0, 1.1, -3.0):
        ref = _quadrature_kernel(pot, q, 60.0)
        assert abs(pot.kernel(q) - ref) < 1e-10


def test_sech2_kernel_small_argument_series():
    pot = SechSquaredPotential(amplitude=1.0, width=1.0)
    # K(0) = 2w exactly; the q -> 0 limit must be smooth, no 0/0 spike
    assert pot.kernel(0.0) == pytest.approx(2.0, abs=1e-14)
    qs = np.array([1e-9, 1e-6, 1e-5])
    vals = pot.kernel(qs)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals - 2.0)) < 1e-9


def test_lorentzian_kernel_symbolic():
    x, w, q = sp.symbols("x w q", positive=True)
    flat = sp.integrate(w**2 / (x**2 + w**2) * sp.cos(q * x),
                        (x, -sp.oo, sp.oo))
    diff = (flat - sp.pi * w * sp.exp(-q * w)).rewrite(sp.exp)
    assert sp.expand(diff) == 0


def test_lorentzian_kernel_against_quadrature():
    # 1/x**2 tails converge slowly; generous window, loose tolerance
    pot = LorentzianPotential(amplitude=1.0, width=1.0, center=0.5)
    for q in (0.4, -1.2):
        ref = _quadrature_kernel(pot, q, 4000.0, n=1600001)
        assert abs(pot.kernel(q) - ref) < 2e-3


def test_sampled_kernel_matches_analytic_source():
    src = GaussianPotential(amplitude=1.0, width=1.0, center=0.0)
    x = np.linspace(-12.0, 12.0, 1201)
    pot = SampledPotential(x, src(x))
    for q in (0.0, 0.9, -1.7):
        assert abs(pot.kernel(q) - src.kernel(q)) < 1e-10


def test_sampled_kernel_keeps_the_shape_of_q():
    """Like the analytic kernels: a scalar offset gives a 0-d value, an
    array of offsets one value each."""
    x = np.linspace(-6.0, 6.0, 121)
    pot = SampledPotential(x, np.exp(-x**2))
    assert np.shape(pot.kernel(0.5)) == ()
    q = np.array([-0.7, 0.5, 2.0])
    values = pot.kernel(q)
    assert values.shape == (3,)
    np.testing.assert_allclose(values, [pot.kernel(qi) for qi in q],
                               rtol=1e-14, atol=0.0)


def test_sampled_potential_validation():
    with pytest.raises(ValueError):
        SampledPotential(np.array([0.0, 0.1, 0.3, 0.35]), np.zeros(4))
    with pytest.raises(ValueError):
        SampledPotential(np.linspace(0, 1, 3), np.zeros(3))
    with pytest.raises(ValueError):
        SampledPotential(np.linspace(0, 1, 5), np.zeros(4))


def test_sampled_interpolation_vanishes_outside_table():
    x = np.linspace(-1.0, 1.0, 11)
    pot = SampledPotential(x, 1.0 - x**2)
    assert pot(5.0) == 0.0
    assert pot(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("form", [GaussianPotential, LorentzianPotential,
                                  SechSquaredPotential])
@pytest.mark.parametrize("width", [0.0, -1.0, np.nan])
def test_wells_reject_non_positive_width(form, width):
    with pytest.raises(ValueError, match="width must be positive"):
        form(amplitude=1.0, width=width)


def test_spec_round_trip():
    pot = potential_from_mapping(
        {"form": "gaussian", "amplitude": 2.0, "width": 1.0, "center": 1.5})
    assert isinstance(pot, GaussianPotential)
    assert pot.amplitude == 2.0 and pot.center == 1.5
    table = potential_from_mapping(
        {"form": "sampled", "x": [0, 1, 2, 3], "values": [0, 1, 1, 0]})
    assert isinstance(table, SampledPotential) and table.dx == 1.0


def test_spec_rejects_unknown_forms():
    with pytest.raises(ValueError):
        potential_from_mapping({"form": "cubic"})
    with pytest.raises(ValueError):
        potential_from_mapping({"amplitude": 1.0})


def test_kernel_availability():
    assert not has_kernel(QuadraticPotential())
    assert not has_kernel(QuarticPotential())
    assert has_kernel(GaussianPotential())
    assert has_kernel(LorentzianPotential())
    assert has_kernel(SechSquaredPotential())
    assert has_kernel(SampledPotential(np.linspace(-1, 1, 9), np.zeros(9)))
