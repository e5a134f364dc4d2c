"""Classical flow of the branched kinetic law, bracket first.

kappa = 3 makes everything hand-checkable: the Hessian is 3 xdot^2 - 3,
cusps sit at xdot = +-1, and a quadratic well pulls every outer-branch
orbit onto a cusp in finite time, which is where the halt/continue/
random-branch policies take over.
"""

import numpy as np
import pytest

from branchedq import (ClassicalState, DegeneracyError, DispersionLaw,
                       GaussianPotential, IntegrationStalledError,
                       QuadraticPotential, Trajectory, energy, hamilton_rhs,
                       integrate_euler_lagrange, integrate_hamilton,
                       poisson_bracket)

LAW = DispersionLaw(kappa=3.0)
WELL = QuadraticPotential(1.0)
BUMP = GaussianPotential(0.5, 2.0, 0.0)


def test_canonical_bracket_of_x_and_p():
    state = ClassicalState(0.3, 1.7)
    x = lambda q, v: q
    p = lambda q, v: LAW.momentum(v)
    assert poisson_bracket(x, p, state, LAW) == pytest.approx(1.0, abs=1e-7)


def test_bracket_generates_the_velocity():
    """{x, H} must come out as xdot even though the bracket divides by the
    Hessian; nothing is simplified by hand."""
    state = ClassicalState(-0.4, 1.9)
    x = lambda q, v: q
    H = lambda q, v: LAW.energy(v) + WELL(q)
    assert poisson_bracket(x, H, state, LAW) == pytest.approx(1.9, abs=1e-6)
    p = lambda q, v: LAW.momentum(v)
    assert poisson_bracket(p, H, state, LAW) == pytest.approx(0.4, abs=1e-6)


def test_hamilton_rhs_frozen_point():
    # x=1, xdot=2: Hessian 9, force -x
    dx, dv = hamilton_rhs(ClassicalState(1.0, 2.0), LAW, WELL)
    assert dx == pytest.approx(2.0, abs=1e-14)
    assert dv == pytest.approx(-1.0 / 9.0, abs=1e-15)


def test_energy_frozen_point():
    assert energy(ClassicalState(1.0, 2.0), LAW, WELL) == pytest.approx(6.5)
    assert energy(ClassicalState(1.0, 2.0), LAW) == pytest.approx(6.0)


def test_degeneracy_raises_at_the_cusp():
    with pytest.raises(DegeneracyError):
        hamilton_rhs(ClassicalState(0.0, 1.0), LAW, WELL)
    with pytest.raises(DegeneracyError):
        poisson_bracket(lambda s: s.x, lambda s: s.xdot,
                        ClassicalState(0.0, 1.0), LAW)
    with pytest.raises(DegeneracyError):
        integrate_hamilton(ClassicalState(0.0, 1.0), 1.0, LAW, WELL)


def test_free_motion_is_uniform():
    traj = integrate_hamilton(ClassicalState(0.0, 2.0), 5.0, LAW)
    assert traj.status == "completed"
    assert traj.x[-1] == pytest.approx(10.0, abs=1e-10)
    assert traj.xdot[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.all(traj.branch == 3)


def test_confining_well_halts_on_the_cusp():
    traj = integrate_hamilton(ClassicalState(0.0, 2.0), 50.0, LAW, WELL)
    assert traj.status == "halted"
    assert traj.t[-1] < 50.0
    assert len(traj.events) == 1
    ev = traj.events[0]
    # the cusp is hit exactly after snapping
    assert abs(3.0 * ev.xdot**2 - 3.0) == 0.0
    assert traj.event_flag[-1] == 1
    assert traj.branch[-1] == 2
    assert traj.energy_drift() < 1e-8


def test_continue_policy_cannot_cross_the_cusp():
    """The vector field does not extend past the degeneracy, so the
    honest outcome of continue-through is a stall with partial results."""
    with pytest.raises(IntegrationStalledError) as err:
        integrate_hamilton(ClassicalState(0.0, 2.0), 50.0, LAW, WELL,
                           policy="continue")
    partial = err.value.partial
    assert isinstance(partial, Trajectory)
    assert len(partial.events) == 1
    assert abs(partial.xdot[-1]) == pytest.approx(1.0, abs=1e-12)


def test_random_branch_is_seed_deterministic():
    a = integrate_hamilton(ClassicalState(0.0, 2.0), 50.0, LAW, WELL,
                           policy="random-branch", seed=0)
    b = integrate_hamilton(ClassicalState(0.0, 2.0), 50.0, LAW, WELL,
                           policy="random-branch", seed=0)
    assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)
    assert len(a.events) == 2  # one jump, then the coin says halt
    # the flagged row holds the post-jump state: the far root -2 sign(v)
    # carries the same momentum as the cusp, with a kinetic-energy jump
    ev = a.events[0]
    assert ev.xdot == pytest.approx(1.0, abs=1e-12)
    first_flag = int(np.flatnonzero(a.event_flag)[0])
    landed = a.xdot[first_flag]
    assert landed == pytest.approx(-2.0, abs=1e-12)
    assert LAW.momentum(landed) == pytest.approx(LAW.momentum(ev.xdot),
                                                 abs=1e-12)
    assert LAW.energy(landed) - LAW.energy(ev.xdot) == pytest.approx(6.75)

    c = integrate_hamilton(ClassicalState(0.0, 2.0), 50.0, LAW, WELL,
                           policy="random-branch", seed=2)
    assert len(c.events) == 1  # this coin halts immediately


def test_unbranched_law_turns_around_freely():
    """kappa < 0 has no degeneracy surface; xdot = 0 is an ordinary
    turning point and must not be treated as an event."""
    flat = DispersionLaw(kappa=-1.0)
    traj = integrate_hamilton(ClassicalState(1.0, 0.5), 20.0, flat, WELL)
    assert traj.status == "completed"
    assert len(traj.events) == 0
    assert traj.xdot.min() < -0.5  # it really does swing through zero
    assert traj.energy_drift() < 1e-8


def test_hamilton_and_euler_lagrange_agree():
    te = np.linspace(0.0, 10.0, 101)
    rng = np.random.default_rng(20260814)
    for _ in range(5):
        x0 = float(rng.uniform(-2.0, 2.0))
        v0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.8, 2.3))
        h = integrate_hamilton(ClassicalState(x0, v0), 10.0, LAW, BUMP,
                               t_eval=te)
        el = integrate_euler_lagrange(ClassicalState(x0, v0), 10.0, LAW, BUMP,
                                      t_eval=te)
        assert h.status == el.status == "completed"
        assert np.max(np.abs(h.x - el.x)) < 1e-8
        assert h.energy_drift() < 1e-8


def test_backward_integration_reverses_the_orbit():
    te = np.linspace(0.0, 10.0, 101)
    fwd = integrate_hamilton(ClassicalState(-1.0, 2.1), 10.0, LAW, BUMP,
                             t_eval=te)
    back = integrate_hamilton(fwd.final_state(), 0.0, LAW, BUMP,
                              t_eval=te[::-1])
    assert back.t[0] == 10.0 and back.t[-1] == 0.0
    assert back.x[-1] == pytest.approx(-1.0, abs=1e-7)
    assert back.xdot[-1] == pytest.approx(2.1, abs=1e-7)


def test_trajectory_columns_are_consistent():
    traj = integrate_hamilton(ClassicalState(0.0, 2.0), 3.0, LAW, BUMP)
    assert np.allclose(traj.momentum, traj.xdot**3 - 3.0 * traj.xdot,
                       atol=1e-12)
    kin = 0.75 * traj.xdot**4 - 1.5 * traj.xdot**2
    assert np.allclose(traj.energy, kin + BUMP(traj.x), atol=1e-12)
    assert np.all(traj.branch == 3)
    assert traj.final_state().t == traj.t[-1]


def test_integrator_guards():
    with pytest.raises(ValueError):
        integrate_hamilton(ClassicalState(0.0, 2.0), 1.0, LAW, WELL,
                           policy="teleport")
    with pytest.raises(TypeError):
        integrate_hamilton(ClassicalState(0.0, 2.0), 1.0, LAW,
                           lambda x: 0.5 * x**2)
