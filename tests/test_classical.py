"""Classical flow of the branched kinetic law.

kappa = 3 makes everything hand-checkable: the Hessian is 3 xdot^2 - 3,
cusps sit at xdot = +-1, and a quadratic well pulls every outer-branch
orbit onto a cusp in finite time, which is where the halt and
random-branch policies take over.
"""

import numpy as np
import pytest

from branchedq import (ClassicalState, DegeneracyError, DispersionLaw,
                       GaussianPotential, IntegrationStalledError,
                       QuadraticPotential, energy,
                       integrate_euler_lagrange, integrate_hamilton)
from branchedq import classical
from branchedq.acceptance import SEED

LAW = DispersionLaw(kappa=3.0)
WELL = QuadraticPotential(1.0)
BUMP = GaussianPotential(0.5, 2.0, 0.0)


def test_energy_frozen_point():
    assert energy(ClassicalState(1.0, 2.0), LAW, WELL) == pytest.approx(6.5)
    assert energy(ClassicalState(1.0, 2.0), LAW) == pytest.approx(6.0)


def test_degeneracy_raises_at_the_cusp():
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


def test_a_segment_may_end_before_its_first_sample():
    """After the jump, the next cusp comes before the next output time: the
    segment adds only its event row."""
    traj = integrate_hamilton(ClassicalState(0.0, 2.0), 50.0, LAW, WELL,
                              policy="random-branch", seed=0,
                              t_eval=np.linspace(0.0, 50.0, 3))
    assert len(traj.events) == 2
    assert traj.t.tolist() == [0.0] + [e.t for e in traj.events]
    assert traj.event_flag.tolist() == [0, 1, 1]


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
    end = ClassicalState(fwd.x[-1], fwd.xdot[-1], fwd.t[-1])
    back = integrate_hamilton(end, 0.0, LAW, BUMP,
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


def test_integrator_guards():
    with pytest.raises(ValueError):
        integrate_hamilton(ClassicalState(0.0, 2.0), 1.0, LAW, WELL,
                           policy="teleport")
    with pytest.raises(TypeError):
        integrate_hamilton(ClassicalState(0.0, 2.0), 1.0, LAW,
                           lambda x: 0.5 * x**2)


def test_stall_away_from_a_cusp_raises_stalled_error():
    """kappa = 1e-8 puts the cusp at xdot = 5.8e-5; the step size collapses
    near 1.3 times that, outside the band that counts as cusp arrival."""
    with pytest.raises(IntegrationStalledError, match="away from any cusp"):
        integrate_hamilton(ClassicalState(0.0, 2.0), 10.0,
                           DispersionLaw(kappa=1e-8), QuadraticPotential(1.0))


def _scaled_cusp_orbit(s):
    """The kappa = 3 quadratic-well orbit into the cusp, scaled by s: the
    law is covariant under xdot -> s xdot, kappa -> s**2 kappa, t -> t / s
    and V -> s**4 V."""
    return integrate_hamilton(ClassicalState(0.0, 2.0 * s), 10.0 / s,
                              DispersionLaw(kappa=3.0 * s**2),
                              QuadraticPotential(s**4))


@pytest.mark.parametrize("s", [1e-4, 1e-2, 1.0, 1e2, 1e3])
def test_cusp_arrival_is_scale_covariant(s):
    """A cusp arrival stalls at about 1.1e-7 v_c at every scale, so the
    band that counts it as one is relative to v_c: at s = 100 (v_c = 100)
    an absolute band of 1e-5 called it a stall away from any cusp."""
    traj = _scaled_cusp_orbit(s)
    assert traj.status == "halted" and len(traj.events) == 1
    reference = _scaled_cusp_orbit(1.0).events[0].t
    assert traj.events[0].t * s == pytest.approx(reference, rel=1e-8)


def _oracle(state, t_end, law, potential, t_eval, *, policy="halt",
            seed=None, tol=1e-12, direct=False):
    """The same runs through scipy's solve_ivp(method="RK45"): the
    integrator that the built-in one replaced, kept here as a reference.
    Forward in time, with both cusp crossings armed as terminal events."""
    from scipy.integrate import solve_ivp

    kappa, vc = law.kappa, float(law.v_cusp)

    def rhs(t, y):
        v = y[1]
        hess = 3.0 * v * v - kappa
        dx = v if direct else (3.0 * v**3 - kappa * v) / hess
        return dx, -potential.gradient(y[0]) / hess

    def crossing(level):
        event = lambda t, y: y[1] - level
        event.terminal = True
        return event

    def push(t, x, v, flag=0):  # a row at the time of the last one merges
        if rows and rows[-1][0] == t:
            rows[-1] = [t, x, v, max(rows[-1][3], flag)]
        else:
            rows.append([t, x, v, flag])

    rng = np.random.default_rng(seed)
    rows, event_times = [], []
    t0, y0 = state.t, [state.x, state.xdot]
    while True:
        pts = t_eval[(t_eval >= t0) & (t_eval <= t_end)]
        sol = solve_ivp(rhs, (t0, t_end), y0, rtol=tol, atol=tol,
                        events=[crossing(vc), crossing(-vc)], t_eval=pts,
                        dense_output=True)
        for t, x, v in zip(sol.t, *sol.y):
            push(t, x, v)
        if sol.status == 0:
            return np.array(rows), event_times, "completed"
        if sol.status == 1:
            t_ev, y_ev = min((te[0], ye[0]) for te, ye
                             in zip(sol.t_events, sol.y_events) if len(te))
        else:  # arrival at the cusp, seen as a stall next to it
            t_ev = sol.sol.t_max
            y_ev = sol.sol(t_ev)
            assert abs(abs(y_ev[1]) - vc) <= 1e-5
        v_ev = float(np.copysign(vc, y_ev[1]))
        push(t_ev, y_ev[0], v_ev, flag=1)
        event_times.append(t_ev)
        if policy == "halt" or rng.random() < 0.5:
            return np.array(rows), event_times, "halted"
        t0, y0 = t_ev, [y_ev[0], -2.0 * v_ev]


def _agrees_with_oracle(traj, oracle):
    rows, event_times, status = oracle
    assert traj.status == status
    assert [e.t for e in traj.events] == pytest.approx(event_times,
                                                       rel=0, abs=1e-10)
    assert np.array_equal(traj.event_flag, rows[:, 3])
    for column, expected in zip((traj.t, traj.x, traj.xdot), rows[:, :3].T):
        np.testing.assert_allclose(column, expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("direct", [False, True], ids=["bracket", "direct"])
def test_c9_orbits_match_scipy_rk45(direct):
    """C9's 20 cusp-free orbits, sampled as C9 samples them."""
    integrate = integrate_euler_lagrange if direct else integrate_hamilton
    rng = np.random.default_rng(SEED)
    t_eval = np.linspace(0.0, 50.0, 501)
    for _ in range(20):
        x0 = float(rng.uniform(-2.0, 2.0))
        v0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.8, 2.3))
        state = ClassicalState(x0, v0)
        traj = integrate(state, 50.0, LAW, BUMP, t_eval=t_eval)
        _agrees_with_oracle(traj, _oracle(state, 50.0, LAW, BUMP, t_eval,
                                          direct=direct))


@pytest.mark.parametrize("tol", [1e-12, 1e-9])
@pytest.mark.parametrize("policy,seed", [("halt", None),
                                         ("random-branch", 0),
                                         ("random-branch", 2)])
def test_cusp_orbits_match_scipy_rk45(policy, seed, tol):
    """The well's halt and random-branch orbits, events included.  At tol
    1e-12 each cusp is reached as a stall next to it; at 1e-9 the second
    cusp of seed 0 is crossed by a step, and found on the dense output."""
    t_eval = np.linspace(0.0, 50.0, 501)
    state = ClassicalState(0.0, 2.0)
    traj = integrate_hamilton(state, 50.0, LAW, WELL, tol=tol, policy=policy,
                              seed=seed, t_eval=t_eval)
    assert traj.events
    _agrees_with_oracle(traj, _oracle(state, 50.0, LAW, WELL, t_eval,
                                      policy=policy, seed=seed, tol=tol))


def test_crossing_is_bisected_to_a_few_ulp():
    root = classical._crossing(lambda t: t * t, 1.0, 2.0, 2.0)
    assert abs(root - np.sqrt(2.0)) <= 4 * np.finfo(float).eps * root
