"""Classical dynamics of the branched system in (x, xdot) coordinates.

The velocity Hessian 3 xdot^2 - kappa plays the role of a position-dependent
mass: the noncanonical bracket is

    {F, G} = (dF/dx dG/dxdot - dF/dxdot dG/dx) / (3 xdot^2 - kappa)

and Hamilton's equations for H = (3/4) xdot^4 - (kappa/2) xdot^2 + V(x) read

    dx/dt = (3 xdot^3 - kappa xdot) / (3 xdot^2 - kappa)
    dxdot/dt = -V'(x) / (3 xdot^2 - kappa).

The first line simplifies to xdot algebraically; we evaluate it through the
bracket anyway so the reduction is checked rather than assumed, and cross
check the whole flow against a direct Euler-Lagrange integration of
(3 xdot^2 - kappa) xddot = -V'(x).

At |xdot| = sqrt(kappa/3) the bracket degenerates.  Trajectories that run
into a cusp do so tangentially (the vector field points back toward the
cusp from both sides whenever the force is nonzero), so arrival shows up as
integrator stall rather than a transversal zero crossing; both channels are
captured, the velocity is snapped onto the cusp exactly, and the configured
policy decides what happens next.  Nondeterministic continuation is opt-in
and seeded: the jump target -2 v_c sign(xdot) is the far root of the
junction cubic, the unique other velocity carrying the same momentum.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, IntegrationStalledError

DEGENERACY_TOL = 1e-9
# Velocity band around the cusp inside which a step-size collapse is
# interpreted as cusp arrival rather than an unrelated failure.
STALL_BAND = 1e-5

_POLICIES = ("halt", "continue", "random-branch")


@dataclass
class ClassicalState:
    """Phase-space point (x, xdot) with its clock."""

    x: float
    xdot: float
    t: float = 0.0

    def __post_init__(self):
        for name in ("x", "xdot", "t"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class Trajectory:
    """Sampled classical orbit with cusp events and conserved-energy series.

    Columns are aligned: row i holds (t, x, xdot, p, E, branch, event flag).
    ``events`` lists the cusp crossings as ClassicalState samples; ``status``
    is "completed" (reached the requested end time) or "halted" (stopped at
    a cusp event).
    """

    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray
    branch: np.ndarray
    event_flag: np.ndarray
    events: list = field(default_factory=list)
    status: str = "completed"

    def __post_init__(self):
        dt = np.diff(self.t)
        if dt.size and not (np.all(dt > 0) or np.all(dt < 0)):
            raise ValueError("trajectory times must be strictly monotone")

    def __len__(self):
        return self.t.size

    def final_state(self):
        return ClassicalState(float(self.x[-1]), float(self.xdot[-1]),
                              float(self.t[-1]))

    def energy_drift(self):
        return float(np.max(np.abs(self.energy - self.energy[0])))


def _force_of(potential):
    if potential is None:
        return lambda x: 0.0
    if not hasattr(potential, "gradient"):
        raise TypeError("potential must be None or an object with __call__ "
                        "and .gradient")
    return potential.gradient


def poisson_bracket(F, G, state, law, eps=1e-6):
    """Noncanonical bracket {F, G} at a state, by central differences.

    F and G are callables of (x, xdot).  Degenerate states are rejected.
    """
    x, v = state.x, state.xdot
    hess = 3.0 * v * v - law.kappa
    if abs(hess) <= DEGENERACY_TOL:
        raise DegeneracyError(
            f"bracket undefined at xdot = {v}: 3 xdot^2 - kappa = {hess:.3e}",
            xdot=v, hessian=hess)
    Fx = (F(x + eps, v) - F(x - eps, v)) / (2.0 * eps)
    Fv = (F(x, v + eps) - F(x, v - eps)) / (2.0 * eps)
    Gx = (G(x + eps, v) - G(x - eps, v)) / (2.0 * eps)
    Gv = (G(x, v + eps) - G(x, v - eps)) / (2.0 * eps)
    return (Fx * Gv - Fv * Gx) / hess


def hamilton_rhs(state, law, potential, tol=DEGENERACY_TOL):
    """(dx/dt, dxdot/dt) from the bracket; V' is `potential.gradient`.

    dx/dt is evaluated through the bracket expression, unsimplified, so its
    agreement with xdot is a checked identity rather than a substitution.
    """
    grad = _force_of(potential)
    v = state.xdot
    kappa = law.kappa
    hess = 3.0 * v * v - kappa
    if abs(hess) <= tol:
        raise DegeneracyError(
            f"degenerate state: |3 xdot^2 - kappa| = {abs(hess):.3e} <= {tol}",
            xdot=v, hessian=hess)
    return (3.0 * v**3 - kappa * v) / hess, -grad(state.x) / hess


def energy(state, law, potential=None):
    """H(x, xdot) = (3/4) xdot^4 - (kappa/2) xdot^2 + V(x)."""
    value = float(law.energy(state.xdot))
    if potential is not None:
        value += float(potential(state.x))
    return value


def _assemble(law, potential, ts, xs, vs, flags, events, status):
    t = np.asarray(ts, dtype=float)
    x = np.asarray(xs, dtype=float)
    v = np.asarray(vs, dtype=float)
    p = law.momentum(v)
    e = law.energy(v) + (potential(x) if potential is not None else 0.0)
    branch = law.branch_of_velocity(v) if law.branched else np.full(t.shape, 2)
    return Trajectory(t, x, v, np.asarray(p, float), np.asarray(e, float),
                      np.asarray(branch, int), np.asarray(flags, int),
                      events, status)


def _run_segments(rhs, state0, end_time, law, potential, tol, policy, seed,
                  max_events, t_eval):
    # Imported here: scipy.integrate is most of the package's import time,
    # and only the classical integrators need it.
    from scipy.integrate import solve_ivp

    if policy not in _POLICIES:
        raise ValueError(f"unknown degeneracy policy {policy!r}")
    if t_eval is not None and end_time == state0.t:
        raise ValueError("t_end must differ from the start time when "
                         "samples are requested")
    with np.errstate(over="ignore", invalid="ignore"):
        e0 = energy(state0, law, potential)
        f0 = _force_of(potential)(state0.x)
    if not np.isfinite(e0):
        raise ValueError(f"initial energy is not finite at x = {state0.x:g}, "
                         f"xdot = {state0.xdot:g}")
    if not np.isfinite(f0):
        raise ValueError(f"initial force V'(x) is not finite at "
                         f"x = {state0.x:g}")
    vc = law.v_cusp
    # kappa < 0 has no degeneracy surface at all; arming |xdot| = 0 events
    # there would falsely halt ordinary turning points.
    arm = law.kappa >= 0.0
    hess0 = 3.0 * state0.xdot**2 - law.kappa
    if abs(hess0) <= DEGENERACY_TOL:
        raise DegeneracyError(
            "initial state sits on the degeneracy surface",
            xdot=state0.xdot, hessian=hess0)
    rng = np.random.default_rng(seed)
    forward = end_time >= state0.t

    def ev_plus(t, y):
        return y[1] - vc

    def ev_minus(t, y):
        return y[1] + vc

    terminal = policy in ("halt", "random-branch")
    ev_plus.terminal = ev_minus.terminal = terminal
    ev_plus.direction = ev_minus.direction = 0

    ts, xs, vs, flags = [], [], [], []
    events = []
    t_cur, x_cur, v_cur = state0.t, state0.x, state0.xdot
    status = "completed"

    def push(t, x, v, flag=0):
        if ts and t == ts[-1]:
            xs[-1], vs[-1] = x, v
            flags[-1] = max(flags[-1], flag)
        else:
            ts.append(t)
            xs.append(x)
            vs.append(v)
            flags.append(flag)

    while True:
        if t_eval is not None:
            pts = np.sort(np.asarray(t_eval, dtype=float))
            if forward:
                pts = pts[(pts >= t_cur) & (pts <= end_time)]
            else:
                pts = pts[(pts <= t_cur) & (pts >= end_time)][::-1]
        else:
            pts = None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sol = solve_ivp(rhs, (t_cur, end_time), [x_cur, v_cur],
                            method="RK45", rtol=tol, atol=tol,
                            events=[ev_plus, ev_minus] if arm else None,
                            t_eval=pts, dense_output=True)
        for tk, xk, vk in zip(sol.t, sol.y[0], sol.y[1]):
            push(float(tk), float(xk), float(vk))

        if sol.status == 0:
            break
        if sol.status == 1:
            hits = [(te[0], ye[0]) for te, ye in zip(sol.t_events,
                                                     sol.y_events) if len(te)]
            t_ev, y_ev = min(hits, key=lambda h: h[0] if forward else -h[0])
            x_ev, v_raw = float(y_ev[0]), float(y_ev[1])
        else:
            t_last = float(sol.sol.t_max if forward else sol.sol.t_min)
            y_last = sol.sol(t_last)
            x_ev, v_raw = float(y_last[0]), float(y_last[1])
            t_ev = t_last
            if not arm or abs(abs(v_raw) - vc) > STALL_BAND:
                partial = _assemble(law, potential, ts, xs, vs, flags,
                                    events, "halted")
                raise IntegrationStalledError(
                    f"step size collapsed at t = {t_ev:.6g} away from any "
                    f"cusp (xdot = {v_raw:.6g})", partial=partial)
            if policy == "continue":
                push(t_ev, x_ev, float(np.copysign(vc, v_raw)), flag=1)
                events.append(ClassicalState(x_ev, float(np.copysign(vc, v_raw)),
                                             t_ev))
                partial = _assemble(law, potential, ts, xs, vs, flags,
                                    events, "halted")
                raise IntegrationStalledError(
                    "continue-through requested but the vector field does "
                    f"not extend past the cusp reached at t = {t_ev:.6g}",
                    partial=partial)
        v_ev = float(np.copysign(vc, v_raw))
        push(t_ev, x_ev, v_ev, flag=1)
        events.append(ClassicalState(x_ev, v_ev, t_ev))

        # Only halt and random-branch arm terminal events, so only they get
        # here; the coin is drawn only under random-branch.
        if policy == "halt" or len(events) >= max_events or rng.random() < 0.5:
            status = "halted"
            break
        t_cur, x_cur = t_ev, x_ev
        v_cur = -2.0 * np.copysign(vc, v_ev)

    return _assemble(law, potential, ts, xs, vs, flags, events, status)


def integrate_hamilton(state0, end_time, law, potential=None, *, tol=1e-12,
                       policy="halt", seed=None, max_events=32, t_eval=None):
    """Integrate the bracket flow with cusp events.

    `end_time` may lie before state0.t, which integrates backward.  Events
    are |xdot| = sqrt(kappa/3) crossings or tangential arrivals; `policy`
    is halt, continue, or random-branch (seeded coin per event between
    halting and jumping to the far junction root).
    """
    grad = _force_of(potential)
    kappa = law.kappa

    def rhs(t, y):
        v = y[1]
        hess = 3.0 * v * v - kappa
        return ((3.0 * v**3 - kappa * v) / hess, -grad(y[0]) / hess)

    return _run_segments(rhs, state0, end_time, law, potential, tol, policy,
                         seed, max_events, t_eval)


def integrate_euler_lagrange(state0, end_time, law, potential=None, *,
                             tol=1e-12, policy="halt", seed=None,
                             max_events=32, t_eval=None):
    """Integrate (3 xdot^2 - kappa) xddot = -V'(x) directly.

    Same contract and event machinery as integrate_hamilton, but the right
    hand side comes straight from the Euler-Lagrange equation: dx/dt is
    xdot itself, with no bracket in sight.
    """
    grad = _force_of(potential)
    kappa = law.kappa

    def rhs(t, y):
        v = y[1]
        return (v, -grad(y[0]) / (3.0 * v * v - kappa))

    return _run_segments(rhs, state0, end_time, law, potential, tol, policy,
                         seed, max_events, t_eval)
