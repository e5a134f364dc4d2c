"""Classical dynamics of the branched system in (x, xdot) coordinates.

The velocity Hessian 3 xdot^2 - kappa plays the role of a position-dependent
mass: the noncanonical bracket is

    {F, G} = (dF/dx dG/dxdot - dF/dxdot dG/dx) / (3 xdot^2 - kappa)

and Hamilton's equations for H = (3/4) xdot^4 - (kappa/2) xdot^2 + V(x) read

    dx/dt = (3 xdot^3 - kappa xdot) / (3 xdot^2 - kappa)
    dxdot/dt = -V'(x) / (3 xdot^2 - kappa).

The first line simplifies to xdot algebraically.  integrate_hamilton writes
it unsimplified, (3 xdot^3 - kappa xdot) / (3 xdot^2 - kappa), and
criterion C9 checks the flow against a direct Euler-Lagrange integration of
(3 xdot^2 - kappa) xddot = -V'(x).

At |xdot| = sqrt(kappa/3) the bracket degenerates.  Trajectories that run
into a cusp do so tangentially (the vector field points back toward the
cusp from both sides whenever the force is nonzero), so arrival shows up as
integrator stall rather than a transversal zero crossing; both channels are
captured, the velocity is snapped onto the cusp exactly, and the configured
policy decides what happens next.  Nondeterministic continuation is opt-in
and seeded: the jump target -2 v_c sign(xdot) is the far root of the
junction cubic, the unique other velocity carrying the same momentum.

Both flows are integrated by the explicit Runge-Kutta pair of Dormand and
Prince (J. Comput. Appl. Math. 6 (1980) 19), fifth order with a fourth
order error estimate, on two Python floats.  The step control is that of
scipy's RK45: an RMS error norm with atol = rtol = tol (rtol floored at
100 eps), safety factor 0.9, step factors in [0.2, 10], the initial step
of Hairer, Norsett & Wanner (Solving ODEs I, II.4), and a stall once the
step would fall below 10 ulp of t.  Output times and cusp crossings are
taken from Shampine's quartic dense output (Math. Comp. 46 (1986) 135); a
crossing is a sign change of xdot -+ v_c between step ends, bisected on
the interpolant to about 4 eps.  The stepper's arithmetic is plain float
arithmetic in a fixed order, with no BLAS call, so its steps do not depend
on the BLAS library that numpy loaded.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, IntegrationStalledError

DEGENERACY_TOL = 1e-9
# Velocity band around the cusp inside which a step-size collapse is
# interpreted as cusp arrival rather than an unrelated failure.
STALL_BAND = 1e-5

_POLICIES = ("halt", "random-branch")


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
    a cusp event).  ``stats`` counts the integrator's accepted_steps,
    rejected_steps and rhs_evals.
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
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        dt = np.diff(self.t)
        if dt.size and not (np.all(dt > 0) or np.all(dt < 0)):
            raise ValueError("trajectory times must be strictly monotone")

    def energy_drift(self):
        return float(np.max(np.abs(self.energy - self.energy[0])))


def _force_of(potential):
    if potential is None:
        return lambda x: 0.0
    if not hasattr(potential, "gradient"):
        raise TypeError("potential must be None or an object with __call__ "
                        "and .gradient")
    return potential.gradient


def energy(state, law, potential=None):
    """H(x, xdot) = (3/4) xdot^4 - (kappa/2) xdot^2 + V(x)."""
    value = float(law.energy(state.xdot))
    if potential is not None:
        value += float(potential(state.x))
    return value


def _assemble(law, potential, ts, xs, vs, flags, events, status, stats):
    t = np.asarray(ts, dtype=float)
    x = np.asarray(xs, dtype=float)
    v = np.asarray(vs, dtype=float)
    p = law.momentum(v)
    e = law.energy(v) + (potential(x) if potential is not None else 0.0)
    branch = law.branch_of_velocity(v) if law.branched else np.full(t.shape, 2)
    return Trajectory(t, x, v, np.asarray(p, float), np.asarray(e, float),
                      np.asarray(branch, int), np.asarray(flags, int),
                      events, status, stats)


# Dormand-Prince 5(4), the pair and controller of scipy's RK45.  The flows
# are autonomous, so the nodes c_i are not needed; stage 2 carries no
# weight in the solution, the error estimate or the dense output.
_A2 = 1 / 5
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# Error weights of stages 1 and 3-7, and the coefficients of s**2, s**3 and
# s**4 in Shampine's quartic interpolant (the s**1 coefficient is stage 1).
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (
    (-8048581381 / 2820520608, 131558114200 / 32700410799,
     -1754552775 / 470086768, 127303824393 / 49829197408,
     -282668133 / 205662961, 40617522 / 29380423),
    (8663915743 / 2820520608, -68118460800 / 10900136933,
     14199869525 / 1410260304, -318862633887 / 49829197408,
     2019193451 / 616988883, -110615467 / 29380423),
    (-12715105075 / 11282082432, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1 / 5  # the error estimate is of fourth order
_RTOL_FLOOR = 100 * sys.float_info.epsilon
_ROOT_TOL = 4 * sys.float_info.epsilon
_SQRT2 = math.sqrt(2.0)


def _rms(a, b):
    return math.sqrt(a * a + b * b) / _SQRT2


def _dot(w, k):
    return (w[0] * k[0] + w[1] * k[1] + w[2] * k[2] + w[3] * k[3]
            + w[4] * k[4] + w[5] * k[5])


def _dormand_prince(rhs, t, x, v, t_end, tol, stats):
    """Accepted Dormand-Prince steps from (t, x, v) toward t_end.

    Yields (t_old, x_old, v_old, h, kx, kv, t, x, v) per accepted step, kx
    and kv holding stages 1 and 3-7 for the dense output.  The steps stop
    at t_end, or earlier when the step size falls below 10 ulp of t.
    `stats` counts accepted and rejected steps and rhs evaluations.
    """
    rtol = max(tol, _RTOL_FLOOR)
    d = 1.0 if t_end >= t else -1.0
    fx, fv = rhs(x, v)
    stats["rhs_evals"] += 1
    if t == t_end:
        return
    # The first step: Hairer, Norsett & Wanner, Solving ODEs I, II.4.
    span = abs(t_end - t)
    sx, sv = tol + abs(x) * rtol, tol + abs(v) * rtol
    d0, d1 = _rms(x / sx, v / sv), _rms(fx / sx, fv / sv)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1x, f1v = rhs(x + h0 * d * fx, v + h0 * d * fv)
    stats["rhs_evals"] += 1
    # Python raises on x / 0 where numpy gives inf: h0 is 0 only when d1 is
    # inf, and max(d1, d2) is 0 only when d2 is NaN.
    d2 = _rms((f1x - fx) / sx, (f1v - fv) / sv) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5) if max(d1, d2) else math.inf
    h_abs = min(100 * h0, h1, span)
    while t != t_end:
        min_step = 10.0 * abs(math.nextafter(t, d * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return
            t_new = t + h_abs * d
            if d * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            k1x, k1v = fx, fv
            k2x, k2v = rhs(x + h * (_A2 * k1x), v + h * (_A2 * k1v))
            a1, a2 = _A3
            k3x, k3v = rhs(x + h * (a1 * k1x + a2 * k2x),
                           v + h * (a1 * k1v + a2 * k2v))
            a1, a2, a3 = _A4
            k4x, k4v = rhs(x + h * (a1 * k1x + a2 * k2x + a3 * k3x),
                           v + h * (a1 * k1v + a2 * k2v + a3 * k3v))
            a1, a2, a3, a4 = _A5
            k5x, k5v = rhs(x + h * (a1 * k1x + a2 * k2x + a3 * k3x + a4 * k4x),
                           v + h * (a1 * k1v + a2 * k2v + a3 * k3v + a4 * k4v))
            a1, a2, a3, a4, a5 = _A6
            k6x, k6v = rhs(x + h * (a1 * k1x + a2 * k2x + a3 * k3x + a4 * k4x
                                    + a5 * k5x),
                           v + h * (a1 * k1v + a2 * k2v + a3 * k3v + a4 * k4v
                                    + a5 * k5v))
            b1, b3, b4, b5, b6 = _B
            x_new = x + h * (b1 * k1x + b3 * k3x + b4 * k4x + b5 * k5x
                             + b6 * k6x)
            v_new = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v
                             + b6 * k6v)
            k7x, k7v = rhs(x_new, v_new)
            stats["rhs_evals"] += 6
            kx = (k1x, k3x, k4x, k5x, k6x, k7x)
            kv = (k1v, k3v, k4v, k5v, k6v, k7v)
            ex, ev = h * _dot(_E, kx), h * _dot(_E, kv)
            error = _rms(ex / (tol + max(abs(x), abs(x_new)) * rtol),
                         ev / (tol + max(abs(v), abs(v_new)) * rtol))
            if error < 1.0:
                factor = (_MAX_FACTOR if error == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # A NaN error compares false throughout and shrinks the step.
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True
            stats["rejected_steps"] += 1
        stats["accepted_steps"] += 1
        yield t, x, v, h, kx, kv, t_new, x_new, v_new
        t, x, v, fx, fv = t_new, x_new, v_new, k7x, k7v


def _dense(t_old, h, y_old, k):
    """Shampine's quartic interpolant over one step, as a function of time."""
    c1 = k[0]
    c2, c3, c4 = (_dot(p, k) for p in _P)

    def at(t):
        s = (t - t_old) / h
        return y_old + h * (s * (c1 + s * (c2 + s * (c3 + s * c4))))
    return at


def _crossing(vt, t_old, t, level):
    """Where vt crosses `level` in [t_old, t], bisected to about 4 eps."""
    a, b = t_old, t
    below = vt(a) < level
    while True:
        m = 0.5 * (a + b)
        if abs(b - a) <= _ROOT_TOL * (1.0 + abs(m)) or m in (a, b):
            return m
        fm = vt(m) - level
        if fm == 0.0:
            return m
        if (fm < 0.0) == below:
            a = m
        else:
            b = m


def _segment(rhs, t, x, v, t_end, tol, samples, vc, push, stats):
    """One integration from (t, x, v) to t_end, stopped by an event.

    `samples` are the output times in integration order, or None for every
    step end.  With `vc`, the first sign change of xdot - vc or xdot + vc
    at a step end ends the segment at its root on the dense interpolant.
    Returns (outcome, t, x, xdot): outcome is "completed" at t_end,
    "crossed" at a root, or "stalled" at the last accepted step.
    """
    d = 1.0 if t_end >= t else -1.0
    todo = iter(samples or ())
    nxt = next(todo, None)
    if samples is None:
        push(t, x, v)
    g = None if vc is None else (v - vc, v + vc)
    for t_old, x_old, v_old, h, kx, kv, t, x, v in _dormand_prince(
            rhs, t, x, v, t_end, tol, stats):
        xt = vt = None
        stop, crossed = t, False
        if g is not None:
            g_new = (v - vc, v + vc)
            for level, a, b in zip((vc, -vc), g, g_new):
                if (a <= 0.0 <= b) or (b <= 0.0 <= a):
                    vt = vt or _dense(t_old, h, v_old, kv)
                    root = _crossing(vt, t_old, t, level)
                    if not crossed or d * (root - stop) < 0:
                        stop, crossed = root, True
            g = g_new
        if nxt is not None and d * (nxt - stop) <= 0:
            xt = _dense(t_old, h, x_old, kx)
            vt = vt or _dense(t_old, h, v_old, kv)
            while nxt is not None and d * (nxt - stop) <= 0:
                push(nxt, xt(nxt), vt(nxt))
                nxt = next(todo, None)
        if crossed:
            xt = xt or _dense(t_old, h, x_old, kx)
            return "crossed", stop, xt(stop), vt(stop)
        if samples is None:
            push(t, x, v)
    if t != t_end:
        return "stalled", t, x, v
    while nxt is not None:  # samples at the start of a segment of length 0
        push(nxt, x, v)
        nxt = next(todo, None)
    return "completed", t, x, v


def _run_segments(rhs, state0, end_time, law, potential, tol, policy, seed,
                  max_events, t_eval):
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
    vc = float(law.v_cusp)
    # kappa < 0 has no degeneracy surface at all; arming |xdot| = 0 events
    # there would falsely halt ordinary turning points.
    arm = law.kappa >= 0.0
    hess0 = 3.0 * state0.xdot**2 - law.kappa
    if abs(hess0) <= DEGENERACY_TOL:
        raise DegeneracyError("initial state sits on the degeneracy surface")
    rng = np.random.default_rng(seed)
    forward = end_time >= state0.t
    if t_eval is not None:
        t_eval = np.sort(np.asarray(t_eval, dtype=float))
        if np.any(t_eval[1:] == t_eval[:-1]):
            raise ValueError("t_eval holds a time twice")
    watch = vc if arm else None

    ts, xs, vs, flags = [], [], [], []
    events = []
    stats = {"accepted_steps": 0, "rejected_steps": 0, "rhs_evals": 0}
    t_cur, x_cur, v_cur = float(state0.t), float(state0.x), float(state0.xdot)
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
        pts = None
        if t_eval is not None:
            pts = (t_eval[(t_eval >= t_cur) & (t_eval <= end_time)] if forward
                   else t_eval[(t_eval <= t_cur) & (t_eval >= end_time)][::-1])
            pts = pts.tolist()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            outcome, t_ev, x_ev, v_raw = _segment(
                rhs, t_cur, x_cur, v_cur, end_time, tol, pts, watch, push,
                stats)
        if outcome == "completed":
            break
        if outcome == "stalled":
            if not arm or abs(abs(v_raw) - vc) > STALL_BAND:
                raise IntegrationStalledError(
                    f"step size collapsed at t = {t_ev:.6g} away from any "
                    f"cusp (xdot = {v_raw:.6g})")
        v_ev = math.copysign(vc, v_raw)
        push(t_ev, x_ev, v_ev, flag=1)
        events.append(ClassicalState(x_ev, v_ev, t_ev))

        # The coin is drawn only under random-branch.
        if policy == "halt" or len(events) >= max_events or rng.random() < 0.5:
            status = "halted"
            break
        t_cur, x_cur = t_ev, x_ev
        v_cur = -2.0 * v_ev

    return _assemble(law, potential, ts, xs, vs, flags, events, status, stats)


def integrate_hamilton(state0, end_time, law, potential=None, *, tol=1e-12,
                       policy="halt", seed=None, max_events=32, t_eval=None):
    """Integrate the bracket flow with cusp events.

    `end_time` may lie before state0.t, which integrates backward.  Events
    are |xdot| = sqrt(kappa/3) crossings or tangential arrivals; `policy`
    is halt or random-branch (seeded coin per event between halting and
    jumping to the far junction root).
    """
    grad = _force_of(potential)
    kappa = float(law.kappa)

    def rhs(x, v):
        hess = 3.0 * v * v - kappa
        try:
            return (3.0 * v**3 - kappa * v) / hess, -float(grad(x)) / hess
        except ArithmeticError:  # numpy's inf and NaN, for python floats
            return math.nan, math.nan

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
    kappa = float(law.kappa)

    def rhs(x, v):
        try:
            return v, -float(grad(x)) / (3.0 * v * v - kappa)
        except ZeroDivisionError:
            return v, math.nan

    return _run_segments(rhs, state0, end_time, law, potential, tol, policy,
                         seed, max_events, t_eval)
