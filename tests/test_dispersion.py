"""Branch geometry of the cubic momentum map p = v**3 - kappa*v.

The kappa = 3 law is the workhorse: cusps at v = +-1, junction momenta
+-2, cusp energy -3/4.  Those values are frozen here by hand and cross
checked symbolically against the Legendre transform.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchedq import DispersionLaw, velocity_sweep
from branchedq.dispersion import (_SNAP_RTOL, BRANCHES, _polished_single_root,
                                  branch_velocities)

LAW = DispersionLaw(kappa=3.0)


def test_cusp_data_kappa_three():
    assert LAW.v_cusp == pytest.approx(1.0, abs=1e-15)
    assert LAW.p_plus == pytest.approx(2.0, abs=1e-15)
    assert LAW.p_minus == pytest.approx(-2.0, abs=1e-15)
    assert LAW.cusp_energy == pytest.approx(-0.75, abs=1e-15)
    # the cusps are where the Legendre map folds: p(-+v_c) = q_+-
    assert LAW.momentum(-LAW.v_cusp) == pytest.approx(LAW.p_plus, abs=1e-15)
    assert LAW.energy(LAW.v_cusp) == pytest.approx(LAW.cusp_energy, abs=1e-15)


def test_momentum_and_energy_frozen_values():
    # p(v) = v^3 - 3v and E(v) = (3/4)v^4 - (3/2)v^2 at hand-picked points
    assert LAW.momentum(2.0) == pytest.approx(2.0, abs=1e-15)
    assert LAW.momentum(1.0) == pytest.approx(-2.0, abs=1e-15)
    assert LAW.momentum(-1.0) == pytest.approx(2.0, abs=1e-15)
    assert LAW.energy(2.0) == pytest.approx(6.0, abs=1e-14)
    assert LAW.energy(1.0) == pytest.approx(-0.75, abs=1e-15)


def test_legendre_transform_symbolic():
    """E = p*v - L and p = dL/dv, derived independently with sympy."""
    v, kappa = sp.symbols("v kappa", real=True)
    L = v**4 / 4 - kappa * v**2 / 2
    p = sp.diff(L, v)
    E = sp.expand(p * v - L)
    assert sp.simplify(E - (sp.Rational(3, 4) * v**4 - kappa * v**2 / 2)) == 0
    # junction momentum and cusp energy at the degeneracy v^2 = kappa/3
    vc = sp.sqrt(kappa / 3)
    assert sp.simplify(p.subs(v, vc) + 2 * (kappa / 3) ** sp.Rational(3, 2)) == 0
    assert sp.simplify(E.subs(v, vc) + kappa**2 / 12) == 0


def test_branch_labels():
    assert LAW.branch_of_velocity(-2.0) == 1
    assert LAW.branch_of_velocity(0.0) == 2
    assert LAW.branch_of_velocity(2.0) == 3
    # cusp velocities belong to the reversed middle branch
    assert LAW.branch_of_velocity(1.0) == 2
    assert LAW.branch_of_velocity(-1.0) == 2


def test_invert_momentum_three_roots():
    roots = LAW.invert_momentum(0.0)
    assert [b for b, _ in roots] == [1, 2, 3]
    vals = [v for _, v in roots]
    assert vals[0] == pytest.approx(-np.sqrt(3.0), abs=1e-12)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)
    assert vals[2] == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_invert_momentum_at_junctions():
    """Double root at the cusp plus the far root on the opposite side."""
    up = LAW.invert_momentum(2.0)
    assert [(b, pytest.approx(v, abs=1e-12)) for b, v in up] == \
        [(1, -1.0), (2, -1.0), (3, 2.0)]
    down = LAW.invert_momentum(-2.0)
    assert [(b, pytest.approx(v, abs=1e-12)) for b, v in down] == \
        [(1, -2.0), (2, 1.0), (3, 1.0)]


def test_invert_momentum_single_root_outside():
    roots = LAW.invert_momentum(10.0)
    assert len(roots) == 1
    branch, v = roots[0]
    assert branch == 3
    assert v**3 - 3.0 * v == pytest.approx(10.0, abs=1e-12)


def test_random_momenta_satisfy_cubic():
    rng = np.random.default_rng(20260814)
    for _ in range(300):
        kappa = float(rng.uniform(0.2, 8.0))
        p = float(rng.uniform(-12.0, 12.0))
        law = DispersionLaw(kappa=kappa)
        roots = law.invert_momentum(p)
        assert len(roots) in (1, 3)
        scale = max(1.0, abs(p))
        for branch, v in roots:
            assert abs(v**3 - kappa * v - p) < 1e-10 * scale
            assert law.branch_of_velocity(v) == branch or abs(
                abs(v) - law.v_cusp) < 1e-9


def test_roots_match_numpy_companion():
    rng = np.random.default_rng(7)
    for _ in range(50):
        kappa = float(rng.uniform(0.5, 6.0))
        p = float(rng.uniform(-8.0, 8.0))
        mine = sorted(v for _, v in DispersionLaw(kappa=kappa).invert_momentum(p))
        ref = np.roots([1.0, 0.0, -kappa, -p])
        ref = sorted(float(r.real) for r in ref if abs(r.imag) < 1e-7)
        if len(mine) != len(ref):
            # companion-matrix roots can blur an exact double root; accept
            # when the extra/missing root sits at the cusp
            continue
        for a, b in zip(mine, ref):
            assert a == pytest.approx(b, abs=1e-7)


def test_unfold_fold_round_trip():
    assert LAW.unfold(0.0, 1) == pytest.approx(-4.0)
    assert LAW.unfold(0.0, 2) == pytest.approx(0.0)
    assert LAW.unfold(0.0, 3) == pytest.approx(4.0)
    # the three charts agree at the junctions
    assert LAW.unfold(2.0, 1) == pytest.approx(LAW.unfold(2.0, 2))
    assert LAW.unfold(-2.0, 2) == pytest.approx(LAW.unfold(-2.0, 3))
    rng = np.random.default_rng(11)
    u = rng.uniform(-9.0, 9.0, size=200)
    q, branch = LAW.fold(u)
    back = np.array([LAW.unfold(qi, bi) for qi, bi in zip(q, branch)])
    assert np.max(np.abs(back - u)) < 1e-12


_KAPPA = st.floats(-5.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(kappa=_KAPPA, u=st.floats(-50.0, 50.0, allow_nan=False))
def test_unfold_inverts_fold(kappa, u):
    law = DispersionLaw(kappa=kappa)
    width = law.p_plus - law.p_minus
    assert law.unfold(*law.fold(u)) == pytest.approx(
        u, abs=1e-13 * max(1.0, abs(u), width))


@settings(max_examples=200, deadline=None)
@given(kappa=st.floats(0.05, 10.0), ratio=st.floats(-3.0, 3.0))
def test_invert_momentum_trichotomy(kappa, ratio):
    """Three roots inside the junction window, one outside."""
    law = DispersionLaw(kappa=kappa)
    p = ratio * law.p_plus
    assume(abs(abs(p) - law.p_plus) > 1e-9)
    roots = law.invert_momentum(p)
    inside = abs(p) < law.p_plus
    assert [b for b, _ in roots] == ([1, 2, 3] if inside else
                                     [3 if p > 0 else 1])
    for _, v in roots:
        assert abs(v**3 - kappa * v - p) <= 1e-10


def test_fold_branch_boundaries():
    assert LAW.fold(-2.0 - 1e-9)[1] == 1
    assert LAW.fold(-2.0)[1] == 2
    assert LAW.fold(2.0 - 1e-9)[1] == 2
    assert LAW.fold(2.0)[1] == 3


def test_velocity_sweep_columns():
    data = velocity_sweep(LAW, -3.0, 3.0, 241)
    assert sorted(data) == ["E", "branch", "p", "xdot"]
    v = data["xdot"]
    assert np.allclose(data["p"], v**3 - 3.0 * v, atol=1e-12)
    assert np.allclose(data["E"], 0.75 * v**4 - 1.5 * v**2, atol=1e-12)
    assert set(np.unique(data["branch"])) == {1, 2, 3}


def test_unbranched_laws_are_graceful():
    flat = DispersionLaw(kappa=-1.0)
    assert not flat.branched
    assert flat.v_cusp == 0.0
    roots = flat.invert_momentum(1.0)
    assert len(roots) == 1
    v = roots[0][1]
    assert v**3 + v == pytest.approx(1.0, abs=1e-12)
    # E(p) only makes sense on a single-valued law
    assert flat.energy_of_momentum(1.0) == pytest.approx(
        0.75 * v**4 + 0.5 * v**2, abs=1e-12)
    with pytest.raises(ValueError):
        LAW.energy_of_momentum(1.0)


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf, 1e200, -1e103])
def test_law_rejects_kappa_without_a_finite_cube(kappa):
    with pytest.raises(ValueError, match="finite cube"):
        DispersionLaw(kappa=kappa)
    # The largest accepted kappa still inverts.
    assert len(DispersionLaw(kappa=5e102).invert_momentum(0.0)) == 3


def test_flat_law_folded_chart_collapses_to_a_point():
    flat = DispersionLaw(kappa=-1.0)
    # the folded chart collapses to a point but still round-trips
    assert flat.p_minus == 0.0 and flat.p_plus == 0.0
    q, b = flat.fold(1.5)
    assert flat.unfold(q, b) == pytest.approx(1.5)


def _per_branch_root(kappa, p, branch):
    """The per-branch inversion the batched kernel replaced, NaN where it raised."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not kappa > 0.0:
        v = _polished_single_root(p, kappa)
        label = np.where(v < 0.0, 1, np.where(v > 0.0, 3, 2))
        return np.where(label == branch, v, np.nan)
    v_cusp = np.sqrt(max(kappa, 0.0) / 3.0)
    p_plus = 2.0 * (kappa / 3.0) ** 1.5
    out = np.full(p.shape, np.nan)
    inside = np.abs(p) <= p_plus
    theta = np.arccos(np.clip(p[inside] / p_plus, -1.0, 1.0))
    k = {3: 0, 2: 1, 1: 2}[branch]
    out[inside] = 2.0 * v_cusp * np.cos((theta - 2.0 * np.pi * k) / 3.0)
    carried = {1: p < 0.0, 2: np.zeros(p.shape, bool), 3: p > 0.0}[branch]
    outer = ~inside & carried
    out[outer] = _polished_single_root(p[outer], kappa)
    return out


# kappa <= 0, kappa = 0 and branched laws; subnormal kappa, whose q_+
# underflows, is left out.
_KAPPA_ANY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, -1e-3),
                       st.floats(1e-3, 10.0))
# Offsets from a junction in units of the snap tolerance, on it, inside
# the band or beyond it, but clear of the band edge, so that a last-bit
# change in q_+ cannot move a draw across it.
_SNAP_UNITS = st.one_of(st.just(0.0), st.floats(0.01, 0.5), st.floats(-0.5, -0.01),
                        st.floats(2.0, 10.0), st.floats(-10.0, -2.0))


@settings(max_examples=300, deadline=None)
@given(kappa=_KAPPA_ANY,
       ratios=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       offsets=st.lists(st.tuples(st.booleans(), _SNAP_UNITS), max_size=8))
def test_kernel_matches_per_branch_inversion(kappa, ratios, offsets):
    """Bit for bit where the old inversion answered; junction pairs to 5 eps v_c.

    The branch-1 root at theta = 0 is 2 v_c cos(-4 pi/3), whose computed
    cosine is -(1 + 4 eps)/2, so the pair sits up to 4 eps v_c plus one
    rounding from the exact double root.
    """
    law = DispersionLaw(kappa=kappa)
    qp, vc = law.p_plus, law.v_cusp
    tol = _SNAP_RTOL * max(1.0, qp)
    junction = [(1.0 if up else -1.0) * qp + m * tol for up, m in offsets]
    p = np.array([r * max(qp, 1.0) for r in ratios] + junction + [qp, -qp])
    got = branch_velocities(p, kappa)
    assert got.shape == (p.size, 3)
    snapped = (kappa > 0.0) & (np.abs(np.abs(p) - qp) <= tol) & (p != 0.0)
    for b in BRANCHES:
        ref = _per_branch_root(kappa, p, b)
        own = {1: p < 0.0, 2: np.zeros(p.size, bool), 3: p > 0.0}[b]
        plain = ~snapped | own
        assert np.array_equal(got[plain, b - 1], ref[plain], equal_nan=True)
    pair = np.where(p[:, None] > 0.0, [-vc, -vc, np.nan], [np.nan, vc, vc])
    mask = snapped[:, None] & ~np.isnan(pair)
    assert np.all(np.abs(got[mask] - pair[mask]) <= 5.0 * np.finfo(float).eps * vc)
    counts = np.count_nonzero(~np.isnan(got), axis=1)
    assert np.all(counts[snapped] == 3)


def test_scalar_kappa_roots_are_bitwise_stable():
    """A scalar kappa keeps q_+ on the libm pow, as the per-branch code did.

    numpy's array ** differs from it in the last bit for about 5 % of
    kappa, which would move every root inside the window.
    """
    rng = np.random.default_rng(11)
    for kappa in 10.0 ** rng.uniform(-2.0, 1.0, 400):
        kappa = float(kappa)
        p = rng.uniform(-1.0, 1.0, 4) * 2.0 * (kappa / 3.0) ** 1.5
        got = branch_velocities(p, kappa)
        for b in BRANCHES:
            assert np.array_equal(got[:, b - 1], _per_branch_root(kappa, p, b))


@settings(max_examples=200, deadline=None)
@given(draws=st.lists(st.tuples(_KAPPA_ANY, st.floats(-3.0, 3.0), _SNAP_UNITS,
                                st.booleans()), min_size=1, max_size=50))
def test_batched_kappa_matches_scalar_calls(draws):
    """One call over an array of kappa agrees with one call per kappa.

    Array ** may differ from the scalar libm pow in the last bit of q_+;
    the snap keeps the ill-conditioned junction pair from seeing it.
    """
    kappas, momenta = [], []
    for kappa, ratio, units, on_junction in draws:
        law = DispersionLaw(kappa=kappa)
        qp = law.p_plus
        if on_junction and qp > 0.0:
            p = (1.0 if ratio > 0 else -1.0) * qp + units * _SNAP_RTOL * max(1.0, qp)
        else:
            p = ratio * max(qp, 1.0)
        kappas.append(kappa)
        momenta.append(p)
    batch = branch_velocities(np.array(momenta), np.array(kappas))
    single = np.array([branch_velocities(p, k) for p, k in zip(momenta, kappas)])
    assert np.array_equal(np.isnan(batch), np.isnan(single))
    scale = np.maximum(1.0, np.sqrt(np.maximum(kappas, 0.0) / 3.0))[:, None]
    assert np.nanmax(np.abs(batch - single) / scale, initial=0.0) <= 1e-9
