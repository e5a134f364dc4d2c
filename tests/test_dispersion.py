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

from branchedq import (BranchedDomain, DispersionLaw, UnbranchedDispersionError,
                       velocity_sweep)

LAW = DispersionLaw(kappa=3.0)


def test_cusp_data_kappa_three():
    cd = LAW.cusp_points()
    assert cd.xdot_plus == pytest.approx(1.0, abs=1e-15)
    assert cd.xdot_minus == pytest.approx(-1.0, abs=1e-15)
    assert cd.p_plus == pytest.approx(2.0, abs=1e-15)
    assert cd.p_minus == pytest.approx(-2.0, abs=1e-15)
    assert cd.energy == pytest.approx(-0.75, abs=1e-15)


def test_momentum_and_energy_frozen_values():
    # p(v) = v^3 - 3v and E(v) = (3/4)v^4 - (3/2)v^2 at hand-picked points
    assert LAW.momentum(2.0) == pytest.approx(2.0, abs=1e-15)
    assert LAW.momentum(1.0) == pytest.approx(-2.0, abs=1e-15)
    assert LAW.momentum(-1.0) == pytest.approx(2.0, abs=1e-15)
    assert LAW.energy(2.0) == pytest.approx(6.0, abs=1e-14)
    assert LAW.energy(1.0) == pytest.approx(-0.75, abs=1e-15)
    assert LAW.hessian(1.0) == pytest.approx(0.0, abs=1e-15)
    assert LAW.hessian(2.0) == pytest.approx(9.0, abs=1e-15)


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
    dom = LAW.domain()
    assert isinstance(dom, BranchedDomain)
    assert dom.unfold(0.0, 1) == pytest.approx(-4.0)
    assert dom.unfold(0.0, 2) == pytest.approx(0.0)
    assert dom.unfold(0.0, 3) == pytest.approx(4.0)
    # the three charts agree at the junctions
    assert dom.unfold(2.0, 1) == pytest.approx(dom.unfold(2.0, 2))
    assert dom.unfold(-2.0, 2) == pytest.approx(dom.unfold(-2.0, 3))
    rng = np.random.default_rng(11)
    u = rng.uniform(-9.0, 9.0, size=200)
    q, branch = dom.fold(u)
    back = np.array([dom.unfold(qi, bi) for qi, bi in zip(q, branch)])
    assert np.max(np.abs(back - u)) < 1e-12


_KAPPA = st.floats(-5.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(kappa=_KAPPA, u=st.floats(-50.0, 50.0, allow_nan=False))
def test_unfold_inverts_fold(kappa, u):
    dom = DispersionLaw(kappa=kappa).domain()
    width = dom.p_plus - dom.p_minus
    assert dom.unfold(*dom.fold(u)) == pytest.approx(
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
    dom = LAW.domain()
    assert dom.fold(-2.0 - 1e-9)[1] == 1
    assert dom.fold(-2.0)[1] == 2
    assert dom.fold(2.0 - 1e-9)[1] == 2
    assert dom.fold(2.0)[1] == 3


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


def test_branched_only_helpers_raise_on_flat_laws():
    flat = DispersionLaw(kappa=-1.0)
    with pytest.raises(UnbranchedDispersionError):
        flat.cusp_points()
    # the folded chart collapses to a point but still round-trips
    dom = flat.domain()
    assert dom.p_minus == 0.0 and dom.p_plus == 0.0
    q, b = dom.fold(1.5)
    assert dom.unfold(q, b) == pytest.approx(1.5)
