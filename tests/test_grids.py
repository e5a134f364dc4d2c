"""Grid layouts: interior line nodes, periodic ring, and the folded chart.

The folded grid for kappa = 3 with n_inner = 4, n_arm = 5 is small enough
to write out by hand: thirteen nodes at unit spacing, junctions at
u = -2 and u = +2, and a middle branch traversed in reverse.
"""

import numpy as np
import pytest

from branchedq import DispersionLaw, FoldedGrid, LineGrid, PeriodicGrid

LAW = DispersionLaw(kappa=3.0)


def test_line_grid_excludes_dirichlet_endpoints():
    g = LineGrid(-1.0, 1.0, 7)
    assert g.h == pytest.approx(0.25)
    assert g.size == 7
    assert np.allclose(g.x, -0.75 + 0.25 * np.arange(7))
    with pytest.raises(ValueError):
        LineGrid(-1.0, 1.0, 4)
    with pytest.raises(ValueError):
        LineGrid(1.0, -1.0, 7)


def test_periodic_grid_covers_one_period():
    g = PeriodicGrid(0.0, 2.0 * np.pi, 8)
    assert g.h == pytest.approx(np.pi / 4.0)
    assert g.size == 8
    assert g.x[0] == 0.0
    # last node is one step short of the period
    assert g.x[-1] == pytest.approx(2.0 * np.pi - g.h)
    with pytest.raises(ValueError):
        PeriodicGrid(0.0, 1.0, 3)


def test_folded_grid_hand_layout():
    g = FoldedGrid(LAW, 4, 5)
    assert g.size == 13
    assert g.h == pytest.approx(1.0)
    assert g.junction_plus == 4
    assert g.junction_minus == 8
    assert np.allclose(g.u, np.arange(-6.0, 7.0))
    assert np.allclose(g.p, [-2, -1, 0, 1, 2, 1, 0, -1, -2, -1, 0, 1, 2])
    assert list(g.branch) == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3]


def test_folded_grid_junction_momenta():
    g = FoldedGrid(LAW, 10, 7)
    assert g.u[g.junction_plus] == pytest.approx(-2.0)
    assert g.u[g.junction_minus] == pytest.approx(2.0)
    assert g.p[g.junction_plus] == pytest.approx(2.0)
    assert g.p[g.junction_minus] == pytest.approx(-2.0)
    # Off its two pinned junction nodes the grid's momenta are the law's
    # fold of u, bit for bit.
    for kappa in (1.0, 0.7, 5.3):
        law = DispersionLaw(kappa=kappa)
        g = FoldedGrid(law, 40, 60)
        p, branch = law.fold(g.u)
        off = np.delete(np.arange(g.size), [g.junction_plus, g.junction_minus])
        assert np.array_equal(g.p[off], p[off])
        assert np.array_equal(g.branch, branch)


def test_folded_grid_validation():
    with pytest.raises(ValueError):
        FoldedGrid(LAW, 1, 5)
    with pytest.raises(ValueError):
        FoldedGrid(LAW, 4, 2)
    flat = DispersionLaw(kappa=-2.0)
    with pytest.raises(Exception):
        FoldedGrid(flat, 4, 5)


def test_spacing_scales_with_kappa():
    law = DispersionLaw(kappa=12.0)
    width = law.p_plus - law.p_minus
    g = FoldedGrid(law, 8, 6)
    assert g.h == pytest.approx(width / 8.0)
