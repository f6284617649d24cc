import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hardycap.quadrature import (
    GL_NODES,
    GL_TAIL,
    integrate,
    node_tail_integrals,
    panel_nodes,
    refine_breakpoints,
    segment_integrals,
)


def test_polynomial_exact():
    assert_allclose(integrate(lambda x: x**7, 0.0, 2.0), 2.0**8 / 8.0, rtol=1e-14)


def test_smooth_vs_scipy():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    ref = quad(lambda x: np.exp(-x) * np.sin(3.0 * x), 0.0, 5.0)[0]
    assert_allclose(integrate(f, 0.0, 5.0), ref, rtol=1e-12)


def test_endpoint_singularity():
    # 1/sqrt(x) on [1e-12, 1]: panels must refine towards 0
    f = lambda x: x**-0.5
    ref = 2.0 * (1.0 - 1e-6)
    assert_allclose(integrate(f, 1e-12, 1.0, singular=(0.0,)), ref, rtol=1e-10)


def test_refinement_respects_ratio():
    pts, counts = refine_breakpoints(np.array([1e-8, 1.0]), singular=(0.0,))
    widths = np.diff(pts)
    dist = np.abs(pts[:-1])
    assert np.all(widths <= 0.2 * dist + 1e-15)
    assert counts.sum() == len(pts) - 1


def test_segment_integrals_sum_to_total():
    bp = np.array([0.1, 0.3, 0.55, 0.9, 1.0])
    f = lambda x: np.cos(x) ** 2
    seg = segment_integrals(f, bp)
    assert len(seg) == 4
    assert_allclose(seg.sum(), integrate(f, 0.1, 1.0), rtol=1e-13)


def test_panel_nodes_increasing():
    pts, _ = refine_breakpoints(np.array([1e-10, 0.5, 1.0]), singular=(0.0,))
    x, w = panel_nodes(pts)
    flat = x.ravel()
    assert np.all(np.diff(flat) > 0.0)
    assert np.all(w > 0.0)
    assert_allclose(w.sum(), 1.0 - 1e-10, rtol=1e-14)


@pytest.mark.parametrize("degree", range(16))
def test_tail_matrix_exact_on_polynomials(degree):
    # GL_TAIL @ xi**m integrates xi**m from each node to 1
    exact = (1.0 - GL_NODES ** (degree + 1)) / (degree + 1)
    assert_allclose(GL_TAIL @ GL_NODES**degree, exact, rtol=0, atol=1e-14)


def test_node_tail_integrals_vs_closed_form():
    # integral_x^1 t**-2 dt = 1/x - 1, towards a singular point at 0
    pts, _ = refine_breakpoints(np.array([1e-6, 0.3, 1.0]), singular=(0.0,))
    x, _ = panel_nodes(pts)
    at_nodes, at_edges = node_tail_integrals(pts, x, x**-2.0)
    assert_allclose(at_nodes, (1.0 - x) / x, rtol=1e-13)
    assert_allclose(at_edges, (1.0 - pts) / pts, rtol=1e-13, atol=1e-15)
    assert at_edges[-1] == 0.0
