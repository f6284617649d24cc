import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hardycap import hardy1d, quadrature
from hardycap.errors import DomainError
from hardycap.eta import ENDPOINT_GUARD, find_truncation_point
from hardycap.quadrature import (
    GL_NODES,
    GL_TAIL,
    LOCKSTEP_MIN,
    PANEL_RATIO,
    integrate,
    node_tail_integrals,
    panel_nodes,
    refine_breakpoints,
    segment_integrals,
)
from hardycap.weights import make_sine_weight


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


@pytest.mark.parametrize("call", [
    lambda: refine_breakpoints([math.nan, 1.0]),
    lambda: refine_breakpoints(np.linspace(0.0, 1.0, 20).tolist() + [math.inf]),
    lambda: integrate(np.exp, -math.inf, 1.0),
    lambda: integrate(np.exp, 0.0, math.nan),
    lambda: segment_integrals(np.exp, [0.0, math.nan, 1.0]),
    lambda: refine_breakpoints(np.linspace(0.0, 1.0, 20), singular=(math.nan,)),
    lambda: integrate(np.exp, 0.0, 1.0, singular=(0.0, math.inf)),
], ids=["refine", "refine-lockstep", "integrate", "integrate-nan", "segment-integrals",
        "singular-lockstep", "singular-integrate"])
def test_non_finite_breakpoint_raises(call):
    # a non-finite edge never reaches its stop: the panel march used to run
    # until memory ran out
    with pytest.raises(DomainError, match="finite"):
        call()


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


def _reference_refine(breakpoints, singular=(), rel=PANEL_RATIO, coarse=8):
    """The panel layout one segment and one panel at a time."""
    breakpoints = np.asarray(breakpoints, dtype=float)
    out = [breakpoints[0]]
    counts = np.empty(len(breakpoints) - 1, dtype=np.intp)
    scale = max(abs(breakpoints[0]), abs(breakpoints[-1]), 1.0)
    for i, (lo, hi) in enumerate(zip(breakpoints[:-1], breakpoints[1:])):
        cur = lo
        k = 0
        while True:
            width = (hi - lo) / coarse
            for s in singular:
                width = min(width, rel * abs(cur - s) if cur < s else rel * (cur - s))
            width = max(width, 1e-15 * scale)
            nxt = cur + width
            k += 1
            if nxt >= hi - 1e-16 * scale:
                out.append(hi)
                break
            out.append(nxt)
            cur = nxt
        counts[i] = k
    return np.array(out), counts


def _assert_same_as_reference(breakpoints, singular=(), coarse=8, rel=PANEL_RATIO):
    """``rel`` must be the ``PANEL_RATIO`` that ``refine_breakpoints`` sees."""
    pts, counts = refine_breakpoints(breakpoints, singular, coarse)
    ref_pts, ref_counts = _reference_refine(breakpoints, singular, rel, coarse)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(counts, ref_counts)
    assert counts.dtype == ref_counts.dtype


@pytest.mark.parametrize("coarse", [1, 3, 8])
@pytest.mark.parametrize("rel", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("segments", [1, LOCKSTEP_MIN - 1, LOCKSTEP_MIN,
                                      LOCKSTEP_MIN + 1, 4097])
def test_refine_bit_identical_to_one_segment_at_a_time(segments, rel, coarse, monkeypatch):
    # breakpoints on both sides of 0, a quarter of the segments zero-width,
    # singular points inside segments and one that starts a segment
    rng = np.random.default_rng([segments, coarse, int(10 * rel)])
    bp = np.sort(rng.uniform(-2.0, 4.0, segments + 1))
    for i in rng.choice(segments, segments // 4, replace=False):
        bp[i + 1] = bp[i]
    singular = (0.0, math.pi, float(bp[segments // 2]))
    monkeypatch.setattr(quadrature, "PANEL_RATIO", rel)
    _assert_same_as_reference(bp, singular, coarse, rel)
    _assert_same_as_reference(bp, (), coarse, rel)


def test_quotient_layout_bit_identical(monkeypatch):
    # the panels of a V_4096 quotient: about 3.9k panels from 3.8k segments
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return refine_breakpoints(*args, **kwargs)

    monkeypatch.setattr(hardy1d, "refine_breakpoints", recording)
    w = make_sine_weight(3, 2.0, math.pi / 2)
    prof = find_truncation_point(w)
    hardy1d.hardy_quotient(w, prof, hardy1d.extremal_V_k(w, prof, 4096), truncated=True)
    (args, kwargs), = calls
    assert len(args[0]) > 3000
    _assert_same_as_reference(*args, **kwargs)


@pytest.mark.parametrize("a", [0.5, math.pi / 2, 2.0, 3.0])
def test_a_k_b_k_layout_same_as_two_calls(a):
    # A_k_B_k refines its head [guard_lo, 1/k] and body [1/k, guard_hi] in
    # one call; for a > 1 the head then gets the body's larger scale
    lo, hi = a * ENDPOINT_GUARD, a * (1.0 - ENDPOINT_GUARD)
    for singular in ((0.0, a), (0.0, math.pi, a)):
        for k in [*range(2, 130), 256, 1024, 4096, 16384]:
            if 1.0 / k >= a:
                continue
            head, _ = refine_breakpoints([lo, 1.0 / k], singular)
            body, _ = refine_breakpoints([1.0 / k, hi], singular)
            pts, counts = refine_breakpoints([lo, 1.0 / k, hi], singular)
            assert counts[0] == len(head) - 1
            assert np.array_equal(pts, np.concatenate((head, body[1:])))
