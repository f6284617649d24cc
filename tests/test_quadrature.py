import contextlib
import importlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hardycap import hardy1d, quadrature
from hardycap.errors import DomainError, HardyError, NumericalError
from hardycap.eta import ENDPOINT_GUARD, find_truncation_point, tail_integrals
from hardycap.quadrature import (
    ALL_GL16,
    GL4,
    GL8,
    GL16,
    LOCKSTEP_MIN,
    PANEL_RATIO,
    integrate,
    node_tail_integrals,
    panel_nodes,
    panel_rules,
    refine_breakpoints,
    segment_integrals,
)
from hardycap.weights import SINE, make_power_weight, make_sine_weight

eta_module = importlib.import_module("hardycap.eta")


def test_polynomial_exact():
    assert_allclose(integrate(lambda x: x**7, 0.0, 2.0, ()), 2.0**8 / 8.0, rtol=1e-14)


def test_smooth_vs_scipy():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    ref = quad(lambda x: np.exp(-x) * np.sin(3.0 * x), 0.0, 5.0)[0]
    assert_allclose(integrate(f, 0.0, 5.0, ()), ref, rtol=1e-12)


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


@st.composite
def _breakpoints_and_singular(draw):
    """Sorted breakpoints on a linear or a logarithmic scale, and singular
    points drawn from the breakpoints, from inside the segments and from
    outside the range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 8))
    if draw(st.booleans()):
        bp = np.sort(rng.uniform(-3.0, 3.0, size))
    else:
        bp = np.sort(10.0 ** rng.uniform(-12.0, 0.5, size))
    pool = np.concatenate((bp, rng.uniform(bp[0], bp[-1], 3), [bp[0] - 1.0, bp[-1] + 1.0]))
    return bp, rng.choice(pool, draw(st.integers(1, 3)), replace=False).tolist()


@given(_breakpoints_and_singular())
@example((np.array([0.5, 1.0]), [1.0]))  # towards a singular point on the right
@settings(max_examples=200, deadline=None)
def test_width_bound_from_the_left_edge(case):
    # a panel [lo, hi] is at most max(PANEL_RATIO |lo - s|, floor) wide, within
    # one ulp of its edges, and a segment's last panel also by the slack
    # 1e-16 scale the march stops short of the segment's end
    bp, singular = case
    pts, counts = refine_breakpoints(bp, singular)
    lo, hi = pts[:-1], pts[1:]
    scale = max(abs(bp[0]), abs(bp[-1]), 1.0)
    distance = np.min([np.abs(lo - s) for s in singular], axis=0)
    bound = np.maximum(PANEL_RATIO * distance, quadrature.WIDTH_FLOOR * scale)
    slack = np.zeros(len(lo))
    slack[np.cumsum(counts) - 1] = 1e-16 * scale
    ulp = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    assert np.all(hi - lo <= bound + slack + ulp)


def test_width_towards_a_right_singular_point():
    # the bound is PANEL_RATIO of the left edge's distance, so up to
    # PANEL_RATIO / (1 - PANEL_RATIO) of the panel's own distance from a
    # singular point on its right (away from the floor-width panels next to it)
    pts, _ = refine_breakpoints(np.array([0.5, 1.0]), (1.0,))
    lo, hi = pts[:-1], pts[1:]
    clear = 1.0 - hi > 1e-9
    own = (hi - lo)[clear] / (1.0 - hi[clear])
    assert own.max() == pytest.approx(PANEL_RATIO / (1.0 - PANEL_RATIO), rel=1e-6)


def _rule_counts(rules):
    return [(rule.nodes.size, "all" if isinstance(panels, slice) else int(panels.sum()))
            for rule, panels in rules]


def test_panel_rules_by_each_panels_own_ratio():
    # 600 panels of width 0.01 on [1, 7]; a panel takes 8 points from 0.5
    # away from every singular point on, 4 from 10 away, whatever the others take
    points = np.linspace(1.0, 7.0, 601)
    assert _rule_counts(panel_rules(points[:512], (-100.0,))) == [(16, "all")]  # 511 panels
    assert _rule_counts(panel_rules(points, (-100.0,))) == [(4, "all")]
    assert _rule_counts(panel_rules(points, (0.0,))) == [(8, "all")]
    # 10 away from -5.005 from the panel at 5.0 on
    assert _rule_counts(panel_rules(points, (-5.005,))) == [(4, 200), (8, 400)]
    # 0.5 away from 3.005 up to the panel ending at 2.5 and from 3.51 on
    assert _rule_counts(panel_rules(points, (0.0, 3.005))) == [(8, 499), (16, 101)]
    # a root of its own inside each panel
    assert _rule_counts(panel_rules(points, (0.0,), points[:-1] + 0.005)) == [(16, "all")]


def test_segment_integrals_sum_to_total():
    bp = np.array([0.1, 0.3, 0.55, 0.9, 1.0])
    f = lambda x: np.cos(x) ** 2
    seg = segment_integrals(f, bp, ())
    assert len(seg) == 4
    assert_allclose(seg.sum(), integrate(f, 0.1, 1.0, ()), rtol=1e-13)


@pytest.mark.parametrize("call", [
    lambda: refine_breakpoints([math.nan, 1.0], ()),
    lambda: refine_breakpoints(np.linspace(0.0, 1.0, 20).tolist() + [math.inf], ()),
    lambda: integrate(np.exp, -math.inf, 1.0, ()),
    lambda: integrate(np.exp, 0.0, math.nan, ()),
    lambda: segment_integrals(np.exp, [0.0, math.nan, 1.0], ()),
    lambda: refine_breakpoints(np.linspace(0.0, 1.0, 20), singular=(math.nan,)),
    lambda: integrate(np.exp, 0.0, 1.0, singular=(0.0, math.inf)),
], ids=["refine", "refine-lockstep", "integrate", "integrate-nan", "segment-integrals",
        "singular-lockstep", "singular-integrate"])
def test_non_finite_breakpoint_raises(call):
    # a non-finite edge never reaches its stop: the panel march used to run
    # until memory ran out
    with pytest.raises(DomainError, match="finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: refine_breakpoints([0.0, 1.0, 0.5], ()),
    lambda: refine_breakpoints([0.0, 1.0, 0.5], (0.0,)),
    # this returned [1, -0.5]
    lambda: segment_integrals(np.ones_like, [0.0, 1.0, 0.5], ()),
    lambda: refine_breakpoints(np.linspace(0.0, 1.0, 20).tolist() + [0.5], ()),
], ids=["refine", "refine-singular", "segment-integrals", "refine-lockstep"])
def test_decreasing_breakpoint_raises(call):
    with pytest.raises(DomainError, match="must not decrease"):
        call()


def test_zero_width_segment_legal():
    pts, counts = refine_breakpoints([0.0, 1.0, 1.0, 2.0], singular=(0.0,))
    assert counts[1] == 1 and np.all(np.diff(pts) >= 0.0)
    assert_allclose(segment_integrals(np.ones_like, [0.0, 1.0, 1.0, 2.0], ()), [1.0, 0.0, 1.0])


def test_panel_nodes_increasing():
    # node-major: x[j, i] is node j of panel i, so panel by panel the nodes
    # run along x.T, and they are the bits of mid + half * xi; the node
    # weights are half[i] * rule.weights
    pts, _ = refine_breakpoints(np.array([1e-10, 0.5, 1.0]), singular=(0.0,))
    half, mid = 0.5 * (pts[1:] - pts[:-1]), 0.5 * (pts[:-1] + pts[1:])
    for rule in (GL4, GL8, GL16):
        x, widths = panel_nodes(pts, rule)
        assert x.shape == (rule.nodes.size, len(pts) - 1)
        assert np.all(np.diff(x.T.ravel()) > 0.0)
        expected = [[(m + h * xi).hex() for m, h in zip(mid.tolist(), half.tolist())]
                    for xi in rule.nodes.tolist()]
        assert [[v.hex() for v in row] for row in x.tolist()] == expected
        assert np.array_equal(widths, half)
        w = np.multiply.outer(rule.weights, widths)
        assert np.all(w > 0.0)
        assert_allclose(w.sum(), 1.0 - 1e-10, rtol=1e-14)


@pytest.mark.parametrize("degree", range(16))
def test_tail_matrix_exact_on_polynomials(degree):
    # GL16.tail @ xi**m integrates xi**m from each node to 1
    exact = (1.0 - GL16.nodes ** (degree + 1)) / (degree + 1)
    assert_allclose(GL16.tail @ GL16.nodes**degree, exact, rtol=0, atol=1e-14)


@pytest.mark.parametrize("degree", range(8))
def test_tail_matrix8_exact_on_polynomials(degree):
    # GL8.tail @ xi**m integrates xi**m from each node to 1
    exact = (1.0 - GL8.nodes ** (degree + 1)) / (degree + 1)
    assert_allclose(GL8.tail @ GL8.nodes**degree, exact, rtol=0, atol=1e-14)


@pytest.mark.parametrize("degree", range(4))
def test_tail_matrix4_exact_on_polynomials(degree):
    # GL4.tail @ xi**m integrates xi**m from each node to 1
    exact = (1.0 - GL4.nodes ** (degree + 1)) / (degree + 1)
    assert_allclose(GL4.tail @ GL4.nodes**degree, exact, rtol=0, atol=1e-14)


def test_node_tail_integrals_vs_closed_form():
    # integral_x^1 t**-2 dt = 1/x - 1, towards a singular point at 0
    pts, _ = refine_breakpoints(np.array([1e-6, 0.3, 1.0]), singular=(0.0,))
    x, half = panel_nodes(pts)
    (at_nodes,), at_edges = node_tail_integrals(pts, [(GL16, slice(None), x, half, x**-2.0)])
    assert_allclose(at_nodes, (1.0 - x) / x, rtol=1e-13)
    assert_allclose(at_edges, (1.0 - pts) / pts, rtol=1e-13, atol=1e-15)
    assert at_edges[-1] == 0.0


def _reference_refine(breakpoints, singular, rel=PANEL_RATIO):
    """The panel layout one segment and one panel at a time."""
    breakpoints = np.asarray(breakpoints, dtype=float)
    out = [breakpoints[0]]
    counts = np.empty(len(breakpoints) - 1, dtype=np.intp)
    scale = max(abs(breakpoints[0]), abs(breakpoints[-1]), 1.0)
    for i, (lo, hi) in enumerate(zip(breakpoints[:-1], breakpoints[1:])):
        cur = lo
        k = 0
        while True:
            width = hi - lo
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


def _assert_same_as_reference(breakpoints, singular, rel=PANEL_RATIO):
    """``rel`` must be the ``PANEL_RATIO`` that ``refine_breakpoints`` sees."""
    pts, counts = refine_breakpoints(breakpoints, singular)
    ref_pts, ref_counts = _reference_refine(breakpoints, singular, rel)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(counts, ref_counts)
    assert counts.dtype == ref_counts.dtype


@pytest.mark.parametrize("draw", [1, 3, 8])
@pytest.mark.parametrize("rel", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("segments", [1, LOCKSTEP_MIN - 1, LOCKSTEP_MIN,
                                      LOCKSTEP_MIN + 1, 4097])
def test_refine_bit_identical_to_one_segment_at_a_time(segments, rel, draw, monkeypatch):
    # three seeded draws of breakpoints on both sides of 0, a quarter of the
    # segments zero-width, singular points inside segments and one that
    # starts a segment
    rng = np.random.default_rng([segments, draw, int(10 * rel)])
    bp = np.sort(rng.uniform(-2.0, 4.0, segments + 1))
    for i in rng.choice(segments, segments // 4, replace=False):
        bp[i + 1] = bp[i]
    singular = (0.0, math.pi, float(bp[segments // 2]))
    monkeypatch.setattr(quadrature, "PANEL_RATIO", rel)
    _assert_same_as_reference(bp, singular, rel)
    _assert_same_as_reference(bp, (), rel)


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
def test_two_segments_same_as_two_calls(a):
    # refine_breakpoints batching: two adjacent segments refined in one call
    # give the edges of two separate calls, as long as the outer
    # breakpoints set the same scale (for a > 1 the first segment then gets
    # the second's larger scale)
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


def test_pinned_layouts_from_one_builder(monkeypatch):
    # integrate (so tail_integral and the golden-section T) and A_k_B_k
    # take their panel edges from _eight_panels, at least eight panels
    built, real = [], quadrature._eight_panels

    def builder(lo, hi, singular):
        built.append(real(lo, hi, singular))
        return built[-1]

    monkeypatch.setattr(quadrature, "_eight_panels", builder)
    monkeypatch.setattr(hardy1d, "_eight_panels", builder)
    # integrate sums panel-major nodes of its own: the bits of the
    # panel_nodes nodes on those edges, transposed
    seen = []
    integrate(lambda x: seen.append(x) or np.ones_like(x), 0.25, 1.0, (0.0, math.pi))
    (pts,) = built
    assert (pts[0], pts[-1]) == (0.25, 1.0) and len(pts) > 8
    assert np.array_equal(seen[0], panel_nodes(pts)[0].T)
    w = make_sine_weight(3, 2.0, math.pi / 2)
    built.clear()
    with mock.patch.object(hardy1d, "panel_nodes", wraps=hardy1d.panel_nodes) as spy:
        hardy1d.A_k_B_k(w, 64)
    pts = spy.call_args_list[0][0][0]
    assert pts is built[0]
    assert (pts[0], pts[-1]) == (1.0 / 64, w.a * (1.0 - ENDPOINT_GUARD)) and len(pts) > 8


@pytest.mark.parametrize("lo,hi,singular", [
    (math.nan, 1.0, ()),
    (0.1, math.inf, ()),
    (0.1, 1.0, (0.0, math.nan)),
], ids=["nan-end", "inf-end", "nan-singular"])
def test_integrate_refuses_before_the_march(lo, hi, singular, monkeypatch):
    # the march would never reach the stop of a NaN end
    def march(*args):
        raise AssertionError(f"the march was reached with {args}")

    monkeypatch.setattr(quadrature, "_march", march)
    with pytest.raises(DomainError, match="finite"):
        integrate(np.exp, lo, hi, singular)


def _builtin_march(cur, base, hi, stop, singular, floor):
    """The panel march written with the builtins ``min``, ``max`` and ``abs``."""
    edges = []
    while True:
        width = base
        for s in singular:
            width = min(width, PANEL_RATIO * abs(cur - s))
        nxt = cur + max(width, floor)
        if nxt >= stop:
            edges.append(hi)
            return edges
        edges.append(nxt)
        cur = nxt


@given(st.floats(-4.0, 4.0), st.floats(1e-9, 8.0), st.floats(1.0 / 64, 1.0),
       st.sampled_from([1e-15, 1e-9, 1e-4, 1e-2]), st.sampled_from([0.0, 1e-16, 1e-12]),
       st.sampled_from([(), (0.0,), (0.0, math.pi)]))
@example(-1.0, 2.0, 1.0, 1e-4, 1e-16, (0.0,))  # floor-set steps on both sides of 0
@example(0.0, math.pi, 1.0 / 8, 1e-15, 1e-16, (0.0, math.pi))  # singular at both ends
@example(3.0, 0.5, 1.0, 1e-2, 0.0, (0.0, math.pi))  # across pi, floor-set near it
@settings(max_examples=300, deadline=None)
def test_march_same_as_builtin_loop(cur, length, share, floor, slack, singular):
    # _march compares where the loop above calls min, max and abs; the
    # edges, and so every pinned layout, must be the same bits
    hi = cur + length
    scale = max(abs(cur), abs(hi), 1.0)
    args = (cur, share * length, hi, hi - slack * scale, singular, floor * scale)
    edges = quadrature._march(*args)
    assert [x.hex() for x in edges] == [x.hex() for x in _builtin_march(*args)]


def _segment_integrals_16(f, breakpoints, singular):
    """``segment_integrals`` with 16 Gauss points on the same panels."""
    pts, counts = refine_breakpoints(breakpoints, singular)
    x, half = panel_nodes(pts, GL16)
    return np.add.reduceat(half * (GL16.weights @ f(x)), np.cumsum(counts) - counts)


def _assert_same_with_16_points(call, rtol):
    """``call()`` agrees to ``rtol`` with the rules of ``panel_rules`` and
    with 16 Gauss points on every panel of ``tail_integrals`` and
    ``hardy_quotient``, or raises the same error both ways (where the
    weight overflows)."""
    try:
        eight = call()
    except HardyError as err:
        eight = err
    sweep = hardy1d._sweep
    with mock.patch.object(eta_module, "segment_integrals", _segment_integrals_16), \
            mock.patch.object(hardy1d, "_sweep", lambda w, pts, rules: sweep(w, pts, ALL_GL16)):
        if isinstance(eight, HardyError):
            with pytest.raises(type(eight)):
                call()
            return
        sixteen = call()
    assert_allclose(eight, sixteen, rtol=rtol, atol=0)


@st.composite
def _weights(draw):
    """Weights with growth e = delta/(p-1) up to 100: power weights, and
    sine weights with n up to 60 and a up to pi - 1e-6."""
    if draw(st.booleans()):
        p, e = draw(st.floats(1.1, 4.0)), draw(st.floats(0.01, 100.0))
        return make_power_weight(p, e * (p - 1.0), draw(st.floats(0.5, 4.0)))
    n = draw(st.integers(2, 60))
    return make_sine_weight(n, draw(st.floats(max(1.1, (n + 100.0) / 101.0), n - 0.1)),
                            draw(st.floats(0.5, math.pi - 1e-6)))


@given(_weights(), st.integers(0, 2**32 - 1))
@example(make_power_weight(2.5, 0.5, 1.0), 0)
@example(make_power_weight(1.5, 50.0, 1.0), 0)  # e = 100
@example(make_sine_weight(6, 1.5, 3.0), 0)
@example(make_sine_weight(3, 2.0, math.pi - 1e-6), 0)
@example(make_power_weight(4.0, 102.0, 1.0), 0)  # phi(1e-3) = 1e-315
@settings(max_examples=40, deadline=None)
def test_eight_points_agree_with_sixteen(w, seed):
    # the one-panel-per-segment layouts take 4 or 8 Gauss points on their
    # narrow panels, which is the 16-point rule to rounding.  Next to pi
    # both lose up to ulp(pi)/(pi - a) to the rounding of their nodes (the
    # tail_integral docstring), each at its own nodes: at a = pi - 1e-6,
    # 2.4e-11 against cot t - cot a, and 5.9e-13 apart
    rtol = 1e-13 + (math.ulp(math.pi) / (math.pi - w.a) if w.kind == SINE else 0.0)
    # where phi is subnormal its rounding sets the error of both rules
    # (power (4, 262, 1) at 1/16: 8.7e-7 off the closed form), so a tail
    # integral from there raises
    if float(w.phi(1e-3 * w.a)) < np.finfo(float).tiny:
        with pytest.raises(NumericalError, match=re.escape(f"t={1e-3 * w.a!r}:")):
            tail_integrals(w, [1e-3 * w.a])
        return
    try:
        prof = find_truncation_point(w)
    except HardyError:
        prof = None  # the bracket grid overflows: no truncated quotients
    rng = np.random.default_rng(seed)
    points = np.sort(rng.uniform(1e-3, 0.999, 5)) * w.a
    _assert_same_with_16_points(lambda: tail_integrals(w, points), rtol)
    nodes = np.append(np.sort(rng.uniform(0.0, w.a, 4)), w.a)
    values = np.append(rng.uniform(-1.0, 1.0, 4), 0.0)
    hat = hardy1d.GridFunction([0.0, 0.5 * w.a, w.a], [0.0, 1.0, 0.0])  # the CLI's
    grids = [(hardy1d.GridFunction(nodes, values), False, rtol), (hat, False, rtol)]
    if prof is not None:
        grids.append((hat, True, rtol))
    with contextlib.suppress(HardyError):
        u = hardy1d.extremal_U_k(w, 16)
        _assert_same_with_16_points(lambda: tail_integrals(w, u.nodes[:-1]), rtol)
        # the nodes within 1e-6 a of a round differently under the two
        # rules: 4e-13 apart at most over 1200 drawn weights
        grids.append((u, False, rtol + 1e-12))
    if prof is not None:
        with contextlib.suppress(HardyError):
            grids.append((hardy1d.extremal_V_k(w, prof, 256), True, rtol))
    for u, truncated, tol in grids:
        _assert_same_with_16_points(
            lambda: _parts(hardy1d.hardy_quotient(w, prof, u, truncated)), tol)


def test_four_points_agree_with_sixteen_on_a_steep_weight():
    # growth e = 100 and u = 1 + t on a grid graded like 1.0005**j: 575 of
    # the quotient's panels are at most GL4_RATIO of their distance from 0,
    # a and the roots of u, and take 4 points
    w = make_power_weight(1.5, 50.0, 1.0)
    nodes = 0.5 * (1.0 + 5e-4) ** np.arange(941)
    assert nodes[-1] <= 0.8 < nodes[-1] * (1.0 + 5e-4)
    u = hardy1d.GridFunction(np.append(nodes, w.a), np.append(1.0 + nodes, 0.0))
    taken, real = {}, hardy1d.panel_rules

    def recording(points, *args):
        rules = real(points, *args)
        taken.update((rule.nodes.size, np.ones(len(points) - 1, bool)[panels].sum())
                     for rule, panels in rules)
        return rules

    with mock.patch.object(hardy1d, "panel_rules", recording):
        hardy1d.hardy_quotient(w, None, u)
    assert taken[4] == 575
    _assert_same_with_16_points(lambda: _parts(hardy1d.hardy_quotient(w, None, u)), 1e-13)


def test_steep_linear_piece_takes_16_points():
    # |u|**32 peaks at the one node where u is 1, not 0.1; the linear pieces
    # on both sides vanish 1/9 of a cell past their ends.  With 8 points on
    # those two cells, which are narrow for 0, pi and a, the denominator
    # was off by 5.1e-4
    w = make_sine_weight(42, 32.2188936043928, 1.4966273553222451)
    values = np.full(1001, 0.1)
    values[500] = 1.0
    u = hardy1d.GridFunction(np.append(np.linspace(0.2, 1.3, 1001), w.a), np.append(values, 0.0))
    _assert_same_with_16_points(lambda: _parts(hardy1d.hardy_quotient(w, None, u)), 1e-13)


def _parts(rep):
    return rep.numerator, rep.denominator
