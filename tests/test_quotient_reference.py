"""The Hardy quotient's in-place, node-major arithmetic against an
out-of-place, panel-major reference, and the arrays the quotient's layers
must never write.

``hardy_quotient`` holds its nodes as (points, panels) arrays, runs its
denominator chain in one scratch array and takes per-panel sums as
``rule.weights @ values``; ``_reference_quotient`` below builds its own
(panels, points) nodes, the same bits transposed, and keeps the
out-of-place arithmetic the quotient replaced (a new array per numpy
operation, one ``np.sum`` over node values times node weights) on the same
panels.  The two sum in different orders, so they agree to rounding, not
bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from hardycap import quadrature
from hardycap.errors import HardyError
from hardycap.eta import eta_many, find_truncation_point, tail_integral, tail_integrals
from hardycap.hardy1d import (GridFunction, _quotient_edges, _singular, extremal_U_k,
                              extremal_V_k, hardy_quotient)
from hardycap.quadrature import GL16, panel_nodes, panel_rules, segment_integrals
from hardycap.weights import make_power_weight, make_sine_weight

#: agreement of the in-place quotient with the reference, relative
RTOL = 1e-13


def _row_nodes(points, rule, panels):
    """``panel_nodes`` panel-major: ``x[i, j]`` is node j of panel i."""
    lo, hi = points[:-1][panels], points[1:][panels]
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi)[:, None] + half[:, None] * rule.nodes, half[:, None] * rule.weights


def _reference_node_tails(points, parts):
    """``quadrature.node_tail_integrals`` panel-major, with a new array per
    operation."""
    half = 0.5 * np.diff(points)
    per_panel = np.empty(len(half))
    for rule, panels, _, g in parts:
        per_panel[panels] = half[panels] * (g @ rule.weights)
    at_edges = np.append(np.cumsum(per_panel[::-1])[::-1], 0.0)
    at_nodes = []
    for rule, panels, x, g in parts:
        h = half[panels, None]
        within = h * (g @ rule.tail.T)
        within = within + g * ((points[1:][panels, None] - x) - h * (1.0 - rule.nodes))
        at_nodes.append(within + at_edges[1:][panels, None])
    return at_nodes, at_edges


def _reference_quotient(w, prof, u, truncated):
    """``(numerator, denominator)`` of ``hardy_quotient`` on its own panels,
    each integrand a product of new arrays summed against the node weights
    of ``_row_nodes``, and the point counts of the Gauss rules taken."""
    nodes, values = u.nodes, u.values
    p = w.p
    pts = _quotient_edges(w, u, prof.T if truncated else None)
    cell = np.searchsorted(nodes, 0.5 * (pts[:-1] + pts[1:]))
    slopes = np.concatenate(([0.0], np.diff(values) / np.diff(nodes)))
    roots = nodes[:-1] - np.divide(values[:-1], slopes[1:],
                                   out=np.full(len(nodes) - 1, np.inf), where=slopes[1:] != 0.0)
    parts = []
    for rule, panels in panel_rules(pts, _singular(w), roots[cell - 1]):
        x, wts = _row_nodes(pts, rule, panels)
        phi = w.phi(x)
        parts.append((rule, panels, x, wts, phi, phi ** (-1.0 / (p - 1.0))))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        at_nodes, at_edges = _reference_node_tails(
            pts, [(rule, panels, x, inv_phi) for rule, panels, x, _, _, inv_phi in parts])
        beyond = tail_integral(w, pts[-1])
        numerator = denominator = 0.0
        for (_, panels, x, wts, phi, inv_phi), tails in zip(parts, at_nodes):
            eta = inv_phi / (tails + beyond)
            if truncated:
                eta = np.where(x > prof.T, prof.eta_at_T, eta)
            denominator += float(np.sum((np.abs(u(x)) * eta) ** p * phi * wts))
            numerator += float(np.sum(np.abs(slopes[cell[panels], None]) ** p * phi * wts))
        denominator += abs(values[0]) ** p * (at_edges[0] + beyond) ** (1.0 - p) / (p - 1.0)
    return numerator, denominator, {rule.nodes.size for rule, *_ in parts}


def _assert_matches_reference(w, prof, u, truncated):
    rep = hardy_quotient(w, prof, u, truncated)
    numerator, denominator, rules = _reference_quotient(w, prof, u, truncated)
    assert rep.numerator == pytest.approx(numerator, rel=RTOL, abs=0.0)
    assert rep.denominator == pytest.approx(denominator, rel=RTOL, abs=0.0)
    return rules


@st.composite
def _weights(draw):
    """Power weights with growth e = delta/(p-1) up to 20 and sine weights
    with n up to 12."""
    if draw(st.booleans()):
        p, e = draw(st.floats(1.1, 4.0)), draw(st.floats(0.05, 20.0))
        return make_power_weight(p, e * (p - 1.0), draw(st.floats(0.3, 4.0)))
    n = draw(st.integers(2, 12))
    return make_sine_weight(n, draw(st.floats(max(1.1, (n + 20.0) / 21.0), n - 0.1)),
                            draw(st.floats(0.3, math.pi - 1e-3)))


@st.composite
def _grids(draw, a):
    """Grid functions on [t0, a]: smooth, changing sign in cells, or with
    zero nodes between nonzero ones.  800 cells give both Gauss rules."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([3, 30, 800]))
    start = draw(st.sampled_from([0.0, 0.05 * a]))
    nodes = np.unique(np.append(start + (a - start) * rng.uniform(0.0, 0.999, size), a))
    shape = draw(st.sampled_from(["smooth", "signs", "zeros"]))
    if shape == "smooth":
        values = (a - nodes) * (1.0 + nodes)
    else:
        values = rng.uniform(-1.0, 1.0, len(nodes))
        if shape == "zeros":
            values[rng.uniform(size=len(nodes)) < 0.3] = 0.0
        values[-1] = 0.0
    assume(np.any(values != 0.0))
    return GridFunction(nodes, values)


@given(_weights(), st.data(), st.booleans())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_quotient_matches_out_of_place_reference(w, data, truncated):
    u = data.draw(_grids(w.a), label="u")
    try:
        prof = find_truncation_point(w) if truncated else None
        hardy_quotient(w, prof, u, truncated)
    except HardyError:
        assume(False)  # the weight overflows: no quotient to compare
    _assert_matches_reference(w, prof, u, truncated)


@pytest.mark.parametrize("truncated", [False, True])
def test_both_rules_with_sign_changes_and_zero_nodes(truncated):
    # sign changes inside cells, and zero nodes next to nonzero ones; the
    # panels at most GL4_RATIO of their distance take 4 points, however few
    w = make_sine_weight(5, 2.5, 3 * math.pi / 4)
    nodes = np.append(np.linspace(0.0, 0.999 * w.a, 2000), w.a)
    values = np.cos(3.0 * nodes)
    values[[500, 501, 1000, 1500, -1]] = 0.0
    prof = find_truncation_point(w)
    assert _assert_matches_reference(w, prof, GridFunction(nodes, values), truncated) == {4, 8, 16}


#: the slots of the benchmark's sharpness pass: family, sequence, k
SLOTS = [("power", "U", 16), ("sine", "U", 64), ("sine", "V", 256),
         ("power", "V", 1024), ("sine", "V", 4096), ("power", "V", 16384)]


@pytest.mark.parametrize("kind,variant,k", SLOTS)
def test_sharpness_slots(kind, variant, k):
    w = make_power_weight(3.0, 0.5, 2.0) if kind == "power" else \
        make_sine_weight(5, 2.5, 3 * math.pi / 4)
    prof = find_truncation_point(w)
    u = extremal_U_k(w, k) if variant == "U" else extremal_V_k(w, prof, k)
    assert _assert_matches_reference(w, prof, u, variant == "V") == {4, 8, 16}


def _read_only(*arrays):
    """Copies of ``arrays`` that raise on any write."""
    out = []
    for a in arrays:
        a = np.array(a, dtype=float)
        a.flags.writeable = False
        out.append(a)
    return out


@pytest.mark.parametrize("w", [make_power_weight(2.0, 1.0, 1.0),
                               make_sine_weight(3, 2.0, math.pi / 2)], ids=["power", "sine"])
def test_inputs_stay_unchanged(w):
    # every argument array is read-only, so any write into one raises; the
    # power family's base(t) is t itself, so a power taken in place in phi
    # would write the caller's array
    t, points = _read_only(np.linspace(0.1, 0.9, 7) * w.a, np.linspace(0.05, 1.0, 9) * w.a)
    for f in (w.phi, w.inv_phi_pow):
        assert_array_equal(f(t), f(t.copy()))
        assert f(t[2]) == f(float(t[2]))
    x, half = panel_nodes(points, GL16)
    x, half, g = _read_only(x, half, w.inv_phi_pow(x))
    quadrature.node_tail_integrals(points, [(GL16, slice(None), x, half, g)])
    segment_integrals(w.inv_phi_pow, points, w.singular_points)
    tail_integrals(w, t)
    eta_many(w, t[::-1])
    prof = find_truncation_point(w)
    nodes, values = _read_only(np.append(np.linspace(0.0, 0.99, 600) * w.a, w.a),
                               np.append(np.cos(np.linspace(0.0, 9.0, 600)), 0.0))
    u = GridFunction(nodes, values)
    assert u.nodes is nodes and u.values is values  # no copy made on the way in
    for truncated in (False, True):
        hardy_quotient(w, prof, u, truncated)
