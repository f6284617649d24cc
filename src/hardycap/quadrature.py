"""Panel-based Gauss-Legendre quadrature with geometric endpoint refinement.

All integrands in this package are smooth away from a known, short list of
singular abscissae (t = 0 for power weights, t = 0 and t = pi for sine
weights, t = a for the tail-integral reciprocal).  Splitting the range into
panels whose width shrinks geometrically towards those points keeps a fixed
16-point Gauss rule at machine accuracy, and the whole computation stays
vectorised in numpy.

The panel edges of a segment are the same bits whether it is refined
alone or together with any number of others, given the same scale (the
floor on a panel width and the stopping slack grow with the outermost
breakpoints).  Two layouts are pinned bit for bit, with at least
``coarse = 8`` panels per segment:

* ``integrate`` (and so ``eta.tail_integral``): the golden-section
  truncation point T is built from its one-segment integrals and moves by
  up to 1.6e-8 under one-ulp changes in them;
* ``hardy1d.A_k_B_k``: its panels next to the endpoint guard carry a
  node-rounding artefact in B_k that perfbench/reference.json pins to 1e-9.

``segment_integrals`` and the Hardy quotient take one panel per segment
(``coarse = 1``), split further only towards the singular points; the
quotient's segments are its grid cells, whose integrands are smooth.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError

GL_NODES, GL_WEIGHTS = legendre.leggauss(16)


def _tail_matrix(nodes, weights):
    """``S[j, k] = integral_{nodes[j]}^1 of l_k``, with ``l_k`` the Lagrange
    basis on the Gauss nodes.

    By the discrete orthogonality of the Gauss rule, ``l_k`` has Legendre
    coefficients ``(m + 1/2) * weights[k] * P_m(nodes[k])``.
    """
    deg = len(nodes)
    coef = (np.arange(deg) + 0.5)[:, None] * legendre.legvander(nodes, deg - 1).T * weights
    return -legendre.legval(nodes, legendre.legint(coef, lbnd=1.0)).T


#: GL_TAIL @ g integrates the interpolant of g from each node to 1
GL_TAIL = _tail_matrix(GL_NODES, GL_WEIGHTS)

#: panel width relative to the distance from the nearest singular point
PANEL_RATIO = 0.2
#: fewest unfinished segments refined in lockstep; on a handful of
#: segments a numpy step costs more than the Python steps it replaces
LOCKSTEP_MIN = 8


def _march(cur, base, hi, stop, singular, floor):
    """Panel edges of one segment after ``cur``, one panel at a time."""
    edges = []
    while True:
        width = base
        for s in singular:
            width = min(width, PANEL_RATIO * abs(cur - s))
        nxt = cur + max(width, floor)  # progress even at a singular point
        if nxt >= stop:
            edges.append(hi)
            return edges
        edges.append(nxt)
        cur = nxt


def refine_breakpoints(breakpoints, singular=(), coarse=8):
    """Subdivide a sorted breakpoint array into quadrature panels.

    Each returned panel has width at most ``PANEL_RATIO`` times its
    distance to every point in ``singular`` and at most ``1/coarse`` of the
    segment it came from.  Returns ``(points, counts)`` where ``counts[i]``
    is the number of panels the i-th input segment was split into.
    Raises ``DomainError`` on a breakpoint or singular point that is not
    finite.

    Every unfinished segment advances one panel per numpy step, and the
    last ``LOCKSTEP_MIN - 1`` or fewer are finished one panel at a time in
    Python, with the same floating-point operations.  So the edges of a
    segment do not depend on how many segments are refined together: they
    are the same bits as from the one-segment loop with the same ``scale``
    (see the module docstring for why that matters).
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    # a NaN or infinite edge, or a NaN panel width, would never reach its stop
    if not (np.isfinite(breakpoints).all() and all(map(math.isfinite, singular))):
        bad = next(x for x in (*breakpoints.tolist(), *singular) if not math.isfinite(x))
        raise DomainError(f"breakpoints and singular points must be finite, got {float(bad)!r}")
    lo, hi = breakpoints[:-1], breakpoints[1:]
    scale = float(max(abs(breakpoints[0]), abs(breakpoints[-1]), 1.0))
    floor = 1e-15 * scale
    base = (hi - lo) / coarse
    stop = hi - 1e-16 * scale

    counts = np.empty(len(lo), dtype=np.intp)
    seg, cur = np.arange(len(lo)), lo
    steps = []  # (segments, edge each emitted) per lockstep step
    while len(seg) >= LOCKSTEP_MIN:
        width = base[seg]
        for s in singular:
            width = np.minimum(width, PANEL_RATIO * np.abs(cur - s))
        nxt = cur + np.maximum(width, floor)
        done = nxt >= stop[seg]
        steps.append((seg, np.where(done, hi[seg], nxt)))
        counts[seg[done]] = len(steps)
        going = ~done
        seg, cur = seg[going], nxt[going]
    rest = [
        _march(c, b, h, t, singular, floor)
        for c, b, h, t in zip(cur.tolist(), base[seg].tolist(),
                              hi[seg].tolist(), stop[seg].tolist())
    ]

    counts[seg] = len(steps) + np.array([len(edges) for edges in rest], dtype=np.intp)
    first = np.cumsum(counts) - counts + 1  # where each segment's edges start
    out = np.empty(1 + counts.sum())
    out[0] = breakpoints[0]
    for j, (idx, edges) in enumerate(steps):
        out[first[idx] + j] = edges
    for i, edges in zip((first[seg] + len(steps)).tolist(), rest):
        out[i:i + len(edges)] = edges
    return out, counts


def panel_nodes(points):
    """Gauss-Legendre nodes and weights for consecutive panels.

    ``points`` is a sorted 1-D array of panel edges; the returned node
    array is globally increasing.
    """
    mid = 0.5 * (points[:-1] + points[1:])
    half = 0.5 * np.diff(points)
    x = mid[:, None] + half[:, None] * GL_NODES
    w = half[:, None] * GL_WEIGHTS
    return x, w


def integrate(f, lo, hi, singular=()):
    """Integrate a vectorised callable over [lo, hi]."""
    if hi <= lo:
        return 0.0
    pts, _ = refine_breakpoints(np.array([lo, hi]), singular, coarse=8)
    x, w = panel_nodes(pts)
    return float(np.sum(f(x) * w))


def segment_integrals(f, breakpoints, singular=()):
    """Integral of ``f`` over each consecutive segment of ``breakpoints``."""
    pts, counts = refine_breakpoints(breakpoints, singular, coarse=1)
    x, w = panel_nodes(pts)
    per_panel = np.sum(f(x) * w, axis=1)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.add.reduceat(per_panel, starts)


def node_tail_integrals(points, x, g):
    """Integral of ``f`` from every quadrature node to ``points[-1]``.

    ``x`` and ``g`` are the ``panel_nodes(points)`` nodes and the values of
    ``f`` at them.  No further evaluation of ``f`` is made: the integral
    from a node to its panel's end interpolates ``f`` on that panel, and
    the later panels are suffix-summed.  Returns ``(at_nodes, at_edges)``,
    the integral from each node (shaped like ``x``) and from each panel
    edge (one more entry than panels).
    """
    half = 0.5 * np.diff(points)
    right = points[1:, None]
    # the stored node is rounded; integrate from it, not from the exact
    # node mid + half*xi, which matters where the panel end is close to x
    within = half[:, None] * (g @ GL_TAIL.T)
    within += g * ((right - x) - half[:, None] * (1.0 - GL_NODES))
    at_edges = np.append(np.cumsum((half * (g @ GL_WEIGHTS))[::-1])[::-1], 0.0)
    return within + at_edges[1:, None], at_edges
