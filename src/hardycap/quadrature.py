"""Panel-based Gauss-Legendre quadrature with geometric endpoint refinement.

All integrands in this package are smooth away from a known, short list of
singular abscissae (t = 0 for power weights, t = 0 and t = pi for sine
weights, t = a for the tail-integral reciprocal).  Splitting the range into
panels whose width shrinks geometrically towards those points keeps a fixed
Gauss rule at machine accuracy, and the whole computation stays vectorised
in numpy.  The rules are ``GL16`` (16 points), ``GL8`` (8 points) and
``GL4`` (4 points).

``refine_breakpoints`` lays out one panel per segment, split further only
towards the singular points.  The edges of a segment are the same bits
whether it is refined alone or with any number of others, given the same
scale (the width floor and the stopping slack grow with the outermost
breakpoints).  ``segment_integrals`` and the Hardy quotient take this
layout, the quotient's segments being its grid cells, whose integrands
are smooth.  A panel there takes 4 points where it is at most
``GL4_RATIO`` of its distance from every singular point, 8 where it is at
most ``GL8_RATIO`` of it, and 16 elsewhere, each by its own width ratio;
a layout of fewer than ``GL8_MIN`` panels takes 16 on all
(``panel_rules``).  At a width of ``r`` times that distance the rule's
error falls like ``(2 / r)**(-2 * points)``, so on those panels 4 and 8
points agree with 16 to rounding.  On a sharpness pass of the benchmark
(seed 7) the quotients' 30,512 panels take 4, 8 and 16 points on 51%,
45% and 5% of them, the tail integrals' 28,695 panels on 68%, 24% and 7%.
The half-space radial moment takes 16 points on every panel, refined
towards the roots of its radial factor.

``_eight_panels`` builds the one layout pinned bit for bit, at least eight
16-point panels on one segment, for ``_integrate`` (behind ``integrate``,
so ``eta.tail_integral``, and the golden-section ``eta._eta_at``, whose T
moves by up to 1.6e-8 under one-ulp changes in those integrals) and
``hardy1d.A_k_B_k`` (whose body panels next to the endpoint guard carry a
B_k node-rounding artefact that perfbench/reference.json pins to 1e-9).

Nodes are node-major: ``panel_nodes`` returns (points, panels) arrays,
``x[j, i]`` node j of panel i, so that a per-panel value (half-width,
midpoint, panel end, the tail from the panel's end) broadcasts as a row:
a (panels, 1) column against (panels, points) runs an inner loop of 4, 8
or 16 with iterator buffers, several times slower than a same-shape
operation on a quotient's 3,700 panels.  ``_integrate`` alone
builds its few nodes panel-major, (panels, 16), and sums
``(f(x) * w).sum()`` in that memory order: the golden-section T read from
it is pinned bit for bit, and a node-major sum adds in another order.

Arrays passed in (breakpoints, nodes, integrand values) are only read.
The one-panel-per-segment sweeps otherwise work in place on arrays they
made: ``panel_nodes`` adds the midpoints to ``xi * half`` in place (the
bits of ``mid + half * xi``) and returns the half-widths, not an array of
node weights; ``segment_integrals`` and ``node_tail_integrals`` take
per-panel sums as ``rule.weights @ values`` times those half-widths (the
latter takes them from its caller), and ``node_tail_integrals`` returns
new arrays that its caller may overwrite.
A quotient's arrays hold about 20,000 to 30,000 nodes (22,652 on a
truncated V_4096 of sine (3, 2, pi/2)), and each new one is about 180 to
240 KB of fresh pages that the kernel zero-fills on first touch.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError


class GaussRule(NamedTuple):
    """A Gauss-Legendre rule on [-1, 1] and its tail matrix: ``tail @ g``
    integrates the interpolant of ``g`` from each node to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    tail: np.ndarray


def _tail_matrix(nodes, weights):
    """``S[j, k] = integral_{nodes[j]}^1 of l_k``, with ``l_k`` the Lagrange
    basis on the Gauss nodes.

    By the discrete orthogonality of the Gauss rule, ``l_k`` has Legendre
    coefficients ``(m + 1/2) * weights[k] * P_m(nodes[k])``.
    """
    deg = len(nodes)
    coef = (np.arange(deg) + 0.5)[:, None] * legendre.legvander(nodes, deg - 1).T * weights
    return -legendre.legval(nodes, legendre.legint(coef, lbnd=1.0)).T


def _gauss_rule(size):
    nodes, weights = legendre.leggauss(size)
    return GaussRule(nodes, weights, _tail_matrix(nodes, weights))


#: the rule of the pinned eight-panel layout, and of the wide panels of
#: the one-panel-per-segment layouts
GL16 = _gauss_rule(16)
#: the rule of the narrow panels of the one-panel-per-segment layouts
GL8 = _gauss_rule(8)
#: the rule of their narrowest panels
GL4 = _gauss_rule(4)
#: the 16-point rule on every panel, as ``panel_rules`` pairs
ALL_GL16 = [(GL16, slice(None))]

#: panel width relative to its left edge's distance from the nearest
#: singular point
PANEL_RATIO = 0.2
#: the widest panel, relative to its distance from the nearest singular
#: point, that takes the 8-point rule in a one-panel-per-segment layout
GL8_RATIO = 0.02
#: the widest panel, relative to that distance, that takes the 4-point rule
GL4_RATIO = 1e-3
#: fewest panels of a layout that takes the 4- and 8-point rules: on the
#: few hundred panels of a hat quotient or of find_truncation_point's
#: bracket grid, choosing the rules and a second set of nodes cost about
#: what fewer points save
GL8_MIN = 512
#: narrowest panel, relative to the outermost breakpoint (or 1, if larger)
WIDTH_FLOOR = 1e-15
#: fewest unfinished segments refined in lockstep; on a handful of
#: segments a numpy step costs more than the Python steps it replaces
LOCKSTEP_MIN = 8


def _check_finite(values):
    """Raise ``DomainError`` at the first breakpoint or singular point that
    is not finite: a NaN or infinite edge, or a NaN panel width, would
    never reach its stop, and the march would run forever."""
    for x in values:
        if not math.isfinite(x):
            raise DomainError(f"breakpoints and singular points must be finite, got {x!r}")


def _march(cur, base, hi, stop, singular, floor):
    """Panel edges of one segment after ``cur``, one panel at a time.

    Each width is ``min(base, PANEL_RATIO * |cur - s|)`` over the singular
    points ``s``, then at least ``floor``, written as comparisons rather
    than calls of the builtins ``min``, ``max`` and ``abs``: the same IEEE
    operations, and a tie keeps the earlier value as ``min`` and ``max``
    do, so the edges are the same bits.
    """
    ratio = PANEL_RATIO
    edges = []
    append = edges.append
    while True:
        width = base
        for s in singular:
            d = ratio * (cur - s if cur >= s else s - cur)
            if d < width:
                width = d
        if width < floor:  # progress even at a singular point
            width = floor
        cur += width
        if cur >= stop:
            append(hi)
            return edges
        append(cur)


def refine_breakpoints(breakpoints, singular):
    """Subdivide a sorted breakpoint array into quadrature panels.

    Each returned panel [lo, hi] lies in one segment, and its width is at
    most ``max(PANEL_RATIO * |lo - s|, WIDTH_FLOOR * scale)`` for every
    point ``s`` in ``singular``, with ``scale`` the largest of 1 and the
    magnitudes of the outermost breakpoints, to within one ulp of its
    edges; a segment's last panel may exceed that by the stopping slack
    ``1e-16 * scale`` too.  The distance is the left edge's: towards a
    singular point on its right (a, pi), a panel is up to
    ``PANEL_RATIO / (1 - PANEL_RATIO)`` = 0.25 of its own distance.
    Returns ``(points, counts)`` where ``counts[i]`` is the number of
    panels the i-th input segment was split into.  Raises ``DomainError``
    on a breakpoint or singular point that is not finite.

    Every unfinished segment advances one panel per numpy step, and the
    last ``LOCKSTEP_MIN - 1`` or fewer are finished one panel at a time in
    Python, with the same floating-point operations.  So the edges of a
    segment do not depend on how many segments are refined together: they
    are the same bits as from the one-segment loop with the same ``scale``
    (see the module docstring for why that matters).
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    lo, hi = breakpoints[:-1], breakpoints[1:]
    span = hi - lo
    first, last = float(breakpoints[0]), float(breakpoints[-1])
    # non-decreasing breakpoints with finite ends are finite, and a NaN
    # fails span >= 0, so one reduction checks both
    if not ((span >= 0.0).all() and -math.inf < first and last < math.inf
            and all(map(math.isfinite, singular))):
        _check_finite((*breakpoints.tolist(), *singular))
        i = int(np.argmin(span >= 0.0))
        raise DomainError(
            f"breakpoints must not decrease, got {float(hi[i])!r} after {float(lo[i])!r}")
    scale = max(abs(first), abs(last), 1.0)
    floor = WIDTH_FLOOR * scale
    stop = hi - 1e-16 * scale

    counts = np.empty(len(lo), dtype=np.intp)
    seg, cur = np.arange(len(lo)), lo
    steps = []  # (segments, edge each emitted) per lockstep step
    while len(seg) >= LOCKSTEP_MIN:
        width = span[seg]
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
        for c, b, h, t in zip(cur.tolist(), span[seg].tolist(),
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


def _eight_panels(lo, hi, singular):
    """Edges of the pinned layout of [lo, hi], finite float ends: panels at
    most an eighth of it wide, refined towards ``singular``."""
    scale = max(abs(lo), abs(hi), 1.0)
    return np.array([lo, *_march(lo, (hi - lo) / 8, hi, hi - 1e-16 * scale,
                                 singular, WIDTH_FLOOR * scale)])


def check_resolved(lo, hi, singular):
    """Raise ``DomainError`` where [lo, hi] comes closer to a singular point
    outside it than the panel-width floor.

    No panel is narrower than the floor, so there the first panel spans
    more than a factor of 2 in the distance to the point and the 16-point
    rule loses the integrand: an integral of t**-2 from floor/5 is off by
    3e-11, from floor/100 by 2.6e-2 (from 1e-20: 5.4e17 for 1e20).  From
    floor/2 on it is exact to rounding.  A NaN end passes on to
    ``refine_breakpoints`` or ``integrate``, which raise.
    """
    floor = WIDTH_FLOOR * max(abs(lo), abs(hi), 1.0)
    for s in singular:
        if (lo - s if s <= lo else s - hi) < floor:  # the distance from [lo, hi] to s
            raise DomainError(
                f"[{lo!r}, {hi!r}] comes within {floor:.3g} of the singular point "
                f"{s!r}, which its panels cannot resolve"
            )


def panel_rules(points, singular, roots=None):
    """The Gauss rule of each panel of a one-panel-per-segment layout, as
    ``(rule, panels)`` pairs, by the panel's width relative to its distance
    from every singular point and from its own entry of ``roots`` (one
    more singular point per panel, if given): ``GL4`` at most
    ``GL4_RATIO``, ``GL8`` at most ``GL8_RATIO`` and ``GL16`` on the
    others.  A layout of fewer than ``GL8_MIN`` panels takes ``GL16`` on
    all (``ALL_GL16``).  A rule that no panel takes is left out, and one
    that every panel takes covers ``slice(None)``.

    Panels are refined to ``PANEL_RATIO`` of their left edge's distance
    (``refine_breakpoints``), up to 0.25 of their own towards a singular
    point on their right, and on such a panel 8 points lose far more than
    16 where the integrand is steep: tail sums of ``t**-51`` are off by
    6e-8 against 6e-15, and a quotient with p = 32 peaked on cells whose
    linear pieces vanish close by is off by 5.1e-4
    (``tests/test_quadrature.py``).  At ``GL4_RATIO`` the
    rule's error falls like ``(2 / GL4_RATIO)**(-2 * points)``, so 4
    points are exact to rounding there.
    """
    if len(points) <= GL8_MIN:
        return ALL_GL16
    lo, hi = points[:-1], points[1:]
    distance = math.inf if roots is None else np.maximum(lo - roots, roots - hi)
    for s in singular:
        distance = np.minimum(distance, np.maximum(lo - s, s - hi))
    width = hi - lo
    narrow = width <= GL8_RATIO * distance
    narrowest = width <= GL4_RATIO * distance
    rules = []
    for rule, panels in ((GL4, narrowest), (GL8, narrow & ~narrowest), (GL16, ~narrow)):
        count = np.count_nonzero(panels)
        if count == len(panels):
            return [(rule, slice(None))]
        if count:
            rules.append((rule, panels))
    return rules


def panel_nodes(points, rule=GL16, panels=None):
    """Gauss-Legendre nodes of ``rule`` on the ``panels`` (all, by
    default) of consecutive panels, node-major, and the panels'
    half-widths: ``x[j, i]`` is node j of panel i, ``mid + half * xi``,
    and ``half[i] * rule.weights`` are its node weights, so that a sum
    over the panels is ``half @ (rule.weights @ g)``.

    ``points`` is a sorted 1-D array of panel edges; ``x.T.ravel()`` is
    globally increasing.
    """
    lo, hi = points[:-1], points[1:]
    if panels is not None:
        lo, hi = lo[panels], hi[panels]
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(rule.nodes, half)
    x += 0.5 * (lo + hi)  # the bits of mid + half * xi, in place
    return x, half


def integrate(f, lo, hi, singular):
    """Integrate a vectorised callable over [lo, hi] on the pinned layout
    of ``_eight_panels``, 16 points a panel.  Raises ``DomainError`` on an
    end or singular point that is not finite."""
    lo, hi = float(lo), float(hi)
    _check_finite((lo, hi, *singular))
    if hi <= lo:
        return 0.0
    return _integrate(f, lo, hi, singular)


def _integrate(f, lo, hi, singular):
    """``integrate`` without its checks: finite float ends with
    ``lo < hi`` and finite singular points (a NaN end would march forever)."""
    pts = _eight_panels(lo, hi, singular)
    # panel-major, unlike panel_nodes: T is pinned through this sum order
    half = 0.5 * (pts[1:] - pts[:-1])[:, None]
    x = half * GL16.nodes
    x += 0.5 * (pts[:-1] + pts[1:])[:, None]
    return float((f(x) * (half * GL16.weights)).sum())


def segment_integrals(f, breakpoints, singular):
    """Integral of ``f`` over each consecutive segment of ``breakpoints``:
    one panel per segment, split further towards ``singular``, each with
    its rule from ``panel_rules``."""
    pts, counts = refine_breakpoints(breakpoints, singular)
    per_panel = np.empty(len(pts) - 1)
    for rule, panels in panel_rules(pts, singular):
        x, half = panel_nodes(pts, rule, panels)
        per_panel[panels] = half * (rule.weights @ f(x))
    starts = np.cumsum(counts) - counts
    return np.add.reduceat(per_panel, starts)


def node_tail_integrals(points, parts):
    """Integral of ``f`` from every quadrature node to ``points[-1]``.

    ``parts`` holds a ``(rule, panels, x, h, g)`` for each rule of the
    panels (``panel_rules``, or ``ALL_GL16``): ``x`` and ``h`` are the
    ``panel_nodes(points, rule, panels)`` nodes and half-widths, and ``g``
    the values of ``f`` at the nodes.  No further evaluation of ``f`` is
    made: the integral from a
    node to its panel's end interpolates ``f`` on that panel, and the
    later panels are suffix-summed.  Returns ``(at_nodes, at_edges)``: the
    integral from each node, one new (points, panels) array shaped like
    ``x`` per part, which the caller may overwrite, and from each panel
    edge (one more entry than panels).  ``x``, ``h`` and ``g`` are only
    read.  Within a panel the integral is ``h * (tail @ g)``, one matrix
    product over the whole part, and the per-panel half-widths, panel ends
    and edge tails are added as rows.
    """
    per_panel = np.empty(len(points) - 1)
    for rule, panels, _, h, g in parts:
        per_panel[panels] = h * (rule.weights @ g)
    at_edges = np.append(np.cumsum(per_panel[::-1])[::-1], 0.0)
    at_nodes = []
    for rule, panels, x, h, g in parts:
        # the stored node is rounded; integrate from it, not from the exact
        # node mid + h*xi, which matters where the panel end is close to x:
        # g * ((end - x) - h*(1 - xi)), with h*(1 - xi) held in the array
        # that then takes the interpolated part h * (tail @ g)
        within = np.multiply.outer(1.0 - rule.nodes, h)
        rounding = np.subtract(points[1:][panels], x)
        rounding -= within
        rounding *= g
        np.matmul(rule.tail, g, out=within)
        within *= h
        within += rounding
        within += at_edges[1:][panels]
        at_nodes.append(within)
    return at_nodes, at_edges
