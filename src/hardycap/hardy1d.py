"""Weighted Hardy-Rayleigh quotients on grid functions.

For every u with u(a) = 0,

    integral |u'|^p phi dt  >=  ((p-1)/p)^p  integral |u|^p eta^p phi dt,

with eta either the full weight eta_a or its truncation eta_aT, and the
constant ((p-1)/p)^p is sharp.  This module evaluates the quotient on
piecewise-linear grid functions, generates the explicit extremal
sequences whose quotients converge to the sharp constant, and runs
convergence studies over a list of sequence indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, NumericalError, ParameterError
from .eta import ENDPOINT_GUARD, _check_phi_normal, tail_integral, tail_integrals
from .quadrature import (ALL_GL16, _eight_panels, node_tail_integrals, panel_nodes, panel_rules,
                         refine_breakpoints)
from .weights import _finite, _finite_array

#: nodes of the sampled extremal sequence elements
GRID_SIZE = 4096
#: relative depth of geometric node clustering at sequence breakpoints
CLUSTER_DEPTH = 1e-8
#: widest first cell of an extremal grid, relative to 1/k: the elements
#: vary on the scale 1/k there, and up to this width V_k quotients stay
#: within 5e-5 of their exact law (n=3, p=2, a=pi/2: 1.2e-5 at 0.026, 1.4e-5
#: at 0.056, 8.6e-5 at 0.26)
FIRST_CELL = 0.05
#: quotient panel edges at these fractions of the way from a root of u to
#: both ends of its cell (both neighbouring nodes, for a root at a node):
#: |u|**p is only C**p at the root, and a 16-node Gauss panel that ends
#: there loses 4.5e-7 relative for p = 1.2; each level, 4 times closer to
#: the root, cuts that loss by about 4**(p+1)
ROOT_GRADING = np.array([0.0, 4.0**-4, 4.0**-3, 4.0**-2, 4.0**-1])


@dataclass(frozen=True)
class GridFunction:
    """A piecewise-linear function on a nonuniform grid.

    The function extends constantly to the left of the first node and its
    final value must be exactly zero (membership in the test space).
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(_finite_array("nodes", self.nodes))
        values = np.ascontiguousarray(_finite_array("values", self.values))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or nodes.shape != values.shape or len(nodes) < 2:
            raise ParameterError("nodes and values must be equal-length 1-D arrays (>= 2)")
        if not np.all(np.diff(nodes) > 0.0):
            raise ParameterError("nodes must be strictly increasing")
        if values[-1] != 0.0:
            raise ParameterError("the final value must be exactly zero")

    def __call__(self, t):
        return np.interp(t, self.nodes, self.values, left=self.values[0])

    def scaled(self, c):
        return GridFunction(self.nodes, c * self.values)


@dataclass(frozen=True)
class QuotientReport:
    numerator: float
    denominator: float
    quotient: float
    sharp_constant: float

    @property
    def margin(self):
        return self.quotient - self.sharp_constant


def sharp_constant(p):
    """The sharp one-dimensional constant ((p-1)/p)**p."""
    p = _finite("p", p)
    if not p > 1:
        raise DomainError(f"p must be > 1, got {p}")
    return ((p - 1.0) / p) ** p


def _check_profile(w, prof, needed=True):
    """Refuse a profile of another weight, and a missing one where T is read."""
    if (prof is None and needed) or (prof is not None and prof.weight != w):
        raise ParameterError("pass this weight's profile, from find_truncation_point")


def _singular(w):
    """The weight's singular points and the endpoint a, where eta diverges."""
    return (*w.singular_points, w.a)


def _sweep(w, pts, rules):
    """Everything the quotient integrals need on the panels ``pts``, each
    with its Gauss rule from ``rules``: ``panel_rules`` for the quotient's
    one panel per cell, ``ALL_GL16`` for the pinned layout of ``A_k_B_k``.

    Returns a ``(panels, x, rule, phi, inv_phi, half, tails)`` for each
    rule, with the ``panel_nodes`` nodes and half-widths of its panels,
    ``phi`` and ``inv_phi = phi**(-1/(p-1))`` at the nodes and the tail
    integral I of the latter at the nodes, each a node-major (points,
    panels) array; and I at the panel edges.  The tails come from one
    sweep over the panels: ``node_tail_integrals`` on these nodes and
    half-widths.
    Every array is new and ``pts`` is only read: the caller may use
    ``tails`` as scratch, and reads the others.
    """
    parts = []
    for rule, panels in rules:
        x, half = panel_nodes(pts, rule, panels)
        phi = w.phi(x)
        inv_phi = phi ** (-1.0 / (w.p - 1.0))  # as w.inv_phi_pow(x)
        parts.append((panels, x, rule, phi, inv_phi, half))
    at_nodes, at_edges = node_tail_integrals(
        pts, [(rule, panels, x, half, inv_phi) for panels, x, rule, _, inv_phi, half in parts])
    beyond = tail_integral(w, pts[-1])
    for tails in at_nodes:
        tails += beyond
    at_edges += beyond
    return [(*part, tails) for part, tails in zip(parts, at_nodes)], at_edges


def _linear_at(x, x0, u0, slope):
    """A new array of ``(x - x0) * slope + u0`` at the node-major nodes
    ``x``, each per-panel value a row: ``np.interp``'s arithmetic for a
    node in the cell that starts at ``x0``, so its bits."""
    g = np.subtract(x, x0)
    g *= slope
    g += u0
    return g


def _quotient_edges(w, u, T=None):
    """Panel edges of the quotient's quadrature over a grid's support.

    One panel per grid cell, refined only towards the singular points:
    u is linear on a cell, so the integrands are smooth there except at
    a root of u, where |u|**p is only C**p.  Panel edges are graded
    towards every root next to a nonzero value: a sign change inside a
    cell, or a node past the guard and before the last where u is exactly
    0 (u is constant left of the first node).  The truncated quotient
    passes T, the kink of eta_aT.
    """
    a = w.a
    guard_lo = a * ENDPOINT_GUARD
    guard_hi = a * (1.0 - ENDPOINT_GUARD)
    nodes, values = u.nodes, u.values
    sign = np.sign(values)
    # the cells i where u changes sign, and the zero nodes j before the last
    # next to a nonzero value (the first node's left neighbour is itself);
    # the roots, their neighbouring nodes and the edges graded towards them
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    left = np.concatenate((sign[:1], sign[:-2]))
    j = np.flatnonzero((sign[:-1] == 0.0) & ((left != 0.0) | (sign[1:] != 0.0)))
    j = j[nodes[j] > guard_lo]  # the refinement towards 0 resolves a root there
    v0, v1 = values[i], values[i + 1]
    root = np.concatenate((nodes[i] + (nodes[i + 1] - nodes[i]) * (v0 / (v0 - v1)),
                           nodes[j]))[:, None]
    lo = nodes[np.concatenate((i, np.maximum(j - 1, 0))), None]
    hi = nodes[np.concatenate((i + 1, j + 1)), None]
    near_roots = np.concatenate((root - (root - lo) * ROOT_GRADING,
                                 root + (hi - root) * ROOT_GRADING), axis=None)
    # interior breakpoints: the nodes, T if given, guards
    interior = nodes[nodes > guard_lo]
    bp = np.concatenate(([max(nodes[0], guard_lo)], interior, near_roots,
                         [] if T is None else [T]))
    return refine_breakpoints(np.unique(np.clip(bp, guard_lo, guard_hi)), _singular(w))[0]


def hardy_quotient(w, prof, u, truncated=False):
    """Rayleigh quotient of a grid function against eta (or eta_aT).

    The numerator is exact per cell up to the phi quadrature (|u'| is
    constant on each cell); the denominator integrates |u|^p eta^p phi on
    one Gauss panel per cell, refined towards the singular points and
    graded towards the roots of u.  A panel takes 4 points where it is at
    most ``GL4_RATIO`` of its distance from the weight's singular points,
    from a and from the root of its linear piece of u, where |u|^p is
    singular too, 8 where it is at most ``GL8_RATIO`` of it, and 16
    elsewhere (``quadrature.panel_rules``).  On the extremal grids of a
    sharpness pass about half the panels take 4 points.  The
    panels start at t0, or at min(t0, T) when truncated, where
    eta_aT = eta, and the constant head before them goes through the
    closed-form primitive I**(1-p)/(p-1) of eta^p phi.  prof may be None
    when not truncated, with the same result.

    The arrays of ``u`` are only read.  The nodes and the values at them
    are node-major (points, panels) arrays.  A panel lies in one cell of
    the grid, so u at its nodes is ``(x - nodes[c]) * slope + values[c]``
    with the cell's own slope and left node c: the arithmetic of
    ``np.interp`` (``GridFunction.__call__``), and its bits, without its
    binary search per node.  The denominator's integrand
    (|u| eta)**p phi is built in one scratch array, the values of u at the
    nodes, and eta overwrites the tails from ``_sweep``; ``phi`` and
    ``inv_phi`` are read by both integrals and never written.  Sums over
    the panels are ``half @ (rule.weights @ values)``.
    Raises ``NumericalError`` where the denominator overflows, and naming
    the first panel edge (or a, through ``tail_integral``) where phi is
    subnormal.
    """
    _check_profile(w, prof, truncated)
    nodes, values = u.nodes, u.values
    a, p = w.a, w.p
    if abs(nodes[-1] - a) > 1e-14 * max(a, 1.0):
        raise ParameterError(f"last node must equal a={a}, got {nodes[-1]}")
    if np.all(values == 0.0):
        raise DegenerateInputError("grid function is identically zero")

    pts = _quotient_edges(w, u, prof.T if truncated else None)
    # every grid node past the guard is a panel edge, so a panel lies in one
    # cell, where u is linear; |u'| is 0 left of the grid
    cell = np.searchsorted(nodes, 0.5 * (pts[:-1] + pts[1:]))
    slopes = np.concatenate(([0.0], np.diff(values) / np.diff(nodes)))
    # the root of each cell's linear piece, where |u|**p is singular too
    # (none on a constant piece)
    roots = nodes[:-1] - np.divide(values[:-1], slopes[1:],
                                   out=np.full(len(nodes) - 1, np.inf), where=slopes[1:] != 0.0)
    rules = panel_rules(pts, _singular(w), roots[cell - 1])
    # phi**(-1/(p-1)) overflows next to 0 on steep weights: raised, not warned
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        parts, edge_tails = _sweep(w, pts, rules)
        # u on a panel's cell, as np.interp takes it from the cell's left node
        # c; left of the grid c = 0 and slopes[0] = 0 give the constant values[0]
        # (made after the sweep, whose peak they would raise)
        c = np.maximum(cell - 1, 0)
        x0, u0, slope = nodes[c], values[c], slopes[cell]
        denominator = 0.0
        for panels, x, rule, phi, inv_phi, half, tails in parts:
            # (|u| eta)**p phi in one scratch array; tails turn into eta
            eta_vals = np.divide(inv_phi, tails, out=tails)
            if truncated:
                np.copyto(eta_vals, prof.eta_at_T, where=x > prof.T)
            g = _linear_at(x, x0[panels], u0[panels], slope[panels])
            np.abs(g, out=g)
            g *= eta_vals
            g **= p
            g *= phi
            denominator += float(half @ (rule.weights @ g))
        # head [0, pts[0]], pts[0] <= t0 (and <= T): u = u(t0) and eta_aT = eta
        # there; numpy scalars, which overflow to inf where floats would raise
        denominator += float(abs(values[0]) ** p * edge_tails[0] ** (1.0 - p) / (p - 1.0))
    if not np.isfinite(denominator):
        raise NumericalError(
            f"the denominator is not finite: eta_a overflows from t={float(pts[0])!r}")
    _check_phi_normal(w, pts[0])  # and a, by the tail integral from pts[-1]
    if denominator < 1e-300:
        raise DegenerateInputError("denominator vanished; degenerate input")

    # numerator: |u'| is constant per panel
    numerator = sum(float((np.abs(slope[panels]) ** p * half) @ (rule.weights @ phi))
                    for panels, _, rule, phi, _, half, _ in parts)

    return QuotientReport(
        numerator=numerator,
        denominator=denominator,
        quotient=numerator / denominator,
        sharp_constant=sharp_constant(p),
    )


def _clustered_nodes(lo, hi, size):
    """Nodes on [lo, hi] clustered geometrically towards both ends.

    Raises ``DomainError`` when the first cell is wider than ``FIRST_CELL``
    times lo = 1/k, as it is for k above about 1e7/(hi - lo).
    """
    half = size // 2
    mid = lo + 0.5 * (hi - lo)
    left = lo + (mid - lo) * np.geomspace(CLUSTER_DEPTH, 1.0, half)
    right = hi - (hi - mid) * np.geomspace(CLUSTER_DEPTH, 1.0, size - half)
    nodes = np.unique(np.concatenate(([lo], left, right, [hi])))
    if nodes[1] - lo > FIRST_CELL * lo:
        raise DomainError(
            f"1/k = {lo} is too small for a grid of {size} nodes on [1/k, {hi}]: "
            f"its first cell is {(nodes[1] - lo) / lo:.3g} times 1/k, above {FIRST_CELL}"
        )
    return nodes


def extremal_U_k(w, k):
    """The extremal sequence element U_k, sampled as a grid function.

    U_k is the constant I(1/k)**((p-1)/p) on [0, 1/k] and I(t)**((p-1)/p)
    on [1/k, a], where I is the tail integral of phi**(-1/(p-1)).
    """
    k = _finite("k", k)
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    s = 1.0 / k
    if s >= w.a:
        raise DomainError(f"1/k = {s} must be smaller than a = {w.a}")
    nodes = _clustered_nodes(s, w.a, GRID_SIZE)
    tails = tail_integrals(w, nodes[:-1])
    values = np.append(tails ** ((w.p - 1.0) / w.p), 0.0)
    return GridFunction(nodes, values)


def extremal_V_k(w, prof, k):
    """The truncated-weight extremal element: U_k up to T, then a linear
    ramp to zero at (a+T)/2, zero afterwards.

    Its truncated quotient has an exact law.  The constant head [0, 1/k]
    contributes 1/(p-1) to the denominator and nothing to the numerator.
    On the body [1/k, T] the numerator integrand is c = ((p-1)/p)**p times
    the denominator integrand (Riccati identity), and the denominator body
    integrates to L_k = log(I(1/k)/I(T)).  The ramp contributes E to the
    numerator and D to the denominator, neither depending on k.  Hence

        quotient = (c*L_k + E) / (L_k + 1/(p-1) + D),
        margin   = (E - c*(1/(p-1) + D)) / (L_k + 1/(p-1) + D),

    so the margin tends to zero only like 1/log k.  For n=3, p=2, a=pi/2
    (I(t) = cot t, T = pi/4) this is margin = 1.420021/(L_k + 1.312158).
    Raises ``ParameterError`` when prof is None or of another weight.
    """
    _check_profile(w, prof)
    k = _finite("k", k)
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    s = 1.0 / k
    T, a = prof.T, w.a
    if s >= T:
        raise DomainError(f"1/k = {s} must be smaller than T = {T}")
    ramp_end = 0.5 * (a + T)
    body = _clustered_nodes(s, T, (3 * GRID_SIZE) // 4)
    ramp = np.linspace(T, ramp_end, GRID_SIZE // 8)
    # u = 0 past the ramp: one cell [ramp_end, a] holds the zero tail
    nodes = np.unique(np.concatenate((body, ramp, [a])))

    values = np.zeros_like(nodes)
    in_body = nodes <= T  # the last body node is T itself
    values[in_body] = tail_integrals(w, nodes[in_body]) ** ((w.p - 1.0) / w.p)
    in_ramp = (nodes > T) & (nodes < ramp_end)
    values[in_ramp] = values[in_body][-1] * (2.0 * nodes[in_ramp] - a - T) / (T - a)
    return GridFunction(nodes, values)


def A_k_B_k(w, k):
    """The two pieces of the extremal-sequence denominator.

    ``A_k``, the head integral of eta*(I(1/k)/I)**(p-1) from a*1e-12 to
    1/k, is (1 - (I(1/k)/I(a*1e-12))**(p-1))/(p-1) as eta = -I'/I; its limit
    is 1/(p-1).  ``B_k`` is the logarithmically divergent body integral,
    regularised at the endpoint guard a*(1 - 1e-12) since the integrand
    behaves like 1/(a - t) there.  k must be positive and 1/k must lie
    between the two guards.
    """
    k = _finite("k", k)
    if k <= 0.0:
        raise DomainError(f"k must be > 0, got {k}")
    s = 1.0 / k
    p, a = w.p, w.a
    guard_lo = a * ENDPOINT_GUARD
    guard_hi = a * (1.0 - ENDPOINT_GUARD)
    if not guard_lo < s < guard_hi:
        raise DomainError(f"1/k = {s} must lie in ({guard_lo:.3e}, {guard_hi:.6g})")
    pts = _eight_panels(s, guard_hi, _singular(w))
    # phi**(-1/(p-1)) overflows next to 0 on steep weights: raised, not warned
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ((_, _, rule, _, inv_phi, half, tails),), edge_tails = _sweep(w, pts, ALL_GL16)
        a_k = float((1.0 - (edge_tails[0] / tail_integral(w, guard_lo)) ** (p - 1.0)) / (p - 1.0))
        b_k = float(half @ (rule.weights @ np.divide(inv_phi, tails, out=tails)))
    if not (np.isfinite(a_k) and np.isfinite(b_k)):
        raise NumericalError(
            f"A_k = {a_k!r} and B_k = {b_k!r} must be finite: eta_a overflows from t={s!r}")
    return a_k, b_k


def convergence_study(w, prof, ks, truncated=False):
    """Quotients of the extremal sequence for each k, sorted by k.

    Returns a list of ``(k, quotient, margin)`` tuples.  Margins trend to
    zero as k grows; the convergence is logarithmic in k.  For the
    truncated sequence the margin is exactly
    (E - c*(1/(p-1) + D)) / (L_k + 1/(p-1) + D) with
    L_k = log(I(1/k)/I(T)) and k-independent ramp terms E, D (see
    ``extremal_V_k``); the grid reproduces it up to a sampling error that
    falls like GRID_SIZE**-2.  prof may be None for the full sequence.
    """
    _check_profile(w, prof, truncated)
    if not np.iterable(ks):
        raise ParameterError(f"ks must be a sequence of indices, got {ks!r}")
    rows = []
    # each k is checked, by name, before the first quotient
    for k in sorted(ks, key=lambda k: _finite("k", k)):
        u = extremal_V_k(w, prof, k) if truncated else extremal_U_k(w, k)
        rep = hardy_quotient(w, prof, u, truncated=truncated)
        rows.append((k, rep.quotient, rep.margin))
    return rows
