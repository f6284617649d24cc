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

from .errors import DegenerateInputError, DomainError, ParameterError
from .eta import ENDPOINT_GUARD, tail_integral, tail_integrals
from .quadrature import node_tail_integrals, panel_nodes, refine_breakpoints

DEFAULT_GRID_SIZE = 4096
#: relative depth of geometric node clustering at sequence breakpoints
CLUSTER_DEPTH = 1e-8


@dataclass(frozen=True)
class GridFunction:
    """A piecewise-linear function on a nonuniform grid.

    The function extends constantly to the left of the first node and its
    final value must be exactly zero (membership in the test space).
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or nodes.shape != values.shape or len(nodes) < 2:
            raise ParameterError("nodes and values must be equal-length 1-D arrays (>= 2)")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise ParameterError("nodes and values must be finite")
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
    if not p > 1:
        raise DomainError(f"p must be > 1, got {p}")
    return ((p - 1.0) / p) ** p


def _panel_edges(w, breakpoints):
    """``refine_breakpoints`` over the breakpoints, honouring the weight's
    singularities and the endpoint a, where eta diverges."""
    singular = tuple(w.singular_points) + (w.a,)
    return refine_breakpoints(breakpoints, singular=singular)


def _sweep(w, pts):
    """Everything the quotient integrals need on the panels ``pts``.

    Returns the ``panel_nodes(pts)`` nodes and weights, ``phi`` and
    ``phi**(-1/(p-1))`` at the nodes, and the tail integral I of the
    latter at the nodes and at the panel edges, from one sweep over the
    panels.
    """
    x, wts = panel_nodes(pts)
    phi = w.phi(x)
    inv_phi = phi ** (-1.0 / (w.p - 1.0))  # as w.inv_phi_pow(x)
    at_nodes, at_edges = node_tail_integrals(pts, x, inv_phi)
    beyond = tail_integral(w, pts[-1])
    return x, wts, phi, inv_phi, at_nodes + beyond, at_edges + beyond


def _quotient_edges(prof, nodes):
    """Panel edges of the quotient's quadrature over a grid's support."""
    a = prof.weight.a
    guard_lo = a * ENDPOINT_GUARD
    guard_hi = a * (1.0 - ENDPOINT_GUARD)
    # interior breakpoints: the nodes themselves, T (kink of eta_T), guards
    interior = nodes[nodes > guard_lo]
    bp = np.concatenate(([max(nodes[0], guard_lo)], interior, [prof.T]))
    return _panel_edges(prof.weight, np.unique(np.clip(bp, guard_lo, guard_hi)))[0]


def hardy_quotient(w, prof, u, truncated=False):
    """Rayleigh quotient of a grid function against eta (or eta_aT).

    The numerator is exact per cell up to the phi quadrature (|u'| is
    constant on each cell); the denominator integrates |u|^p eta^p phi on
    endpoint-refined Gauss panels.  The panels start at min(t0, T), where
    eta_aT = eta, and the constant head before them goes through the
    closed-form primitive I**(1-p)/(p-1) of eta^p phi.
    """
    if prof.weight != w:
        raise ParameterError("profile was not built from this weight")
    nodes, values = u.nodes, u.values
    a, p = w.a, w.p
    if abs(nodes[-1] - a) > 1e-14 * max(a, 1.0):
        raise ParameterError(f"last node must equal a={a}, got {nodes[-1]}")
    if np.all(values == 0.0):
        raise DegenerateInputError("grid function is identically zero")

    pts = _quotient_edges(prof, nodes)
    x, wts, phi_vals, inv_phi, tails, edge_tails = _sweep(w, pts)
    eta_vals = inv_phi / tails
    if truncated:
        eta_vals = np.where(x > prof.T, prof.eta_at_T, eta_vals)

    denominator = float(np.sum((np.abs(u(x)) * eta_vals) ** p * phi_vals * wts))
    # head [0, pts[0]], pts[0] = min(t0, T): u = u(t0) and eta_aT = eta there
    denominator += abs(values[0]) ** p * edge_tails[0] ** (1.0 - p) / (p - 1.0)
    if denominator < 1e-300:
        raise DegenerateInputError("denominator vanished; degenerate input")

    # numerator: |u'| is constant per cell and 0 left of the grid; every
    # grid node past the guard is a panel edge, so a panel lies in one cell
    slopes = np.concatenate(([0.0], np.diff(values) / np.diff(nodes)))
    cell = np.searchsorted(nodes, 0.5 * (pts[:-1] + pts[1:]))
    numerator = float(np.sum(np.abs(slopes[cell, None]) ** p * phi_vals * wts))

    return QuotientReport(
        numerator=numerator,
        denominator=denominator,
        quotient=numerator / denominator,
        sharp_constant=sharp_constant(p),
    )


def _clustered_nodes(lo, hi, size):
    """Nodes on [lo, hi] clustered geometrically towards both ends."""
    half = size // 2
    mid = lo + 0.5 * (hi - lo)
    left = lo + (mid - lo) * np.geomspace(CLUSTER_DEPTH, 1.0, half)
    right = hi - (hi - mid) * np.geomspace(CLUSTER_DEPTH, 1.0, size - half)
    return np.unique(np.concatenate(([lo], left, right, [hi])))


def extremal_U_k(w, k, grid_size=DEFAULT_GRID_SIZE):
    """The extremal sequence element U_k, sampled as a grid function.

    U_k is the constant I(1/k)**((p-1)/p) on [0, 1/k] and I(t)**((p-1)/p)
    on [1/k, a], where I is the tail integral of phi**(-1/(p-1)).
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    s = 1.0 / k
    if s >= w.a:
        raise DomainError(f"1/k = {s} must be smaller than a = {w.a}")
    nodes = _clustered_nodes(s, w.a, grid_size)
    tails = tail_integrals(w, nodes[:-1])
    values = np.append(tails ** ((w.p - 1.0) / w.p), 0.0)
    return GridFunction(nodes, values)


def extremal_V_k(w, prof, k, grid_size=DEFAULT_GRID_SIZE):
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
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    s = 1.0 / k
    T, a = prof.T, w.a
    if s >= T:
        raise DomainError(f"1/k = {s} must be smaller than T = {T}")
    ramp_end = 0.5 * (a + T)
    n_body = (3 * grid_size) // 4
    body = _clustered_nodes(s, T, n_body)
    ramp = np.linspace(T, ramp_end, max(grid_size // 8, 8))
    tail = np.linspace(ramp_end, a, max(grid_size // 16, 4))
    nodes = np.unique(np.concatenate((body, ramp, tail)))

    values = np.zeros_like(nodes)
    in_body = nodes <= T  # the last body node is T itself
    values[in_body] = tail_integrals(w, nodes[in_body]) ** ((w.p - 1.0) / w.p)
    in_ramp = (nodes > T) & (nodes < ramp_end)
    values[in_ramp] = values[in_body][-1] * (2.0 * nodes[in_ramp] - a - T) / (T - a)
    return GridFunction(nodes, values)


def A_k_B_k(w, k):
    """The two pieces of the extremal-sequence denominator.

    ``A_k`` is the head integral (its limit, and in fact its exact value,
    is 1/(p-1)); ``B_k`` is the logarithmically divergent body integral,
    regularised at the endpoint guard a*(1 - 1e-12) since the integrand
    behaves like 1/(a - t) there.
    """
    s = 1.0 / k
    if s >= w.a:
        raise DomainError(f"1/k = {s} must be smaller than a = {w.a}")
    p, a = w.p, w.a
    guard_lo = a * ENDPOINT_GUARD
    guard_hi = a * (1.0 - ENDPOINT_GUARD)

    # one call: its scale is the body's, and the head keeps the edges of a
    # call on [guard_lo, s] alone
    pts, counts = _panel_edges(w, np.array([guard_lo, s, guard_hi]))
    _, wts, _, inv_phi, tails, edge_tails = _sweep(w, pts)
    # the body integrand is eta = phi**(-1/(p-1))/I; the head integrand is
    # eta * (I(s)/I)**(p-1), and edge_tails[n] = I(s)
    n = counts[0]
    eta_wts = inv_phi / tails * wts
    a_k = float(np.sum((edge_tails[n] / tails[:n]) ** (p - 1.0) * eta_wts[:n]))
    b_k = float(np.sum(eta_wts[n:]))
    return a_k, b_k


def convergence_study(w, prof, ks, truncated=False, grid_size=DEFAULT_GRID_SIZE):
    """Quotients of the extremal sequence for each k, sorted by k.

    Returns a list of ``(k, quotient, margin)`` tuples.  Margins trend to
    zero as k grows; the convergence is logarithmic in k.  For the
    truncated sequence the margin is exactly
    (E - c*(1/(p-1) + D)) / (L_k + 1/(p-1) + D) with
    L_k = log(I(1/k)/I(T)) and k-independent ramp terms E, D (see
    ``extremal_V_k``); the grid reproduces it up to a sampling error that
    falls like grid_size**-2.
    """
    rows = []
    for k in sorted(ks):
        u = extremal_V_k(w, prof, k, grid_size) if truncated else extremal_U_k(w, k, grid_size)
        rep = hardy_quotient(w, prof, u, truncated=truncated)
        rows.append((k, rep.quotient, rep.margin))
    return rows
