"""The derived singular weight eta_a and its truncation.

For a weight phi on (0, a),

    eta_a(t) = phi(t)**(-1/(p-1)) / integral_t^a phi(s)**(-1/(p-1)) ds.

eta_a is positive, diverges at both endpoints, satisfies the Riccati
identity  eta*phi'/phi + (p-1)*eta' = (p-1)*eta**2,  and for log-concave
phi has a unique interior minimiser T.  Freezing eta_a at its minimum
yields the non-increasing truncated weight eta_aT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .quadrature import integrate, segment_integrals
from .weights import Weight

#: eta is never evaluated closer to an endpoint than this fraction of a
ENDPOINT_GUARD = 1e-12
#: points of the geometric grid that brackets the minimiser of eta
BRACKET_GRID = 256
#: absolute tolerance in t of the golden-section search for T
GOLDEN_TOL = 1e-10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden ratio reciprocal


def _check_interior(w, t):
    t = np.asarray(t, dtype=float)
    # isfinite first: no NaN reaches a comparison
    if not (np.isfinite(t).all() and (t >= w.a * ENDPOINT_GUARD).all()
            and (t <= w.a * (1.0 - ENDPOINT_GUARD)).all()):
        raise DomainError(
            f"t must lie in ({w.a * ENDPOINT_GUARD:.3e}, {w.a * (1 - ENDPOINT_GUARD):.6g})"
        )
    return t


def tail_integral(w, t):
    """integral_t^a phi(s)**(-1/(p-1)) ds for a single point t in (0, a)."""
    if not 0.0 < t < w.a:
        raise DomainError(f"t must lie in (0, {w.a}), got {t}")
    return integrate(w.inv_phi_pow, t, w.a, singular=w.singular_points)


def tail_integrals(w, ts):
    """Tail integrals at a sorted, strictly increasing array of points.

    A single cumulative sweep: the integrand is integrated over each
    segment between consecutive points and suffix-summed, so the cost is
    linear in the number of points.
    """
    ts = np.asarray(ts, dtype=float)
    pts = np.append(ts, w.a)
    seg = segment_integrals(w.inv_phi_pow, pts, singular=w.singular_points)
    return np.cumsum(seg[::-1])[::-1]


def _not_finite(t, inv_phi, tail):
    return NumericalError(
        f"eta_a is not finite at t={float(t)!r}: phi**(-1/(p-1)) = "
        f"{float(inv_phi)!r} over its tail integral {float(tail)!r}"
    )


def eta(w, t):
    """The weight eta_a at a single point."""
    _check_interior(w, t)
    inv_phi, tail = float(w.inv_phi_pow(t)), tail_integral(w, t)
    value = inv_phi / tail
    if not math.isfinite(value):
        raise _not_finite(t, inv_phi, tail)
    return value


def eta_many(w, ts):
    """Vectorised eta_a; ``ts`` need not be sorted.

    Raises ``NumericalError`` naming the smallest t where eta_a is not
    finite, which happens when ``phi**(-1/(p-1))`` overflows.
    """
    ts = _check_interior(w, ts)
    order = np.argsort(ts, kind="stable")
    sorted_ts, inverse = np.unique(ts[order], return_inverse=True)
    inv_phi, tails = w.inv_phi_pow(sorted_ts), tail_integrals(w, sorted_ts)
    vals = inv_phi / tails
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise _not_finite(sorted_ts[bad[0]], inv_phi[bad[0]], tails[bad[0]])
    out = np.empty_like(ts)
    out[order] = vals[inverse]
    return out


def eta_bounds(w, t):
    """Two-sided bounds on eta_a from the growth constants of phi.

    Returns ``(lo, hi)`` with ``K(t) = e / (t * (1 - (t/a)**e))``,
    ``e = delta/(p-1)``, scaled by ``(c1/c2)**(1/(p-1))`` and its
    reciprocal; ``1 - (t/a)**e = -expm1(e log(t/a))`` neither overflows
    nor cancels near ``t = a``.  When the scale factor underflows to 0
    there is no finite two-sided bound, and ``(0.0, inf)`` is returned.
    """
    if not 0.0 < t < w.a:
        raise DomainError(f"t must lie in (0, {w.a}), got {t}")
    e = w.delta / (w.p - 1.0)
    # near t = a, t - a is exact and t / a is not
    log_ratio = math.log1p((t - w.a) / w.a) if 2.0 * t > w.a else math.log(t / w.a)
    k = e / (t * -math.expm1(e * log_ratio))
    r = (w.c1 / w.c2) ** (1.0 / (w.p - 1.0))
    if r == 0.0:
        return 0.0, math.inf
    return r * k, k / r


def riccati_residual(w, t, h):
    """Residual of the Riccati identity with a central-difference derivative.

    |eta*phi'/phi + (p-1)*eta_h' - (p-1)*eta**2| where eta_h' is the
    central finite difference with step h; O(h^2) for exact eta.
    """
    if not (0.0 < t - h and t + h < w.a):
        raise DomainError(f"t +- h must lie inside (0, {w.a})")
    lo, e0, hi = eta_many(w, [t - h, t, t + h]).tolist()
    d = (hi - lo) / (2.0 * h)
    phi_t = float(w.phi(t))
    dphi_t = float(w.dphi(t))
    return abs(e0 * dphi_t / phi_t + (w.p - 1.0) * d - (w.p - 1.0) * e0**2)


@dataclass(frozen=True)
class EtaProfile:
    """eta_a together with its minimiser T and the plateau value eta_a(T)."""

    weight: Weight
    T: float
    eta_at_T: float


def find_truncation_point(w):
    """Locate the unique interior minimiser of eta_a.

    Brackets the minimum on a geometric sample grid of ``BRACKET_GRID``
    points, then refines by golden-section search to absolute tolerance
    ``GOLDEN_TOL`` in t.  The minimiser is unique because every ``Weight``
    is log-concave in closed form: ``(log phi)'' = -(p-1+delta)/t**2``
    (power) or ``-(n-1)/sin(t)**2`` (sine), negative on (0, a].
    """
    grid = w.a * np.geomspace(1e-6, 1.0 - 1e-6, BRACKET_GRID)
    vals = eta_many(w, grid)
    i = int(np.argmin(vals))
    if i == 0 or i == BRACKET_GRID - 1:
        raise NumericalError(
            f"failed to bracket the minimum of eta on (0, {w.a}); "
            f"sampled minimum at grid edge t={grid[i]:.6g}"
        )
    lo, hi = grid[i - 1], grid[i + 1]
    # golden-section search; unimodality is guaranteed by log-concavity
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = eta(w, c), eta(w, d)
    while hi - lo > GOLDEN_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = eta(w, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = eta(w, d)
    t_min = 0.5 * (lo + hi)
    return EtaProfile(weight=w, T=float(t_min), eta_at_T=eta(w, t_min))


def eta_truncated(prof, t):
    """eta_a truncated at T: eta_a(t) for t <= T, the plateau value after."""
    if not 0.0 < t < prof.weight.a:
        raise DomainError(f"t must lie in (0, {prof.weight.a}), got {t}")
    return float(eta_truncated_many(prof, [t])[0])


def eta_truncated_many(prof, ts):
    """Vectorised ``eta_truncated``; points past a take the plateau value."""
    ts = np.asarray(ts, dtype=float)
    finite = np.isfinite(ts)
    if not finite.all():
        raise DomainError(f"t must be finite, got {float(ts[~finite][0])!r}")
    out = np.full(ts.shape, prof.eta_at_T)
    below = ts <= prof.T
    if np.any(below):
        out[below] = eta_many(prof.weight, ts[below])
    return out
