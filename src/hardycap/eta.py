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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ParameterError
from .quadrature import _integrate, check_resolved, integrate, segment_integrals
from .weights import Weight, _finite, _finite_array

#: eta is never evaluated closer to an endpoint than this fraction of a
ENDPOINT_GUARD = 1e-12
#: points of the geometric grid that brackets the minimiser of eta
BRACKET_GRID = 256
#: absolute tolerance in t of the golden-section search for T
GOLDEN_TOL = 1e-10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden ratio reciprocal


def _points(ts):
    """``ts`` as a finite 1-D float array of points."""
    ts = _finite_array("ts", ts)
    if ts.ndim != 1:
        raise ParameterError(f"ts must be a 1-D array of points, got shape {ts.shape}")
    return ts


def _outside(w):
    return DomainError(
        f"t must lie in ({w.a * ENDPOINT_GUARD:.3e}, {w.a * (1 - ENDPOINT_GUARD):.6g})"
    )


def _tail_not_finite(t, tail):
    return NumericalError(
        f"the tail integral of phi**(-1/(p-1)) is not finite at t={float(t)!r}: "
        f"I(t) = {float(tail)!r}")


def _check_phi_normal(w, *ts):
    """Raise ``NumericalError`` naming the first of ``ts`` where phi is
    below the smallest normal float: phi**(-1/(p-1)) then carries only the
    few bits of a subnormal, and an integral over a range that ends there
    is wrong with no other sign (8.7e-7 relative for power (4, 262, 1) from
    t = 1/16).  Over any range in (0, a], phi is smallest at an end (it
    increases, or is a power of sin, which is concave), so the ends of the
    range are passed."""
    for t in ts:
        phi = float(w.phi(t))
        if phi < sys.float_info.min:
            raise NumericalError(
                f"phi is subnormal at t={float(t)!r}: phi(t) = {phi!r}, below "
                f"{sys.float_info.min!r}, so phi**(-1/(p-1)) loses its accuracy there")


def tail_integral(w, t):
    """integral_t^a phi(s)**(-1/(p-1)) ds for a single point t in (0, a).

    Raises ``DomainError`` where the quadrature cannot resolve the weight's
    singular points from t (t below 1e-15 * max(a, 1) next to 0); the point
    a * ENDPOINT_GUARD stays legal for a >= 1e-3.  Raises ``NumericalError``
    naming t where the integral overflows (where ``phi**(-1/(p-1))``
    does), without a RuntimeWarning, and naming t or a where phi is
    subnormal there.

    For a sine weight with ``a`` next to pi the result loses accuracy, with
    no error, up to about ``ulp(pi)/(pi - a)`` relative: the Gauss nodes
    next to a are rounded by up to half an ulp of pi against their distance
    to the singular point pi.  For n = 3, p = 2 against ``cot t - cot a``
    that is 3.9e-10 at ``pi - a = 1e-8`` and below 1e-9 for
    ``pi - a >= 1e-6``; ``tail_integrals``, ``eta`` and T inherit it.
    """
    t = _finite("t", t)
    if not 0.0 < t < w.a:
        raise DomainError(f"t must lie in (0, {w.a}), got {t}")
    check_resolved(t, w.a, w.singular_points)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tail = integrate(w.inv_phi_pow, t, w.a, singular=w.singular_points)
    if not math.isfinite(tail):
        raise _tail_not_finite(t, tail)
    _check_phi_normal(w, t, w.a)
    return tail


def tail_integrals(w, ts):
    """Tail integrals at a sorted, increasing array of points.

    A single cumulative sweep: the integrand is integrated over each
    segment between consecutive points and suffix-summed, so the cost is
    linear in the number of points.  Raises ``DomainError`` as
    ``tail_integral`` does, at the first point, and ``NumericalError``
    naming the first point whose tail integral overflows (where
    ``phi**(-1/(p-1))`` does), without a RuntimeWarning, or the first
    point or a where phi is subnormal.
    """
    ts = _points(ts)
    if ts.size:
        check_resolved(float(ts[0]), w.a, w.singular_points)
    pts = np.append(ts, w.a)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        seg = segment_integrals(w.inv_phi_pow, pts, singular=w.singular_points)
        tails = np.cumsum(seg[::-1])[::-1]
    bad = np.flatnonzero(~np.isfinite(tails))
    if len(bad):
        raise _tail_not_finite(ts[bad[0]], tails[bad[0]])
    if ts.size:
        _check_phi_normal(w, ts[0], w.a)
    return tails


def _not_finite(t, inv_phi, tail):
    return NumericalError(
        f"eta_a is not finite and positive at t={float(t)!r}: phi**(-1/(p-1)) = "
        f"{float(inv_phi)!r} over its tail integral {float(tail)!r}"
    )


def eta(w, t):
    """The weight eta_a at a single point.

    Raises ``NumericalError`` where ``phi**(-1/(p-1))`` or its tail
    integral overflows (or underflows), without a RuntimeWarning.
    """
    t = _finite("t", t)
    if not w.a * ENDPOINT_GUARD <= t <= w.a * (1.0 - ENDPOINT_GUARD):
        raise _outside(w)
    check_resolved(t, w.a, w.singular_points)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _eta_at(w, t)


def _eta_at(w, t):
    """``eta`` without its checks, under the caller's ``np.errstate``: a
    float ``t`` in the guard band whose tail the panels resolve.  Still
    raises ``NumericalError`` where eta_a is not finite and positive."""
    inv_phi = float(w.inv_phi_pow(t))
    tail = _integrate(w.inv_phi_pow, t, w.a, w.singular_points)
    value = inv_phi / tail if tail else math.inf
    if not 0.0 < value < math.inf:
        # a tail that is not finite comes from an overflow: report it as inf
        raise _not_finite(t, inv_phi, tail if math.isfinite(tail) else math.inf)
    return value


def eta_many(w, ts):
    """Vectorised eta_a; ``ts`` is a 1-D array that need not be sorted, and
    a repeated point is a zero-width segment of the one tail sweep.

    Raises ``NumericalError`` naming the smallest t where eta_a is not
    finite and positive, which happens when ``phi**(-1/(p-1))`` or its tail
    integral overflows; that overflow becomes the error, not a
    RuntimeWarning.
    """
    ts = _points(ts)
    if not ((ts >= w.a * ENDPOINT_GUARD).all() and (ts <= w.a * (1.0 - ENDPOINT_GUARD)).all()):
        raise _outside(w)
    order = np.argsort(ts, kind="stable")
    sorted_ts = ts[order]
    tails = tail_integrals(w, sorted_ts)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv_phi = w.inv_phi_pow(sorted_ts)
        vals = inv_phi / tails
    bad = np.flatnonzero(~((vals > 0.0) & (vals < np.inf)))
    if len(bad):
        raise _not_finite(sorted_ts[bad[0]], inv_phi[bad[0]], tails[bad[0]])
    out = np.empty_like(ts)
    out[order] = vals
    return out


def eta_bounds(w, t):
    """Two-sided bounds on eta_a from the growth constants of phi, at a
    point or an array of points in (0, a).

    Returns ``(lo, hi)`` with ``K(t) = e / (t * (1 - (t/a)**e))``,
    ``e = delta/(p-1)``, scaled by ``r = c1**(1/(p-1))`` (c2 = 1) and its
    reciprocal: two floats for a scalar ``t``, two arrays otherwise.
    ``1 - (t/a)**e = -expm1(e log(t/a))`` neither overflows nor cancels
    near ``t = a``.  When r underflows to 0 there is no finite two-sided
    bound, and ``(0.0, inf)`` is returned; where ``K/r`` overflows the upper
    bound is inf.
    """
    t = _finite_array("t", t)
    if not ((t > 0.0) & (t < w.a)).all():
        raise DomainError(f"t must lie in (0, {w.a})")
    e = w.delta / (w.p - 1.0)
    r = w.c1 ** (1.0 / (w.p - 1.0))
    # divide: np.where evaluates both branches, and log1p(-1) = -inf where
    # t - a rounds to -a; K/r = inf where r underflows to 0
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        # near t = a, t - a is exact and t / a is not
        log_ratio = np.where(2.0 * t > w.a, np.log1p((t - w.a) / w.a), np.log(t / w.a))
        k = e / (t * -np.expm1(e * log_ratio))
        lo, hi = (r * k if r else np.zeros_like(k)), k / r
    return (lo, hi) if lo.ndim else (float(lo), float(hi))


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

    The grid keeps only the points where phi is normal: next to 0 (or pi)
    a steep weight's phi is subnormal, where ``tail_integrals`` refuses to
    start, and the minimiser does not lie there.  The input is checked
    once, on the bracket grid: ``eta_many`` checks every grid point, and
    the resolution of the singular points from the first.  Each golden
    point lies between two grid points, so the search evaluates the
    unchecked ``_eta_at``, which still raises ``NumericalError`` where
    eta_a is not finite and positive.
    """
    grid = w.a * np.geomspace(1e-6, 1.0 - 1e-6, BRACKET_GRID)
    grid = grid[w.phi(grid) >= sys.float_info.min]
    if not len(grid):
        raise NumericalError(f"phi is subnormal on the whole bracket grid on (0, {w.a})")
    vals = eta_many(w, grid)
    i = int(np.argmin(vals))
    if i == 0 or i == len(grid) - 1:
        raise NumericalError(
            f"failed to bracket the minimum of eta on (0, {w.a}); "
            f"sampled minimum at grid edge t={grid[i]:.6g}"
        )
    lo, hi = float(grid[i - 1]), float(grid[i + 1])
    # golden-section search; unimodality is guaranteed by log-concavity
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = hi - _INV_PHI * (hi - lo)
        d = lo + _INV_PHI * (hi - lo)
        fc, fd = _eta_at(w, c), _eta_at(w, d)
        while hi - lo > GOLDEN_TOL:
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - _INV_PHI * (hi - lo)
                fc = _eta_at(w, c)
            else:
                lo, c, fc = c, d, fd
                d = lo + _INV_PHI * (hi - lo)
                fd = _eta_at(w, d)
        t_min = 0.5 * (lo + hi)
        return EtaProfile(weight=w, T=t_min, eta_at_T=_eta_at(w, t_min))


def eta_truncated_many(prof, ts):
    """eta_a truncated at T: eta_a(t) for t <= T, the plateau value after
    (also past a)."""
    ts = _finite_array("t", ts)
    out = np.full(ts.shape, prof.eta_at_T)
    below = ts <= prof.T
    if np.any(below):
        out[below] = eta_many(prof.weight, ts[below])
    return out
