"""Spherical caps: geometry, the singular weight rho, rearrangements.

The geodesic cap B(alpha) on the unit n-sphere has volume
``A(alpha) = omega_{n-1} * integral_0^alpha sin(theta)**(n-1) dtheta``.
The cap inequality

    integral |grad u|^p dV >= ((n-p)/p)^p integral |u|^p rho^p dV

holds for u vanishing outside a cap of radius a_star, where rho is the
truncated weight eta built from the sine weight, scaled by (p-1)/(n-p);
the reduction to the one-dimensional inequality is exact for radial
functions.  Rearrangement machinery (spherical rearrangement,
Hardy-Littlewood and radial Polya-Szego checks) operates on discrete
sample sets, which capture the distribution function exactly without
meshing the sphere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InequalityViolationError, NumericalError, ParameterError
from .eta import eta_truncated_many, find_truncation_point
from .hardy1d import GridFunction, QuotientReport, extremal_V_k, hardy_quotient
from .weights import _dimension, _finite, _finite_array, make_sine_weight

#: absolute slack before a Hardy-Littlewood or cap-inequality check reports
#: a violation
VIOLATION_TOL = 1e-9
#: the same slack for radial Polya-Szego, whose rearranged side is
#: interpolated onto a grid
POLYA_SZEGO_TOL = 1e-6
#: theta samples and levels of the tabulated radial rearrangement
EVAL_GRID = 2048
LEVEL_GRID = 4096


def sphere_surface_volume(m):
    """Volume of the unit m-sphere, m an integer >= 1:
    2 * pi**((m+1)/2) / Gamma((m+1)/2)."""
    x = (_dimension(m, least=1) + 1) / 2.0
    if x > 171.0:  # Gamma(x) overflows; the volume is below 1e-220 here
        return 2.0 * math.exp(x * math.log(math.pi) - math.lgamma(x))
    return 2.0 * math.pi**x / math.gamma(x)


@functools.lru_cache(maxsize=None)
def _median_sin2(n):
    """``sin^2`` of the median radius, where the cap holds a quarter of the
    n-sphere: ``cap_volume``'s branch point, once per dimension."""
    from scipy.special import betaincinv  # as in cap_volume

    return float(betaincinv(0.5 * n, 0.5, 0.5))


def cap_volume(n, alpha):
    """Volume of the geodesic cap of radius alpha on the unit n-sphere.

    ``omega_{n-1} * integral_0^alpha sin**(n-1)`` is half the sphere times
    ``frac = I_{sin^2 alpha}(n/2, 1/2)``, the regularized incomplete beta
    function (DLMF 8.17), for alpha up to pi/2 and reflected beyond.  Each
    point takes one ``betainc``: in ``sin^2`` up to the median radius, where
    ``frac = 1/2``, and as ``1 - I_{cos^2 alpha}(1/2, n/2)`` past it, where
    the subtraction keeps every digit of a result >= 1/2 and ``cos^2``
    keeps the distance to the equator.
    """
    # imported here, not at the top: only cap volumes need scipy.special,
    # and loading it would double the start-up of every 1-D command
    from scipy.special import betainc

    n = _dimension(n)
    alpha = _finite_array("alpha", alpha)
    outside = (alpha < 0.0) | (alpha > math.pi)
    if np.any(outside):
        raise DomainError(f"alpha must lie in [0, pi], got {float(alpha[outside][0])!r}")
    s = np.minimum(alpha, math.pi - alpha)
    sin2 = np.sin(s) ** 2
    lower = sin2 <= _median_sin2(n)
    frac = np.empty_like(s)
    frac[lower] = betainc(0.5 * n, 0.5, sin2[lower])
    frac[~lower] = 1.0 - betainc(0.5, 0.5 * n, np.cos(s[~lower]) ** 2)
    vol = 0.5 * sphere_surface_volume(n) * np.where(alpha > 0.5 * math.pi, 2.0 - frac, frac)
    return vol if vol.ndim else float(vol)


def inverse_cap_volume(n, volume):
    """Cap radius alpha with cap_volume(n, alpha) = volume, vectorised.

    Volumes above half the sphere are reflected; each point then takes one
    ``betaincinv``, on the branch of ``cap_volume`` that holds it: ``sin^2``
    up to ``frac = 1/2`` and ``cos^2`` from ``1 - frac`` (exact there) past it.
    """
    from scipy.special import betaincinv  # as in cap_volume

    n = _dimension(n)
    volume = _finite_array("volume", volume)
    total = sphere_surface_volume(n)
    outside = (volume <= 0.0) | (volume >= total)
    if np.any(outside):
        raise DomainError(f"volume must lie in (0, {total!r}), got {float(volume[outside][0])!r}")
    upper = volume > 0.5 * total
    frac = np.where(upper, total - volume, volume) / (0.5 * total)
    lower = frac <= 0.5
    alpha = np.empty_like(frac)
    alpha[lower] = np.arcsin(np.sqrt(betaincinv(0.5 * n, 0.5, frac[lower])))
    alpha[~lower] = np.arccos(np.sqrt(betaincinv(0.5, 0.5 * n, 1.0 - frac[~lower])))
    alpha = np.where(upper, math.pi - alpha, alpha)
    return alpha if alpha.ndim else float(alpha)


@dataclass(frozen=True)
class CapGeometry:
    """Dimension n and the cap radius a_star with |B(a_star)| = |Omega|."""

    n: int
    a_star: float

    def __post_init__(self):
        object.__setattr__(self, "n", _dimension(self.n))
        object.__setattr__(self, "a_star", _finite("a_star", self.a_star))
        if not 0.0 < self.a_star < math.pi:
            raise ParameterError(f"a_star must lie in (0, pi), got {self.a_star}")
        if self.measure == 0.0:
            raise ParameterError(
                f"the cap of radius a_star={self.a_star} on the n={self.n} sphere "
                "has a volume that underflows to 0"
            )

    @property
    def omega(self):
        """Volume of the unit (n-1)-sphere."""
        return sphere_surface_volume(self.n - 1)

    @functools.cached_property
    def measure(self):
        """Volume of the cap B(a_star), computed once per geometry."""
        return cap_volume(self.n, self.a_star)


@dataclass(frozen=True)
class SphericalProfile:
    """A radial (theta-only) piecewise-linear function on a cap, vanishing
    at the cap boundary."""

    geometry: CapGeometry
    grid: GridFunction

    def __post_init__(self):
        a = self.geometry.a_star
        if abs(self.grid.nodes[-1] - a) > 1e-14 * max(a, 1.0):
            raise ParameterError("last node must equal the cap radius a_star")

    @property
    def nodes(self):
        return self.grid.nodes

    @property
    def values(self):
        return self.grid.values


def _order(q):
    """A moment order: a finite q > 0."""
    q = _finite("q", q)
    if not q > 0.0:
        raise DomainError(f"the moment order q must be > 0, got {q}")
    return q


def _power_sum(what, weights, base, q):
    """``sum(weights * base**q)`` for base >= 0; ``NumericalError``, with no
    warning, where a large order overflows it."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(base**q * weights))
    if not math.isfinite(total):
        raise NumericalError(f"the {what} of order {q!r} overflows")
    return total


@dataclass(frozen=True)
class SampleSet:
    """Function samples on Omega together with the measure of each cell."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(_finite_array("values", self.values))
        weights = np.ascontiguousarray(_finite_array("weights", self.weights))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        if values.shape != weights.shape or values.ndim != 1 or len(values) == 0:
            raise ParameterError("values and weights must be equal-length 1-D arrays")
        if np.any(weights < 0.0):
            raise ParameterError("weights must be nonnegative")

    @property
    def total_measure(self):
        return float(np.sum(self.weights))

    def moment(self, q):
        return _power_sum("moment", self.weights, np.abs(self.values), _order(q))


def _merged_layers(s):
    """Distinct |values| sorted descending with the cumulative measures of
    their summed weights."""
    v = np.abs(s.values)
    order = np.argsort(-v, kind="stable")
    v, w = v[order], s.weights[order]
    levels, start = np.unique(-v, return_index=True)
    return -levels, np.cumsum(np.add.reduceat(w, start))


@dataclass(frozen=True)
class CapStepProfile:
    """A radial step function on a cap: ``levels[i]`` on the annulus
    between ``boundaries[i]`` and ``boundaries[i+1]``.

    Spherical rearrangements of sample sets are plateau functions, so
    this exact step representation (rather than a piecewise-linear grid
    function) preserves equimeasurability to rounding accuracy.
    """

    geometry: CapGeometry
    boundaries: np.ndarray  # length J+1, starts at 0
    levels: np.ndarray  # length J, non-increasing

    @functools.cached_property
    def cell_measures(self):
        """Volumes of the annuli, computed once per profile and read-only."""
        measures = np.diff(cap_volume(self.geometry.n, self.boundaries))
        measures.flags.writeable = False
        return measures

    def moment(self, q):
        return _power_sum("moment", self.cell_measures, self.levels, _order(q))


def _check_measure(s, geom):
    """Refuse a sample set whose total measure is not the cap volume, to
    1e-8 relative."""
    total, measure = s.total_measure, geom.measure
    if abs(total - measure) > 1e-8 * measure:
        raise ParameterError(f"sample-set measure {total} does not match the cap volume {measure}")


def spherical_rearrangement(s, geom):
    """Rearrange a sample set into the radial, non-increasing step profile
    on the cap of equal volume."""
    _check_measure(s, geom)
    levels, cum = _merged_layers(s)
    # boundary of the j-th plateau: the cap radius holding cumulative mass;
    # layers of zero weight at the top hold none, so their radius is 0
    inner = np.zeros(len(cum) - 1)
    held = cum[:-1] > 0.0
    inner[held] = inverse_cap_volume(geom.n, cum[:-1][held])
    boundaries = np.concatenate(([0.0], inner, [geom.a_star]))
    return CapStepProfile(geometry=geom, boundaries=boundaries, levels=levels)


def check_hardy_littlewood(s1, s2, geom):
    """Hardy-Littlewood: integral u*v over Omega vs its rearranged form.

    Both sample sets must live on the same cells, whose measures sum to
    the cap volume of ``geom``.  Returns ``(lhs, rhs)``
    with ``lhs = sum w*u*v`` and ``rhs = integral u* v* dsigma`` computed
    exactly on the merged plateau structure; raises if
    lhs > rhs + VIOLATION_TOL.
    """
    if s1.values.shape != s2.values.shape or not np.array_equal(s1.weights, s2.weights):
        raise ParameterError("sample sets must share the same cell structure")
    _check_measure(s1, geom)
    lhs = float(np.sum(s1.weights * s1.values * s2.values))
    lev1, cum1 = _merged_layers(s1)
    lev2, cum2 = _merged_layers(s2)
    cuts = np.union1d(cum1, cum2)
    widths = np.diff(np.concatenate(([0.0], cuts)))
    mids = cuts - 0.5 * widths
    # clip: rounding can push the last midpoint past the shorter cumsum
    u_star = lev1[np.minimum(np.searchsorted(cum1, mids), len(lev1) - 1)]
    v_star = lev2[np.minimum(np.searchsorted(cum2, mids), len(lev2) - 1)]
    rhs = float(np.sum(widths * u_star * v_star))
    if lhs > rhs + VIOLATION_TOL:
        raise InequalityViolationError(
            f"Hardy-Littlewood violated: lhs={lhs!r} > rhs={rhs!r}"
        )
    return lhs, rhs


# ---------------------------------------------------------------------------
# the singular weight rho


@functools.lru_cache(maxsize=None)
def _cap_eta_profile(n, p, a_star):
    """The cap's sine weight, which checks 1 < p < n, and its eta profile.
    Callers pass ``p`` through ``_finite`` first: the cache hashes it."""
    w = make_sine_weight(n, p, a_star)
    return w, find_truncation_point(w)


def rho_star(geom, p, theta):
    """The weight rho: (p-1)/(n-p) * eta_T(theta) inside the cap, frozen
    at its plateau value outside."""
    return float(rho_many(geom, p, [_finite("theta", theta)])[0])


def rho_many(geom, p, thetas):
    """Vectorised rho on (0, pi]."""
    n, p = geom.n, _finite("p", p)
    thetas = _finite_array("theta", thetas)
    if not ((thetas > 0.0).all() and (thetas <= math.pi).all()):
        raise DomainError("theta must lie in (0, pi]")
    _, prof = _cap_eta_profile(n, p, geom.a_star)
    # T < a_star, so eta_truncated_many is already on its plateau outside the cap
    return (p - 1.0) / (n - p) * eta_truncated_many(prof, thetas)


# ---------------------------------------------------------------------------
# Theorem-level verification on radial profiles


def verify_sphere_theorem(geom, p, u):
    """Rayleigh quotient of a radial cap profile against rho^p; raises if
    it falls below the sharp constant by more than ``VIOLATION_TOL``.

    For radial u the gradient is the theta-derivative and both sides
    reduce to weighted line integrals; since
    ((n-p)/p)^p * rho^p = ((p-1)/p)^p * eta_T^p, the quotient is the 1-D
    truncated quotient rescaled by ((n-p)/(p-1))^p.  Raises
    ``ParameterError`` when u lives on another geometry.
    """
    if u.geometry != geom:
        raise ParameterError("profile geometry does not match")
    n, p = geom.n, _finite("p", p)
    w, prof = _cap_eta_profile(n, p, geom.a_star)
    rep = hardy_quotient(w, prof, u.grid, truncated=True)
    omega = geom.omega
    scale = ((p - 1.0) / (n - p)) ** p
    quotient = rep.quotient / scale
    sharp = ((n - p) / p) ** p
    if quotient < sharp - VIOLATION_TOL:
        raise InequalityViolationError(
            f"cap inequality violated: quotient {quotient!r} < sharp constant {sharp!r}"
        )
    return QuotientReport(
        numerator=omega * rep.numerator,
        denominator=omega * scale * rep.denominator,
        quotient=quotient,
        sharp_constant=sharp,
    )


def extremal_V_hat_k(geom, p, k):
    """The cap sharpness sequence: constant head, tail-integral body up to
    the truncation angle, linear ramp to zero, zero tail."""
    w, prof = _cap_eta_profile(geom.n, _finite("p", p), geom.a_star)
    grid = extremal_V_k(w, prof, k)
    return SphericalProfile(geometry=geom, grid=grid)


# ---------------------------------------------------------------------------
# radial Polya-Szego


def _profile_abs_with_crossings(u):
    """|u| as a piecewise-linear profile, with nodes inserted at sign changes."""
    nodes, values = u.nodes, u.values
    sign_change = np.nonzero(values[:-1] * values[1:] < 0.0)[0]
    if len(sign_change):
        crossings = nodes[sign_change] - values[sign_change] * (
            np.diff(nodes)[sign_change] / np.diff(values)[sign_change]
        )
        nodes = np.sort(np.concatenate((nodes, crossings)))
        values = np.interp(nodes, u.nodes, u.values)
        snap = np.isin(nodes, crossings)
        values[snap] = 0.0
    return nodes, np.abs(values)


def _dirichlet_energy(nodes, values, vols, q):
    """integral |du/dtheta|^q dV over the cap, exact per linear cell, from
    the cap volumes ``vols`` at the nodes."""
    slopes = np.diff(values) / np.diff(nodes)
    return _power_sum("Dirichlet energy", np.diff(vols), np.abs(slopes), q)


#: 3-point Gauss-Legendre nodes on [-1, 1] and their weights
_GAUSS_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def _mu_of_levels(n, thetas, sigma, nodes, values, levels):
    """Measure of {u > level} for a nonnegative piecewise-linear radial u,
    at ascending ``levels``.

    {u > t} is a union of intervals whose ends are crossings of t, so
    mu(t) is the sum of the cap volumes at the down-crossings minus the
    sum at the up-crossings.  A cell is crossed by the levels in
    [min(v0, v1), max(v0, v1)); only those (cell, level) pairs are formed.
    The volume at a crossing x comes from the table ``sigma`` of cap
    volumes at the ascending ``thetas`` (which start at 0 and reach the
    last node): ``sigma[j]`` at the largest ``thetas[j] <= x`` plus
    ``omega_{n-1} * integral_{thetas[j]}^x sin^(n-1)`` by 3-point
    Gauss-Legendre.  On a step h the rule is off by about
    ``5e-7 (h (n-1) cot x)^7`` of the volume; with h at most
    ``a_star / (EVAL_GRID - 1)`` that stays below the rounding of the
    cap's measure wherever it is a normal float (an mpmath test holds
    n up to 400 to 1e-12 of it).
    """
    # a zero-width last cell down to 0 closes {u > t} at the cap edge
    nodes, values = np.append(nodes, nodes[-1]), np.append(values, 0.0)
    lo, hi = nodes[:-1], nodes[1:]
    v0, v1 = values[:-1], values[1:]
    first = np.searchsorted(levels, np.minimum(v0, v1), side="left")
    count = np.searchsorted(levels, np.maximum(v0, v1), side="left") - first
    cell = np.repeat(np.arange(len(lo)), count)
    level = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count - first, count)
    t = levels[level]
    a, b, u0, u1 = lo[cell], hi[cell], v0[cell], v1[cell]
    cross = np.clip(a + (t - u0) * (b - a) / (u1 - u0), a, b)
    j = np.searchsorted(thetas, cross, side="right") - 1
    half = 0.5 * (cross - thetas[j])
    gauss = np.multiply.outer(half, _GAUSS_NODES)
    gauss += (cross - half)[:, None]
    np.sin(gauss, out=gauss)
    gauss **= n - 1
    vols = sigma[j] + sphere_surface_volume(n - 1) * half * (gauss @ _GAUSS_WEIGHTS)
    signed = np.where(u0 > u1, 1.0, -1.0) * vols
    return np.bincount(level, weights=signed, minlength=len(levels))


def _invert_mu(mu, levels, sigma):
    """u* at the cap volumes ``sigma`` from mu at ascending ``levels``: the
    right-continuous inverse of mu, linear between its distinct values.

    mu is non-increasing, but rounding can lift it by an ulp, and where
    cap volumes underflow it has ties and subnormal steps.  Each distinct
    value keeps its highest and its lowest level, u* runs linearly from
    the lowest level of one value to the highest of the next, and it is
    the lowest level of the largest value from there on.  A value is taken
    as a fraction of its step in mu, never as a slope that a subnormal
    step would overflow.
    """
    mu, levels = np.minimum.accumulate(mu)[::-1], levels[::-1]
    mu, first, count = np.unique(mu, return_index=True, return_counts=True)
    top, bottom = levels[first], levels[first + count - 1]
    k = np.searchsorted(mu, sigma, side="right")  # mu[k - 1] <= sigma < mu[k]
    star = np.full(len(sigma), bottom[-1])
    inner = k < len(mu)
    k, s = k[inner], sigma[inner]
    frac = (s - mu[k - 1]) / (mu[k] - mu[k - 1])
    star[inner] = bottom[k - 1] + frac * (top[k] - bottom[k - 1])
    return star


def _rearranged(geom, nodes, vabs):
    """The rearrangement of a non-monotone ``|u|`` given at ``nodes``, its
    sign changes among them, from one table of cap volumes.

    Returns ``(thetas, sigma, star)``: ``EVAL_GRID`` thetas plus the nodes,
    their cap volumes, and u* there.  The distribution function of |u| is
    tabulated exactly on ``LEVEL_GRID`` levels plus the node values and
    inverted at ``sigma``.
    """
    thetas = np.union1d(np.linspace(0.0, geom.a_star, EVAL_GRID), nodes)
    sigma = cap_volume(geom.n, thetas)
    levels = np.union1d(np.linspace(0.0, vabs.max(), LEVEL_GRID), vabs)
    mu = _mu_of_levels(geom.n, thetas, sigma, nodes, vabs, levels)
    star = _invert_mu(mu, levels, sigma)
    star[-1] = 0.0
    return thetas, sigma, star


def radial_rearrangement(u):
    """Spherical rearrangement of a radial profile as a continuous profile.

    Already non-increasing profiles are returned unchanged (the
    rearrangement is the identity).  Otherwise u* is sampled on
    ``EVAL_GRID`` thetas plus the nodes of |u| (its sign changes
    included), with the crossing volumes of its distribution function
    taken from the cap volumes of those thetas.
    """
    geom = u.geometry
    nodes, vabs = _profile_abs_with_crossings(u)
    if np.all(np.diff(vabs) <= 0.0):
        return u if np.all(u.values >= 0.0) else SphericalProfile(
            geom, GridFunction(nodes, vabs))
    thetas, _, star = _rearranged(geom, nodes, vabs)
    return SphericalProfile(geom, GridFunction(thetas, star))


def check_polya_szego_radial(geom, q, u):
    """Polya-Szego for radial cap profiles: symmetrisation does not
    increase the q-Dirichlet energy.  Returns ``(lhs, rhs)``; raises if
    lhs < rhs - POLYA_SZEGO_TOL, and ``NumericalError`` where an energy
    overflows.

    Both energies take their cell volumes from one ``cap_volume`` call:
    the nodes of |u|, sign changes included, are among the thetas of the
    rearranged profile, and a non-increasing |u| is its own rearrangement.
    """
    q = _finite("q", q)
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if u.geometry != geom:
        raise ParameterError("profile geometry does not match")
    nodes, vabs = _profile_abs_with_crossings(u)
    if np.all(np.diff(vabs) <= 0.0):
        lhs = rhs = _dirichlet_energy(nodes, vabs, cap_volume(geom.n, nodes), q)
    else:
        thetas, sigma, star = _rearranged(geom, nodes, vabs)
        lhs = _dirichlet_energy(nodes, vabs, sigma[np.searchsorted(thetas, nodes)], q)
        rhs = _dirichlet_energy(thetas, star, sigma, q)
    if lhs < rhs - POLYA_SZEGO_TOL:
        raise InequalityViolationError(
            f"Polya-Szego violated: lhs={lhs!r} < rhs={rhs!r}"
        )
    return lhs, rhs
