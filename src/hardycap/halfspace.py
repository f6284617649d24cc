"""The half-space angular inequality and its sharpness demonstration.

For u on the upper half-space written in polar coordinates (r, theta),
the angular part of the gradient satisfies

    integral |D_theta u|^p dx >= ((n-p)/p)^p integral |u|^p zeta^p / |x|^p dx,

where zeta(theta) = rho_{pi/2}(theta) is singular on the vertical axis.
Verification is restricted to separable fields u = R(r) * Theta(theta):
both sides then factor through Fubini into the same radial moment times
an angular integral, so the quotient is exactly the angular cap quotient
at cap radius pi/2.  Sharpness is demonstrated with the cap extremal
sequence in theta and a narrow triangular bump in r.  A radial moment
takes one 16-point Gauss panel per cell of R, refined towards the roots
of R, where |R|^p is only C^p: on the bump it is within 9e-14 of 40-digit
mpmath for 1.1 <= p <= 2.5.  zeta^p / |x|^p over a half ball is closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ParameterError
from .hardy1d import GridFunction, QuotientReport
from .quadrature import GL16, panel_nodes, refine_breakpoints
from .sphere import (
    CapGeometry,
    SphericalProfile,
    _cap_eta_profile,
    cap_volume,
    extremal_V_hat_k,
    rho_star,
    verify_sphere_theorem,
)
from .weights import _dimension, _finite

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class SeparableField:
    """A half-space function R(r) * Theta(theta).

    The radial factor has compact support in (0, infinity): it vanishes
    at both ends of its grid.  The angular factor lives on the cap of
    radius pi/2 and vanishes at the equator.
    """

    radial: GridFunction
    angular: SphericalProfile

    def __post_init__(self):
        r = self.radial
        if r.nodes[0] <= 0.0:
            raise ParameterError("radial support must lie in (0, infinity)")
        if r.values[0] != 0.0:
            raise ParameterError("radial factor must vanish at both support ends")
        if abs(self.angular.geometry.a_star - _HALF_PI) > 1e-14:
            raise ParameterError("angular factor must live on the cap of radius pi/2")


def _half_space_geometry(n):
    return CapGeometry(n=n, a_star=_HALF_PI)


def zeta(n, p, theta):
    """The half-space singularity zeta(theta) = rho_{pi/2}(theta)."""
    theta = _finite("theta", theta)
    if theta > _HALF_PI:
        raise DomainError(f"theta must lie in (0, pi/2], got {theta}")
    return rho_star(_half_space_geometry(n), p, theta)


def _radial_moments(radial, p, *exponents):
    """integral R**p r**e dr over the support for each exponent e, from one
    node set; raises ``NumericalError`` where one is 0 or not finite."""
    nodes, v = radial.nodes, radial.values
    # the cells whose linear piece has a root in them: a sign change or one zero end
    i = np.flatnonzero((np.sign(v[:-1]) * np.sign(v[1:]) <= 0.0) & (v[:-1] != v[1:]))
    roots = np.unique(nodes[i] + (nodes[i + 1] - nodes[i]) * (v[i] / (v[i] - v[i + 1])))
    r, half = panel_nodes(refine_breakpoints(nodes, roots.tolist())[0])
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = np.abs(radial(r)) ** p
        moments = [float(half @ (GL16.weights @ (weighted * r**e))) for e in exponents]
    for e, moment in zip(exponents, moments):
        if not 0.0 < moment < math.inf:
            raise NumericalError(f"the radial moment integral R**p r**{e} dr is {moment!r}")
    return moments


def verify_halfspace(n, p, f):
    """Rayleigh quotient of a separable field; equals the angular quotient.

    The radial moment integral R^p r^{n-p} dr multiplies both the
    numerator and the denominator, so it is computed once and the
    quotient itself is independent of R.  Raises ``ParameterError`` when
    n is not the dimension of the angular factor's geometry, and
    ``NumericalError`` where the moment is 0 or not finite.
    """
    if n != f.angular.geometry.n:
        raise ParameterError(
            f"n={n} does not match the angular factor's sphere dimension {f.angular.geometry.n}")
    angular = verify_sphere_theorem(f.angular.geometry, p, f.angular)
    (moment,) = _radial_moments(f.radial, p, n - p)
    return QuotientReport(
        numerator=moment * angular.numerator,
        denominator=moment * angular.denominator,
        quotient=angular.quotient,
        sharp_constant=angular.sharp_constant,
    )


def dirac_bump(eps, p, n):
    """Triangular radial bump of half-width eps at r = 1, normalised so
    that integral R**p r**n dr = 1.  p > 1 and n is an integer >= 2;
    raises ``NumericalError`` where that moment is 0 or not finite."""
    eps, p, n = _finite("eps", eps), _finite("p", p), _dimension(n)
    if not 0.0 < eps < 0.5:
        raise ParameterError(f"eps must lie in (0, 1/2), got {eps}")
    if not p > 1:
        raise DomainError(f"p must be > 1, got {p}")
    raw = GridFunction(np.array([1.0 - eps, 1.0, 1.0 + eps]), np.array([0.0, 1.0, 0.0]))
    (mass,) = _radial_moments(raw, p, n)
    return raw.scaled(mass ** (-1.0 / p))


@dataclass(frozen=True)
class SharpnessReport:
    """Full half-space quotient of Theta_k(theta) * R_eps(r), with the two
    radial moments whose ratio tends to 1 as eps shrinks."""

    ratio: float
    moment_n: float
    moment_n_minus_p: float
    sharp_constant: float

    @property
    def moment_ratio(self):
        return self.moment_n / self.moment_n_minus_p


def sharpness_sequence_halfspace(n, p, k, eps):
    """Quotient of the Dirac-bump separable extremal element.

    The quotient is that of the angular factor (``verify_halfspace``), the
    cap extremal sequence at index k, and tends to the sharp constant as k
    grows; the bump concentrates at r = 1, so both moments approach 1.
    """
    geom = _half_space_geometry(n)
    theta_k = extremal_V_hat_k(geom, p, k)
    moment_n, moment_n_minus_p = _radial_moments(dirac_bump(eps, p, n), p, n, n - p)
    rep = verify_sphere_theorem(geom, p, theta_k)
    return SharpnessReport(
        ratio=rep.quotient,
        moment_n=moment_n,
        moment_n_minus_p=moment_n_minus_p,
        sharp_constant=rep.sharp_constant,
    )


def zeta_integrability_check(n, p, R):
    """integral over B_R intersected with the half-space of zeta^p / |x|^p.

    Polar coordinates split it into the radial moment R^{n+1-p}/(n+1-p)
    and omega_{n-1} * integral_0^{pi/2} zeta^p phi, phi = sin^{n-1}, which
    is closed: below T, eta^p phi = -I' I^{-p} with I(t) = integral_t^{pi/2}
    phi^{-1/(p-1)} has the primitive I^{1-p}/(p-1), which is 0 at 0 (p < n)
    and phi(T) eta(T)^{p-1}/(p-1) at T; above T, zeta is its plateau zeta_T
    over a cap volume.  As eta'(T) = 0, an error in T enters only to second
    order.  Raises ``DomainError`` when the value overflows.
    """
    R, p = _finite("R", R), _finite("p", p)
    if R <= 0.0:
        raise DomainError(f"R must be > 0, got {R}")
    geom = _half_space_geometry(n)
    w, prof = _cap_eta_profile(n, p, _HALF_PI)
    zeta_T = (p - 1.0) / (n - p) * prof.eta_at_T
    try:
        value = R ** (n + 1 - p) / (n + 1 - p) * zeta_T ** (p - 1.0) * (
            geom.omega * float(w.phi(prof.T)) / (n - p)
            + zeta_T * (geom.measure - cap_volume(n, prof.T)))
    except OverflowError:  # a float power overflows by raising, not to inf
        value = math.inf
    if not math.isfinite(value):
        raise DomainError("integral did not evaluate to a finite value")
    return value
