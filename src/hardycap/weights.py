"""Admissible one-dimensional weights and their structural checks.

A weight is a function ``phi`` on [0, a] with ``phi(0) = 0``, ``phi > 0``
on (0, a] and two-sided power-law growth
``c1 * t**(p-1+delta) <= phi(t) <= c2 * t**(p-1+delta)``.
Two families are built in: the pure power ``t**(p-1+delta)`` and the
spherical volume element ``sin(t)**(n-1)`` (which satisfies the growth
bound with ``delta = n - p``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ParameterError

POWER = "power"
SINE = "sine"
#: sample points of the ``validate_weight`` diagnostic
VALIDATION_GRID = 1024


@dataclass(frozen=True)
class Weight:
    """An admissible weight with closed-form evaluators.

    ``delta`` sets the exponent of the two-sided power-law growth bound.
    Its constants ``c1`` and ``c2`` are derived from the family, not
    stored, so they always agree with ``phi``: 1 for the power family, the
    extrema of ``phi(t) / t**(p-1+delta)`` on (0, a] for the sine family.

    Construction checks admissibility and raises ``ParameterError``
    otherwise: p > 1, delta > 0 and a > 0 for the power family, an integer
    n >= 2, 1 < p < n and 0 < a < pi for the sine family, and finite p, a
    and delta.  Both families are then log-concave on (0, a] in closed
    form (see ``log_phi_dd``).
    """

    p: float
    a: float
    kind: str
    delta: float
    n: int = 0  # sine family only

    def __post_init__(self):
        for name in ("p", "a", "delta"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        p, a = self.p, self.a
        if self.kind == POWER:
            if not p > 1:
                raise ParameterError(f"p must be > 1, got {p}")
            if not self.delta > 0:
                raise ParameterError(f"delta must be > 0, got {self.delta}")
            if not a > 0:
                raise ParameterError(f"a must be > 0, got {a}")
        elif self.kind == SINE:
            n = _dimension(self.n)
            if not 1 < p < n:
                raise ParameterError(f"p must satisfy 1 < p < n, got p={p}, n={n}")
            if not 0 < a < math.pi:
                raise ParameterError(f"a must lie in (0, pi), got {a}")
            object.__setattr__(self, "n", n)
        else:
            raise ParameterError(f"kind must be {POWER!r} or {SINE!r}, got {self.kind!r}")

    @property
    def c1(self):
        if self.kind == SINE:
            # (sin t / t)**(n-1) decreases on (0, pi); its minimum is at t = a
            return float((math.sin(self.a) / self.a) ** (self.n - 1))
        return 1.0

    @property
    def c2(self):
        # 1 for both families: the sine ratio tends to its supremum 1 at t -> 0
        return 1.0

    @property
    def growth_exponent(self):
        return self.p - 1.0 + self.delta

    @property
    def singular_points(self):
        """Abscissae near which quadrature panels must refine."""
        if self.kind == SINE:
            return (0.0, math.pi)
        return (0.0,)

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == POWER:
            return t ** self.growth_exponent
        return np.sin(t) ** (self.n - 1)

    def log_phi_dd(self, t):
        """Second derivative of log(phi); negative iff phi is log-concave."""
        t = np.asarray(t, dtype=float)
        if self.kind == POWER:
            return -self.growth_exponent / t**2
        return -(self.n - 1) / np.sin(t) ** 2

    def inv_phi_pow(self, t):
        """phi(t) ** (-1/(p-1)), the integrand of the tail integral."""
        return self.phi(t) ** (-1.0 / (self.p - 1.0))


def _finite(name, value):
    """``value`` as a finite float.  Strings, None and other non-numbers
    raise ``ParameterError`` rather than being converted; NaN and the
    infinities raise ``DomainError``, as non-finite points do elsewhere, and
    so does an integer too large for a float."""
    if not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _finite_array(name, values):
    """``values`` as a float array, the array form of ``_finite``.
    Booleans, integers and floats pass; strings, None and other objects
    raise ``ParameterError`` rather than being converted, and NaN or an
    infinity raises ``DomainError`` naming the first one."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ParameterError(f"{name} must be real numbers, got dtype {values.dtype}")
    values = values.astype(float, copy=False)
    finite = np.isfinite(values)
    if not finite.all():
        raise DomainError(f"{name} must be finite, got {float(values[~finite][0])!r}")
    return values


def make_power_weight(p, delta, a):
    """Weight ``phi(t) = t**(p-1+delta)``."""
    return Weight(p=p, a=a, kind=POWER, delta=delta)


def _dimension(n, least=2):
    """``n`` as an int >= ``least``; integral floats and numpy integers
    pass.  Other values raise ``ParameterError`` rather than being
    truncated; integers below ``least`` raise ``DomainError``, and so does
    an integer too large for a float, as in ``_finite``."""
    try:
        whole = int(n)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != n:
        raise ParameterError(f"n must be an integer >= {least}, got {n!r}")
    if whole < least:
        raise DomainError(f"n must be an integer >= {least}, got {n!r}")
    _finite("n", whole)
    return whole


def make_sine_weight(n, p, a):
    """Weight ``phi(t) = sin(t)**(n-1)`` on (0, a), a < pi, with 1 < p < n."""
    # checked first, so that n = "3" or p = "2" is refused by name, not by n - p
    n, p = _dimension(n), _finite("p", p)
    return Weight(p=p, a=a, kind=SINE, delta=n - p, n=n)


@dataclass(frozen=True)
class ValidationReport:
    boundary_ok: bool
    positive_ok: bool
    log_concave_ok: bool
    growth_ok: bool
    c1: float
    c2: float
    grid_size: int

    @property
    def all_ok(self):
        return self.boundary_ok and self.positive_ok and self.log_concave_ok and self.growth_ok


def validate_weight(w):
    """Check the structural assumptions of a weight on ``VALIDATION_GRID``
    interior sample points."""
    grid = w.a * np.geomspace(1e-10, 1.0, VALIDATION_GRID)
    vals = w.phi(grid)
    # phi(0) = 0 and phi rising away from 0, whatever the growth exponent
    boundary_ok = bool(w.phi(0.0) == 0.0 and np.all(np.diff(vals[:16]) > 0.0))
    positive_ok = bool(np.all(vals > 0.0))
    log_concave_ok = bool(np.all(w.log_phi_dd(grid) < 0.0))
    # the ratio means nothing where t**growth underflows (positive_ok
    # reports the underflow of phi itself)
    power = grid**w.growth_exponent
    normal = power >= np.finfo(float).tiny
    if not np.any(normal):
        raise NumericalError(
            f"t**{w.growth_exponent:g} underflows on the whole grid (0, {w.a:g}]")
    ratio = vals[normal] / power[normal]
    growth_ok = bool(
        np.all(ratio >= w.c1 * (1.0 - 1e-12)) and np.all(ratio <= w.c2 * (1.0 + 1e-12))
    )
    return ValidationReport(
        boundary_ok=boundary_ok,
        positive_ok=positive_ok,
        log_concave_ok=log_concave_ok,
        growth_ok=growth_ok,
        c1=float(ratio.min()),
        c2=float(ratio.max()),
        grid_size=VALIDATION_GRID,
    )
