"""Admissible one-dimensional weights and their structural checks.

A weight is a function ``phi`` on [0, a] with ``phi(0) = 0``, ``phi > 0``
on (0, a] and two-sided power-law growth
``c1 * t**(p-1+delta) <= phi(t) <= c2 * t**(p-1+delta)``.
Two families are built in, both with ``c2 = 1``: the pure power
``t**(p-1+delta)`` and the spherical volume element ``sin(t)**(n-1)``,
whose growth exponent fixes ``delta = n - p``.
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
    """An admissible weight ``phi = base(t)**g``, ``t**(p-1+delta)`` (power)
    or ``sin(t)**(n-1)`` (sine), with closed-form evaluators.

    The weight alone decides its family's parameters: a power weight takes
    p, delta and a, and refuses n; a sine weight takes n, p and a, and
    derives delta = n - p (a passed delta must equal it to 1e-12
    relative).  ``c1`` is derived too; ``c2`` is 1 for both families.

    Construction raises ``ParameterError`` unless p, a and delta are
    finite, delta > 0 and a > 0 (power), n is an integer >= 2 and
    0 < a < pi (sine), and ``DomainError`` unless 1 < p < n (p > 1 for
    power).  Both families are then log-concave on (0, a] in closed form.
    """

    p: float
    a: float
    kind: str
    delta: float | None = None  # derived for the sine family
    n: int | None = None  # sine family only

    def __post_init__(self):
        p, a = _finite("p", self.p), _finite("a", self.a)
        delta = None if self.delta is None else _finite("delta", self.delta)
        sine = self.kind == SINE
        if not sine and self.kind != POWER:
            raise ParameterError(f"kind must be {POWER!r} or {SINE!r}, got {self.kind!r}")
        if (self.n is None) == sine:
            need = "needs n" if sine else "takes no n"
            raise ParameterError(f"a {self.kind} weight {need}, got n={self.n!r}")
        n = _dimension(self.n) if sine else math.inf
        if not 1 < p < n:
            bound = f"satisfy 1 < p < n, got p={p}, n={n}" if sine else f"be > 1, got {p}"
            raise DomainError(f"p must {bound}")
        if sine:
            if not 0 < a < math.pi:
                raise ParameterError(f"a must lie in (0, pi), got {a}")
            if delta is not None and not math.isclose(delta, n - p, rel_tol=1e-12):
                raise ParameterError(f"a sine weight has delta = n - p = {n - p!r}, got {delta!r}")
            delta = n - p
            object.__setattr__(self, "n", n)
        else:
            if delta is None or not delta > 0:
                raise ParameterError(f"a power weight's delta must be > 0, got {delta!r}")
            if not a > 0:
                raise ParameterError(f"a must be > 0, got {a}")
        for name, value in (("p", p), ("a", a), ("delta", delta)):
            object.__setattr__(self, name, value)

    @property
    def growth_exponent(self):
        return self.p - 1.0 + self.delta

    @property
    def _g(self):
        """The exponent of ``base``: the int n - 1 for the sine family."""
        return self.n - 1 if self.kind == SINE else self.growth_exponent

    def _base(self, t):
        return np.sin(t) if self.kind == SINE else t

    @property
    def c1(self):
        # (base(t)/t)**g is 1 or decreases on (0, pi) from c2 = 1 at t -> 0
        return float((self._base(self.a) / self.a) ** self._g)

    @property
    def singular_points(self):
        """Abscissae near which quadrature panels must refine."""
        return (0.0, math.pi) if self.kind == SINE else (0.0,)

    def phi(self, t):
        return self._base(np.asarray(t, dtype=float)) ** self._g

    def log_phi_dd(self, t):
        """(log phi)'' = -g / base(t)**2, negative: phi is log-concave."""
        return -self._g / self._base(np.asarray(t, dtype=float)) ** 2

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
    """Weight ``phi(t) = sin(t)**(n-1)`` on (0, a), a < pi, with 1 < p < n
    and delta = n - p."""
    return Weight(p=p, a=a, kind=SINE, n=n)


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
    growth_ok = bool(np.all(ratio >= w.c1 * (1.0 - 1e-12)) and np.all(ratio <= 1.0 + 1e-12))
    return ValidationReport(boundary_ok, positive_ok, log_concave_ok, growth_ok,
                            float(ratio.min()), float(ratio.max()), VALIDATION_GRID)
