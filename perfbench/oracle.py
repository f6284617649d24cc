"""Independent checks of hardycap results.

Nothing here calls the library's quadrature, eta or weight code.  Where the
tail integral ``I(t) = int_t^a phi**(-1/(p-1))`` has a closed form (every
power weight, and the sine weight with n = 3, p = 2) the Hardy quotient of
a piecewise-linear grid function is re-evaluated with closed-form cell
integrals of phi and ``scipy.integrate.quad`` on each cell of the
denominator.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import minimize_scalar

class ClosedFormWeight:
    """phi, its cell integrals and the tail integral I in closed form."""

    def __init__(self, kind, p, a, delta=None, n=None):
        if kind == "sine" and not (n == 3 and p == 2.0):
            raise ValueError("closed-form tail integral only for sine n=3, p=2")
        self.kind, self.p, self.a, self.delta, self.n = kind, p, a, delta, n
        if kind == "power":
            self.g = p - 1.0 + delta
            self.e = self.g / (p - 1.0)

    @classmethod
    def available(cls, kind, p, n=None):
        return kind == "power" or (n == 3 and p == 2.0)

    def phi(self, t):
        return t**self.g if self.kind == "power" else math.sin(t) ** 2

    def phi_cell(self, lo, hi):
        """int_lo^hi phi, vectorised over cells."""
        # written without the cancellation of F(hi) - F(lo) on tiny cells
        h = hi - lo
        if self.kind == "power":
            e = self.g + 1.0
            return lo**e * np.expm1(e * np.log1p(h / lo)) / e
        return 0.5 * h - 0.5 * np.cos(hi + lo) * np.sin(h)

    def tail(self, t):
        a = self.a
        if self.kind == "power":
            # a**(1-e) * ((t/a)**(1-e) - 1) / (e-1), without cancellation near a
            x = (1.0 - self.e) * math.log1p((t - a) / a)
            return a ** (1.0 - self.e) * math.expm1(x) / (self.e - 1.0)
        return math.sin(a - t) / (math.sin(t) * math.sin(a))  # cot t - cot a

    def eta(self, t):
        return self.phi(t) ** (-1.0 / (self.p - 1.0)) / self.tail(t)

    def truncation_point(self):
        """Minimiser of eta on (0, a) and the minimum value."""
        a = self.a
        res = minimize_scalar(self.eta, bounds=(a * 1e-6, a * (1.0 - 1e-6)),
                              method="bounded", options={"xatol": 1e-13 * a})
        return float(res.x), float(res.fun)


def hardy_quotient(cw, nodes, values, truncated=False, T=None, upper=None):
    """Hardy quotient of a piecewise-linear u (constant before nodes[0],
    zero at nodes[-1] = a) against eta, or eta frozen after T.

    ``upper`` cuts both integrals short of a, as the library's endpoint
    guard does; None integrates up to a.
    """
    p = cw.p
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    slopes = np.diff(values) / np.diff(nodes)
    end = nodes[-1] if upper is None else upper
    cell_hi = np.minimum(nodes[1:], end)
    keep = cell_hi > nodes[:-1]
    numerator = float(np.sum(
        np.abs(slopes[keep]) ** p * cw.phi_cell(nodes[:-1][keep], cell_hi[keep])
    ))

    eta_T = cw.eta(T) if truncated else None

    def weight(t):
        e = eta_T if truncated and t > T else cw.eta(t)
        return e**p * cw.phi(t)

    denominator = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for i in range(len(slopes)):
            lo, hi, v0, s = nodes[i], min(nodes[i + 1], end), values[i], slopes[i]
            if (v0 == 0.0 and s == 0.0) or hi <= lo:
                continue
            pts = [T] if truncated and lo < T < hi else None
            val, _ = quad(lambda t: abs(v0 + s * (t - lo)) ** p * weight(t), lo, hi,
                          points=pts, epsabs=0.0, epsrel=1e-13, limit=200)
            denominator += val
    t0 = nodes[0]
    if values[0] != 0.0:
        # eta^p phi has the primitive -I**(1-p)/(p-1), and I(0+) = infinity
        if truncated and t0 > T:
            head = cw.tail(T) ** (1.0 - p) / (p - 1.0)
            head += eta_T**p * float(cw.phi_cell(np.array(T), np.array(t0)))
        else:
            head = cw.tail(t0) ** (1.0 - p) / (p - 1.0)
        denominator += abs(values[0]) ** p * head
    return numerator / denominator


def rel_err(x, ref):
    return abs(x - ref) / abs(ref)
