import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hardycap.errors import DomainError, NumericalError
from hardycap.eta import (
    eta,
    eta_bounds,
    eta_many,
    eta_truncated,
    eta_truncated_many,
    find_truncation_point,
    riccati_residual,
    tail_integral,
    tail_integrals,
)
from hardycap.weights import make_power_weight, make_sine_weight

HALF_PI = math.pi / 2


@pytest.fixture(scope="module")
def power211():
    return make_power_weight(2.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def sine32():
    return make_sine_weight(3, 2.0, HALF_PI)


class TestTailIntegral:
    def test_power_closed_form(self, power211):
        # integral_t^1 s^-2 ds = 1/t - 1
        for t in (0.05, 0.3, 0.8):
            assert_allclose(tail_integral(power211, t), 1.0 / t - 1.0, rtol=1e-12)

    def test_sine_closed_form(self, sine32):
        # integral_t^{pi/2} sin^-2 = cot t
        for t in (0.1, 0.7, 1.4):
            assert_allclose(tail_integral(sine32, t), 1.0 / math.tan(t), rtol=1e-12)

    def test_vector_matches_scalar(self, sine32):
        ts = np.array([0.05, 0.3, 0.9, 1.3])
        vec = tail_integrals(sine32, ts)
        ref = [tail_integral(sine32, t) for t in ts]
        assert_allclose(vec, ref, rtol=1e-12)

    def test_against_scipy(self):
        w = make_sine_weight(4, 3.0, 1.0)
        for t in (0.1, 0.5, 0.9):
            ref = quad(lambda s: math.sin(s) ** (-1.5), t, 1.0)[0]
            assert_allclose(tail_integral(w, t), ref, rtol=1e-10)


class TestEtaOracles:
    def test_power_closed_form(self, power211):
        ts = np.linspace(0.01, 0.99, 1000)
        assert_allclose(eta_many(power211, ts), 1.0 / (ts * (1.0 - ts)), rtol=1e-10)

    def test_sine_closed_form(self, sine32):
        ts = np.linspace(0.01, HALF_PI - 0.01, 1000)
        assert_allclose(eta_many(sine32, ts), 1.0 / (np.sin(ts) * np.cos(ts)), rtol=1e-10)

    def test_unsorted_input(self, power211):
        ts = np.array([0.7, 0.2, 0.5, 0.2])
        assert_allclose(eta_many(power211, ts), 1.0 / (ts * (1.0 - ts)), rtol=1e-10)

    def test_domain_guard(self, power211):
        with pytest.raises(DomainError):
            eta(power211, 0.0)
        with pytest.raises(DomainError):
            eta(power211, 1.0)

    def test_bounds_sandwich(self, sine32):
        for t in (0.1, 0.6, 1.2, 1.5):
            lo, hi = eta_bounds(sine32, t)
            v = eta(sine32, t)
            assert lo * (1.0 - 1e-12) <= v <= hi * (1.0 + 1e-12)

    def test_bounds_do_not_overflow(self):
        # a**e = 100**2000 overflows; (t/a)**e underflows to 0, so K = e/t
        w = make_power_weight(1.01, 20.0, 100.0)
        lo, hi = eta_bounds(w, 50.0)
        e = w.delta / (w.p - 1.0)
        assert_allclose([lo, hi], [e / 50.0, e / 50.0], rtol=1e-15)

    @pytest.mark.parametrize("t", [1.0, np.float64(1.0)], ids=["float", "numpy"])
    def test_bounds_when_scale_underflows(self, t):
        # c1 = (sin a / a)**199 underflows to 0: no finite two-sided bound
        w = make_sine_weight(200, 2.0, 3.1)
        assert w.c1 == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eta_bounds(w, t) == (0.0, math.inf)

    @pytest.mark.parametrize("a", [1.0, 3.0, 0.7])
    def test_bounds_near_endpoint(self, a):
        # K(t) = e / (t (1 - (t/a)**e)) with e = 0.07 at 50 digits
        w = make_power_weight(2.0, 0.07, a)
        t = a * (1.0 - 1e-7)
        with mpmath.workdps(50):
            e, tm = mpmath.mpf(w.delta), mpmath.mpf(t)
            exact = float(e / (tm * (1 - (tm / a) ** e)))
        lo, hi = eta_bounds(w, t)
        assert lo == hi
        assert abs(lo - exact) <= 1e-15 * exact

    def test_bounds_tight_for_power(self, power211):
        # c1 = c2 = 1 collapses the sandwich to the closed form
        lo, hi = eta_bounds(power211, 0.4)
        assert_allclose(lo, hi, rtol=1e-14)
        assert_allclose(lo, eta(power211, 0.4), rtol=1e-12)


class TestNotFinite:
    """phi**(-1/(p-1)) = sin(t)**-199 overflows for t < 0.028, so eta_a
    there is inf/inf; it raises instead of returning nan."""

    def test_eta_many_names_first_point(self):
        w = make_sine_weight(200, 2.0, 3.1)
        ts = np.array([1.0, 0.01, 0.02, 1e-3])
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match=r"t=0\.001\b"):
                eta_many(w, ts)
            # finite where phi**(-1/(p-1)) and its tail integral are
            assert np.all(np.isfinite(eta_many(w, [1.0, 2.0, 3.0])))

    def test_scalar_eta(self):
        w = make_sine_weight(200, 2.0, 3.1)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="not finite"):
            eta(w, 0.01)

    @pytest.mark.parametrize("make,args", [
        (make_sine_weight, (200, 2.0, 1.0)),
        (make_power_weight, (1.01, 1.0, 1.0)),
    ])
    def test_truncation_point_names_the_overflow(self, make, args):
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="= inf"):
            find_truncation_point(make(*args))


class TestNonFiniteInput:
    """A NaN point raises instead of hanging the quadrature or returning
    the plateau value."""

    def test_eta_many(self, sine32):
        with pytest.raises(DomainError):
            eta_many(sine32, [0.5, math.nan])

    def test_tail_integrals(self, sine32):
        with pytest.raises(DomainError, match="finite"):
            tail_integrals(sine32, [math.nan])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_eta_truncated_many(self, sine32, t):
        prof = find_truncation_point(sine32)
        with pytest.raises(DomainError, match="finite"):
            eta_truncated_many(prof, [1.0, t])


class TestRiccati:
    @pytest.mark.parametrize("w", [
        make_power_weight(2.0, 1.0, 1.0),
        make_sine_weight(3, 2.0, HALF_PI),
    ])
    def test_small_residual(self, w):
        h = 1e-5 * w.a
        ts = w.a * np.linspace(0.1, 0.85, 20)
        for t in ts:
            assert riccati_residual(w, t, h) < 1e-6

    @pytest.mark.parametrize("w", [
        make_power_weight(2.0, 1.0, 1.0),
        make_sine_weight(3, 2.0, HALF_PI),
    ])
    def test_second_order(self, w):
        # halving h divides the residual by about 4 (median over points,
        # since the leading error term can vanish at symmetric points)
        h = 1e-4 * w.a
        ts = w.a * np.linspace(0.15, 0.8, 9)
        ratios = [riccati_residual(w, t, h) / riccati_residual(w, t, h / 2) for t in ts]
        assert abs(float(np.median(ratios)) - 4.0) < 0.5


class TestTruncation:
    def test_power_minimiser(self, power211):
        prof = find_truncation_point(power211)
        # eta = 1/(t(1-t)) has its minimum 4 at t = 1/2
        assert_allclose(prof.T, 0.5, atol=1e-8)
        assert_allclose(prof.eta_at_T, 4.0, rtol=1e-12)

    def test_sine_minimiser(self, sine32):
        prof = find_truncation_point(sine32)
        assert_allclose(prof.T, math.pi / 4, atol=1e-8)
        assert_allclose(prof.eta_at_T, 2.0, rtol=1e-12)

    def test_sine42_brute_force(self):
        # independent oracle: scan the closed-form eta for sin^3 on a
        # dense uniform grid
        w = make_sine_weight(4, 2.0, HALF_PI)

        def eta_exact(t):
            # tail integral of sin^-3: d/ds [-cos/(2 sin^2) + (1/2) ln tan(s/2)]
            def F(s):
                return -math.cos(s) / (2.0 * math.sin(s) ** 2) + 0.5 * math.log(
                    math.tan(s / 2.0)
                )

            return math.sin(t) ** -3 / (F(HALF_PI) - F(t))

        grid = np.linspace(1e-4, HALF_PI - 1e-4, 1_000_000)
        F = -np.cos(grid) / (2.0 * np.sin(grid) ** 2) + 0.5 * np.log(np.tan(grid / 2))
        vals = np.sin(grid) ** -3 / (0.0 - F)  # F(pi/2) = 0
        t_best = grid[np.argmin(vals)]
        prof = find_truncation_point(w)
        assert abs(prof.T - t_best) < 1e-5
        assert_allclose(prof.eta_at_T, eta_exact(prof.T), rtol=1e-10)

    def test_truncated_plateau(self, sine32):
        prof = find_truncation_point(sine32)
        assert eta_truncated(prof, 1.0) == prof.eta_at_T
        assert_allclose(eta_truncated(prof, 0.3), eta(sine32, 0.3), rtol=1e-14)
        ts = np.array([0.2, 0.9, 1.4])
        vals = eta_truncated_many(prof, ts)
        assert_allclose(vals[0], eta(sine32, 0.2), rtol=1e-12)
        assert vals[1] == prof.eta_at_T and vals[2] == prof.eta_at_T

    def test_monotone_after_truncation(self, sine32):
        prof = find_truncation_point(sine32)
        ts = np.linspace(0.01, HALF_PI - 0.01, 400)
        vals = eta_truncated_many(prof, ts)
        assert np.all(np.diff(vals) <= 1e-10)
