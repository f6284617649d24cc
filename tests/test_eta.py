import importlib
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import riccati_residual
from hardycap import quadrature
from hardycap.errors import DomainError, NumericalError, ParameterError
from hardycap.eta import (
    BRACKET_GRID,
    ENDPOINT_GUARD,
    GOLDEN_TOL,
    eta,
    eta_bounds,
    eta_many,
    eta_truncated_many,
    find_truncation_point,
    tail_integral,
    tail_integrals,
)
from hardycap.weights import make_power_weight, make_sine_weight
from test_reference_pins import _load_reference_module

HALF_PI = math.pi / 2
#: the module; ``hardycap.eta`` is also the name of the function
eta_module = importlib.import_module("hardycap.eta")


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


class TestTailIntegralResolution:
    """Where the quadrature's panel-width floor would bind, tail integrals
    raise instead of returning a value that is too small."""

    def test_scalar_below_floor(self, power211):
        # this returned 5.43e17; the exact value is 1e20
        with pytest.raises(DomainError, match="cannot resolve"):
            tail_integral(power211, 1e-20)

    def test_vector_below_floor(self, power211):
        with pytest.raises(DomainError, match="cannot resolve"):
            tail_integrals(power211, [1e-20, 0.5])

    def test_sine_endpoint_next_to_pi(self):
        # a is 8.9e-16 from pi: this returned 8.3e14, 16% below cot 1 - cot a
        w = make_sine_weight(3, 2.0, math.pi - 1e-15)
        with pytest.raises(DomainError, match="cannot resolve"):
            tail_integral(w, 1.0)

    def test_sine_accuracy_next_to_pi(self):
        # the rounded nodes next to a sit ulp(pi)-close to pi compared with
        # their distance pi - a, and nothing raises: the relative error grows
        # like ulp(pi)/(pi - a) (3.9e-10 at pi - a = 1e-8, up to 6.7e-9 for
        # pi - a in [1e-8, 1e-7]), so 1e-9 holds from pi - a = 1e-6 on
        mpmath.mp.dps = 40
        for gap in np.geomspace(1e-8, 1.0, 81):
            a = math.pi - gap
            w = make_sine_weight(3, 2.0, a)
            exact = mpmath.cot(1) - mpmath.cot(mpmath.mpf(a))
            bound = max(math.ulp(math.pi) / (math.pi - a), 1e-15)
            for tail in (tail_integral(w, 1.0), tail_integrals(w, [1.0])[0]):
                err = float(abs(tail / exact - 1))
                assert err <= bound, (gap, err)
                assert gap < 1e-6 or err <= 1e-9, (gap, err)

    @pytest.mark.parametrize("a", [2e-3, 0.1, 1.0, 100.0])
    def test_endpoint_guard_legal(self, a):
        # I(t) = 1/t - 1/a for phi = t**2, at the lower guard a * 1e-12
        w = make_power_weight(2.0, 1.0, a)
        t = a * ENDPOINT_GUARD
        exact = (a - t) / (a * t)
        assert_allclose(tail_integral(w, t), exact, rtol=1e-13)
        assert_allclose(tail_integrals(w, [t, 0.5 * a])[0], exact, rtol=1e-13)


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

    @pytest.mark.parametrize("make,args", [
        (make_power_weight, (2.0, 1.0, 1.0)),
        (make_sine_weight, (3, 2.0, HALF_PI)),
        (make_sine_weight, (200, 2.0, 3.1)),  # r underflows to 0: (0, inf)
        (make_sine_weight, (10, 1.01, 2.0)),  # K/r overflows: hi = inf
    ])
    def test_bounds_take_arrays(self, make, args):
        w = make(*args)
        ts = w.a * np.geomspace(1e-6, 1.0 - 1e-6, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = eta_bounds(w, ts)
            pointwise = np.array([eta_bounds(w, float(t)) for t in ts])
        assert lo.shape == hi.shape == ts.shape
        assert_allclose(np.column_stack((lo, hi)), pointwise, rtol=1e-15)
        assert np.all(lo >= 0.0) and np.all(lo <= hi)

    @given(st.booleans(), st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_bounds_bracket_eta_on_drawn_weights(self, sine, u):
        # the weights of the CLI workload's eta-table ops, both families, on
        # the eta-table grid and within the benchmark's tolerance
        wl = _load_reference_module().wl
        params = wl._draw_sine(u, False) if sine else wl._draw_power(u, False)
        w = wl.make_weight("sine" if sine else "power", params)
        ts = w.a * np.geomspace(1e-6, 1.0 - 1e-6, 64)
        lo, hi = eta_bounds(w, ts)
        values = eta_many(w, ts)
        assert np.all(lo * (1.0 - wl.BOUND_RTOL) <= values)
        assert np.all(values <= hi * (1.0 + wl.BOUND_RTOL))

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
        # sin(t)**-199 overflows next to a = 3.13, so every tail does
        (make_sine_weight, (200, 2.0, 3.13)),
        (make_power_weight, (1.01, 1.0, 1.0)),
        (make_sine_weight, (3, 1.01, 1.5)),
        (make_sine_weight, (40, 1.05, 1.0)),
        (make_power_weight, (1.01, 20.0, 100.0)),
    ])
    def test_truncation_point_names_the_overflow(self, make, args):
        # no np.errstate here: under the error::RuntimeWarning:hardycap
        # filter, an overflow warning from the library escaped as a bare
        # RuntimeWarning before the NumericalError
        with pytest.raises(NumericalError, match="= inf"):
            find_truncation_point(make(*args))


class TestTailOverflow:
    """sin(t)**-199 overflows next to a = 3.13, so every tail integral is
    inf: eta_a there was inf/inf = 0, with RuntimeWarnings from the scalar
    path."""

    W = make_sine_weight(200, 2.0, 3.13)

    def test_no_zero_eta(self):
        with pytest.raises(NumericalError, match=r"t=1\.0\b.*= inf"):
            eta_many(self.W, [1.5, 1.0])
        with pytest.raises(NumericalError, match=r"t=1\.0\b.*over its tail integral inf"):
            eta(self.W, 1.0)
        with pytest.raises(NumericalError, match=r"t=1\.5\b.*= inf"):
            tail_integrals(self.W, [1.5, 2.0])

    def test_scalar_tail_integral(self):
        # this returned inf, with "divide by zero encountered in power"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"t=1\.0\b.*= inf"):
                tail_integral(self.W, 1.0)


class TestPointArrays:
    """eta_many and tail_integrals take a 1-D array of points."""

    def test_empty(self, sine32):
        for f in (eta_many, tail_integrals):
            out = f(sine32, [])
            assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("ts,shape", [(0.5, r"\(\)"), ([[0.5, 1.0]], r"\(1, 2\)")],
                             ids=["0-d", "2-D"])
    def test_not_one_dimensional(self, sine32, ts, shape):
        # a bare IndexError or TypeError escaped from the tail sweep
        for f in (eta_many, tail_integrals):
            with pytest.raises(ParameterError, match=f"1-D.*shape {shape}"):
                f(sine32, ts)


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
        plateau, below = eta_truncated_many(prof, [1.0, 0.3])
        assert plateau == prof.eta_at_T
        assert_allclose(below, eta(sine32, 0.3), rtol=1e-14)
        ts = np.array([0.2, 0.9, 1.4])
        vals = eta_truncated_many(prof, ts)
        assert_allclose(vals[0], eta(sine32, 0.2), rtol=1e-12)
        assert vals[1] == prof.eta_at_T and vals[2] == prof.eta_at_T

    def test_monotone_after_truncation(self, sine32):
        prof = find_truncation_point(sine32)
        ts = np.linspace(0.01, HALF_PI - 0.01, 400)
        vals = eta_truncated_many(prof, ts)
        assert np.all(np.diff(vals) <= 1e-10)

    @pytest.mark.parametrize("w", [make_sine_weight(3, 2.0, HALF_PI),
                                   make_power_weight(2.0, 1.0, 1.0)], ids=["sine", "power"])
    def test_one_refinement_per_search(self, w, monkeypatch):
        # the bracket sweep refines its 256 points in one call; then each
        # golden point integrates one segment with the bare core, and the
        # loop calls neither refine_breakpoints nor the public eta
        events = []

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                events.append((name, args))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(quadrature, "refine_breakpoints")
        for name in ("eta", "integrate", "_eta_at", "_integrate"):
            spy(eta_module, name)
        find_truncation_point(w)
        names = [name for name, _ in events]
        golden = (len(names) - 1) // 2
        assert golden > 40
        assert names == ["refine_breakpoints"] + ["_eta_at", "_integrate"] * golden
        assert len(events[0][1][0]) == BRACKET_GRID + 1

    @pytest.mark.parametrize("p,delta,a", [(3.0, 50.0, 1.0), (2.0, 60.0, 1.0),
                                           (4.0, 262.0, 1.0), (1.5, 20.0, 2.0)])
    def test_steep_power_past_subnormal_grid_points(self, p, delta, a):
        # phi = t**(p-1+delta) is subnormal (or 0) at the first bracket
        # points a*1e-6...; the grid starts where it is normal.  eta is
        # (e-1)/(t - t**e a**(1-e)), e = 1 + delta/(p-1), least at
        # a e**(-1/(e-1)); the search is within 5e-9 of it
        w = make_power_weight(p, delta, a)
        e = 1.0 + delta / (p - 1.0)
        assert abs(find_truncation_point(w).T - a * e ** (-1.0 / (e - 1.0))) < 1e-8

    def test_steep_sine_past_subnormal_grid_points(self):
        # sin(t)**199 is subnormal below t = 0.028, where 1/phi overflowed
        # on the first bracket points; from there on eta is finite, and
        # T is its minimiser, against mpmath
        w = make_sine_weight(200, 2.0, 1.0)
        prof = find_truncation_point(w)

        def eta_mp(t):
            t = mpmath.mpf(t)
            return mpmath.sin(t)**-199 / mpmath.quad(lambda s: mpmath.sin(s)**-199, [t, 1])

        with mpmath.workdps(30):
            assert_allclose(prof.eta_at_T, float(eta_mp(prof.T)), rtol=1e-13)
            assert eta_mp(prof.T - 1e-4) > eta_mp(prof.T) < eta_mp(prof.T + 1e-4)

    def test_subnormal_on_the_whole_grid(self):
        w = make_power_weight(2.0, 800.0, 1e-3)
        with pytest.raises(NumericalError, match="subnormal on the whole bracket grid"):
            find_truncation_point(w)


def _golden_on_public_eta(w):
    """The golden-section search for T written on the public, checked
    ``eta``: the oracle for the bits of ``find_truncation_point``."""
    grid = w.a * np.geomspace(1e-6, 1.0 - 1e-6, BRACKET_GRID)
    grid = grid[w.phi(grid) >= sys.float_info.min]
    i = int(np.argmin(eta_many(w, grid)))
    lo, hi = grid[i - 1], grid[i + 1]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = eta(w, c), eta(w, d)
    while hi - lo > GOLDEN_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = eta(w, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = eta(w, d)
    t_min = 0.5 * (lo + hi)
    return float(t_min).hex(), eta(w, t_min).hex()


def _search_bits(w):
    prof = find_truncation_point(w)
    return prof.T.hex(), prof.eta_at_T.hex()


class TestGoldenPins:
    """T, eta(T) and one tail integral, pinned in hex.  A change in the
    order in which ``_integrate`` sums its nodes moves these bits, and
    TestGoldenSameBits cannot see it: both of its searches go through
    ``_integrate``."""

    @pytest.mark.parametrize("make,args,T,eta_at_T", [
        (make_sine_weight, (3, 2.0, HALF_PI), "0x1.921fb55f67c1dp-1", "0x1.0000000000000p+1"),
        (make_power_weight, (2.0, 1.0, 1.0), "0x1.0000000fb5713p-1", "0x1.0000000000001p+2"),
        (make_sine_weight, (6, 2.5, 3 * math.pi / 4), "0x1.58e26ae677c5dp+0",
         "0x1.8415c0e0c7c9dp-1"),
        (make_power_weight, (3.0, 2.0, 0.5), "0x1.0000000cb0c22p-2", "0x1.0000000000000p+3"),
    ], ids=["sine-3-2", "power-2-1", "sine-6-2.5", "power-3-2"])
    def test_truncation_point(self, make, args, T, eta_at_T):
        assert _search_bits(make(*args)) == (T, eta_at_T)

    def test_tail_integral(self, sine32):
        assert tail_integral(sine32, 0.7).hex() == "0x1.2fef14a96d5dap+0"


class TestGoldenSameBits:
    """The search evaluates the bare ``_eta_at`` at points inside the
    checked bracket grid; its T and eta(T) are the bits of the same search
    on the public ``eta``."""

    def test_sharpness_grid(self):
        ref = _load_reference_module()
        weights = [ref.wl.make_weight(kind, params) for kind, params in ref._weights()]
        assert len(weights) == 63
        for w in weights:
            assert _search_bits(w) == _golden_on_public_eta(w), w

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_drawn_weights(self, data):
        # the admissible ranges of the CLI workload, both families
        if data.draw(st.booleans(), label="sine"):
            n = data.draw(st.integers(3, 10), label="n")
            p = data.draw(st.floats(1.05, min(n, 6) - 0.05), label="p")
            w = make_sine_weight(n, p, data.draw(st.floats(0.2, 3.0), label="a"))
        else:
            w = make_power_weight(data.draw(st.floats(1.2, 6.0), label="p"),
                                  data.draw(st.floats(0.5, 4.0), label="delta"),
                                  data.draw(st.floats(0.2, 5.0), label="a"))
        try:
            expected = _golden_on_public_eta(w)
        except NumericalError as err:
            with pytest.raises(NumericalError, match=re.escape(str(err))):
                find_truncation_point(w)
        else:
            assert _search_bits(w) == expected
