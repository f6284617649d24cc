import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import IntegrationWarning, quad

from hardycap.errors import DegenerateInputError, ParameterError
from hardycap.eta import ENDPOINT_GUARD, find_truncation_point
from hardycap.hardy1d import (
    A_k_B_k,
    GridFunction,
    _quotient_edges,
    _sweep,
    convergence_study,
    extremal_U_k,
    extremal_V_k,
    hardy_quotient,
    sharp_constant,
)
from hardycap.weights import make_power_weight, make_sine_weight

HALF_PI = math.pi / 2


@pytest.fixture(scope="module")
def power211():
    w = make_power_weight(2.0, 1.0, 1.0)
    return w, find_truncation_point(w)


@pytest.fixture(scope="module")
def sine32():
    w = make_sine_weight(3, 2.0, HALF_PI)
    return w, find_truncation_point(w)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GridFunction(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        with pytest.raises(ParameterError):
            GridFunction(np.array([0.5, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError):
            GridFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, bad, 0.0]))
        with pytest.raises(ParameterError):
            GridFunction(np.array([0.0, bad, 1.0]), np.array([1.0, 0.5, 0.0]))

    def test_interpolation_and_left_extension(self):
        u = GridFunction(np.array([0.2, 0.6, 1.0]), np.array([3.0, 1.0, 0.0]))
        assert u(0.05) == 3.0  # constant extension left of the grid
        assert_allclose(u(0.4), 2.0, rtol=1e-15)
        assert u(1.0) == 0.0


class TestHatOracle:
    def test_quotient_matches_scipy(self, power211):
        w, prof = power211
        u = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        rep = hardy_quotient(w, prof, u)
        # numerator: slope +-2, integral 4 * t^2 over [0,1]
        num_ref = 4.0 / 3.0
        # denominator: (u * eta)^2 * t^2 with eta = 1/(t(1-t))
        den_ref = (
            quad(lambda t: (2.0 * t / (t * (1 - t))) ** 2 * t**2, 0.0, 0.5)[0]
            + quad(lambda t: (2.0 * (1 - t) / (t * (1 - t))) ** 2 * t**2, 0.5, 1.0)[0]
        )
        assert_allclose(rep.numerator, num_ref, rtol=1e-10)
        assert_allclose(rep.denominator, den_ref, rtol=1e-8)
        assert_allclose(rep.quotient, num_ref / den_ref, rtol=1e-8)
        assert rep.quotient > rep.sharp_constant

    def test_homogeneity(self, sine32):
        w, prof = sine32
        u = GridFunction(
            np.array([0.0, 0.4, 1.1, HALF_PI]), np.array([0.0, 2.0, 0.7, 0.0])
        )
        base = hardy_quotient(w, prof, u).quotient
        for c in (1e-6, 3.0, 1e6):
            q = hardy_quotient(w, prof, u.scaled(c)).quotient
            assert_allclose(q, base, rtol=1e-12)

    def test_zero_function_rejected(self, power211):
        w, prof = power211
        u = GridFunction(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(DegenerateInputError):
            hardy_quotient(w, prof, u)

    def test_wrong_weight_rejected(self, power211, sine32):
        w, _ = power211
        _, prof_sine = sine32
        u = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ParameterError):
            hardy_quotient(w, prof_sine, u)


def _quad_quotient(p, eta, nodes, values, head):
    """Quotient of a piecewise-linear u on the power weight phi = t against
    ``eta``: |u'|^p t in closed form and |u|^p eta^p t by ``quad`` per cell,
    plus ``head``, the denominator before ``nodes[0]``.  Both integrals stop
    at the endpoint guard, as the library's do: for an extremal U_k the last
    cell alone carries about 1e-3 of them per 1e-12 of its width."""
    end = nodes[-1] * (1.0 - ENDPOINT_GUARD)
    numerator, denominator = 0.0, head
    for lo, hi, v0, v1 in zip(nodes[:-1], nodes[1:], values[:-1], values[1:]):
        top = min(hi, end)
        # (top - lo) * (top + lo): the cells next to a are about 1e-9 wide
        numerator += abs((v1 - v0) / (hi - lo)) ** p * (top - lo) * (top + lo) / 2.0
        # written so that u does not cancel next to a zero at hi
        u = lambda t: (v0 * (hi - t) + v1 * (t - lo)) / (hi - lo)  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            denominator += quad(lambda t: abs(u(t) * eta(t)) ** p * t, lo, top,
                                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return numerator / denominator


class TestGridPastT:
    """Grids whose first node t0 lies past T: the head [0, T] goes through
    the primitive of eta^p phi, [T, t0] is counted once, with u' = 0."""

    @pytest.mark.parametrize("truncated", [False, True])
    def test_constant_then_ramp_closed_form(self, power211, truncated):
        # phi = t^2, a = 1: I(t) = 1/t - 1, eta = 1/(t(1-t)), T = 1/2, eta_T = 4;
        # u = 1 up to 0.85, then (1 - t)/0.15
        w, prof = power211
        u = GridFunction(np.array([0.7, 0.85, 1.0]), np.array([1.0, 1.0, 0.0]))
        numerator = (1.0 - 0.85**3) / (3.0 * 0.15**2)
        if truncated:
            # head 1/I(1/2), then 16 t^2 on [1/2, 0.85], 16 t^2 (1-t)^2/0.15^2
            def ramp(t):
                return t**3 / 3.0 - t**4 / 2.0 + t**5 / 5.0
            denominator = 1.0 + 16.0 * (0.85**3 - 0.125) / 3.0 \
                + 16.0 * (ramp(1.0) - ramp(0.85)) / 0.15**2
        else:
            # head 1/I(0.7), then 1/(1-t)^2 on [0.7, 0.85], 1/0.15^2 on [0.85, 1]
            denominator = 0.7 / 0.3 + (1.0 / 0.15 - 1.0 / 0.3) + 1.0 / 0.15
        assert_allclose(hardy_quotient(w, prof, u, truncated=truncated).quotient,
                        numerator / denominator, rtol=1e-10)

    @pytest.mark.parametrize("truncated", [False, True])
    def test_u_k_with_1_over_k_past_T(self, truncated):
        # phi = t on (0, 1/2), p = 3/2: I(t) = (a-t)/(a t), eta = a/(t(a-t)),
        # T = a/2 < 1/3, eta_T = 8
        p, a, T = 1.5, 0.5, 0.25
        w = make_power_weight(p, 0.5, a)
        prof = find_truncation_point(w)
        u = extremal_U_k(w, 3)  # as in `quotient --function uk --k 3`
        t0, u0 = u.nodes[0], abs(u.values[0])
        assert t0 > prof.T
        if truncated:
            head = u0**p * (((a - T) / (a * T)) ** (1.0 - p) / (p - 1.0)
                            + 8.0**p * (t0 * t0 - T * T) / 2.0)
            expected = _quad_quotient(p, lambda t: 8.0, u.nodes, u.values, head)
        else:
            head = u0**p * ((a - t0) / (a * t0)) ** (1.0 - p) / (p - 1.0)
            expected = _quad_quotient(p, lambda t: a / (t * (a - t)),
                                      u.nodes, u.values, head)
        assert_allclose(hardy_quotient(w, prof, u, truncated=truncated).quotient,
                        expected, rtol=1e-10)


class TestTruncatedDomination:
    def test_truncated_denominator_smaller(self, sine32):
        # eta_T <= eta pointwise, so the truncated quotient dominates
        w, prof = sine32
        u = GridFunction(
            np.array([0.0, 0.5, 1.0, HALF_PI]), np.array([0.0, 1.0, 0.6, 0.0])
        )
        full = hardy_quotient(w, prof, u, truncated=False)
        trunc = hardy_quotient(w, prof, u, truncated=True)
        assert trunc.denominator <= full.denominator
        assert trunc.quotient >= full.quotient
        assert_allclose(trunc.numerator, full.numerator, rtol=1e-14)


class TestExtremalSequences:
    def test_u_k_shape(self, sine32):
        w, _ = sine32
        u = extremal_U_k(w, 64)
        # body value: I(t)^(1/2) with I = cot for this weight
        # piecewise-linear sampling of the smooth body: accuracy is set by
        # the grid resolution, not the quadrature
        assert_allclose(u(0.3), math.cos(0.3) ** 0.5 / math.sin(0.3) ** 0.5, rtol=1e-5)
        assert u.values[-1] == 0.0
        # constant head
        assert u(1e-3) == u.values[0]

    def test_u_k_untruncated_convergence(self, sine32):
        w, prof = sine32
        rep = hardy_quotient(w, prof, extremal_U_k(w, 1024), truncated=False)
        assert rep.quotient >= sharp_constant(2.0) - 1e-9
        assert abs(rep.quotient - 0.25) < 0.025  # within 10 percent

    def test_v_k_shape(self, sine32):
        w, prof = sine32
        v = extremal_V_k(w, prof, 64)
        ramp_end = 0.5 * (w.a + prof.T)
        assert_allclose(v(ramp_end), 0.0, atol=1e-12)
        assert v(ramp_end + 0.01) == 0.0
        # body value at pi/6: (cot(pi/6))^(1/2) = 3^(1/4), to grid resolution
        assert_allclose(v(math.pi / 6), 3.0**0.25, rtol=1e-5)
        # continuity at T: ramp starts at the body height
        assert_allclose(v(prof.T), math.tan(prof.T) ** -0.5, rtol=1e-6)

    def test_v_k_ramp_starts_at_body_value(self):
        # the ramp is the line from the body's own value at T to 0 at ramp_end
        w = make_sine_weight(6, 2.5, 0.75 * math.pi)
        prof = find_truncation_point(w)
        v = extremal_V_k(w, prof, 64)
        a, T = w.a, prof.T
        i = int(np.searchsorted(v.nodes, T))
        assert v.nodes[i] == T
        ramp = (v.nodes > T) & (v.nodes < 0.5 * (a + T))
        line = v.values[i] * (2.0 * v.nodes[ramp] - a - T) / (T - a)
        assert np.array_equal(v.values[ramp], line)

    def test_v_k_quotients_above_sharp(self, sine32):
        w, prof = sine32
        rows = convergence_study(w, prof, [16, 128, 1024], truncated=True)
        ks = [r[0] for r in rows]
        margins = [r[2] for r in rows]
        assert ks == [16, 128, 1024]
        assert all(m > -1e-9 for m in margins)
        # margins shrink as k grows
        assert margins[2] < margins[1] < margins[0]

    def test_a_k_exact_value(self, sine32):
        # the head integral has the closed-form value 1/(p-1) for every k
        w, _ = sine32
        for k in (16, 256, 2**14):
            a_k, _ = A_k_B_k(w, k)
            assert_allclose(a_k, 1.0, rtol=1e-6)

    def test_b_k_log_growth(self, sine32):
        # the body integral grows like log k plus a constant
        w, _ = sine32
        _, b_256 = A_k_B_k(w, 256)
        _, b_4096 = A_k_B_k(w, 4096)
        assert_allclose(b_4096 - b_256, math.log(4096 / 256), rtol=1e-4)


class TestNodeTails:
    """The tail integral I at the quotient's own Gauss nodes, from one sweep
    over its panels, against closed forms evaluated at the stored nodes."""

    @pytest.mark.parametrize("make,args,closed", [
        # I(t) = 1/t - 1/a and cot t - cot a, written without cancellation
        (make_power_weight, (2.0, 1.0, 1.0), lambda t, a: (a - t) / (a * t)),
        (make_sine_weight, (3, 2.0, HALF_PI),
         lambda t, a: np.sin(a - t) / (np.sin(t) * np.sin(a))),
    ])
    def test_closed_form_at_every_node(self, make, args, closed):
        w = make(*args)
        prof = find_truncation_point(w)
        pts = _quotient_edges(prof, extremal_V_k(w, prof, 4096).nodes)
        x, _, _, _, tails, edge_tails = _sweep(w, pts)
        assert np.any(w.a - x < 1e-11 * w.a)  # nodes right next to a are covered
        assert_allclose(tails, closed(x, w.a), rtol=1e-12)
        assert_allclose(edge_tails, closed(pts, w.a), rtol=1e-12)

    @pytest.mark.parametrize("make,args,expected", [
        # reference values from a second quadrature per node
        # (eta.tail_integrals), independent of the single panel sweep
        (make_power_weight, (2.0, 1.0, 1.0),
         {256: (0.9999999997449998, 33.17229927344165),
          4096: (0.9999999959050008, 35.94855687761422)}),
        (make_sine_weight, (3, 2.0, HALF_PI),
         {256: (0.9999999995978783, 32.72462746919494),
          4096: (0.9999999935660173, 35.497238952489454)}),
    ])
    def test_a_k_b_k_unchanged(self, make, args, expected):
        w = make(*args)
        for k, ab in expected.items():
            assert_allclose(A_k_B_k(w, k), ab, rtol=1e-12)


class TestQuotientPinned:
    """Numerator and denominator of extremal quotients, pinned to the values
    of the per-node implementation (each Gauss node's own grid cell, phi
    evaluated twice); the quotient takes one cell per panel and one phi."""

    @pytest.mark.parametrize("make,args,u_16,v_4096", [
        (make_sine_weight, (3, 2.0, HALF_PI),
         (6.3683250444529635, 23.473879867780774),
         (3.8275698383795813, 9.630035157762709)),
        (make_power_weight, (2.5, 0.5, 1.0),
         (6.770845754565012, 22.36197991289108),
         (3.1706185247025767, 4.823771885441414)),
    ])
    def test_numerator_and_denominator(self, make, args, u_16, v_4096):
        w = make(*args)
        prof = find_truncation_point(w)
        full = hardy_quotient(w, prof, extremal_U_k(w, 16))
        truncated = hardy_quotient(w, prof, extremal_V_k(w, prof, 4096), truncated=True)
        assert_allclose((full.numerator, full.denominator), u_16, rtol=1e-15)
        assert_allclose((truncated.numerator, truncated.denominator), v_4096, rtol=1e-15)


class TestRandomLowerBound:
    @pytest.mark.parametrize("make,args", [
        (make_power_weight, (2.0, 1.0, 1.0)),
        (make_sine_weight, (3, 2.0, HALF_PI)),
        (make_sine_weight, (4, 3.0, 1.0)),
    ])
    @pytest.mark.parametrize("truncated", [False, True])
    def test_no_violations(self, make, args, truncated):
        w = make(*args)
        prof = find_truncation_point(w)
        sharp = sharp_constant(w.p)
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            m = rng.integers(3, 12)
            nodes = np.sort(rng.uniform(0.0, w.a, m))
            nodes = np.unique(np.concatenate((nodes, [w.a])))
            if len(nodes) < 2:
                continue
            values = rng.uniform(-1.0, 1.0, len(nodes))
            values[-1] = 0.0
            if np.all(values == 0.0):
                continue
            u = GridFunction(nodes, values)
            rep = hardy_quotient(w, prof, u, truncated=truncated)
            assert rep.quotient >= sharp - 1e-9
