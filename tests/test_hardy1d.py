import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import IntegrationWarning, quad

from hardycap import hardy1d
from hardycap.errors import DegenerateInputError, DomainError, NumericalError, ParameterError
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
from hardycap.quadrature import refine_breakpoints
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


class TestSharpConstant:
    def test_non_numeric_p(self):
        # raised a bare TypeError from the comparison p > 1
        with pytest.raises(ParameterError, match="p must be a real number"):
            sharp_constant("2")


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

    def test_overflow_raises(self):
        # phi**(-1/(p-1)) = t**-40 overflows below t = 2e-8, past T's
        # bracket but inside the quotient's panels: this returned nan
        w = make_power_weight(1.2, 7.8, 1.0)
        u = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(NumericalError, match="denominator is not finite"):
            hardy_quotient(w, find_truncation_point(w), u)


class TestProfileOnlyWhereRead:
    """The untruncated quotient does not read T: prof may be None."""

    @pytest.mark.parametrize("make,args", [
        (make_power_weight, (2.5, 0.5, 1.0)),
        (make_sine_weight, (5, 2.5, 3 * math.pi / 4)),
    ])
    def test_no_profile_same_bits(self, make, args):
        w = make(*args)
        prof = find_truncation_point(w)
        hat = GridFunction(np.array([0.0, w.a / 2, w.a]), np.array([0.0, 1.0, 0.0]))
        for u in (hat, extremal_U_k(w, 16), extremal_U_k(w, 1024)):
            assert hardy_quotient(w, None, u) == hardy_quotient(w, prof, u)
        assert convergence_study(w, None, [16, 64]) == convergence_study(w, prof, [16, 64])

    def test_truncated_needs_profile(self, sine32):
        w, prof = sine32
        with pytest.raises(ParameterError, match="find_truncation_point"):
            hardy_quotient(w, None, extremal_V_k(w, prof, 64), truncated=True)
        with pytest.raises(ParameterError, match="find_truncation_point"):
            convergence_study(w, None, [16], truncated=True)
        with pytest.raises(ParameterError, match="find_truncation_point"):
            extremal_V_k(w, None, 16)


def _quad_quotient(p, eta, nodes, values, head, g=1.0, kinks=()):
    """Quotient of a piecewise-linear u on the power weight phi = t**g
    against ``eta``: |u'|^p phi in closed form and |u|^p eta^p phi by
    ``quad`` per cell, split at a sign change of u and at the ``kinks`` of
    eta, plus ``head``, the denominator before ``nodes[0]``.  Both integrals
    stop at the endpoint guard, as the library's do: for an extremal U_k
    the last cell alone carries about 1e-3 of them per 1e-12 of its width."""
    end = nodes[-1] * (1.0 - ENDPOINT_GUARD)
    numerator, denominator = 0.0, head
    for lo, hi, v0, v1 in zip(nodes[:-1], nodes[1:], values[:-1], values[1:]):
        top = min(hi, end)
        # lo**(g+1) * ((top/lo)**(g+1) - 1): the cells next to a are about
        # 1e-9 wide
        numerator += (abs((v1 - v0) / (hi - lo)) ** p * lo ** (g + 1.0)
                      * math.expm1((g + 1.0) * math.log1p((top - lo) / lo)) / (g + 1.0))
        # written so that u does not cancel next to a zero at hi
        u = lambda t: (v0 * (hi - t) + v1 * (t - lo)) / (hi - lo)  # noqa: E731
        points = [s for s in kinks if lo < s < top]
        if v0 * v1 < 0.0:
            points.append(lo + (hi - lo) * v0 / (v0 - v1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            denominator += quad(lambda t: abs(u(t) * eta(t)) ** p * t**g, lo, top,
                                points=points or None, epsabs=0.0, epsrel=1e-13,
                                limit=200)[0]
    return numerator / denominator


def _power_quad_quotient(p, delta, a, nodes, values, truncated):
    """``_quad_quotient`` on the power weight (p, delta, a), with eta (or
    eta_aT) and the head in closed form."""
    # phi = t**g, I(t) = (t**-e - a**-e)/e, T = a (1+e)**(-1/e)
    g, e = p - 1.0 + delta, delta / (p - 1.0)
    T = a * (1.0 + e) ** (-1.0 / e)

    def eta(t):
        t = min(t, T) if truncated else t
        return t ** -(1.0 + e) / ((t**-e - a**-e) / e)

    # the head [0, t0]: primitive I**(1-p)/(p-1) of eta**p phi up to
    # min(t0, T), then eta_T**p phi
    t0 = nodes[0]
    s0 = min(t0, T) if truncated else t0
    head = ((s0**-e - a**-e) / e) ** (1.0 - p) / (p - 1.0)
    head += eta(T) ** p * (t0 ** (g + 1.0) - s0 ** (g + 1.0)) / (g + 1.0)
    head *= abs(values[0]) ** p
    return _quad_quotient(p, eta, nodes, values, head, g, (T,))


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


class TestSignChangingGrids:
    """Grid functions that change sign inside cells, on power weights,
    against closed-form I and per-cell ``quad``.  |u|**p is only C**p at a
    root: with eight Gauss panels per cell and none ending at the root these
    quotients are off by up to 3.6e-6 for p = 1.2.  The quotient makes each
    root a panel edge, with panels graded towards it."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.5])
    @pytest.mark.parametrize("truncated", [False, True])
    def test_against_quad(self, p, truncated):
        rng = np.random.default_rng([int(10 * p), truncated])
        for delta, a in ((0.5, 1.0), (1.0, 2.0)):
            w = make_power_weight(p, delta, a)
            prof = find_truncation_point(w)
            for _ in range(6):
                cells = rng.integers(3, 7)
                nodes = np.append(np.sort(rng.uniform(0.05 * a, 0.95 * a, cells)), a)
                values = rng.uniform(0.1, 1.0, cells + 1) * rng.choice((-1.0, 1.0), cells + 1)
                values[1] = -values[0]  # at least one sign change
                values[-1] = 0.0
                expected = _power_quad_quotient(p, delta, a, nodes, values, truncated)
                rep = hardy_quotient(w, prof, GridFunction(nodes, values), truncated)
                assert_allclose(rep.quotient, expected, rtol=1e-7)

    def test_v_4096_layout_one_panel_per_cell(self, sine32, monkeypatch):
        # about 32k panels when every cell was split into at least 8
        w, prof = sine32
        panels = []

        def recording(*args, **kwargs):
            pts, counts = refine_breakpoints(*args, **kwargs)
            panels.append(len(pts) - 1)
            return pts, counts

        monkeypatch.setattr(hardy1d, "refine_breakpoints", recording)
        hardy_quotient(w, prof, extremal_V_k(w, prof, 4096), truncated=True)
        assert len(panels) == 1 and panels[0] < 5000


class TestZeroValuedNodes:
    """An interior node where u is exactly 0 next to a nonzero value is a
    root of u at a cell end: |u|**p is only C**p there, so the panels are
    graded towards it as towards a sign change.  Without the grading these
    quotients are off by up to 1.1e-8 for p = 1.2."""

    @pytest.mark.parametrize("values", [
        [0.5, 0.0, -0.7, 0.3, 0.0],
        [0.5, 0.0, 0.7, 0.3, 0.0],
        [0.5, 0.3, 0.0, 0.0, 0.0],
    ])
    @pytest.mark.parametrize("p", [1.2, 1.5])
    @pytest.mark.parametrize("truncated", [False, True])
    def test_against_quad(self, values, p, truncated):
        w = make_power_weight(p, 0.5, 1.0)
        prof = find_truncation_point(w)
        nodes, values = np.array([0.2, 0.4, 0.6, 0.8, 1.0]), np.array(values)
        expected = _power_quad_quotient(p, 0.5, 1.0, nodes, values, truncated)
        rep = hardy_quotient(w, prof, GridFunction(nodes, values), truncated)
        assert_allclose(rep.quotient, expected, rtol=1e-9)


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

    @pytest.mark.parametrize("k", [64, 4096])
    def test_v_k_zero_tail_is_one_cell(self, sine32, k):
        # the 256 tail nodes of a padded grid give the same grid function
        w, prof = sine32
        v = extremal_V_k(w, prof, k)
        ramp_end = 0.5 * (w.a + prof.T)
        assert np.sum(v.nodes >= ramp_end) == 2 and v.nodes[-1] == w.a
        body = v.nodes < ramp_end
        padded = GridFunction(
            np.concatenate((v.nodes[body], np.linspace(ramp_end, w.a, hardy1d.GRID_SIZE // 16))),
            np.concatenate((v.values[body], np.zeros(hardy1d.GRID_SIZE // 16))))
        got = hardy_quotient(w, prof, v, truncated=True).quotient
        want = hardy_quotient(w, prof, padded, truncated=True).quotient
        assert abs(got - want) <= 1e-15 * want

    def test_v_k_refuses_profile_of_other_weight(self, power211, sine32):
        # the grid was built at the other weight's T
        w, _ = sine32
        _, prof_power = power211
        with pytest.raises(ParameterError, match="weight"):
            extremal_V_k(w, prof_power, 64)

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

    def test_a_k_overflow_raises(self):
        # I(a*1e-12) of t**-40 overflows: this warned and returned A_k at
        # its limit 1/(p-1)
        w = make_power_weight(1.2, 7.8, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"t=1e-12\b.*= inf"):
                A_k_B_k(w, 16)

    @pytest.mark.parametrize("k", [16, 4096])
    def test_a_k_b_k_overflow_raises_without_warnings(self, k):
        # phi**(-1/(p-1)) = sin(t)**-120.5 overflows next to 0: at k = 4096 the
        # panel sweep warned "overflow encountered in power" before the error
        w = make_sine_weight(3, 1.0166, 0.4476)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                A_k_B_k(w, k)


class TestLargeK:
    """Extremal grids and A_k_B_k refuse the k they cannot resolve."""

    def test_grids_refuse_unresolved_k(self, power211):
        # the grid U_k quotient at k = 1e15 was 0.99865 with no error, its
        # first cell 5e6 times 1/k wide
        w, prof = power211
        with pytest.raises(DomainError, match="first cell"):
            extremal_U_k(w, 10**15)
        with pytest.raises(DomainError, match="first cell"):
            extremal_V_k(w, prof, 10**15)

    def test_largest_accepted_k_meets_the_law(self, sine32):
        # the first cell is CLUSTER_DEPTH (T - 1/k)/2 wide, and FIRST_CELL
        # allows k up to 1.27e7 here; the quotient then still meets the
        # closed form (L_k/4 + E)/(L_k + 1 + D), L_k = log cot(1/k), of
        # acceptance 1 to 5e-5
        w, prof = sine32
        with pytest.raises(DomainError, match="first cell"):
            extremal_V_k(w, prof, 13_000_000)
        k = 12_500_000
        q = hardy_quotient(w, prof, extremal_V_k(w, prof, k), truncated=True).quotient
        T, ramp_end = math.pi / 4, 3 * math.pi / 8
        e = 4 / math.pi + 16 * (1 - math.sqrt(2) / 2) / math.pi**2
        d = quad(lambda t: 4 * ((ramp_end - t) / (ramp_end - T)) ** 2 * math.sin(t) ** 2,
                 T, ramp_end)[0]
        lk = math.log(1 / math.tan(1 / k))
        assert_allclose(q, (lk / 4 + e) / (lk + 1 + d), rtol=5e-5)

    def test_a_k_b_k_refuses_k_past_the_guard(self, power211):
        # 1/k below the guard a*1e-12 made A_k = -0.648 at k = 1e15
        w, _ = power211
        with pytest.raises(DomainError, match="1/k"):
            A_k_B_k(w, 10**15)
        with pytest.raises(DomainError, match="1/k"):
            A_k_B_k(w, 1.0 / (1.0 - 1e-13))  # 1/k past the upper guard
        assert np.all(np.isfinite(A_k_B_k(w, 10**11)))

    @pytest.mark.parametrize("k", [2, 16, 4096, 10**6, 10**11])
    def test_a_k_closed_form(self, power211, k):
        # I(t) = (1 - t)/t for phi = t**2 on (0, 1), so A_k = 1 - I(1/k)/I(1e-12)
        w, _ = power211
        tail = lambda t: (1.0 - t) / t
        a_k, _ = A_k_B_k(w, k)
        assert_allclose(a_k, 1.0 - tail(1.0 / k) / tail(ENDPOINT_GUARD), rtol=1e-14)


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
        pts = _quotient_edges(w, extremal_V_k(w, prof, 4096), prof.T)
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
    of the one-panel-per-cell layout.  Against closed-form cell integrals
    and ``quad`` (up to the endpoint guard) the numerators agree to 7.4e-13
    and the denominators to 2.7e-11; the U_16 denominators carry the
    rounding noise of the Gauss nodes in the cells next to a."""

    @pytest.mark.parametrize("make,args,u_16,v_4096", [
        (make_sine_weight, (3, 2.0, HALF_PI),
         (6.368325044452964, 23.47387986840375),
         (3.8275698383795813, 9.630035157762673)),
        (make_power_weight, (2.5, 0.5, 1.0),
         (6.770845754565013, 22.36197991376202),
         (3.170618524702577, 4.823771885441397)),
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
