import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hardycap import halfspace
from hardycap.errors import DegenerateInputError, DomainError, NumericalError, ParameterError
from hardycap.halfspace import (
    SeparableField,
    dirac_bump,
    sharpness_sequence_halfspace,
    verify_halfspace,
    zeta,
    zeta_integrability_check,
)
from hardycap.hardy1d import GridFunction
from hardycap.sphere import (
    CapGeometry,
    SampleSet,
    SphericalProfile,
    _cap_eta_profile,
    extremal_V_hat_k,
    rho_many,
    rho_star,
    spherical_rearrangement,
    verify_sphere_theorem,
)

HALF_PI = math.pi / 2


@pytest.fixture(scope="module")
def hemi():
    return CapGeometry(n=3, a_star=HALF_PI)


def _angular_profile(values_fn, m=40):
    nodes = np.linspace(0.0, HALF_PI, m)
    values = values_fn(nodes)
    values[-1] = 0.0
    return SphericalProfile(CapGeometry(3, HALF_PI), GridFunction(nodes, values))


class TestZeta:
    def test_closed_form(self):
        for th in (0.1, 0.5, 0.78):
            assert_allclose(zeta(3, 2.0, th), 1.0 / (math.sin(th) * math.cos(th)),
                            rtol=1e-8)

    def test_plateau(self):
        assert_allclose(zeta(3, 2.0, HALF_PI), 2.0, rtol=1e-9)
        assert_allclose(zeta(3, 2.0, 1.0), 2.0, rtol=1e-9)

    def test_delegation_identity(self, hemi):
        for th in (0.2, 0.9, 1.4):
            assert zeta(3, 2.0, th) == rho_star(hemi, 2.0, th)

    def test_asymptotic(self):
        t = 1e-4
        assert abs(t * zeta(3, 2.0, t) - 1.0) < 1e-2

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta(3, 2.0, 2.0)
        with pytest.raises(DomainError):
            zeta(3, 2.0, 0.0)
        with pytest.raises(DomainError):
            zeta(3, 2.0, math.nan)

    def test_non_numeric_theta(self):
        # raised a bare TypeError from the comparison theta > pi/2
        with pytest.raises(ParameterError, match="theta must be a real number"):
            zeta(3, 2.0, "0.5")


class TestVerifyHalfspace:
    def test_radial_independence(self):
        theta = _angular_profile(lambda t: np.cos(t))
        r1 = GridFunction(np.array([0.5, 1.0, 1.5]), np.array([0.0, 1.0, 0.0]))
        r2 = GridFunction(np.array([0.2, 0.7, 2.0, 3.0]), np.array([0.0, 2.0, 0.5, 0.0]))
        q1 = verify_halfspace(3, 2.0, SeparableField(r1, theta)).quotient
        q2 = verify_halfspace(3, 2.0, SeparableField(r2, theta)).quotient
        assert_allclose(q1, q2, rtol=1e-12)

    def test_extremal_sequence(self):
        geom = CapGeometry(3, HALF_PI)
        theta = extremal_V_hat_k(geom, 2.0, 2**10)
        r = GridFunction(np.array([0.5, 1.0, 1.5]), np.array([0.0, 1.0, 0.0]))
        rep = verify_halfspace(3, 2.0, SeparableField(r, theta))
        assert rep.quotient >= 0.25 - 1e-9

    @pytest.mark.parametrize("n,p", [(3, 2.0), (4, 3.0)])
    def test_random_angular_profiles(self, n, p):
        geom = CapGeometry(n, HALF_PI)
        sharp = ((n - p) / p) ** p
        rng = np.random.default_rng(21)
        r = GridFunction(np.array([0.5, 1.0, 1.5]), np.array([0.0, 1.0, 0.0]))
        for _ in range(25):
            m = int(rng.integers(4, 12))
            nodes = np.unique(np.concatenate(
                ([0.0], np.sort(rng.uniform(0.0, HALF_PI, m)), [HALF_PI])))
            values = rng.uniform(0.0, 1.0, len(nodes))
            values[-1] = 0.0
            theta = SphericalProfile(geom, GridFunction(nodes, values))
            rep = verify_halfspace(n, p, SeparableField(r, theta))
            assert rep.quotient >= sharp - 1e-9

    def test_degenerate_angular(self):
        geom = CapGeometry(3, HALF_PI)
        theta = SphericalProfile(
            geom, GridFunction(np.array([0.0, HALF_PI]), np.array([0.0, 0.0])))
        r = GridFunction(np.array([0.5, 1.0, 1.5]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(DegenerateInputError):
            verify_halfspace(3, 2.0, SeparableField(r, theta))

    def test_dimension_mismatch(self):
        # n = 7 with an angular factor on the n = 3 geometry returned the
        # n = 3 constant 0.25 (the n = 7 one is 6.25)
        theta = _angular_profile(lambda t: np.cos(t))
        r = GridFunction(np.array([0.5, 1.0, 1.5]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ParameterError, match="n=7"):
            verify_halfspace(7, 2.0, SeparableField(r, theta))

    def test_overflowing_radial_moment_raises(self):
        # r**(n-p) overflows on this support: the report held inf (NaN with
        # the panels refined towards the roots of R) and a RuntimeWarning
        theta = SphericalProfile(CapGeometry(10, HALF_PI), _angular_profile(np.cos).grid)
        r = GridFunction(np.array([1e40, 2e40, 3e40]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(NumericalError, match="radial moment"):
            verify_halfspace(10, 2.0, SeparableField(r, theta))

    def test_bad_radial_support(self):
        theta = _angular_profile(lambda t: np.cos(t))
        with pytest.raises(ParameterError):
            SeparableField(
                GridFunction(np.array([0.5, 1.0, 1.5]), np.array([0.3, 1.0, 0.0])),
                theta,
            )


class TestPRange:
    """Every cap and half-space entry point refuses p outside (1, n) with
    the same DomainError."""

    @staticmethod
    def _field():
        r = GridFunction(np.array([0.5, 1.0, 1.5]), np.array([0.0, 1.0, 0.0]))
        return SeparableField(r, _angular_profile(lambda t: np.cos(t)))

    @pytest.mark.parametrize("p", [1.0, 3.0, 4.5])
    @pytest.mark.parametrize("call", [
        lambda p, hemi, f: rho_many(hemi, p, [0.5]),
        lambda p, hemi, f: zeta(3, p, 0.5),
        lambda p, hemi, f: extremal_V_hat_k(hemi, p, 64),
        lambda p, hemi, f: verify_sphere_theorem(hemi, p, f.angular),
        lambda p, hemi, f: verify_halfspace(3, p, f),
        lambda p, hemi, f: sharpness_sequence_halfspace(3, p, 64, 1e-2),
        lambda p, hemi, f: zeta_integrability_check(3, p, 1.0),
    ], ids=["rho_many", "zeta", "extremal_V_hat_k", "verify_sphere_theorem",
            "verify_halfspace", "sharpness_sequence_halfspace", "zeta_integrability_check"])
    def test_refused(self, call, p, hemi):
        with pytest.raises(DomainError, match=r"1 < p < n, got p=.*, n=3"):
            call(p, hemi, self._field())


class TestDiracBump:
    def test_normalisation(self):
        for eps in (1e-2, 1e-3):
            bump = dirac_bump(eps, 2.0, 3)
            h = bump.values[1]
            ref = quad(lambda r: (h * (1.0 - abs(r - 1.0) / eps)) ** 2 * r**3,
                       1.0 - eps, 1.0 + eps)[0]
            assert_allclose(ref, 1.0, rtol=1e-8)

    def test_moment_ratio_concentrates(self):
        rep3 = sharpness_sequence_halfspace(3, 2.0, 64, 1e-3)
        assert abs(rep3.moment_ratio - 1.0) < 1e-4
        rep2 = sharpness_sequence_halfspace(3, 2.0, 64, 2e-3)
        # halving eps shrinks the observed moment error
        assert abs(rep3.moment_ratio - 1.0) < abs(rep2.moment_ratio - 1.0)

    def test_full_ratio_lower_bound(self):
        rep = sharpness_sequence_halfspace(3, 2.0, 2**10, 1e-3)
        assert rep.ratio >= 0.25 - 1e-9
        assert rep.sharp_constant == 0.25

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            dirac_bump(0.7, 2.0, 3)

    @pytest.mark.parametrize("eps", [1e-3, 0.3])
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5])
    def test_radial_moments_against_mpmath(self, p, n, eps):
        # R**p is only C**p at the bump's ends: with eight panels a cell and
        # no refinement towards them the moments were off by up to 8.5e-9
        # (p = 1.1)
        raw = GridFunction(np.array([1.0 - eps, 1.0, 1.0 + eps]), np.array([0.0, 1.0, 0.0]))
        got = halfspace._radial_moments(raw, p, n, n - p)
        with mpmath.workdps(40):
            e = mpmath.mpf(eps)
            for moment, power in zip(got, (n, n - p)):
                def f(r):
                    return (1 - abs(r - 1) / e) ** mpmath.mpf(p) * r ** mpmath.mpf(power)
                exact = mpmath.quad(f, [1 - e, 1]) + mpmath.quad(f, [1, 1 + e])
                assert abs(moment / exact - 1) < 1e-12

    def test_radial_moments_at_interior_roots(self):
        # a sign change inside a cell (at r = 4/3) and a zero node between
        # nonzero cells (r = 2) are roots of R too
        nodes, values = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0], [0.0, 1.0, -0.5, 0.0, 0.7, 0.0]
        p, power = 1.2, 2.0
        (got,) = halfspace._radial_moments(
            GridFunction(np.array(nodes), np.array(values)), p, power)
        with mpmath.workdps(40):
            exact = 0
            for x0, x1, v0, v1 in zip(nodes, nodes[1:], values, values[1:]):
                x0, x1, v0, v1 = map(mpmath.mpf, (x0, x1, v0, v1))

                def f(r):
                    return abs(v0 + (v1 - v0) * (r - x0) / (x1 - x0)) ** p * r**power
                cuts = [x0, x0 - v0 * (x1 - x0) / (v1 - v0), x1] if v0 * v1 < 0 else [x0, x1]
                exact += mpmath.quad(f, cuts)
            assert abs(got / exact - 1) < 1e-12


class TestIntegrability:
    def test_oracle_n3_p2(self):
        # angular part: zeta^2 sin^2 = 1/cos^2 below pi/4, plateau 4*sin^2 above
        ang = math.tan(math.pi / 4) + quad(
            lambda t: 4.0 * math.sin(t) ** 2, math.pi / 4, HALF_PI)[0]
        ref = 4.0 * math.pi * 0.5 * ang
        assert_allclose(zeta_integrability_check(3, 2.0, 1.0), ref, rtol=1e-11)

    def test_radius_scaling(self):
        n, p = 4, 2.5
        v1 = zeta_integrability_check(n, p, 1.0)
        v2 = zeta_integrability_check(n, p, 2.0)
        assert_allclose(v2 / v1, 2.0 ** (n + 1 - p), rtol=1e-10)

    def test_positive_and_finite(self):
        v = zeta_integrability_check(5, 3.0, 0.7)
        assert v > 0.0 and math.isfinite(v)

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_integrability_check(3, 3.0, 1.0)
        with pytest.raises(DomainError):
            zeta_integrability_check(3, 2.0, -1.0)

    @pytest.mark.parametrize("n,p", [(2, 1.5), (3, 2.0), (4, 2.5), (5, 3.0), (10, 5.5),
                                     (19, 10.0), (40, 20.5)])
    def test_exact_family(self, n, p):
        # n = 2p - 1: I(t) = cot t on (0, pi/2), eta = 1/(sin t cos t), T = pi/4,
        # so the angular integral of eta^p sin^{n-1} is 1/(p-1) below T (the
        # primitive cot^{1-p}/(p-1)) plus 2^p integral_T^{pi/2} sin^{n-1}
        R = 1.3
        with mpmath.workdps(30):
            omega = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
            plateau = mpmath.mpf(2) ** p * mpmath.quad(
                lambda t: mpmath.sin(t) ** (n - 1), [mpmath.pi / 4, mpmath.pi / 2])
            ref = (omega * mpmath.mpf(R) ** (n + 1 - p) / (n + 1 - p)
                   * ((mpmath.mpf(p) - 1) / (n - p)) ** p * (1 / (mpmath.mpf(p) - 1) + plateau))
        assert_allclose(zeta_integrability_check(n, p, R), float(ref), rtol=1e-13)

    @pytest.mark.parametrize("R", [0.3, 1.0, 2.5])
    def test_closed_form_n3_p2(self, R):
        exact = 2.0 * math.pi * R**2 * (2.0 + math.pi / 2.0)
        assert_allclose(zeta_integrability_check(3, 2.0, R), exact, rtol=1e-14)

    def test_p_near_one(self):
        # phi**(-1/(p-1)) overflowed at the quadrature guard and raised NumericalError
        v = zeta_integrability_check(3, 1.05, 1.0)
        assert v > 0.0 and math.isfinite(v)

    def test_overflow_raises(self):
        # R**2 raised a bare OverflowError
        with pytest.raises(DomainError, match="finite value"):
            zeta_integrability_check(3, 2.0, 1e200)

    def test_non_numeric_R(self):
        # raised a bare TypeError from the comparison R <= 0
        with pytest.raises(ParameterError, match="R must be a real number"):
            zeta_integrability_check(3, 2.0, "1")

    @pytest.mark.parametrize("R", [math.nan, math.inf])
    def test_non_finite_R_refused_before_any_work(self, R):
        # NaN ran the whole quadrature before the final finiteness check;
        # n = 7, p = 4.25 has no cached cap profile in this module
        before = _cap_eta_profile.cache_info()
        with pytest.raises(ParameterError, match="R must be finite"):
            zeta_integrability_check(7, 4.25, R)
        assert _cap_eta_profile.cache_info() == before


class TestSteinerPerShell:
    def test_per_shell_equimeasurable(self, hemi):
        rng = np.random.default_rng(22)
        shells = []
        for _ in range(5):
            weights = rng.uniform(0.2, 1.0, 30)
            weights *= hemi.measure / weights.sum()
            shells.append(SampleSet(rng.uniform(0.0, 1.0, 30), weights))
        # the discrete Steiner rearrangement: each shell rearranged on its own
        stars = [spherical_rearrangement(s, hemi) for s in shells]
        assert len(stars) == len(shells)
        for s, star in zip(shells, stars):
            for q in (1, 2, 3):
                assert_allclose(star.moment(q), s.moment(q), rtol=1e-8)
            assert np.all(np.diff(star.levels) <= 0.0)
