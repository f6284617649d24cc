import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hardycap.errors import DegenerateInputError, DomainError, ParameterError
from hardycap.halfspace import (
    SeparableField,
    dirac_bump,
    sharpness_sequence_halfspace,
    steiner_per_shell,
    verify_halfspace,
    zeta,
    zeta_integrability_check,
)
from hardycap.hardy1d import GridFunction
from hardycap.sphere import (
    CapGeometry,
    SampleSet,
    SphericalProfile,
    extremal_V_hat_k,
    rho_star,
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

    def test_bad_radial_support(self):
        theta = _angular_profile(lambda t: np.cos(t))
        with pytest.raises(ParameterError):
            SeparableField(
                GridFunction(np.array([0.5, 1.0, 1.5]), np.array([0.3, 1.0, 0.0])),
                theta,
            )


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


class TestSteinerPerShell:
    def test_per_shell_equimeasurable(self, hemi):
        rng = np.random.default_rng(22)
        shells = []
        for _ in range(5):
            weights = rng.uniform(0.2, 1.0, 30)
            weights *= hemi.measure / weights.sum()
            shells.append(SampleSet(rng.uniform(0.0, 1.0, 30), weights))
        stars = steiner_per_shell(shells, hemi)
        assert len(stars) == len(shells)
        for s, star in zip(shells, stars):
            for q in (1, 2, 3):
                assert_allclose(star.moment(q), s.moment(q), rtol=1e-8)
            assert np.all(np.diff(star.levels) <= 0.0)
