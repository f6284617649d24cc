import math
import sys

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hardycap.errors import DomainError, InequalityViolationError, ParameterError
from hardycap.hardy1d import GridFunction
from hardycap.sphere import (
    CapGeometry,
    _mu_of_levels,
    SampleSet,
    SphericalProfile,
    cap_volume,
    check_hardy_littlewood,
    check_polya_szego_radial,
    decreasing_rearrangement,
    distribution_function,
    extremal_V_hat_k,
    inverse_cap_volume,
    radial_rearrangement,
    rho_asymptotic_check,
    rho_many,
    rho_star,
    sphere_surface_volume,
    spherical_rearrangement,
    verify_sphere_theorem,
)

HALF_PI = math.pi / 2


@pytest.fixture(scope="module")
def hemi():
    return CapGeometry(n=3, a_star=HALF_PI)


class TestGeometry:
    def test_surface_volumes(self):
        assert_allclose(sphere_surface_volume(1), 2.0 * math.pi, rtol=1e-14)
        assert_allclose(sphere_surface_volume(2), 4.0 * math.pi, rtol=1e-14)
        assert_allclose(sphere_surface_volume(3), 2.0 * math.pi**2, rtol=1e-14)

    def test_surface_volume_vs_quadrature(self):
        # |S^3| must equal the full cap volume at alpha = pi
        assert_allclose(cap_volume(3, math.pi), sphere_surface_volume(3), rtol=1e-13)

    def test_cap_volume_closed_forms(self):
        assert_allclose(cap_volume(2, math.pi), 4.0 * math.pi, rtol=1e-14)
        for alpha in (0.3, 1.0, 2.5):
            assert_allclose(
                cap_volume(2, alpha), 2.0 * math.pi * (1.0 - math.cos(alpha)),
                rtol=1e-12,
            )
        assert_allclose(cap_volume(3, HALF_PI), math.pi**2, rtol=1e-13)

    def test_cap_volume_vs_scipy(self):
        for n in (4, 5):
            for alpha in (0.4, 1.3):
                ref = sphere_surface_volume(n - 1) * quad(
                    lambda t: math.sin(t) ** (n - 1), 0.0, alpha
                )[0]
                assert_allclose(cap_volume(n, alpha), ref, rtol=1e-12)

    def test_inverse_examples(self):
        assert_allclose(inverse_cap_volume(2, 2.0 * math.pi), HALF_PI, atol=1e-12)
        assert_allclose(inverse_cap_volume(3, math.pi**2), HALF_PI, atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        for alpha in rng.uniform(0.01, math.pi - 0.01, 100):
            v = cap_volume(3, alpha)
            assert abs(inverse_cap_volume(3, v) - alpha) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cap_volume(3, -0.1)
        with pytest.raises(DomainError):
            inverse_cap_volume(3, 0.0)
        with pytest.raises(DomainError):
            sphere_surface_volume(0)


CAP_DIMS = (2, 3, 4, 6, 11, 40, 256, 1000)
CAP_ALPHAS = (1e-9, 1e-6, 1e-3, 0.3, math.pi / 4, 1.2, HALF_PI - 1e-9, HALF_PI, 2.0,
              math.pi - 1e-4)


def _cap_volume_oracle(n, alpha):
    """omega_{n-1} * integral_0^alpha sin^(n-1) at 50 digits (DLMF 8.17)."""
    with mpmath.workdps(50):
        half = mpmath.pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)
        a = mpmath.mpf(alpha)
        s = min(a, mpmath.pi - a)
        frac = mpmath.betainc(mpmath.mpf(n) / 2, 0.5, 0, mpmath.sin(s) ** 2,
                              regularized=True)
        return float(half * (2 - frac) if a > mpmath.pi / 2 else half * frac)


def _normal(x):
    return math.isfinite(x) and abs(x) >= sys.float_info.min


class TestGeometryDimension:
    def test_non_integer_n_rejected(self):
        # a cap volume at n = 3.5 but rho from the n = 3 weight
        with pytest.raises(ParameterError, match="integer"):
            CapGeometry(3.5, HALF_PI)

    @pytest.mark.parametrize("n", [3.0, np.int64(3)])
    def test_integral_n_accepted(self, n):
        geom = CapGeometry(n, HALF_PI)
        assert geom == CapGeometry(3, HALF_PI) and type(geom.n) is int


class TestCapVolumeClosedForm:
    @pytest.mark.parametrize("n", CAP_DIMS)
    def test_vs_mpmath(self, n):
        for alpha in CAP_ALPHAS:
            ref = _cap_volume_oracle(n, alpha)
            err = abs(cap_volume(n, alpha) - ref)
            # the whole 1000-sphere is below 1e-880
            assert err <= (1e-13 * ref if _normal(ref) else sys.float_info.min), (n, alpha)

    @pytest.mark.parametrize("n", CAP_DIMS)
    def test_inverse_round_trip(self, n):
        checked = 0
        for alpha in CAP_ALPHAS:
            v = cap_volume(n, alpha)
            if not _normal(v):
                continue
            # near the total the rounding of v alone moves alpha by
            # spacing(v) / A'(alpha); skip where that exceeds 1e-13 alpha
            slope = sphere_surface_volume(n - 1) * math.sin(alpha) ** (n - 1)
            if np.spacing(v) > 1e-13 * alpha * slope:
                continue
            assert abs(inverse_cap_volume(n, v) - alpha) <= 1e-12 * alpha, (n, alpha)
            checked += 1
        assert checked >= 5 or n == 1000

    def test_inverse_tiny_volume(self):
        # the cap volume is 4 pi alpha^3 / 3 to relative O(alpha^2)
        assert_allclose(inverse_cap_volume(3, 1e-300), (3e-300 / (4.0 * math.pi)) ** (1 / 3),
                        rtol=1e-13)
        assert_allclose(inverse_cap_volume(3, 1e-300), 6.2035e-101, rtol=1e-5)

    @pytest.mark.parametrize("n", (2, 5, 40))
    def test_vectorised_equals_elementwise(self, n):
        alphas = np.concatenate((np.geomspace(1e-8, math.pi, 50), [0.0, HALF_PI]))
        vols = cap_volume(n, alphas)
        assert np.array_equal(vols, [cap_volume(n, a) for a in alphas])
        inner = vols[(vols > 0.0) & (vols < cap_volume(n, math.pi))]
        radii = inverse_cap_volume(n, inner)
        assert isinstance(inverse_cap_volume(n, inner[0]), float)
        assert np.array_equal(radii, [inverse_cap_volume(n, v) for v in inner])

    def test_domain_error_names_first_offender(self):
        vols = np.concatenate((np.linspace(1.0, 5.0, 1000), [0.0, -1.0], np.ones(1000)))
        with pytest.raises(DomainError) as info:
            inverse_cap_volume(3, vols)
        message = str(info.value)
        assert "got 0.0" in message and repr(cap_volume(3, math.pi)) in message
        assert len(message) < 120
        with pytest.raises(DomainError, match="got 4.0"):
            cap_volume(3, np.array([0.5, 4.0, -1.0]))
        with pytest.raises(DomainError, match="got nan"):
            inverse_cap_volume(3, math.nan)


def _dense_mu_of_levels(geom, nodes, values, levels):
    """The measure of {u > level} from a (levels, cells) table of every cell
    at every level."""
    lo, hi = nodes[:-1], nodes[1:]
    v0, v1 = values[:-1], values[1:]
    vols = cap_volume(geom.n, nodes)
    t = levels[:, None]
    dv = np.where(v1 == v0, 1.0, v1 - v0)
    cross = np.clip(lo + (t - v0) * (hi - lo) / dv, lo, hi)
    cross_vol = cap_volume(geom.n, cross)
    up0, up1 = v0 > t, v1 > t
    seg = np.zeros_like(cross)
    seg = np.where(up0 & up1, vols[1:] - vols[:-1], seg)
    seg = np.where(up0 & ~up1, cross_vol - vols[:-1], seg)
    seg = np.where(~up0 & up1, vols[1:] - cross_vol, seg)
    return seg.sum(axis=1)


class TestDistributionOfProfiles:
    def test_mu_matches_dense_table(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            geom = CapGeometry(n=int(rng.integers(2, 12)), a_star=rng.uniform(0.1, 3.0))
            size = int(rng.integers(3, 120))
            nodes = np.sort(rng.uniform(0.0, geom.a_star, size))
            nodes = np.unique(np.concatenate(([0.0], nodes, [geom.a_star])))
            # one decimal: flat stretches, and levels equal to node values
            values = np.round(rng.uniform(0.0, 1.0, len(nodes)), 1)
            values[-1] = 0.0
            levels = np.union1d(np.linspace(0.0, values.max(), 257), values)
            fast = _mu_of_levels(geom, nodes, values, levels)
            dense = _dense_mu_of_levels(geom, nodes, values, levels)
            assert np.max(np.abs(fast - dense)) <= 1e-12 * geom.measure

    def test_mu_closes_at_the_cap_edge(self, hemi):
        nodes = np.linspace(0.0, HALF_PI, 5)
        values = np.full(5, 2.0)
        mu = _mu_of_levels(hemi, nodes, values, np.array([0.0, 1.0, 2.0]))
        assert_allclose(mu, [hemi.measure, hemi.measure, 0.0], rtol=1e-15)


class TestRho:
    def test_closed_form(self, hemi):
        for th in (0.1, 0.4, 0.7):
            assert_allclose(
                rho_star(hemi, 2.0, th), 1.0 / (math.sin(th) * math.cos(th)),
                rtol=1e-8,
            )

    def test_plateau(self, hemi):
        plateau = rho_star(hemi, 2.0, HALF_PI)
        assert_allclose(plateau, 2.0, rtol=1e-9)
        for th in (HALF_PI, 2.0, 3.0, math.pi):
            assert rho_star(hemi, 2.0, th) == plateau

    def test_vectorised(self, hemi):
        ths = np.array([0.2, 0.9, 2.0])
        vals = rho_many(hemi, 2.0, ths)
        assert_allclose(vals[0], rho_star(hemi, 2.0, 0.2), rtol=1e-12)
        assert vals[2] == rho_star(hemi, 2.0, 2.0)

    def test_asymptotics(self, hemi):
        assert abs(rho_asymptotic_check(hemi, 2.0, 1e-4) - 1.0) < 1e-2
        geom4 = CapGeometry(n=4, a_star=1.0)
        assert abs(rho_asymptotic_check(geom4, 2.0, 1e-5) - 1.0) < 1e-3

    def test_domain_errors(self, hemi):
        with pytest.raises(DomainError):
            rho_star(hemi, 2.0, 0.0)
        with pytest.raises(DomainError):
            rho_star(hemi, 3.5, 0.5)  # p >= n


    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta(self, hemi, theta):
        # NaN used to pass the range check and get the plateau value
        with pytest.raises(DomainError):
            rho_many(hemi, 2.0, [0.5, theta])
        with pytest.raises(DomainError):
            rho_star(hemi, 2.0, theta)

def _random_sample_set(rng, geom, size=40):
    weights = rng.uniform(0.2, 1.0, size)
    weights *= geom.measure / weights.sum()
    return SampleSet(values=rng.uniform(0.0, 2.0, size), weights=weights)


class TestRearrangements:
    def test_distribution_function_examples(self):
        s = SampleSet(np.array([1.0, 3.0]), np.array([2.0, 5.0]))
        assert distribution_function(s, 0.5) == 7.0
        assert distribution_function(s, 2.0) == 5.0
        assert distribution_function(s, 3.0) == 0.0

    def test_decreasing_rearrangement_two_level(self):
        s = SampleSet(np.array([1.0, 3.0]), np.array([2.0, 5.0]))
        assert decreasing_rearrangement(s, 0.0) == 3.0
        assert decreasing_rearrangement(s, 4.9) == 3.0
        assert decreasing_rearrangement(s, 5.0) == 1.0
        assert decreasing_rearrangement(s, 6.9) == 1.0
        assert decreasing_rearrangement(s, 7.0) == 0.0

    def test_decreasing_rearrangement_brute_force(self):
        rng = np.random.default_rng(5)
        s = SampleSet(rng.uniform(0, 3, 25), rng.uniform(0.1, 1, 25))
        for sigma in rng.uniform(0.0, s.total_measure, 50):
            fast = decreasing_rearrangement(s, sigma)
            # oracle: smallest threshold whose super-level measure <= sigma
            thresholds = np.unique(np.concatenate(([0.0], np.abs(s.values))))
            brute = min(t for t in thresholds if distribution_function(s, t) <= sigma)
            assert_allclose(fast, brute, rtol=1e-14)

    def test_monotone(self):
        rng = np.random.default_rng(6)
        s = SampleSet(rng.uniform(0, 1, 30), rng.uniform(0.1, 1, 30))
        sigmas = np.sort(rng.uniform(0, s.total_measure, 40))
        vals = [decreasing_rearrangement(s, x) for x in sigmas]
        assert all(a >= b for a, b in zip(vals[:-1], vals[1:]))

    def test_equimeasurability_moments(self, hemi):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = _random_sample_set(rng, hemi)
            star = spherical_rearrangement(s, hemi)
            for q in (1, 2, 3):
                assert_allclose(star.moment(q), s.moment(q), rtol=1e-8)

    def test_two_level_plateau_boundary(self, hemi):
        big_w = 1.0
        s = SampleSet(
            np.array([2.0, 1.0]), np.array([big_w, hemi.measure - big_w])
        )
        star = spherical_rearrangement(s, hemi)
        assert_allclose(star.levels, [2.0, 1.0])
        assert_allclose(star.boundaries[1], inverse_cap_volume(3, big_w), atol=1e-12)

    def test_constant_input(self, hemi):
        s = SampleSet(np.full(5, 1.5), np.full(5, hemi.measure / 5))
        star = spherical_rearrangement(s, hemi)
        assert np.all(star.levels == 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError):
            SampleSet(np.array([1.0, bad]), np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            SampleSet(np.array([1.0, 2.0]), np.array([0.5, bad]))

    def test_measure_mismatch_rejected(self, hemi):
        s = SampleSet(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ParameterError):
            spherical_rearrangement(s, hemi)

    def test_zero_weight_on_the_largest_value(self, hemi):
        # the top layer holds no mass: its plateau has radius 0
        s = SampleSet(np.array([3.0, 2.0, 1.0]), hemi.measure * np.array([0.0, 0.5, 0.5]))
        star = spherical_rearrangement(s, hemi)
        assert star.boundaries[0] == star.boundaries[1] == 0.0
        assert_allclose(star.boundaries[2], inverse_cap_volume(3, 0.5 * hemi.measure))
        for q in (1, 2, 3):
            assert_allclose(star.moment(q), s.moment(q), rtol=1e-12)
        assert_allclose(s.moment(2), 2.5 * math.pi**2, rtol=1e-15)
        other = SampleSet(np.array([1.0, 2.0, 3.0]), s.weights)
        lhs, rhs = check_hardy_littlewood(s, other, hemi)
        assert_allclose((lhs, rhs), (3.5 * math.pi**2, 4.0 * math.pi**2), rtol=1e-12)


class TestHardyLittlewood:
    def test_self_pairing_equality(self, hemi):
        rng = np.random.default_rng(8)
        s = _random_sample_set(rng, hemi)
        lhs, rhs = check_hardy_littlewood(s, s, hemi)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_random_pairs(self, hemi):
        rng = np.random.default_rng(9)
        for _ in range(200):
            size = int(rng.integers(2, 30))
            weights = rng.uniform(0.1, 1.0, size)
            weights *= hemi.measure / weights.sum()
            s1 = SampleSet(rng.uniform(0, 2, size), weights)
            s2 = SampleSet(rng.uniform(0, 2, size), weights)
            lhs, rhs = check_hardy_littlewood(s1, s2, hemi)
            assert lhs <= rhs + 1e-9

    def test_sorted_sum_oracle(self, hemi):
        # equal cell weights: rhs equals the sorted-descending dot product
        rng = np.random.default_rng(10)
        size = 16
        weights = np.full(size, hemi.measure / size)
        u, v = rng.uniform(0, 1, size), rng.uniform(0, 1, size)
        _, rhs = check_hardy_littlewood(SampleSet(u, weights), SampleSet(v, weights), hemi)
        oracle = float(np.sum(np.sort(u)[::-1] * np.sort(v)[::-1]) * weights[0])
        assert_allclose(rhs, oracle, rtol=1e-10)

    def test_anti_sorted_strict(self, hemi):
        size = 8
        weights = np.full(size, hemi.measure / size)
        u = np.arange(1.0, size + 1.0)
        s1 = SampleSet(u, weights)
        s2 = SampleSet(u[::-1], weights)
        lhs, rhs = check_hardy_littlewood(s1, s2, hemi)
        assert lhs < rhs

    def test_mismatched_cells_rejected(self, hemi):
        s1 = SampleSet(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        s2 = SampleSet(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        with pytest.raises(ParameterError):
            check_hardy_littlewood(s1, s2, hemi)


def _random_radial_profile(rng, geom, m=8):
    nodes = np.sort(rng.uniform(0.0, geom.a_star, m))
    nodes = np.unique(np.concatenate(([0.0], nodes, [geom.a_star])))
    values = rng.uniform(0.0, 1.0, len(nodes))
    values[-1] = 0.0
    return SphericalProfile(geom, GridFunction(nodes, values))


class TestTheoremOnCap:
    def test_extremal_sequence_near_sharp(self, hemi):
        u = extremal_V_hat_k(hemi, 2.0, 2**10)
        rep = verify_sphere_theorem(hemi, 2.0, u)
        assert rep.sharp_constant == 0.25
        assert rep.quotient >= 0.25 - 1e-9

    def test_scaling_invariance(self, hemi):
        u = extremal_V_hat_k(hemi, 2.0, 64)
        q1 = verify_sphere_theorem(hemi, 2.0, u).quotient
        scaled = SphericalProfile(hemi, u.grid.scaled(7.5))
        q2 = verify_sphere_theorem(hemi, 2.0, scaled).quotient
        assert_allclose(q1, q2, rtol=1e-12)

    @pytest.mark.parametrize("n,p", [(3, 2.0), (4, 2.0), (4, 3.0)])
    def test_random_profiles_lower_bound(self, n, p):
        geom = CapGeometry(n=n, a_star=HALF_PI if n == 3 else 1.2)
        sharp = ((n - p) / p) ** p
        rng = np.random.default_rng(12)
        for _ in range(30):
            u = _random_radial_profile(rng, geom)
            rep = verify_sphere_theorem(geom, p, u)
            assert rep.quotient >= sharp - 1e-9


class TestPolyaSzego:
    def test_monotone_identity(self, hemi):
        nodes = np.linspace(0.0, HALF_PI, 40)
        u = SphericalProfile(hemi, GridFunction(nodes, np.linspace(2.0, 0.0, 40)))
        lhs, rhs = check_polya_szego_radial(hemi, 2.0, u)
        assert_allclose(lhs, rhs, rtol=1e-8)

    def test_single_bump_strict(self, hemi):
        nodes = np.linspace(0.0, HALF_PI, 65)
        values = np.sin(2.0 * nodes) ** 2
        values[-1] = 0.0
        u = SphericalProfile(hemi, GridFunction(nodes, values))
        lhs, rhs = check_polya_szego_radial(hemi, 2.0, u)
        assert lhs > rhs

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_seeded_bump_profiles(self, hemi, q):
        rng = np.random.default_rng(13)
        nodes = np.linspace(0.0, HALF_PI, 48)
        for _ in range(25):
            center = rng.uniform(0.2, 1.2)
            width = rng.uniform(0.1, 0.5)
            values = np.exp(-((nodes - center) / width) ** 2)
            values[-1] = 0.0
            u = SphericalProfile(hemi, GridFunction(nodes, values))
            lhs, rhs = check_polya_szego_radial(hemi, q, u)
            assert lhs >= rhs - 1e-6

    def test_rearranged_is_monotone(self, hemi):
        nodes = np.linspace(0.0, HALF_PI, 30)
        values = np.abs(np.sin(3.0 * nodes))
        values[-1] = 0.0
        u = SphericalProfile(hemi, GridFunction(nodes, values))
        star = radial_rearrangement(u)
        assert np.all(np.diff(star.values) <= 1e-12)
        assert star.values[-1] == 0.0
