import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hardycap.errors import DomainError, NumericalError, ParameterError
from hardycap.hardy1d import extremal_U_k
from hardycap.weights import Weight, make_power_weight, make_sine_weight, validate_weight


class TestPowerWeight:
    def test_values(self):
        w = make_power_weight(2.0, 1.0, 1.0)
        ts = np.array([0.1, 0.5, 0.9])
        assert_allclose(w.phi(ts), ts**2, rtol=1e-15)
        assert w.growth_exponent == 2.0
        assert w.c1 == 1.0

    def test_inv_phi_pow(self):
        w = make_power_weight(3.0, 2.0, 2.0)
        # phi = t^4, exponent -1/2
        assert_allclose(w.inv_phi_pow(0.25), 0.25**-2.0, rtol=1e-14)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            make_power_weight(1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            make_power_weight(2.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            make_power_weight(2.0, 1.0, -1.0)


class TestSineWeight:
    def test_values(self):
        w = make_sine_weight(3, 2.0, math.pi / 2)
        ts = np.array([0.2, 1.0, 1.5])
        assert_allclose(w.phi(ts), np.sin(ts) ** 2, rtol=1e-15)
        assert w.delta == 1.0

    def test_growth_constants_bracket_ratio(self):
        w = make_sine_weight(4, 2.0, 1.0)
        ts = np.linspace(1e-6, 1.0, 500)
        ratio = w.phi(ts) / ts**w.growth_exponent
        assert np.all(ratio >= w.c1 * (1.0 - 1e-12))
        assert np.all(ratio <= 1.0 + 1e-12)

    def test_c2_is_small_angle_limit(self):
        # sin t / t -> 1 at t -> 0 and decreases on (0, pi)
        w = make_sine_weight(3, 2.0, 1.5)
        assert_allclose(w.phi(1e-6) / 1e-6**2, 1.0, atol=1e-10)
        assert w.c1 < 1.0

    @pytest.mark.parametrize("n,a", [(3, 1.5), (40, 2.0), (200, 3.1)])
    def test_growth_constants_closed_form(self, n, a):
        # (sin t / t)**(n-1) decreases from its supremum 1 at t -> 0 to c1 at a
        w = make_sine_weight(n, 2.0, a)
        assert w.c1 == (math.sin(a) / a) ** (n - 1)
        t = 1e-12 * a
        assert w.c1 <= (math.sin(t) / t) ** (n - 1) <= 1.0

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            make_sine_weight(1, 0.5, 1.0)
        with pytest.raises(ParameterError):
            make_sine_weight(3, 3.0, 1.0)  # p >= n
        with pytest.raises(ParameterError):
            make_sine_weight(3, 2.0, 4.0)  # a >= pi

    @pytest.mark.parametrize("n", [3.9, 3.5, math.nan, math.inf, "3"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ParameterError, match="integer"):
            make_sine_weight(n, 2.0, 1.0)

    @pytest.mark.parametrize("n", [3.0, np.int64(3), np.float64(3.0)])
    def test_integral_n_accepted(self, n):
        w = make_sine_weight(n, 2.0, 1.0)
        assert w == make_sine_weight(3, 2.0, 1.0)
        assert type(w.n) is int


class TestConstructionChecks:
    """``Weight`` checks admissibility itself, so a directly built weight
    meets the same checks as one from ``make_power_weight``/``make_sine_weight``."""

    @pytest.mark.parametrize("kwargs,match", [
        (dict(p=1.0, a=1.0, kind="power", delta=1.0), "p must be > 1"),
        (dict(p=2.0, a=1.0, kind="power", delta=0.0), "delta must be > 0"),
        (dict(p=2.0, a=-1.0, kind="power", delta=1.0), "a must be > 0"),
        (dict(p=2.0, a=1.0, kind="sine", delta=1.0, n=3.5), "integer"),
        (dict(p=3.0, a=1.0, kind="sine", delta=0.0, n=3), "1 < p < n"),
        (dict(p=2.0, a=4.0, kind="sine", delta=1.0, n=3), "a must lie in"),
        (dict(p=2.0, a=1.0, kind="cosine", delta=1.0), "kind must be"),
    ])
    def test_direct_construction_checked(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            Weight(**kwargs)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(p=math.inf, a=1.0, kind="power", delta=1.0), "p"),
        (dict(p=2.0, a=math.inf, kind="power", delta=1.0), "a"),
        (dict(p=2.0, a=1.0, kind="power", delta=math.inf), "delta"),
        (dict(p=2.0, a=1.0, kind="sine", delta=math.inf, n=3), "delta"),
    ])
    def test_non_finite_rejected(self, kwargs, name):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            Weight(**kwargs)

    @pytest.mark.parametrize("p,delta,a", [
        (math.inf, 1.0, 1.0), (2.0, math.inf, 1.0), (2.0, 1.0, math.inf), (math.nan, 1.0, 1.0),
    ])
    def test_make_power_weight_non_finite(self, p, delta, a):
        with pytest.raises(ParameterError):
            make_power_weight(p, delta, a)

    def test_integer_too_large_for_a_float(self):
        # float(10**400) escaped as a bare OverflowError
        with pytest.raises(DomainError, match="p must be finite"):
            make_power_weight(10**400, 1.0, 1.0)
        with pytest.raises(DomainError, match="k must be finite"):
            extremal_U_k(make_power_weight(2.0, 1.0, 1.0), 10**400)

    @pytest.mark.parametrize("make,args,name", [
        (make_power_weight, ("2", 1.0, 1.0), "p"),
        (make_power_weight, (None, 1.0, 1.0), "p"),
        (make_power_weight, (2.0, 1.0, "1"), "a"),
        (make_sine_weight, (3, "2", 1.0), "p"),
    ])
    def test_non_numeric_parameter(self, make, args, name):
        # these raised TypeError from the comparisons or from n - p
        with pytest.raises(ParameterError, match=f"{name} must be a real number"):
            make(*args)

    def test_fields_normalised(self):
        # ints become floats and an integral float n an int, as from the makers
        w = Weight(p=2, a=1, kind="sine", delta=1, n=3.0)
        assert w == make_sine_weight(3, 2, 1)
        assert type(w.p) is float and type(w.delta) is float and type(w.n) is int
        assert Weight(p=2, a=1, kind="power", delta=1) == make_power_weight(2.0, 1.0, 1.0)


class TestFamilyParameters:
    """``Weight`` alone decides which parameters a family takes."""

    def test_sine_derives_delta(self):
        w = Weight(kind="sine", n=3, p=2, a=1)
        assert w == make_sine_weight(3, 2, 1)
        assert w.delta == 1.0

    @pytest.mark.parametrize("n,p,delta", [(3, 2.0, 1.0), (3, 2.3, 0.7), (4, 2.3, 1.7)])
    def test_sine_accepts_delta_n_minus_p(self, n, p, delta):
        # a decimal n - p may differ from the float n - p in its last bit
        w = Weight(kind="sine", n=n, p=p, a=1.0, delta=delta)
        assert w == make_sine_weight(n, p, 1.0) and w.delta == n - p

    @pytest.mark.parametrize("delta", [5.0, 0.5, 1.0 + 1e-9])
    def test_sine_refuses_other_delta(self, delta):
        # delta = 5 gave eta_bounds (7.31, 14.58) around eta(0.5) = 3.66
        with pytest.raises(ParameterError, match="n - p"):
            Weight(kind="sine", n=3, p=2.0, a=1.0, delta=delta)

    @pytest.mark.parametrize("n", [3, 0, 3.5])
    def test_power_refuses_n(self, n):
        with pytest.raises(ParameterError, match="takes no n"):
            Weight(kind="power", p=2.0, a=1.0, delta=1.0, n=n)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(kind="power", p=2.0, a=1.0), "delta must be > 0, got None"),
        (dict(kind="sine", p=2.0, a=1.0), "needs n"),
        (dict(kind="sine", p=2.0, a=1.0, delta=1.0), "needs n"),
    ])
    def test_missing_parameter(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            Weight(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="sine", n=3, p=3.0, a=1.0),
        dict(kind="sine", n=3, p=1.0, a=1.0),
        dict(kind="power", p=1.0, a=1.0, delta=1.0),
    ])
    def test_p_outside_range_is_a_domain_error(self, kwargs):
        with pytest.raises(DomainError, match="p must"):
            Weight(**kwargs)


class TestGrowthConstantsDerived:
    def test_not_fields(self):
        # c1 and c2 follow from the family; a Weight cannot contradict its phi
        names = [f.name for f in dataclasses.fields(Weight)]
        assert names == ["p", "a", "kind", "delta", "n"]
        w = Weight(p=2.0, a=1.5, kind="sine", delta=1.0, n=3)
        assert w.c1 == (math.sin(1.5) / 1.5) ** 2
        assert w.c1 == make_sine_weight(3, 2.0, 1.5).c1


class TestValidateWeight:
    @pytest.mark.parametrize("w", [
        make_power_weight(2.0, 1.0, 1.0),
        make_power_weight(3.0, 0.5, 2.5),
        make_sine_weight(3, 2.0, math.pi / 2),
        make_sine_weight(4, 3.0, 1.0),
        # growth exponents 0.21, 0.4, 0.51: phi(1e-10 a) is far from 0
        make_power_weight(1.2, 0.01, 1.0),
        make_power_weight(1.2, 0.2, 1.0),
        make_power_weight(1.2, 0.31, 1.0),
    ])
    def test_builtin_weights_pass(self, w):
        rep = validate_weight(w)
        assert rep.all_ok
        assert rep.boundary_ok and rep.positive_ok
        assert rep.log_concave_ok and rep.growth_ok

    def test_ratio_finite_where_the_power_underflows(self):
        # t**199 underflows on the lower grid; phi/t**199 was nan there
        w = make_sine_weight(200, 2.0, 3.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate_weight(w)
        assert math.isfinite(rep.c1) and math.isfinite(rep.c2)
        assert rep.c1 == 0.0 and 0.97 < rep.c2 < 0.98
        assert not rep.positive_ok and not rep.all_ok

    def test_power_underflowing_on_the_whole_grid(self):
        # a**401 = 1e-401: no point of the grid gives a ratio
        with pytest.raises(NumericalError, match="underflows"):
            validate_weight(make_power_weight(2.0, 400.0, 0.1))
