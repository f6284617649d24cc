"""Every entry point that takes a number or an array of numbers refuses a
string, None, NaN, an infinity or an out-of-range value with a
``HardyError`` subclass, never with a bare exception, a warning, a NaN or
a value converted from a string."""

import math

import pytest

from hardycap.errors import DomainError, HardyError
from hardycap.eta import (
    eta,
    eta_bounds,
    eta_many,
    eta_truncated_many,
    find_truncation_point,
    tail_integral,
    tail_integrals,
)
from hardycap.halfspace import (
    SeparableField,
    dirac_bump,
    sharpness_sequence_halfspace,
    verify_halfspace,
    zeta,
    zeta_integrability_check,
)
from hardycap.hardy1d import (
    A_k_B_k,
    GridFunction,
    convergence_study,
    extremal_U_k,
    extremal_V_k,
)
from hardycap.sphere import (
    CapGeometry,
    SampleSet,
    SphericalProfile,
    cap_volume,
    check_polya_szego_radial,
    extremal_V_hat_k,
    inverse_cap_volume,
    rho_many,
    rho_star,
    spherical_rearrangement,
    verify_sphere_theorem,
)
from hardycap.weights import SINE, Weight, make_sine_weight

HALF_PI = math.pi / 2
W = make_sine_weight(3, 2.0, HALF_PI)
GEOM = CapGeometry(3, HALF_PI)
HAT = SphericalProfile(GEOM, GridFunction([0.0, 0.5, HALF_PI], [0.0, 1.0, 0.0]))
SAMPLES = SampleSet([0.25, 0.5], [GEOM.measure / 2, GEOM.measure / 2])
STEPS = spherical_rearrangement(SAMPLES, GEOM)
FIELD = SeparableField(radial=dirac_bump(0.1, 2.0, 3), angular=HAT)

NON_NUMBERS = ("0.5", None, math.nan, math.inf)
#: a sequence index k is also refused at 0
K_VALUES = NON_NUMBERS + (0,)
#: an exponent p is also refused as a list: the cap's eta profile is cached
#: on p, and hashing a list raised a bare TypeError
P_VALUES = NON_NUMBERS + ([2.0],)

ENTRY_POINTS = {
    "A_k_B_k": (lambda k: A_k_B_k(W, k), K_VALUES),
    "extremal_U_k": (lambda k: extremal_U_k(W, k), K_VALUES),
    "extremal_V_k": (lambda k: extremal_V_k(W, find_truncation_point(W), k), K_VALUES),
    "tail_integral": (lambda t: tail_integral(W, t), NON_NUMBERS),
    "dirac_bump": (lambda eps: dirac_bump(eps, 2.0, 3), NON_NUMBERS),
    # p must be > 1; at n = 1e6 the moment overflows, refused without a warning
    "dirac_bump_p": (lambda p: dirac_bump(1e-3, p, 3), NON_NUMBERS + (0.0, 1e-300, -1.0)),
    "dirac_bump_n": (lambda n: dirac_bump(1e-3, 2.0, n), NON_NUMBERS + ("3", 1e6)),
    "SampleSet.moment": (lambda q: SAMPLES.moment(q), NON_NUMBERS + ("2", 0.0, -1.0)),
    "CapStepProfile.moment": (lambda q: STEPS.moment(q), NON_NUMBERS + ("2", 0.0, -1.0)),
    "CapGeometry": (lambda a_star: CapGeometry(3, a_star), NON_NUMBERS + ("1",)),
    "convergence_study": (lambda k: convergence_study(W, None, [16, k]), K_VALUES + ("64",)),
    "convergence_study_ks": (lambda ks: convergence_study(W, None, ks), (5, None, 16.0)),
    "check_polya_szego_radial": (lambda q: check_polya_szego_radial(GEOM, q, HAT), NON_NUMBERS),
    "cap_volume": (lambda alpha: cap_volume(3, alpha), NON_NUMBERS),
    "inverse_cap_volume": (lambda volume: inverse_cap_volume(3, volume), NON_NUMBERS),
    "rho_many": (lambda theta: rho_many(GEOM, 2.0, [theta]), NON_NUMBERS),
    "rho_star_p": (lambda p: rho_star(GEOM, p, 0.5), P_VALUES),
    # a list theta raised a bare TypeError from float() of a 2-D result
    "rho_star_theta": (lambda theta: rho_star(GEOM, 2.0, theta), NON_NUMBERS + ([2.0],)),
    "rho_many_p": (lambda p: rho_many(GEOM, p, [0.5]), P_VALUES),
    "extremal_V_hat_k_p": (lambda p: extremal_V_hat_k(GEOM, p, 16), P_VALUES),
    "verify_sphere_theorem_p": (lambda p: verify_sphere_theorem(GEOM, p, HAT), P_VALUES),
    "zeta_p": (lambda p: zeta(3, p, 0.5), P_VALUES),
    "zeta_integrability_check_p": (lambda p: zeta_integrability_check(3, p, 1.0), P_VALUES),
    "sharpness_sequence_halfspace_p": (
        lambda p: sharpness_sequence_halfspace(3, p, 16, 0.1), P_VALUES),
    "verify_halfspace_p": (lambda p: verify_halfspace(3, p, FIELD), P_VALUES),
    "eta": (lambda t: eta(W, t), NON_NUMBERS),
    "eta_many": (lambda t: eta_many(W, [t]), NON_NUMBERS),
    "eta_bounds": (lambda t: eta_bounds(W, [t]), NON_NUMBERS),
    "eta_truncated_many": (
        lambda t: eta_truncated_many(find_truncation_point(W), [t]), NON_NUMBERS),
    "tail_integrals": (lambda t: tail_integrals(W, [t]), NON_NUMBERS),
    "GridFunction": (lambda x: GridFunction([x, 1.0], [1.0, 0.0]), NON_NUMBERS),
    "SampleSet": (lambda x: SampleSet([x], [1.0]), NON_NUMBERS),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_bad_number_raises_hardy_error(name):
    call, bad_values = ENTRY_POINTS[name]
    for bad in bad_values:
        with pytest.raises(HardyError):
            call(bad)


@pytest.mark.parametrize("call", [
    lambda: make_sine_weight(10**400, 2.0, 1.0),
    lambda: Weight(kind=SINE, n=10**400, p=2.0, a=1.0, delta=1.0).c1,
], ids=["make_sine_weight", "Weight"])
def test_dimension_too_large_for_a_float(call):
    # n - p and c1 raised a bare OverflowError
    with pytest.raises(DomainError, match="n must be finite"):
        call()
