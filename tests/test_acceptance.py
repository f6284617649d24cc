"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test evaluates its criterion completely, prints a single summary
line, and only then asserts, so the table is readable in the captured
output of a full run.
"""

import json
import math

import numpy as np
from scipy.integrate import quad

from conftest import riccati_residual, run_python
from hardycap.eta import eta_many, find_truncation_point
from hardycap.halfspace import (
    SeparableField,
    sharpness_sequence_halfspace,
    verify_halfspace,
)
from hardycap.hardy1d import (
    A_k_B_k,
    GridFunction,
    convergence_study,
    hardy_quotient,
    sharp_constant,
)
from hardycap.sphere import (
    CapGeometry,
    SampleSet,
    SphericalProfile,
    check_hardy_littlewood,
    check_polya_szego_radial,
    extremal_V_hat_k,
    rho_star,
    spherical_rearrangement,
    verify_sphere_theorem,
)
from hardycap.weights import make_power_weight, make_sine_weight

HALF_PI = math.pi / 2

# Closed form of the truncated V_k quotient for n = 3, p = 2, a = pi/2, the
# configuration of criteria 1, 7 and 8, built without hardycap.  There
# phi = sin^2 t, I(t) = cot t, T = pi/4, eta_T = 2 and c = 1/4.  On the body
# [1/k, T] the numerator integrand is c times the denominator integrand
# (Riccati identity), and the denominator body is L_k = log(I(1/k)/I(T)).
# The constant head [0, 1/k] adds exactly 1/(p-1) = 1 to the denominator.
# The ramp (R - t)/(R - T) on [T, R], R = 3pi/8, adds E to the numerator and
# D to the denominator, neither depending on k.  Hence
#     q(k) = (c L_k + E) / (L_k + 1 + D),
#     margin(k) = (E - c (1 + D)) / (L_k + 1 + D),
# which tends to zero only like 1/log k.
V_T = math.pi / 4
V_RAMP_END = 3 * math.pi / 8
V_C = 0.25
V_E = 4 / math.pi + 16 * (1 - math.sqrt(2) / 2) / math.pi**2
V_D = quad(
    lambda t: 4 * ((V_RAMP_END - t) / (V_RAMP_END - V_T)) ** 2 * math.sin(t) ** 2,
    V_T, V_RAMP_END,
)[0]
V_EXCESS = V_E - V_C * (1 + V_D)
#: the piecewise-linear grid (hardy1d.GRID_SIZE = 4096 nodes) reproduces q(k) to < 1e-5
V_RTOL = 5e-5


def v_k_log(k):
    """L_k = log(I(1/k) / I(T)) = log cot(1/k)."""
    return math.log(1 / math.tan(1 / k))


def v_k_quotient(k):
    """Exact truncated Hardy quotient of V_k (and of the cap V-hat_k)."""
    lk = v_k_log(k)
    return (V_C * lk + V_E) / (lk + 1 + V_D)


def rel_err(x, ref):
    return abs(x - ref) / abs(ref)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_01_sharp_constant_convergence_truncated():
    w = make_sine_weight(3, 2.0, HALF_PI)
    prof = find_truncation_point(w)
    ks = [2**j for j in range(4, 15)]
    rows = convergence_study(w, prof, ks, truncated=True)
    above = all(q >= 0.25 - 1e-9 for _, q, _ in rows)
    q_err = max(rel_err(q, v_k_quotient(k)) for k, q, _ in rows)
    margins = [m for _, _, m in rows]
    decreasing = all(m1 > m2 for m1, m2 in zip(margins, margins[1:]))
    # margin(k) * (L_k + 1 + D) is the k-independent excess E - c(1 + D)
    scaled = [m * (v_k_log(k) + 1 + V_D) for k, _, m in rows]
    law_err = max(rel_err(x, V_EXCESS) for x in scaled)
    k_max, q_max, m_max = rows[-1]
    ok = above and q_err <= V_RTOL and decreasing and law_err <= V_RTOL
    detail = (
        f"all quotients above sharp: {above}; "
        f"q(2^14) = {q_max:.6f} vs closed form {v_k_quotient(k_max):.6f} "
        f"(max rel err over k=2^4..2^14 {q_err:.1e}); "
        f"margins decreasing: {decreasing}; "
        f"margin(2^14)*(L_k+1+D) = {scaled[-1]:.6f} vs excess {V_EXCESS:.6f} "
        f"(max rel err {law_err:.1e}); margin(2^14) = {m_max:.4f}"
    )
    report(1, ok, detail)


def test_02_A_k_limit():
    w = make_sine_weight(3, 2.0, HALF_PI)
    a_k, _ = A_k_B_k(w, 2**14)
    report(2, abs(a_k - 1.0) < 0.05, f"A_k(2^14) = {a_k:.6f}, target 1 +- 0.05")


def test_03_closed_form_oracles():
    wp = make_power_weight(2.0, 1.0, 1.0)
    ts = np.linspace(1e-3, 1.0 - 1e-3, 1000)
    err_p = np.max(np.abs(eta_many(wp, ts) * ts * (1.0 - ts) - 1.0))
    ws = make_sine_weight(3, 2.0, HALF_PI)
    ths = np.linspace(1e-3, HALF_PI - 1e-3, 1000)
    err_s = np.max(np.abs(eta_many(ws, ths) * np.sin(ths) * np.cos(ths) - 1.0))
    t_err = abs(find_truncation_point(ws).T - math.pi / 4)
    ok = err_p < 1e-10 and err_s < 1e-10 and t_err < 1e-8
    report(3, ok, f"eta rel errors {err_p:.2e} / {err_s:.2e}; |T - pi/4| = {t_err:.2e}")


def test_04_riccati_identity():
    details = []
    ok = True
    for w in (make_power_weight(2.0, 1.0, 1.0), make_sine_weight(3, 2.0, HALF_PI)):
        h = 1e-5 * w.a
        ts = w.a * np.linspace(0.1, 0.85, 100)
        res = np.array([riccati_residual(w, t, h) for t in ts])
        h2 = 1e-4 * w.a
        sample = ts[::11]
        ratios = [riccati_residual(w, t, h2) / riccati_residual(w, t, h2 / 2)
                  for t in sample]
        med = float(np.median(ratios))
        ok = ok and res.max() < 1e-6 and abs(med - 4.0) < 0.5
        details.append(f"{w.kind}: max residual {res.max():.2e}, ratio {med:.2f}")
    report(4, ok, "; ".join(details))


def test_05_hardy_lower_bound_property_suite():
    configs = [
        make_power_weight(2.0, 1.0, 1.0),
        make_sine_weight(3, 2.0, HALF_PI),
        make_sine_weight(4, 3.0, 1.0),
    ]
    violations = 0
    total = 0
    for w in configs:
        prof = find_truncation_point(w)
        sharp = sharp_constant(w.p)
        for truncated in (False, True):
            rng = np.random.default_rng(777)
            for _ in range(200):
                m = int(rng.integers(3, 10))
                nodes = np.unique(np.concatenate(
                    (np.sort(rng.uniform(0.0, w.a, m)), [w.a])))
                if len(nodes) < 2:
                    continue
                values = rng.uniform(-1.0, 1.0, len(nodes))
                values[-1] = 0.0
                if np.all(values == 0.0):
                    continue
                u = GridFunction(nodes, values)
                q = hardy_quotient(w, prof, u, truncated=truncated).quotient
                total += 1
                if q < sharp - 1e-9:
                    violations += 1
    report(5, violations == 0, f"{violations} violations in {total} random quotients")


def test_06_rearrangement_suite():
    geom = CapGeometry(3, HALF_PI)
    rng = np.random.default_rng(2024)
    moment_fail = 0
    for _ in range(100):
        size = int(rng.integers(5, 60))
        weights = rng.uniform(0.1, 1.0, size)
        weights *= geom.measure / weights.sum()
        s = SampleSet(rng.uniform(0.0, 2.0, size), weights)
        star = spherical_rearrangement(s, geom)
        for q in (1, 2, 3):
            if abs(star.moment(q) - s.moment(q)) > 1e-8 * s.moment(q):
                moment_fail += 1
    hl_fail = 0
    for _ in range(200):
        size = int(rng.integers(2, 40))
        weights = rng.uniform(0.1, 1.0, size)
        weights *= geom.measure / weights.sum()
        s1 = SampleSet(rng.uniform(0.0, 2.0, size), weights)
        s2 = SampleSet(rng.uniform(0.0, 2.0, size), weights)
        lhs, rhs = check_hardy_littlewood(s1, s2, geom)
        if lhs > rhs + 1e-9:
            hl_fail += 1
    ps_fail = 0
    nodes = np.linspace(0.0, HALF_PI, 48)
    for _ in range(100):
        center = rng.uniform(0.15, 1.3)
        width = rng.uniform(0.08, 0.5)
        values = np.exp(-(((nodes - center) / width) ** 2))
        values[-1] = 0.0
        u = SphericalProfile(geom, GridFunction(nodes, values))
        lhs, rhs = check_polya_szego_radial(geom, 2.0, u)
        if lhs < rhs - 1e-6:
            ps_fail += 1
    ok = moment_fail == 0 and hl_fail == 0 and ps_fail == 0
    report(6, ok, f"moment fails {moment_fail}, HL fails {hl_fail}, PS fails {ps_fail}")


def test_07_cap_theorem_desk_scale():
    geom = CapGeometry(3, HALF_PI)
    u = extremal_V_hat_k(geom, 2.0, 2**12)
    quotient = verify_sphere_theorem(geom, 2.0, u).quotient
    predicted = v_k_quotient(2**12)
    matches = quotient >= 0.25 - 1e-9 and rel_err(quotient, predicted) <= V_RTOL
    rng = np.random.default_rng(31)
    bound_fail = 0
    for _ in range(100):
        m = int(rng.integers(3, 12))
        nodes = np.unique(np.concatenate(
            ([0.0], np.sort(rng.uniform(0.0, HALF_PI, m)), [HALF_PI])))
        values = rng.uniform(0.0, 1.0, len(nodes))
        values[-1] = 0.0
        prof = SphericalProfile(geom, GridFunction(nodes, values))
        if verify_sphere_theorem(geom, 2.0, prof).quotient < 0.25 - 1e-9:
            bound_fail += 1
    detail = (
        f"extremal quotient(2^12) = {quotient:.6f} vs closed form {predicted:.6f} "
        f"(rel err {rel_err(quotient, predicted):.1e}); bound fails {bound_fail}/100"
    )
    report(7, matches and bound_fail == 0, detail)


def test_08_halfspace_theorem_desk_scale():
    geom = CapGeometry(3, HALF_PI)
    theta = extremal_V_hat_k(geom, 2.0, 64)
    r1 = GridFunction(np.array([0.5, 1.0, 1.5]), np.array([0.0, 1.0, 0.0]))
    r2 = GridFunction(np.array([0.1, 0.4, 2.5, 4.0]), np.array([0.0, 3.0, 1.0, 0.0]))
    q1 = verify_halfspace(3, 2.0, SeparableField(r1, theta)).quotient
    q2 = verify_halfspace(3, 2.0, SeparableField(r2, theta)).quotient
    r_indep = abs(q1 - q2) <= 1e-12 * abs(q1)
    rep = sharpness_sequence_halfspace(3, 2.0, 2**12, 1e-3)
    moments_ok = abs(rep.moment_ratio - 1.0) < 1e-4
    # Fubini: the full ratio is the angular cap quotient of the same profile
    cap_q = verify_sphere_theorem(geom, 2.0, extremal_V_hat_k(geom, 2.0, 2**12)).quotient
    fubini_ok = rel_err(rep.ratio, cap_q) <= 1e-12
    predicted = v_k_quotient(2**12)
    ratio_ok = rep.ratio >= 0.25 - 1e-9 and rel_err(rep.ratio, predicted) <= V_RTOL
    detail = (
        f"R-independence {r_indep}; moment ratio err {abs(rep.moment_ratio - 1):.2e}; "
        f"full ratio {rep.ratio:.6f} = cap quotient: {fubini_ok}; "
        f"vs closed form {predicted:.6f} (rel err {rel_err(rep.ratio, predicted):.1e})"
    )
    report(8, r_indep and moments_ok and fubini_ok and ratio_ok, detail)


def test_09_asymptotic_singularity():
    # t * rho(t) -> 1 as t -> 0: the flat singularity 1/|x|
    e1 = abs(1e-4 * rho_star(CapGeometry(3, HALF_PI), 2.0, 1e-4) - 1.0)
    e2 = abs(1e-4 * rho_star(CapGeometry(4, 1.0), 2.0, 1e-4) - 1.0)
    report(9, e1 < 1e-2 and e2 < 1e-2, f"|t*rho - 1| = {e1:.2e}, {e2:.2e}")


def test_10_cli_determinism():
    args = [
        "-m", "hardycap.cli", "sharpness-1d",
        "--weight", "sine", "--n", "3", "--p", "2",
        "--a", "1.5707963267948966", "--ks", "16,64,256,1024",
        "--truncated",
    ]
    out1 = run_python(*args)
    out2 = run_python(*args)
    ok = out1.returncode == 0 and out1.stdout == out2.stdout and out1.stdout != ""
    report(10, ok, f"byte-identical CSV across reruns: {out1.stdout == out2.stdout}")
