"""Seeded workloads for the hardycap benchmark.

Each workload function turns a seed into a *pass*: a fixed list of ops
that the worker runs in a closed loop (one client, the next op starts
when the previous one returns).  An op is a call into the public hardycap API plus
a check that runs outside the timed region and returns a failure message,
or None when the result is correct.  Parameters are stratified (every
pass covers the same parameter ranges evenly) so that the cost of a pass
depends on the seed as little as possible.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import hardycap as hc
from hardycap import cli
from hardycap.eta import ENDPOINT_GUARD

#: the sharpness pass: one quotient per rung of the k ladder 16..16384,
#: (family, variant, k) with U the full and V the truncated quotient; each
#: family meets both variants.  The cap and half-space ops reuse the sine
#: weight of the V/4096 slot.
SLOTS = (("power", "U", 16), ("sine", "U", 64), ("sine", "V", 256),
         ("power", "V", 1024), ("sine", "V", 4096), ("power", "V", 16384))
#: k of the A_k/B_k, cap and half-space ops
K_FIXED = 4096
#: parameter grids of the sharpness weights (the reference table covers them)
POWER_GRID = {"p": (1.5, 2.0, 3.0), "delta": (0.5, 1.0, 2.0), "a": (0.5, 1.0, 2.0)}
SINE_GRID = {"n": (3, 4, 5, 6), "p": (1.5, 2.0, 2.5),
             "a": (math.pi / 4, math.pi / 2, 3 * math.pi / 4)}
#: slack allowed below a sharp constant
SHARP_TOL = 1e-9
#: agreement with the stored references (reference.json); the
#: quad cross-check of those references (crosscheck.txt) agrees to 2.4e-11
REF_RTOL = 1e-9
#: agreement of CLI hat quotients with the quad oracle
QUAD_RTOL = 1e-8
#: rearranged moments against input moments
MOMENT_RTOL = 1e-9
#: A_k (p - 1) -> 1; at k = 4096 the endpoint guard leaves at most 5e-5
A_K_TOL = 1e-4

#: rearrangement pass: (samples, n) slots, then (profile nodes, n, q) slots.
#: The two largest slots share n so that their costs form one cluster: the
#: tail percentile then falls inside it instead of between two clusters.
SAMPLE_SLOTS = ((64, 2), (64, 5), (256, 3), (256, 6),
                (1024, 4), (1024, 2), (4096, 4), (4096, 4))
PROFILE_SLOTS = ((512, 3, 1.5), (1024, 5, 2.0), (512, 4, 3.0))
TIE_SHARE = (0.2, 0.3)

#: eta_bounds loses digits to a**e - t**e near t = a (1.4e-9 seen at e = 0.07)
BOUND_RTOL = 1e-7
#: zeta_integrability_check puts no panel edge at the kink T of eta_T; the
#: n = 3, p = 2 closed form is met to 1.3e-8
INTEGRABILITY_RTOL = 1e-7

#: cli-small: random ops per subcommand and pass.  validate-weight,
#: eta-table and find-T take 2-6 ms, the others 6-25 ms; these counts put
#: the median op inside the integrability cluster (6-8 ms) rather than at
#: the gap between the two groups, where it would jump from seed to seed.
CLI_COUNTS = {"validate-weight": 16, "eta-table": 16, "find-T": 32, "quotient": 32,
              "integrability": 32, "rearrange-demo": 32}
#: cli-small works where the overflow exponent (growth / (p - 1)) stays
#: below this; the full-range probe draws beyond it
CLI_MAX_EXPONENT = 12.0


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


@dataclass
class Workload:
    ops: list
    #: ops run once per run outside the timed passes (cli full-range probe)
    probe: list


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


def _strata(rng, count, column=0):
    """``count`` uniforms on [0, 1), one per stratum, jittered by the seed.

    The order of the strata is fixed per column (a different stride for
    each parameter), so the seed moves each op within its stratum but
    never pairs extremes differently; the cost of a pass then depends
    little on the seed.
    """
    stride = next(s for s in range(2 * column + 1, 4 * count) if math.gcd(s, count) == 1)
    return ((np.arange(count) * stride) % count + rng.uniform(size=count)) / count


def _latin(rng, grid, count):
    """``count`` grid points whose coordinates are drawn without repeats."""
    cols = {k: rng.permutation(len(v))[:count] for k, v in grid.items()}
    return [{k: grid[k][cols[k][i]] for k in grid} for i in range(count)]


# ---------------------------------------------------------------------------
# sharpness


def ref_key(kind, params, variant, k):
    fields = "|".join(f"{name}={params[name]!r}" for name in sorted(params))
    return f"{kind}|{fields}|{variant}|{k}"


def sharpness_plan(seed):
    """(family, params, variant, k) per slot, and the half-space bump width."""
    rng = np.random.default_rng(seed)
    draws = {"power": _latin(rng, POWER_GRID, 3), "sine": _latin(rng, SINE_GRID, 3)}
    eps = float(10.0 ** rng.uniform(-4, -2))
    return [(kind, draws[kind].pop(), variant, k) for kind, variant, k in SLOTS], eps


def make_weight(kind, params):
    if kind == "power":
        return hc.make_power_weight(params["p"], params["delta"], params["a"])
    return hc.make_sine_weight(params["n"], params["p"], params["a"])


def sharpness(seed, refs):
    plan, eps = sharpness_plan(seed)
    ops = []
    for kind, params, variant, k in plan:
        w = make_weight(kind, params)
        prof = hc.find_truncation_point(w)
        check = _quotient_check(hc.sharp_constant(w.p), refs[ref_key(kind, params, variant, k)])
        if variant == "U":
            # the full quotient op also evaluates the denominator pieces A_k, B_k
            def run(w=w, prof=prof, k=k):
                q = hc.hardy_quotient(w, prof, hc.extremal_U_k(w, k)).quotient
                return q, hc.A_k_B_k(w, K_FIXED)

            check = _with_ab_check(check, w.p, refs[ref_key(kind, params, "AB", K_FIXED)])
        else:
            def run(w=w, prof=prof, k=k):
                u = hc.extremal_V_k(w, prof, k)
                return hc.hardy_quotient(w, prof, u, truncated=True).quotient
        ops.append(Op(f"quotient-{variant}-{kind}-{k}", run, check))

    cap = next(params for kind, params, variant, k in plan
               if (kind, variant, k) == ("sine", "V", K_FIXED))
    n, p = cap["n"], cap["p"]
    scale = ((p - 1.0) / (n - p)) ** p
    sharp = ((n - p) / p) ** p
    geom = hc.CapGeometry(n=n, a_star=cap["a"])
    hc.rho_star(geom, p, geom.a_star)  # fills the cap profile cache
    hc.rho_star(hc.CapGeometry(n=n, a_star=math.pi / 2), p, math.pi / 2)

    def sphere_op():
        u = hc.extremal_V_hat_k(geom, p, K_FIXED)
        return hc.verify_sphere_theorem(geom, p, u).quotient

    ref = refs[ref_key("sine", cap, "V", K_FIXED)] / scale
    ops.append(Op("sphere", sphere_op, _quotient_check(sharp, ref)))

    half = dict(cap, a=math.pi / 2)
    ref = refs[ref_key("sine", half, "V", K_FIXED)] / scale
    ops.append(Op("halfspace",
                  lambda: hc.sharpness_sequence_halfspace(n, p, K_FIXED, eps),
                  _halfspace_check(sharp, ref, p, eps)))
    return Workload(ops, [])


def _quotient_check(sharp, ref):
    def check(q):
        if not math.isfinite(q):
            return f"non-finite quotient {q}"
        if q < sharp - SHARP_TOL:
            return f"quotient {q!r} below the sharp constant {sharp!r}"
        if _rel(q, ref) > REF_RTOL:
            return f"quotient {q!r} differs from the reference {ref!r}"
        return None
    return check


def _with_ab_check(quotient_check, p, refs_ab):
    def check(result):
        q, ab = result
        bad = quotient_check(q)
        if bad:
            return bad
        a_k, b_k = ab
        if not (math.isfinite(a_k) and math.isfinite(b_k)):
            return f"non-finite A_k, B_k = {ab}"
        if abs(a_k * (p - 1.0) - 1.0) > A_K_TOL:
            return f"A_k (p-1) = {a_k * (p - 1.0)!r} is not 1 within {A_K_TOL}"
        for got, want in zip(ab, refs_ab):
            if _rel(got, want) > REF_RTOL:
                return f"A_k, B_k = {ab} differ from the reference {refs_ab}"
        return None
    return check


def _halfspace_check(sharp, ref, p, eps):
    quotient_check = _quotient_check(sharp, ref)

    def check(rep):
        bad = quotient_check(rep.ratio)
        if bad:
            return bad
        # int R^p r^n / int R^p r^(n-p) is an average of r^p over [1-eps, 1+eps]
        if not (1.0 - eps) ** p <= rep.moment_ratio <= (1.0 + eps) ** p:
            return f"moment ratio {rep.moment_ratio!r} outside the bump's r^p range"
        return None
    return check


# ---------------------------------------------------------------------------
# rearrangement


def _tied_values(rng, size):
    """Samples in (0, 1) where a seeded share repeats earlier values."""
    distinct = int(round(size * (1.0 - rng.uniform(*TIE_SHARE))))
    levels = rng.uniform(0.0, 1.0, distinct)
    return rng.permutation(np.concatenate((levels, rng.choice(levels, size - distinct))))


def _rearrange_check(sample, q_list=(1, 2, 3)):
    def check(result):
        star, (lhs, rhs) = result
        for q in q_list:
            m_in, m_out = sample.moment(q), star.moment(q)
            if not math.isfinite(m_out) or _rel(m_out, m_in) > MOMENT_RTOL:
                return f"moment {q}: rearranged {m_out!r} != input {m_in!r}"
        if np.any(np.diff(star.levels) > 0.0):
            return "rearranged levels are not non-increasing"
        if not (math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs):
            return f"Hardy-Littlewood lhs {lhs!r} > rhs {rhs!r}"
        return None
    return check


def _polya_szego_check(pair):
    lhs, rhs = pair
    if not (math.isfinite(lhs) and math.isfinite(rhs) and lhs >= rhs):
        return f"Polya-Szego lhs {lhs!r} < rhs {rhs!r}"
    return None


def _signed_profile(rng, geom, nodes):
    """A radial profile with sign changes that vanishes at the cap edge."""
    theta = np.linspace(0.0, geom.a_star, nodes)
    freq = rng.uniform(1.0, 8.0, 3) * math.pi / geom.a_star
    values = np.cos(np.outer(theta, freq) + rng.uniform(0, 2 * math.pi, 3)).sum(axis=1)
    values *= 1.0 - theta / geom.a_star
    values[-1] = 0.0
    return hc.SphericalProfile(geom, hc.GridFunction(theta, values))


def rearrangement(seed, refs=None):
    rng = np.random.default_rng(seed)
    caps = np.pi * (0.1 + 0.85 * _strata(rng, len(SAMPLE_SLOTS) + len(PROFILE_SLOTS), 1))
    ops = []
    for (size, n), a_star in zip(SAMPLE_SLOTS, caps):
        geom = hc.CapGeometry(n=n, a_star=float(a_star))
        weights = rng.uniform(0.5, 1.5, size)
        weights *= geom.measure / weights.sum()
        s1 = hc.SampleSet(_tied_values(rng, size), weights)
        s2 = hc.SampleSet(_tied_values(rng, size), weights)
        ops.append(Op(f"rearrange-{size}",
                      lambda s1=s1, s2=s2, geom=geom: (
                          hc.spherical_rearrangement(s1, geom),
                          hc.check_hardy_littlewood(s1, s2, geom)),
                      _rearrange_check(s1)))
    for (nodes, n, q), a_star in zip(PROFILE_SLOTS, caps[len(SAMPLE_SLOTS):]):
        geom = hc.CapGeometry(n=n, a_star=float(a_star))
        u = _signed_profile(rng, geom, nodes)
        ops.append(Op(f"polya-szego-{nodes}",
                      lambda geom=geom, q=q, u=u: hc.check_polya_szego_radial(geom, q, u),
                      _polya_szego_check))
    return Workload(ops, [])


# ---------------------------------------------------------------------------
# cli-small


def run_cli(argv):
    """hardycap.cli.main in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _num(x):
    return repr(float(x))


def _weight_argv(kind, params):
    argv = ["--weight", kind, "--p", _num(params["p"]), "--a", _num(params["a"])]
    if kind == "power":
        return argv + ["--delta", _num(params["delta"])]
    return argv + ["--n", str(params["n"])]


def _draw_power(u, full_range):
    """Power-weight parameters from three uniforms."""
    if full_range:
        p = 1.0 + 10.0 ** (-2.0 + 3.3 * u[0])
        return {"p": p, "delta": 10.0 ** (-2.0 + 3.3 * u[1]), "a": 10.0 ** (-2.0 + 4.0 * u[2])}
    # validate_weight's boundary test rejects growth exponents below about 0.6
    p = 1.2 + 4.8 * u[0]
    hi = min(4.0, (CLI_MAX_EXPONENT - 1.0) * (p - 1.0))
    return {"p": p, "delta": 0.5 + (hi - 0.5) * u[1], "a": 0.2 + 4.8 * u[2]}


def _draw_sine(u, full_range, n_min=2):
    """Sine-weight parameters (1 < p < n, 0 < a < pi) from three uniforms."""
    if full_range:
        n = int(round(n_min * (256 / n_min) ** u[0]))
        p = 1.0 + (n - 1.0) * 10.0 ** (-3.0 + 2.99 * u[1])
        return {"n": n, "p": min(p, n - 1e-3), "a": math.pi * (0.001 + 0.998 * u[2])}
    n = n_min + int(u[0] * (11 - n_min))  # n_min .. 10
    p_lo = 1.0 + (n - 1.0) / CLI_MAX_EXPONENT
    p_hi = min(float(n), 6.0) - 0.1
    return {"n": n, "p": p_lo + (p_hi - p_lo) * u[1], "a": 0.2 + 2.8 * u[2]}


def _cli_op(argv, check):
    return Op(" ".join(argv), lambda: run_cli(argv), _cli_check(check))


def _parse_field(text):
    return text == "true" if text in ("true", "false") else float(text)


def _cli_check(check):
    def wrapped(result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        try:
            rows = [{k: _parse_field(v) for k, v in row.items()} for row in _csv_rows(out)]
        except (ValueError, IndexError) as exc:
            return f"unparsable output: {exc}"
        if any(isinstance(v, float) and not math.isfinite(v)
               for row in rows for v in row.values()):
            return "non-finite value in output"
        return check(rows)
    return wrapped


def _check_validate(rows):
    row = rows[0]
    if not all(row[k] for k in ("boundary_ok", "positive_ok", "log_concave_ok",
                                "growth_ok", "all_ok")):
        return f"validation failed: {row}"
    if not 0.0 < row["c1"] <= row["c2"]:
        return f"growth constants out of order: {row}"
    return None


def _check_eta_table(closed_form=None):
    def check(rows):
        for row in rows:
            t, e = row["t"], row["eta"]
            if not (e > 0.0 and row["lower_bound"] <= e * (1 + BOUND_RTOL)
                    and e <= row["upper_bound"] * (1 + BOUND_RTOL)):
                return f"eta {e!r} outside its bounds at t={t!r}"
            if closed_form is not None and abs(e * closed_form(t) - 1.0) > 1e-9:
                return f"eta {e!r} misses its closed form at t={t!r}"
        return None
    return check


def _check_find_T(a, T_exact=None, eta_exact=None):
    def check(rows):
        T, e = rows[0]["T"], rows[0]["eta_at_T"]
        if not (0.0 < T < a and e > 0.0):
            return f"T={T!r}, eta(T)={e!r} out of range"
        if T_exact is not None and (abs(T - T_exact) > 1e-8 or _rel(e, eta_exact) > 1e-12):
            return f"T={T!r}, eta(T)={e!r}; closed form {T_exact!r}, {eta_exact!r}"
        return None
    return check


def _check_quotient(kind, params):
    p, a = params["p"], params["a"]
    sharp = ((p - 1.0) / p) ** p

    def check(rows):
        q = rows[0]["quotient"]
        if q < sharp - SHARP_TOL:
            return f"quotient {q!r} below the sharp constant {sharp!r}"
        from oracle import ClosedFormWeight, hardy_quotient  # scipy.integrate, not in set-up

        if ClosedFormWeight.available(kind, p, params.get("n")):
            cw = ClosedFormWeight(kind, p, a, delta=params.get("delta"), n=params.get("n"))
            indep = hardy_quotient(cw, [0.0, a / 2, a], [0.0, 1.0, 0.0],
                                   upper=a * (1.0 - ENDPOINT_GUARD))
            if _rel(q, indep) > QUAD_RTOL:
                return f"hat quotient {q!r} differs from quad {indep!r}"
        return None
    return check


def _check_integrability(n, p, R):
    def check(rows):
        v = rows[0]["value"]
        if not v > 0.0:
            return f"integrability value {v!r} not positive"
        if n == 3 and p == 2.0:
            exact = 2.0 * math.pi * R**2 * (2.0 + math.pi / 2.0)
            if _rel(v, exact) > INTEGRABILITY_RTOL:
                return f"integrability {v!r} differs from closed form {exact!r}"
        return None
    return check


def _check_rearrange_demo(rows):
    for row in rows:
        if _rel(row["moment_rearranged"], row["moment_input"]) > MOMENT_RTOL:
            return f"rearranged moment differs: {row}"
        if row["hl_lhs"] > row["hl_rhs"]:
            return f"Hardy-Littlewood violated: {row}"
    return None


def _cli_ops(rng, counts, full_range):
    """``counts[cmd]`` stratified ops of each subcommand."""
    ops = []
    for i, cmd in enumerate(("validate-weight", "eta-table", "find-T", "quotient")):
        count = counts[cmd]
        u = np.column_stack([_strata(rng, count, c) for c in range(3)])
        for j in range(count):
            kind = "power" if (i + j) % 2 == 0 else "sine"
            params = _draw_power(u[j], full_range) if kind == "power" else \
                _draw_sine(u[j], full_range)
            argv = [cmd] + _weight_argv(kind, params)
            if cmd == "validate-weight":
                check = _check_validate
            elif cmd == "eta-table":
                check = _check_eta_table()
            elif cmd == "find-T":
                check = _check_find_T(params["a"])
            else:
                argv += ["--function", "hat"]
                check = _check_quotient(kind, params)
            ops.append(_cli_op(argv, check))
    count = counts["integrability"]
    u = np.column_stack([_strata(rng, count, c) for c in range(3)])
    for j in range(count):
        params = _draw_sine(u[j], full_range, n_min=3)
        R = float(10.0 ** (-1.0 + 2.0 * rng.uniform()))
        argv = ["integrability", "--n", str(params["n"]), "--p", _num(params["p"]),
                "--a", _num(R)]
        ops.append(_cli_op(argv,
                           _check_integrability(params["n"], params["p"], R)))
    count = counts["rearrange-demo"]
    u = np.column_stack([_strata(rng, count, c) for c in range(2)])
    for j in range(count):
        n = int(round(2 * 128 ** u[j, 0])) if full_range else 2 + int(9 * u[j, 0])
        a = math.pi * ((0.02 + 0.96 * u[j, 1]) if full_range else (0.1 + 0.85 * u[j, 1]))
        argv = ["rearrange-demo", "--n", str(n), "--a", _num(a),
                "--seed", str(int(rng.integers(2**31)))]
        ops.append(_cli_op(argv, _check_rearrange_demo))
    return ops


def _closed_form_cli_ops():
    """Experiments whose outputs have closed forms."""
    half_pi = math.pi / 2
    sine = {"n": 3, "p": 2.0, "a": half_pi}
    power = {"p": 2.0, "delta": 1.0, "a": 1.0}
    return [
        _cli_op(["eta-table"] + _weight_argv("power", power),
                _check_eta_table(lambda t: t * (1.0 - t))),
        _cli_op(["eta-table"] + _weight_argv("sine", sine),
                _check_eta_table(lambda t: math.sin(t) * math.cos(t))),
        _cli_op(["find-T"] + _weight_argv("sine", sine),
                _check_find_T(half_pi, math.pi / 4, 2.0)),
        _cli_op(["find-T"] + _weight_argv("power", power),
                _check_find_T(1.0, 0.5, 4.0)),
        _cli_op(["quotient"] + _weight_argv("power", power) + ["--function", "hat"],
                _check_quotient("power", power)),
        _cli_op(["integrability", "--n", "3", "--p", "2", "--a", "1.0"],
                _check_integrability(3, 2.0, 1.0)),
    ]


#: full-range probe ops per subcommand and run
PROBE_PER_COMMAND = 8


def cli_small(seed, refs=None):
    rng = np.random.default_rng(seed)
    ops = _closed_form_cli_ops() + _cli_ops(rng, CLI_COUNTS, full_range=False)
    order = rng.permutation(len(ops))
    probe = _cli_ops(rng, dict.fromkeys(CLI_COUNTS, PROBE_PER_COMMAND), full_range=True)
    return Workload([ops[i] for i in order], probe)


BY_NAME = {"sharpness": sharpness, "rearrangement": rearrangement, "cli-small": cli_small}
