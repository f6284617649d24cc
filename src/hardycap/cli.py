"""Command-line front end: reproducible tables and verification reports.

Every subcommand writes exactly one table (CSV with a header row, or a
JSON object with ``meta`` and ``rows``) to stdout or to ``--out``.  Exit
codes: 0 success, 2 parameter error or unwritable ``--out``, 3 numerical
failure, 4 inequality violated beyond tolerance (which signals a bug,
never expected output).  All angles are radians.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .errors import (
    InequalityViolationError,
    NumericalError,
    ParameterError,
)
from .eta import eta_bounds, eta_many, find_truncation_point
from .halfspace import sharpness_sequence_halfspace, zeta_integrability_check
from .hardy1d import GridFunction, convergence_study, extremal_U_k, extremal_V_k, hardy_quotient
from .sphere import (
    CapGeometry,
    SampleSet,
    check_hardy_littlewood,
    extremal_V_hat_k,
    spherical_rearrangement,
    verify_sphere_theorem,
)
from .weights import Weight, validate_weight

_HALF_PI_LITERAL = "1.5707963267948966"


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _emit(args, meta, header, rows):
    if args.format == "json":
        payload = {
            "meta": meta,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2, default=float) + "\n"
    else:
        lines = [",".join(header)]
        # a float cell formats as _fmt would, without the call; bools,
        # integers and numpy scalars go through _fmt
        lines.extend(",".join(["%.17g" % v if type(v) is float else _fmt(v) for v in row])
                     for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a read-only file
            raise ParameterError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def _build_weight(args):
    # Weight refuses a flag of the other family and a missing one
    return Weight(p=args.p, a=args.a, kind=args.weight, delta=args.delta, n=args.n)


def _meta(args, **extra):
    meta = {"command": args.command, "version": __version__}
    for key in ("weight", "n", "p", "a", "delta", "k", "eps", "seed", "truncated"):
        val = getattr(args, key, None)
        if val is not None:
            meta[key] = val
    if getattr(args, "ks", None):
        meta["ks"] = args.ks
    meta.update(extra)
    return meta


def _parse_ks(text):
    try:
        ks = [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list: {text!r}") from exc
    if not ks:
        raise argparse.ArgumentTypeError("empty k list")
    return ks


def _cmd_validate_weight(args):
    w = _build_weight(args)
    rep = validate_weight(w)
    header = ["boundary_ok", "positive_ok", "log_concave_ok", "growth_ok",
              "c1", "c2", "all_ok"]
    rows = [[rep.boundary_ok, rep.positive_ok, rep.log_concave_ok, rep.growth_ok,
             rep.c1, rep.c2, rep.all_ok]]
    _emit(args, _meta(args), header, rows)


def _cmd_eta_table(args):
    w = _build_weight(args)
    ts = w.a * np.geomspace(1e-6, 1.0 - 1e-6, 64)
    rows = np.column_stack((ts, eta_many(w, ts), *eta_bounds(w, ts))).tolist()
    _emit(args, _meta(args), ["t", "eta", "lower_bound", "upper_bound"], rows)


def _cmd_find_T(args):
    w = _build_weight(args)
    prof = find_truncation_point(w)
    _emit(args, _meta(args), ["T", "eta_at_T"], [[prof.T, prof.eta_at_T]])


def _test_function(args, w, prof):
    name = args.function
    if name == "hat":
        return GridFunction(np.array([0.0, w.a / 2.0, w.a]), np.array([0.0, 1.0, 0.0]))
    if name == "uk":
        return extremal_U_k(w, args.k)
    if name == "vk":
        return extremal_V_k(w, prof, args.k)
    return GridFunction(np.array([0.0, w.a]), np.array([0.0, 0.0]))


def _cmd_quotient(args):
    w = _build_weight(args)
    # T is read by the truncated weight and the V_k ramp only
    needs_T = args.truncated or args.function == "vk"
    prof = find_truncation_point(w) if needs_T else None
    u = _test_function(args, w, prof)
    rep = hardy_quotient(w, prof, u, truncated=args.truncated)
    header = ["numerator", "denominator", "quotient", "sharp_constant", "margin"]
    rows = [[rep.numerator, rep.denominator, rep.quotient, rep.sharp_constant, rep.margin]]
    _emit(args, _meta(args), header, rows)


def _cmd_sharpness_1d(args):
    w = _build_weight(args)
    prof = find_truncation_point(w) if args.truncated else None
    rows = convergence_study(w, prof, args.ks, truncated=args.truncated)
    _emit(args, _meta(args), ["k", "quotient", "margin"], [list(r) for r in rows])


def _cmd_sphere_verify(args):
    geom = CapGeometry(n=args.n, a_star=args.a)
    u = extremal_V_hat_k(geom, args.p, args.k)
    rep = verify_sphere_theorem(geom, args.p, u)
    header = ["numerator", "denominator", "quotient", "sharp_constant", "margin"]
    rows = [[rep.numerator, rep.denominator, rep.quotient, rep.sharp_constant, rep.margin]]
    _emit(args, _meta(args), header, rows)


def _cmd_halfspace_verify(args):
    rep = sharpness_sequence_halfspace(args.n, args.p, args.k, args.eps)
    header = ["ratio", "sharp_constant", "moment_n", "moment_n_minus_p", "moment_ratio"]
    rows = [[rep.ratio, rep.sharp_constant, rep.moment_n, rep.moment_n_minus_p,
             rep.moment_ratio]]
    _emit(args, _meta(args), header, rows)


def _cmd_rearrange_demo(args):
    geom = CapGeometry(n=args.n, a_star=args.a)
    rng = np.random.default_rng(args.seed)
    size = 64
    weights = rng.uniform(0.5, 1.5, size)
    weights *= geom.measure / weights.sum()
    s1 = SampleSet(values=rng.uniform(0.0, 1.0, size), weights=weights)
    s2 = SampleSet(values=rng.uniform(0.0, 1.0, size), weights=weights)
    star = spherical_rearrangement(s1, geom)
    hl_lhs, hl_rhs = check_hardy_littlewood(s1, s2, geom)
    header = ["q", "moment_input", "moment_rearranged", "hl_lhs", "hl_rhs"]
    rows = [[q, s1.moment(q), star.moment(q), hl_lhs, hl_rhs] for q in (1, 2, 3)]
    _emit(args, _meta(args), header, rows)


def _cmd_integrability(args):
    # --a doubles as the ball radius R for this command
    value = zeta_integrability_check(args.n, args.p, args.a)
    _emit(args, _meta(args), ["n", "p", "R", "value"],
          [[args.n, args.p, args.a, value]])


def _add_common(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_weight_args(sub):
    sub.add_argument("--weight", choices=("power", "sine"), required=True)
    sub.add_argument("--n", type=int, default=None, help="sine weights only")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--a", type=float, required=True,
                     help=f"interval endpoint in radians (pi/2 = {_HALF_PI_LITERAL})")
    sub.add_argument("--delta", type=float, default=None, help="power weights only")


@functools.cache
def build_parser():
    """The CLI parser, built at the first call and shared after it
    (``parse_args`` keeps no state between calls)."""
    parser = argparse.ArgumentParser(
        prog="hardycap",
        description="Sharp weighted Hardy inequalities: tables and verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, func in (("validate-weight", _cmd_validate_weight),
                       ("eta-table", _cmd_eta_table), ("find-T", _cmd_find_T)):
        sub = subs.add_parser(name)
        sub.set_defaults(func=func)
        _add_weight_args(sub)
        _add_common(sub)

    sub = subs.add_parser("quotient")
    sub.set_defaults(func=_cmd_quotient)
    _add_weight_args(sub)
    sub.add_argument("--function", choices=("hat", "uk", "vk", "zero"), default="hat")
    sub.add_argument("--k", type=int, default=16)
    sub.add_argument("--truncated", action="store_true")
    _add_common(sub)

    sub = subs.add_parser("sharpness-1d")
    sub.set_defaults(func=_cmd_sharpness_1d)
    _add_weight_args(sub)
    sub.add_argument("--ks", type=_parse_ks, required=True,
                     help="comma-separated sequence indices, e.g. 16,64,256")
    sub.add_argument("--truncated", action="store_true")
    _add_common(sub)

    sub = subs.add_parser("sphere-verify")
    sub.set_defaults(func=_cmd_sphere_verify)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--a", type=float, required=True,
                     help=f"cap radius a_star in radians (pi/2 = {_HALF_PI_LITERAL})")
    sub.add_argument("--k", type=int, default=1024)
    _add_common(sub)

    sub = subs.add_parser("halfspace-verify")
    sub.set_defaults(func=_cmd_halfspace_verify)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--k", type=int, default=1024)
    sub.add_argument("--eps", type=float, default=1e-3)
    _add_common(sub)

    sub = subs.add_parser("rearrange-demo")
    sub.set_defaults(func=_cmd_rearrange_demo)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--a", type=float, required=True, help="cap radius a_star")
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub)

    sub = subs.add_parser("integrability")
    sub.set_defaults(func=_cmd_integrability)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--a", type=float, required=True, help="ball radius R")
    _add_common(sub)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InequalityViolationError as exc:
        print(f"inequality violated: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
