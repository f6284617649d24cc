"""Reference values for the sharpness workload, and their cross-check.

    python3 perfbench/reference.py make        # rewrites perfbench/reference.json
    python3 perfbench/reference.py crosscheck  # compares it with oracle.py

``make`` evaluates, with the hardycap code in ``src/``, every quotient and
A_k/B_k pair the sharpness workload can meet: each weight of the parameter
grids at the ladder rungs of its family.  The stored values pin the
results, so a change that coarsens the quadrature shows as failed ops.
``crosscheck`` re-evaluates a subset with closed-form tail integrals and
``scipy.integrate.quad`` (oracle.py), with and without the library's
endpoint guard at a (1 - 1e-12).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hardycap as hc  # noqa: E402
from hardycap.eta import ENDPOINT_GUARD  # noqa: E402
import oracle  # noqa: E402
import workloads as wl  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def _rungs(kind):
    """(variant, k) pairs a weight of this family meets in a pass."""
    return [(variant, k) for family, variant, k in wl.SLOTS if family == kind]


def _weights():
    for kind, grid in (("power", wl.POWER_GRID), ("sine", wl.SINE_GRID)):
        for values in itertools.product(*grid.values()):
            yield kind, dict(zip(grid, values))


def _evaluate(item):
    kind, params = item
    w = wl.make_weight(kind, params)
    prof = hc.find_truncation_point(w)
    out = {}
    for variant, k in _rungs(kind):
        u = hc.extremal_U_k(w, k) if variant == "U" else hc.extremal_V_k(w, prof, k)
        rep = hc.hardy_quotient(w, prof, u, truncated=variant == "V")
        out[wl.ref_key(kind, params, variant, k)] = rep.quotient
    out[wl.ref_key(kind, params, "AB", wl.K_FIXED)] = list(hc.A_k_B_k(w, wl.K_FIXED))
    return out


def make():
    refs = {}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for part in pool.imap(_evaluate, list(_weights())):
            refs.update(part)
    with open(PATH, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(refs)} reference values written to {PATH}")


def crosscheck():
    with open(PATH) as fh:
        refs = json.load(fh)
    worst_guarded = worst_exact = 0.0
    for kind, params in _weights():
        if not oracle.ClosedFormWeight.available(kind, params["p"], params.get("n")):
            continue
        if kind == "power" and params["a"] != 1.0:
            continue  # a subset: nine power weights, three sine weights
        w = wl.make_weight(kind, params)
        prof = hc.find_truncation_point(w)
        cw = oracle.ClosedFormWeight(kind, params["p"], params["a"],
                                     delta=params.get("delta"), n=params.get("n"))
        T, _ = cw.truncation_point()
        for variant, k in _rungs(kind):
            u = hc.extremal_U_k(w, k) if variant == "U" else hc.extremal_V_k(w, prof, k)
            ref = refs[wl.ref_key(kind, params, variant, k)]
            guard = params["a"] * (1.0 - ENDPOINT_GUARD)
            guarded = oracle.hardy_quotient(cw, u.nodes, u.values, variant == "V", T, guard)
            exact = oracle.hardy_quotient(cw, u.nodes, u.values, variant == "V", T)
            e_g, e_x = oracle.rel_err(ref, guarded), oracle.rel_err(ref, exact)
            worst_guarded, worst_exact = max(worst_guarded, e_g), max(worst_exact, e_x)
            print(f"{wl.ref_key(kind, params, variant, k):60s} ref {ref:.15f} "
                  f"rel.err guarded {e_g:.2e} unguarded {e_x:.2e}")
    print(f"worst relative error: {worst_guarded:.2e} against the guarded integral, "
          f"{worst_exact:.2e} against the integral up to a")


if __name__ == "__main__":
    {"make": make, "crosscheck": crosscheck}[sys.argv[1]]()
