"""Spans around calls into each hardycap layer, installed from outside.

The modules import each other with ``from .x import y``, so a function has
one binding per module that imported it.  ``Tracer.install`` replaces every
binding of each traced function in every hardycap module namespace (and
the traced ``Weight`` methods on the class), so calls between modules are
seen as well as calls from the benchmark.

A span is ``(name, start, end, parent, op)``; ``parent`` is the index of the
enclosing span or -1.  Self time is a span's duration minus the time of its
direct children.  Functions called about 1e5 times per pass
(``sphere.cap_volume`` inside ``brentq``) are timed and counted without a
span record, which keeps the tracing overhead small.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("weights", "eta", "quadrature", "hardy1d", "sphere", "halfspace", "cli")


def _first_size(args, index):
    return int(np.size(args[index]))


#: layer -> function -> {count name: size of the work in one call}
TRACED = {
    "quadrature": {
        "refine_breakpoints": {"panels": lambda args, ret: len(ret[0]) - 1},
        "panel_nodes": {"nodes": lambda args, ret: int(ret[0].size)},
        "segment_integrals": {},
        "integrate": {},
    },
    "eta": {
        "tail_integral": {},
        "tail_integrals": {"points": lambda args, ret: _first_size(args, 1)},
        "eta": {},
        "eta_many": {"points": lambda args, ret: _first_size(args, 1)},
        "find_truncation_point": {},
    },
    "weights": {
        "Weight.phi": {"points": lambda args, ret: _first_size(args, 1)},
        "Weight.inv_phi_pow": {"points": lambda args, ret: _first_size(args, 1)},
        "make_sine_weight": {},
        "validate_weight": {},
    },
    "cli": {"main": {}},
    "hardy1d": {
        "hardy_quotient": {},
        "extremal_U_k": {},
        "extremal_V_k": {},
        "A_k_B_k": {},
    },
    "halfspace": {
        "sharpness_sequence_halfspace": {},
        "verify_halfspace": {},
        "dirac_bump": {},
        "zeta_integrability_check": {},
    },
    "sphere": {
        "verify_sphere_theorem": {},
        "spherical_rearrangement": {"levels": lambda args, ret: len(ret.levels)},
        "radial_rearrangement": {},
        "check_polya_szego_radial": {},
        "check_hardy_littlewood": {},
        "inverse_cap_volume": {},
        "cap_volume": {"points": lambda args, ret: _first_size(args, 1)},
    },
}

#: traced but without span records
COUNT_ONLY = {"sphere.cap_volume"}

_QUOTIENT = "hardy1d.hardy_quotient"
_TAILS = "eta.tail_integrals"
_REFINE = "quadrature.refine_breakpoints"


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []  # [span index, name, child seconds]

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function; returns an undo list."""
        undo = []
        modules = [importlib.import_module("hardycap")] + [
            importlib.import_module(f"hardycap.{m}") for m in MODULES]
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"hardycap.{layer}")
            for qualname, measures in funcs.items():
                name = f"{layer}.{qualname}"
                if "." in qualname:  # a method: wrap it on its class
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    undo.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original, measures))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(name, original, measures)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, func, measures):
        stack, spans, self_s, counts = self._stack, self.spans, self.self_s, self.counts
        record = name not in COUNT_ONLY
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if record:
                index = len(spans)
                spans.append(None)
            frame = [index, name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self_s[name] += duration - frame[2]
                counts[f"{name}.calls"] += 1
                if record:
                    spans[index] = (name, start, end, parent[0] if parent else -1, self.op)
            for key, size in measures.items():
                counts[f"{name}.{key}"] += size(args, result)
            if name == _REFINE:
                self._count_redundant(len(result[0]) - 1)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count_redundant(self, panels):
        names = [frame[1] for frame in self._stack]
        if names and names[-1] == _QUOTIENT:
            self.counts["quotient_panels"] += panels
        elif _QUOTIENT in names and _TAILS in names:
            self.counts["tail_panels_under_quotient"] += panels

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
