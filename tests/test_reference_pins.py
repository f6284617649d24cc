"""The benchmark's pinned values, reproduced by the library.

``perfbench/reference.json`` pins every quotient and A_k/B_k pair that the
sharpness workload can meet, and the benchmark fails an op that drifts
from its pin by more than ``workloads.REF_RTOL``.  This test evaluates the
whole table with ``perfbench/reference.py``'s own ``_evaluate``, so a
change to T, B_k or the quadrature layout that would fail benchmark ops
fails here first.  It reads ``perfbench/`` and writes nothing.
"""

import importlib.util
import json
import os

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_reference_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", os.path.join(PERFBENCH, "reference.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_json_reproduced():
    ref = _load_reference_module()
    with open(ref.PATH) as fh:
        pins = json.load(fh)
    got = {}
    for item in ref._weights():
        got.update(ref._evaluate(item))
    assert got.keys() == pins.keys()
    rtol = ref.wl.REF_RTOL
    drift = {key: float(np.max(np.abs(np.subtract(got[key], pin)) / np.abs(pin)))
             for key, pin in pins.items()}
    off = {key: d for key, d in drift.items() if not d <= rtol}
    assert not off, f"{len(off)} of {len(pins)} pins off by more than {rtol}: {off}"
