"""The library names that the benchmark's tracer wraps still resolve.

``perfbench/spans.py`` wraps every function in its ``TRACED`` table, and
``perfbench/run.py`` reads the cap-profile cache statistics.  A rename or
deletion of one of them breaks the traced benchmark; this test catches it
in tier-1 without running the benchmark.
"""

import importlib
import importlib.util
import os

import pytest

from hardycap import sphere

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(PERFBENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, name) for layer, funcs in module.TRACED.items() for name in funcs]


@pytest.mark.parametrize("layer,qualname", _traced(), ids=lambda x: x)
def test_traced_name_resolves(layer, qualname):
    target = importlib.import_module(f"hardycap.{layer}")
    for attr in qualname.split("."):
        target = getattr(target, attr)
    assert callable(target)


def test_cap_profile_cache_statistics():
    info = sphere._cap_eta_profile.cache_info()
    assert info.hits >= 0 and info.misses >= 0
