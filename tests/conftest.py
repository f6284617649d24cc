import math
import os
import subprocess
import sys

import numpy as np

from hardycap.eta import eta_many
from hardycap.sphere import _merged_layers
from hardycap.weights import SINE

#: the package source, which a child interpreter must be able to import
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args):
    """Run ``python *args`` in a child interpreter that imports hardycap
    from ``src``; pytest's ``pythonpath`` setting reaches only its own
    process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def riccati_residual(w, t, h):
    """|eta (log phi)' + (p-1) eta_h' - (p-1) eta**2| at t, the residual of
    the Riccati identity, with eta_h' the central difference of step h:
    O(h**2) for exact eta.  (log phi)' is taken in closed form,
    (p-1+delta)/t for the power family and (n-1) cot t for the sine."""
    lo, e0, hi = eta_many(w, [t - h, t, t + h]).tolist()
    d = (hi - lo) / (2.0 * h)
    dlog_phi = (w.n - 1) / math.tan(t) if w.kind == SINE else w.growth_exponent / t
    return abs(e0 * dlog_phi + (w.p - 1.0) * d - (w.p - 1.0) * e0**2)


def distribution_function(s, t):
    """mu(t) = measure of { |u| > t } of a sample set, summed sample by
    sample: the oracle for the merged layers of ``hardycap.sphere``."""
    return float(np.sum(s.weights[np.abs(s.values) > t]))


def decreasing_rearrangement(s, sigma):
    """u*(sigma) = inf{ t >= 0 : mu(t) <= sigma }, read off the merged
    layers that ``spherical_rearrangement`` and ``check_hardy_littlewood``
    are built on."""
    levels, cum = _merged_layers(s)
    # cum[-1] and the total are the same sum in different association
    # orders; clamp so that u*(|Omega|) is exactly 0
    cum[-1] = min(cum[-1], s.total_measure)
    idx = np.searchsorted(cum, sigma, side="right")
    return float(levels[idx]) if idx < len(levels) else 0.0
