"""Property-based checks on the discrete rearrangement machinery."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import decreasing_rearrangement, distribution_function
from hardycap.sphere import SampleSet

finite_values = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1, max_size=30,
)
positive_weights = st.lists(
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    min_size=1, max_size=30,
)


@given(finite_values, positive_weights, st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_rearrangement_is_equimeasurable(values, weights, frac):
    m = min(len(values), len(weights))
    assume(max(values[:m]) > 0.0)
    s = SampleSet(np.array(values[:m]), np.array(weights[:m]))
    t = frac * max(values[:m])
    # the rearrangement has the same distribution function as |u|; the
    # sigma slack absorbs rounding between the two cumulative sums
    mu = distribution_function(s, t)
    sigma = min(mu + 1e-9 * (1.0 + s.total_measure), s.total_measure)
    level_at_mu = decreasing_rearrangement(s, sigma)
    assert level_at_mu <= t + 1e-12


@given(finite_values, positive_weights)
@settings(max_examples=100, deadline=None)
def test_rearrangement_preserves_mass(values, weights):
    m = min(len(values), len(weights))
    s = SampleSet(np.array(values[:m]), np.array(weights[:m]))
    # integrate u* stepwise over [0, |Omega|] and compare with sum w*|u|
    total = s.total_measure
    sigmas = np.linspace(0.0, total, 2001)
    mids = 0.5 * (sigmas[:-1] + sigmas[1:])
    star = np.array([decreasing_rearrangement(s, x) for x in mids])
    approx = float(np.sum(star) * (total / 2000.0))
    exact = s.moment(1)
    # the midpoint sum of a step function errs by at most one cell width
    # per jump of u*
    bound = (m + 1) * max(values[:m]) * (total / 2000.0) + 1e-9
    assert abs(approx - exact) <= bound
