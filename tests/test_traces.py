import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teachsim.traces import TraceRow, exponential_fit


def _rows(points):
    return [TraceRow(iteration=t, objective=1.0, param_dist=dist,
                     test_accuracy=None, teaching_samples=i, query_samples=0)
            for i, (t, dist) in enumerate(points)]


def _polyfit_reference(points):
    """The fit as numpy computes it: a degree-1 polyfit in log space."""
    xs = np.array([t for t, _ in points], dtype=np.float64)
    ys = np.log(np.array([dist for _, dist in points]))
    slope, intercept = np.polyfit(xs, ys, 1)
    rmse = np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2))
    return np.exp(slope), rmse, np.max(np.abs(ys))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(st.integers(0, 5000),
                                 st.floats(1e-9, 1e3)),
                       min_size=10, max_size=60)
       .filter(lambda pts: len({t for t, _ in pts}) > 1))
@example(points=[(t, 2.0) for t in range(10)])  # an exact line
def test_closed_form_fit_matches_polyfit(points):
    rate, rmse, scale = _polyfit_reference(points)
    fit = exponential_fit(_rows(points))
    assert fit.n_points == len(points)
    assert fit.rate == pytest.approx(rate, rel=1e-12)
    # a residual is a difference of logs of size `scale`, so an exact
    # line leaves rounding of that size in the numpy reference
    assert fit.log_rmse == pytest.approx(rmse, rel=1e-12,
                                         abs=1e-15 * scale)


def test_fit_refuses_rows_at_one_iteration():
    rows = _rows([(0, 0.9 ** i) for i in range(11)])
    with pytest.raises(ValueError, match="share iteration 0"):
        exponential_fit(rows)
