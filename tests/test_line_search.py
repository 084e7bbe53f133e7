"""The synthesis line search against a reference copy of its array form.

``reference_line_search`` is ``teachers._classification_line_search`` as
it stood when every golden-section step and the final label pick
evaluated ``_line_values`` on a 0-d gamma: a (2, 1) array of objectives,
reduced by np.min and np.argmin.  The search now evaluates one gamma at
a time on Python floats and must return the same (gamma, label) bits.
The reference and its ``_line_values`` are kept verbatim, apart from
their names.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teachsim.learners import _check_labels, _loss_grad_kernel
from teachsim.teachers import (_GOLDEN, _GOLDEN_WIDTH, _LABELS,
                               _SYNTH_GRID_POINTS,
                               _classification_line_search)


def reference_line_values(gamma, a, c, n, eta, loss):
    """One-step objective at x = gamma * u for the labels -1 and +1.

    With a = <v, u>, c = <v - v*, u> and n = ||u||^2 the prediction is
    gamma * a and the objective eta^2 beta^2 gamma^2 n - 2 eta beta gamma
    c, so no d-vector is needed.  gamma broadcasts; row 0 holds label -1.
    The caller has checked loss against _LABELS with _check_labels.
    """
    beta = _loss_grad_kernel(loss, gamma * a, _LABELS)
    return (eta * eta * beta * beta * (gamma * gamma * n)
            - 2.0 * eta * beta * (gamma * c))


def reference_line_search(a, c, n, g_max, eta, loss):
    """Grid scan plus golden-section refinement; returns (gamma, label)."""
    # the loss is checked here once, not at every point of the search
    _check_labels(loss, _LABELS)
    grid = np.linspace(-g_max, g_max, _SYNTH_GRID_POINTS)
    vals = np.min(reference_line_values(grid, a, c, n, eta, loss), axis=0)
    i = int(np.argmin(vals))

    def phi(g):
        return float(np.min(reference_line_values(g, a, c, n, eta, loss)))

    # The width floor is relative to the bracket magnitude: an absolute
    # floor below one ulp of the endpoints never terminates.
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    p = hi - _GOLDEN * (hi - lo)
    q = lo + _GOLDEN * (hi - lo)
    fp, fq = phi(p), phi(q)
    while (hi - lo) > _GOLDEN_WIDTH * max(1.0, abs(lo), abs(hi)):
        if fp <= fq:
            hi, q, fq = q, p, fp
            p = hi - _GOLDEN * (hi - lo)
            fp = phi(p)
        else:
            lo, p, fp = p, q, fq
            q = lo + _GOLDEN * (hi - lo)
            fq = phi(q)
    gamma = 0.5 * (lo + hi)
    if vals[i] < phi(gamma):
        gamma = float(grid[i])
    labels = reference_line_values(gamma, a, c, n, eta, loss)[:, 0]
    return gamma, float(_LABELS[int(np.argmin(labels)), 0])


def _magnitude(low, high):
    """10 ** e for e uniform in [low, high], over the usual range or the
    whole float range, where products overflow to inf and NaN."""
    return st.one_of(st.floats(low, high),
                     st.floats(-300.0, 300.0)).map(lambda e: 10.0 ** e)


def _signed(low, high):
    return st.one_of(
        st.just(0.0),
        st.tuples(st.sampled_from((-1.0, 1.0)), _magnitude(low, high)).map(
            lambda pair: pair[0] * pair[1]))


def _bits(x):
    return np.float64(x).view(np.uint64)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(loss=st.sampled_from(("logistic", "hinge")), a=_signed(-12.0, 12.0),
       c=_signed(-12.0, 12.0), n=_magnitude(-24.0, 12.0),
       g_max=_magnitude(-6.0, 14.0), eta=_magnitude(-6.0, 1.0))
# the scalars of a direction 1e-12 from the target (norm bound 50,
# eta 0.01): g_max ~1e13, the golden-section width floor's hard case
@example(loss="logistic", a=1.5500267736024161e-12,
         c=2.249955966365254e-24, n=2.249955966365254e-24,
         g_max=33333659513193.164, eta=0.01)
@example(loss="hinge", a=1.5500267736024161e-12,
         c=2.249955966365254e-24, n=2.249955966365254e-24,
         g_max=33333659513193.164, eta=0.01)
def test_line_search_matches_reference_bit_for_bit(loss, a, c, n, g_max,
                                                   eta):
    with np.errstate(all="ignore"):
        expected = reference_line_search(a, c, n, g_max, eta, loss)
        got = _classification_line_search(a, c, n, g_max, eta, loss)
    assert type(got[0]) is float and type(got[1]) is float
    assert _bits(got[0]) == _bits(expected[0])
    assert got[1] == expected[1]
