"""Exact exams at the cost of their queries.

Coordinate queries are solved in closed form, with no SVD and no solve.
The closed form must keep the bits of the path it replaces: the SVD, the
rank test and np.linalg.solve on the identity matrix.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import teachsim.exam
from teachsim.exam import (RankDeficientError, RecoveryConfig,
                           RemoteLearner, construct_virtual_learner,
                           exact_recover_bijective, make_basis_queries)
from teachsim.feature_space import random_map
from teachsim.learners import LearnerState, SaturationError

_EXACT = (("identity", "square"), ("sigmoid", "logistic"),
          ("hinge_value", "hinge"))


def _bits(x):
    return struct.pack("<d", x)


def _outcome(run):
    """Everything an exam reports, as bits, or the error it raised."""
    try:
        res = run()
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return (res.v_hat.tobytes(), _bits(res.residual),
            _bits(res.inversion_error), _bits(res.est_error()),
            res.queries_used)


# Signed zeros, subnormals, huge and non-finite values among plain ones
_VALUES = st.one_of(st.floats(-10.0, 10.0),
                    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310,
                                     1e300, -1e300, math.inf, -math.inf,
                                     math.nan)),
                    st.floats(-1e150, 1e150))
# Sigmoid responses: exactly 0.5 (logit 0), near and at saturation, NaN
_PROBABILITIES = st.one_of(st.floats(0.0, 1.0),
                           st.sampled_from((0.5, 0.0, 1.0, 5e-324, 1e-300,
                                            2.0 ** -53, 1.0 - 2.0 ** -53,
                                            1.0 - 1e-12, math.nan)))


@st.composite
def _responses(draw):
    d = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(("identity", "sigmoid", "hinge_value")))
    if kind == "sigmoid":
        return kind, draw(st.lists(_PROBABILITIES, min_size=d, max_size=d))
    if kind == "identity":
        return kind, draw(st.lists(_VALUES, min_size=d, max_size=d))
    # the differences of two hinge answers max(0, z) and max(0, -z)
    pairs = draw(st.lists(st.tuples(_VALUES, _VALUES), min_size=d,
                          max_size=d))
    with np.errstate(invalid="ignore"):
        return kind, [float(np.maximum(a, 0.0) - np.maximum(b, 0.0))
                      for a, b in pairs]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_responses())
@example(case=("sigmoid", [0.5, 0.5, 0.25]))
@example(case=("sigmoid", [0.5, 1.0]))
@example(case=("sigmoid", [0.0]))
@example(case=("identity", [-0.0, -1.0, -0.0, 2.0]))
@example(case=("identity", [1.0, math.inf, -0.0]))
@example(case=("hinge_value", [0.0, -0.0, 3.0]))
def test_coordinate_queries_solve_in_closed_form_with_the_solves_bits(case):
    # standard=True skips the SVD and the solve; without it the identity
    # matrix takes both, as every exam did before
    kind, responses = case
    d = len(responses)
    feedback = "identity" if kind == "hinge_value" else kind
    eye = make_basis_queries(d, 0, standard=True)
    with np.errstate(all="ignore"):
        closed = _outcome(lambda: exact_recover_bijective(
            eye, responses, feedback, standard=True))
        solved = _outcome(lambda: exact_recover_bijective(
            eye, responses, feedback))
    assert closed == solved
    saturated = kind == "sigmoid" and any(r in (0.0, 1.0) for r in responses)
    assert (closed[0] is SaturationError) == saturated


def _solve_path_exam(remote):
    """The exam as it ran on a bare identity matrix: SVD, then solve."""
    eye = np.eye(remote.dim)
    if remote.feedback != "hinge_value":
        responses = [remote.query(q) for q in eye]
        return exact_recover_bijective(eye, responses, remote.feedback)
    diffs = [remote.query(q) - remote.query(-q) for q in eye]
    return replace(exact_recover_bijective(eye, diffs, "identity"),
                   queries_used=2 * remote.dim)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(1, 64),
       map_kind=st.sampled_from(("identity", "unitary", "general")),
       log_scale=st.floats(-3.0, 3.0),
       zeros=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16))
@example(d=5, map_kind="identity", log_scale=0.0, zeros=0.6, seed=0)
@example(d=3, map_kind="identity", log_scale=3.0, zeros=0.0, seed=1)
def test_coordinate_exams_keep_their_bits_on_every_exact_channel(
        d, map_kind, log_scale, zeros, seed):
    # on the identity map a zero weight answers sigmoid(0) = 0.5 exactly,
    # and a large scale saturates the sigmoid channel, which raises on
    # both paths
    gen = np.random.default_rng(seed)
    fmap = random_map(d, map_kind, seed)
    w = gen.standard_normal(d) * 10.0 ** log_scale
    w[gen.random(d) < zeros] = 0.0
    cfg = RecoveryConfig(query_seed=seed, standard_queries=True)
    for feedback, loss in _EXACT:
        state = LearnerState(w=w, eta=0.1, loss=loss, feedback=feedback)
        fast, slow = RemoteLearner(state, fmap), RemoteLearner(state, fmap)
        got = _outcome(lambda: construct_virtual_learner(fast, cfg))
        assert got == _outcome(lambda: _solve_path_exam(slow)), feedback
        assert fast.query_samples == slow.query_samples


def test_basis_queries_are_read_only_and_differ_by_seed():
    for standard in (False, True):
        queries = make_basis_queries(6, 4, standard)
        assert not queries.flags.writeable
        with pytest.raises(ValueError):
            queries[0, 0] = 1.0
    a, b = make_basis_queries(6, 4), make_basis_queries(6, 5)
    assert a.tobytes() == make_basis_queries(6, 4).tobytes()
    assert a.tobytes() != b.tobytes()
    # coordinate queries ignore the seed
    np.testing.assert_array_equal(make_basis_queries(6, 4, True), np.eye(6))
    with pytest.raises(ValueError, match="d must be >= 1"):
        make_basis_queries(0, 4)


class _SingularDraw:
    """A stand-in generator whose Gaussian matrix has two equal rows."""

    def __init__(self):
        self.draws = 0

    def standard_normal(self, shape):
        self.draws += 1
        m = np.random.default_rng(0).standard_normal(shape)
        m[-1] = m[0]
        return m


def test_a_singular_query_matrix_fails_every_exam(monkeypatch):
    # Gaussian queries take the rank test on every exact channel and at
    # every exam
    singular = _SingularDraw()
    monkeypatch.setattr(teachsim.exam, "substream",
                        lambda seed, *path: singular)
    fmap = random_map(4, "general", 0)
    w = np.random.default_rng(1).standard_normal(4)
    for feedback, loss in _EXACT:
        remote = RemoteLearner(LearnerState(
            w=w, eta=0.1, loss=loss, feedback=feedback), fmap)
        for _ in range(3):
            with pytest.raises(RankDeficientError):
                construct_virtual_learner(remote, RecoveryConfig())
    assert singular.draws == 3 * len(_EXACT)


@pytest.mark.parametrize("bad", (True, False, 1.5, 2.0, -1, "3", None,
                                 np.bool_(True), np.array([1])))
def test_recovery_config_rejects_a_query_seed_that_is_no_integer(bad):
    with pytest.raises(ValueError, match="query_seed must be an integer"):
        RecoveryConfig(query_seed=bad)


@pytest.mark.parametrize("bad", ("no", "", 0, 1, None, 1.0))
def test_recovery_config_rejects_a_non_bool_standard_queries(bad):
    with pytest.raises(ValueError, match="standard_queries must be a bool"):
        RecoveryConfig(standard_queries=bad)


def test_recovery_config_accepts_numpy_integers_and_bools():
    cfg = RecoveryConfig(query_seed=np.int64(3), standard_queries=np.bool_(1))
    assert cfg == RecoveryConfig(query_seed=3, standard_queries=True)
    assert type(cfg.query_seed) is int and cfg.standard_queries is True
    assert RecoveryConfig(query_seed=np.uint64(2 ** 64 - 1)).query_seed == (
        2 ** 64 - 1)
    assert make_basis_queries(3, cfg.query_seed).tobytes() == (
        make_basis_queries(3, 3).tobytes())
