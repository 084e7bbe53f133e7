import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsim.feature_space import FeatureMap
from teachsim.learners import (FEEDBACKS, LOSSES, LearnerState,
                               SaturationError, _loss_grad_kernel, _sigmoid,
                               feedback_invert, feedback_value,
                               forgetting_step, loss_grad, loss_value,
                               respond, sgd_step)
from teachsim.rng import KEY_FORGET, substream


def test_loss_values_frozen_scalars():
    # hand-computed: 0.5 * (2 - 0.5)^2
    np.testing.assert_allclose(loss_value("square", 2.0, 0.5), 1.125)
    np.testing.assert_allclose(loss_value("logistic", 0.3, -1.0),
                               math.log1p(math.exp(0.3)), rtol=1e-15)
    np.testing.assert_allclose(loss_value("hinge", 0.4, 1.0), 0.6)
    assert loss_value("hinge", 1.5, 1.0) == 0.0


def test_loss_grad_frozen_scalars():
    assert loss_grad("square", 2.0, 0.5) == 1.5
    np.testing.assert_allclose(loss_grad("logistic", 0.3, -1.0),
                               1.0 / (1.0 + math.exp(-0.3)), rtol=1e-15)
    assert loss_grad("hinge", 0.4, 1.0) == -1.0
    assert loss_grad("hinge", 1.5, 1.0) == 0.0
    # kink convention: derivative 0 exactly at y*z == 1
    assert loss_grad("hinge", 1.0, 1.0) == 0.0


def test_sigmoid_matches_two_branch_formula_bit_for_bit():
    specials = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0,
                np.inf, -np.inf, np.nan]
    gen = np.random.default_rng(5)
    t = np.concatenate([specials, gen.standard_normal(2000),
                        gen.standard_normal(2000) * 300.0])
    e = np.exp(-np.abs(t))
    two_branch = np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    got = _sigmoid(t)
    np.testing.assert_array_equal(got.view(np.uint64),
                                  two_branch.view(np.uint64))
    for x, ref in zip(t[:len(specials)], two_branch):
        assert np.float64(_sigmoid(x)).view(np.uint64) == \
            np.float64(ref).view(np.uint64)


def test_feedback_value_float_path_matches_array_path_bit_for_bit():
    # a Python float takes a scalar path on some channels; every channel
    # must give the bits of the array path, as a Python float
    specials = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, np.inf,
                -np.inf, np.nan]
    gen = np.random.default_rng(6)
    z = np.concatenate([specials, gen.standard_normal(2000),
                        gen.standard_normal(2000) * 1e3])
    for kind in FEEDBACKS:
        via_array = feedback_value(kind, z)
        for x, ref in zip(z.tolist(), via_array):
            got = feedback_value(kind, x)
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == ref.view(np.uint64)


def test_loss_grad_kernel_float_path_matches_array_path_bit_for_bit():
    # a Python float z and y take a scalar path; it must give the bits
    # of the array path, as a Python float, for every loss and label
    specials = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, -5e-324,
                np.inf, -np.inf, np.nan, -np.nan]
    gen = np.random.default_rng(8)
    z = np.concatenate([specials, gen.standard_normal(2000),
                        gen.standard_normal(2000) * 1e3,
                        gen.standard_normal(200) * 1e300])
    margin_labels = [-1.0, 1.0]
    square_labels = margin_labels + [0.0, -0.0, 0.37, -2.5e7, 5e-324,
                                      np.inf, np.nan]
    for loss in LOSSES:
        labels = square_labels if loss == "square" else margin_labels
        for y in labels:
            with np.errstate(invalid="ignore"):
                via_array = _loss_grad_kernel(loss, z, y)
            for x, ref in zip(z.tolist(), via_array):
                got = _loss_grad_kernel(loss, x, y)
                assert type(got) is float
                assert np.float64(got).view(np.uint64) == \
                    ref.view(np.uint64), (loss, x, y)


def test_loss_grad_matches_finite_differences():
    gen = np.random.default_rng(0)
    h = 1e-6
    for loss in ("square", "logistic", "hinge"):
        for trial in range(50):
            z = float(gen.uniform(-3, 3))
            y = float(gen.choice([-1.0, 1.0]))
            if loss == "hinge" and abs(y * z - 1.0) < 1e-4:
                continue  # kink, one-sided derivatives disagree
            fd = (loss_value(loss, z + h, y)
                  - loss_value(loss, z - h, y)) / (2 * h)
            np.testing.assert_allclose(loss_grad(loss, z, y), fd,
                                       rtol=1e-5, atol=1e-7)


def test_labels_validated_for_margin_losses():
    with pytest.raises(ValueError, match="labels"):
        loss_value("logistic", 0.1, 0.5)
    with pytest.raises(ValueError, match="labels"):
        loss_grad("hinge", 0.1, 2.0)
    # square loss takes arbitrary real targets
    loss_value("square", 0.1, 0.37)
    # a Python float label skips the array check only when it is
    # exactly +-1.0; every near miss is still rejected
    for loss in ("logistic", "hinge"):
        for bad in (0.5, -0.0, math.nan, math.inf, -math.inf,
                    math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0)):
            with pytest.raises(ValueError, match="labels"):
                loss_grad(loss, 0.1, bad)
            with pytest.raises(ValueError, match="labels"):
                loss_value(loss, 0.1, bad)
        for good in (1.0, -1.0):
            assert loss_grad(loss, 0.1, good) == loss_grad(
                loss, 0.1, np.float64(good))


def test_feedback_values():
    assert feedback_value("identity", 1.7) == 1.7
    np.testing.assert_allclose(feedback_value("sigmoid", 0.3),
                               1.0 / (1.0 + math.exp(-0.3)), rtol=1e-15)
    assert feedback_value("sign", 2.5) == 1.0
    assert feedback_value("sign", -0.1) == -1.0
    assert feedback_value("sign", 0.0) == 1.0
    assert feedback_value("hinge_value", -3.0) == 0.0
    assert feedback_value("hinge_value", 0.7) == 0.7


def test_feedback_invert_round_trip():
    gen = np.random.default_rng(1)
    z = gen.uniform(-20, 20, size=200)
    np.testing.assert_array_equal(feedback_invert("identity", z), z)
    back = feedback_invert("sigmoid", feedback_value("sigmoid", z))
    np.testing.assert_allclose(back, z, rtol=1e-9, atol=1e-9)


def test_feedback_invert_saturation_and_noninvertible():
    with pytest.raises(SaturationError):
        feedback_invert("sigmoid", 1.0)
    with pytest.raises(SaturationError):
        feedback_invert("sigmoid", 0.0)
    with pytest.raises(ValueError, match="not invertible"):
        feedback_invert("sign", 1.0)
    with pytest.raises(ValueError, match="not invertible"):
        feedback_invert("hinge_value", 0.3)


def test_learner_state_invariants():
    st = LearnerState(w=np.ones(3), eta=0.1, loss="square",
                      feedback="identity")
    with pytest.raises(ValueError):
        st.w[0] = 5.0  # weights are read-only
    with pytest.raises(ValueError, match="eta"):
        LearnerState(w=np.ones(3), eta=-0.1, loss="square",
                     feedback="identity")
    # eta == 0 is a legal (frozen) student
    LearnerState(w=np.ones(3), eta=0.0, loss="square", feedback="identity")


def test_respond_applies_feedback_to_inner_product():
    st = LearnerState(w=np.array([1.0, -2.0]), eta=0.1, loss="square",
                      feedback="sigmoid")
    z = 1.0 * 0.5 + (-2.0) * 0.25
    np.testing.assert_allclose(respond(st, np.array([0.5, 0.25])),
                               feedback_value("sigmoid", z), rtol=1e-15)


def test_sgd_step_closed_form():
    st = LearnerState(w=np.array([1.0, 0.0]), eta=0.5, loss="square",
                      feedback="identity")
    x = np.array([2.0, 1.0])
    # z = 2, beta = z - y = 1, w' = w - 0.5 * 1 * x
    out = sgd_step(st, x, 1.0)
    np.testing.assert_allclose(out.w, [0.0, -0.5])
    assert out.t == st.t + 1
    np.testing.assert_array_equal(st.w, [1.0, 0.0])  # input untouched


def test_forgetting_step_reduces_to_sgd_when_silent():
    gen = np.random.default_rng(2)
    st = LearnerState(w=gen.standard_normal(5), eta=0.01, loss="logistic",
                      feedback="sigmoid", sigma_forget=0.0, seed=77)
    x = gen.standard_normal(5)
    a = forgetting_step(st, x, 1.0)
    b = sgd_step(st, x, 1.0)
    np.testing.assert_array_equal(a.w, b.w)


def test_forgetting_noise_keyed_by_step_not_history():
    # two students with the same seed at the same step index draw the
    # same noise regardless of what they were taught
    gen = np.random.default_rng(3)
    w0 = gen.standard_normal(4)
    common = dict(eta=0.05, loss="square", feedback="identity",
                  sigma_forget=0.3, seed=11)
    a = LearnerState(w=w0, **common)
    b = LearnerState(w=w0 + 1.0, **common)
    xa, xb = gen.standard_normal(4), gen.standard_normal(4)
    a1 = forgetting_step(a, xa, 0.0)
    b1 = forgetting_step(b, xb, 0.0)
    noise_a = a1.w - sgd_step(a, xa, 0.0).w
    noise_b = b1.w - sgd_step(b, xb, 0.0).w
    np.testing.assert_allclose(noise_a, noise_b, rtol=0, atol=1e-14)
    # bit-level: the draw is exactly substream(seed, KEY_FORGET, t)
    from teachsim.rng import KEY_FORGET, substream
    expected = substream(11, KEY_FORGET, 0).normal(0.0, 0.3, size=4)
    np.testing.assert_array_equal(a1.w, sgd_step(a, xa, 0.0).w + expected)
    # and differs between steps
    a2 = forgetting_step(a1, xa, 0.0)
    noise_a2 = a2.w - sgd_step(a1, xa, 0.0).w
    assert not np.allclose(noise_a, noise_a2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(1, 64), stride=st.sampled_from((1, 2, 3, -1, 0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_respond_matches_the_matmul_bit_for_bit(d, stride, seed):
    # respond takes w.dot for its lower call overhead; on the identity
    # channel its answer is the inner product itself, which must round
    # exactly as w @ x, whatever the query's layout: strided, reversed
    # (stride -1) or broadcast (stride 0)
    gen = np.random.default_rng(seed)
    st_ = LearnerState(w=gen.standard_normal(d), eta=0.1, loss="square",
                       feedback="identity")
    x = (np.broadcast_to(gen.standard_normal(), (d,)) if stride == 0
         else gen.standard_normal(d * abs(stride))[::stride][:d])
    got = respond(st_, x)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(st_.w @ x).tobytes()


@pytest.mark.parametrize("loss,y", (("square", 0.37), ("logistic", -1.0),
                                    ("hinge", 1.0)))
def test_forgetting_step_is_sgd_step_plus_keyed_noise(loss, y):
    # one new state: the SGD weights plus substream(seed, KEY_FORGET, t)
    # noise, with t advanced by one and every other field kept
    gen = np.random.default_rng(5)
    st_ = LearnerState(w=gen.standard_normal(20), eta=0.05, loss=loss,
                       feedback="sign", sigma_forget=0.01, seed=123, t=7)
    x = gen.standard_normal(20)
    got = forgetting_step(st_, x, y)
    noise = substream(123, KEY_FORGET, 7).normal(0.0, 0.01, size=20)
    expected = sgd_step(st_, x, y).w + noise
    assert got.w.tobytes() == expected.tobytes()
    assert got.t == st_.t + 1 == 8
    assert (got.eta, got.loss, got.feedback, got.sigma_forget, got.seed) == (
        st_.eta, st_.loss, st_.feedback, st_.sigma_forget, st_.seed)
    assert not got.w.flags.writeable


def test_respond_through_map_matches_manual():
    gen = np.random.default_rng(4)
    g = gen.standard_normal((3, 3)) + 2 * np.eye(3)
    fmap = FeatureMap(g)
    st = LearnerState(w=gen.standard_normal(3), eta=0.1, loss="square",
                      feedback="identity")
    x = gen.standard_normal(3)
    np.testing.assert_allclose(respond(st, g @ x),
                               float(st.w @ (g @ x)), rtol=1e-12)
    assert fmap.d == 3
