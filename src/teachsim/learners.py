"""Black-box linear students: losses, feedback channels, SGD state.

A student holds a weight vector w in its own feature space and, given a
training pair (x~, y), takes the step w <- w - eta * beta(<w, x~>, y) * x~
where beta is the derivative of the loss in its scalar prediction.  The
outside world only ever sees F(<w, x~>) for a feedback function F; the
weight vector itself stays private.
"""

from dataclasses import dataclass, replace

import numpy as np

from .rng import KEY_FORGET, substream

LOSSES = ("square", "logistic", "hinge")
FEEDBACKS = ("identity", "sigmoid", "sign", "hinge_value")

_SIGMOID_CLAMP = 1e-12


class SaturationError(ValueError):
    """Feedback value outside the invertible range of F."""


def _check_loss(loss):
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSSES}")


def _check_feedback(kind):
    if kind not in FEEDBACKS:
        raise ValueError(
            f"unknown feedback {kind!r}; expected one of {FEEDBACKS}")


def _check_labels(loss, y):
    """Check the loss kind and, for margin losses, the +-1 labels.

    A Python float of exactly +-1.0, the label of every margin-loss
    teaching step, passes without building an array; any other label
    takes the array check.
    """
    _check_loss(loss)
    if loss in ("logistic", "hinge"):
        if type(y) is float and (y == 1.0 or y == -1.0):
            return
        y_arr = np.asarray(y)
        if not np.all(np.abs(y_arr) == 1):
            raise ValueError(
                f"{loss} loss needs labels in {{-1, +1}}, got {y!r}")


def _sigmoid(t):
    # 1 / (1 + e) for t >= 0 and e / (1 + e) below, with e = exp(-|t|)
    # never overflowing; one division serves both branches
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _sigmoid_float(t):
    """_sigmoid of a Python float, bit for bit, as a Python float.

    np.exp on a float runs the ufunc loop that _sigmoid runs on an
    array; math.exp is a different routine and may round differently.
    """
    e = float(np.exp(-abs(t)))
    return (1.0 if t >= 0 else e) / (1.0 + e)


def loss_value(loss, z, y):
    """Pointwise loss at scalar prediction z and label y (broadcasts)."""
    _check_labels(loss, y)
    return _loss_value_kernel(loss, z, y)


def _loss_value_kernel(loss, z, y):
    """loss_value for a loss and labels that _check_labels has passed."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if loss == "square":
        out = 0.5 * (z - y) ** 2
    elif loss == "logistic":
        out = np.logaddexp(0.0, -y * z)
    else:
        out = np.maximum(1.0 - y * z, 0.0)
    return out if out.ndim else float(out)


def loss_grad(loss, z, y):
    """Derivative of the loss in its prediction argument (beta).

    The hinge derivative at the kink y*z == 1 is taken as 0.  A Python
    float z and y, the case of every teaching step, skip the 0-d arrays
    (see _loss_grad_kernel).
    """
    _check_labels(loss, y)
    return _loss_grad_kernel(loss, z, y)


def _loss_grad_kernel(loss, z, y):
    """loss_grad for a loss and labels that _check_labels has passed.

    A caller that evaluates many predictions against the same labels
    checks them once and calls this directly.  When z and y are both
    Python floats the same IEEE operations run on floats, so the result
    has the bits of the array path at a fraction of its cost.
    """
    if type(z) is float and type(y) is float:
        if loss == "square":
            return z - y
        if loss == "logistic":
            return -y * _sigmoid_float(-y * z)
        return -y if y * z < 1.0 else 0.0
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if loss == "square":
        out = z - y
    elif loss == "logistic":
        out = -y * _sigmoid(-y * z)
    else:
        out = np.where(y * z < 1.0, -y, 0.0)
    return out if out.ndim else float(out)


def feedback_value(kind, z):
    """Apply the feedback function F to a scalar prediction (broadcasts).

    A Python float skips the 0-d arrays on every channel: the same IEEE
    operations give the same bits, and every exam query lands here.  On
    the hinge-value channel NaN passes through and -0.0 maps to 0.0, as
    in np.maximum(z, 0.0).
    """
    _check_feedback(kind)
    if type(z) is float:
        if kind == "identity":
            return z + 0.0
        if kind == "sigmoid":
            return _sigmoid_float(z)
        if kind == "sign":
            return 1.0 if z >= 0 else -1.0
        return z if z > 0.0 or z != z else 0.0
    z = np.asarray(z, dtype=np.float64)
    if kind == "identity":
        out = z + 0.0
    elif kind == "sigmoid":
        out = _sigmoid(z)
    elif kind == "sign":
        out = np.where(z >= 0, 1.0, -1.0)
    else:
        out = np.maximum(z, 0.0)
    return out if out.ndim else float(out)


def feedback_invert(kind, r):
    """Inverse of a bijective feedback function.

    Sigmoid responses are clamped into [1e-12, 1 - 1e-12] first; values at
    or beyond 0/1 mean the learner's predictions have saturated the channel
    and the caller should rescale its queries.
    """
    _check_feedback(kind)
    r = np.asarray(r, dtype=np.float64)
    if kind == "identity":
        out = r + 0.0
    elif kind == "sigmoid":
        if np.any(r <= 0.0) or np.any(r >= 1.0):
            raise SaturationError(
                "sigmoid response at or beyond {0, 1}; rescale queries")
        c = np.clip(r, _SIGMOID_CLAMP, 1.0 - _SIGMOID_CLAMP)
        out = np.log(c) - np.log1p(-c)
    else:
        raise ValueError(f"feedback {kind!r} is not invertible")
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LearnerState:
    """Immutable snapshot of a student; steps return new states."""
    w: np.ndarray
    eta: float
    loss: str
    feedback: str
    sigma_forget: float = 0.0
    seed: int = 0
    t: int = 0

    def __post_init__(self):
        _check_loss(self.loss)
        _check_feedback(self.feedback)
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.sigma_forget < 0:
            raise ValueError(
                f"sigma_forget must be >= 0, got {self.sigma_forget}")
        w = np.array(self.w, dtype=np.float64)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise ValueError("w must be a finite 1-D vector")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def dim(self):
        return self.w.shape[0]


def respond(learner, x_tilde):
    """Feedback F(<w, x~>) to a student-space query. Never mutates state.

    For a contiguous x~, w.dot calls the same BLAS ddot as ``w @ x~``, so
    the bits match, at about half the call overhead; any other layout
    keeps ``@`` (see feature_space.apply_map).
    """
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    w = learner.w
    if x_tilde.shape != w.shape:
        raise ValueError(
            f"query dimension {x_tilde.shape} != learner dimension "
            f"{w.shape}")
    z = w.dot(x_tilde) if x_tilde.flags.c_contiguous else w @ x_tilde
    return feedback_value(learner.feedback, float(z))


def _sgd_weights(learner, x_tilde, y):
    """The weights after one gradient step on (x~, y)."""
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    if x_tilde.shape != learner.w.shape:
        raise ValueError(
            f"example dimension {x_tilde.shape} != learner dimension "
            f"{learner.w.shape}")
    beta = loss_grad(learner.loss, float(learner.w @ x_tilde), y)
    return learner.w - learner.eta * beta * x_tilde


def sgd_step(learner, x_tilde, y):
    """One gradient step on the training pair (x~, y)."""
    return replace(learner, w=_sgd_weights(learner, x_tilde, y),
                   t=learner.t + 1)


def forgetting_step(learner, x_tilde, y):
    """Gradient step followed by seeded Gaussian parameter noise.

    With sigma_forget == 0 this is exactly sgd_step (bit-identical).  The
    noise at step t depends only on (seed, t), so two teachers replaying
    the same seed see the same perturbations at the same times.  The
    stepped weights plus the noise make one new state.
    """
    if learner.sigma_forget == 0.0:
        return sgd_step(learner, x_tilde, y)
    w_new = _sgd_weights(learner, x_tilde, y)
    gen = substream(learner.seed, KEY_FORGET, learner.t)
    noise = gen.normal(0.0, learner.sigma_forget, size=learner.dim)
    return replace(learner, w=w_new + noise, t=learner.t + 1)
