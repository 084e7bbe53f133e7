"""Feedback exams: reconstructing the student's pullback weights.

The teacher cannot read the student's weight vector w.  What it can do is
send queries and observe F(<w, G q>) = F(<G^T w, q>), which turns weight
recovery into a problem about v = G^T w in the teacher's own space:

* invertible F (identity, sigmoid): d well-conditioned queries give a
  linear system for v, solved exactly;
* hinge-value F: each query q is asked with its negation, and since
  max(0, z) - max(0, -z) = z, the difference of the pair's answers is
  the identity channel's answer <v, q>;
* sign F: only the direction of v is observable, so it is found by one
  bisection of halfspace probes, whose count depends on d, the norm and
  the accuracy asked for but not on the answers, and rescaled by the
  norm of G^T w, which the student discloses out of band.

All exams leave the student untouched; only teaching steps move w.
"""

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .feature_space import apply_map, conjugate_apply
from .learners import (feedback_invert, feedback_value, forgetting_step,
                       loss_grad, respond)
from .rng import KEY_PROBE, KEY_QUERIES, substream

_RANK_TOL = 1e-10
# Rounding slack of one feedback response, in units in the last place:
# the student's sigmoid is an exp, an add and a divide.
_RESPONSE_ULPS = 4.0
# A cold sign exam records checkpoint k once the direction error's sine
# is certified to have shrunk by _CONTRACTION_RHO ** k, for k up to
# _MAX_CHECKPOINTS: past k = 60 at rho = 0.8 the sine can be near 1e-8,
# where one measured as sqrt(1 - cos^2) loses its precision.
_CONTRACTION_RHO = 0.8
_MAX_CHECKPOINTS = 60
_GRAD_COORD_MIN = 1e-8
_FLOAT64 = np.dtype(np.float64)


class RankDeficientError(ValueError):
    """Query set too close to singular to solve for the learner."""


class RemoteLearner:
    """The teacher's only channel to a student.

    Wraps a learner state together with the feature map and exposes just
    the protocol surface: feedback queries, teaching steps, and the public
    facts of the protocol (dimensions, loss/feedback kinds, whether the
    map is conjugate-orthogonal, and the disclosed norm).  The weights
    stay behind ``observe_parameters``, which exists for white-box
    baselines and counts every use so tests can prove the black-box
    teachers never call it.  ``state`` is the harness's handle for its
    metrics; no teacher reads it.
    """

    def __init__(self, learner, fmap):
        if learner.dim != fmap.d:
            raise ValueError(
                f"learner dimension {learner.dim} != map dimension "
                f"{fmap.d}")
        self._state = learner
        self._fmap = fmap
        self.query_samples = 0
        self.teaching_samples = 0
        self.white_box_reads = 0
        self.norm_disclosures = 0

    @property
    def dim(self):
        """Teacher-space dimension of the map."""
        return self._fmap.d

    @property
    def loss(self):
        return self._state.loss

    @property
    def feedback(self):
        return self._state.feedback

    @property
    def unitary_map(self):
        return self._fmap.is_unitary

    @property
    def state(self):
        """Current learner state (harness/evaluation access)."""
        return self._state

    def query(self, x):
        """Feedback F(<w, G x>) for a teacher-space query x.

        On an identity map (FeatureMap.is_identity) a C-contiguous
        float64 vector of the learner's shape is answered from one ddot,
        F(<w, x>), without the product I x or respond's checks.  The bits
        are those of respond(state, apply_map(fmap, x)): for a finite x,
        I x equals x but for the sign of a zero entry, so <w, x> equals
        the product path's prediction but for the sign of a zero sum,
        and every channel answers +0.0 and -0.0 alike.  A prediction that
        is not finite may come from an infinite or NaN entry, where I x
        differs from x (0 * inf is NaN), so it is asked again on the
        general path, which every other input and map takes.  Either way
        a query is one call and counts once.
        """
        self.query_samples += 1
        state = self._state
        if (self._fmap.is_identity and type(x) is np.ndarray
                and x.dtype == _FLOAT64 and x.shape == state.w.shape
                and x.flags.c_contiguous):
            z = float(state.w.dot(x))
            if math.isfinite(z):
                return feedback_value(state.feedback, z)
        return respond(state, apply_map(self._fmap, x))

    def teach(self, x, y):
        """Feed the training pair; the student perceives (G x, y)."""
        x_tilde = apply_map(self._fmap, x)
        self._state = forgetting_step(self._state, x_tilde, y)
        self.teaching_samples += 1

    def observe_parameters(self):
        """White-box read of the teacher-space weights G^T w (counted)."""
        self.white_box_reads += 1
        return conjugate_apply(self._fmap, self._state.w)

    def disclosed_norm(self):
        """||G^T w||, the one scalar the protocol reveals, asked once by
        each sign exam (the sign channel is scale-blind, so the norm must
        be supplied out of band).  Counted apart from white-box reads."""
        self.norm_disclosures += 1
        return float(np.linalg.norm(conjugate_apply(self._fmap,
                                                    self._state.w)))


@dataclass(frozen=True)
class RecoveryConfig:
    """The [recovery] keys of a run config.

    eps_est: the floor of a sign exam's target bound on ||v_hat - G^T w||,
      which the exam bisects until it certifies.  An exam with no
      estimate certifies eps_est itself; a re-exam certifies the larger
      of eps_est and the target its teacher asks for (see
      construct_virtual_learner).
    query_seed, standard_queries: the exact exams' query directions, as
      make_basis_queries takes its seed and standard arguments: an
      integer >= 0 (a numpy integer is stored as an int) and a bool.
    """
    eps_est: float = 1e-6
    query_seed: int = 0
    standard_queries: bool = False

    def __post_init__(self):
        if not 0 < self.eps_est < math.inf:  # NaN fails it too
            raise ValueError(
                f"eps_est must be finite and > 0, got {self.eps_est}")
        # bool is an int subclass, and int() would truncate 1.5 to 1
        seed = self.query_seed
        if isinstance(seed, bool) or not isinstance(
                seed, (int, np.integer)) or seed < 0:
            raise ValueError(
                f"query_seed must be an integer >= 0, got {seed!r}")
        object.__setattr__(self, "query_seed", operator.index(seed))
        if not isinstance(self.standard_queries, (bool, np.bool_)):
            raise ValueError(f"standard_queries must be a bool, got "
                             f"{self.standard_queries!r}")
        object.__setattr__(self, "standard_queries",
                           bool(self.standard_queries))


@dataclass(frozen=True)
class ExamResult:
    """Outcome of one exam.

    Exact branches report the max linear-system residual and, for the
    sigmoid channel, the inversion error: how far the rounding of each
    response can move F^-1(r), propagated through the query matrix.  The
    sign branch reports a certified bound on sin(angle) between the
    estimated and true directions, the disclosed norm it rescaled by,
    the direction estimates it recorded along the way (see
    approx_recover_sign) for diagnostics, its innovation
    ||v_hat - prior||, 0.0 when it was given no prior, and the target it
    was asked to certify.  Exact exams take no prior and no target.
    """
    v_hat: np.ndarray
    queries_used: int
    residual: float | None = None
    inversion_error: float = 0.0
    angle_bound: float | None = None
    known_norm: float | None = None
    alpha_history: tuple = field(default=())
    innovation: float = 0.0
    target: float | None = None

    def __post_init__(self):
        v = np.array(self.v_hat, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "v_hat", v)

    def est_error(self):
        """Bound on ||v_hat - G^T w|| implied by this exam.

        For the sign branch E = angle_bound bounds both sin(angle) and
        the chart distance ||p - center|| (see approx_recover_sign).  Once
        E < 2 the chart distance keeps the angle acute, so the
        unit-vector chord 2 sin(angle / 2) is at most sqrt(2) sin(angle)
        <= sqrt(2) E; for E >= 1 the chord's own bound 2 is at most 2 E.
        Either way norm * 2 E bounds ||v_hat - G^T w||.
        """
        if self.residual is not None:
            return self.residual + self.inversion_error
        return self.known_norm * 2.0 * self.angle_bound


def make_basis_queries(d, seed, standard=False):
    """d teacher-space query directions, the rows of a read-only (d, d)
    matrix.

    standard=True returns the coordinate basis e_1..e_d; otherwise seeded
    Gaussian directions.  Same seed -> same queries, so exams are
    replayable.  Their rank is decided by their singular values:
    exact_recover_bijective raises RankDeficientError when the smallest
    is at most 1e-10 of the largest.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if standard:
        queries = np.eye(d)
    else:
        queries = substream(seed, KEY_QUERIES).standard_normal((d, d))
    queries.setflags(write=False)
    return queries


def _logit(p):
    """Inverse sigmoid on [0, 1], infinite at the ends."""
    p = np.clip(p, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


def _sigmoid_inversion_error(responses, rhs, sigma_min):
    """Bound on ||Q^-1 (F^-1(r_true) - rhs)|| for sigmoid responses.

    Each response is known to within _RESPONSE_ULPS ulps, so the exact
    prediction lies between the logits of r -+ that slack; near
    saturation the derivative 1 / (r (1 - r)) amplifies the rounding, and
    the clamp inside feedback_invert can move rhs further.  The per-query
    error vector is propagated by ||Q^-1|| = 1 / sigma_min; it is
    infinite when a response sits within the slack of 0 or 1.
    """
    slack = _RESPONSE_ULPS * np.spacing(responses)
    err = np.maximum(np.abs(_logit(responses - slack) - rhs),
                     np.abs(_logit(responses + slack) - rhs))
    return float(np.linalg.norm(err)) / sigma_min


def exact_recover_bijective(queries, responses, feedback, standard=False):
    """Recover v = G^T w from responses through an invertible feedback.

    Inverts F pointwise and solves the d x d system <v, q_j> = F^-1(r_j),
    one query per row of ``queries``.  The rank is decided by the
    singular values of ``queries``: RankDeficientError when the smallest
    is at most 1e-10 of the largest.  The sigmoid inverse amplifies
    response rounding without bound as r nears 0 or 1; that error is
    reported as ``inversion_error``.

    standard=True says ``queries`` is the coordinate basis e_1..e_d
    (make_basis_queries(d, seed, standard=True)).  Then a finite F^-1(r)
    is the answer in closed form, with no SVD, rank test or solve:
    v_hat = F^-1(r), residual 0.0 and sigma_min 1, the bits
    np.linalg.solve(I, F^-1(r)) and its residual give.  The solve returns
    a finite right-hand side's bits but for a -0.0 entry, which it may
    turn into +0.0 (0 times a negative entry is -0.0, and -0.0 - -0.0 is
    +0.0), and F^-1 never returns -0.0: the identity inverse adds 0.0,
    and the logit of 0.5 is log(c) - log1p(-c) = +0.0.  A right-hand
    side that is not finite takes the solve.
    """
    responses = np.asarray(responses, dtype=np.float64)
    if responses.shape != (len(queries),):
        raise ValueError(
            f"expected {len(queries)} responses, got shape {responses.shape}")
    rhs = feedback_invert(feedback, responses)
    if standard and np.isfinite(rhs).all():
        v_hat, residual, sigma_min = rhs, 0.0, 1.0
    else:
        svals = np.linalg.svd(queries, compute_uv=False)
        if svals[-1] <= _RANK_TOL * svals[0]:
            raise RankDeficientError(
                f"query matrix numerically singular (relative smallest "
                f"singular value {svals[-1] / svals[0]:.3e})")
        v_hat = np.linalg.solve(queries, rhs)
        residual = float(np.max(np.abs(queries @ v_hat - rhs)))
        sigma_min = float(svals[-1])
    inversion = (_sigmoid_inversion_error(responses, rhs, sigma_min)
                 if feedback == "sigmoid" else 0.0)
    return ExamResult(v_hat=v_hat, queries_used=len(queries),
                      residual=residual, inversion_error=inversion)


def _tangent_frame(alpha):
    """Orthonormal basis of the hyperplane orthogonal to unit alpha.

    Columns of the returned (d, d-1) matrix are the non-alpha columns of
    the Householder reflection exchanging e_1 and alpha, so the frame is a
    deterministic function of alpha.
    """
    d = alpha.shape[0]
    e1 = np.zeros(d)
    e1[0] = 1.0
    u = e1 - alpha
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        h = np.eye(d)
    else:
        u = u / nu
        h = np.eye(d) - 2.0 * np.outer(u, u)
    return h[:, 1:]


class _Chart:
    """The tangent chart of a sign exam at a unit anchor alpha0.

    The probe tau_j - t * alpha0, tau_j a column of
    _tangent_frame(alpha0), answers sign(p_j - t) for the chart
    coordinate p_j = <u, tau_j> / <u, alpha0>.  ``open`` takes a bracket
    per coordinate (a cold exam opens all of them at +-sqrt(d - 1), a
    warm one gallops them), ``bisect`` halves the widest until a
    stopping rule holds, and ``err``, the norm of the half-widths,
    certifies them.  ``queries`` counts every oracle call, the caller's
    own included.

    Every probe is built in one preallocated buffer, ``probe``:
    np.multiply and then np.subtract, each with ``out=``, round every
    entry exactly as the expression rows[j] - t * alpha0 does (one
    product, then one difference), so the oracle sees the same bits
    without two fresh arrays per probe.  The oracle must not keep the
    buffer past its call.  Through RemoteLearner.query a probe then costs
    one apply_map and one respond, whose ndarray.dot runs the same BLAS
    gemv and ddot as ``@`` on a contiguous vector, so every answer keeps
    its bits too.
    """

    def __init__(self, sign_oracle, alpha0, queries):
        self.oracle = sign_oracle
        self.alpha0 = alpha0
        self.taus = _tangent_frame(alpha0)
        # tau_j as a contiguous row: the probe for coordinate j reads one
        # row, and a list hands it out without making a view per probe
        self.rows = list(np.ascontiguousarray(self.taus.T))
        self.probe = np.empty_like(alpha0)
        self.queries = queries

    def above(self, j, t):
        """Whether p_j >= t, from the probe tau_j - t * alpha0."""
        self.queries += 1
        probe = self.probe
        np.multiply(self.alpha0, t, out=probe)
        np.subtract(self.rows[j], probe, out=probe)
        return self.oracle(probe) >= 0

    def open(self, lo, hi):
        """Start from the brackets lo[j] <= p_j <= hi[j]."""
        self.lo, self.hi = lo, hi
        lo_a, hi_a = np.array(lo), np.array(hi)
        self.half = 0.5 * (hi_a - lo_a)
        self.center = 0.5 * (lo_a + hi_a)
        self.width = hi_a - lo_a
        # ||half|| as np.linalg.norm computes it for a vector,
        # sqrt(x . x), so every bit matches
        self.err = math.sqrt(self.half.dot(self.half))

    def bisect(self, scale, eps, checkpoint=None):
        """Halve the widest bracket, the lowest j on ties, until one of
        three stop rules holds: scale * err <= eps; err <= 1e-15; or the
        bracket's midpoint is not strictly inside it (its ends are
        adjacent floats).

        A sign exam passes scale = norm * 2.0 and eps = eps_est, so the
        first rule rounds exactly as norm * 2.0 * err <= eps_est does:
        at norm 5 and eps_est 1e-6 it stops once err <= 1e-7.
        checkpoint(err, center), if given, runs before every stop test,
        the first on the opened brackets.  A bisection of coordinate j
        moves entry j of the state only.
        """
        # the probe loop reads locals only
        oracle, rows, alpha0, probe = (self.oracle, self.rows, self.alpha0,
                                       self.probe)
        multiply, subtract = np.multiply, np.subtract
        lo, hi = self.lo, self.hi
        half, center, width = self.half, self.center, self.width
        err = self.err
        spent = 0
        while err > 1e-15:
            if checkpoint is not None:
                checkpoint(err, center)
            if scale * err <= eps:
                break
            j = int(width.argmax())
            a, b = lo[j], hi[j]
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break
            multiply(alpha0, mid, out=probe)
            subtract(rows[j], probe, out=probe)
            if oracle(probe) >= 0:
                a = lo[j] = mid
            else:
                b = hi[j] = mid
            spent += 1
            width[j] = gap = b - a
            half[j] = 0.5 * gap
            center[j] = 0.5 * (a + b)
            err = math.sqrt(half.dot(half))
        self.err = err
        self.queries += spent

    def estimate(self):
        """The unit vector at the bracket centers."""
        estimate = self.alpha0 + self.taus @ self.center
        return estimate / np.linalg.norm(estimate)

    def result(self, norm, direction, history, prior, target):
        """The exam: norm times a unit direction, certified by err."""
        v_hat = norm * direction
        innovation = (0.0 if prior is None
                      else float(np.linalg.norm(v_hat - prior)))
        return ExamResult(v_hat=v_hat, queries_used=self.queries,
                          angle_bound=self.err, known_norm=norm,
                          alpha_history=tuple(history),
                          innovation=innovation, target=target)


def approx_recover_sign(sign_oracle, d, norm, eps_est, prior=None,
                        radius=None):
    """Estimate v = G^T w from sign feedback plus its norm ||v|| > 0.

    Sign responses expose only which side of each queried hyperplane the
    direction u = v / ||v|| lies on.  The exam bisects the chart
    coordinates p_j of u at a unit anchor alpha_0 with <u, alpha_0> > 0
    (see _Chart).  For any such anchor

        sin(angle(estimate, u)) <= ||p - center|| / sqrt(1 + ||p||^2),

    so E = sqrt(sum of squared bracket half-widths) certifies the
    estimate alpha_0 + sum_j center_j tau_j.  Every exam is an anchor, a
    bracket per coordinate, then one bisection that stops once
    norm * 2 * E <= eps_est (2 * E bounds the unit-vector chord, see
    ExamResult.est_error), once E <= 1e-15, or once the widest bracket
    is down to adjacent floats.  v_hat is norm times the final estimate,
    the reported angle_bound is the final E, target is eps_est, and
    queries_used counts every oracle call.  eps_est is the whole target:
    the exam takes it as given, so a caller that fixes it before the
    first query keeps the query count free of the answers.

    Without a prior the exam is cold:
    1. Query the d coordinate signs s_i = sign(u_i) and anchor at
       alpha_0 = s / sqrt(d).  Then <u, alpha_0> = ||u||_1 / sqrt(d)
       >= 1 / sqrt(d) > 0, so ||p|| <= sqrt(d - 1).
    2. Open every coordinate at [-sqrt(d - 1), sqrt(d - 1)].  The first
       d - 1 halvings are tied, so they run in index order, each asking
       p_j >= 0.  A halving halves its bracket whatever the answer, so
       the exam asks d + N queries, with N set by d, norm and eps_est
       alone (up to the rounding of the bracket ends).  At d = 1 the
       chart has no coordinates and the one sign query settles it.
    3. Along the way checkpoint k is the first E with E <= rho^k * L,
       where rho = 0.8 and L = ||center|| - E is a certified lower bound
       on ||p||.  Since sin(angle(alpha_0, u)) = ||p|| / sqrt(1 +
       ||p||^2), that inequality is exactly the contraction guarantee
       sin_k <= rho^k * sin_0.  alpha_history holds alpha_0 and the
       estimate at each checkpoint k <= 60 the bisection passed.

    A prior is the caller's own estimate of v, with radius > 0 the
    expected size of its chart coordinates; the exam is then warm.  It
    anchors at prior / ||prior|| and gallops its brackets (see _gallop).
    There are no checkpoints: the cold contraction rule is relative to
    ||p||, which a good prior makes tiny.  alpha_history is (alpha_0,
    final estimate).  When the prior cannot anchor the chart the cold
    exam runs after all, and queries_used also counts the warm attempt
    (none for a zero or non-finite prior, which has no direction).  At
    d = 1 a prior has nothing to warm.  Either way a prior sets the
    result's innovation.
    """
    for name, value in (("norm", norm), ("eps_est", eps_est)):
        if not 0 < value < math.inf:  # NaN fails it too
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    spent, brackets, checkpoint = 0, None, None
    if prior is not None and d > 1:
        # checked only for d > 1: a d = 1 ActiveTeacher re-exams at radius 0.0
        if radius is None or not radius > 0:
            raise ValueError(f"a prior needs a radius > 0, got {radius}")
        scale = float(np.linalg.norm(prior))
        if math.isfinite(scale) and scale > 0:
            chart = _Chart(sign_oracle,
                           np.asarray(prior, dtype=np.float64) / scale,
                           queries=0)
            brackets = _gallop(chart, radius)
            spent = chart.queries
    if brackets is None:
        signs = np.array([1.0 if sign_oracle(e) >= 0 else -1.0
                          for e in np.eye(d)])
        chart = _Chart(sign_oracle, signs / math.sqrt(d), queries=spent + d)
        bound = math.sqrt(d - 1)
        brackets = [-bound] * (d - 1), [bound] * (d - 1)
        # the contraction guarantee is anchored at the chart origin, so
        # the recorded initial estimate must be alpha0 itself
        history = [chart.alpha0]

        def checkpoint(err, center):
            # record checkpoint k = len(history) each time step 3's test
            # holds
            lower = math.sqrt(center.dot(center)) - err
            while (len(history) <= _MAX_CHECKPOINTS and lower > 0
                   and err <= _CONTRACTION_RHO ** len(history) * lower):
                history.append(chart.estimate())

    chart.open(*brackets)
    chart.bisect(norm * 2.0, eps_est, checkpoint)
    estimate = chart.estimate()
    if checkpoint is None:
        history = [chart.alpha0, estimate]
    return chart.result(norm, estimate, history, prior, eps_est)


def _gallop(chart, radius):
    """The warm exam's brackets (lo, hi) on a chart anchored at a prior,
    or None when the prior cannot anchor it.

    1. Anchor check: one query at alpha_0.  An answer < 0 puts u on the
       far side of the tangent plane.
    2. Galloping brackets (the exponential search of Bentley and Yao,
       1976): a probe at t = 0 names the side of p_j, then probes at
       t = r, 2r, 4r, ... on that side, with r = radius, answer
       sign(p_j - t) until the answer flips, which brackets p_j.  A
       coordinate beyond sqrt(d - 1), the cold chart's bound, ends the
       attempt.  That cap also stops an orthogonal prior: the anchor
       check answers it ">= 0", but <u, alpha_0> = 0 makes p unbounded
       and every answer the same.

    Every bracket is certified by answers alone, so a poor prior costs
    queries but never correctness.  chart.queries counts the attempt.
    """
    chart.queries += 1
    if chart.oracle(chart.alpha0) < 0:
        return None
    m = len(chart.rows)
    cap = math.sqrt(m)
    r = min(radius, cap)
    lo, hi = [0.0] * m, [0.0] * m
    for j in range(m):
        # p_j lies on the side of 0 the first answer names, beyond
        # inner; double outwards until an answer flips
        outward = chart.above(j, 0.0)
        inner, t = 0.0, (r if outward else -r)
        while abs(t) <= cap and chart.above(j, t) == outward:
            inner, t = t, 2.0 * t
        if abs(t) > cap:
            return None
        lo[j], hi[j] = (inner, t) if outward else (t, inner)
    return lo, hi


def construct_virtual_learner(remote, config, prior=None, last=None,
                              target=None):
    """Run the exam appropriate to the student's feedback channel.

    Dispatches on feedback kind: identity/sigmoid ask d basis queries
    and solve (in closed form on coordinate queries); hinge-value asks
    each basis query q and then -q, and solves the differences as
    identity answers (2d queries); sign
    feedback asks the student for the norm ||G^T w|| (one
    remote.disclosed_norm() per exam) and runs the direction search.
    The exact exams need no prior and ignore prior, last and target.

    A sign exam given the caller's estimate ``prior`` of v is warm (see
    approx_recover_sign), and ``last``, the caller's previous ExamResult,
    sizes its gallop: the radius is last's innovation per chart
    coordinate, ||v_exam - v_propagated|| / sqrt(max(d - 1, 1)), floored at
    last's certified error, both relative to last's disclosed norm.  A
    sign exam certifies max(config.eps_est, target), or config.eps_est
    when target is None, and records it as the result's target.
    """
    d = remote.dim
    kind = remote.feedback
    if kind == "sign":
        radius = None
        if last is not None:
            radius = max(last.innovation / math.sqrt(max(d - 1, 1)),
                         last.est_error()) / last.known_norm
        eps = (config.eps_est if target is None
               else max(config.eps_est, target))
        return approx_recover_sign(remote.query, d, remote.disclosed_norm(),
                                   eps, prior=prior, radius=radius)
    if kind not in ("identity", "sigmoid", "hinge_value"):
        raise ValueError(f"no exam protocol for feedback {kind!r}")
    standard = config.standard_queries
    queries = make_basis_queries(d, config.query_seed, standard=standard)
    if kind != "hinge_value":
        responses = [remote.query(q) for q in queries]
        return exact_recover_bijective(queries, responses, kind,
                                       standard=standard)
    # max(0, z) - max(0, -z) = z: each pair answers as the identity channel
    diffs = [remote.query(q) - remote.query(-q) for q in queries]
    result = exact_recover_bijective(queries, diffs, "identity",
                                     standard=standard)
    return replace(result, queries_used=2 * d)


def estimate_learning_rate(remote, seed):
    """Estimate the student's hidden step size from two exams and one step.

    Reconstructs v1 = G^T w before and v2 = G^T w after feeding a single
    probe pair (x_r, y_r); for an inner-product-preserving map the update
    gives v1 - v2 = eta * beta * x_r coordinate-wise, so eta is the mean
    of (v1 - v2)_i / (beta * x_r)_i over coordinates whose gradient entry
    clears 1e-8 in magnitude.  The probe is drawn orthogonal to v1 so the
    prediction sits at 0 and beta is bounded away from zero; the label is
    +1 for margin losses and <v1, x_r> - 1 for the square loss.  Consumes
    exactly (exam queries) + 1 + (exam queries) interactions.
    """
    if remote.feedback == "sign":
        raise ValueError(
            "learning-rate estimation needs an exactly recoverable "
            "feedback channel")
    config = RecoveryConfig(query_seed=seed)
    first = construct_virtual_learner(remote, config)
    v1 = first.v_hat

    gen = substream(seed, KEY_PROBE)
    x_r = gen.standard_normal(remote.dim)
    v1_sq = float(v1 @ v1)
    if v1_sq > 0:
        x_r = x_r - (float(x_r @ v1) / v1_sq) * v1
    if remote.loss == "square":
        y_r = float(v1 @ x_r) - 1.0
    else:
        y_r = 1.0
    beta = loss_grad(remote.loss, float(v1 @ x_r), y_r)
    remote.teach(x_r, y_r)

    second = construct_virtual_learner(remote, config)
    v2 = second.v_hat

    grad = beta * x_r
    usable = np.abs(grad) >= _GRAD_COORD_MIN
    if not np.any(usable):
        raise ValueError(
            "probe gradient vanished in every coordinate; cannot "
            "estimate the learning rate")
    ratios = (v1[usable] - v2[usable]) / grad[usable]
    return float(np.mean(ratios))
