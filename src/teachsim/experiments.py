"""Experiment harness: datasets, optimal targets, teaching runs, traces.

A run wires the pieces together: generate or ingest a dataset, train the
target v* the teacher steers toward, build the feature map and the
student, then iterate teacher steps while recording an evaluation trace.
The harness is omniscient for metric purposes only (it computes
||G^T w - v*|| directly for the trace); when to stop is each teacher's
own decision, taken on what that teacher knows.
"""

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exam import RecoveryConfig, RemoteLearner
from .feature_space import conjugate_apply, random_map, spectral_stats
from .learners import LearnerState, _sigmoid, loss_value
from .rng import (KEY_DATA, KEY_INIT, KEY_SELECT, KEY_SPLIT, derive_seed,
                  substream)
from .teachers import (ActiveTeacher, LazyTeacher, OmniscientTeacher,
                       RandomTeacher, TeachingMode)

TEACHER_KINDS = ("random", "omniscient", "lazy", "active")

# Fixed substream index per teacher kind, so scenario replicates differ
# only in teacher-specific sampling, never in shared data or noise.
_TEACHER_STREAM = {kind: i for i, kind in enumerate(TEACHER_KINDS)}


class TrainingError(RuntimeError):
    """Target optimization failed to reach its tolerance."""


class TraceFormatError(ValueError):
    """A trace file violates the expected column layout."""


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic data recipe.

    For classification, n counts examples per class drawn from Gaussians
    with means +-(mean_separation, ..., mean_separation) and identity
    covariance; for regression, n is the total number of rows with
    Gaussian features and y = <w*, x> + noise_sigma * eps.
    """
    task: str = "classification"
    d: int = 50
    n: int = 1000
    noise_sigma: float = 0.0
    mean_separation: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one teaching run."""
    dataset: DatasetSpec = DatasetSpec()
    source: str | None = None
    label_column: str = "label"
    map_kind: str = "identity"
    map_seed: int = 0
    loss: str = "square"
    feedback: str = "identity"
    eta: float = 1e-4
    sigma_forget: float = 0.0
    noise_seed: int = 0
    w0_seed: int = 0
    teacher: str = "omniscient"
    exam_period: object = "auto"
    stop_tol: float = 1e-6
    mode_kind: str = "pool"
    norm_bound: float | None = None
    gamma_grid: tuple | None = None
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    lam: float = 0.0
    ridge: float = 5e-5
    iterations: int = 1000
    metrics_period: int = 1
    test_fraction: float = 0.2
    run_seed: int = 0

    def __post_init__(self):
        if self.teacher not in TEACHER_KINDS:
            raise ValueError(f"unknown teacher kind {self.teacher!r}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.metrics_period < 1:
            raise ValueError("metrics_period must be >= 1")
        if not (0.0 <= self.test_fraction < 1.0):
            raise ValueError("test_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class TraceRow:
    """State of a run after `iteration` teaching steps."""
    iteration: int
    objective: float
    param_dist: float
    test_accuracy: float | None
    teaching_samples: int
    query_samples: int


@dataclass(frozen=True)
class ExponentialFit:
    """Least-squares exponential-decay summary of a trace."""
    rate: float
    log_rmse: float
    n_points: int


def gen_regression_data(spec):
    """Gaussian features with linear responses; returns (X, y, w_star)."""
    if spec.task != "regression":
        raise ValueError(f"spec.task is {spec.task!r}, not regression")
    gen = substream(spec.seed, KEY_DATA)
    w_star = gen.standard_normal(spec.d)
    features = gen.standard_normal((spec.n, spec.d))
    labels = features @ w_star
    if spec.noise_sigma > 0:
        labels = labels + spec.noise_sigma * gen.standard_normal(spec.n)
    return features, labels, w_star


def gen_classification_data(spec):
    """Two balanced Gaussian classes with +-1 labels; returns (X, y)."""
    if spec.task != "classification":
        raise ValueError(f"spec.task is {spec.task!r}, not classification")
    gen = substream(spec.seed, KEY_DATA)
    mean = np.full(spec.d, spec.mean_separation)
    pos = gen.standard_normal((spec.n, spec.d)) + mean
    neg = gen.standard_normal((spec.n, spec.d)) - mean
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(spec.n), -np.ones(spec.n)])
    order = gen.permutation(2 * spec.n)
    return features[order], labels[order]


def write_tabular(path, features, labels, label_column="label"):
    """Write a dataset as headed CSV with full float round-trip precision."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    names = [f"f{i}" for i in range(features.shape[1])] + [label_column]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row, lab in zip(features, labels):
            writer.writerow([f"{x:.17g}" for x in row] + [f"{lab:.17g}"])


def ingest_tabular(path, label_column="label"):
    """Read a headed CSV of numeric columns; returns (X, y, feature_names).

    Parse failures name the offending row and column.  Values written by
    write_tabular read back bit-equal.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty file, expected a header")
        header = [h.strip() for h in header]
        if label_column not in header:
            raise TraceFormatError(
                f"{path}: no column named {label_column!r} in header "
                f"{header}")
        label_idx = header.index(label_column)
        feature_names = [h for h in header if h != label_column]
        rows = []
        labels = []
        for r, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise TraceFormatError(
                    f"{path}: row {r} has {len(raw)} fields, expected "
                    f"{len(header)}")
            vals = []
            for name, cell in zip(header, raw):
                try:
                    x = float(cell)
                except ValueError:
                    raise TraceFormatError(
                        f"{path}: row {r}, column {name!r}: "
                        f"cannot parse {cell!r} as a number") from None
                if not math.isfinite(x):
                    raise TraceFormatError(
                        f"{path}: row {r}, column {name!r}: non-finite "
                        f"value {cell!r}")
                vals.append(x)
            labels.append(vals.pop(label_idx))
            rows.append(vals)
    if not rows:
        raise TraceFormatError(f"{path}: no data rows")
    return (np.array(rows, dtype=np.float64),
            np.array(labels, dtype=np.float64), feature_names)


def _train_square(features, labels, ridge):
    n = features.shape[0]
    gram = features.T @ features / n + ridge * np.eye(features.shape[1])
    rhs = features.T @ labels / n
    v = np.linalg.solve(gram, rhs)
    grad_norm = float(np.linalg.norm(gram @ v - rhs))
    if grad_norm > 1e-8:
        raise TrainingError(
            f"ridge system solved poorly (gradient norm {grad_norm:.3e})")
    return v


def _train_logistic(features, labels, ridge, tol=1e-8, max_iter=200):
    """Damped Newton on the ridge-regularized logistic objective."""
    n, d = features.shape
    v = np.zeros(d)

    def objective(vv):
        z = features @ vv
        return float(np.mean(np.logaddexp(0.0, -labels * z))
                     + 0.5 * ridge * vv @ vv)

    for _ in range(max_iter):
        z = features @ v
        s = _sigmoid(-labels * z)
        grad = -(features.T @ (labels * s)) / n + ridge * v
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            return v
        weights = s * (1.0 - s)
        hess = (features.T * weights) @ features / n + ridge * np.eye(d)
        step = np.linalg.solve(hess, grad)
        f0 = objective(v)
        slope = float(grad @ step)
        t = 1.0
        while t > 2.0 ** -40 and objective(v - t * step) > f0 - 0.25 * t * slope:
            t *= 0.5
        v = v - t * step
    raise TrainingError(
        f"logistic training hit the iteration cap "
        f"(gradient norm {grad_norm:.3e} > {tol:.1e})")


def _to_boundary(x, dx):
    """Largest t <= 1 that keeps x + t * dx nonnegative, for x > 0."""
    falling = dx < 0.0
    return float(np.min(x[falling] / -dx[falling], initial=1.0))


def _train_hinge(features, labels, ridge, tol=1e-8, max_iter=100):
    """Primal-dual interior-point method for the ridge-regularized hinge loss.

    Solves the quadratic program

        min mean(xi) + ridge/2 ||v||^2  s.t.  Z v + xi >= 1,  xi >= 0,

    with Z = diag(labels) features, by Mehrotra's predictor-corrector
    method: an affine-scaling (predictor) step sets the centering target
    sigma * mu with sigma = (mu_aff / mu)^3, the corrector step adds the
    predictor's second-order term, and a fraction-to-boundary rule keeps
    the slack s = Z v + xi - 1, xi and their multipliers alpha, eta
    positive.  Each Newton system reduces to the d x d matrix
    ridge * n * I + Z^T diag(D) Z, where 1/D = s/alpha + xi/eta, so an
    iteration costs O(n d^2).  The matrix is applied through its
    pseudo-inverse, which stays usable when rank-deficient data (repeated
    rows, d > n) leave it numerically singular, and the corrector step is
    refined once against the unreduced system.

    Certificate: alpha clipped to [0, 1] is dual feasible, so with
    v = Z^T alpha / (ridge * n) the duality gap primal(v) - dual(alpha)
    bounds primal(v) - primal(v_opt).  The solver returns that v once the
    gap is at most tol * max(1, |primal(v)|).  The primal objective is
    ridge-strongly convex, so then ||v - v_opt|| <= sqrt(2 * gap / ridge).
    It raises TrainingError, quoting the last gap, when the gap is not
    finite, the Newton matrix cannot be factored, or max_iter Newton
    steps do not reach the certificate.
    """
    n, d = features.shape
    z = features * labels[:, None]
    scale = ridge * n
    v = np.zeros(d)
    # Rows: the slack s = Z v + xi - 1, xi, and their multipliers alpha, eta.
    w = np.repeat([[1.0], [1.0], [0.5], [0.5]], n, axis=1)
    reason = "hit the iteration cap"
    for it in range(max_iter + 1):
        s, xi, alpha, eta = w
        clipped = np.clip(alpha, 0.0, 1.0)
        u = z.T @ clipped
        v_cert = u / scale
        primal = float(np.mean(np.maximum(0.0, 1.0 - z @ v_cert))
                       + 0.5 * ridge * v_cert @ v_cert)
        dual = float(np.sum(clipped) / n - (u @ u) / (2.0 * ridge * n * n))
        gap = primal - dual
        if not math.isfinite(gap):
            reason = "met a non-finite objective"
            break
        if gap <= tol * max(1.0, abs(primal)):
            return v_cert
        if it == max_iter:
            break
        ratio = xi / eta
        weight = 1.0 / (s / alpha + ratio)
        try:
            inverse = np.linalg.pinv(scale * np.eye(d) + (z.T * weight) @ z,
                                     hermitian=True)
        except np.linalg.LinAlgError:
            reason = "met a singular Newton system"
            break

        def solve(e_v, e_xi, e_p, e_c):
            """The step (dv, dw) that zeroes the linearized KKT residuals:
            e_v of ridge*n*v = Z^T alpha, e_xi of alpha + eta = 1, e_p of
            the slack, e_c of the products (s*alpha, xi*eta)."""
            rhs = ratio * e_xi + e_c[1] / eta - e_c[0] / alpha - e_p
            dv = inverse @ (z.T @ (rhs * weight) - e_v)
            da = (rhs - z @ dv) * weight
            dxi = ratio * (da - e_xi) - e_c[1] / eta
            return dv, np.array((-(e_c[0] + s * da) / alpha, dxi, da,
                                 -(e_c[1] + eta * dxi) / xi))

        r_v = scale * v - z.T @ alpha
        r_xi = 1.0 - alpha - eta
        r_p = z @ v + xi - 1.0 - s
        products = w[:2] * w[2:]
        dw = solve(r_v, r_xi, r_p, products)[1]
        t = _to_boundary(w, dw)
        mu = products.sum() / (2 * n)
        mu_aff = np.sum((w[:2] + t * dw[:2]) * (w[2:] + t * dw[2:])) / (2 * n)
        target = (mu_aff / mu) ** 3 * mu
        e_c = products + dw[:2] * dw[2:] - target
        dv, dw = solve(r_v, r_xi, r_p, e_c)
        ds, dxi, da, de = dw
        fix_v, fix_w = solve(r_v + scale * dv - z.T @ da, r_xi - da - de,
                             r_p + z @ dv + dxi - ds,
                             e_c + w[2:] * dw[:2] + w[:2] * dw[2:])
        dv, dw = dv + fix_v, dw + fix_w
        t = 0.99 * _to_boundary(w, dw)
        v = v + t * dv
        w = w + t * dw
    raise TrainingError(
        f"hinge training {reason} (duality gap {gap:.3e} > {tol:.1e} "
        f"relative)")


def train_optimal(features, labels, loss, ridge=5e-5):
    """Ridge-regularized empirical optimum used as the teaching target."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if ridge <= 0:
        raise ValueError(f"ridge must be > 0, got {ridge}")
    if loss == "square":
        return _train_square(features, labels, ridge)
    if loss == "logistic":
        return _train_logistic(features, labels, ridge)
    if loss == "hinge":
        return _train_hinge(features, labels, ridge)
    raise ValueError(f"unknown loss {loss!r}")


def _build_data(config):
    if config.source is not None:
        features, labels, _ = ingest_tabular(config.source,
                                             config.label_column)
        return features, labels
    if config.dataset.task == "regression":
        features, labels, _ = gen_regression_data(config.dataset)
        return features, labels
    return gen_classification_data(config.dataset)


def _split(features, labels, fraction, seed):
    n = features.shape[0]
    n_test = int(round(fraction * n))
    if n_test >= n:
        raise ValueError(
            f"run.test_fraction = {fraction} holds out {n_test} of {n} "
            f"rows, leaving no training rows")
    order = substream(seed, KEY_SPLIT).permutation(n)
    test_idx, train_idx = order[:n_test], order[n_test:]
    return (features[train_idx], labels[train_idx],
            features[test_idx], labels[test_idx])


def _build_mode(config, train_x, train_y):
    kind = config.mode_kind
    if kind == "pool":
        return TeachingMode.pool(train_x, train_y,
                                 norm_bound=config.norm_bound)
    if kind == "rescalable_pool":
        grid = (None if config.gamma_grid is None
                else np.asarray(config.gamma_grid, dtype=np.float64))
        return TeachingMode.rescalable_pool(train_x, train_y,
                                            gamma_grid=grid,
                                            norm_bound=config.norm_bound)
    if kind == "synthesis":
        return TeachingMode.synthesis(config.norm_bound)
    if kind == "combination":
        return TeachingMode.combination(train_x.T, config.norm_bound)
    raise ValueError(f"unknown mode kind {kind!r}")


def _initial_learner(config, fmap):
    gen = substream(config.w0_seed, KEY_INIT)
    w0 = gen.standard_normal(fmap.s)
    w0 = w0 / np.linalg.norm(w0)
    return LearnerState(w=w0, eta=config.eta, loss=config.loss,
                        feedback=config.feedback,
                        sigma_forget=config.sigma_forget,
                        seed=config.noise_seed)


def _make_teacher(kind, config, v_star, mode, spectral):
    if kind == "random":
        seed = derive_seed(config.run_seed, KEY_SELECT,
                           _TEACHER_STREAM[kind])
        return RandomTeacher(mode, seed)
    if kind == "omniscient":
        return OmniscientTeacher(v_star, mode, config.eta, config.loss,
                                 stop_tol=config.stop_tol,
                                 spectral=spectral, lam=config.lam)
    if kind == "lazy":
        return LazyTeacher(v_star, mode, config.eta, config.loss,
                           recovery=config.recovery,
                           stop_tol=config.stop_tol,
                           spectral=spectral, lam=config.lam)
    if kind == "active":
        return ActiveTeacher(v_star, mode, config.eta, config.loss,
                             recovery=config.recovery,
                             exam_period=config.exam_period,
                             stop_tol=config.stop_tol,
                             spectral=spectral, lam=config.lam)
    raise ValueError(f"unknown teacher kind {kind!r}")


class _Evaluator:
    """Omniscient metric computation shared by all runners."""

    def __init__(self, v_star, train_x, train_y, test_x, test_y, loss,
                 classification):
        self.v_star = v_star
        self.train_x = train_x
        self.train_y = train_y
        self.test_x = test_x
        self.test_y = test_y
        self.loss = loss
        self.classification = classification

    def row(self, iteration, remote):
        v_t = conjugate_apply(remote.fmap, remote.state.w)
        z = self.train_x @ v_t
        objective = float(np.mean(loss_value(self.loss, z, self.train_y)))
        param_dist = float(np.linalg.norm(v_t - self.v_star))
        accuracy = None
        if self.classification and self.test_x.shape[0] > 0:
            pred = np.where(self.test_x @ v_t >= 0, 1.0, -1.0)
            accuracy = float(np.mean(pred == self.test_y))
        return TraceRow(iteration=iteration, objective=objective,
                        param_dist=param_dist, test_accuracy=accuracy,
                        teaching_samples=remote.teaching_samples,
                        query_samples=remote.query_samples)


def _prepare(config):
    """(v_star, fmap, mode, evaluator, spectrum of the map) of a run."""
    features, labels = _build_data(config)
    classification = (config.source is None
                      and config.dataset.task == "classification") or (
                          config.source is not None
                          and set(np.unique(labels)) <= {-1.0, 1.0})
    train_x, train_y, test_x, test_y = _split(
        features, labels, config.test_fraction, config.run_seed)
    v_star = train_optimal(train_x, train_y, config.loss, config.ridge)
    fmap = random_map(train_x.shape[1], config.map_kind, config.map_seed)
    mode = _build_mode(config, train_x, train_y)
    evaluator = _Evaluator(v_star, train_x, train_y, test_x, test_y,
                           config.loss, classification)
    return v_star, fmap, mode, evaluator, spectral_stats(fmap)


def _run_loop(config, teacher, remote, evaluator, switch_at=None):
    """Shared teaching loop: metrics row at t=0, per-period rows, and a
    closing row at the last completed iteration.

    The loop ends when the budget is spent or the teacher declines to
    step (a step returning None); the harness never stops a run itself.
    switch_at maps iteration index -> replacement teacher (used by the
    multi-teacher runner); each incoming teacher is primed so its
    background exam cost lands on the ledger at the handoff.
    """
    rows = [evaluator.row(0, remote)]
    completed = 0
    for t in range(1, config.iterations + 1):
        if switch_at and (t - 1) in switch_at:
            teacher = switch_at[t - 1]
            teacher.prime(remote)
        if teacher.step(remote) is None:
            break
        completed = t
        if t % config.metrics_period == 0:
            rows.append(evaluator.row(t, remote))
    # The closing row is taken after the loop, so it also counts the exam
    # of a step the teacher then declined.  A declined step leaves the
    # student as it was, so the row replaces the one of its iteration.
    if rows[-1].iteration == completed:
        rows.pop()
    rows.append(evaluator.row(completed, remote))
    return rows


def run_experiment(config):
    """Run one teaching experiment and return its evaluation trace."""
    v_star, fmap, mode, evaluator, spectral = _prepare(config)
    learner = _initial_learner(config, fmap)
    remote = RemoteLearner(learner, fmap)
    teacher = _make_teacher(config.teacher, config, v_star, mode, spectral)
    return _run_loop(config, teacher, remote, evaluator)


def run_forgetting_scenario(config, sigma_forget):
    """Compare the four teachers on one forgetting student.

    Shared-space setting only.  All four runs share the dataset, target,
    initial weights, and the per-step forgetting noise (noise at step t
    is a function of (seed, t) only); they differ solely in how examples
    are chosen.  The active teacher re-examines every iteration, which is
    what lets it track the drifting student; the lazy teacher exams once
    and extrapolates blindly.
    """
    if config.map_kind != "identity":
        raise ValueError("forgetting scenario requires the shared-space "
                         "setting (map_kind identity)")
    sigma = float(sigma_forget)
    if sigma < 0:
        raise ValueError(f"sigma_forget must be >= 0, got {sigma}")
    base = replace(config, sigma_forget=sigma,
                   recovery=replace(config.recovery, standard_queries=True))
    v_star, fmap, mode, evaluator, spectral = _prepare(base)
    traces = {}
    for kind in TEACHER_KINDS:
        cfg = replace(base, teacher=kind,
                      exam_period=1 if kind == "active" else base.exam_period)
        learner = _initial_learner(cfg, fmap)
        remote = RemoteLearner(learner, fmap)
        teacher = _make_teacher(kind, cfg, v_star, mode, spectral)
        traces[kind] = _run_loop(cfg, teacher, remote, evaluator)
    return traces


def run_multi_teacher(config, n_teachers, switch_points):
    """One student taught by a relay of active teachers.

    switch_points (one per handoff, strictly increasing, within the
    iteration budget) give the iteration counts at which the next teacher
    takes over; every incoming teacher pays for its own background exam.
    """
    if n_teachers < 1:
        raise ValueError(f"n_teachers must be >= 1, got {n_teachers}")
    points = [int(p) for p in switch_points]
    if len(points) != n_teachers - 1:
        raise ValueError(
            f"expected {n_teachers - 1} switch points for {n_teachers} "
            f"teachers, got {len(points)}")
    if any(p < 0 or p > config.iterations for p in points):
        raise ValueError("switch points must lie within the iteration "
                         "budget")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError("switch points must be strictly increasing")
    cfg = replace(config, teacher="active")
    v_star, fmap, mode, evaluator, spectral = _prepare(cfg)
    learner = _initial_learner(cfg, fmap)
    remote = RemoteLearner(learner, fmap)
    teachers = [_make_teacher("active", cfg, v_star, mode, spectral)
                for _ in range(n_teachers)]
    teachers[0].prime(remote)
    switch_at = {p: teachers[i + 1] for i, p in enumerate(points)}
    return _run_loop(cfg, teachers[0], remote, evaluator,
                     switch_at=switch_at)


def exponential_fit(rows):
    """Fit param_dist ~ C * rate^iteration by least squares in log space.

    Rows at or below 1e-12 are excluded (they sit on the noise floor);
    at least 10 usable rows are required.
    """
    pts = [(r.iteration, r.param_dist) for r in rows if r.param_dist > 1e-12]
    if len(pts) < 10:
        raise ValueError(
            f"need at least 10 rows above the floor to fit, got {len(pts)}")
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.log(np.array([p[1] for p in pts], dtype=np.float64))
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    rmse = float(np.sqrt(np.mean((ys - pred) ** 2)))
    return ExponentialFit(rate=float(np.exp(slope)), log_rmse=rmse,
                          n_points=len(pts))


def samples_to_threshold(rows, fraction=0.1):
    """Teaching samples spent when param_dist first drops to the given
    fraction of its initial value; None if the trace never gets there."""
    if not rows:
        raise ValueError("empty trace")
    target = fraction * rows[0].param_dist
    for row in rows:
        if row.param_dist <= target:
            return row.teaching_samples
    return None


_TRACE_COLUMNS = ("iteration", "objective", "param_dist", "test_accuracy",
                  "teaching_samples", "query_samples")


def write_trace(path, rows):
    """Write a trace as delimited text, 17 significant digits per float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        for r in rows:
            acc = "" if r.test_accuracy is None else f"{r.test_accuracy:.17g}"
            writer.writerow([str(r.iteration), f"{r.objective:.17g}",
                             f"{r.param_dist:.17g}", acc,
                             str(r.teaching_samples),
                             str(r.query_samples)])


def read_trace(path):
    """Read a trace file written by write_trace (floats bit-equal)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise TraceFormatError(f"{path}: empty trace file")
        if header != _TRACE_COLUMNS:
            raise TraceFormatError(
                f"{path}: header {header} != expected {_TRACE_COLUMNS}")
        rows = []
        for r, raw in enumerate(reader, start=2):
            if len(raw) != len(_TRACE_COLUMNS):
                raise TraceFormatError(
                    f"{path}: row {r} has {len(raw)} fields, expected "
                    f"{len(_TRACE_COLUMNS)}")
            try:
                rows.append(TraceRow(
                    iteration=int(raw[0]),
                    objective=float(raw[1]),
                    param_dist=float(raw[2]),
                    test_accuracy=None if raw[3] == "" else float(raw[3]),
                    teaching_samples=int(raw[4]),
                    query_samples=int(raw[5])))
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}: row {r}: {exc}") from None
    return rows
