"""Teachers: example selection against a virtual learner.

Every teacher here scores a candidate training pair (x, y) by the exact
one-step change it causes in the squared distance between the (virtual)
learner v and the target v*:

    score(x, y) = eta^2 beta^2 ||x||^2 - 2 eta beta <v - v*, x>,

where beta is the loss derivative at the predicted value.  Minimizing the
score over a pool or a synthesis ball, inside a span or not, gives the
greedy teaching step; the white-box variant reads the student directly,
the black-box variant reads an exam-maintained estimate.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .exam import RecoveryConfig, construct_virtual_learner
from .feature_space import span_basis
from .learners import _check_labels, _loss_grad_kernel, loss_grad
from .rng import KEY_SELECT, substream

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SYNTH_GRID_POINTS = 2001
_GOLDEN_WIDTH = 1e-10
_LABELS = np.array([[-1.0], [1.0]])
# Objective values per column block of select_pool's scan (~40 KB).
_POOL_BLOCK_ELEMENTS = 5000
# Relative margin on select_pool's floors, far above the rounding error
# of any computed score (see select_pool).
_FLOOR_MARGIN = 1e-12
# select_pool prunes only while its overflow bound stays below this.
_GUARD_LIMIT = 1e300
# max over u > 0 of u / (1 + e^u), which is W(1/e) for Lambert's W: the
# largest eta-free step |gamma beta| |z| a logistic candidate can take
# against the sign of its prediction z
_LOGISTIC_STEP = 0.2784645427610738
# A re-exam's target as a fraction c of the teacher's own distance
# estimate D = ||v - v*||, fixed before the exam's first query.  A greedy
# step that takes the estimate to rho D leaves a student the exam placed
# within e <= c D of it at most rho D + e <= (rho + c) D from v*, up to
# the change of beta between the two: the exam error adds at most c to
# the step's contraction factor.  c = 0.05 keeps that addition small,
# and on the sign_sweep benchmark's forgetting students (d = 20) it cuts
# a warm re-exam from about 345 queries to about 122.
_EXAM_TARGET_FRACTION = 0.05


class TeachingComplete(Exception):
    """The (virtual) learner already sits on the target."""


class DegenerateDirectionError(ValueError):
    """Teaching direction has no component inside the allowed span."""


def default_gamma_grid():
    """41 log-spaced magnitudes in [1e-2, 1e2], both signs."""
    mags = np.logspace(-2.0, 2.0, 41)
    return np.concatenate([-mags[::-1], mags])


def _positive(norm_bound, optional=False):
    """norm_bound as a float, refusing zero, negatives and NaN."""
    if optional and norm_bound is None:
        return None
    if norm_bound is None or not norm_bound > 0:
        raise ValueError(f"norm_bound must be > 0, got {norm_bound}")
    return float(norm_bound)


class _PoolStats(NamedTuple):
    """What select_pool reads of a pool mode besides its arrays, fixed
    with the mode: the row norms, gamma^2 as a column, whether every
    label is +-1, and the largest |gamma|, ||x||^2 and |y|."""
    norms: np.ndarray
    g_sq: np.ndarray
    unit_labels: bool
    g_max: float
    n_max: float
    y_max: float


def _pool_stats(grid, y, norms_sq):
    """The _PoolStats of a pool with this grid, labels and row norms."""
    g_col = grid[:, None]
    return _PoolStats(norms=np.sqrt(norms_sq), g_sq=g_col * g_col,
                      unit_labels=bool(np.all(np.abs(y) == 1)),
                      g_max=float(np.abs(grid).max()),
                      n_max=float(norms_sq.max()),
                      y_max=float(np.abs(y).max()))


@dataclass(frozen=True)
class TeachingMode:
    """What the teacher is allowed to feed the student.

    synthesis: any x with ||x|| <= norm_bound, inside the span of basis
      when one is set.  A combination mode is a synthesis mode whose
      basis is an orthonormal basis of span(candidates), None when the
      candidates span all of R^d.
    pool: one of the candidate pairs, as is.
    rescalable_pool: a candidate pair scaled by any gamma in gamma_grid
      (subject to norm_bound when one is set).

    A pool mode also carries the squared row norms and _PoolStats, both
    computed once here for select_pool.
    """
    tag: str
    norm_bound: float | None = None
    pool_x: np.ndarray | None = None
    pool_y: np.ndarray | None = None
    gamma_grid: np.ndarray | None = None
    basis: np.ndarray | None = None
    pool_norms_sq: np.ndarray | None = None
    pool_stats: "_PoolStats | None" = None

    @classmethod
    def synthesis(cls, norm_bound):
        return cls(tag="synthesis", norm_bound=_positive(norm_bound))

    @classmethod
    def combination(cls, candidates, norm_bound):
        return cls(tag="synthesis", norm_bound=_positive(norm_bound),
                   basis=span_basis(candidates))

    @classmethod
    def pool(cls, pool_x, pool_y, norm_bound=None):
        x, y, norms = cls._check_pool(pool_x, pool_y)
        grid = np.array([1.0])
        return cls(tag="pool", pool_x=x, pool_y=y, gamma_grid=grid,
                   norm_bound=_positive(norm_bound, optional=True),
                   pool_norms_sq=norms,
                   pool_stats=_pool_stats(grid, y, norms))

    @classmethod
    def rescalable_pool(cls, pool_x, pool_y, gamma_grid=None,
                        norm_bound=None):
        x, y, norms = cls._check_pool(pool_x, pool_y)
        grid = (default_gamma_grid() if gamma_grid is None
                else np.asarray(gamma_grid, dtype=np.float64))
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("gamma_grid must be a non-empty 1-D array")
        return cls(tag="rescalable_pool", pool_x=x, pool_y=y,
                   gamma_grid=grid,
                   norm_bound=_positive(norm_bound, optional=True),
                   pool_norms_sq=norms,
                   pool_stats=_pool_stats(grid, y, norms))

    @staticmethod
    def _check_pool(pool_x, pool_y):
        x = np.asarray(pool_x, dtype=np.float64)
        y = np.asarray(pool_y, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("pool_x must be a non-empty (k, d) matrix")
        if y.shape != (x.shape[0],):
            raise ValueError("pool_y must have one label per pool row")
        return x, y, np.einsum("ij,ij->i", x, x)


@dataclass(frozen=True)
class SelectedExample:
    """A teaching pair as fed to the student (x already rescaled).

    As a greedy teacher's step record it also holds beta, the loss
    derivative at the teacher's estimate, and et_held: whether gamma *
    beta lay in the teacher's ET window (None without a spectrum).
    """
    x: np.ndarray
    y: float
    gamma: float
    objective: float
    index: int | None = None
    beta: float | None = None
    et_held: bool | None = None

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


def omniscient_objective(v, v_star, eta, loss, x, y):
    """One-step change in ||v - v*||^2 caused by teaching (x, y)."""
    v = np.asarray(v, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    beta = loss_grad(loss, float(v @ x), y)
    return (eta * eta * beta * beta * float(x @ x)
            - 2.0 * eta * beta * float((v - v_star) @ x))


def select_pool(v, v_star, mode, eta, loss):
    """Exact argmin of the one-step objective over pool x gamma grid.

    Candidates whose rescaled norm violates the mode's norm bound score
    +inf.  Ties break toward the lowest pool index, then the smallest
    |gamma|, then the earlier grid row.  A grid row is skipped whole when
    any of its objectives is NaN or its least one is not finite (every
    candidate masked, or a -inf).

    Floor.  With t = eta beta gamma, n = ||x||^2 and c = <v - v*, x> the
    objective is t^2 n - 2 t c, a quadratic in t whose minimum -c^2 / n
    bounds a candidate's score from below for every gamma, loss and beta.
    _floor_depths tightens it with the largest step |t| the loss can take
    in the sign of c.  A candidate whose floor lies above the best score
    found so far can neither win nor tie.

    Scan order.  The floors cost O(k) from the products x @ v and
    x @ (v - v*) and the pool norms, and one argmax finds the deepest.
    That candidate is scored first, across the whole grid; if the
    deepest floor left (an O(k) max) lies above the best score so far by
    the margin below, the scan stops with nothing sorted.  Otherwise the
    rest is sorted, deepest floor first, and scored in column blocks of
    2, 4, 8 ... candidates, up to ``_POOL_BLOCK_ELEMENTS // len(grid)``,
    with the same test before each block.  Each block is scored in
    pool-index order.  Each grid row keeps its least (value, index) over
    the blocks scored, and one lexsort on (value, index, |gamma|) over
    the rows picks the winner: the tie rule over every candidate scored.
    A candidate's value goes through the same elementwise operations in
    the same order as in a full sweep, so it is the same bit for bit.

    Margin.  A computed score carries at most six roundings of relative
    size 2^-53 in each term and one in their difference, and beta and the
    floor a few more; completing the square on the perturbed terms keeps
    every computed score above its computed floor to a relative 1e-14,
    far inside ``_FLOOR_MARGIN``.  Underflow adds absolute errors of at
    most 2^-1075 per operation, scaled by the factors that follow it,
    which the absolute slack from _prune_slack covers.

    Pruning needs eta > 0, finite inputs and an O(k) bound showing that
    no partial product can overflow (_prune_slack).  Without them, and
    for a pool that fits in one block, the blocks are scored in index
    order: the full sweep.
    """
    if mode.tag not in ("pool", "rescalable_pool"):
        raise ValueError(f"select_pool needs a pool mode, got {mode.tag!r}")
    v = np.asarray(v, dtype=np.float64)
    v_star = np.asarray(v_star, dtype=np.float64)
    x_pool, y_pool = mode.pool_x, mode.pool_y
    stats = mode.pool_stats
    # the mode tested its labels for +-1 once; other labels, which only
    # the square loss accepts, take the array check
    _check_labels(loss, 1.0 if stats.unit_labels else y_pool)
    base_z = x_pool @ v
    base_diff = x_pool @ (v - v_star)
    norms_sq = mode.pool_norms_sq
    grid = mode.gamma_grid
    g_col = grid[:, None]
    k = len(y_pool)
    width = max(1, _POOL_BLOCK_ELEMENTS // len(grid))
    all_rows = np.arange(len(grid))
    # per grid row: the least (value, pool index) over the blocks scored.
    # argmin returns a row's first NaN and np.minimum keeps it, so a row
    # with a NaN or -inf anywhere ends with a value that is not finite.
    row_val = row_idx = None
    slack = (None if k <= width
             else _prune_slack(eta, loss, mode, base_z, base_diff))

    def score(cols):
        nonlocal row_val, row_idx
        beta = _loss_grad_kernel(loss, g_col * base_z[cols], y_pool[cols])
        obj = (eta * eta * beta * beta * stats.g_sq * norms_sq[cols]
               - 2.0 * eta * beta * g_col * base_diff[cols])
        if mode.norm_bound is not None:
            obj = np.where(np.abs(g_col) * stats.norms[cols]
                           <= mode.norm_bound, obj, np.inf)
        j = np.argmin(obj, axis=1)
        val, idx = obj[all_rows, j], cols[j]
        if row_val is None:
            row_val, row_idx = val, idx
        else:
            take = (val < row_val) | ((val == row_val) & (idx < row_idx))
            row_idx = np.where(take, idx, row_idx)
            row_val = np.minimum(row_val, val)

    def settled(floor):
        # the deepest floor left lies above the best score by the margin
        return floor * (1.0 + _FLOOR_MARGIN) + slack < -row_val.min()

    if slack is None:
        for start in range(0, k, width):
            score(np.arange(start, min(start + width, k)))
    else:
        depth = _floor_depths(eta, loss, mode, base_z, base_diff)
        # argmax returns the first NaN, if any, else the deepest floor;
        # once scored its floor is -inf, and depth.max() the deepest left
        deepest = depth.argmax()
        depth[deepest] = -np.inf
        score(np.array([deepest]))
        if not settled(depth.max()):
            # deepest first, NaN before inf as NumPy sorts it; the slice
            # drops the scored floor, which sorts first at -inf
            rest = np.argsort(depth)[:0:-1]
            start, size = 0, 2
            while start < len(rest) and not settled(depth[rest[start]]):
                score(np.sort(rest[start:start + size]))
                start += size
                size = min(2 * size, width)
    # lexsort is stable, so a full tie on (value, index, |gamma|) keeps
    # the earliest row
    rows = np.flatnonzero(np.isfinite(row_val))
    if rows.size == 0:
        if mode.norm_bound is not None and not np.any(
                np.abs(g_col) * stats.norms <= mode.norm_bound):
            raise ValueError(
                "no pool candidate satisfies the norm bound; nothing to "
                "teach")
        raise ValueError(
            "no pool candidate has a finite objective; nothing to teach")
    gi = rows[np.lexsort((np.abs(grid[rows]), row_idx[rows],
                          row_val[rows]))[0]]
    idx = int(row_idx[gi])
    gamma = float(grid[gi])
    x_sel = gamma * x_pool[idx]
    y_sel = float(y_pool[idx])
    return SelectedExample(
        x=x_sel, y=y_sel, gamma=gamma,
        objective=omniscient_objective(v, v_star, eta, loss, x_sel, y_sel),
        index=idx)


def _floor_depths(eta, loss, mode, base_z, base_diff):
    """Per candidate, how far below 0 its score can reach over the grid.

    The score q(t) = t^2 n - 2 t c is negative only for steps t = eta
    beta gamma with the sign s of c.  Let T bound |t| over such steps;
    q falls on [0, |c| / n], so no score lies below q(tau) with
    tau = min(T, |c| / n), which is -c^2 / n when the vertex is in reach.
    With z = <v, x>, y the label and G the largest |gamma|, a step of sign
    s has (see the loss derivatives in learners):

    - logistic: |t| = eta |gamma| sigmoid(s |gamma| z), at most eta G, and
      when s z < 0 at most eta W / |z| with W = max_u u / (1 + e^u);
    - hinge: |t| = eta |gamma| while -s |gamma| z < 1, so eta G, or
      eta / |z| when s z < 0;
    - square: t = eta (gamma^2 z - gamma y), so |t| <= eta (G^2 |z| +
      G |y|), and s t <= eta y^2 / (4 |z|) when s z < 0.

    T is the least of the bounds that hold.  The bound for s z < 0 reads
    |z| through w, which is |z| there and 0 elsewhere, where the bound
    is inf, so no np.where is needed.  Returns -q(tau) >= 0.  On the
    finite inputs select_pool prunes with, T is finite and so is every
    floor; a NaN floor would rank deepest there (argmax and sort put NaN
    above inf) and never pass the stop test, so it is always scored.
    """
    g = mode.pool_stats.g_max
    norms_sq = mode.pool_norms_sq
    c = np.abs(base_diff)
    w = np.abs(base_z)
    w *= base_diff * base_z < 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if loss == "square":
            y = mode.pool_y
            cap = np.fmin(eta * (g * g * np.abs(base_z) + g * np.abs(y)),
                          eta * (y * y) / (4.0 * w))
        else:
            top = _LOGISTIC_STEP if loss == "logistic" else 1.0
            cap = np.fmin(eta * g, (eta * top) / w)
        tau = np.fmin(cap, c / norms_sq)
        return tau * (2.0 * c - tau * norms_sq)


def _prune_slack(eta, loss, mode, base_z, base_diff):
    """Absolute slack of select_pool's floor test, or None to score all.

    With every factor replaced by max(1, its largest magnitude), the
    products A = eta^2 beta^2 gamma^2 n and B = 2 eta beta gamma c bound
    every partial product of either objective term (|beta| <= 1 for the
    margin losses, |gamma z| + |y| for the square loss).  None when eta
    is not positive (the floors assume a positive step), an input is not
    finite or A + B could overflow; otherwise (A + B) 2^-1060 exceeds the
    underflow error any score or floor can carry.  The largest |gamma|,
    n and |y| are the mode's; only those of z and c cost O(k) here.
    """
    stats = mode.pool_stats
    tops = (eta, stats.g_max, float(np.abs(base_z).max()),
            float(np.abs(base_diff).max()), stats.n_max, stats.y_max)
    if not (eta > 0 and all(map(math.isfinite, tops))):
        return None
    e, g, z, c, n, y = (max(1.0, top) for top in tops)
    beta = g * z + y if loss == "square" else 1.0
    total = e * e * beta * beta * g * g * n + 2.0 * e * beta * g * c
    return math.ldexp(total, -1060) if total < _GUARD_LIMIT else None


def _line_values(gamma, a, c, n, eta, loss):
    """One-step objective at x = gamma * u for the labels -1 and +1.

    With a = <v, u>, c = <v - v*, u> and n = ||u||^2 the prediction is
    gamma * a and the objective eta^2 beta^2 gamma^2 n - 2 eta beta gamma
    c, so no d-vector is needed.  gamma broadcasts; row 0 holds label -1.
    The caller has checked loss against _LABELS with _check_labels.
    """
    beta = _loss_grad_kernel(loss, gamma * a, _LABELS)
    return (eta * eta * beta * beta * (gamma * gamma * n)
            - 2.0 * eta * beta * (gamma * c))


def _line_best(gamma, a, c, n, eta, loss):
    """_line_values at one Python float gamma, on floats: (value, label).

    label is the one np.argmin picks from the column (the first NaN, else
    the least objective, -1 on ties) and value its objective, which
    compares as the column's np.min does (NaN when either is NaN).  Each
    label's beta and objective go through _line_values's operations in
    its order, so each has the array kernel's bits; sigmoid(z) and
    sigmoid(-z) share e = exp(-|z|), so a logistic evaluation costs one
    np.exp.
    """
    z = gamma * a
    if loss == "logistic":
        # beta = -y * sigmoid(-y z) for y = -1, then y = +1, as in
        # learners._sigmoid_float
        e = float(np.exp(-abs(z)))
        betas = (1.0 * ((1.0 if z >= 0 else e) / (1.0 + e)),
                 -1.0 * ((1.0 if z <= 0 else e) / (1.0 + e)))
    else:
        # beta = -y where y z < 1, else 0, for y = -1, then y = +1
        betas = (1.0 if -1.0 * z < 1.0 else 0.0,
                 -1.0 if 1.0 * z < 1.0 else 0.0)
    minus, plus = (eta * eta * beta * beta * (gamma * gamma * n)
                   - 2.0 * eta * beta * (gamma * c) for beta in betas)
    if minus == minus and (plus < minus or plus != plus):
        return plus, 1.0
    return minus, -1.0


def _classification_line_search(a, c, n, g_max, eta, loss):
    """Grid scan plus golden-section refinement; returns (gamma, label).

    The 2001-point grid is one array expression (_line_values); the
    golden-section refinement and the final label pick evaluate one
    gamma at a time on Python floats (_line_best), with the bits the
    array kernel gives.
    """
    # the loss is checked here once, not at every point of the search
    _check_labels(loss, _LABELS)
    grid = np.linspace(-g_max, g_max, _SYNTH_GRID_POINTS)
    vals = np.min(_line_values(grid, a, c, n, eta, loss), axis=0)
    i = int(np.argmin(vals))

    def phi(g):
        return _line_best(g, a, c, n, eta, loss)[0]

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
    best, label = _line_best(gamma, a, c, n, eta, loss)
    if vals[i] < best:
        gamma = float(grid[i])
        label = _line_best(gamma, a, c, n, eta, loss)[1]
    return gamma, label


def _synthesis_search(v, v_star, direction, norm_bound, eta, loss):
    """Minimize the one-step objective along gamma * direction.

    gamma ranges over |gamma| <= g_max = norm_bound / ||u|| for the
    direction u, and the objective depends on u only through three
    scalars computed once: a = <v, u>, c = <v - v*, u> and n = ||u||^2.

    Square loss labels x with the target's prediction gamma <v*, u>, so
    beta = gamma c and the objective eta^2 c^2 n s^2 - 2 eta c^2 s is a
    quadratic in s = gamma^2, minimized at s = 1 / (eta n) clipped to
    g_max^2.  Of the two roots the negative one is returned.

    Classification losses try both labels.  _line_values scores a
    2001-point gamma grid for both in one array expression; a
    golden-section search on the same scalars, on Python floats
    (_line_best), refines the bracket around the grid winner, which is
    kept if the refinement does not beat it.
    """
    n = float(direction @ direction)
    if n == 0.0:
        raise TeachingComplete("virtual learner already matches the target")
    g_max = norm_bound / math.sqrt(n)
    if loss == "square":
        root = 1.0 / math.sqrt(eta * n) if eta * n > 0.0 else math.inf
        gamma = -min(root, g_max)
        label = gamma * float(v_star @ direction)
    else:
        gamma, label = _classification_line_search(
            float(v @ direction), float((v - v_star) @ direction), n, g_max,
            eta, loss)
    x_sel = gamma * direction
    return SelectedExample(
        x=x_sel, y=label, gamma=gamma,
        objective=omniscient_objective(v, v_star, eta, loss, x_sel, label))


def select_synthesis(v, v_star, mode, eta, loss):
    """Best synthesized example gamma * u within the norm ball.

    u is v - v*, or its projection B (B^T (v - v*)) when the mode carries
    a span basis B.  A projection within 1e-12 of zero means the
    remaining error is invisible inside the span, and teaching cannot
    proceed unless ||v - v*|| itself is that small, which is done.  The
    label for the square loss is the target's own prediction <v*, x>;
    classification losses try both labels.  The search runs on three
    scalars of u (see _synthesis_search): a closed form for the square
    loss, a vectorized grid plus golden-section refinement otherwise.
    """
    if mode.tag != "synthesis":
        raise ValueError(
            f"select_synthesis needs a synthesis mode, got {mode.tag!r}")
    v = np.asarray(v, dtype=np.float64)
    v_star = np.asarray(v_star, dtype=np.float64)
    basis = mode.basis
    direction = v - v_star
    if basis is not None:
        for name, vec in (("virtual learner", v), ("target", v_star)):
            gap = float(np.linalg.norm(basis @ (basis.T @ vec) - vec))
            if gap > 1e-8 * (1.0 + float(np.linalg.norm(vec))):
                warnings.warn(
                    f"{name} lies outside the combination span "
                    f"(distance {gap:.3e}); teaching may stall",
                    stacklevel=2)
        direction = basis @ (basis.T @ direction)
        if float(np.linalg.norm(direction)) <= 1e-12:
            # the square-loss closed form lands on the target to rounding,
            # so a vanishing projection of a vanishing distance means done
            if float(np.linalg.norm(v - v_star)) <= 1e-12:
                raise TeachingComplete(
                    "virtual learner matches the target to 1e-12")
            raise DegenerateDirectionError(
                "teaching direction has no component in the candidate span")
    return _synthesis_search(v, v_star, direction, mode.norm_bound, eta, loss)


def select_example(v, v_star, mode, eta, loss):
    """Dispatch selection on the teaching mode."""
    if mode.tag in ("pool", "rescalable_pool"):
        return select_pool(v, v_star, mode, eta, loss)
    return select_synthesis(v, v_star, mode, eta, loss)


def random_select(mode, gen):
    """Uniform pool draw with gamma = 1 (the SGD baseline)."""
    if mode.pool_x is None:
        raise ValueError("random selection needs a pool mode")
    idx = int(gen.integers(mode.pool_x.shape[0]))
    return SelectedExample(
        x=mode.pool_x[idx], y=float(mode.pool_y[idx]), gamma=1.0,
        objective=float("nan"), index=idx)


class RandomTeacher:
    """SGD baseline: uniform pool sampling, no feedback used."""

    def __init__(self, mode, seed):
        if mode.pool_x is None:
            raise ValueError("the random teacher needs a pool mode")
        self._mode = mode
        self._gen = substream(seed, KEY_SELECT)

    def step(self, remote):
        sel = random_select(self._mode, self._gen)
        remote.teach(sel.x, sel.y)
        return sel


class _GreedyTeacher:
    """State and teaching step shared by the greedy teachers.

    The step works on the teacher's own estimate v of G^T w, so stopping
    and the step-size (ET) window 0 < gamma beta < 2 sigma_min / (eta
    sigma_max^2), fixed at construction, never use more than the teacher
    knows.  Everything the step decides is a function of v alone, so the
    last step's record is kept under the bytes of its v, and a step at an
    estimate with the same bytes teaches it again without another
    selection.
    """

    def __init__(self, v_star, mode, eta, loss, stop_tol=0.0, spectral=None):
        self.v_star = np.asarray(v_star, dtype=np.float64)
        self.mode = mode
        self.eta = eta
        self.loss = loss
        self.stop_tol = stop_tol
        self.et_upper = None
        if spectral is not None:
            scale = eta * spectral.sigma_max ** 2
            self.et_upper = (2.0 * spectral.sigma_min / scale if scale
                             else math.inf)
        self._last_step = (None, None)

    def _greedy_step(self, v, remote):
        """Select against v and teach; returns the step's SelectedExample,
        with beta and et_held set, or None once v is within stop_tol of
        the target or on it.

        beta is the loss derivative the student applies to the selection
        if v is its true image.  When v has the bytes of the last step's
        estimate, that step's record is taught again: the stop test, the
        selection and the ET check would repeat it bit for bit.  A step
        that returns None is not kept.
        """
        key = v.tobytes()
        last_key, sel = self._last_step
        if key == last_key:
            remote.teach(sel.x, sel.y)
            return sel
        if float(np.linalg.norm(v - self.v_star)) <= self.stop_tol:
            return None
        try:
            sel = select_example(v, self.v_star, self.mode, self.eta,
                                 self.loss)
        except TeachingComplete:
            return None
        beta = loss_grad(self.loss, float(v @ sel.x), sel.y)
        held = (None if self.et_upper is None
                else 0.0 < float(sel.gamma) * float(beta) < self.et_upper)
        sel = replace(sel, beta=beta, et_held=held)
        remote.teach(sel.x, sel.y)
        self._last_step = key, sel
        return sel


class OmniscientTeacher(_GreedyTeacher):
    """White-box teacher: reads G^T w at every step (a counted read)."""

    def step(self, remote):
        return self._greedy_step(remote.observe_parameters(), remote)


class ActiveTeacher(_GreedyTeacher):
    """Black-box teacher driven by feedback exams.

    Maintains a virtual learner v ~= G^T w.  exam_period None means one
    background exam on first contact and deterministic propagation ever
    after (sound when the map is conjugate-orthogonal, where the initial
    estimation error is provably never amplified); an integer period
    re-examines every that-many iterations.  "auto" means None for
    unitary maps and 1 otherwise.  Every exam passes the propagated
    estimate and the last exam to construct_virtual_learner, so a sign
    re-exam is warm and sized by the last one.  It also passes a target
    of _EXAM_TARGET_FRACTION times its estimate's distance to v*, fixed
    before the first query, so a sign re-exam certifies only what the
    next step needs, max(eps_est, 0.05 ||v - v*||).  An exam with no
    estimate (the first, and prime's) is cold at eps_est.  The exact
    exams ignore prior, last and target.

    ``virtual`` is the read-only estimate of G^T w: the last exam's v_hat,
    propagated through every step since.  ``last_exam`` is that exam's
    ExamResult; its est_error() bounds ||virtual - G^T w|| at the exam
    only, since under forgetting or a general map the propagated
    estimate drifts.
    """

    def __init__(self, v_star, mode, eta, loss, recovery=None,
                 exam_period="auto", stop_tol=0.0, spectral=None):
        if exam_period not in (None, "auto") and not (
                type(exam_period) is int and exam_period >= 1):
            raise ValueError(f"exam_period must be None, 'auto' or an "
                             f"integer >= 1, got {exam_period!r}")
        super().__init__(v_star, mode, eta, loss, stop_tol, spectral)
        self.recovery = recovery if recovery is not None else RecoveryConfig()
        self.exam_period = exam_period
        self.virtual = None
        self.last_exam = None
        self._t = 0
        self._last_exam_t = None

    def prime(self, remote):
        """Run the background exam now instead of lazily on first step.

        Used when a teacher takes over an already-trained student: the
        handoff itself pays the exam cost, even if the teacher then
        teaches for zero iterations.  The incoming teacher holds no
        estimate yet, so this exam is cold.
        """
        self._examine(remote)

    def _exam_due(self, remote):
        if self._last_exam_t is None:
            return True
        period = self.exam_period
        if period == "auto":
            period = None if remote.unitary_map else 1
        return (period is not None and self._last_exam_t != self._t
                and self._t % period == 0)

    def _examine(self, remote):
        target = None
        if self.virtual is not None:
            target = _EXAM_TARGET_FRACTION * float(
                np.linalg.norm(self.virtual - self.v_star))
        result = construct_virtual_learner(remote, self.recovery,
                                           prior=self.virtual,
                                           last=self.last_exam,
                                           target=target)
        self.last_exam = result
        self.virtual = result.v_hat
        self._last_exam_t = self._t

    def step(self, remote):
        if self._exam_due(remote):
            self._examine(remote)
        v = self.virtual
        sel = self._greedy_step(v, remote)
        if sel is None:
            return None
        self.virtual = v - self.eta * sel.beta * sel.x
        self.virtual.setflags(write=False)
        self._t += 1
        return sel


class LazyTeacher(ActiveTeacher):
    """One background exam, then open-loop virtual updates forever.

    A lazy teacher can stall: once it picks an example whose beta is 0
    at its estimate (a hinge example past the margin), the estimate stops
    moving and it teaches that example again at every later step.  Each
    such step reuses the kept selection (see _GreedyTeacher), so a stall
    costs a teaching step but no selection.
    """

    def __init__(self, v_star, mode, eta, loss, recovery=None,
                 stop_tol=0.0, spectral=None):
        super().__init__(v_star, mode, eta, loss, recovery=recovery,
                         exam_period=None, stop_tol=stop_tol,
                         spectral=spectral)
