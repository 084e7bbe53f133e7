import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import teachsim.exam
import teachsim.teachers
from teachsim.exam import RemoteLearner
from teachsim.experiments import (DatasetSpec, ExperimentConfig,
                                  run_experiment, run_forgetting_scenario,
                                  run_multi_teacher)
from teachsim.feature_space import (conjugate_apply, random_map,
                                    spectral_stats)
from teachsim.learners import LearnerState, loss_grad
from teachsim.teachers import (ActiveTeacher, DegenerateDirectionError,
                               LazyTeacher, OmniscientTeacher, RandomTeacher,
                               TeachingComplete, TeachingMode,
                               default_gamma_grid, omniscient_objective,
                               random_select, select_example, select_pool,
                               select_synthesis)
from teachsim.traces import samples_to_threshold, write_trace


def test_objective_is_one_step_distance_change():
    # the selection objective equals ||v+ - v*||^2 - ||v - v*||^2 for the
    # step v+ = v - eta * beta * x, exactly the quantity a teacher in the
    # student's shoes would minimize
    gen = np.random.default_rng(0)
    for trial in range(300):
        d = int(gen.integers(1, 12))
        loss = ("square", "logistic", "hinge")[trial % 3]
        v = gen.standard_normal(d)
        v_star = gen.standard_normal(d)
        x = gen.standard_normal(d)
        y = float(gen.choice([-1.0, 1.0])) if loss != "square" \
            else float(gen.standard_normal())
        eta = float(gen.uniform(1e-4, 0.5))
        obj = omniscient_objective(v, v_star, eta, loss, x, y)
        beta = loss_grad(loss, float(v @ x), y)
        v_plus = v - eta * beta * x
        direct = float(v_plus @ v_plus - 2 * v_plus @ v_star
                       - (v @ v - 2 * v @ v_star))
        np.testing.assert_allclose(obj, direct, rtol=0, atol=1e-10)


def _brute_force_pool(v, v_star, mode, eta, loss):
    # scalar double loop, the oracle select_pool must reproduce
    best = None
    for gi, gamma in enumerate(np.asarray(mode.gamma_grid)):
        for i in range(mode.pool_x.shape[0]):
            x = gamma * mode.pool_x[i]
            if mode.norm_bound is not None:
                if float(x @ x) > mode.norm_bound ** 2 + 1e-12:
                    continue
            obj = omniscient_objective(v, v_star, eta, loss, x,
                                       float(mode.pool_y[i]))
            key = (obj, i, abs(float(gamma)))
            if best is None or key < best[0]:
                best = (key, i, float(gamma))
    if best is None:
        return None
    return best[1], best[2], best[0][0]


def test_select_pool_matches_brute_force():
    gen = np.random.default_rng(1)
    inadmissible = 0
    for trial in range(48):
        d = int(gen.integers(2, 8))
        n = int(gen.integers(3, 30))
        loss = ("square", "logistic", "hinge")[trial % 3]
        pool_x = gen.standard_normal((n, d))
        pool_y = (gen.choice([-1.0, 1.0], size=n) if loss != "square"
                  else gen.standard_normal(n))
        rescale = trial % 2 == 0
        bound = float(gen.uniform(0.5, 3.0)) if trial % 4 == 0 else None
        if trial >= 40:
            # half the smallest rescaled norm: no candidate is admissible
            gammas = default_gamma_grid() if rescale else np.ones(1)
            bound = 0.5 * float(np.min(np.abs(gammas))
                                * np.min(np.linalg.norm(pool_x, axis=1)))
        if rescale:
            mode = TeachingMode.rescalable_pool(pool_x, pool_y,
                                                norm_bound=bound)
        else:
            mode = TeachingMode.pool(pool_x, pool_y, norm_bound=bound)
        v = gen.standard_normal(d)
        v_star = gen.standard_normal(d)
        eta = float(gen.uniform(1e-3, 0.3))
        expected = _brute_force_pool(v, v_star, mode, eta, loss)
        if expected is None:
            with pytest.raises(ValueError, match="no pool candidate "
                               "satisfies the norm bound"):
                select_pool(v, v_star, mode, eta, loss)
            inadmissible += 1
            continue
        sel = select_pool(v, v_star, mode, eta, loss)
        assert sel.index == expected[0]
        np.testing.assert_allclose(sel.gamma, expected[1], rtol=1e-12)
        np.testing.assert_allclose(sel.objective, expected[2], rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(sel.x, expected[1]
                                   * mode.pool_x[expected[0]], rtol=1e-12)
    assert inadmissible == 8


def test_select_pool_tie_breaks_to_lowest_index():
    # duplicate rows: identical objectives, the earlier row must win
    pool_x = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    pool_y = np.array([0.0, 0.0, 0.0])
    mode = TeachingMode.pool(pool_x, pool_y)
    v = np.array([2.0, 0.0])
    v_star = np.zeros(2)
    sel = select_pool(v, v_star, mode, 0.1, "square")
    assert sel.index == 0


def test_select_pool_respects_norm_bound():
    pool_x = np.array([[10.0, 0.0], [0.1, 0.0]])
    pool_y = np.array([0.0, 0.0])
    mode = TeachingMode.pool(pool_x, pool_y, norm_bound=1.0)
    sel = select_pool(np.array([1.0, 0.0]), np.zeros(2), mode, 0.1,
                      "square")
    assert sel.index == 1  # the big row is inadmissible


def _scan_pool(v, v_star, mode, eta, loss):
    # the same per-candidate arithmetic as select_pool, one gamma row at a
    # time, then every candidate scanned in turn with the (value, index,
    # |gamma|) key and a strict < (so the earlier row wins a full tie)
    base_z = mode.pool_x @ v
    base_diff = mode.pool_x @ (v - v_star)
    norms = np.sqrt(mode.pool_norms_sq).tolist()
    best = None
    for gamma in mode.gamma_grid:
        beta = loss_grad(loss, gamma * base_z, mode.pool_y)
        row = (eta * eta * beta * beta * (gamma * gamma) * mode.pool_norms_sq
               - 2.0 * eta * beta * gamma * base_diff)
        for i, (val, norm) in enumerate(zip(row.tolist(), norms)):
            if mode.norm_bound is not None and \
                    abs(gamma) * norm > mode.norm_bound:
                continue
            key = (val, i, abs(float(gamma)))
            if math.isfinite(val) and (best is None or key < best[0]):
                best = (key, i, float(gamma))
    return None if best is None else best[1:]


# Pools of few distinct small-integer rows, repeated, and gamma grids
# symmetric in sign (magnitudes may repeat) make value, index and |gamma|
# ties common; v = v* or v = 0 makes whole rows tie.  k spans one block
# (k <= 149 at the 82-point grid) to many blocks of a few rows each, and
# a bound that is a small fraction of the largest |gamma| ||x|| masks the
# large-|gamma| blocks whole (or every candidate).
@settings(max_examples=40, deadline=None, derandomize=True)
@given(loss=st.sampled_from(("square", "logistic", "hinge")),
       k=st.integers(50, 4000), d=st.integers(1, 5),
       distinct=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1),
       n_mags=st.integers(0, 41), shuffle=st.booleans(),
       target=st.sampled_from(("random", "same", "zero")),
       eta=st.sampled_from((0.01, 0.1, 0.5)),
       bound=st.sampled_from((None, 1e-4, 0.01, 0.1, 0.5, 1.0)))
@example(loss="logistic", k=4000, d=5, distinct=30, seed=1, n_mags=0,
         shuffle=False, target="random", eta=0.01, bound=0.01)
@example(loss="hinge", k=1600, d=3, distinct=4, seed=2, n_mags=0,
         shuffle=False, target="same", eta=0.1, bound=None)
def test_select_pool_equals_candidate_scan_with_ties(
        loss, k, d, distinct, seed, n_mags, shuffle, target, eta, bound):
    gen = np.random.default_rng(seed)
    rows = gen.integers(-2, 3, size=(distinct, d)).astype(float)
    labels = (gen.choice([-1.0, 0.0, 0.5, 1.0], size=distinct)
              if loss == "square" else gen.choice([-1.0, 1.0], size=distinct))
    pick = gen.integers(0, distinct, size=k)
    pool_x, pool_y = rows[pick], labels[pick]
    if n_mags == 0:
        grid = default_gamma_grid()
    else:  # magnitudes drawn with repeats
        mags = np.sort(gen.choice([0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0],
                                  size=n_mags))
        grid = np.concatenate([-mags[::-1], mags])
    if shuffle:
        grid = gen.permutation(grid)
    if bound is not None:
        bound *= float(np.max(np.abs(grid))) * float(
            np.sqrt(np.max(np.einsum("ij,ij->i", pool_x, pool_x))))
    mode = TeachingMode.rescalable_pool(pool_x, pool_y, gamma_grid=grid,
                                        norm_bound=bound)
    v = gen.integers(-1, 2, size=d).astype(float)
    v_star = {"random": gen.integers(-1, 2, size=d).astype(float),
              "same": v, "zero": np.zeros(d)}[target]
    expected = _scan_pool(v, v_star, mode, eta, loss)
    if expected is None:
        with pytest.raises(ValueError, match="norm bound"):
            select_pool(v, v_star, mode, eta, loss)
        return
    sel = select_pool(v, v_star, mode, eta, loss)
    assert (sel.index, sel.gamma) == expected
    np.testing.assert_array_equal(sel.x, expected[1] * pool_x[expected[0]])


def test_synthesis_square_loss_hits_closed_form():
    # free synthesis with square loss can zero the distance in one step:
    # x = gamma (v - v*) with eta gamma^2 ||v - v*||^2 = 1
    gen = np.random.default_rng(2)
    for trial in range(10):
        d = int(gen.integers(2, 9))
        v = gen.standard_normal(d)
        v_star = gen.standard_normal(d)
        eta = float(gen.uniform(1e-3, 0.5))
        dist = float(np.linalg.norm(v - v_star))
        gamma_opt = 1.0 / (np.sqrt(eta) * dist)
        mode = TeachingMode.synthesis(norm_bound=10.0 * gamma_opt * dist)
        sel = select_synthesis(v, v_star, mode, eta, "square")
        np.testing.assert_allclose(abs(sel.gamma), gamma_opt, rtol=1e-6)
        np.testing.assert_allclose(sel.objective, -dist * dist, rtol=1e-9)
        beta = loss_grad("square", float(v @ sel.x), sel.y)
        v_plus = v - eta * beta * sel.x
        np.testing.assert_allclose(v_plus, v_star, rtol=0,
                                   atol=1e-6 * (1 + dist))


def test_synthesis_respects_norm_bound():
    v = np.array([3.0, 0.0])
    v_star = np.zeros(2)
    mode = TeachingMode.synthesis(norm_bound=0.5)
    sel = select_synthesis(v, v_star, mode, 0.01, "square")
    assert np.linalg.norm(sel.x) <= 0.5 + 1e-9


def test_synthesis_done_when_target_reached():
    mode = TeachingMode.synthesis(norm_bound=1.0)
    v = np.array([1.0, 2.0])
    with pytest.raises(TeachingComplete):
        select_synthesis(v, v.copy(), mode, 0.1, "square")


def test_synthesis_terminates_near_convergence():
    # residual distance ~1e-12 makes gamma_max ~1e13; the line search
    # must still terminate (the bracket width floor is relative, an
    # absolute one stalls at ulp granularity) and return a finite pick
    v_star = np.array([0.7, -0.3, 1.1])
    v = v_star + 1e-12 * np.array([1.0, -1.0, 0.5])
    mode = TeachingMode.synthesis(norm_bound=50.0)
    sel = select_synthesis(v, v_star, mode, 0.01, "square")
    assert np.isfinite(sel.gamma) and np.isfinite(sel.objective)
    assert np.linalg.norm(sel.x) <= 50.0 + 1e-6


def _per_point_grid_best(v, v_star, u, norm_bound, eta, loss):
    """Best of the 2001-point gamma grid, each point scored on x = gamma u
    by omniscient_objective, and the largest rounding error of a score.

    beta = z - y cancels near convergence, so its error is taken relative
    to |z| + |y| rather than to beta itself.
    """
    g_max = norm_bound / float(np.linalg.norm(u))
    grid = np.linspace(-g_max, g_max, 2001)
    if loss == "square":
        labels = grid[:, None] * float(v_star @ u)
    else:
        labels = np.tile([-1.0, 1.0], (grid.size, 1))
    best = min(omniscient_objective(v, v_star, eta, loss, g * u, float(y))
               for g, row in zip(grid, labels) for y in row)
    x = grid[:, None] * u
    z = (x @ v)[:, None]
    xx = np.einsum("ij,ij->i", x, x)[:, None]
    dx = np.abs(x @ (v - v_star))[:, None]
    beta = np.abs(loss_grad(loss, z, labels))
    err = np.finfo(np.float64).eps * (
        (2.0 * eta * eta * beta * xx + 2.0 * eta * dx)
        * (np.abs(z) + np.abs(labels))
        + eta * eta * beta * beta * xx + 2.0 * eta * beta * dx)
    return best, float(np.max(err))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mode_kind=st.sampled_from(("synthesis", "combination")),
       loss=st.sampled_from(("square", "logistic", "hinge")),
       d=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       log_eta=st.floats(-4.0, 0.0), log_bound=st.floats(-1.0, 2.0),
       gap=st.sampled_from((1.0, 1e-3, 1e-11)))
# residual distance ~1e-12 makes g_max ~1e13: the golden-section width
# floor must be relative to the bracket, or the refinement never ends
@example(mode_kind="synthesis", loss="logistic", d=3, seed=0, log_eta=-2.0,
         log_bound=math.log10(50.0), gap=1e-12)
@example(mode_kind="synthesis", loss="square", d=3, seed=0, log_eta=-2.0,
         log_bound=math.log10(50.0), gap=1e-12)
def test_synthesis_search_never_worse_than_per_point_grid(
        mode_kind, loss, d, seed, log_eta, log_bound, gap):
    gen = np.random.default_rng(seed)
    eta, norm_bound = 10.0 ** log_eta, 10.0 ** log_bound
    v = gen.standard_normal(d)
    v_star = v + gap * gen.standard_normal(d)
    if mode_kind == "synthesis":
        mode = TeachingMode.synthesis(norm_bound)
        u = v - v_star
    else:
        mode = TeachingMode.combination(
            gen.standard_normal((d, int(gen.integers(1, d + 1)))), norm_bound)
        basis = mode.basis
        u = (v - v_star if basis is None
             else basis @ (basis.T @ (v - v_star)))
        assume(float(np.linalg.norm(u)) > 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # v, v* off the span is fine here
        sel = select_synthesis(v, v_star, mode, eta, loss)
    best, err = _per_point_grid_best(v, v_star, u, norm_bound, eta, loss)
    assert sel.objective <= best + 4.0 * err
    assert float(np.linalg.norm(sel.x)) <= norm_bound * (1.0 + 1e-12)
    if loss == "square":
        n = float(u @ u)
        expected = min(1.0 / math.sqrt(eta * n), norm_bound / math.sqrt(n))
        assert math.isclose(abs(sel.gamma), expected, rel_tol=1e-14)


def test_combination_projects_direction_into_span():
    gen = np.random.default_rng(3)
    d = 6
    cands = gen.standard_normal((d, 3))
    mode = TeachingMode.combination(cands, norm_bound=50.0)
    basis = mode.basis
    # build v, v* inside the span so the warning path stays quiet
    v = cands @ gen.standard_normal(3)
    v_star = cands @ gen.standard_normal(3)
    sel = select_synthesis(v, v_star, mode, 0.05, "square")
    # chosen example must lie in the candidate span
    np.testing.assert_allclose(basis @ (basis.T @ sel.x), sel.x,
                               rtol=0, atol=1e-8)
    # and with square loss the step still zeroes the in-span distance
    beta = loss_grad("square", float(v @ sel.x), sel.y)
    v_plus = v - 0.05 * beta * sel.x
    np.testing.assert_allclose(v_plus, v_star, rtol=0, atol=1e-5)


def test_combination_degenerate_direction_raises():
    cands = np.array([[1.0], [0.0]])  # span = e1 axis
    mode = TeachingMode.combination(cands, norm_bound=10.0)
    v = np.array([0.0, 3.0])
    v_star = np.array([0.0, -1.0])  # difference orthogonal to the span
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateDirectionError):
            select_synthesis(v, v_star, mode, 0.1, "square")


def test_combination_at_target_completes_instead_of_degenerating():
    # one square-loss step lands on the target to rounding; the next call
    # must report completion, not a direction outside the span.  The span
    # is rank-deficient (a full one takes the synthesis rule) and holds v*
    gen = np.random.default_rng(5)
    cands = gen.standard_normal((4, 2)) @ gen.standard_normal((2, 6))
    mode = TeachingMode.combination(cands, norm_bound=1e3)
    assert mode.basis.shape == (4, 2)
    v_star = cands @ gen.standard_normal(6)
    with pytest.raises(TeachingComplete):
        select_synthesis(v_star + 1e-14, v_star, mode, 0.1, "square")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(loss=st.sampled_from(("square", "logistic", "hinge")),
       d=st.integers(1, 10), extra=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1), log_eta=st.floats(-4.0, 0.0),
       log_bound=st.floats(-1.0, 2.0),
       gap=st.sampled_from((1.0, 1e-3, 1e-11)))
def test_full_rank_combination_is_synthesis_bit_for_bit(
        loss, d, extra, seed, log_eta, log_bound, gap):
    gen = np.random.default_rng(seed)
    eta, norm_bound = 10.0 ** log_eta, 10.0 ** log_bound
    combination = TeachingMode.combination(
        gen.standard_normal((d, d + extra)), norm_bound)
    assume(combination.basis is None)
    v = gen.standard_normal(d)
    v_star = v + gap * gen.standard_normal(d)
    got = select_example(v, v_star, combination, eta, loss)
    want = select_example(v, v_star, TeachingMode.synthesis(norm_bound),
                          eta, loss)
    assert got.x.tobytes() == want.x.tobytes()
    for field in ("y", "gamma", "objective"):
        assert (np.float64(getattr(got, field)).tobytes()
                == np.float64(getattr(want, field)).tobytes())


def test_every_ball_selection_reaches_select_synthesis(monkeypatch):
    # the benchmark tracer times the module global select_synthesis, so
    # synthesis and both kinds of combination step must call it
    calls = {"synthesis": 0, "pool": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        fn_name = f"select_{name}"
        monkeypatch.setattr(teachsim.teachers, fn_name,
                            counted(name, getattr(teachsim.teachers, fn_name)))
    gen = np.random.default_rng(16)
    d = 5
    low_rank = gen.standard_normal((d, 2)) @ gen.standard_normal((2, 9))
    modes = (TeachingMode.synthesis(10.0),
             TeachingMode.combination(gen.standard_normal((d, 9)), 10.0),
             TeachingMode.combination(low_rank, 10.0))
    assert modes[1].basis is None and modes[2].basis.shape == (d, 2)
    for i, mode in enumerate(modes, start=1):
        # v* and the student inside the span keep the warnings quiet
        v_star = low_rank @ gen.standard_normal(9)
        rem = _pool_remote(low_rank @ gen.standard_normal(9))
        teacher = OmniscientTeacher(v_star, mode, eta=0.05, loss="square")
        assert teacher.step(rem) is not None
        assert calls == {"synthesis": i, "pool": 0}


def _one_candidate_step(gamma, eta, fmap, spectral,
                        teacher=OmniscientTeacher):
    """(teacher, its first step) on a one-candidate hinge pool whose only
    grid value is gamma.  The candidate, labelled -1, is too short to
    reach the margin, so beta = 1 and gamma * beta = gamma exactly."""
    d = fmap.d
    gen = np.random.default_rng(9)
    x = np.zeros((1, d))
    x[0, 0] = 1e-9
    mode = TeachingMode.rescalable_pool(x, np.array([-1.0]),
                                        gamma_grid=[gamma])
    teacher = teacher(gen.standard_normal(d), mode, eta, "hinge",
                      spectral=spectral)
    rem = RemoteLearner(LearnerState(w=gen.standard_normal(d), eta=eta,
                                     loss="hinge", feedback="identity"), fmap)
    return teacher, teacher.step(rem)


def test_et_condition_window():
    fmap = random_map(5, "general", 0)
    stats = spectral_stats(fmap)
    eta = 0.01
    upper = 2.0 * stats.sigma_min / (eta * stats.sigma_max ** 2)
    for gamma, held in ((0.5 * upper, True), (1.1 * upper, False),
                        # wrong sign of gamma * beta falls outside
                        (-0.1, False)):
        teacher, sel = _one_candidate_step(gamma, eta, fmap, stats)
        assert teacher.et_upper == upper
        assert (sel.gamma, sel.beta, sel.et_held) == (gamma, 1.0, held)


@pytest.mark.parametrize("kind", [OmniscientTeacher, ActiveTeacher,
                                  LazyTeacher])
def test_the_et_window_is_taken_once_per_teacher(kind):
    fmap = random_map(4, "general", 1)
    stats = spectral_stats(fmap)
    teacher, sel = _one_candidate_step(0.5, 0.01, fmap, stats, kind)
    assert teacher.et_upper == 2.0 * stats.sigma_min / (
        0.01 * stats.sigma_max ** 2)
    assert (sel.beta, sel.et_held) == (1.0, 0.5 < teacher.et_upper)
    # without a spectrum there is no window and no verdict
    teacher, sel = _one_candidate_step(0.5, 0.01, fmap, None, kind)
    assert teacher.et_upper is None
    assert (sel.beta, sel.et_held) == (1.0, None)
    # eta = 0 leaves the window unbounded above
    teacher, sel = _one_candidate_step(0.5, 0.0, fmap, stats, kind)
    assert teacher.et_upper == math.inf
    assert (sel.beta, sel.et_held) == (1.0, True)


def test_default_gamma_grid_shape():
    grid = default_gamma_grid()
    assert len(grid) == 82
    assert np.all(np.isfinite(grid))
    np.testing.assert_allclose(sorted(abs(g) for g in grid)[0], 1e-2)
    np.testing.assert_allclose(max(abs(g) for g in grid), 1e2)
    assert sum(1 for g in grid if g < 0) == 41


def test_plain_pool_mode_fixes_gamma_at_one():
    pool_x = np.array([[1.0, 0.0]])
    mode = TeachingMode.pool(pool_x, np.array([1.0]))
    np.testing.assert_array_equal(np.asarray(mode.gamma_grid), [1.0])


def test_mode_validation():
    with pytest.raises(ValueError, match="norm_bound"):
        TeachingMode.synthesis(norm_bound=-1.0)
    with pytest.raises(ValueError):
        TeachingMode.pool(np.ones((3, 2)), np.ones(4))  # length mismatch
    for bound in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="norm_bound must be > 0"):
            TeachingMode.pool(np.ones((3, 2)), np.ones(3), norm_bound=bound)
        with pytest.raises(ValueError, match="norm_bound must be > 0"):
            TeachingMode.rescalable_pool(np.ones((3, 2)), np.ones(3),
                                         norm_bound=bound)
    for bound in (None, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="norm_bound must be > 0"):
            TeachingMode.synthesis(bound)
        with pytest.raises(ValueError, match="norm_bound must be > 0"):
            TeachingMode.combination(np.eye(2), bound)
    assert TeachingMode.pool(np.ones((3, 2)), np.ones(3),
                             norm_bound=2).norm_bound == 2.0


def test_select_pool_error_names_the_cause():
    # a NaN eta makes every objective NaN: with no bound set, or with one
    # every candidate meets, the error must not blame the norm bound
    pool_x = np.array([[1.0, 0.0], [0.0, 2.0]])
    pool_y = np.array([1.0, -1.0])
    v, v_star = np.array([1.0, 1.0]), np.zeros(2)
    for bound in (None, 1e3):
        mode = TeachingMode.rescalable_pool(pool_x, pool_y, norm_bound=bound)
        with pytest.raises(ValueError, match="finite objective") as info:
            select_pool(v, v_star, mode, float("nan"), "logistic")
        assert "norm bound" not in str(info.value)
    mode = TeachingMode.rescalable_pool(pool_x, pool_y, norm_bound=1e-3)
    with pytest.raises(ValueError, match="satisfies the norm bound"):
        select_pool(v, v_star, mode, 0.1, "logistic")


def test_random_select_uniform_over_pool():
    gen = np.random.default_rng(4)
    pool_x = np.eye(3)
    pool_y = np.array([1.0, -1.0, 1.0])
    mode = TeachingMode.pool(pool_x, pool_y)
    counts = np.zeros(3)
    for _ in range(600):
        sel = random_select(mode, gen)
        counts[sel.index] += 1
        assert sel.gamma == 1.0
        assert sel.y == pool_y[sel.index]
    assert counts.min() > 120  # roughly uniform


def _pool_remote(w, eta=0.05, loss="square", feedback="identity", d=None):
    d = len(w) if d is None else d
    fmap = random_map(d, "identity", 0)
    st = LearnerState(w=np.asarray(w, dtype=np.float64), eta=eta,
                      loss=loss, feedback=feedback)
    return RemoteLearner(st, fmap)


def test_omniscient_teacher_steps_and_stops():
    gen = np.random.default_rng(6)
    d = 4
    pool_x = gen.standard_normal((40, d))
    pool_y = gen.standard_normal(40)
    mode = TeachingMode.rescalable_pool(pool_x, pool_y)
    v_star = gen.standard_normal(d)
    rem = _pool_remote(gen.standard_normal(d))
    teacher = OmniscientTeacher(v_star, mode, eta=0.05, loss="square",
                                stop_tol=1e-3)
    dists = [np.linalg.norm(rem.state.w - v_star)]
    for _ in range(500):
        sel = teacher.step(rem)
        if sel is None:
            break
        dists.append(np.linalg.norm(rem.state.w - v_star))
    assert dists[-1] <= 1e-3  # reached the stop ball
    assert rem.teaching_samples == len(dists) - 1
    assert rem.white_box_reads == len(dists)  # one read per step attempt
    # strictly decreasing distances for this pool
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_random_teacher_is_seeded_and_counts():
    gen = np.random.default_rng(7)
    pool_x = gen.standard_normal((10, 3))
    pool_y = gen.standard_normal(10)
    mode = TeachingMode.pool(pool_x, pool_y)
    rem1 = _pool_remote(np.ones(3), eta=0.01)
    rem2 = _pool_remote(np.ones(3), eta=0.01)
    t1, t2 = RandomTeacher(mode, seed=5), RandomTeacher(mode, seed=5)
    for _ in range(20):
        s1, s2 = t1.step(rem1), t2.step(rem2)
        assert s1.index == s2.index
    np.testing.assert_array_equal(rem1.state.w, rem2.state.w)
    assert rem1.teaching_samples == 20
    assert rem1.white_box_reads == 0


def test_active_teacher_unitary_map_exams_once():
    gen = np.random.default_rng(8)
    d = 5
    fmap = random_map(d, "unitary", 1)
    pool_x = gen.standard_normal((30, d))
    pool_y = gen.standard_normal(30)
    mode = TeachingMode.rescalable_pool(pool_x, pool_y)
    v_star = gen.standard_normal(d)
    st = LearnerState(w=gen.standard_normal(d), eta=0.02, loss="square",
                      feedback="identity")
    rem = RemoteLearner(st, fmap)
    teacher = ActiveTeacher(v_star, mode, eta=0.02, loss="square",
                            spectral=spectral_stats(fmap))
    for _ in range(30):
        teacher.step(rem)
    assert rem.query_samples == d  # one background exam only
    assert rem.white_box_reads == 0
    # virtual learner tracks the true conjugate image without drift
    true_v = fmap.matrix.T @ rem.state.w
    np.testing.assert_allclose(teacher.virtual, true_v, rtol=0,
                               atol=1e-10)


def test_active_teacher_keeps_the_exam_its_estimate_started_from():
    # steps move the read-only estimate but not the last exam, whose
    # bound holds for the estimate it returned, not the propagated one
    gen = np.random.default_rng(9)
    d = 5
    fmap = random_map(d, "general", 2)
    mode = TeachingMode.rescalable_pool(gen.standard_normal((30, d)),
                                        gen.standard_normal(30))
    rem = RemoteLearner(LearnerState(w=gen.standard_normal(d), eta=0.02,
                                     loss="square", feedback="identity"),
                        fmap)
    teacher = LazyTeacher(gen.standard_normal(d), mode, eta=0.02,
                          loss="square")
    teacher.prime(rem)
    exam = teacher.last_exam
    assert teacher.virtual is exam.v_hat
    for _ in range(5):
        teacher.step(rem)
        assert teacher.last_exam is exam
        assert not teacher.virtual.flags.writeable
    assert not np.array_equal(teacher.virtual, exam.v_hat)


def test_active_teacher_general_map_reexamines_each_step():
    gen = np.random.default_rng(9)
    d = 4
    fmap = random_map(d, "general", 3)
    stats = spectral_stats(fmap)
    pool_x = gen.standard_normal((20, d))
    pool_y = gen.standard_normal(20)
    mode = TeachingMode.rescalable_pool(pool_x, pool_y)
    st = LearnerState(w=gen.standard_normal(d), eta=0.01 / stats.sigma_max,
                      loss="square", feedback="identity")
    rem = RemoteLearner(st, fmap)
    teacher = ActiveTeacher(gen.standard_normal(d), mode,
                            eta=st.eta, loss="square", spectral=stats)
    n = 7
    for _ in range(n):
        teacher.step(rem)
    assert rem.query_samples == n * d  # exam before every step


def test_active_teacher_prime_pays_exam_without_teaching():
    gen = np.random.default_rng(10)
    d = 3
    fmap = random_map(d, "unitary", 0)
    pool_x = gen.standard_normal((10, d))
    mode = TeachingMode.rescalable_pool(pool_x, gen.standard_normal(10))
    st = LearnerState(w=gen.standard_normal(d), eta=0.02, loss="square",
                      feedback="identity")
    rem = RemoteLearner(st, fmap)
    teacher = ActiveTeacher(gen.standard_normal(d), mode, eta=0.02,
                            loss="square")
    teacher.prime(rem)
    assert rem.query_samples == d and rem.teaching_samples == 0
    teacher.step(rem)
    assert rem.query_samples == d  # primed exam reused, not repeated
    assert rem.teaching_samples == 1


def test_lazy_teacher_never_reexamines():
    gen = np.random.default_rng(11)
    d = 4
    fmap = random_map(d, "general", 5)  # even for a non-unitary map
    stats = spectral_stats(fmap)
    pool_x = gen.standard_normal((20, d))
    mode = TeachingMode.rescalable_pool(pool_x, gen.standard_normal(20))
    st = LearnerState(w=gen.standard_normal(d),
                      eta=0.001 / stats.sigma_max, loss="square",
                      feedback="identity")
    rem = RemoteLearner(st, fmap)
    teacher = LazyTeacher(np.zeros(d), mode, eta=st.eta, loss="square",
                          spectral=stats)
    for _ in range(12):
        teacher.step(rem)
    assert rem.query_samples == d


def test_auto_exam_period_stays_auto_and_follows_the_map():
    gen = np.random.default_rng(13)
    d = 4
    for kind, queries_per_step in (("general", d), ("unitary", 0)):
        fmap = random_map(d, kind, 2)
        stats = spectral_stats(fmap)
        mode = TeachingMode.rescalable_pool(gen.standard_normal((20, d)),
                                            gen.standard_normal(20))
        st = LearnerState(w=gen.standard_normal(d),
                          eta=0.01 / stats.sigma_max, loss="square",
                          feedback="identity")
        rem = RemoteLearner(st, fmap)
        teacher = ActiveTeacher(gen.standard_normal(d), mode, eta=st.eta,
                                loss="square", exam_period="auto")
        for n in range(1, 6):
            assert teacher.step(rem) is not None
            assert teacher.exam_period == "auto"
            assert rem.query_samples == d + (n - 1) * queries_per_step


@pytest.mark.parametrize("period", [0, -1, 1.0, 2.5, True, np.int64(2), "1",
                                    "never"])
def test_an_exam_period_is_none_auto_or_a_positive_integer(period):
    mode = TeachingMode.synthesis(1.0)
    with pytest.raises(ValueError, match="exam_period"):
        ActiveTeacher(np.zeros(3), mode, 0.1, "square", exam_period=period)
    for good in (None, "auto", 1, 3):
        ActiveTeacher(np.zeros(3), mode, 0.1, "square", exam_period=good)


def test_a_run_with_exam_period_zero_stops_before_teaching():
    # this once divided by the period on the second step
    config = ExperimentConfig(
        dataset=DatasetSpec(task="classification", d=4, n=20, seed=1),
        teacher="active", map_kind="general", exam_period=0, iterations=3)
    with pytest.raises(ValueError, match="exam_period must be None"):
        run_experiment(config)


class _ProtocolView:
    """A student handle that carries the teaching protocol and nothing
    else: any other attribute, such as state or observe_parameters,
    fails the test."""
    _PROTOCOL = frozenset(("query", "teach", "dim", "loss", "feedback",
                           "unitary_map", "disclosed_norm"))

    def __init__(self, remote):
        self._remote = remote

    def __getattr__(self, name):
        if name not in self._PROTOCOL:
            raise AssertionError(f"teacher read remote.{name}")
        return getattr(self._remote, name)


class _WhiteBoxView(_ProtocolView):
    """The protocol plus the one counted white-box read."""
    _PROTOCOL = _ProtocolView._PROTOCOL | {"observe_parameters"}


def test_black_box_teachers_use_only_the_protocol(monkeypatch):
    # a forgetting student on every feedback channel, and an active
    # teacher that re-examines at every step: on the sign channel each
    # re-exam is warm, anchored at its own propagated estimate; an exact
    # channel over a general map ("auto" is period 1 there) asks a cold
    # exam each time, and its small step keeps the predictions inside
    # the sigmoid's invertible range
    warm, lasts, results = [], [], []
    exam = teachsim.teachers.construct_virtual_learner

    def recording_exam(remote, config, prior=None, last=None, target=None):
        # warm: the exam anchored its chart at the teacher's estimate
        # (an exact exam records no chart)
        result = exam(remote, config, prior=prior, last=last, target=target)
        warm.append(prior is not None and len(result.alpha_history) > 0
                    and np.array_equal(result.alpha_history[0],
                                       prior / np.linalg.norm(prior)))
        lasts.append(last)
        results.append(result)
        return result

    monkeypatch.setattr(teachsim.teachers, "construct_virtual_learner",
                        recording_exam)
    steps, d = 6, 8
    for feedback, loss, map_kind, eta, period in (
            ("sign", "logistic", "unitary", 0.5, 1),
            ("identity", "square", "general", 0.002, "auto"),
            ("sigmoid", "logistic", "general", 0.002, "auto"),
            ("hinge_value", "hinge", "general", 0.002, "auto")):
        gen = np.random.default_rng(15)
        fmap = random_map(d, map_kind, 4)
        mode = TeachingMode.rescalable_pool(gen.standard_normal((40, d)),
                                            gen.choice([-1.0, 1.0], size=40))
        v_star = gen.standard_normal(d)
        w0 = gen.standard_normal(d)
        sign = feedback == "sign"
        for teacher, expected in (
                (ActiveTeacher(v_star, mode, eta, loss, exam_period=period),
                 [False] + [sign] * (steps - 1)),
                (LazyTeacher(v_star, mode, eta, loss), [False])):
            remote = RemoteLearner(LearnerState(w=w0, eta=eta, loss=loss,
                                                feedback=feedback,
                                                sigma_forget=0.01, seed=3),
                                   fmap)
            warm.clear()
            lasts.clear()
            results.clear()
            for _ in range(steps):
                assert teacher.step(_ProtocolView(remote)) is not None
            assert warm == expected, feedback
            # each exam is handed the one before it
            assert lasts == [None] + results[:-1]
            assert remote.teaching_samples == steps
            assert remote.white_box_reads == 0


@pytest.mark.parametrize("feedback, loss, map_kind, eta, sigma", (
    ("sign", "hinge", "identity", 0.01, 0.01),
    ("identity", "square", "general", 0.002, 0.0)))
def test_the_teacher_relay_uses_only_the_protocol(monkeypatch, feedback,
                                                  loss, map_kind, eta,
                                                  sigma):
    # every prime and step of a relay of active teachers, the handoff
    # exams included, goes through the protocol view, and the trace is
    # the one the plain handle gives
    cfg = ExperimentConfig(
        dataset=DatasetSpec(task="classification", d=6, n=50, seed=3),
        map_kind=map_kind, map_seed=2, loss=loss, feedback=feedback,
        eta=eta, sigma_forget=sigma, noise_seed=4, exam_period=1,
        mode_kind="rescalable_pool", iterations=12, ridge=0.1, run_seed=5)
    plain = run_multi_teacher(cfg, 3, [3, 8])
    remotes, primes = set(), []
    step, prime = ActiveTeacher.step, ActiveTeacher.prime

    def viewed_step(teacher, remote):
        remotes.add(remote)
        return step(teacher, _ProtocolView(remote))

    def viewed_prime(teacher, remote):
        primes.append(teacher)
        return prime(teacher, _ProtocolView(remote))

    monkeypatch.setattr(ActiveTeacher, "step", viewed_step)
    monkeypatch.setattr(ActiveTeacher, "prime", viewed_prime)
    assert run_multi_teacher(cfg, 3, [3, 8]) == plain
    assert len(primes) == len(set(primes)) == 3
    (remote,) = remotes
    assert remote.white_box_reads == 0
    assert remote.teaching_samples == 12


@pytest.mark.parametrize("feedback, loss, map_kind, eta", (
    ("sign", "hinge", "general", 0.01),
    ("identity", "square", "unitary", 0.002)))
def test_the_omniscient_teacher_reads_only_its_counted_weights(
        monkeypatch, feedback, loss, map_kind, eta):
    # the white-box baseline sees the protocol plus observe_parameters,
    # which hands it G^T w: never the learner state or the map, and the
    # trace is the one the plain handle gives
    cfg = ExperimentConfig(
        dataset=DatasetSpec(task="classification", d=6, n=50, seed=3),
        map_kind=map_kind, map_seed=2, loss=loss, feedback=feedback,
        eta=eta, teacher="omniscient", mode_kind="rescalable_pool",
        iterations=12, stop_tol=0.0, ridge=0.1, run_seed=5)
    plain = run_experiment(cfg)
    remotes = []
    step = OmniscientTeacher.step

    def viewed_step(teacher, remote):
        remotes.append(remote)
        return step(teacher, _WhiteBoxView(remote))

    monkeypatch.setattr(OmniscientTeacher, "step", viewed_step)
    assert run_experiment(cfg) == plain
    assert len(remotes) == 12 and len(set(remotes)) == 1
    assert remotes[0].white_box_reads == 12
    assert remotes[0].query_samples == 0


@pytest.mark.parametrize("map_kind", ("identity", "general"))
def test_sign_reexams_keep_their_warm_start_radius(monkeypatch, map_kind):
    # the gallop radius of every re-exam, bit for bit: the innovation
    # ||v_hat - prior|| of the exam before it per chart coordinate,
    # floored at that exam's certified error, over its disclosed norm
    d, eta, loss, steps = 8, 0.1, "logistic", 32
    calls = []
    search = teachsim.exam.approx_recover_sign

    def recording_search(oracle, dim, norm, eps_est, prior=None,
                         radius=None):
        result = search(oracle, dim, norm, eps_est, prior=prior,
                        radius=radius)
        calls.append((norm, prior, radius, result))
        return result

    monkeypatch.setattr(teachsim.exam, "approx_recover_sign",
                        recording_search)
    gen = np.random.default_rng(21)
    mode = TeachingMode.rescalable_pool(gen.standard_normal((40, d)),
                                        gen.choice([-1.0, 1.0], size=40))
    teacher = ActiveTeacher(gen.standard_normal(d), mode, eta, loss,
                            exam_period=1)
    remote = RemoteLearner(LearnerState(w=gen.standard_normal(d), eta=eta,
                                        loss=loss, feedback="sign",
                                        sigma_forget=0.01, seed=7),
                           random_map(d, map_kind, 3))
    for _ in range(steps):
        assert teacher.step(remote) is not None
    assert len(calls) == steps == remote.norm_disclosures
    assert calls[0][1:3] == (None, None)
    for (norm, prior, _, result), (_, next_prior, radius, _) in zip(
            calls, calls[1:]):
        innovation = (0.0 if prior is None
                      else float(np.linalg.norm(result.v_hat - prior)))
        expected = max(innovation / math.sqrt(max(d - 1, 1)),
                       result.est_error()) / norm
        assert next_prior is not None
        assert radius == expected
        assert result.innovation == innovation


def test_sign_reexams_certify_a_fraction_of_the_estimated_distance(
        monkeypatch):
    # an active teacher of a forgetting sign student: the first exam has
    # no estimate and is cold at eps_est; every re-exam is asked for
    # max(eps_est, 0.05 ||prior - v*||) of the estimate it starts from,
    # bit for bit, and every exam certifies its target
    d, eta, loss, steps = 20, 0.01, "hinge", 30
    calls = []
    search = teachsim.exam.approx_recover_sign

    def recording_search(oracle, dim, norm, eps_est, prior=None,
                         radius=None):
        result = search(oracle, dim, norm, eps_est, prior=prior,
                        radius=radius)
        calls.append((prior, result))
        return result

    monkeypatch.setattr(teachsim.exam, "approx_recover_sign",
                        recording_search)
    gen = np.random.default_rng(26)
    v_star = gen.standard_normal(d)
    x = gen.standard_normal((60, d))
    mode = TeachingMode.rescalable_pool(x, np.where(x @ v_star >= 0, 1.0,
                                                    -1.0))
    teacher = ActiveTeacher(v_star, mode, eta, loss, exam_period=1)
    remote = RemoteLearner(LearnerState(w=gen.standard_normal(d), eta=eta,
                                        loss=loss, feedback="sign",
                                        sigma_forget=0.01, seed=7),
                           random_map(d, "identity", 0))
    for _ in range(steps):
        assert teacher.step(remote) is not None
    eps_est = teacher.recovery.eps_est
    assert len(calls) == steps
    assert calls[0][0] is None and calls[0][1].target == eps_est
    for prior, result in calls[1:]:
        assert result.target == max(
            eps_est, 0.05 * float(np.linalg.norm(prior - v_star)))
        assert result.target > eps_est
    assert all(result.est_error() <= result.target for _, result in calls)


def test_the_exam_target_moves_only_the_active_sign_trace(monkeypatch,
                                                          tmp_path):
    # with the fraction at 0 the forgetting scenario runs the eps_est
    # exams of a teacher that passes no target, trace for trace; at the
    # default fraction only the active trace moves: it spends fewer
    # queries and reaches half its start distance in as many samples
    cfg = ExperimentConfig(
        dataset=DatasetSpec(task="classification", d=20, n=100, seed=3),
        loss="hinge", feedback="sign", eta=0.01, teacher="active",
        stop_tol=0.0, mode_kind="rescalable_pool", ridge=0.1,
        iterations=100, w0_seed=3, noise_seed=3, run_seed=3)
    exam = teachsim.teachers.construct_virtual_learner

    def untargeted_exam(remote, config, prior=None, last=None, target=None):
        return exam(remote, config, prior=prior, last=last)

    def trace_bytes(name):
        traces = run_forgetting_scenario(cfg, 0.01)
        out = {}
        for kind, rows in traces.items():
            path = tmp_path / f"{name}_{kind}.csv"
            write_trace(path, rows)
            out[kind] = path.read_bytes()
        return traces["active"], out

    with monkeypatch.context() as patch:
        patch.setattr(teachsim.teachers, "construct_virtual_learner",
                      untargeted_exam)
        _, untargeted = trace_bytes("untargeted")
    with monkeypatch.context() as patch:
        patch.setattr(teachsim.teachers, "_EXAM_TARGET_FRACTION", 0.0)
        zero_active, zero = trace_bytes("zero")
    active, targeted = trace_bytes("targeted")
    assert zero == untargeted
    for kind in ("lazy", "omniscient", "random"):
        assert targeted[kind] == zero[kind]
    assert targeted["active"] != zero["active"]
    assert active[-1].query_samples < zero_active[-1].query_samples
    assert (samples_to_threshold(active, 0.5)
            == samples_to_threshold(zero_active, 0.5))


def test_one_dimensional_sign_teacher_reexams_with_a_zero_radius(
        monkeypatch):
    # at d = 1 the last exam certifies the direction exactly, so an
    # exam_period=1 teacher's re-exam passes its prior with radius 0.0;
    # the exam checks the radius only when a chart exists, and spends
    # one query
    eta, loss = 0.1, "logistic"
    mode = TeachingMode.rescalable_pool(np.array([[1.0], [-0.5]]),
                                        np.array([1.0, -1.0]))
    exams = []
    search = teachsim.exam.approx_recover_sign

    def recording_search(oracle, d, norm, eps_est, prior=None, radius=None):
        result = search(oracle, d, norm, eps_est, prior=prior, radius=radius)
        exams.append((prior is not None, radius, result.queries_used))
        return result

    monkeypatch.setattr(teachsim.exam, "approx_recover_sign",
                        recording_search)
    teacher = ActiveTeacher(np.array([3.0]), mode, eta, loss, exam_period=1)
    remote = RemoteLearner(LearnerState(w=np.array([-0.7]), eta=eta,
                                        loss=loss, feedback="sign"),
                           random_map(1, "identity", 0))
    for _ in range(5):
        assert teacher.step(remote) is not None
    assert exams == [(False, None, 1)] + [(True, 0.0, 1)] * 4
    assert remote.query_samples == 5


@pytest.mark.parametrize("kind", ("lazy", "omniscient"))
def test_a_repeated_estimate_reteaches_a_selection_equal_to_a_fresh_one(
        monkeypatch, kind):
    # on hinge loss both teachers stall: an example with beta = 0 at the
    # estimate leaves it as it was (the lazy teacher's open-loop estimate
    # under forgetting, the omniscient teacher's exact one on a still
    # student).  Every step still returns what a fresh selection plus ET
    # check at its estimate gives, and select_pool runs once per distinct
    # estimate.
    gen = np.random.default_rng(5)
    d, eta, loss, steps = 6, 0.01, "hinge", 60
    x = gen.standard_normal((40, d))
    v_star = gen.standard_normal(d)
    mode = TeachingMode.rescalable_pool(x, np.where(x @ v_star >= 0, 1.0,
                                                    -1.0))
    fmap = random_map(d, "identity", 0)
    stats = spectral_stats(fmap)
    sigma = 0.01 if kind == "lazy" else 0.0
    remote = RemoteLearner(LearnerState(w=gen.standard_normal(d), eta=eta,
                                        loss=loss, feedback="sign",
                                        sigma_forget=sigma, seed=3), fmap)
    teacher = (LazyTeacher if kind == "lazy" else OmniscientTeacher)(
        v_star, mode, eta, loss, spectral=stats)
    if kind == "lazy":
        teacher.prime(remote)
    calls = [0]
    pool = teachsim.teachers.select_pool

    def counted(*args):
        calls[0] += 1
        return pool(*args)

    monkeypatch.setattr(teachsim.teachers, "select_pool", counted)
    upper = 2.0 * stats.sigma_min / (eta * stats.sigma_max ** 2)
    estimates = set()
    for _ in range(steps):
        v = (teacher.virtual if kind == "lazy"
             else conjugate_apply(fmap, remote.state.w))
        estimates.add(v.tobytes())
        sel = teacher.step(remote)
        fresh = pool(v, v_star, mode, eta, loss)
        beta = loss_grad(loss, float(v @ fresh.x), fresh.y)
        held = 0.0 < fresh.gamma * beta < upper
        assert sel.x.tobytes() == fresh.x.tobytes()
        assert (sel.y, sel.gamma, sel.objective, sel.index, sel.beta,
                sel.et_held) == (fresh.y, fresh.gamma, fresh.objective,
                                 fresh.index, beta, held)
    assert remote.teaching_samples == steps
    assert calls[0] == len(estimates) < steps


def test_the_step_record_is_taken_at_the_teachers_estimate():
    gen = np.random.default_rng(14)
    d, eta, loss = 4, 0.05, "logistic"
    fmap = random_map(d, "general", 6)
    stats = spectral_stats(fmap)
    upper = 2.0 * stats.sigma_min / (eta * stats.sigma_max ** 2)
    mode = TeachingMode.rescalable_pool(
        gen.standard_normal((20, d)), gen.choice([-1.0, 1.0], size=20))
    v_star = gen.standard_normal(d)
    w0 = gen.standard_normal(d)
    omniscient = OmniscientTeacher(v_star, mode, eta, loss, spectral=stats)
    # one exam, then open-loop updates: on a general map the estimate
    # drifts away from the student's true image G^T w
    active = ActiveTeacher(v_star, mode, eta, loss, exam_period=None,
                           spectral=stats)
    for teacher in (omniscient, active):
        rem = RemoteLearner(LearnerState(w=w0, eta=eta, loss=loss,
                                         feedback="identity"), fmap)
        if teacher is active:
            teacher.prime(rem)
        for _ in range(6):
            v = (active.virtual if teacher is active
                 else conjugate_apply(fmap, rem.state.w))
            sel = teacher.step(rem)
            beta = loss_grad(loss, float(v @ sel.x), sel.y)
            assert sel.beta == beta
            assert sel.et_held == (0.0 < sel.gamma * beta < upper)
            if teacher is active:
                np.testing.assert_array_equal(active.virtual,
                                              v - eta * beta * sel.x)
    true_v = conjugate_apply(fmap, rem.state.w)
    assert float(np.linalg.norm(active.virtual - true_v)) > 1e-6
    plain = OmniscientTeacher(v_star, mode, eta, loss)
    sel = plain.step(rem)
    assert sel.et_held is None
    assert sel.beta == loss_grad(loss, float(true_v @ sel.x), sel.y)


def test_select_example_dispatch():
    gen = np.random.default_rng(12)
    v, v_star = gen.standard_normal(3), gen.standard_normal(3)
    pool = TeachingMode.pool(gen.standard_normal((5, 3)),
                             gen.standard_normal(5))
    assert select_example(v, v_star, pool, 0.1, "square").index is not None
    syn = TeachingMode.synthesis(norm_bound=100.0)
    assert select_example(v, v_star, syn, 0.1, "square").index is None
