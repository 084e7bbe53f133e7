"""Pool selection against a reference copy of its full sweep.

``reference_select_pool`` is select_pool as it stood before the search
scanned candidates best-first and stopped at a certified floor: every
(gamma, candidate) pair scored, in blocks of gamma rows.  It is kept
verbatim, apart from its name, so the equivalence test below pins the
pruned search to it bit for bit: the same pick, the same gamma, the same
objective, the same example.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teachsim import teachers
from teachsim.learners import _check_labels, _loss_grad_kernel
from teachsim.teachers import (SelectedExample, TeachingMode,
                               default_gamma_grid, omniscient_objective,
                               select_pool)

_POOL_BLOCK_ELEMENTS = 12288


def reference_select_pool(v, v_star, mode, eta, loss):
    """Exact argmin of the one-step objective over pool x gamma grid.

    Candidates whose rescaled norm violates the mode's norm bound are
    skipped.  Ties break toward the lowest pool index, then the smallest
    |gamma|, then the earlier grid row.

    The grid is swept in blocks of consecutive gamma rows of at most
    ``_POOL_BLOCK_ELEMENTS`` objective values (one row when the pool alone
    is larger).  A whole (grid, pool) sweep builds about fifteen
    temporaries of grid x k doubles; at the default 82-point grid and
    k = 1600 each is 1 MB, a size the allocator maps fresh from the kernel
    on every call, so every page of every temporary page-faults.  Blocks
    of ~100 KB are reused from the heap instead.  Each candidate's value
    goes through the same elementwise operations in the same order either
    way, so blocking changes no bit of any objective.
    """
    if mode.tag not in ("pool", "rescalable_pool"):
        raise ValueError(f"select_pool needs a pool mode, got {mode.tag!r}")
    v = np.asarray(v, dtype=np.float64)
    v_star = np.asarray(v_star, dtype=np.float64)
    x_pool, y_pool = mode.pool_x, mode.pool_y
    # the pool labels are checked here once, not once per block
    _check_labels(loss, y_pool)
    base_z = x_pool @ v
    base_diff = x_pool @ (v - v_star)
    norms_sq = mode.pool_norms_sq
    grid = mode.gamma_grid
    norms = np.sqrt(norms_sq)
    step = max(1, _POOL_BLOCK_ELEMENTS // len(y_pool))
    # per grid row: value and pool index of its first minimum
    row_val = np.empty(len(grid))
    row_idx = np.empty(len(grid), dtype=np.intp)
    for start in range(0, len(grid), step):
        g_col = grid[start:start + step, None]
        beta = _loss_grad_kernel(loss, g_col * base_z, y_pool)
        obj = (eta * eta * beta * beta * (g_col * g_col) * norms_sq
               - 2.0 * eta * beta * g_col * base_diff)
        if mode.norm_bound is not None:
            obj = np.where(np.abs(g_col) * norms <= mode.norm_bound,
                           obj, np.inf)
        idx = np.argmin(obj, axis=1)
        row_idx[start:start + step] = idx
        row_val[start:start + step] = obj[np.arange(len(idx)), idx]
    # a row whose argmin is not finite (every candidate masked, or a NaN,
    # which argmin returns first) is skipped; lexsort is stable, so a full
    # tie on (value, index, |gamma|) keeps the earliest row
    rows = np.flatnonzero(np.isfinite(row_val))
    if rows.size == 0:
        raise ValueError(
            "no pool candidate satisfies the norm bound; nothing to teach")
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


def _outcome(select, v, v_star, mode, eta, loss):
    """(index, gamma bits, objective bits, y, x bytes), or None on error.

    The messages of the two versions differ on purpose (the pruned one
    no longer blames the norm bound for non-finite objectives), so only
    the fact of the error is compared.
    """
    with np.errstate(all="ignore"):
        try:
            sel = select(v, v_star, mode, eta, loss)
        except ValueError:
            return None
    return (sel.index, np.float64(sel.gamma).tobytes(),
            np.float64(sel.objective).tobytes(), sel.y, sel.x.tobytes())


def _pool(gen, kind, k, d, loss):
    if kind == "gaussian":
        x = gen.standard_normal((k, d))
    elif kind == "duplicates":  # few distinct small-integer rows
        rows = gen.integers(-2, 3, size=(int(gen.integers(1, 20)), d))
        x = rows[gen.integers(0, len(rows), size=k)].astype(float)
    elif kind == "zeros":  # a tenth of the rows and one run exactly zero
        x = gen.standard_normal((k, d))
        x[gen.random(k) < 0.1] = 0.0
        start = int(gen.integers(k))
        x[start:start + k // 5] = 0.0
    else:  # row norms over 230 orders of magnitude
        x = gen.standard_normal((k, d)) * gen.choice(
            [1e-170, 1e-3, 1.0, 1e5, 1e60], size=(k, 1))
    y = (gen.standard_normal(k) if loss == "square"
         else gen.choice([-1.0, 1.0], size=k))
    return x, y


# Real-valued pools up to k = 4000 make pruning fire; duplicate and zero
# rows and v = v* make values tie; v* = 2.5 v puts every candidate's
# useful step against the sign of its prediction, where the loss caps the
# step and the floor is tightest, and v* = 2.5 v on some coordinates
# mixes such candidates with others; a bound that is a small fraction of
# the largest |gamma| ||x|| masks whole blocks of the grid, or every
# candidate; a NaN gamma makes a whole row NaN; v scaled to 1e160 makes
# the square loss overflow, and eta <= 0 breaks the floors' premise:
# there the guard must fall back to the full sweep.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(loss=st.sampled_from(("square", "logistic", "hinge")),
       k=st.sampled_from((1600, 4000)) | st.integers(1, 4000),
       d=st.integers(1, 50),
       kind=st.sampled_from(("gaussian", "duplicates", "zeros", "scales")),
       grid_kind=st.sampled_from(("default", "default", "random", "plain",
                                  "nan")),
       target=st.sampled_from(("random", "random", "same", "zero",
                               "beyond", "partial")),
       v_scale=st.sampled_from((1.0, 1.0, 1e-3, 30.0, 1e160)),
       eta=st.sampled_from((1e-4, 0.01, 0.5, 0.0, -0.01)),
       bound=st.sampled_from((None, 1e-6, 0.01, 0.3, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(loss="logistic", k=1600, d=50, kind="gaussian", grid_kind="default",
         target="random", v_scale=1.0, eta=0.01, bound=None, seed=7)
@example(loss="square", k=4000, d=20, kind="gaussian", grid_kind="default",
         target="random", v_scale=1e160, eta=0.01, bound=None, seed=1)
@example(loss="hinge", k=4000, d=3, kind="duplicates", grid_kind="nan",
         target="random", v_scale=1.0, eta=0.1, bound=None, seed=2)
@example(loss="square", k=2000, d=5, kind="zeros", grid_kind="default",
         target="same", v_scale=1.0, eta=0.1, bound=0.3, seed=3)
@example(loss="square", k=3000, d=5, kind="zeros", grid_kind="default",
         target="random", v_scale=1e160, eta=0.1, bound=None, seed=6)
@example(loss="logistic", k=3000, d=10, kind="gaussian",
         grid_kind="random", target="random", v_scale=1.0, eta=0.01,
         bound=1e-6, seed=4)
@example(loss="hinge", k=2500, d=8, kind="scales", grid_kind="default",
         target="zero", v_scale=30.0, eta=0.5, bound=None, seed=5)
@example(loss="logistic", k=1600, d=20, kind="gaussian", grid_kind="default",
         target="beyond", v_scale=1.0, eta=0.5, bound=None, seed=8)
@example(loss="square", k=1600, d=20, kind="gaussian", grid_kind="default",
         target="beyond", v_scale=1.0, eta=0.01, bound=None, seed=9)
@example(loss="hinge", k=1600, d=20, kind="gaussian", grid_kind="default",
         target="beyond", v_scale=1.0, eta=0.5, bound=None, seed=10)
@example(loss="logistic", k=1600, d=20, kind="gaussian", grid_kind="default",
         target="random", v_scale=1.0, eta=-0.01, bound=None, seed=11)
@example(loss="square", k=1600, d=2, kind="gaussian", grid_kind="default",
         target="partial", v_scale=1.0, eta=0.5, bound=None, seed=16)
@example(loss="logistic", k=1600, d=2, kind="gaussian", grid_kind="default",
         target="beyond", v_scale=1.0, eta=0.01, bound=None, seed=2)
def test_select_pool_matches_reference_bit_for_bit(
        loss, k, d, kind, grid_kind, target, v_scale, eta, bound, seed):
    gen = np.random.default_rng(seed)
    x, y = _pool(gen, kind, k, d, loss)
    grid = {"default": default_gamma_grid(), "plain": np.ones(1),
            "random": gen.choice([-1.0, 1.0], size=12)
            * 10.0 ** gen.uniform(-3, 3, size=12),
            "nan": default_gamma_grid()}[grid_kind]
    if grid_kind == "nan":
        grid[int(gen.integers(len(grid)))] = np.nan
    if bound is not None:
        bound *= float(np.nanmax(np.abs(grid))) * float(
            np.sqrt(np.max(np.einsum("ij,ij->i", x, x))))
        bound = bound if bound > 0 else None
    mode = (TeachingMode.pool(x, y, norm_bound=bound) if grid_kind == "plain"
            else TeachingMode.rescalable_pool(x, y, gamma_grid=grid,
                                              norm_bound=bound))
    v = gen.standard_normal(d) * v_scale
    v_star = {"random": gen.standard_normal(d), "same": v,
              "zero": np.zeros(d), "beyond": 2.5 * v,
              "partial": np.where(gen.random(d) < 0.5, 2.5 * v,
                                  gen.standard_normal(d))}[target]
    assert (_outcome(select_pool, v, v_star, mode, eta, loss)
            == _outcome(reference_select_pool, v, v_star, mode, eta, loss))


def test_overflow_guard_turns_pruning_off():
    gen = np.random.default_rng(0)
    x = gen.standard_normal((400, 10))
    grid = default_gamma_grid()
    for scale, loss, pruned in ((1.0, "square", True),
                                (1e160, "square", False),
                                (1e160, "logistic", True)):
        v = gen.standard_normal(10) * scale
        y = gen.choice([-1.0, 1.0], size=400)
        slack = teachers._prune_slack(0.01, loss, grid, x @ v, x @ v,
                                      np.einsum("ij,ij->i", x, x), y)
        assert (slack is not None) == pruned
    v = gen.standard_normal(10)
    assert teachers._prune_slack(float("nan"), "square", grid, x @ v, x @ v,
                                 np.einsum("ij,ij->i", x, x), y) is None


def _count_kernel_values(monkeypatch):
    """Sizes of the prediction arrays select_pool hands the derivative."""
    seen = []

    def counting_kernel(loss, z, y):
        seen.append(np.size(z))
        return _loss_grad_kernel(loss, z, y)

    monkeypatch.setattr(teachers, "_loss_grad_kernel", counting_kernel)
    return seen


def test_pruning_scores_under_a_quarter_of_the_grid(monkeypatch):
    # d = 50, k = 1600 logistic, the shape of a pool teaching step: if the
    # floor test stopped firing, every one of grid x k values would reach
    # the loss derivative and this count would read 131,200
    gen = np.random.default_rng(11)
    d, k = 50, 1600
    labels = gen.choice([-1.0, 1.0], size=k)
    x = gen.standard_normal((k, d)) + 0.25 * labels[:, None]
    mode = TeachingMode.rescalable_pool(x, labels)
    v_star = 0.5 * np.ones(d) / np.sqrt(d)
    v = gen.standard_normal(d)
    seen = _count_kernel_values(monkeypatch)
    assert (_outcome(select_pool, v, v_star, mode, 0.01, "logistic")
            == _outcome(reference_select_pool, v, v_star, mode, 0.01,
                        "logistic"))
    assert 0 < sum(seen) < len(mode.gamma_grid) * k / 4


def test_plain_pool_is_one_block(monkeypatch):
    # a 1-point grid fits the whole pool in one block: no floors, one
    # call of the loss derivative over every candidate
    gen = np.random.default_rng(3)
    x = gen.standard_normal((1600, 20))
    mode = TeachingMode.pool(x, gen.choice([-1.0, 1.0], size=1600))
    seen = _count_kernel_values(monkeypatch)
    select_pool(gen.standard_normal(20), gen.standard_normal(20), mode, 0.01,
                "logistic")
    assert seen == [1600]
