"""Acceptance suite: one verdict line per shipped guarantee.

Every test prints ``[ k/12] <label>: PASS|FAIL (<margins>)`` before
asserting, so ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Wall-clock budgets are asserted where a guarantee includes
one; they are sized for a plain desktop CPU.
"""

import time

import numpy as np

import teachsim as ts
from teachsim.cli import main as cli_main
from teachsim.learners import loss_grad, loss_value
from teachsim.rng import substream
from teachsim.teachers import (
    TeachingMode,
    LazyTeacher,
    omniscient_objective,
    select_pool,
)


def _verdict(slot, label, ok, detail):
    mark = "PASS" if ok else "FAIL"
    print("[%2d/12] %-58s %s (%s)" % (slot, label, mark, detail))
    assert ok, f"{label}: {detail}"


def _sin_angle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, c) ** 2)))


def test_01_loss_gradients_match_central_differences():
    t0 = time.perf_counter()
    gen = np.random.default_rng(101)
    h = 1e-6
    worst = 0.0
    for loss in ("square", "logistic", "hinge"):
        done = 0
        while done < 100:
            z = float(gen.standard_normal())
            if loss == "square":
                y = float(gen.standard_normal())
            else:
                y = float(gen.choice([-1.0, 1.0]))
            if loss == "hinge" and abs(1.0 - y * z) < 1e-3:
                continue  # kink: derivative undefined
            fd = (loss_value(loss, z + h, y) - loss_value(loss, z - h, y))
            fd /= 2.0 * h
            g = loss_grad(loss, z, y)
            worst = max(worst, abs(fd - g) / max(abs(g), 1e-8))
            done += 1
    dt = time.perf_counter() - t0
    _verdict(1, "analytic feedback gradients match finite differences",
             worst <= 1e-5 and dt < 1.0,
             "max rel err %.1e, %.2fs" % (worst, dt))


def test_02_exam_reconstructs_hidden_weights_exactly():
    t0 = time.perf_counter()
    d = 50
    worst = 0.0
    pairs = (("identity", "square", d),
             ("sigmoid", "logistic", d),
             ("hinge_value", "hinge", 2 * d))
    for feedback, loss, expect_queries in pairs:
        for k in range(50):
            gen = substream(900, k)
            fmap = ts.random_map(d, "general", k)
            w = gen.standard_normal(d)
            v = ts.conjugate_apply(fmap, w)
            if feedback == "sigmoid":
                # keep predictions inside the invertible band
                w = w / float(np.linalg.norm(v))
                v = ts.conjugate_apply(fmap, w)
            st = ts.LearnerState(w=w, eta=1e-4, loss=loss, feedback=feedback)
            rem = ts.RemoteLearner(st, fmap)
            res = ts.construct_virtual_learner(
                rem, ts.RecoveryConfig(query_seed=k))
            worst = max(worst, float(np.linalg.norm(res.v_hat - v)))
            assert rem.query_samples == expect_queries, (
                feedback, rem.query_samples)
    dt = time.perf_counter() - t0
    _verdict(2, "exams rebuild the conjugate weights through general maps",
             worst <= 1e-8 and dt < 2.0,
             "max err %.1e, query counts exact, %.2fs" % (worst, dt))


def test_03_one_step_objective_equals_distance_change():
    gen = np.random.default_rng(303)
    worst = 0.0
    for trial in range(1000):
        d = int(gen.integers(2, 11))
        loss = ("square", "logistic", "hinge")[trial % 3]
        v = gen.standard_normal(d)
        v_star = gen.standard_normal(d)
        x = gen.standard_normal(d)
        y = (float(gen.standard_normal()) if loss == "square"
             else float(gen.choice([-1.0, 1.0])))
        eta = float(gen.uniform(1e-3, 0.3))
        beta = loss_grad(loss, float(v @ x), y)
        v_plus = v - eta * beta * x
        lhs = (float((v_plus - v_star) @ (v_plus - v_star))
               - float((v - v_star) @ (v - v_star)))
        rhs = omniscient_objective(v, v_star, eta, loss, x, y)
        worst = max(worst, abs(lhs - rhs))
    _verdict(3, "selection objective equals the squared-distance change",
             worst <= 1e-10, "max abs diff %.1e over 1000 tuples" % worst)


def test_04_active_teacher_matches_omniscient_under_unitary_maps():
    t0 = time.perf_counter()
    worst = 0.0
    setups = (("regression", "square", "identity", 1e-4, 0.1),
              ("classification", "logistic", "sigmoid", 0.05, 0.0))
    for seed in range(5):
        for task, loss, feedback, eta, noise in setups:
            base = dict(
                dataset=ts.DatasetSpec(task=task, d=16, n=150,
                                       noise_sigma=noise, seed=seed),
                loss=loss, feedback=feedback, eta=eta, map_kind="unitary",
                map_seed=seed, iterations=200, run_seed=seed, stop_tol=0.0,
                mode_kind="rescalable_pool")
            om = ts.run_experiment(
                ts.ExperimentConfig(teacher="omniscient", **base))
            ac = ts.run_experiment(
                ts.ExperimentConfig(teacher="active", **base))
            assert len(om) == len(ac) == 201
            gap = max(abs(a.param_dist - b.param_dist)
                      for a, b in zip(om, ac))
            worst = max(worst, gap)
    dt = time.perf_counter() - t0
    _verdict(4, "black-box teaching tracks the white-box trajectory",
             worst <= 1e-6 and dt < 5.0,
             "max per-iteration gap %.1e, %.2fs" % (worst, dt))


def test_05_targeted_teaching_converges_exponentially_and_beats_sgd():
    t0 = time.perf_counter()
    worst_rate = 0.0
    worst_rmse = 0.0
    ratio_hits = 0
    n_seeds = 10
    for seed in range(n_seeds):
        base = dict(
            dataset=ts.DatasetSpec(task="classification", d=50, n=1000,
                                   seed=seed),
            loss="square", feedback="identity", eta=0.01, iterations=300,
            run_seed=seed, stop_tol=3e-3, mode_kind="rescalable_pool")
        # stop above the pool's hard distance floor so the fitted regime
        # is the exponential phase, not the floor plateau
        counts = {}
        for teacher in ("omniscient", "active", "random"):
            cfg = ts.ExperimentConfig(teacher=teacher, **base)
            rows = ts.run_experiment(cfg)
            counts[teacher] = ts.samples_to_threshold(rows, fraction=0.1)
            if teacher != "random":
                fit = ts.exponential_fit(rows)
                worst_rate = max(worst_rate, fit.rate)
                worst_rmse = max(worst_rmse, fit.log_rmse)
        need = counts["omniscient"]
        got = counts["random"]
        assert need is not None
        if got is None or got >= 3 * need:
            ratio_hits += 1
    dt = time.perf_counter() - t0
    ok = (worst_rate <= 0.99 and worst_rmse < 0.1
          and ratio_hits >= 9 and dt < 30.0)
    _verdict(5, "guided runs decay exponentially; plain SGD needs >= 3x",
             ok, "rate max %.3f, rmse max %.3f, ratio hit %d/%d, %.1fs"
             % (worst_rate, worst_rmse, ratio_hits, n_seeds, dt))


def test_06_single_exam_tracking_error_is_never_amplified():
    t0 = time.perf_counter()
    worst = -np.inf
    eps_worst = 0.0
    d = 50
    for seed in range(10):
        gen = substream(seed, 0x30)
        fmap = ts.random_map(d, "unitary", seed)
        pool_x = gen.standard_normal((200, d))
        pool_y = np.where(gen.standard_normal(200) >= 0, 1.0, -1.0)
        mode = TeachingMode.pool(pool_x, pool_y)
        st = ts.LearnerState(w=gen.standard_normal(d), eta=1e-4,
                             loss="square", feedback="identity")
        rem = ts.RemoteLearner(st, fmap)
        v_star = gen.standard_normal(d)
        teacher = LazyTeacher(v_star, mode, eta=1e-4, loss="square")
        teacher.prime(rem)
        eps0 = teacher.last_exam.est_error()
        eps_worst = max(eps_worst, eps0)
        assert eps0 <= 1e-8
        for _ in range(500):
            teacher.step(rem)
            drift = float(np.linalg.norm(
                ts.conjugate_apply(fmap, rem.state.w) - teacher.virtual))
            worst = max(worst, drift - eps0)
    dt = time.perf_counter() - t0
    _verdict(6, "one exam then open-loop tracking stays within its residual",
             worst <= 1e-9,
             "max drift-eps0 %.1e, eps0 max %.1e, %.2fs"
             % (worst, eps_worst, dt))


def test_07_sign_feedback_search_contracts_at_certified_rate():
    t0 = time.perf_counter()
    worst_excess = -np.inf
    worst_final = 0.0
    for d in (2, 10, 50):
        for k in range(20):
            gen = substream(1000 + d, k)
            fmap = ts.random_map(d, "unitary", k)
            w = gen.standard_normal(d)
            v = ts.conjugate_apply(fmap, w)
            st = ts.LearnerState(w=w, eta=1e-4, loss="logistic",
                                 feedback="sign")
            rem = ts.RemoteLearner(st, fmap)
            cfg = ts.RecoveryConfig(eps_est=1e-3,
                                    known_norm=float(np.linalg.norm(v)),
                                    query_seed=k)
            res = ts.construct_virtual_learner(rem, cfg)
            sines = [_sin_angle(a, v) for a in res.alpha_history]
            for i, s in enumerate(sines):
                worst_excess = max(worst_excess,
                                   s - (0.8 ** i * sines[0] + 1e-12))
            worst_final = max(worst_final,
                              float(np.linalg.norm(res.v_hat - v)))
    dt = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and worst_final <= 1e-3 and dt < 10.0
    _verdict(7, "sign-only exams contract the angle at the certified rate",
             ok, "excess %.1e, final err max %.1e, %.2fs"
             % (worst_excess, worst_final, dt))


def test_08_sign_feedback_teaching_sample_efficiency():
    t0 = time.perf_counter()
    never = 1e9
    vals = {t: [] for t in ("omniscient", "active", "random")}
    for seed in range(10):
        base = dict(
            dataset=ts.DatasetSpec(task="classification", d=10, n=200,
                                   seed=seed),
            loss="logistic", feedback="sign", eta=0.5, map_kind="unitary",
            map_seed=seed, iterations=120, run_seed=seed, stop_tol=0.0,
            ridge=0.01, mode_kind="rescalable_pool",
            recovery=ts.RecoveryConfig(eps_est=1e-3, query_seed=seed),
            exam_period=1)
        for teacher in vals:
            rows = ts.run_experiment(
                ts.ExperimentConfig(teacher=teacher, **base))
            n = ts.samples_to_threshold(rows, fraction=0.1)
            vals[teacher].append(float(n) if n is not None else never)
    med = {t: float(np.median(xs)) for t, xs in vals.items()}
    dt = time.perf_counter() - t0
    ok = (med["active"] <= 1.5 * med["omniscient"]
          and med["active"] <= med["random"] / 3.0)
    _verdict(8, "teaching through sign exams stays sample-efficient",
             ok, "medians omni %g / active %g / random %s, %.1fs"
             % (med["omniscient"], med["active"],
                "never" if med["random"] >= never else "%g" % med["random"],
                dt))


def test_09_learning_rate_estimated_from_minimal_interactions():
    worst = 0.0
    d = 24
    true_eta = 1e-4
    for seed in range(5):
        for loss, feedback in (("square", "identity"),
                               ("logistic", "sigmoid")):
            gen = substream(2000, seed)
            fmap = ts.random_map(d, "unitary", seed)
            w = gen.standard_normal(d)
            w /= float(np.linalg.norm(w))
            st = ts.LearnerState(w=w, eta=true_eta, loss=loss,
                                 feedback=feedback)
            rem = ts.RemoteLearner(st, fmap)
            est = ts.estimate_learning_rate(rem, seed=seed)
            worst = max(worst, abs(est - true_eta) / true_eta)
            assert rem.query_samples + rem.teaching_samples == 2 * d + 1
    _verdict(9, "hidden step size recovered from 2m+1 interactions",
             worst <= 1e-6, "max rel err %.1e" % worst)


def test_10_reexamining_teacher_rides_out_forgetting_noise():
    t0 = time.perf_counter()
    base = dict(loss="square", feedback="identity", eta=0.02,
                iterations=400, stop_tol=0.0)

    # noise off: the one-exam teacher is indistinguishable from white-box
    worst_quiet = 0.0
    for seed in range(3):
        cfg = ts.ExperimentConfig(
            dataset=ts.DatasetSpec(task="classification", d=8, n=100,
                                   seed=seed),
            run_seed=seed, **base)
        traces = ts.run_forgetting_scenario(cfg, 0.0)
        worst_quiet = max(worst_quiet, max(
            abs(a.param_dist - b.param_dist)
            for a, b in zip(traces["lazy"], traces["omniscient"])))

    # noise on: only the re-examining teacher keeps tracking the drift
    ratios = []
    for seed in range(10):
        cfg = ts.ExperimentConfig(
            dataset=ts.DatasetSpec(task="classification", d=8, n=100,
                                   seed=seed),
            run_seed=seed, **base)
        traces = ts.run_forgetting_scenario(cfg, 0.1)

        def plateau(rows):
            tail = [r.param_dist for r in rows[3 * len(rows) // 4:]]
            return float(np.median(tail))

        ratios.append(plateau(traces["active"]) / plateau(traces["lazy"]))
    med = float(np.median(ratios))
    dt = time.perf_counter() - t0
    ok = worst_quiet <= 1e-9 and med <= 0.2 and dt < 30.0
    _verdict(10, "re-exams beat open-loop tracking under forgetting noise",
             ok, "quiet gap %.1e, plateau ratio median %.3f, %.1fs"
             % (worst_quiet, med, dt))


def test_11_pool_selection_matches_exhaustive_search():
    gen = np.random.default_rng(1111)
    grid = np.concatenate([-np.logspace(-2.0, 2.0, 20),
                           np.logspace(-2.0, 2.0, 21)])
    assert grid.size == 41
    checked = 0
    for trial in range(20):
        d = int(gen.integers(2, 12))
        n = int(gen.integers(50, 1001))
        loss = ("square", "logistic", "hinge")[trial % 3]
        pool_x = gen.standard_normal((n, d))
        pool_y = (gen.standard_normal(n) if loss == "square"
                  else gen.choice([-1.0, 1.0], size=n))
        bound = float(gen.uniform(1.0, 8.0)) if trial % 4 == 0 else None
        mode = TeachingMode.rescalable_pool(pool_x, pool_y,
                                            gamma_grid=grid,
                                            norm_bound=bound)
        v = gen.standard_normal(d)
        v_star = gen.standard_normal(d)
        eta = float(gen.uniform(1e-3, 0.3))

        best = None
        for gamma in grid:
            for i in range(n):
                x = gamma * pool_x[i]
                if bound is not None and float(x @ x) > bound * bound:
                    continue
                obj = omniscient_objective(v, v_star, eta, loss, x,
                                           float(pool_y[i]))
                key = (obj, i, abs(float(gamma)))
                if best is None or key < best[0]:
                    best = (key, i, float(gamma))
        sel = select_pool(v, v_star, mode, eta, loss)
        assert sel.index == best[1] and sel.gamma == best[2], trial
        np.testing.assert_array_equal(sel.x, best[2] * pool_x[best[1]])
        checked += 1
    _verdict(11, "pool selection equals exhaustive pool x gamma search",
             checked == 20, "%d/20 configurations exact" % checked)


def test_12_manifest_reruns_are_byte_identical_and_scale_runs_fit(tmp_path):
    configs = {
        "pool": ("[run]\nseed = 123\niterations = 150\n"
                 "[dataset]\ntask = classification\nd = 20\nn = 300\n"
                 "[learner]\neta = 0.01\n"
                 "[teacher]\nkind = active\nstop_tol = 0\n"
                 "[mode]\nkind = rescalable_pool\n"
                 "[map]\nkind = unitary\n"),
        # sign feedback under forgetting: the active teacher's re-exams
        # are warm, anchored at its own estimate
        "sign": ("[run]\nseed = 5\niterations = 30\n"
                 "[dataset]\ntask = classification\nd = 6\nn = 80\n"
                 "[learner]\nloss = hinge\nfeedback = sign\neta = 0.01\n"
                 "[teacher]\nstop_tol = 0\n"
                 "[mode]\nkind = rescalable_pool\n"
                 "[scenario]\nkind = forgetting\nsigma_forget = 0.01\n"),
    }
    names, identical = [], True
    for label, text in configs.items():
        cfg_path = tmp_path / f"{label}.ini"
        cfg_path.write_text(text)
        out1 = tmp_path / label / "first"
        out2 = tmp_path / label / "second"
        assert cli_main(["run", "--config", str(cfg_path),
                         "--out", str(out1)]) == 0
        assert cli_main(["run", "--config", str(out1 / "manifest.ini"),
                         "--out", str(out2)]) == 0
        run_names = sorted(p.name for p in out1.glob("*.csv"))
        assert run_names and run_names == sorted(
            p.name for p in out2.glob("*.csv"))
        identical = identical and all(
            (out1 / n).read_bytes() == (out2 / n).read_bytes()
            for n in run_names)
        names += run_names

    cfg = ts.ExperimentConfig(
        dataset=ts.DatasetSpec(task="classification", d=50, n=1000, seed=7),
        loss="square", feedback="identity", eta=1e-4, iterations=1000,
        run_seed=7, stop_tol=0.0)
    t0 = time.perf_counter()
    traces = ts.run_forgetting_scenario(cfg, 0.1)
    dt = time.perf_counter() - t0
    ok = identical and len(traces) == 4 and dt < 10.0
    _verdict(12, "manifest reruns are byte-identical; full scale fits budget",
             ok, "%d trace file(s) identical, 4-teacher run %.1fs"
             % (len(names), dt))
