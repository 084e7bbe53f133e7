import numpy as np
import pytest

from teachsim.exam import RemoteLearner
from teachsim.experiments import (DatasetSpec, ExperimentConfig,
                                  TrainingError, _Evaluator,
                                  _train_hinge, _train_logistic,
                                  gen_classification_data,
                                  gen_regression_data, ingest_tabular,
                                  run_experiment, run_forgetting_scenario,
                                  run_multi_teacher,
                                  train_optimal, write_tabular)
from teachsim.feature_space import conjugate_apply, random_map
from teachsim.learners import LearnerState, loss_value
from teachsim.traces import (TraceFormatError, TraceRow, exponential_fit,
                             read_trace, samples_to_threshold, write_trace)


def test_regression_data_shapes_and_exact_labels():
    spec = DatasetSpec(task="regression", d=6, n=40, seed=1)
    x, y, w_star = gen_regression_data(spec)
    assert x.shape == (40, 6) and y.shape == (40,) and w_star.shape == (6,)
    np.testing.assert_array_equal(y, x @ w_star)  # sigma 0: exact
    x2, y2, w2 = gen_regression_data(spec)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(w_star, w2)


def test_regression_noise_scales():
    spec = DatasetSpec(task="regression", d=4, n=2000, noise_sigma=0.5,
                       seed=2)
    x, y, w_star = gen_regression_data(spec)
    resid = y - x @ w_star
    np.testing.assert_allclose(np.std(resid), 0.5, rtol=0.1)


def test_classification_data_balanced_and_separated():
    spec = DatasetSpec(task="classification", d=5, n=200,
                       mean_separation=0.5, seed=3)
    x, y = gen_classification_data(spec)
    assert x.shape == (400, 5)
    assert np.sum(y == 1.0) == 200 and np.sum(y == -1.0) == 200
    mu_pos = x[y == 1.0].mean(axis=0)
    mu_neg = x[y == -1.0].mean(axis=0)
    np.testing.assert_allclose(mu_pos, 0.5 * np.ones(5), atol=0.25)
    np.testing.assert_allclose(mu_neg, -0.5 * np.ones(5), atol=0.25)


def test_task_mismatch_rejected():
    with pytest.raises(ValueError, match="regression"):
        gen_regression_data(DatasetSpec(task="classification"))
    with pytest.raises(ValueError, match="classification"):
        gen_classification_data(DatasetSpec(task="regression"))


def test_tabular_round_trip_is_bit_exact(tmp_path):
    gen = np.random.default_rng(4)
    x = gen.standard_normal((17, 3)) * 10.0 ** gen.integers(-8, 8, (17, 3))
    y = gen.standard_normal(17)
    path = tmp_path / "data.csv"
    write_tabular(path, x, y)
    x2, y2, names = ingest_tabular(path)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(y, y2)
    assert names == ["f0", "f1", "f2"]


def test_ingest_errors_name_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,1\n1.0,oops,1\n")
    with pytest.raises(TraceFormatError, match=r"row 3, column 'f1'"):
        ingest_tabular(path)
    path.write_text("f0,f1,label\n1.0,2.0\n")
    with pytest.raises(TraceFormatError, match="row 2 has 2 fields"):
        ingest_tabular(path)
    path.write_text("f0,f1,other\n1.0,2.0,3.0\n")
    with pytest.raises(TraceFormatError, match="no column named 'label'"):
        ingest_tabular(path)
    path.write_text("f0,label\nінf,1\n".replace("ін", "in"))
    with pytest.raises(TraceFormatError, match="non-finite"):
        ingest_tabular(path)
    path.write_text("")
    with pytest.raises(TraceFormatError, match="empty"):
        ingest_tabular(path)


def _train_objective(loss, x, y, ridge, v):
    from teachsim.learners import loss_value
    return float(np.mean(loss_value(loss, x @ v, y))
                 + 0.5 * ridge * v @ v)


@pytest.mark.parametrize("loss", ["square", "logistic", "hinge"])
def test_train_optimal_is_a_minimum(loss):
    gen = np.random.default_rng(8)
    spec = DatasetSpec(task="classification", d=8, n=120, seed=9)
    x, y = gen_classification_data(spec)
    ridge = 1e-3
    v = train_optimal(x, y, loss, ridge=ridge)
    f0 = _train_objective(loss, x, y, ridge, v)
    # no random perturbation may lower a convex objective at its argmin
    for _ in range(80):
        u = gen.standard_normal(8)
        u /= np.linalg.norm(u)
        for delta in (1e-4, 1e-2):
            assert _train_objective(loss, x, y, ridge, v + delta * u) \
                >= f0 - 1e-10


def test_train_square_matches_normal_equations():
    gen = np.random.default_rng(9)
    x = gen.standard_normal((60, 5))
    y = gen.standard_normal(60)
    ridge = 5e-5
    v = train_optimal(x, y, "square", ridge=ridge)
    n = 60
    oracle = np.linalg.solve(x.T @ x / n + ridge * np.eye(5), x.T @ y / n)
    np.testing.assert_allclose(v, oracle, rtol=1e-10)


def test_train_logistic_gradient_below_tolerance():
    spec = DatasetSpec(task="classification", d=6, n=150, seed=10)
    x, y = gen_classification_data(spec)
    ridge = 5e-5
    v = train_optimal(x, y, "logistic", ridge=ridge)
    s = 1.0 / (1.0 + np.exp(y * (x @ v)))
    grad = -(x.T @ (y * s)) / len(y) + ridge * v
    assert np.linalg.norm(grad) <= 1e-8


def test_training_error_reports_achieved_value():
    spec = DatasetSpec(task="classification", d=6, n=100, seed=11)
    x, y = gen_classification_data(spec)
    with pytest.raises(TrainingError, match="duality gap"):
        _train_hinge(x, y, ridge=5e-5, max_iter=1)
    with pytest.raises(TrainingError, match="gradient norm"):
        _train_logistic(x, y, ridge=5e-5, max_iter=1)


def test_train_optimal_validates_inputs():
    x, y = np.ones((4, 2)), np.ones(4)
    with pytest.raises(ValueError, match="ridge"):
        train_optimal(x, y, "square", ridge=0.0)
    with pytest.raises(ValueError, match="loss"):
        train_optimal(x, y, "absolute")


def _quick_config(**kw):
    spec = kw.pop("dataset", DatasetSpec(task="classification", d=6, n=50,
                                         seed=3))
    base = dict(dataset=spec, loss="square", feedback="identity", eta=0.01,
                teacher="omniscient", iterations=40, run_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_trace_structure():
    rows = run_experiment(_quick_config())
    assert rows[0].iteration == 0 and rows[0].teaching_samples == 0
    assert rows[-1].iteration == 40
    iters = [r.iteration for r in rows]
    assert iters == sorted(iters)
    teach = [r.teaching_samples for r in rows]
    assert all(b >= a for a, b in zip(teach, teach[1:]))
    assert all(0.0 <= r.test_accuracy <= 1.0 for r in rows)
    assert rows[-1].param_dist < rows[0].param_dist


def test_run_experiment_is_deterministic():
    a = run_experiment(_quick_config())
    b = run_experiment(_quick_config())
    assert a == b


def test_run_experiment_metrics_period_thins_rows():
    rows = run_experiment(_quick_config(metrics_period=10))
    assert [r.iteration for r in rows] == [0, 10, 20, 30, 40]


def test_run_experiment_stops_at_tolerance():
    # free synthesis with square loss zeroes the distance in one step
    rows = run_experiment(_quick_config(eta=0.05, iterations=5000,
                                        stop_tol=1e-4,
                                        mode_kind="synthesis",
                                        norm_bound=20.0))
    assert rows[-1].iteration < 5000
    assert rows[-1].param_dist <= 1e-4


@pytest.mark.parametrize("teacher", ["omniscient", "active"])
def test_full_rank_combination_runs_the_synthesis_trace(teacher):
    # the training rows span R^d, so combination teaching is synthesis:
    # same rows, bit for bit, on every loss/feedback pair and map kind
    for loss, feedback in (("square", "identity"), ("logistic", "sigmoid"),
                           ("hinge", "sign")):
        for map_kind in ("identity", "unitary", "general"):
            rows = [run_experiment(ExperimentConfig(
                dataset=DatasetSpec(d=8, n=60, seed=3), map_kind=map_kind,
                map_seed=4, loss=loss, feedback=feedback, eta=0.05,
                teacher=teacher, stop_tol=0.0, mode_kind=kind,
                norm_bound=5.0, iterations=25, run_seed=1))
                for kind in ("synthesis", "combination")]
            assert rows[0] == rows[1], (loss, feedback, map_kind)


def test_random_teacher_runs_its_whole_budget():
    # stopping is each teacher's own rule: the random baseline has none,
    # so the harness runs it to the end even inside the stop ball, while
    # the omniscient teacher stops there at once
    random_rows = run_experiment(_quick_config(teacher="random",
                                               stop_tol=1e6, iterations=25))
    assert random_rows[0].param_dist < 1e6
    assert random_rows[-1].iteration == 25
    assert random_rows[-1].teaching_samples == 25
    omniscient_rows = run_experiment(_quick_config(stop_tol=1e6))
    assert omniscient_rows[-1].iteration == 0


def test_run_experiment_regression_has_no_accuracy():
    spec = DatasetSpec(task="regression", d=5, n=60, seed=4)
    rows = run_experiment(_quick_config(dataset=spec))
    assert all(r.test_accuracy is None for r in rows)


def test_forgetting_scenario_shares_everything_but_choices():
    cfg = _quick_config(iterations=30)
    traces = run_forgetting_scenario(cfg, 0.0)
    assert sorted(traces) == ["active", "lazy", "omniscient", "random"]
    # all four start from the same student
    starts = {k: t[0].param_dist for k, t in traces.items()}
    assert len(set(starts.values())) == 1
    # silent forgetting: the lazy teacher's one exact exam makes it the
    # omniscient teacher in disguise, trace for trace
    lazy, omni = traces["lazy"], traces["omniscient"]
    assert [r.param_dist for r in lazy] == [r.param_dist for r in omni]


def test_forgetting_scenario_rejects_cross_space():
    cfg = _quick_config(map_kind="general")
    with pytest.raises(ValueError, match="shared-space"):
        run_forgetting_scenario(cfg, 0.1)
    with pytest.raises(ValueError, match="sigma_forget must be >= 0"):
        run_forgetting_scenario(_quick_config(), -0.1)


def test_forgetting_scenario_noise_hurts_open_loop_teachers():
    cfg = _quick_config(iterations=150, eta=0.02)
    traces = run_forgetting_scenario(cfg, 0.05)
    # drift accumulates for the examless random teacher; the active
    # teacher holds the line near the omniscient one
    assert traces["active"][-1].param_dist <= \
        0.8 * traces["random"][-1].param_dist
    np.testing.assert_allclose(traces["active"][-1].param_dist,
                               traces["omniscient"][-1].param_dist,
                               rtol=0.5)


def test_declined_steps_exam_lands_on_the_last_row():
    # the active teacher re-examines at iteration 14, finds itself within
    # stop_tol and declines; the trace must count that exam whether or
    # not the metrics period already wrote a row at iteration 13
    spec = DatasetSpec(task="regression", d=5, n=50, seed=105)
    ends = []
    for period in (1, 5):
        cfg = _quick_config(dataset=spec, eta=0.05, w0_seed=5, noise_seed=5,
                            mode_kind="rescalable_pool", stop_tol=1e-3,
                            metrics_period=period)
        rows = run_forgetting_scenario(cfg, 0.0)["active"]
        iters = [r.iteration for r in rows]
        assert iters == sorted(set(iters))
        ends.append((rows[-1].iteration, rows[-1].query_samples))
    assert ends[0] == ends[1] == (13, 70)


def test_multi_teacher_matches_single_when_alone():
    cfg = _quick_config(iterations=25)
    relay = run_multi_teacher(cfg, 1, [])
    single = run_experiment(_quick_config(iterations=25, teacher="active"))
    assert [r.param_dist for r in relay] == [r.param_dist for r in single]


def test_multi_teacher_switch_costs_an_exam():
    cfg = _quick_config(iterations=30)
    relay = run_multi_teacher(cfg, 2, [15])
    single = run_experiment(_quick_config(iterations=30, teacher="active"))
    assert relay[-1].query_samples == single[-1].query_samples + 6
    # the taught weights themselves are indistinguishable
    np.testing.assert_allclose(relay[-1].param_dist,
                               single[-1].param_dist, rtol=0, atol=1e-9)


def test_multi_teacher_validates_switch_points():
    cfg = _quick_config(iterations=30)
    with pytest.raises(ValueError, match="switch points"):
        run_multi_teacher(cfg, 3, [10])
    with pytest.raises(ValueError, match="strictly increasing"):
        run_multi_teacher(cfg, 3, [20, 10])
    with pytest.raises(ValueError, match="iteration budget"):
        run_multi_teacher(cfg, 2, [99])
    with pytest.raises(ValueError, match="n_teachers"):
        run_multi_teacher(cfg, 0, [])


def _fake_rows(rates):
    rows = []
    dist = 4.0
    samples = 0
    for t, r in enumerate(rates):
        rows.append(TraceRow(iteration=t, objective=dist, param_dist=dist,
                             test_accuracy=None, teaching_samples=samples,
                             query_samples=0))
        dist *= r
        samples += 1
    return rows


def test_exponential_fit_recovers_exact_rate():
    rows = _fake_rows([0.9] * 40)
    fit = exponential_fit(rows)
    np.testing.assert_allclose(fit.rate, 0.9, rtol=1e-12)
    assert fit.log_rmse <= 1e-12
    assert fit.n_points == 40


def test_exponential_fit_needs_enough_points():
    with pytest.raises(ValueError, match="at least 10"):
        exponential_fit(_fake_rows([0.9] * 5))


def test_exponential_fit_skips_floor_rows():
    rows = _fake_rows([0.9] * 30)
    floored = rows + [TraceRow(iteration=99, objective=0.0, param_dist=0.0,
                               test_accuracy=None, teaching_samples=99,
                               query_samples=0)]
    fit = exponential_fit(floored)
    assert fit.n_points == 30


def test_samples_to_threshold():
    rows = _fake_rows([0.5] * 12)
    # dist falls to 10% of 4.0 after 4 halvings -> samples index 4
    assert samples_to_threshold(rows) == 4
    assert samples_to_threshold(rows, fraction=1e-9) is None
    with pytest.raises(ValueError, match="empty"):
        samples_to_threshold([])


@pytest.mark.parametrize("loss", ["square", "logistic", "hinge"])
def test_the_objective_column_is_the_mean_training_loss(loss):
    # the evaluator checks the training labels once, when it is built;
    # every row's objective is still loss_value's mean, bit for bit
    gen = np.random.default_rng(21)
    x, y = gen_classification_data(
        DatasetSpec(task="classification", d=6, n=40, seed=4))
    fmap = random_map(6, "general", 3)
    evaluator = _Evaluator(gen.standard_normal(6), fmap, x, y, x[:10],
                           y[:10], loss, True)
    for t in range(4):
        state = LearnerState(w=gen.standard_normal(6), eta=0.1, loss=loss,
                             feedback="identity")
        row = evaluator.row(t, RemoteLearner(state, fmap))
        v_t = conjugate_apply(fmap, state.w)
        assert row.objective == float(np.mean(loss_value(loss, x @ v_t, y)))
    if loss != "square":
        with pytest.raises(ValueError, match="labels in"):
            _Evaluator(np.zeros(6), fmap, x, 0.5 * y, x[:10], y[:10], loss,
                       True)


def test_trace_round_trip_bit_exact(tmp_path):
    rows = run_experiment(_quick_config(iterations=7))
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    assert read_trace(path) == rows
    # second write produces identical bytes
    path2 = tmp_path / "trace2.csv"
    write_trace(path2, rows)
    assert path.read_bytes() == path2.read_bytes()


def test_trace_round_trip_preserves_missing_accuracy(tmp_path):
    spec = DatasetSpec(task="regression", d=4, n=30, seed=6)
    rows = run_experiment(_quick_config(dataset=spec, iterations=5))
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    back = read_trace(path)
    assert all(r.test_accuracy is None for r in back)
    assert back == rows


def test_read_trace_errors(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(TraceFormatError, match="header"):
        read_trace(path)
    path.write_text("iteration,objective,param_dist,test_accuracy,"
                    "teaching_samples,query_samples\n1,2.0\n")
    with pytest.raises(TraceFormatError, match="row 2 has 2 fields"):
        read_trace(path)
    path.write_text("iteration,objective,param_dist,test_accuracy,"
                    "teaching_samples,query_samples\nx,2.0,1.0,,0,0\n")
    with pytest.raises(TraceFormatError, match="row 2"):
        read_trace(path)
    path.write_text("")
    with pytest.raises(TraceFormatError, match="empty"):
        read_trace(path)
    path.write_text("iteration,objective,param_dist,test_accuracy,"
                    "teaching_samples,query_samples\n")
    with pytest.raises(TraceFormatError, match="no data rows"):
        read_trace(path)
