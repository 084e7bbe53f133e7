import concurrent.futures
import multiprocessing
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from teachsim import cli
from teachsim.cli import main
from teachsim.experiments import TrainingError, ingest_tabular, read_trace
from teachsim.traces import TraceRow, write_trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SMALL = """[dataset]
task = classification
d = 6
n = 40
seed = 2

[learner]
loss = square
feedback = identity
eta = 0.02

[run]
iterations = 30
seed = 4
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(_SMALL)
    return str(path)


def test_datagen_writes_csv(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "data.csv")
    assert main(["datagen", "--config", cfg_path, "--out", out]) == 0
    x, y, _ = ingest_tabular(out)
    assert x.shape == (80, 6)
    assert set(np.unique(y)) == {-1.0, 1.0}
    assert "wrote" in capsys.readouterr().out


def test_run_writes_trace_and_manifest(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    rows = read_trace(os.path.join(out, "trace.csv"))
    assert rows[0].iteration == 0 and rows[-1].iteration == 30
    assert os.path.exists(os.path.join(out, "manifest.ini"))
    assert "manifest" in capsys.readouterr().out


def test_manifest_rerun_is_byte_identical(cfg_path, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg_path, "--out", out1]) == 0
    assert main(["run", "--config", os.path.join(out1, "manifest.ini"),
                 "--out", out2]) == 0
    with open(os.path.join(out1, "trace.csv"), "rb") as fh:
        a = fh.read()
    with open(os.path.join(out2, "trace.csv"), "rb") as fh:
        b = fh.read()
    assert a == b


def test_run_teacher_override_lands_in_manifest(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out,
                 "--teacher", "random"]) == 0
    manifest = open(os.path.join(out, "manifest.ini")).read()
    assert "kind = random" in manifest


def test_run_forgetting_scenario_writes_four_traces(cfg_path, tmp_path,
                                                    capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out,
                 "--scenario", "forgetting", "--sigma-forget", "0.05"]) == 0
    for kind in ("random", "omniscient", "lazy", "active"):
        assert os.path.exists(os.path.join(out, f"trace_{kind}.csv"))


def test_seed_sweep_serial(cfg_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TEACHSIM_THREADS", "1")
    out = str(tmp_path / "sweep")
    assert main(["run", "--config", cfg_path, "--out", out,
                 "--seeds", "3..5"]) == 0
    for seed in (3, 4, 5):
        tr = os.path.join(out, f"seed_{seed}", "trace.csv")
        assert os.path.exists(tr)
    # different master seeds produce different trajectories
    a = read_trace(os.path.join(out, "seed_3", "trace.csv"))
    b = read_trace(os.path.join(out, "seed_4", "trace.csv"))
    assert a != b


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Worker counts of the pools the sweep starts, in order.

    The stand-in pool forks its workers, so they see the test's
    monkeypatches whatever the platform's default start method.
    """
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers,
                             mp_context=multiprocessing.get_context("fork"))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return sizes


def _sweep_outputs(out):
    """{relative path: bytes} of a sweep, manifests without `command =`."""
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.ini":
                data = b"".join(line for line in data.splitlines(True)
                                if not line.startswith(b"command ="))
            files[os.path.relpath(path, out)] = data
    return files


@pytest.mark.parametrize("scenario, seeds, workers", [
    pytest.param("standard", "1..2", 2, id="standard-1..2-w2"),
    # Five seeds on three processes: the parent runs masters 0 and 3.
    pytest.param("forgetting", "0..4", 3, id="forgetting-0..4-w3"),
])
def test_seed_sweep_parallel_matches_serial(scenario, seeds, workers,
                                            cfg_path, tmp_path, capsys,
                                            monkeypatch, pool_sizes):
    def sweep(threads):
        out = str(tmp_path / f"w{threads}")
        monkeypatch.setenv("TEACHSIM_THREADS", str(threads))
        assert main(["run", "--config", cfg_path, "--out", out,
                     "--scenario", scenario, "--seeds", seeds]) == 0
        lines = capsys.readouterr().out.replace(out, "OUT").splitlines()
        return lines, _sweep_outputs(out)

    serial_lines, serial_files = sweep(1)
    assert pool_sizes == []
    parallel_lines, parallel_files = sweep(workers)
    # The parent is worker 0: the pool holds the other W - 1.
    assert pool_sizes == [workers - 1]
    lo, hi = (int(s) for s in seeds.split(".."))
    assert [line.split(":")[0] for line in parallel_lines] == [
        f"seed {m}" for m in range(lo, hi + 1)]
    assert parallel_lines == serial_lines
    labels = (["trace"] if scenario == "standard" else
              [f"trace_{k}" for k in ("active", "lazy", "omniscient",
                                      "random")])
    assert sorted(parallel_files) == sorted(
        os.path.join(f"seed_{m}", name) for m in range(lo, hi + 1)
        for name in ["manifest.ini"] + [f"{k}.csv" for k in labels])
    assert parallel_files == serial_files


@pytest.mark.parametrize("bad", [0, 1], ids=["parent-shard", "worker-shard"])
def test_a_failing_seed_in_a_parallel_sweep_is_one_runtime_error(
        bad, cfg_path, tmp_path, capsys, monkeypatch, pool_sizes):
    # With two processes the parent runs masters 0 and 2, the worker 1
    # and 3.
    run_one_seed = cli._run_one_seed

    def run_or_fail(job):
        if job[2] == bad:
            raise TrainingError(f"master {bad} fails on purpose")
        return run_one_seed(job)

    monkeypatch.setattr(cli, "_run_one_seed", run_or_fail)
    monkeypatch.setenv("TEACHSIM_THREADS", "2")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                 "--seeds", "0..3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error[runtime]: master {bad} fails on purpose\n"
    assert captured.out == ""
    assert pool_sizes == [1]


def test_a_failing_worker_seed_stops_the_parents_share(
        cfg_path, tmp_path, capsys, monkeypatch, pool_sizes):
    # Masters 0, 2 and 4 are the parent's, 1, 3 and 5 the worker's.  The
    # parent's master 0 waits until master 1 has failed, so the sweep
    # must stop before the parent starts master 2.
    futures = {}
    started = []

    class FuturesPool(concurrent.futures.ProcessPoolExecutor):
        """The recording pool, keeping each seed's future by master."""

        def submit(self, fn, job):
            futures[job[2]] = super().submit(fn, job)
            return futures[job[2]]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        FuturesPool)
    parent = os.getpid()

    def stand_in(job):
        master = job[2]
        if os.getpid() == parent:
            started.append(master)
            if master == 0:
                concurrent.futures.wait([futures[1]], timeout=60)
                assert futures[1].exception() is not None
            return master, ["trace"]
        if master == 1:
            raise TrainingError("master 1 fails on purpose")
        return master, ["trace"]

    monkeypatch.setattr(cli, "_run_one_seed", stand_in)
    monkeypatch.setenv("TEACHSIM_THREADS", "2")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                 "--seeds", "0..5"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error[runtime]: master 1 fails on purpose\n"
    assert captured.out == ""
    assert started == [0]
    assert pool_sizes == [1]
    assert sorted(futures) == [1, 3, 5]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fails", [False, True], ids=["good", "failing"])
def test_a_parallel_sweep_leaves_no_process_running(fails, cfg_path,
                                                    tmp_path):
    cfg = cfg_path
    if fails:
        # synthesis without a norm bound fails in every seed
        cfg = str(tmp_path / "r.ini")
        with open(cfg, "w") as fh:
            fh.write(_SMALL + "\n[mode]\nkind = synthesis\n")
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "teachsim.cli", "run", "--config", cfg,
         "--out", str(tmp_path / "o"), "--seeds", "0..1"],
        env=dict(os.environ, PYTHONPATH=path, TEACHSIM_THREADS="2"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == (3 if fails else 0), err
        if fails:
            assert err.startswith("error[runtime]:")
            assert err.count("\n") == 1
        else:
            assert out.count("seed ") == 2
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_the_default_budget_counts_only_usable_cpus(monkeypatch):
    monkeypatch.delenv("TEACHSIM_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert cli._thread_budget(8) == 1


def test_plot_and_report(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["run", "--config", cfg_path, "--out", out])
    capsys.readouterr()
    trace = os.path.join(out, "trace.csv")
    svg = str(tmp_path / "chart.svg")
    assert main(["plot", trace, "--out", svg, "--log-y"]) == 0
    assert open(svg).read().startswith("<svg ")
    assert main(["report", trace]) == 0
    text = capsys.readouterr().out
    assert "param_dist" in text and "decay rate" in text


def test_exit_code_config_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.ini"),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:")
    assert "\n" not in err.strip()
    bad = tmp_path / "bad.ini"
    bad.write_text("[dataset]\nbogus = 1\n")
    assert main(["run", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    # these once loaded, then failed mid-run blaming the norm bound (or
    # ran on a NaN gamma); now they stop at load and name their key
    for text, key in (("[learner]\neta = nan\n", "learner.eta"),
                      ("[mode]\nnorm_bound = -1\n", "mode.norm_bound"),
                      ("[mode]\nnorm_bound = nan\n", "mode.norm_bound"),
                      ("[mode]\nkind = rescalable_pool\n"
                       "gamma_grid = nan,1.0\n", "mode.gamma_grid")):
        capsys.readouterr()
        bad.write_text(text)
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error[config]: {key}: ")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    pytest.param("[scenario]\nkind = multi-teacher\n",
                 "scenario.switch_points: expected 1 switch points for 2 "
                 "teachers, got 0", id="defaults"),
    pytest.param("[run]\niterations = 5\n\n[scenario]\n"
                 "kind = multi-teacher\nswitch_points = 9\n",
                 "scenario.switch_points: must lie within the iteration "
                 "budget 0..5, got [9]", id="past-the-budget"),
    pytest.param("[scenario]\nkind = multi-teacher\nn_teachers = 3\n"
                 "switch_points = 4,4\n",
                 "scenario.switch_points: must be strictly increasing, got "
                 "[4, 4]", id="not-increasing"),
])
def test_an_inconsistent_relay_is_a_config_error(text, message, tmp_path,
                                                  capsys):
    # these once loaded and failed at run time, exit 3
    cfg = tmp_path / "relay.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error[config]: {message}\n"
    assert not out.exists()


def test_exit_code_bad_seed_range(cfg_path, tmp_path, capsys):
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                 "--seeds", "5..1"]) == 2
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                 "--seeds", "abc"]) == 2
    assert "error[config]:" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["-1..0", "-3..-2", "0..-1"])
def test_negative_seed_range_endpoint_is_a_config_error(seeds, cfg_path,
                                                        tmp_path, capsys):
    # like --seed -1, which fails on run.seed before anything runs
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out),
                 f"--seeds={seeds}"]) == 2
    assert capsys.readouterr().err == (
        f"error[config]: --seeds endpoints must be >= 0, got {seeds!r}\n")
    assert not out.exists()


def test_exit_code_io_errors(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "x.svg")]) == 4
    assert capsys.readouterr().err.startswith("error[io]:")
    assert main(["report", str(tmp_path / "missing.csv")]) == 4


@pytest.mark.parametrize("command", ["report", "plot"])
def test_a_trace_with_a_header_and_no_rows_is_an_io_error(command, tmp_path,
                                                          capsys):
    # report once failed at rows[-1] with an IndexError traceback (exit 1)
    # and plot blamed the metric (exit 3)
    path = tmp_path / "trace.csv"
    write_trace(path, [])
    argv = [command, str(path)]
    if command == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[io]: {path}: no data rows\n"
    assert not (tmp_path / "x.svg").exists()


def test_exit_code_runtime_errors(tmp_path, capsys):
    # synthesis without a norm bound is a runtime (not parse) failure
    cfg = tmp_path / "r.ini"
    cfg.write_text(_SMALL + "\n[mode]\nkind = synthesis\n")
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[runtime]:")


@pytest.mark.parametrize("loss", ["hinge", "logistic"])
def test_empty_training_split_is_refused_before_training(tmp_path, capsys,
                                                         loss):
    # round(0.99 * 40) = 40: every row is held out.  This once trained on
    # zero rows and failed with a NaN duality gap or gradient norm.
    cfg = tmp_path / "r.ini"
    cfg.write_text(f"[dataset]\nd = 5\nn = 20\n\n[learner]\nloss = {loss}\n"
                   "\n[run]\ntest_fraction = 0.99\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "error[runtime]: run.test_fraction = 0.99 holds out 40 of 40 rows, "
        "leaving no training rows\n")


def test_datagen_from_source_round_trips(tmp_path, capsys):
    src = tmp_path / "src.csv"
    src.write_text("f0,f1,label\n0.5,1.5,1\n-0.5,-1.5,-1\n")
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[dataset]\nsource = src.csv\n")
    out = str(tmp_path / "copy.csv")
    assert main(["datagen", "--config", str(cfg), "--out", out]) == 0
    x, y, _ = ingest_tabular(out)
    np.testing.assert_array_equal(x, [[0.5, 1.5], [-0.5, -1.5]])
    np.testing.assert_array_equal(y, [1.0, -1.0])


def test_importing_the_cli_loads_no_process_pool():
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, teachsim.cli; "
         "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
         "if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=60, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("flag", ["--scenario", "--teacher"])
def test_unknown_scenario_or_teacher_override_is_a_config_error(
        flag, cfg_path, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out),
                 flag, "nope"]) == 2
    key = "scenario.kind" if flag == "--scenario" else "teacher.kind"
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {key}: got 'nope', expected one "
                          f"of (")
    assert not out.exists()


def _fresh_env():
    """Environment of a new interpreter that imports teachsim from ./src."""
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    return dict(os.environ, PYTHONPATH=path)


def _fresh_python(code, cwd):
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=_fresh_env(), capture_output=True, text=True,
                          timeout=60, check=True)


def _write_decaying_trace(path, iterations):
    rows = [TraceRow(iteration=t, objective=1.0, param_dist=0.9 ** i,
                     test_accuracy=None, teaching_samples=i, query_samples=0)
            for i, t in enumerate(iterations)]
    write_trace(str(path), rows)


def test_importing_the_package_or_the_cli_loads_no_numpy(tmp_path):
    proc = _fresh_python(
        "import sys, teachsim; a = 'numpy' in sys.modules; "
        "import teachsim.cli; print(a, 'numpy' in sys.modules)", tmp_path)
    assert proc.stdout == "False False\n"


@pytest.mark.parametrize("argv", [["report", "t.csv"],
                                  ["plot", "t.csv", "--out", "t.svg",
                                   "--log-y"],
                                  ["--version"], ["run", "--help"]])
def test_report_plot_help_and_version_run_without_numpy(argv, tmp_path):
    _write_decaying_trace(tmp_path / "t.csv", range(12))
    proc = _fresh_python(
        "import runpy, sys\n"
        f"sys.argv = ['teachsim'] + {argv!r}\n"
        "try:\n"
        "    runpy.run_module('teachsim.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print('exit', code, 'numpy', 'numpy' in sys.modules)\n", tmp_path)
    assert proc.stdout.splitlines()[-1] == "exit 0 numpy False"
    assert proc.stderr == ""


def test_looking_up_an_experiment_name_loads_no_config_or_cli(tmp_path):
    proc = _fresh_python(
        "import sys, teachsim; teachsim.ExperimentConfig; "
        "print(sorted(m for m in ('teachsim.config', 'teachsim.cli') "
        "if m in sys.modules), 'teachsim.experiments' in sys.modules)",
        tmp_path)
    assert proc.stdout == "[] True\n"


def test_report_on_a_trace_without_a_decay_span_prints_n_a(tmp_path):
    # every usable row at iteration 0: the fit has no slope to find
    _write_decaying_trace(tmp_path / "t.csv", [0] * 11)
    proc = subprocess.run(
        [sys.executable, "-m", "teachsim.cli", "report", "t.csv"],
        cwd=tmp_path, env=_fresh_env(), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0
    assert "decay rate per iteration n/a" in proc.stdout
    assert proc.stderr == ""
