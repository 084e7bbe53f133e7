import os
import warnings

import numpy as np
import pytest

from teachsim.cli import main
from teachsim.experiments import ingest_tabular, read_trace

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


def test_seed_sweep_parallel_matches_serial(cfg_path, tmp_path, capsys,
                                            monkeypatch):
    out_s, out_p = str(tmp_path / "s"), str(tmp_path / "p")
    monkeypatch.setenv("TEACHSIM_THREADS", "1")
    assert main(["run", "--config", cfg_path, "--out", out_s,
                 "--seeds", "1..2"]) == 0
    monkeypatch.setenv("TEACHSIM_THREADS", "2")
    assert main(["run", "--config", cfg_path, "--out", out_p,
                 "--seeds", "1..2"]) == 0
    for seed in (1, 2):
        with open(os.path.join(out_s, f"seed_{seed}", "trace.csv"),
                  "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_p, f"seed_{seed}", "trace.csv"),
                  "rb") as fh:
            b = fh.read()
        assert a == b


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


def test_exit_code_bad_seed_range(cfg_path, tmp_path, capsys):
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                 "--seeds", "5..1"]) == 2
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                 "--seeds", "abc"]) == 2
    assert "error[config]:" in capsys.readouterr().err


def test_exit_code_io_errors(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "x.svg")]) == 4
    assert capsys.readouterr().err.startswith("error[io]:")
    assert main(["report", str(tmp_path / "missing.csv")]) == 4


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
