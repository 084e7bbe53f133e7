import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsim.cli import main
from teachsim.config import (_SCHEMA, ConfigError, ScenarioSpec,
                             apply_master_seed, config_to_dict, load_config,
                             write_manifest)
from teachsim.exam import (RecoveryConfig, RemoteLearner,
                           construct_virtual_learner)
from teachsim.experiments import DatasetSpec, ExperimentConfig
from teachsim.feature_space import random_map, spectral_stats
from teachsim.learners import LearnerState
from teachsim.rng import KEY_DATA, derive_seed


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_config_gets_defaults_and_derived_seeds(tmp_path):
    cfg, scenario = load_config(_write(tmp_path, ""))
    assert cfg.dataset.task == "classification"
    assert cfg.loss == "square" and cfg.teacher == "omniscient"
    assert cfg.run_seed == 0
    assert cfg.dataset.seed == derive_seed(0, KEY_DATA)
    assert cfg.eta == 1e-4  # shared space default
    assert scenario == ScenarioSpec()


def test_explicit_seeds_win_over_derivation(tmp_path):
    text = "[dataset]\nseed = 123\n\n[run]\nseed = 7\n"
    cfg, _ = load_config(_write(tmp_path, text))
    assert cfg.dataset.seed == 123
    assert cfg.w0_seed == derive_seed(7, 0x05)  # still derived


def test_master_seed_changes_derived_components(tmp_path):
    a, _ = load_config(_write(tmp_path, "[run]\nseed = 1\n"))
    b, _ = load_config(_write(tmp_path, "[run]\nseed = 2\n"))
    assert a.dataset.seed != b.dataset.seed
    assert a.map_seed != b.map_seed
    assert a.w0_seed != b.w0_seed


def test_eta_auto_cross_space_uses_spectrum(tmp_path):
    text = "[dataset]\nd = 8\n\n[map]\nkind = general\nseed = 4\n"
    cfg, _ = load_config(_write(tmp_path, text))
    stats = spectral_stats(random_map(8, "general", 4))
    np.testing.assert_allclose(cfg.eta, 0.01 / stats.sigma_max ** 2,
                               rtol=1e-12)


def test_eta_explicit_respected(tmp_path):
    cfg, _ = load_config(_write(tmp_path, "[learner]\neta = 0.25\n"))
    assert cfg.eta == 0.25


def test_unknown_section_and_key_are_named(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
        load_config(_write(tmp_path, "[extra]\nx = 1\n"))
    with pytest.raises(ConfigError, match="unknown key dataset.rows"):
        load_config(_write(tmp_path, "[dataset]\nrows = 5\n"))


def test_type_errors_name_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match="dataset.d"):
        load_config(_write(tmp_path, "[dataset]\nd = many\n"))
    with pytest.raises(ConfigError, match="recovery.standard_queries"):
        load_config(_write(tmp_path,
                           "[recovery]\nstandard_queries = maybe\n"))
    with pytest.raises(ConfigError, match="learner.loss"):
        load_config(_write(tmp_path, "[learner]\nloss = absolute\n"))
    with pytest.raises(ConfigError, match="run.test_fraction"):
        load_config(_write(tmp_path, "[run]\ntest_fraction = lots\n"))
    with pytest.raises(ConfigError, match="mode.gamma_grid"):
        load_config(_write(tmp_path, "[mode]\ngamma_grid =\n"))
    with pytest.raises(ConfigError, match="scenario.switch_points"):
        load_config(_write(tmp_path, "[scenario]\nswitch_points = 1,x\n"))
    with pytest.raises(ConfigError, match="teacher.exam_period"):
        load_config(_write(tmp_path, "[teacher]\nexam_period = never\n"))
    with pytest.raises(ConfigError, match="mode.norm_bound"):
        load_config(_write(tmp_path, "[mode]\nnorm_bound = big\n"))
    for section, key in (("run", "seed"), ("dataset", "seed"),
                         ("map", "seed"), ("learner", "noise_seed"),
                         ("learner", "w0_seed"), ("recovery", "query_seed")):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_config(_write(tmp_path, f"[{section}]\n{key} = -1\n"))


def test_domain_validation_surfaces_as_config_error(tmp_path):
    with pytest.raises(ConfigError, match="test_fraction"):
        load_config(_write(tmp_path, "[run]\ntest_fraction = 1.5\n"))
    with pytest.raises(ConfigError, match="eta"):
        load_config(_write(tmp_path, "[learner]\neta = -0.1\n"))
    with pytest.raises(ConfigError, match="exam_period"):
        load_config(_write(tmp_path, "[teacher]\nexam_period = 0\n"))
    for text, key in (("[scenario]\nsigma_forget = -0.5\n",
                       "scenario.sigma_forget: must be >= 0"),
                      ("[learner]\nsigma_forget = -0.5\n",
                       "learner.sigma_forget: must be >= 0"),
                      ("[scenario]\nn_teachers = 0\n",
                       "scenario.n_teachers: must be >= 1"),
                      ("[teacher]\nlam = -0.5\n",
                       "teacher.lam: must be >= 0"),
                      ("[scenario]\nkind = multi-teacher\n"
                       "n_teachers = 2\nswitch_points = -1\n",
                       "scenario.switch_points: must be >= 0"),
                      ("[learner]\neta = nan\n",
                       "learner.eta: expected a finite number"),
                      ("[learner]\neta = inf\n",
                       "learner.eta: expected a finite number"),
                      ("[mode]\nnorm_bound = -1\n",
                       "mode.norm_bound: must be > 0"),
                      ("[mode]\nnorm_bound = 0\n",
                       "mode.norm_bound: must be > 0"),
                      ("[mode]\nnorm_bound = nan\n",
                       "mode.norm_bound: expected a finite number"),
                      ("[mode]\ngamma_grid = nan,1.0\n",
                       "mode.gamma_grid: expected a finite number"),
                      ("[train]\nridge = -1\n",
                       "train.ridge: must be > 0")):
        with pytest.raises(ConfigError, match=key):
            load_config(_write(tmp_path, text))


def test_exam_period_forms(tmp_path):
    cfg, _ = load_config(_write(tmp_path, "[teacher]\nexam_period = none\n"))
    assert cfg.exam_period is None
    cfg, _ = load_config(_write(tmp_path, "[teacher]\nexam_period = 5\n"))
    assert cfg.exam_period == 5
    cfg, _ = load_config(_write(tmp_path, ""))
    assert cfg.exam_period == "auto"


def test_gamma_grid_and_norm_bound_forms(tmp_path):
    text = "[mode]\nkind = rescalable_pool\ngamma_grid = -1.0,1.0,2.5\n" \
           "norm_bound = 4.0\n"
    cfg, _ = load_config(_write(tmp_path, text))
    assert cfg.gamma_grid == (-1.0, 1.0, 2.5)
    assert cfg.norm_bound == 4.0
    cfg, _ = load_config(_write(tmp_path, ""))
    assert cfg.gamma_grid is None and cfg.norm_bound is None


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.ini")


def test_scenario_section(tmp_path):
    text = ("[scenario]\nkind = multi-teacher\nn_teachers = 3\n"
            "switch_points = 10,20\n")
    _, scenario = load_config(_write(tmp_path, text))
    assert scenario.kind == "multi-teacher"
    assert scenario.n_teachers == 3
    assert scenario.switch_points == (10, 20)
    with pytest.raises(ConfigError, match="scenario.kind"):
        load_config(_write(tmp_path, "[scenario]\nkind = relay\n"))


def test_source_path_resolves_relative_to_config(tmp_path):
    sub = tmp_path / "inner"
    sub.mkdir()
    (sub / "data.csv").write_text("f0,label\n1.0,1\n")
    path = _write(sub, "[dataset]\nsource = data.csv\n", name="c.ini")
    cfg, _ = load_config(path)
    assert cfg.source == str(sub / "data.csv")


def test_overrides_behave_like_file_lines(tmp_path):
    path = _write(tmp_path, "[run]\nseed = 3\n")
    cfg, _ = load_config(path, overrides={("run", "seed"): "9",
                                          ("teacher", "kind"): "random"})
    assert cfg.run_seed == 9
    assert cfg.teacher == "random"
    assert cfg.dataset.seed == derive_seed(9, KEY_DATA)
    with pytest.raises(ConfigError, match="unknown override"):
        load_config(path, overrides={("run", "speed"): "9"})


def test_manifest_round_trip_reproduces_config(tmp_path):
    text = ("[dataset]\ntask = regression\nd = 9\nn = 120\n\n"
            "[map]\nkind = unitary\n\n[learner]\nloss = logistic\n"
            "feedback = sigmoid\neta = 0.003\n\n[teacher]\nkind = active\n"
            "exam_period = 4\n\n[mode]\nkind = rescalable_pool\n"
            "gamma_grid = 0.5,1.0\n\n[run]\nseed = 42\niterations = 77\n")
    cfg, scenario = load_config(_write(tmp_path, text))
    manifest = tmp_path / "manifest.ini"
    write_manifest(manifest, cfg, scenario, command="test",
                   artifacts={"trace": "trace.csv"})
    cfg2, scenario2 = load_config(str(manifest))
    assert cfg2 == cfg
    assert scenario2 == scenario
    # bookkeeping sections exist and were ignored
    content = manifest.read_text()
    assert "[manifest]" in content and "[artifacts]" in content


def test_config_to_dict_covers_full_schema(tmp_path):
    from teachsim.config import _SCHEMA
    cfg, scenario = load_config(_write(tmp_path, ""))
    resolved = config_to_dict(cfg, scenario)
    assert set(resolved) == set(_SCHEMA)
    for section, keys in _SCHEMA.items():
        assert set(resolved[section]) == set(keys)


def test_apply_master_seed_rederives_components(tmp_path):
    cfg, scenario = load_config(_write(tmp_path, ""))
    moved, _ = apply_master_seed(cfg, scenario, 99)
    assert moved.run_seed == 99
    assert moved.dataset.seed == derive_seed(99, KEY_DATA)
    assert moved.dataset.seed != cfg.dataset.seed
    assert moved.recovery.query_seed != cfg.recovery.query_seed
    # non-seed settings untouched
    assert moved.loss == cfg.loss and moved.iterations == cfg.iterations


def test_manifest_with_retired_keys_reruns_identically(tmp_path):
    text = ("[dataset]\nd = 5\nn = 30\n\n[map]\nkind = general\n\n"
            "[learner]\nloss = logistic\nfeedback = sigmoid\n\n"
            "[teacher]\nkind = active\n\n[mode]\nkind = rescalable_pool\n\n"
            "[run]\nseed = 11\niterations = 20\n")
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert main(["run", "--config", _write(tmp_path, text),
                 "--out", str(first)]) == 0
    manifest = (first / "manifest.ini").read_text()
    for retired in ("delta", "adaptive_eps", "max_rounds",
                    "contraction_rho"):
        assert retired not in manifest
    # Older manifests also carry recovery.delta, recovery.lam,
    # recovery.max_rounds, recovery.contraction_rho and
    # teacher.adaptive_eps.
    old_text = manifest.replace(
        "\nquery_seed = ", "\ndelta = 0.05\nlam = 0.1\nmax_rounds = 60\n"
        "contraction_rho = 0.8\nquery_seed = ")
    assert "contraction_rho = 0.8" in old_text
    old_text = old_text.replace("\nstop_tol = ",
                                "\nadaptive_eps = true\nstop_tol = ")
    assert "adaptive_eps = true" in old_text
    old = _write(tmp_path, old_text, name="old.ini")
    assert load_config(old) == load_config(str(first / "manifest.ini"))
    assert main(["run", "--config", old, "--out", str(rerun)]) == 0
    assert ((rerun / "trace.csv").read_bytes()
            == (first / "trace.csv").read_bytes())
    rerun_manifest = (rerun / "manifest.ini").read_text()
    for retired in ("delta", "adaptive_eps", "max_rounds",
                    "contraction_rho"):
        assert retired not in rerun_manifest


class _RecordingRemote(RemoteLearner):
    """A remote that keeps the bytes of every query it is sent."""

    def __init__(self, learner, fmap):
        super().__init__(learner, fmap)
        self.sent = []

    def query(self, x):
        self.sent.append(np.asarray(x, dtype=np.float64).tobytes())
        return super().query(x)


def _exam_record(recovery, feedback):
    """The queries and v_hat bytes of one exam of a small fixed student."""
    gen = np.random.default_rng(3)
    fmap = random_map(4, "general", 3)
    remote = _RecordingRemote(LearnerState(w=gen.standard_normal(4), eta=0.1,
                                           loss="logistic",
                                           feedback=feedback), fmap)
    if feedback == "sign":
        recovery = replace(recovery, known_norm=remote.disclosed_norm())
    result = construct_virtual_learner(remote, recovery)
    return remote.sent, result.v_hat.tobytes()


@pytest.mark.parametrize("key", sorted(_SCHEMA["recovery"]))
def test_every_recovery_key_changes_an_exam(key):
    # a [recovery] key that moves no query and no v_hat is a knob that
    # does nothing: each one, off its default, must change a sign or an
    # exact exam
    entry = _SCHEMA["recovery"][key]
    assert entry.target == "recovery"
    default = RecoveryConfig()
    value = getattr(default, entry.field)
    if isinstance(value, bool):
        moved = not value
    elif isinstance(value, int):
        moved = value + 1
    else:
        moved = value / 2.0
    moved = replace(default, **{entry.field: moved})
    assert any(_exam_record(default, feedback) != _exam_record(moved, feedback)
               for feedback in ("sign", "identity"))


_floats = st.floats(allow_nan=False, allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_seeds = st.integers(0, 2 ** 64 - 1)
_counts = st.integers(1, 10 ** 6)


@st.composite
def _configs(draw):
    dataset = DatasetSpec(
        task=draw(st.sampled_from(("regression", "classification"))),
        d=draw(_counts), n=draw(_counts),
        noise_sigma=draw(st.floats(min_value=0.0, allow_infinity=False)),
        mean_separation=draw(_floats), seed=draw(_seeds))
    recovery = RecoveryConfig(
        eps_est=draw(st.floats(min_value=0.0, exclude_min=True,
                               allow_infinity=False)),
        query_seed=draw(_seeds), standard_queries=draw(st.booleans()))
    config = ExperimentConfig(
        dataset=dataset,
        source=draw(st.sampled_from((None, os.path.abspath("data.csv")))),
        label_column=draw(st.text("abcxyz_0189", min_size=1, max_size=8)),
        map_kind=draw(st.sampled_from(("identity", "unitary", "general"))),
        map_seed=draw(_seeds),
        loss=draw(st.sampled_from(("square", "logistic", "hinge"))),
        feedback=draw(st.sampled_from(("identity", "sigmoid", "sign",
                                       "hinge_value"))),
        eta=draw(st.floats(min_value=0.0, allow_infinity=False)),
        sigma_forget=draw(_non_negative), noise_seed=draw(_seeds),
        w0_seed=draw(_seeds),
        teacher=draw(st.sampled_from(("random", "omniscient", "lazy",
                                      "active"))),
        exam_period=draw(st.sampled_from(("auto", None)) | _counts),
        stop_tol=draw(_floats),
        mode_kind=draw(st.sampled_from(("pool", "rescalable_pool",
                                        "synthesis", "combination"))),
        norm_bound=draw(st.none() | _positive),
        gamma_grid=draw(st.none() | st.lists(_floats, min_size=1,
                                             max_size=4).map(tuple)),
        recovery=recovery, lam=draw(_non_negative), ridge=draw(_positive),
        iterations=draw(st.integers(0, 10 ** 6)),
        metrics_period=draw(_counts),
        test_fraction=draw(st.floats(0.0, 1.0, exclude_max=True)),
        run_seed=draw(_seeds))
    scenario = ScenarioSpec(
        kind=draw(st.sampled_from(("standard", "forgetting",
                                   "multi-teacher"))),
        sigma_forget=draw(_non_negative), n_teachers=draw(st.integers(1, 50)),
        switch_points=draw(st.lists(st.integers(0, 10 ** 6), max_size=4)))
    return config, scenario


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_configs())
def test_manifest_round_trip_over_random_configs(pair):
    config, scenario = pair
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.ini")
        write_manifest(path, config, scenario, command="test")
        loaded = load_config(path)
    assert loaded == (config, scenario)
    assert config_to_dict(*loaded) == config_to_dict(config, scenario)
