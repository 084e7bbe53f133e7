"""INI-backed run configuration and reproducibility manifests.

A config file describes one run; every key has a default, so the empty
file is valid.  A manifest is the same format with every value resolved
(seeds derived, eta materialized) plus bookkeeping sections, so feeding
a manifest back in reproduces the run byte for byte.

``_SCHEMA`` describes every key once: section -> key -> (target, field,
parser, formatter), the target being the ExperimentConfig, its
DatasetSpec or RecoveryConfig, or the ScenarioSpec.  Loading, manifest
writing and seed re-derivation are all driven by it.  An absent key
takes its dataclass default, except for two rules of INI files: the
seeds marked in the table derive from ``[run] seed``, and ``[learner]
eta`` defaults to ``auto`` (1e-4 in the shared space, else
0.01 / sigma_max(G)^2).  Keys in ``_RETIRED`` are read by nothing; old
manifests that carry them still load.
"""

import configparser
import csv
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .experiments import TEACHER_KINDS, ExperimentConfig, check_relay
from .feature_space import random_map, spectral_stats
from .learners import FEEDBACKS, LOSSES
from .rng import (KEY_DATA, KEY_FORGET, KEY_INIT, KEY_MAP, KEY_QUERIES,
                  derive_seed)

# Sections written by write_manifest and skipped on load.
_BOOKKEEPING = ("manifest", "artifacts")

# Keys of older manifests that no field reads; loaded and ignored.
_RETIRED = {("recovery", "delta"), ("recovery", "lam"),
            ("recovery", "max_rounds"), ("recovery", "contraction_rho"),
            ("teacher", "adaptive_eps"), ("teacher", "lam")}

SCENARIO_KINDS = ("standard", "forgetting", "multi-teacher")


class ConfigError(ValueError):
    """A config file failed validation; the message names section.key."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Which runner a config drives, plus its scenario-only knobs."""
    kind: str = "standard"
    sigma_forget: float = 0.1
    n_teachers: int = 2
    switch_points: tuple = ()

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(
                f"scenario.kind: unknown scenario {self.kind!r}, expected "
                f"one of {SCENARIO_KINDS}")
        object.__setattr__(self, "switch_points", tuple(self.switch_points))


# Parsers take the raw string and raise ValueError with a message that
# load_config prefixes with section.key.

def _number(convert, expected):
    def parse(raw):
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(f"expected {expected}, got {raw!r}") from None
    return parse


_int = _number(int, "an integer")


def _float(raw):
    # nan and inf parse as floats but mean nothing as any key's value
    value = _number(float, "a number")(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _bool(raw):
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.strip().lower() not in states:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return states[raw.strip().lower()]


def _choice(*choices):
    def parse(raw):
        if raw not in choices:
            raise ValueError(f"got {raw!r}, expected one of {choices}")
        return raw
    return parse


def _at_least(low, parse):
    def parse_bounded(raw):
        value = parse(raw)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return parse_bounded


def _positive(raw):
    value = _float(raw)
    if value <= 0:
        raise ValueError(f"must be > 0, got {value}")
    return value


_seed = _at_least(0, _int)


def _words(words, parse):
    """Map the (case-insensitive) keywords in words, else defer to parse."""
    def parse_word(raw):
        word = raw.strip().lower()
        return words[word] if word in words else parse(raw)
    return parse_word


def _list(parse):
    return lambda raw: tuple(parse(part) for part in raw.split(","))


def _fmt(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _fmt_grid(grid):
    return "auto" if grid is None else _fmt(tuple(map(float, grid)))


class _Key(NamedTuple):
    target: str  # "config" | "dataset" | "recovery" | "scenario"
    field: str
    parse: Callable
    fmt: Callable = _fmt
    seed_label: int | None = None  # derive from [run] seed when absent


_SCHEMA = {
    "dataset": {
        "task": _Key("dataset", "task",
                     _choice("regression", "classification")),
        "d": _Key("dataset", "d", _int),
        "n": _Key("dataset", "n", _int),
        "noise_sigma": _Key("dataset", "noise_sigma", _float),
        "mean_separation": _Key("dataset", "mean_separation", _float),
        "seed": _Key("dataset", "seed", _seed, seed_label=KEY_DATA),
        "source": _Key("config", "source", _words({"none": None}, str)),
        "label_column": _Key("config", "label_column", str),
    },
    "map": {
        "kind": _Key("config", "map_kind",
                     _choice("identity", "unitary", "general")),
        "seed": _Key("config", "map_seed", _seed, seed_label=KEY_MAP),
    },
    "learner": {
        "loss": _Key("config", "loss", _choice(*LOSSES)),
        "feedback": _Key("config", "feedback", _choice(*FEEDBACKS)),
        "eta": _Key("config", "eta",
                    _words({"auto": "auto"}, _at_least(0, _float))),
        "sigma_forget": _Key("config", "sigma_forget",
                             _at_least(0, _float)),
        "noise_seed": _Key("config", "noise_seed", _seed,
                           seed_label=KEY_FORGET),
        "w0_seed": _Key("config", "w0_seed", _seed, seed_label=KEY_INIT),
    },
    "teacher": {
        "kind": _Key("config", "teacher", _choice(*TEACHER_KINDS)),
        "exam_period": _Key("config", "exam_period",
                            _words({"auto": "auto", "none": None},
                                   _at_least(1, _int))),
        "stop_tol": _Key("config", "stop_tol", _float),
    },
    "mode": {
        "kind": _Key("config", "mode_kind",
                     _choice("pool", "rescalable_pool", "synthesis",
                             "combination")),
        "norm_bound": _Key("config", "norm_bound",
                           _words({"none": None}, _positive)),
        "gamma_grid": _Key("config", "gamma_grid",
                           _words({"auto": None}, _list(_float)), _fmt_grid),
    },
    "recovery": {
        "eps_est": _Key("recovery", "eps_est", _float),
        "query_seed": _Key("recovery", "query_seed", _seed,
                           seed_label=KEY_QUERIES),
        "standard_queries": _Key("recovery", "standard_queries", _bool),
    },
    "train": {
        "ridge": _Key("config", "ridge", _positive),
    },
    "run": {
        "iterations": _Key("config", "iterations", _int),
        "metrics_period": _Key("config", "metrics_period", _int),
        "test_fraction": _Key("config", "test_fraction", _float),
        "seed": _Key("config", "run_seed", _seed),
    },
    "scenario": {
        "kind": _Key("scenario", "kind", _choice(*SCENARIO_KINDS)),
        "sigma_forget": _Key("scenario", "sigma_forget",
                             _at_least(0, _float)),
        "n_teachers": _Key("scenario", "n_teachers", _at_least(1, _int)),
        "switch_points": _Key("scenario", "switch_points",
                              _words({"": ()}, _list(_at_least(0, _int)))),
    },
}


def _derived_seeds(master):
    """{(section, key): seed} for every seed that derives from master."""
    return {(section, key): derive_seed(master, entry.seed_label)
            for section, keys in _SCHEMA.items()
            for key, entry in keys.items() if entry.seed_label is not None}


def _replace(obj, prefix, changes):
    """dataclasses.replace, with domain errors raised as ConfigError."""
    try:
        return replace(obj, **changes)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _assemble(config, scenario, values):
    """(config, scenario) with each {(section, key): value} applied."""
    fields = {"config": {}, "dataset": {}, "recovery": {}, "scenario": {}}
    for (section, key), value in values.items():
        entry = _SCHEMA[section][key]
        fields[entry.target][entry.field] = value
    dataset = _replace(config.dataset, "dataset: ", fields["dataset"])
    recovery = _replace(config.recovery, "recovery: ", fields["recovery"])
    config = _replace(config, "", dict(fields["config"], dataset=dataset,
                                       recovery=recovery))
    return config, _replace(scenario, "", fields["scenario"])


def _csv_dim(path):
    """Feature count of a headed CSV (columns minus the label column)."""
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
    except (OSError, StopIteration) as exc:
        raise ConfigError(f"dataset.source: cannot read {path!r}: {exc}")
    return len(header) - 1


def _auto_eta(config):
    """eta = auto: 1e-4 in the shared space, else 0.01 / sigma_max^2."""
    if config.map_kind == "identity":
        return 1e-4
    d = config.dataset.d if config.source is None else _csv_dim(config.source)
    stats = spectral_stats(random_map(d, config.map_kind, config.map_seed))
    return 0.01 / stats.sigma_max ** 2


def _read_raw(path, overrides):
    """{(section, key): raw string} from the file, then the overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raw = {}
    for section in parser.sections():
        if section in _BOOKKEEPING:
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in parser.items(section):
            if (section, key) in _RETIRED:
                continue
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            raw[section, key] = text
    for (section, key), text in (overrides or {}).items():
        if key not in _SCHEMA.get(section, {}):
            raise ConfigError(f"unknown override {section}.{key}")
        raw[section, key] = text
    return raw


def load_config(path, overrides=None):
    """Parse and resolve a config file; returns (ExperimentConfig,
    ScenarioSpec).

    overrides maps (section, key) to raw string values and is applied
    before resolution, exactly as if the file contained those lines.
    Manifest bookkeeping sections are ignored, so a manifest is itself a
    valid config reproducing its run.  A relay is checked here, not at
    run time.
    """
    values = {}
    for (section, key), raw in _read_raw(path, overrides).items():
        try:
            values[section, key] = _SCHEMA[section][key].parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from None
    source = values.get(("dataset", "source"))
    if source is not None:
        base = os.path.dirname(os.path.abspath(path))
        values["dataset", "source"] = os.path.normpath(
            os.path.join(base, source))
    master = values.get(("run", "seed"), ExperimentConfig.run_seed)
    values = {("learner", "eta"): "auto", **_derived_seeds(master), **values}
    config, scenario = _assemble(ExperimentConfig(), ScenarioSpec(), values)
    if scenario.kind == "multi-teacher":
        try:
            check_relay(scenario.n_teachers, scenario.switch_points,
                        config.iterations)
        except ValueError as exc:
            raise ConfigError(f"scenario.{exc}") from None
    if config.eta == "auto":
        config = replace(config, eta=_auto_eta(config))
    return config, scenario


def config_to_dict(config, scenario=None):
    """Fully resolved {section: {key: string}} view of a run config."""
    targets = {"config": config, "dataset": config.dataset,
               "recovery": config.recovery,
               "scenario": scenario or ScenarioSpec()}
    return {section: {key: entry.fmt(getattr(targets[entry.target],
                                             entry.field))
                      for key, entry in keys.items()}
            for section, keys in _SCHEMA.items()}


def write_manifest(path, config, scenario=None, command="",
                   artifacts=None):
    """Write the resolved config plus bookkeeping; reloadable as a config."""
    from . import __version__
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in config_to_dict(config, scenario).items():
        parser[section] = keys
    meta = {"format": "1", "tool": f"teachsim {__version__}"}
    if command:
        meta["command"] = command
    parser["manifest"] = meta
    if artifacts:
        parser["artifacts"] = {k: str(v) for k, v in artifacts.items()}
    with open(path, "w") as fh:
        parser.write(fh)


def apply_master_seed(config, scenario, master):
    """Re-derive every component seed from a new master seed.

    Used by multi-seed sweeps: each replicate gets fully independent
    data, map, initialization, noise, and query streams.
    """
    return _assemble(config, scenario,
                     {("run", "seed"): master, **_derived_seeds(master)})
