"""Iterative machine teaching of a remote linear student.

A teacher living in one feature space steers a gradient-descent student
living in another, linked by a linear map.  The teacher may see the
student's weights (omniscient) or only its prediction feedback through
queries (active/lazy), in which case it reconstructs a virtual copy of
the student by examination and teaches that.

``import teachsim`` exports the names in ``__all__``; lower-level
helpers are imported from their modules (``teachsim.teachers``,
``teachsim.exam`` and so on).  The import is lazy: it loads no module
of the package and no numpy.  The first name looked up loads the
package, and the trace names (``read_trace``, ``exponential_fit`` ...)
load only the numpy-free ``teachsim.traces``.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    # the student, its map and its exams
    "LearnerState", "loss_value", "FeatureMap", "random_map",
    "conjugate_apply", "RemoteLearner", "RecoveryConfig",
    "construct_virtual_learner", "estimate_learning_rate",
    # teachers
    "TeachingMode", "ActiveTeacher", "LazyTeacher", "OmniscientTeacher",
    "RandomTeacher",
    # experiments and traces
    "DatasetSpec", "ExperimentConfig", "run_experiment",
    "run_forgetting_scenario", "run_multi_teacher", "exponential_fit",
    "samples_to_threshold", "read_trace", "write_trace",
    # errors the CLI reports as runtime failures
    "RankDeficientError", "SaturationError", "TraceFormatError",
    "TrainingError",
]

# Searched in this order for an exported name: the trace names need only
# `traces`, and any other name loads what an eager import of the package
# would.  `config` comes last, so a name that is not exported loads it too.
_MODULES = ("traces", "exam", "feature_space", "learners", "teachers",
            "experiments", "config")


def _load(name):
    """Resolve an attribute of the package on first lookup (PEP 562)."""
    for module in _MODULES:
        module = importlib.import_module(f"{__name__}.{module}")
        if name in __all__ and hasattr(module, name):
            return getattr(module, name)
    if name in globals():  # a submodule that the loop just imported
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__getattr__ = _load
