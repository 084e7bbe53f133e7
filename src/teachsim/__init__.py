"""Iterative machine teaching of a remote linear student.

A teacher living in one feature space steers a gradient-descent student
living in another, linked by a linear map.  The teacher may see the
student's weights (omniscient) or only its prediction feedback through
queries (active/lazy), in which case it reconstructs a virtual copy of
the student by examination and teaches that.

``import teachsim`` exports the names in ``__all__``; lower-level
helpers are imported from their modules (``teachsim.teachers``,
``teachsim.exam`` and so on).
"""

__version__ = "0.1.0"

from .exam import (RankDeficientError, RecoveryConfig, RemoteLearner,
                   construct_virtual_learner, estimate_learning_rate)
from .experiments import (DatasetSpec, ExperimentConfig, TraceFormatError,
                          TrainingError, exponential_fit, read_trace,
                          run_experiment, run_forgetting_scenario,
                          run_multi_teacher, samples_to_threshold,
                          write_trace)
from .feature_space import FeatureMap, conjugate_apply, random_map
from .learners import LearnerState, SaturationError
from .teachers import (ActiveTeacher, LazyTeacher, OmniscientTeacher,
                       RandomTeacher, TeachingMode)

__all__ = [
    # the student, its map and its exams
    "LearnerState", "FeatureMap", "random_map", "conjugate_apply",
    "RemoteLearner", "RecoveryConfig", "construct_virtual_learner",
    "estimate_learning_rate",
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
