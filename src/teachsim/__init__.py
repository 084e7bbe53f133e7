"""Iterative machine teaching of a remote linear student.

A teacher living in one feature space steers a gradient-descent student
living in another, linked by a linear map.  The teacher may see the
student's weights (omniscient) or only its prediction feedback through
queries (active/lazy), in which case it reconstructs a virtual copy of
the student by examination and teaches that.
"""

__version__ = "0.1.0"

from .exam import (ExamResult, QuerySet, RankDeficientError, RecoveryConfig,
                   RemoteLearner, approx_recover_sign,
                   construct_virtual_learner, estimate_learning_rate,
                   exact_recover_bijective, exact_recover_hinge,
                   make_basis_queries, make_paired_queries)
from .experiments import (DatasetSpec, ExperimentConfig, ExponentialFit,
                          TraceFormatError, TraceRow, TrainingError,
                          exponential_fit, fit_feature_map,
                          gen_classification_data, gen_regression_data,
                          ingest_tabular, project_two_views, random_project,
                          read_trace, run_experiment,
                          run_forgetting_scenario, run_multi_teacher,
                          samples_to_threshold, train_optimal, write_tabular,
                          write_trace)
from .feature_space import (FeatureMap, SpanMetric, SpectralStats,
                            apply_map, as_vector, conjugate_apply,
                            project_span, random_map, span_inner, span_norm,
                            spectral_stats)
from .learners import (FEEDBACKS, LOSSES, LearnerState, SaturationError,
                       feedback_invert, feedback_value, forgetting_step,
                       loss_grad, loss_value, respond, sgd_step,
                       training_objective)
from .rng import derive_seed, substream
from .teachers import (ActiveTeacher, DegenerateDirectionError,
                       ETCheckReport, LazyTeacher, OmniscientTeacher,
                       RandomTeacher, SelectedExample, TeachingComplete,
                       TeachingMode, VirtualLearner, default_gamma_grid,
                       et_condition_check, omniscient_objective, pool_volume,
                       random_select, select_combination, select_example,
                       select_pool, select_synthesis)

__all__ = [name for name in dir() if not name.startswith("_")]
