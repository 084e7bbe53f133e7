"""Examining a student you cannot open.

The teacher sees the student only through feedback queries: send a
probe, read the answer channel.  For value-revealing channels (raw
prediction, sigmoid-squashed prediction, hinge value) a linear-algebra
exam reconstructs the student's weights as seen from the teacher's
side, exactly, with a known query budget.  The same trick run before
and after a single teaching step also reveals the student's private
learning rate.  Armed with the exam, a black-box teacher reproduces the
white-box teacher's trajectory.

Run from the repo root:  python3 demos/02_exams_and_black_box_teaching.py
"""

import numpy as np

import teachsim as ts
from teachsim.rng import substream

d = 40
print("== weight reconstruction through three feedback channels ==")
channels = (("identity", "square"), ("sigmoid", "logistic"),
            ("hinge_value", "hinge"))
for i, (feedback, loss) in enumerate(channels):
    gen = substream(7, i)
    fmap = ts.random_map(d, "general", 7)
    w = gen.standard_normal(d)
    v_true = ts.conjugate_apply(fmap, w)
    if feedback == "sigmoid":
        # keep the channel away from saturation
        w = w / float(np.linalg.norm(v_true))
        v_true = ts.conjugate_apply(fmap, w)
    student = ts.LearnerState(w=w, eta=1e-4, loss=loss, feedback=feedback)
    remote = ts.RemoteLearner(student, fmap)
    res = ts.construct_virtual_learner(remote, ts.RecoveryConfig(query_seed=7))
    err = float(np.linalg.norm(res.v_hat - v_true))
    print(f"  {feedback:12s} {remote.query_samples:3d} queries, "
          f"reconstruction error {err:.2e}")

print("\n== estimating the student's hidden learning rate ==")
for true_eta in (1e-4, 3e-3):
    gen = substream(11, int(true_eta * 1e6))
    fmap = ts.random_map(d, "unitary", 11)
    w = gen.standard_normal(d)
    w /= float(np.linalg.norm(w))
    student = ts.LearnerState(w=w, eta=true_eta, loss="square",
                              feedback="identity")
    remote = ts.RemoteLearner(student, fmap)
    est = ts.estimate_learning_rate(remote, seed=11)
    spent = remote.query_samples + remote.teaching_samples
    print(f"  true {true_eta:.1e} -> estimate {est:.6e} "
          f"({spent} interactions = 2*{d}+1)")

print("\n== black-box teaching matches white-box teaching ==")
base = dict(dataset=ts.DatasetSpec(task="regression", d=20, n=200,
                                   noise_sigma=0.1, seed=3),
            loss="square", feedback="identity", eta=1e-4,
            map_kind="unitary", map_seed=3, iterations=150, run_seed=3,
            stop_tol=0.0, mode_kind="rescalable_pool")
white = ts.run_experiment(ts.ExperimentConfig(teacher="omniscient", **base))
black = ts.run_experiment(ts.ExperimentConfig(teacher="active", **base))
gap = max(abs(a.param_dist - b.param_dist) for a, b in zip(white, black))
print(f"  150 iterations, max per-iteration distance gap: {gap:.2e}")
print("  the exam is exact, so the black-box teacher picks the same "
      "examples")
