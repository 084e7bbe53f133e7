"""Teaching a student that only ever answers +1 or -1.

A sign channel reveals one bit per query, so weights cannot be read off
by solving a linear system.  Instead the exam walks the unit sphere:
one bisection along tangent directions runs until the requested
accuracy is certified, and each checkpoint it passes on the way
provably shrinks the angle to the student's true direction by a further
fixed factor.  Combined with a disclosed norm, that yields the weights
to any requested accuracy.
Per-iteration exams then make teaching nearly as sample-efficient as
knowing the weights outright.

Run from the repo root:  python3 demos/03_sign_feedback.py
"""

import numpy as np

import teachsim as ts
from teachsim.rng import substream

d = 16
gen = substream(21, 0)
fmap = ts.random_map(d, "unitary", 21)
w = gen.standard_normal(d)
v_true = ts.conjugate_apply(fmap, w)
student = ts.LearnerState(w=w, eta=0.5, loss="logistic", feedback="sign")
remote = ts.RemoteLearner(student, fmap)

print("== angle contraction, one bit at a time ==")
# the exam asks the student for the norm of its weights, which no sign
# answer can reveal
cfg = ts.RecoveryConfig(eps_est=1e-4, query_seed=21)
res = ts.construct_virtual_learner(remote, cfg)


def sin_angle(a, b):
    c = abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, c) ** 2)))


sines = [sin_angle(alpha, v_true) for alpha in res.alpha_history]
for k in range(min(6, len(sines))):
    print(f"  checkpoint {k:2d}: sin(angle) {sines[k]:.2e}")
if len(sines) > 8:
    print("  ...")
for k in range(max(6, len(sines) - 2), len(sines)):
    print(f"  checkpoint {k:2d}: sin(angle) {sines[k]:.2e}")
err = float(np.linalg.norm(res.v_hat - v_true))
print(f"  final weight error {err:.2e} for requested 1e-4 "
      f"({remote.query_samples} queries)\n")

print("== sample efficiency with per-iteration exams ==")
rows = {}
for teacher in ("omniscient", "active", "random"):
    cfg = ts.ExperimentConfig(
        dataset=ts.DatasetSpec(task="classification", d=10, n=200, seed=5),
        loss="logistic", feedback="sign", eta=0.5, map_kind="unitary",
        map_seed=5, teacher=teacher, iterations=120, run_seed=5,
        stop_tol=0.0, ridge=0.01, mode_kind="rescalable_pool",
        recovery=ts.RecoveryConfig(eps_est=1e-3, query_seed=5),
        exam_period=1)
    trace = ts.run_experiment(cfg)
    n = ts.samples_to_threshold(trace, fraction=0.1)
    rows[teacher] = (n, trace[-1].query_samples)
for teacher, (n, queries) in rows.items():
    reach = f"{n} teaching samples" if n is not None else "never reaches it"
    print(f"  {teacher:10s} to 10% of initial distance: {reach:24s} "
          f"(queries spent: {queries})")
print("\n  the active teacher pays a query budget for its exams but "
      "matches the")
print("  omniscient teacher's sample count; random draws never get there")
