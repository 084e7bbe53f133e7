"""What a teacher is allowed to feed the student, and what it buys.

Three constraint regimes for the same square-loss student: free
synthesis (any example up to a norm cap), a fixed pool taken as-is, and
the same pool with per-example rescaling.  An omniscient teacher drives
each; uniform-random pool draws give the SGD baseline.  The distance to
the target drops in one step under synthesis, exponentially under the
rescalable pool, and slowest for random draws.

Run from the repo root:  python3 demos/01_teaching_modes.py
"""

import os

import teachsim as ts
from teachsim.svgchart import write_chart

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

d = 30
seed = 4

print("== one-step convergence under free synthesis ==")
cfg = ts.ExperimentConfig(
    dataset=ts.DatasetSpec(task="classification", d=d, n=400, seed=seed),
    loss="square", feedback="identity", eta=0.01, teacher="omniscient",
    mode_kind="synthesis", norm_bound=50.0, iterations=5, run_seed=seed,
    stop_tol=1e-12)
rows = ts.run_experiment(cfg)
for r in rows[:3]:
    print(f"  iter {r.iteration}: distance {r.param_dist:.3e}")
print("  a free teacher places one example that lands the student on the"
      " target\n")

print("== pool vs rescalable pool vs random draws ==")
series = []
for label, teacher, mode in (("pool, guided", "omniscient", "pool"),
                             ("rescalable, guided", "omniscient",
                              "rescalable_pool"),
                             ("pool, random", "random", "pool")):
    cfg = ts.ExperimentConfig(
        dataset=ts.DatasetSpec(task="classification", d=d, n=400, seed=seed),
        loss="square", feedback="identity", eta=0.01, teacher=teacher,
        mode_kind=mode, iterations=250, run_seed=seed, stop_tol=0.0)
    rows = ts.run_experiment(cfg)
    series.append((label,
                   [r.iteration for r in rows],
                   [r.param_dist for r in rows]))
    fit = ts.exponential_fit(rows)
    print(f"  {label:22s} final {rows[-1].param_dist:.3e}   "
          f"fitted decay per step {fit.rate:.3f}")

path = os.path.join(OUT, "teaching_modes.svg")
write_chart(path, series, title="distance to target by teaching mode",
            xlabel="iteration", ylabel="parameter distance", log_y=True)
print(f"\nchart -> {path}")
