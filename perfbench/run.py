"""The teachsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, nothing needs building.  The workload inputs (experiment configs,
an INI file for the CLI) are generated from --seed; the package receives
only those inputs.  Every workload process is spawned fresh, drives the
package from outside through its public API or the `teachsim` CLI, and
runs with BLAS pinned to one thread.

--trace 0 repeats workload runs, interleaving full runs with set-up runs
(the same configs with iterations = 0), for about --seconds seconds and
prints the end-to-end metrics; each run's wall time is calibrated against
a fixed reference kernel timed on the same CPUs around it.  --trace 1
makes one untraced and one traced run of every group and prints the
per-layer metrics (see README.md).  Either way
the outputs are checked, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CPUS = sorted(os.sched_getaffinity(0))
NPROC = len(CPUS)
PAGE = os.sysconf("SC_PAGE_SIZE")
MIN_REPS = 3
COMMAND_TIMEOUT_S = 150.0
# Calibration (README.md, "Calibrated time"): every timed run is rescaled
# to a host on which one call of reference_kernel() takes REFERENCE_S.
REFERENCE_S = 0.1
REFERENCE_LOOP = 600_000
REFERENCE_NUMPY_CALLS = 9_000

# Each workload stresses a different layer (see README.md).  `seeds`
# configs (or CLI master seeds) per workload, split into groups of
# `per_run`: one workload process runs one group, and successive runs take
# the groups in turn, so a run stays short and a 40 s measurement holds
# many of them.  `steps` teaching steps per config; `ceiling` bounds the
# active teacher's final/initial parameter distance on every config.
WORKLOADS = {
    "pool": {
        "kind": "experiment", "seeds": 12, "per_run": 12, "steps": 15,
        "ceiling": 0.5,
        "run": {"loss": "logistic", "feedback": "sigmoid", "eta": 0.01,
                "map_kind": "unitary", "mode_kind": "rescalable_pool"},
        "dataset": {"d": 50, "n": 1000, "mean_separation": 0.25},
    },
    "synthesis": {
        "kind": "experiment", "seeds": 12, "per_run": 1, "steps": 12,
        "ceiling": 0.6,
        "run": {"loss": "logistic", "feedback": "sigmoid", "eta": 0.002,
                "map_kind": "general", "mode_kind": "synthesis",
                "norm_bound": 5.0},
        "dataset": {"d": 50, "n": 1000},
        # Coordinate queries: with Gaussian ones the sigmoid responses
        # saturate once |G^T w| nears 10, and the exam silently returns a
        # wrong learner (README.md, "Known program limits").
        "recovery": {"standard_queries": True},
    },
    "sign_sweep": {
        "kind": "cli", "seeds": 8, "per_run": 2, "steps": 100,
        "ceiling": 0.2,
    },
}

SIGN_SWEEP_INI = """\
[run]
seed = {master}
iterations = {steps}

[dataset]
task = classification
d = 20
n = 300

[learner]
loss = hinge
feedback = sign
eta = 0.01

[teacher]
kind = active
stop_tol = 0

[map]
kind = identity

[mode]
kind = rescalable_pool

[train]
ridge = 0.1

[scenario]
kind = forgetting
sigma_forget = 0.01
"""

TEACHERS = ("active", "lazy", "omniscient", "random")

END_TO_END_UNITS = {
    "run_s": "s", "setup_s": "s", "steps_per_s": "1/s",
    "samples_to_half": "count", "query_samples": "count",
    "dist_ratio": "ratio", "peak_rss_mb": "MB",
}


class Workload:
    """Generated inputs of one workload and the commands that run it."""

    def __init__(self, name, seed, work):
        self.name = name
        self.spec = WORKLOADS[name]
        self.work = work
        self.n_seeds = self.spec["seeds"]
        self.per_run = self.spec["per_run"]
        self.groups = range(self.n_seeds // self.per_run)
        self.steps = self.spec["steps"]
        if self.spec["kind"] == "experiment":
            for label, steps in (("full", self.steps), ("setup", 0)):
                configs = self._experiment_configs(seed, steps)
                for g in self.groups:
                    with open(self._input(label, g), "w") as fh:
                        json.dump(configs[g * self.per_run:
                                          (g + 1) * self.per_run],
                                  fh, indent=1)
        else:
            self.first_master = seed * self.n_seeds
            for label, steps in (("full", self.steps), ("setup", 0)):
                with open(self._input(label), "w") as fh:
                    fh.write(SIGN_SWEEP_INI.format(
                        master=self.first_master, steps=steps))

    def _input(self, label, group=None):
        if self.spec["kind"] == "experiment":
            return os.path.join(self.work, f"{label}_{group}.json")
        return os.path.join(self.work, f"{label}.ini")

    def _experiment_configs(self, seed, steps):
        configs = []
        for i in range(self.n_seeds):
            rng = random.Random(f"{self.name}:{seed}:{i}")
            s = [rng.getrandbits(31) for _ in range(6)]
            configs.append({
                "dataset": dict(self.spec["dataset"], task="classification",
                                seed=s[0]),
                "run": dict(self.spec["run"], teacher="active",
                            stop_tol=0.0, iterations=steps, map_seed=s[1],
                            w0_seed=s[2], noise_seed=s[3], run_seed=s[4]),
                "recovery": dict(self.spec.get("recovery", {}),
                                 query_seed=s[5]),
            })
        return configs

    def masters(self, group):
        first = self.first_master + group * self.per_run
        return range(first, first + self.per_run)

    def commands(self, label, group, out, traced=None):
        """argv lists of one run of a group; traced=(spans prefix, run id)
        wraps each command in the tracer."""
        child = [sys.executable, os.path.join(HERE, "child.py")]
        if self.spec["kind"] == "experiment":
            cmds = [["experiment", self._input(label, group), out]]
        else:
            masters = self.masters(group)
            seeds = f"{masters[0]}..{masters[-1]}"
            traces = self.trace_files(group, out)
            active = [p for p in traces if p.endswith("trace_active.csv")]
            cmds = [["cli", "run", "--config", self._input(label), "--out",
                     out, "--scenario", "forgetting", "--seeds", seeds],
                    ["cli", "report"] + traces,
                    ["cli", "plot"] + active + [
                        "--out", os.path.join(out, "param_dist.svg"),
                        "--log-y"]]
        if traced is not None:
            prefix, run_id = traced
            return [child + ["traced", f"{prefix}{i}.json", run_id] + c
                    for i, c in enumerate(cmds)]
        if self.spec["kind"] == "experiment":
            return [child + c for c in cmds]
        return [[sys.executable, "-m", "teachsim.cli"] + c[1:] for c in cmds]

    def trace_files(self, group, out):
        if self.spec["kind"] == "experiment":
            return [os.path.join(out, f"trace_{i}.csv")
                    for i in range(self.per_run)]
        return [os.path.join(out, f"seed_{m}", f"trace_{kind}.csv")
                for m in self.masters(group) for kind in TEACHERS]

    def active_traces(self, group, out):
        return [p for p in self.trace_files(group, out)
                if self.spec["kind"] == "experiment"
                or p.endswith("trace_active.csv")]


def child_env(workers):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TEACHSIM_THREADS"] = str(workers)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def tree_rss(pid):
    """Resident bytes of a process and all its descendants."""
    total = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue
    return total


def spawn(argv, env, log_path, cpus):
    """Run one command to completion on the CPU set `cpus`.

    Returns (exit code, wall seconds, peak resident bytes of the process
    tree).  The tree is sampled every 20 ms; the child's own maximum
    resident size from wait4 is a floor for short peaks.
    """
    with open(log_path, "w") as log:
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)  # inherited by the child
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
        finally:
            os.sched_setaffinity(0, own)
        peak = [0]
        done = threading.Event()

        def sample():
            while not done.wait(0.02):
                peak[0] = max(peak[0], tree_rss(proc.pid))

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        sampler = threading.Thread(target=sample, daemon=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        sampler.start()
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the tree, then re-raise
            kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
            done.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, max(peak[0], usage.ru_maxrss * 1024)


class Rep:
    """Outcome of one run of a workload group (all of its commands)."""

    def __init__(self, wl, label, group, out, workers, traced=None,
                 cpus=CPUS):
        self.group = group
        self.out = out
        self.wall = 0.0
        self.peak = 0
        self.errors = []
        self.logs = []
        os.makedirs(out, exist_ok=True)
        env = child_env(workers)
        for i, argv in enumerate(wl.commands(label, group, out, traced)):
            log = os.path.join(out, f"command_{i}.log")
            code, wall, peak = spawn(argv, env, log, cpus)
            self.wall += wall
            self.peak = max(self.peak, peak)
            self.logs.append(log)
            if code != 0:
                with open(log) as fh:
                    tail = fh.read()[-2000:]
                self.errors.append(f"exit {code}: {' '.join(argv[-6:])}\n"
                                   f"{tail}")
                break

    @property
    def ok(self):
        return not self.errors

    def hashes(self, wl):
        out = {}
        for path in wl.trace_files(self.group, self.out):
            try:
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, self.out)] = hashlib.sha256(
                        fh.read()).hexdigest()
            except OSError:
                out[os.path.relpath(path, self.out)] = None
        return out


def check_report(wl, rep):
    """The CLI report must have parsed every trace the run wrote."""
    if wl.spec["kind"] != "cli" or not rep.ok:
        return []
    with open(rep.logs[1]) as fh:
        text = fh.read()
    traces = wl.trace_files(rep.group, rep.out)
    errors = [f"report did not parse {p}" for p in traces
              if f"{p}:" not in text]
    want = f"iterations {wl.steps}, "
    if text.count(want) != len(traces):
        errors.append(f"report shows {text.count(want)} traces with "
                      f"{wl.steps} iterations, expected {len(traces)}")
    return errors


def quality(wl, outs):
    """Teaching metrics and output checks from the traces of one run of
    every group; outs maps each group to its output directory."""
    from teachsim import read_trace, samples_to_threshold
    errors = []
    traces = {p: read_trace(p) for g in wl.groups
              for p in wl.trace_files(g, outs[g])}
    finals = [rows[-1] for rows in traces.values()]
    steps = sum(final.iteration for final in finals)
    expected = len(finals) * wl.steps
    if steps != expected:
        errors.append(f"{steps} teaching steps, expected {expected}")
    half = 0
    ratios = []
    for path in (p for g in wl.groups for p in wl.active_traces(g, outs[g])):
        rows = traces[path]
        reach = samples_to_threshold(rows, 0.5)
        if reach is None:
            errors.append(f"{path}: param_dist never halves")
        else:
            half += reach
        ratio = rows[-1].param_dist / rows[0].param_dist
        ratios.append(ratio)
        if not ratio <= wl.spec["ceiling"]:
            errors.append(f"{path}: dist_ratio {ratio:.4g} above the "
                          f"ceiling {wl.spec['ceiling']}")
    return {
        "steps": steps,
        "samples_to_half": half,
        "query_samples": sum(final.query_samples for final in finals),
        "teaching_samples": sum(final.teaching_samples for final in finals),
        "dist_ratio": statistics.mean(ratios),
    }, errors


def reference_kernel():
    """Seconds for fixed Python and numpy work that never touches the
    package: an integer loop and a chain of small-vector numpy calls."""
    import numpy as np
    start = time.perf_counter()
    total = 0
    for j in range(REFERENCE_LOOP):
        total += j * j
    v = w = np.linspace(-1.0, 1.0, 50)
    for _ in range(REFERENCE_NUMPY_CALLS):
        v = np.tanh(v * 0.5 + 0.1) + np.dot(v, w) * 1e-3
    return time.perf_counter() - start


def host_speed(cpus):
    """Mean reference_kernel() seconds over the CPUs a run will use."""
    own = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(reference_kernel())
    finally:
        os.sched_setaffinity(0, own)
    return statistics.mean(times)


def measure_end_to_end(wl, seconds):
    """Alternate full and set-up runs for about `seconds` seconds, taking
    the groups in turn, with the reference kernel timed on the same CPUs
    between them."""
    attempted = failed = 0
    errors = []
    full, setup = [], []  # (run, mean reference seconds around it)
    reference = {}  # group -> (first good full run, its trace hashes)
    # A single-process workload runs pinned to one CPU, so that the
    # reference kernel times the CPU it runs on; the CLI fans out over all.
    cpus = CPUS[-1:] if wl.spec["kind"] == "experiment" else CPUS
    start = time.perf_counter()

    def run(label, index, name=None):
        nonlocal attempted, failed
        attempted += 1
        group = wl.groups[index % len(wl.groups)]
        rep = Rep(wl, label, group,
                  os.path.join(wl.work, name or f"{label}_{index}"), NPROC,
                  cpus=cpus)
        rep_errors = list(rep.errors)
        if label == "full" and rep.ok:
            rep_errors += check_report(wl, rep)
            if group in reference and rep.hashes(wl) != reference[group][1]:
                rep_errors.append(f"group {group}: trace CSVs differ from "
                                  f"its first run")
        if rep_errors:
            failed += 1
            errors.extend(rep_errors)
            return None
        if label == "full" and group not in reference:
            reference[group] = (rep, rep.hashes(wl))
        else:
            shutil.rmtree(rep.out)
        return rep

    host_speed(CPUS)  # untimed: loads numpy
    run("setup", 0, "warmup")  # fills the page and bytecode caches
    index = 0
    before = host_speed(cpus)
    while True:
        rep = run("full", index)
        between = host_speed(cpus)
        if rep is not None:
            full.append((rep, (before + between) / 2))
        rep = run("setup", index)
        before = host_speed(cpus)
        if rep is not None:
            setup.append((rep, (between + before) / 2))
        index += 1
        elapsed = time.perf_counter() - start
        if (len(full) >= MIN_REPS and len(setup) >= MIN_REPS
                and len(reference) == len(wl.groups)):
            if (elapsed + statistics.median(r.wall for r, _ in full)
                    + statistics.median(r.wall for r, _ in setup)
                    + 2 * before > seconds):
                break
        if elapsed > 2 * seconds or (attempted >= 4 * MIN_REPS
                                     and not (full and setup)):
            break
    if not full or not setup or len(reference) < len(wl.groups):
        return None, attempted, failed, errors

    q, q_errors = quality(wl, {g: r.out for g, (r, _) in reference.items()})
    if q_errors:
        failed += len(full)
        errors.extend(q_errors)
    run_s = statistics.median(r.wall * REFERENCE_S / ref for r, ref in full)
    setup_s = statistics.median(r.wall * REFERENCE_S / ref
                                for r, ref in setup)
    metrics = {
        "run_s": run_s,
        "setup_s": setup_s,
        "steps_per_s": q["steps"] / len(wl.groups) / (run_s - setup_s),
        "samples_to_half": q["samples_to_half"],
        "query_samples": q["query_samples"],
        "dist_ratio": q["dist_ratio"],
        "peak_rss_mb": statistics.median(r.peak for r, _ in full) / 2 ** 20,
    }
    for label, reps in (("full", full), ("set-up", setup)):
        walls = [r.wall for r, _ in reps]
        refs = [ref for _, ref in reps]
        print(f"{label} runs {len(reps)}, wall s / reference s: "
              + " ".join(f"{w:.3f}/{ref:.4f}" for w, ref in zip(walls, refs)))
        print(f"{label} runs: median wall {statistics.median(walls):.4f} s, "
              f"median reference {statistics.median(refs):.4f} s")
    print(f"failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in metrics.items()}, attempted, failed, errors)


def import_seconds(repeats=5):
    code = ("import time; t = time.perf_counter(); import teachsim; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code],
                              env=child_env(1), cwd=ROOT, check=True,
                              capture_output=True, text=True)
        values.append(float(done.stdout))
    return statistics.median(values)


def measure_per_layer(wl):
    """One untraced and one traced run of every group; per-layer metrics
    and checks."""
    from tracer import summarize
    attempted = failed = 0
    errors = []
    cli = wl.spec["kind"] == "cli"

    prefix = os.path.join(wl.work, "spans_")
    run_id = f"{wl.name}-{os.getpid()}-{time.time_ns()}"
    untraced, single, traced = [], [], []
    for g in wl.groups:
        untraced.append(Rep(wl, "full", g,
                            os.path.join(wl.work, f"untraced_{g}"), NPROC))
        single.append(Rep(wl, "full", g,
                          os.path.join(wl.work, f"untraced_1_{g}"), 1)
                      if cli else untraced[-1])
        traced.append(Rep(wl, "full", g, os.path.join(wl.work, f"traced_{g}"),
                          1, traced=(f"{prefix}{g}_", run_id)))
    for rep in {id(r): r for r in untraced + single + traced}.values():
        attempted += 1
        rep_errors = list(rep.errors) + check_report(wl, rep)
        if rep_errors:
            failed += 1
            errors.extend(rep_errors)
    if failed:
        return None, attempted, failed, errors

    q, q_errors = quality(wl, {r.group: r.out for r in untraced})
    for u, s, t in zip(untraced, single, traced):
        if t.hashes(wl) != u.hashes(wl):
            q_errors.append(f"group {u.group}: traced run wrote different "
                            f"trace CSVs")
        if s.hashes(wl) != u.hashes(wl):
            q_errors.append(f"group {u.group}: one-worker run wrote "
                            f"different trace CSVs")
    dumps = []
    for t in traced:
        for i in range(len(t.logs)):
            with open(f"{prefix}{t.group}_{i}.json") as fh:
                dumps.append(json.load(fh))
    if any(d["run_id"] != run_id for d in dumps):
        q_errors.append("span dumps carry a foreign run id")
    totals, white_box, trace_bytes, pool_shape = summarize(dumps)
    untraced_s = sum(r.wall for r in untraced)
    single_s = sum(r.wall for r in single)
    traced_s = sum(r.wall for r in traced)

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    if get("exam.query", "calls") != q["query_samples"]:
        q_errors.append(f"traced {get('exam.query', 'calls')} queries, "
                        f"traces record {q['query_samples']}")
    if get("exam.teach", "calls") != q["teaching_samples"]:
        q_errors.append(f"traced {get('exam.teach', 'calls')} teach calls, "
                        f"traces record {q['teaching_samples']}")
    black_box_reads = white_box.get("active", 0) + white_box.get("lazy", 0)
    if black_box_reads:
        q_errors.append(f"black-box teachers read the weights "
                        f"{black_box_reads} times")
    if q_errors:
        failed += 1
        errors.extend(q_errors)

    grid, k, itemsize = pool_shape or (0, 0, 0)
    exams = get("exam.construct_virtual_learner", "calls")
    metrics = {
        "teachers.select_pool.ms": (get("teachers.select_pool", "ms"), "ms"),
        "teachers.select_pool.calls": (
            get("teachers.select_pool", "calls"), "count"),
        "teachers.select_pool.candidates_per_step": (grid * k, "count"),
        "teachers.select_pool.grid_array_bytes": (
            grid * k * itemsize, "bytes"),
        "teachers.select_synthesis.ms": (
            get("teachers.select_synthesis", "ms"), "ms"),
        "teachers.select_synthesis.calls": (
            get("teachers.select_synthesis", "calls"), "count"),
        "teachers.step.self_ms": (get("teachers.step", "self_ms"), "ms"),
        "learners.loss_grad.calls": (
            get("learners.loss_grad", "calls"), "count"),
        "exam.construct_virtual_learner.ms": (
            get("exam.construct_virtual_learner", "ms"), "ms"),
        "exam.construct_virtual_learner.calls": (exams, "count"),
        "exam.approx_recover_sign.ms": (
            get("exam.approx_recover_sign", "ms"), "ms"),
        "exam.exact_recover_bijective.ms": (
            get("exam.exact_recover_bijective", "ms"), "ms"),
        "exam.query.calls": (get("exam.query", "calls"), "count"),
        "exam.query.ms": (get("exam.query", "ms"), "ms"),
        "exam.queries_per_exam": (
            get("exam.query", "calls") / exams if exams else 0, "count"),
        "exam.teach.ms": (get("exam.teach", "ms"), "ms"),
        "exam.teach.calls": (get("exam.teach", "calls"), "count"),
        "learners.forgetting_step.ms": (
            get("learners.forgetting_step", "ms"), "ms"),
        "rng.substream.calls": (get("rng.substream", "calls"), "count"),
        "rng.substream.ms": (get("rng.substream", "ms"), "ms"),
        "exam.white_box_reads": (black_box_reads, "count"),
    }
    for kind in TEACHERS:
        metrics[f"exam.white_box_reads.{kind}"] = (
            white_box.get(kind, 0), "count")
    metrics.update({
        "experiments.train_optimal.ms": (
            get("experiments.train_optimal", "ms"), "ms"),
        "experiments.run_experiment.self_ms": (
            get("experiments.run_experiment", "self_ms"), "ms"),
        "experiments.run_forgetting_scenario.self_ms": (
            get("experiments.run_forgetting_scenario", "self_ms"), "ms"),
        "feature_space.apply_map.calls": (
            get("feature_space.apply_map", "calls"), "count"),
        "feature_space.random_map.ms": (
            get("feature_space.random_map", "ms"), "ms"),
        "feature_space.spectral_stats.ms": (
            get("feature_space.spectral_stats", "ms"), "ms"),
        "experiments.write_trace.ms": (
            get("experiments.write_trace", "ms"), "ms"),
        "experiments.write_trace.bytes": (trace_bytes, "bytes"),
        "experiments.read_trace.ms": (
            get("experiments.read_trace", "ms"), "ms"),
        "config.load_config.ms": (get("config.load_config", "ms"), "ms"),
        "config.write_manifest.ms": (
            get("config.write_manifest", "ms"), "ms"),
        "svgchart.write_chart.ms": (get("svgchart.write_chart", "ms"), "ms"),
        "cli.import_s": (import_seconds(), "s"),
        "cli.pool_speedup": (single_s / untraced_s, "ratio"),
    })
    print(f"untraced run_s {untraced_s:.3f} s with {NPROC} workers"
          + (f", {single_s:.3f} s with 1 worker" if cli else ""))
    print(f"tracing overhead: traced run_s {traced_s:.3f} s - untraced "
          f"run_s {single_s:.3f} s = {traced_s - single_s:.3f} s")
    print("      total ms     self ms     calls  name")
    for name, t in sorted(totals.items(), key=lambda item: -item[1]["ms"]):
        print(f"  {t['ms']:12.1f} {t['self_ms']:11.1f} {t['calls']:9d}  "
              f"{name}")
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            attempted, failed, errors)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "teachsim", "__init__.py")):
        print(f"error: no teachsim source under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.update({k: v for k, v in child_env(NPROC).items()
                       if k.endswith("_THREADS")})

    work = os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = Workload(args.workload, args.seed, work)
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{wl.n_seeds} configs x {wl.steps} steps, {wl.per_run} per "
              f"process, trace {args.trace}")
        print(f"python {sys.version.split()[0]}, numpy "
              f"{importlib.metadata.version('numpy')}, nproc {NPROC}, "
              f"BLAS threads 1, TEACHSIM_THREADS {NPROC} "
              f"(1 in the traced run)")
        if args.trace:
            metrics, attempted, failed, errors = measure_per_layer(wl)
        else:
            metrics, attempted, failed, errors = measure_end_to_end(
                wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if metrics is None:
        print("error: no run of the workload completed", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
