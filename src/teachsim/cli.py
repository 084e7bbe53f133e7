"""Command-line front end.

Subcommands: datagen (materialize a dataset as CSV), run (execute a
teaching scenario and write traces plus a reproducibility manifest),
plot (render traces to SVG), report (summarize traces as text).

Exit codes: 0 success, 2 configuration problems, 3 runtime failures,
4 I/O failures.  Errors print a single `error[kind]: message` line on
stderr so scripted callers can grep for the failure class.
"""

import argparse
import os
import shlex
import sys

# Only numpy-free modules at the top: report, plot, --help and --version
# never load numpy.  run and datagen import the config loader and the
# runners inside their functions.
from .svgchart import write_chart
from .traces import (TraceFormatError, exponential_fit, read_trace,
                     samples_to_threshold, write_trace)

_EXIT_CONFIG = 2
_EXIT_RUNTIME = 3
_EXIT_IO = 4


class _CliError(Exception):
    def __init__(self, kind, code, message):
        super().__init__(message)
        self.kind = kind
        self.code = code


def _fail(kind, code, message):
    raise _CliError(kind, code, message)


def _overrides_from_args(args):
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides[("run", "seed")] = str(args.seed)
    if getattr(args, "scenario", None) is not None:
        overrides[("scenario", "kind")] = args.scenario
    if getattr(args, "sigma_forget", None) is not None:
        overrides[("scenario", "sigma_forget")] = str(args.sigma_forget)
    if getattr(args, "teacher", None) is not None:
        overrides[("teacher", "kind")] = args.teacher
    return overrides


def _parse_seed_range(text):
    parts = text.split("..")
    if len(parts) != 2:
        _fail("config", _EXIT_CONFIG,
              f"--seeds expects A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        _fail("config", _EXIT_CONFIG,
              f"--seeds expects integer endpoints, got {text!r}")
    if min(lo, hi) < 0:
        _fail("config", _EXIT_CONFIG,
              f"--seeds endpoints must be >= 0, got {text!r}")
    if hi < lo:
        _fail("config", _EXIT_CONFIG,
              f"--seeds range is empty: {text}")
    return list(range(lo, hi + 1))


def _thread_budget(n_jobs):
    raw = os.environ.get("TEACHSIM_THREADS", "")
    if raw:
        try:
            budget = int(raw)
        except ValueError:
            _fail("config", _EXIT_CONFIG,
                  f"TEACHSIM_THREADS must be an integer, got {raw!r}")
        if budget < 1:
            _fail("config", _EXIT_CONFIG,
                  f"TEACHSIM_THREADS must be >= 1, got {budget}")
    elif hasattr(os, "sched_getaffinity"):
        # The CPUs this process may run on, not all of the machine's.
        budget = len(os.sched_getaffinity(0))
    else:
        budget = os.cpu_count() or 1
    return min(budget, n_jobs)


def _execute(config, scenario):
    """Run a scenario; returns {artifact label: trace rows}."""
    from .experiments import (run_experiment, run_forgetting_scenario,
                              run_multi_teacher)
    if scenario.kind == "standard":
        return {"trace": run_experiment(config)}
    if scenario.kind == "forgetting":
        traces = run_forgetting_scenario(config, scenario.sigma_forget)
        return {f"trace_{kind}": rows for kind, rows in traces.items()}
    return {"trace": run_multi_teacher(config, scenario.n_teachers,
                                       scenario.switch_points)}


def _write_outputs(out_dir, config, scenario, results, command):
    from .config import write_manifest
    os.makedirs(out_dir, exist_ok=True)
    artifacts = {}
    for label, rows in results.items():
        name = f"{label}.csv"
        write_trace(os.path.join(out_dir, name), rows)
        artifacts[label] = name
    write_manifest(os.path.join(out_dir, "manifest.ini"), config, scenario,
                   command=command, artifacts=artifacts)
    return artifacts


def _run_one_seed(job):
    """One seed of the multi-seed sweep: run it and write its outputs."""
    from .config import apply_master_seed
    config, scenario, master, out_dir, command = job
    cfg, scn = apply_master_seed(config, scenario, master)
    results = _execute(cfg, scn)
    _write_outputs(out_dir, cfg, scn, results, command)
    return master, sorted(results)


def _run_pooled(job):
    """Pool entry point (picklable): finds _run_one_seed by name."""
    return _run_one_seed(job)


def _cmd_datagen(args, command):
    from .config import load_config
    from .experiments import _build_data, write_tabular
    config, _ = load_config(args.config, _overrides_from_args(args))
    features, labels = _build_data(config)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    write_tabular(args.out, features, labels, config.label_column)
    print(f"wrote {args.out} ({features.shape[0]} rows, "
          f"{features.shape[1]} features)")
    return 0


def _cmd_run(args, command):
    from .config import load_config
    config, scenario = load_config(args.config, _overrides_from_args(args))
    if args.seeds is not None:
        masters = _parse_seed_range(args.seeds)
        jobs = [(config, scenario, m,
                 os.path.join(args.out, f"seed_{m}"), command)
                for m in masters]
        workers = _thread_budget(len(jobs))
        if workers == 1:
            done = [_run_one_seed(job) for job in jobs]
        else:
            # The parent runs seeds 0, W, 2W, ... and W - 1 workers the
            # rest; the first error cancels the seeds not yet started.
            # Imported here: report and plot never start a pool.
            from concurrent.futures import ProcessPoolExecutor, as_completed
            done = [None] * len(jobs)
            pool = ProcessPoolExecutor(max_workers=workers - 1)
            try:
                futures = {pool.submit(_run_pooled, job): i
                           for i, job in enumerate(jobs) if i % workers}
                for i in range(0, len(jobs), workers):
                    for future in futures:
                        if future.done():
                            future.result()  # re-raises a worker's error
                    done[i] = _run_one_seed(jobs[i])
                for future in as_completed(futures):
                    done[futures[future]] = future.result()
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
        for master, labels in done:
            print(f"seed {master}: wrote {', '.join(labels)} in "
                  f"{os.path.join(args.out, f'seed_{master}')}")
        return 0
    results = _execute(config, scenario)
    artifacts = _write_outputs(args.out, config, scenario, results, command)
    for label in sorted(artifacts):
        rows = results[label]
        final = rows[-1]
        print(f"{label}: {final.iteration} iterations, "
              f"param_dist {final.param_dist:.6g}, "
              f"{final.teaching_samples} teaching samples, "
              f"{final.query_samples} queries "
              f"-> {os.path.join(args.out, artifacts[label])}")
    print(f"manifest -> {os.path.join(args.out, 'manifest.ini')}")
    return 0


_METRICS = ("param_dist", "objective", "test_accuracy")


def _cmd_plot(args, command):
    series = []
    for path in args.traces:
        rows = read_trace(path)
        label = os.path.splitext(os.path.basename(path))[0]
        pts = [(r.iteration, getattr(r, args.metric)) for r in rows
               if getattr(r, args.metric) is not None]
        if not pts:
            _fail("runtime", _EXIT_RUNTIME,
                  f"{path}: no values for metric {args.metric}")
        series.append((label, [p[0] for p in pts], [p[1] for p in pts]))
    write_chart(args.out, series, title=args.title or args.metric,
                xlabel="iteration", ylabel=args.metric, log_y=args.log_y)
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args, command):
    for path in args.traces:
        rows = read_trace(path)
        final = rows[-1]
        try:
            fit = exponential_fit(rows)
            rate = f"{fit.rate:.4f} (rmse {fit.log_rmse:.3f})"
        except ValueError:
            rate = "n/a"
        reach = samples_to_threshold(rows)
        reach_txt = "never" if reach is None else str(reach)
        acc = ("" if final.test_accuracy is None
               else f", accuracy {final.test_accuracy:.4f}")
        print(f"{path}:")
        print(f"  iterations {final.iteration}, final param_dist "
              f"{final.param_dist:.6g}{acc}")
        print(f"  teaching samples {final.teaching_samples}, queries "
              f"{final.query_samples}")
        print(f"  decay rate per iteration {rate}, samples to 10% "
              f"distance {reach_txt}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="teachsim",
        description="Iterative teaching of a remote linear student "
                    "across a feature-space map.")
    from . import __version__
    parser.add_argument("--version", action="version",
                        version=f"teachsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a dataset CSV")
    p.add_argument("--config", required=True, help="config file (INI)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, help="master seed override")
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("run", help="run a teaching scenario")
    p.add_argument("--config", required=True, help="config file (INI)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--seeds", help="inclusive master seed range A..B; "
                   "writes per-seed subdirectories.  Runs on min(budget, "
                   "seeds) processes W, this one included, where the budget "
                   "is TEACHSIM_THREADS or the usable CPUs; this process "
                   "runs seeds 0, W, 2W, ... of the range, the other W - 1 "
                   "the rest in order.  The outputs do not depend on W")
    p.add_argument("--scenario", help="scenario override")
    p.add_argument("--sigma-forget", type=float, dest="sigma_forget",
                   help="forgetting noise scale override")
    p.add_argument("--teacher", help="teacher kind override")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("plot", help="render traces to an SVG chart")
    p.add_argument("traces", nargs="+", help="trace CSV files")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--metric", choices=_METRICS, default="param_dist")
    p.add_argument("--log-y", action="store_true", dest="log_y")
    p.add_argument("--title", default="")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("report", help="summarize traces as text")
    p.add_argument("traces", nargs="+", help="trace CSV files")
    p.set_defaults(func=_cmd_report)
    return parser


def _config_error():
    from .config import ConfigError
    return ConfigError


def _runtime_errors():
    from .exam import RankDeficientError
    from .experiments import TrainingError
    from .learners import SaturationError
    return TrainingError, RankDeficientError, SaturationError, ValueError


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = shlex.join(["teachsim"] + argv)
    try:
        return args.func(args, command)
    except _CliError as exc:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)
        return exc.code
    except TraceFormatError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return _EXIT_IO
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return _EXIT_IO
    # An except expression is evaluated only when an exception reaches
    # it, so these numpy-loading imports run on the error path alone.
    except _config_error() as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except _runtime_errors() as exc:
        message = " ".join(str(exc).split())
        print(f"error[runtime]: {message}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
