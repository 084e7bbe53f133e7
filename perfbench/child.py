"""One workload process of the teachsim benchmark.

    python3 child.py experiment CONFIGS.json OUT_DIR
        Run each config of CONFIGS.json with run_experiment and write its
        trace to OUT_DIR/trace_<i>.csv.
    python3 child.py traced SPANS.json RUN_ID experiment CONFIGS.json OUT_DIR
    python3 child.py traced SPANS.json RUN_ID cli ARG...
        The same experiment run, or one `teachsim` CLI command, with the
        package's public functions wrapped by the tracer; the spans are
        written to SPANS.json on exit.

The package sees only the generated configs, never the benchmark seed.
"""

import json
import os
import sys


def run_experiments(config_path, out_dir):
    import teachsim as ts
    with open(config_path) as fh:
        specs = json.load(fh)
    for i, spec in enumerate(specs):
        config = ts.ExperimentConfig(
            dataset=ts.DatasetSpec(**spec["dataset"]),
            recovery=ts.RecoveryConfig(**spec["recovery"]),
            **spec["run"])
        rows = ts.run_experiment(config)
        ts.write_trace(os.path.join(out_dir, f"trace_{i}.csv"), rows)
    return 0


def run_command(argv):
    if argv[0] == "experiment":
        return run_experiments(argv[1], argv[2])
    if argv[0] == "cli":
        from teachsim import cli
        return cli.main(argv[1:])
    raise SystemExit(f"unknown command {argv[0]!r}")


def main(argv):
    if argv[0] != "traced":
        return run_command(argv)
    spans_path, run_id = argv[1], argv[2]
    from tracer import Tracer
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return run_command(argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
