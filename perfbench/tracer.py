"""Outside-in tracing of the teachsim package.

The tracer wraps public functions and methods of the package from the
outside, so the package source stays untouched.  Each wrapped call to a
spanned function records a span (name, start, end, parent); hot leaf
functions are only counted (`RemoteLearner.query` with its summed time),
because a span per call would cost more than the call.  Spans stay in memory and
are written once, as JSON, when the traced process ends.

A function imported by name into another module (`from .learners import
loss_grad`) is a second reference to the same object, so every module of
the package is scanned and each reference is replaced.
"""

import functools
import json
import os
import sys
import time

# (module, function) pairs recorded as spans, named "<module>.<function>".
SPANNED = (
    ("teachers", "select_pool"),
    ("teachers", "select_synthesis"),
    ("exam", "construct_virtual_learner"),
    ("exam", "approx_recover_sign"),
    ("exam", "exact_recover_bijective"),
    ("learners", "forgetting_step"),
    ("rng", "substream"),
    ("experiments", "train_optimal"),
    ("experiments", "run_experiment"),
    ("experiments", "run_forgetting_scenario"),
    ("experiments", "write_trace"),
    ("experiments", "read_trace"),
    ("feature_space", "random_map"),
    ("feature_space", "spectral_stats"),
    ("config", "load_config"),
    ("config", "write_manifest"),
    ("svgchart", "write_chart"),
)

# Hot leaves: calls are counted, without a span or a time.
COUNTED = (
    ("learners", "loss_grad"),
    ("feature_space", "apply_map"),
)

_TEACHER_KIND = {
    "ActiveTeacher": "active",
    "LazyTeacher": "lazy",
    "OmniscientTeacher": "omniscient",
    "RandomTeacher": "random",
}


class Tracer:
    """Span and counter store of one traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self.counts = {}  # name -> [calls, seconds]
        self.white_box_reads = {kind: 0 for kind in _TEACHER_KIND.values()}
        self._teachers = []
        self.trace_bytes = 0
        self.pool_shape = None  # (gamma grid size, pool size, itemsize)

    def span(self, name, fn):
        spans, opened, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, opened[-1] if opened else -1])
            opened.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                opened.pop()
        return wrapper

    def counter(self, name, fn, timed=False):
        slot = self.counts.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        if not timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                slot[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        @functools.wraps(fn)
        def timed_wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += clock() - start
        return timed_wrapper

    def teacher_step(self, fn):
        spanned = self.span("teachers.step", fn)

        @functools.wraps(fn)
        def wrapper(teacher, remote):
            self._teachers.append(_TEACHER_KIND[type(teacher).__name__])
            try:
                return spanned(teacher, remote)
            finally:
                self._teachers.pop()
        return wrapper

    def observe_parameters(self, fn):
        @functools.wraps(fn)
        def wrapper(remote):
            kind = self._teachers[-1] if self._teachers else "harness"
            self.white_box_reads[kind] = self.white_box_reads.get(kind, 0) + 1
            return fn(remote)
        return wrapper

    def select_pool(self, fn):
        spanned = self.span("teachers.select_pool", fn)

        @functools.wraps(fn)
        def wrapper(v, v_star, mode, *args, **kwargs):
            self.pool_shape = (len(mode.gamma_grid), mode.pool_x.shape[0],
                               mode.pool_x.itemsize)
            return spanned(v, v_star, mode, *args, **kwargs)
        return wrapper

    def write_trace(self, fn):
        spanned = self.span("experiments.write_trace", fn)

        @functools.wraps(fn)
        def wrapper(path, rows):
            result = spanned(path, rows)
            self.trace_bytes += os.path.getsize(path)
            return result
        return wrapper

    def install(self):
        """Wrap the package's functions in every module that binds them."""
        from teachsim import cli, exam, teachers  # noqa: F401  cli binds
        modules = [m for name, m in sys.modules.items()
                   if name == "teachsim" or name.startswith("teachsim.")]
        special = {("teachers", "select_pool"): self.select_pool,
                   ("experiments", "write_trace"): self.write_trace}
        for module, name in SPANNED:
            original = getattr(sys.modules[f"teachsim.{module}"], name)
            make = special.get((module, name))
            wrapped = (make(original) if make
                       else self.span(f"{module}.{name}", original))
            _rebind(modules, original, wrapped)
        for module, name in COUNTED:
            original = getattr(sys.modules[f"teachsim.{module}"], name)
            _rebind(modules, original,
                    self.counter(f"{module}.{name}", original))
        remote = exam.RemoteLearner
        remote.query = self.counter("exam.query", remote.query, timed=True)
        remote.teach = self.span("exam.teach", remote.teach)
        remote.observe_parameters = self.observe_parameters(
            remote.observe_parameters)
        for cls in (teachers.ActiveTeacher, teachers.OmniscientTeacher,
                    teachers.RandomTeacher):
            cls.step = self.teacher_step(cls.step)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": self.counts,
                       "white_box_reads": self.white_box_reads,
                       "trace_bytes": self.trace_bytes,
                       "pool_shape": self.pool_shape}, fh)


def _rebind(modules, original, wrapped):
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def summarize(dumps):
    """Per-name totals over the span dumps of one traced run.

    Returns {name: {"calls", "ms", "self_ms"}} for spans and counters
    (counters have no self time) plus the merged side records.
    """
    totals = {}
    white_box = {}
    trace_bytes = 0
    pool_shape = None
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child_time):
            slot = totals.setdefault(name, {"calls": 0, "ms": 0.0,
                                            "self_ms": 0.0})
            slot["calls"] += 1
            slot["ms"] += (end - start) * 1e3
            slot["self_ms"] += (end - start - covered) * 1e3
        for name, (calls, seconds) in dump["counts"].items():
            slot = totals.setdefault(name, {"calls": 0, "ms": 0.0,
                                            "self_ms": 0.0})
            slot["calls"] += calls
            slot["ms"] += seconds * 1e3
        for kind, reads in dump["white_box_reads"].items():
            white_box[kind] = white_box.get(kind, 0) + reads
        trace_bytes += dump["trace_bytes"]
        pool_shape = dump["pool_shape"] or pool_shape
    return totals, white_box, trace_bytes, pool_shape
