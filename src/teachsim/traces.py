"""Evaluation traces: the row format, its file I/O and its summaries.

A trace is the list of TraceRow a run records.  This module needs only
the standard library, so `teachsim report` and `teachsim plot`, which
read traces and never teach, start without numpy.
"""

import csv
import math
from typing import NamedTuple


class TraceFormatError(ValueError):
    """A trace file violates the expected column layout."""


class TraceRow(NamedTuple):
    """State of a run after `iteration` teaching steps."""
    iteration: int
    objective: float
    param_dist: float
    test_accuracy: float | None
    teaching_samples: int
    query_samples: int


class ExponentialFit(NamedTuple):
    """Least-squares exponential-decay summary of a trace."""
    rate: float
    log_rmse: float
    n_points: int


def exponential_fit(rows):
    """Fit param_dist ~ C * rate^iteration by least squares in log space.

    Rows at or below 1e-12 are excluded (they sit on the noise floor);
    at least 10 usable rows, spanning at least two iterations, are
    required.  The line is the closed form on centred sums: slope =
    Sxy / Sxx, and the intercept puts it through the centroid.
    """
    pts = [(r.iteration, r.param_dist) for r in rows if r.param_dist > 1e-12]
    if len(pts) < 10:
        raise ValueError(
            f"need at least 10 rows above the floor to fit, got {len(pts)}")
    xs = [float(p[0]) for p in pts]
    ys = [math.log(p[1]) for p in pts]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    dy = [y - y_mean for y in ys]
    sxx = math.fsum(a * a for a in dx)
    if sxx == 0.0:
        raise ValueError(
            f"all {len(pts)} rows above the floor share iteration "
            f"{pts[0][0]}; no decay rate to fit")
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    rmse = math.sqrt(math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
                     / len(pts))
    return ExponentialFit(rate=math.exp(slope), log_rmse=rmse,
                          n_points=len(pts))


def samples_to_threshold(rows, fraction=0.1):
    """Teaching samples spent when param_dist first drops to the given
    fraction of its initial value; None if the trace never gets there."""
    if not rows:
        raise ValueError("empty trace")
    target = fraction * rows[0].param_dist
    for row in rows:
        if row.param_dist <= target:
            return row.teaching_samples
    return None


_TRACE_COLUMNS = ("iteration", "objective", "param_dist", "test_accuracy",
                  "teaching_samples", "query_samples")


def write_trace(path, rows):
    """Write a trace as delimited text, 17 significant digits per float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        for r in rows:
            acc = "" if r.test_accuracy is None else f"{r.test_accuracy:.17g}"
            writer.writerow([str(r.iteration), f"{r.objective:.17g}",
                             f"{r.param_dist:.17g}", acc,
                             str(r.teaching_samples),
                             str(r.query_samples)])


def read_trace(path):
    """Read a trace file written by write_trace (floats bit-equal).

    A run records at least its first row, so a file with a header and
    no rows is malformed (TraceFormatError), as are a wrong header and a
    bad row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise TraceFormatError(f"{path}: empty trace file")
        if header != _TRACE_COLUMNS:
            raise TraceFormatError(
                f"{path}: header {header} != expected {_TRACE_COLUMNS}")
        rows = []
        for r, raw in enumerate(reader, start=2):
            if len(raw) != len(_TRACE_COLUMNS):
                raise TraceFormatError(
                    f"{path}: row {r} has {len(raw)} fields, expected "
                    f"{len(_TRACE_COLUMNS)}")
            try:
                rows.append(TraceRow(
                    iteration=int(raw[0]),
                    objective=float(raw[1]),
                    param_dist=float(raw[2]),
                    test_accuracy=None if raw[3] == "" else float(raw[3]),
                    teaching_samples=int(raw[4]),
                    query_samples=int(raw[5])))
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}: row {r}: {exc}") from None
    if not rows:
        raise TraceFormatError(f"{path}: no data rows")
    return rows
