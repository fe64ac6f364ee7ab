"""Shared test machinery: independent oracles and random instance generators."""

from __future__ import annotations

import copy
import gc
import os
import pickle
import random
import tracemalloc
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest

import routesvm
from routesvm import dataset_io
from routesvm.dataset_io import Dataset, TraceFormatError, read_trace_csv, write_trace_csv
from routesvm.svm import KernelSpec, LabeledExample, SvmModel
from routesvm.traffic_sim import LANE_COUNT, POINT_DTYPE, ScenarioConfig, Trace, make_trace


def dataset_of(examples) -> Dataset:
    """A Dataset of ``examples``' features and labels; none give an empty (x, y) dataset."""
    examples = list(examples)
    features = [e.features for e in examples] if examples else np.empty((0, 2))
    return Dataset(np.array(features, dtype=float), [e.label for e in examples])


def pickled_and_deep_copies(value) -> list:
    """``value`` through each pickle protocol, then through ``copy.deepcopy``."""
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    return [*(pickle.loads(pickle.dumps(value, p)) for p in protocols), copy.deepcopy(value)]


def peak_allocation(function, *args):
    """(result, peak bytes allocated) of ``function(*args)``, by tracemalloc,
    which sees numpy's buffers as well as Python's objects."""
    gc.collect()
    tracemalloc.start()
    try:
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hard_margin_oracle(points, labels):
    """Max-margin separating hyperplane by support-subset enumeration.

    Tries every candidate support set of size 2 (one point per class, the
    boundary is their perpendicular bisector) and size 3 (two same-class
    points define the boundary direction, offset midway to the third) and
    returns the feasible candidate with the largest margin as
    (unit_w, b, margin).  Independent of the SVM training path.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    pos = [p for p, y in zip(pts, labels) if y == 1]
    neg = [p for p, y in zip(pts, labels) if y == -1]
    best = None

    def feasible(w, b, margin):
        slack = 1e-9 * max(1.0, margin)
        return all(y * (w @ p + b) >= margin - slack for p, y in zip(pts, labels))

    for p in pos:
        for q in neg:
            diff = p - q
            dist = float(np.linalg.norm(diff))
            if dist < 1e-12:
                continue
            w = diff / dist
            b = -float(w @ (p + q)) / 2.0
            margin = dist / 2.0
            if feasible(w, b, margin) and (best is None or margin > best[2]):
                best = (w, b, margin)

    for same, other, sign in ((pos, neg, 1.0), (neg, pos, -1.0)):
        for i in range(len(same)):
            for j in range(i + 1, len(same)):
                a1, a2 = same[i], same[j]
                d = a2 - a1
                nd = float(np.linalg.norm(d))
                if nd < 1e-12:
                    continue
                normal = np.array([-d[1], d[0]]) / nd
                for c in other:
                    gap = float(normal @ (a1 - c))
                    if abs(gap) < 1e-12:
                        continue
                    w = normal * sign * np.sign(gap)
                    margin = abs(gap) / 2.0
                    b = -0.5 * float(w @ (a1 + c))
                    if feasible(w, b, margin) and (best is None or margin > best[2]):
                        best = (w, b, margin)
    return best


def random_separable_examples(rng: random.Random, max_pts: int = 6, min_margin: float = 0.1):
    """A small 2-D dataset separable with margin at least ``min_margin``."""
    while True:
        npts = rng.randint(2, max_pts)
        wx, wy = rng.uniform(-1, 1), rng.uniform(-1, 1)
        norm = (wx * wx + wy * wy) ** 0.5
        if norm < 0.3:
            continue
        b = rng.uniform(-0.5, 0.5)
        examples = []
        while len(examples) < npts:
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            value = (wx * x + wy * y + b) / norm
            if abs(value) < min_margin:
                continue
            examples.append(LabeledExample((x, y), 1 if value > 0 else -1))
        if {1, -1} <= {e.label for e in examples}:
            return examples


def random_overlapping_examples(rng: random.Random, n: int = 60):
    """Two overlapping Gaussian blobs, one per class."""
    examples = []
    for _ in range(n):
        label = 1 if rng.random() < 0.5 else -1
        cx = 1.0 if label == 1 else -1.0
        examples.append(LabeledExample((rng.gauss(cx, 1.0), rng.gauss(0.0, 1.0)), label))
    if {1, -1} <= {e.label for e in examples}:
        return examples
    return random_overlapping_examples(rng, n)


def random_linear_model(rng: random.Random, max_supports: int = 5) -> SvmModel:
    """A linear model with random supports and coefficients (not trained)."""
    n = rng.randint(1, max_supports)
    supports = tuple(
        LabeledExample(
            (rng.uniform(-3, 3), rng.uniform(-3, 3)), 1 if rng.random() < 0.5 else -1
        )
        for _ in range(n)
    )
    alphas = tuple(rng.uniform(0.1, 2.0) for _ in range(n))
    return SvmModel(
        kernel=KernelSpec.linear(),
        support_examples=supports,
        alphas=alphas,
        bias=rng.uniform(-2, 2),
    )


def reference_trace(config: ScenarioConfig) -> Trace:
    """The simulator as a scalar loop, one point at a time: an oracle for
    ``generate_trace``, which must match it bit for bit."""
    rng = random.Random(config.rng_seed)
    lo, hi = config.speed_range
    x0 = config.junction_x
    x1, y1 = config.ramp_end
    rows = []
    for i in range(config.num_vehicles):
        route = 1 if rng.random() < config.route2_probability else 0
        lane_y = config.lane_y[min(int(rng.random() * LANE_COUNT), LANE_COUNT - 1)]
        speed = lo + (hi - lo) * rng.random()
        for step in range(config.num_steps):
            x = config.spawn_spacing * i + speed * step
            y = lane_y
            if route == 1 and x >= x1:
                y = y1
            elif route == 1 and x > x0:
                s = (x - x0) / (x1 - x0)
                y = lane_y + (y1 - lane_y) * (3.0 * s * s - 2.0 * s ** 3)
            rows.append(
                (step, i, x, y + (2.0 * rng.random() - 1.0) * config.lane_noise, speed, route))
    ids = [f"v{i:04d}" for i in range(config.num_vehicles)]
    return make_trace(np.array(rows, dtype=POINT_DTYPE), ids)


def trace_from_rows(rows) -> Trace:
    """A trace from (step, vehicle_id, x, y, speed, route_label) rows in any order."""
    ids: dict[str, int] = {}
    points = [(step, ids.setdefault(vid, len(ids)), *rest) for step, vid, *rest in rows]
    return make_trace(np.array(points, dtype=POINT_DTYPE), list(ids))


def random_trace(rng: random.Random, n_vehicles: int = 5, n_steps: int = 4) -> Trace:
    """An arbitrary (not simulator-generated) trace for round-trip tests."""
    rows = []
    for i in range(n_vehicles):
        label = rng.randint(0, 1)
        speed = rng.uniform(0.5, 3.0)
        for step in range(n_steps):
            x, y = rng.uniform(-1e3, 1e3), rng.uniform(-5, 5)
            rows.append((step, f"v{i:04d}", x, y, speed, label))
    return trace_from_rows(rows)


def rows_of(trace: Trace) -> list[tuple]:
    """The trace's rows in order as (step, vehicle_id, x, y, speed, route_label)."""
    p = trace.points
    ids = [trace.vehicle_ids[v] for v in p["vehicle"].tolist()]
    rest = (p[f].tolist() for f in ("x", "y", "speed", "route_label"))
    return list(zip(p["step"].tolist(), ids, *rest))


def reference_trace_csv(trace: Trace, destination: str | Path) -> None:
    """The trace CSV written one f-string per row: an oracle for
    ``write_trace_csv``, which must match it byte for byte."""
    lines = ["step,vehicle_id,x,y,speed,route_label\n"]
    for step, vid, x, y, speed, route in rows_of(trace):
        lines.append(f"{step},{vid},{x:.17g},{y:.17g},{speed:.17g},{route}\n")
    Path(destination).write_bytes("".join(lines).encode("utf-8"))


def assert_writes_reference_bytes(trace: Trace, folder: Path) -> None:
    write_trace_csv(trace, folder / "trace.csv")
    reference_trace_csv(trace, folder / "reference.csv")
    assert (folder / "trace.csv").read_bytes() == (folder / "reference.csv").read_bytes()


def read_outcome(path: Path):
    """What ``read_trace_csv`` makes of ``path``: the trace's point bytes and
    ids, or its error message."""
    try:
        trace = read_trace_csv(path)
    except TraceFormatError as exc:
        return str(exc)
    return trace.points.tobytes(), trace.vehicle_ids


# Field texts that are not plain numbers, or are numbers only some parsers read.
JUNK_FIELDS = ["99999999999999999999999", "-9223372036854775809", "9223372036854775807", "nan",
               "inf", "-inf", "1e999", "", "2", "-0", "0x10", "1_0", " 3 ", "1.5", "\u0663"]


def kernel_and_fallback(path: Path) -> tuple:
    """``read_outcome(path)``, then the same with the reader's digit kernel
    declining every block, so that the row parser reads them all."""
    kernel = read_outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_io, "_parse_canonical_rows", lambda *args: None)
        return kernel, read_outcome(path)


def write_fcd_xml(trace: Trace, destination: str | Path, time_step: float = 0.5) -> None:
    """Export a trace in the floating-car-data XML shape.

    ``time`` attributes advance by ``time_step`` seconds, deliberately not
    equal to the integer step index, so ingestion has to renumber.
    """
    by_step: dict[int, list[tuple]] = {}
    for row in rows_of(trace):
        by_step.setdefault(row[0], []).append(row)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<fcd-export>"]
    for index, step in enumerate(sorted(by_step)):
        lines.append(f'  <timestep time="{index * time_step:.2f}">')
        for _, vid, x, y, speed, _ in by_step[step]:
            lines.append(
                f'    <vehicle id={quoteattr(vid)} x="{x:.17g}" y="{y:.17g}" '
                f'speed="{speed:.17g}" lane="ignored_0" angle="90.00"/>'
            )
        lines.append("  </timestep>")
    lines.append("</fcd-export>")
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def label_table_of(trace: Trace) -> dict[str, int]:
    return {vid: label for _, vid, *_, label in rows_of(trace)}


def enabled_simd_targets() -> list[str] | None:
    """The SIMD dispatch targets above numpy's baseline that numpy uses in this
    process, in its own order; None when numpy exposes no runtime CPU info.
    Each is a name ``NPY_DISABLE_CPU_FEATURES`` takes."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", None)
    dispatch = getattr(umath, "__cpu_dispatch__", None)
    if features is None or dispatch is None:
        return None
    return [target for target in dispatch if features.get(target)]


def subprocess_env(**variables: str) -> dict[str, str]:
    """This process's environment plus ``variables``, with the routesvm package
    and these helpers on PYTHONPATH: for a Python subprocess."""
    path = [str(Path(routesvm.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **variables}


def baseline_dispatch_env() -> dict[str, str] | None:
    """``subprocess_env`` with every SIMD target in ``enabled_simd_targets``
    added to ``NPY_DISABLE_CPU_FEATURES``, so that numpy runs its baseline
    loops; None when numpy exposes no runtime CPU info."""
    targets = enabled_simd_targets()
    if targets is None:
        return None
    disabled = f"{os.environ.get('NPY_DISABLE_CPU_FEATURES', '')} {' '.join(targets)}".strip()
    return subprocess_env(NPY_DISABLE_CPU_FEATURES=disabled)
