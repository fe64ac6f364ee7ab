"""The traced functions of each layer and the per-layer metrics made from
their spans.

Layers are the package's modules.  Times are busy seconds per op (``s``)
or busy seconds minus child spans per op (``self_s``); work counts are per
op, except the ``svm.train`` solver figures, which are per training call.
``failed`` counts exceptions raised inside the wrapped call over the run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from routesvm.svm import TrainConfig, decision_values, kernel_matrix

from . import checks

SCALING_SIZES = (400, 1000, 2000, 4000)


def _train_counts(tracer, model, args) -> dict:
    examples = args[0]
    cfg = args[2] if len(args) > 2 else TrainConfig()
    return {
        "passes": model.summary.passes,
        "n_support": model.summary.n_support,
        "dual_objective": checks.dual_objective(kernel_matrix, model),
        "kkt_violations": checks.kkt_violations(decision_values, model, examples, cfg.C, cfg.tol),
    }


# Traced function -> counter of its span (None: time only).
TRACED = {
    "traffic_sim.generate_trace": lambda t, r, a: {"points": len(r.points)},
    "dataset_io.write_trace_csv": lambda t, r, a: {"bytes": Path(a[1]).stat().st_size},
    "dataset_io.read_trace_csv": lambda t, r, a: {
        "bytes": Path(a[0]).stat().st_size,
        "points": len(r.points),
    },
    "dataset_io.sample_examples": lambda t, r, a: {"examples": len(r.examples)},
    "dataset_io.write_examples_csv": None,
    "svm.kernel_matrix": lambda t, r, a: {"entries": int(np.size(r))},
    "svm.train": _train_counts,
    "svm.decision_values": lambda t, r, a: {"points": len(r)},
    "svm.save_model": None,
    "eval_pipeline.train_position_model": None,
    "eval_pipeline.sweep_with_model": None,
    "eval_pipeline.evaluate": None,
    "plotting.render_svg": lambda t, r, a: {"bytes": len(r.encode("utf-8"))},
    "cli.main": None,
}

# (metric, unit, better, span, field, divisor): field is "s", "self_s",
# "calls" or a count key; divisor is "op" (per traced op) or "call".
SPAN_METRICS = [
    ("traffic_sim.generate_trace.s", "s", "lower", "traffic_sim.generate_trace", "s", "op"),
    ("traffic_sim.generate_trace.points", "count", "lower", "traffic_sim.generate_trace", "points", "op"),
    ("dataset_io.write_trace_csv.s", "s", "lower", "dataset_io.write_trace_csv", "s", "op"),
    ("dataset_io.write_trace_csv.bytes", "B", "lower", "dataset_io.write_trace_csv", "bytes", "op"),
    ("dataset_io.read_trace_csv.s", "s", "lower", "dataset_io.read_trace_csv", "s", "op"),
    ("dataset_io.read_trace_csv.bytes", "B", "lower", "dataset_io.read_trace_csv", "bytes", "op"),
    ("dataset_io.read_trace_csv.points", "count", "lower", "dataset_io.read_trace_csv", "points", "op"),
    ("dataset_io.sample_examples.s", "s", "lower", "dataset_io.sample_examples", "s", "op"),
    ("dataset_io.sample_examples.calls", "count", "lower", "dataset_io.sample_examples", "calls", "op"),
    ("dataset_io.sample_examples.examples", "count", "lower", "dataset_io.sample_examples", "examples", "op"),
    ("dataset_io.write_examples_csv.s", "s", "lower", "dataset_io.write_examples_csv", "s", "op"),
    ("svm.kernel_matrix.s", "s", "lower", "svm.kernel_matrix", "s", "op"),
    ("svm.kernel_matrix.calls", "count", "lower", "svm.kernel_matrix", "calls", "op"),
    ("svm.kernel_matrix.entries", "count", "lower", "svm.kernel_matrix", "entries", "op"),
    ("svm.train.self_s", "s", "lower", "svm.train", "self_s", "op"),
    ("svm.train.calls", "count", "lower", "svm.train", "calls", "op"),
    ("svm.train.passes", "count", "lower", "svm.train", "passes", "call"),
    ("svm.train.n_support", "count", "lower", "svm.train", "n_support", "call"),
    ("svm.train.dual_objective", "value", "higher", "svm.train", "dual_objective", "call"),
    ("svm.train.kkt_violations", "count", "lower", "svm.train", "kkt_violations", "call"),
    ("svm.decision_values.s", "s", "lower", "svm.decision_values", "s", "op"),
    ("svm.decision_values.points", "count", "lower", "svm.decision_values", "points", "op"),
    ("svm.save_model.s", "s", "lower", "svm.save_model", "s", "op"),
    ("eval_pipeline.train_position_model.self_s", "s", "lower",
     "eval_pipeline.train_position_model", "self_s", "op"),
    ("eval_pipeline.sweep_with_model.self_s", "s", "lower",
     "eval_pipeline.sweep_with_model", "self_s", "op"),
    ("eval_pipeline.evaluate.s", "s", "lower", "eval_pipeline.evaluate", "s", "op"),
    ("eval_pipeline.evaluate.calls", "count", "lower", "eval_pipeline.evaluate", "calls", "op"),
    ("plotting.render_svg.s", "s", "lower", "plotting.render_svg", "s", "op"),
    ("plotting.render_svg.bytes", "B", "lower", "plotting.render_svg", "bytes", "op"),
    ("plotting.render_svg.calls", "count", "lower", "plotting.render_svg", "calls", "op"),
    ("cli.main.self_s", "s", "lower", "cli.main", "self_s", "op"),
]
SPAN_METRICS += [
    (f"{span}.failed", "count", "lower", span, "failed", "run") for span in TRACED
]

# Metrics measured in passes of their own (zero on workloads without them).
EXTRA_METRICS = [
    ("svm.kernel_matrix.bytes_computed", "B", "lower"),
    ("dataset_io.read_trace_csv.peak_alloc_mb", "MB", "lower"),
    ("perfbench.trace_overhead_s", "s", "lower"),
]
for _n in SCALING_SIZES:
    EXTRA_METRICS += [
        (f"svm.train.linear.n{_n}.s", "s", "lower"),
        (f"svm.train.linear.n{_n}.passes", "count", "lower"),
        (f"svm.train.linear.n{_n}.converged", "bool", "higher"),
    ]

PER_LAYER = [(m, u, b) for m, u, b, *_ in SPAN_METRICS] + EXTRA_METRICS


def targets(modules: dict) -> list[tuple]:
    """(module, function, counter) for the tracer, from TRACED's names."""
    out = []
    for name, counter in TRACED.items():
        module, attr = name.split(".")
        out.append((modules[module], attr, counter))
    return out


def span_metrics(tracer, ops: int) -> dict[str, float]:
    """Per-layer values of every SPAN_METRICS entry over ``ops`` traced ops."""
    totals = {span: tracer.totals(span) for span in TRACED}
    values = {}
    for metric, _, _, span, fld, per in SPAN_METRICS:
        tot = totals[span]
        raw = tot[fld] if fld in ("s", "self_s", "calls", "failed") else tot["counts"].get(fld, 0.0)
        divisor = {"op": ops, "call": tot["calls"], "run": 1}[per]
        values[metric] = raw / divisor if divisor else 0.0
    values["svm.kernel_matrix.bytes_computed"] = 8 * values["svm.kernel_matrix.entries"]
    return values
