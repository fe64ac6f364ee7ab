"""Train/evaluate orchestration: accuracy sweeps and boundary summaries.

:func:`split_examples` is the one rule that draws an experiment's examples
from a trace: a training set, then one test set of each requested size,
every test set vehicle-disjoint from the training set.  A sweep trains one
model on the training set, evaluates it on each test set, and reports exact
correct counts per row so accuracies are rational numbers, not accumulated
floats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset_io import Dataset, InsufficientVehiclesError, derive_seed, sample_examples
from .svm import (
    NORM_FLOOR,
    KernelSpec,
    Standardizer,
    SvmModel,
    TrainConfig,
    extract_hyperplane,
    predict,
    train,
)
from .traffic_sim import Trace

__all__ = [
    "EmptyTestError",
    "BoundaryLine",
    "VerticalBoundary",
    "SweepRow",
    "EvaluationReport",
    "evaluate",
    "boundary_report",
    "train_position_model",
    "split_examples",
    "sweep_with_model",
    "accuracy_sweep",
    "report_to_csv",
    "format_boundary",
    "format_report",
]

class EmptyTestError(ValueError):
    pass


@dataclass(frozen=True)
class BoundaryLine:
    """Linear decision boundary in slope-intercept form: y = slope*x + intercept."""

    slope: float
    intercept: float


@dataclass(frozen=True)
class VerticalBoundary:
    """Degenerate boundary x = const (the weight on y vanished)."""

    x: float


@dataclass(frozen=True)
class SweepRow:
    test_size: int
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.test_size


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[SweepRow, ...]
    mean_accuracy: float | None  # None when the sweep had zero rows
    boundary: BoundaryLine | VerticalBoundary | None
    train_size: int | None  # None for a model file, which does not record it
    convergence_flag: bool


def evaluate(model: SvmModel, test: Dataset) -> tuple[int, float]:
    """Count correct classifications; returns (correct, accuracy)."""
    if not len(test.labels):
        raise EmptyTestError("test dataset is empty")
    correct = int(np.sum(predict(model, test.features) == test.labels))
    return correct, correct / len(test.labels)


def boundary_report(model: SvmModel) -> BoundaryLine | VerticalBoundary | None:
    """Decision line of a linear-kernel model; None when the model has none:
    a nonlinear kernel, no supports, or a numerically zero weight vector."""
    if model.kernel.family != "linear" or not model.support_examples:
        return None
    w, b = extract_hyperplane(model)
    w_x, w_y = float(w[0]), float(w[1])
    if abs(w_y) > NORM_FLOOR:
        return BoundaryLine(slope=-w_x / w_y, intercept=-b / w_y)
    if abs(w_x) > NORM_FLOOR:
        return VerticalBoundary(x=-b / w_x)
    return None


def train_position_model(
    data: Dataset, kernel: KernelSpec, cfg: TrainConfig = TrainConfig()
) -> SvmModel:
    """Train a route classifier on a dataset of raw positions, for any kernel.

    Position features span thousands of meters in x but only a couple of
    meters in y, so x would swamp every kernel.  The features are
    standardized with the training data's mean and standard deviation, the
    SVM is trained on the standardized examples, and the returned model
    carries the standardizer, so it takes raw positions and
    ``extract_hyperplane`` gives a linear boundary in raw meters.
    """
    if not len(data.labels):
        raise ValueError("training data is empty")
    scaler = Standardizer().fit(data.features)
    scaled = Dataset(scaler.transform(data.features), data.labels).examples
    return replace(train(scaled, kernel, cfg), scaler=scaler)


def split_examples(
    trace: Trace, train_size: int, test_sizes: list[int] | tuple[int, ...], seed: int
) -> tuple[Dataset, tuple[Dataset, ...]]:
    """The training set and one test set per size, in order.

    The training set is ``sample_examples(trace, train_size, seed)``; the test
    set of each size is drawn on the sub-stream ``derive_seed(seed, size)``
    from the vehicles not in the training set.  The sizes and the trace's
    vehicle count (``train_size + max(test_sizes)``) are checked before any
    draw.
    """
    if train_size < 0:
        raise ValueError(f"train size must be at least 0, got {train_size}")
    if min(test_sizes, default=1) < 1:
        raise ValueError(f"test sizes must be at least 1, got {min(test_sizes)}")
    needed, count = train_size + max(test_sizes, default=0), len(trace.vehicle_ids)
    if count < needed:
        raise InsufficientVehiclesError(f"need {needed} distinct vehicles, trace provides {count}")
    train_ds = sample_examples(trace, train_size, seed)
    return train_ds, tuple(
        sample_examples(trace, size, derive_seed(seed, size), exclude_vehicles=train_ds.vehicle_ids)
        for size in test_sizes
    )


def sweep_with_model(
    model: SvmModel, tests: tuple[Dataset, ...], train_size: int | None
) -> EvaluationReport:
    """Evaluate an existing model on each test set, one row per set."""
    rows = tuple(SweepRow(len(test.labels), evaluate(model, test)[0]) for test in tests)
    mean = sum(r.accuracy for r in rows) / len(rows) if rows else None
    boundary = boundary_report(model)
    converged = model.summary.converged if model.summary is not None else True
    return EvaluationReport(
        rows=rows,
        mean_accuracy=mean,
        boundary=boundary,
        train_size=train_size,
        convergence_flag=converged,
    )


def accuracy_sweep(
    trace: Trace,
    train_size: int,
    test_sizes: list[int] | tuple[int, ...],
    kernel: KernelSpec,
    cfg: TrainConfig = TrainConfig(),
    seed: int = 0,
) -> EvaluationReport:
    """Train once on the training set of :func:`split_examples`, then score
    each of its test sets.  Deterministic in (trace, sizes, kernel, cfg, seed).
    """
    train_ds, tests = split_examples(trace, train_size, test_sizes, seed)
    model = train_position_model(train_ds, kernel, cfg)
    return sweep_with_model(model, tests, train_size)


def report_to_csv(report: EvaluationReport, destination: str | Path) -> None:
    lines = ["test_size,correct,accuracy"]
    for r in report.rows:
        lines.append(f"{r.test_size},{r.correct},{r.accuracy!r}")
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def format_boundary(boundary: BoundaryLine | VerticalBoundary | None) -> str | None:
    """The one-line boundary summary; None when there is no linear boundary."""
    if isinstance(boundary, BoundaryLine):
        return f"boundary: y = {boundary.slope:.6g}x + {boundary.intercept:.6g}"
    if isinstance(boundary, VerticalBoundary):
        return f"boundary: vertical at x = {boundary.x:.6g}"
    return None


def format_report(report: EvaluationReport) -> str:
    """Human-readable accuracy table (per-size rows plus the mean)."""
    trained = "model file" if report.train_size is None else f"{report.train_size} training examples"
    rows = [("Testing examples", trained)]
    for r in report.rows:
        rows.append((str(r.test_size), f"{100.0 * r.accuracy:.2f}%"))
    if report.mean_accuracy is not None:
        rows.append(("mean", f"{100.0 * report.mean_accuracy:.2f}%"))
    else:
        rows.append(("mean", "undefined (no rows)"))
    left_width = max(len(left) for left, _ in rows)
    lines = [f"{left.ljust(left_width)}  {right}" for left, right in rows]
    boundary = format_boundary(report.boundary)
    if boundary is not None:
        lines.append(boundary)
    if not report.convergence_flag:
        lines.append("warning: training did not fully converge")
    return "\n".join(lines)
