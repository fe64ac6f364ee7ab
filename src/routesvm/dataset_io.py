"""Trace persistence, external-data ingestion, and example sampling.

File formats
------------
Trace CSV      header ``step,vehicle_id,x,y,speed,route_label``, one row per
               point in (step, vehicle_id) order, floats at 17 significant
               digits, LF line endings, UTF-8.
FCD XML        a subset of SUMO's floating-car-data export: ``timestep``
               elements (attribute ``time``) containing ``vehicle`` elements
               (attributes ``id``, ``x``, ``y``, ``speed``).  All other
               elements and attributes are ignored.
Label sidecar  CSV with header ``vehicle_id,route_label`` mapping each
               vehicle to its route outcome (0 or 1).
Examples CSV   header ``x,y,label`` with labels already in {+1, -1}.

Every x, y and speed value must be finite, a (step, vehicle_id) pair occurs
once and a vehicle keeps one route label; readers raise :class:`TraceFormatError`.

Route labels are mapped to classes exactly once, here: route 0 -> +1,
route 1 -> -1.  No other module converts labels.
"""

from __future__ import annotations

import logging
import math
import random
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path

from .svm import LabeledExample
from .traffic_sim import Trace, TrajectoryPoint

__all__ = [
    "TraceFormatError",
    "InsufficientVehiclesError",
    "Dataset",
    "LabelTable",
    "label_to_class",
    "write_trace_csv",
    "read_trace_csv",
    "read_fcd_xml",
    "read_label_csv",
    "write_label_csv",
    "write_examples_csv",
    "read_examples_csv",
    "sample_examples",
    "derive_seed",
]

log = logging.getLogger(__name__)

TRACE_HEADER = "step,vehicle_id,x,y,speed,route_label"
LABEL_HEADER = "vehicle_id,route_label"
EXAMPLES_HEADER = "x,y,label"

LabelTable = dict[str, int]


class TraceFormatError(ValueError):
    """A trace/label/example file does not match its documented format."""


class InsufficientVehiclesError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Sampled labeled examples plus the provenance needed to reproduce them."""

    examples: tuple[LabeledExample, ...]
    provenance: str  # "generated" | "imported"
    seed: int
    vehicle_ids: tuple[str, ...] = ()


def label_to_class(route_label: int) -> int:
    """The canonical route-label to class mapping: 0 -> +1, 1 -> -1."""
    if route_label not in (0, 1):
        raise ValueError(f"route_label must be 0 or 1, got {route_label}")
    return 1 if route_label == 0 else -1


def _f17(v: float) -> str:
    return format(float(v), ".17g")


def _require_finite(where: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise TraceFormatError(f"{where}: non-finite value")


def _canonical_trace(points: list[TrajectoryPoint]) -> Trace:
    """Sort points into (step, vehicle_id) order, rejecting a repeated
    (step, vehicle_id) and a vehicle whose route label changes."""
    points.sort(key=lambda p: (p.step, p.vehicle_id))
    routes: dict[str, int] = {}
    prev_step = prev_vid = None
    for p in points:
        step, vid, route = p.step, p.vehicle_id, p.route_label
        if step == prev_step and vid == prev_vid:
            raise TraceFormatError(f"vehicle {vid!r}: duplicate row at step {step}")
        if routes.setdefault(vid, route) != route:
            raise TraceFormatError(f"vehicle {vid!r}: route_label changes between rows")
        prev_step, prev_vid = step, vid
    return Trace(points=tuple(points))


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------


def write_trace_csv(trace: Trace, destination: str | Path) -> None:
    """Write the trace in canonical row order; see the module docstring."""
    lines = [TRACE_HEADER]
    for p in trace.points:
        lines.append(
            f"{p.step},{p.vehicle_id},{_f17(p.x)},{_f17(p.y)},{_f17(p.speed)},{p.route_label}"
        )
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_trace_csv(source: str | Path) -> Trace:
    """Inverse of :func:`write_trace_csv`; rows are re-sorted into canonical
    (step, vehicle_id) order and validated as the module docstring says.  The
    returned trace carries no scenario config.
    """
    text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise TraceFormatError(
            f"malformed header: expected {TRACE_HEADER!r}, got {lines[0]!r}"
            if lines
            else "empty file"
        )
    points = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise TraceFormatError(f"line {line_no}: expected 6 fields, got {len(fields)}")
        try:
            step = int(fields[0])
            x = float(fields[2])
            y = float(fields[3])
            speed = float(fields[4])
            route_label = int(fields[5])
        except ValueError as exc:
            raise TraceFormatError(f"line {line_no}: non-numeric field ({exc})") from exc
        _require_finite(f"line {line_no}", x, y, speed)
        if route_label not in (0, 1):
            raise TraceFormatError(f"line {line_no}: route_label must be 0 or 1")
        points.append(
            TrajectoryPoint(
                vehicle_id=fields[1],
                step=step,
                x=x,
                y=y,
                speed=speed,
                route_label=route_label,
            )
        )
    return _canonical_trace(points)


# ---------------------------------------------------------------------------
# SUMO floating-car-data XML
# ---------------------------------------------------------------------------


def _byte_offset(text: str, line: int, column: int) -> int:
    head = "".join(ln + "\n" for ln in text.splitlines()[: line - 1])
    return len(head.encode("utf-8")) + column


def read_fcd_xml(source: str | Path, labels: LabelTable) -> Trace:
    """Ingest a SUMO floating-car-data export.

    ``time`` attribute values are mapped to integer steps by order of
    appearance.  Vehicles absent from ``labels`` are skipped; a single
    warning with the skip count is logged.  A vehicle listed twice in one
    timestep raises :class:`TraceFormatError`.
    """
    text = Path(source).read_text(encoding="utf-8")
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        line, column = exc.position
        offset = _byte_offset(text, line, column)
        raise TraceFormatError(
            f"XML syntax error at byte offset {offset} (line {line}, column {column}): {exc}"
        ) from exc

    points = []
    skipped = 0
    step = -1
    for timestep in root.iter("timestep"):
        if timestep.get("time") is None:
            raise TraceFormatError("timestep element is missing required attribute 'time'")
        step += 1
        for vehicle in timestep.iter("vehicle"):
            values = {}
            for attr in ("id", "x", "y", "speed"):
                raw = vehicle.get(attr)
                if raw is None:
                    raise TraceFormatError(
                        f"vehicle element is missing required attribute {attr!r}"
                    )
                values[attr] = raw
            vehicle_id = values["id"]
            if vehicle_id not in labels:
                skipped += 1
                continue
            try:
                x, y, speed = (float(values[a]) for a in ("x", "y", "speed"))
            except ValueError as exc:
                raise TraceFormatError(f"vehicle {vehicle_id!r}: {exc}") from exc
            _require_finite(f"vehicle {vehicle_id!r}", x, y, speed)
            points.append(
                TrajectoryPoint(
                    vehicle_id=vehicle_id,
                    step=step,
                    x=x,
                    y=y,
                    speed=speed,
                    route_label=labels[vehicle_id],
                )
            )
    if skipped:
        log.warning("skipped %d vehicle observations with no route label", skipped)
    return _canonical_trace(points)


def read_label_csv(source: str | Path) -> LabelTable:
    """Load the ``vehicle_id,route_label`` sidecar; ids must be unique."""
    lines = Path(source).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != LABEL_HEADER:
        raise TraceFormatError(f"malformed header: expected {LABEL_HEADER!r}")
    table: LabelTable = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise TraceFormatError(f"line {line_no}: expected 2 fields, got {len(fields)}")
        vehicle_id, raw = fields
        try:
            route_label = int(raw)
        except ValueError as exc:
            raise TraceFormatError(f"line {line_no}: non-numeric route_label") from exc
        if route_label not in (0, 1):
            raise TraceFormatError(f"line {line_no}: route_label must be 0 or 1")
        if vehicle_id in table:
            raise TraceFormatError(f"line {line_no}: duplicate vehicle_id {vehicle_id!r}")
        table[vehicle_id] = route_label
    return table


def write_label_csv(labels: LabelTable, destination: str | Path) -> None:
    lines = [LABEL_HEADER]
    lines.extend(f"{vid},{label}" for vid, label in sorted(labels.items()))
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Examples CSV (plot/evaluation input)
# ---------------------------------------------------------------------------


def write_examples_csv(dataset: Dataset, destination: str | Path) -> None:
    lines = [EXAMPLES_HEADER]
    for e in dataset.examples:
        lines.append(f"{_f17(e.features[0])},{_f17(e.features[1])},{e.label}")
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_examples_csv(source: str | Path) -> Dataset:
    lines = Path(source).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != EXAMPLES_HEADER:
        raise TraceFormatError(f"malformed header: expected {EXAMPLES_HEADER!r}")
    examples = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise TraceFormatError(f"line {line_no}: expected 3 fields, got {len(fields)}")
        try:
            x, y = float(fields[0]), float(fields[1])
            label = int(fields[2])
        except ValueError as exc:
            raise TraceFormatError(f"line {line_no}: non-numeric field") from exc
        _require_finite(f"line {line_no}", x, y)
        if label not in (1, -1):
            raise TraceFormatError(f"line {line_no}: label must be +1 or -1")
        examples.append(LabeledExample(features=(x, y), label=label))
    return Dataset(examples=tuple(examples), provenance="imported", seed=0)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _choose(items: list, n: int, rng: random.Random) -> list:
    """First n entries of a seeded partial Fisher-Yates shuffle.

    Implemented with raw ``rng.random()`` draws only, so the selection is
    reproducible across platforms and Python versions.
    """
    pool = list(items)
    picked = []
    for i in range(n):
        j = i + min(int(rng.random() * (len(pool) - i)), len(pool) - i - 1)
        pool[i], pool[j] = pool[j], pool[i]
        picked.append(pool[i])
    return picked


def _one_example_per_vehicle(
    by_vehicle: dict[str, list[TrajectoryPoint]],
    chosen: list[str],
    rng: random.Random,
) -> tuple[LabeledExample, ...]:
    examples = []
    for vid in chosen:
        pts = by_vehicle[vid]
        k = min(int(rng.random() * len(pts)), len(pts) - 1)
        p = pts[k]
        examples.append(
            LabeledExample(features=(p.x, p.y), label=label_to_class(p.route_label))
        )
    return tuple(examples)


def _points_by_vehicle(trace: Trace) -> dict[str, list[TrajectoryPoint]]:
    by_vehicle: dict[str, list[TrajectoryPoint]] = {}
    for p in trace.points:
        by_vehicle.setdefault(p.vehicle_id, []).append(p)
    for pts in by_vehicle.values():
        pts.sort(key=lambda p: p.step)
    return by_vehicle


def sample_examples(
    trace: Trace,
    n: int,
    seed: int,
    exclude_vehicles: tuple[str, ...] | frozenset[str] = (),
) -> Dataset:
    """Draw one (x, y) example from each of ``n`` distinct vehicles.

    Vehicles are chosen uniformly without replacement from the trace (minus
    ``exclude_vehicles``); each contributes its position at one uniformly
    random step.  Deterministic in (trace, n, seed).
    """
    by_vehicle = _points_by_vehicle(trace)
    excluded = set(exclude_vehicles)
    ids = sorted(v for v in by_vehicle if v not in excluded)
    if len(ids) < n:
        raise InsufficientVehiclesError(
            f"need {n} distinct vehicles, trace provides {len(ids)}"
        )
    rng = random.Random(seed)
    chosen = _choose(ids, n, rng)
    examples = _one_example_per_vehicle(by_vehicle, chosen, rng)
    provenance = "generated" if trace.config is not None else "imported"
    return Dataset(
        examples=examples,
        provenance=provenance,
        seed=seed,
        vehicle_ids=tuple(chosen),
    )


def derive_seed(seed: int, stream: int) -> int:
    """Arithmetic sub-stream derivation (portable, no hashing)."""
    return (seed * 1_000_003 + stream) % 2**63
