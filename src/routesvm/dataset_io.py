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

Both trace readers parse their rows into columns and build the trace with
:func:`~routesvm.traffic_sim.make_trace`, then validate the whole trace in one
step: every x, y and speed value must be finite, a (step, vehicle_id) pair
occurs once and a vehicle keeps one route label.  A step must fit in a signed
64-bit integer, and an FCD vehicle id holds no comma, CR or LF, which a trace
CSV could not hold.  Every file is UTF-8, and the three CSV formats share one
row reader.  Violations raise :class:`TraceFormatError`.

Route labels are mapped to classes exactly once, here: route 0 -> +1,
route 1 -> -1.  No other module converts labels.
"""

from __future__ import annotations

import logging
import math
import random
import xml.etree.ElementTree as ElementTree
from bisect import bisect_right
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .svm import LabeledExample
from .traffic_sim import POINT_DTYPE, Trace, make_trace

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

_FIELDS = POINT_DTYPE.names  # step, vehicle, x, y, speed, route_label
_FCD_ATTRS = ("id", "x", "y", "speed")
_CHUNK = 1 << 16  # rows formatted per batch by write_trace_csv
_STEP_MIN, _STEP_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class TraceFormatError(ValueError):
    """A trace/label/example file does not match its documented format."""


class InsufficientVehiclesError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Labeled examples and, when sampled from a trace, their vehicles."""

    examples: tuple[LabeledExample, ...]
    vehicle_ids: tuple[str, ...] = ()


def label_to_class(route_label: int) -> int:
    """The canonical route-label to class mapping: 0 -> +1, 1 -> -1."""
    if route_label not in (0, 1):
        raise ValueError(f"route_label must be 0 or 1, got {route_label}")
    return 1 if route_label == 0 else -1


@contextmanager
def _utf8_text(source: str | Path):
    """``source`` opened as text; bytes that are not UTF-8 raise TraceFormatError."""
    try:
        with open(source, encoding="utf-8") as text:
            yield text
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not UTF-8 text ({exc})") from None


def _csv_rows(source: str | Path, header: str, blanks: list[int] | None = None):
    """(line number, fields) of each non-blank line after ``header``; a file
    with another first line, or a row with another field count, is an error.
    ``blanks`` gets the number of rows before each blank line skipped."""
    width = header.count(",") + 1
    with _utf8_text(source) as lines:
        first = lines.readline()
        got = first.rstrip("\n")
        if got != header:
            message = f"malformed header: expected {header!r}, got {got!r}"
            raise TraceFormatError(message if first else "empty file")
        for line_no, line in enumerate(lines, start=2):
            if line == "\n":
                if blanks is not None:
                    blanks.append(line_no - 2 - len(blanks))
                continue
            fields = line.rstrip("\n").split(",")
            if len(fields) != width:
                message = f"line {line_no}: expected {width} fields, got {len(fields)}"
                raise TraceFormatError(message)
            yield line_no, fields


def _checked_trace(columns: dict, ids: dict[str, int], where: Callable[[int], str]) -> Trace:
    """The readers' one validation step, over the whole trace at once.

    ``columns`` holds the rows in file order, ``ids`` maps each vehicle id to
    its ``vehicle`` index, and ``where(row)`` names a row for the non-finite
    error.  A repeated (step, vehicle_id) or a route label that differs from
    the vehicle's first is reported for its first row in canonical order."""
    finite = np.isfinite(columns["x"]) & np.isfinite(columns["y"]) & np.isfinite(columns["speed"])
    if not finite.all():
        raise TraceFormatError(f"{where(int(np.argmin(finite)))}: non-finite value")
    trace = make_trace(columns, list(ids))
    step, vehicle, route = (trace.points[f] for f in ("step", "vehicle", "route_label"))
    rows, starts, _ = trace.rows_by_vehicle
    duplicate = np.zeros(len(step), dtype=bool)
    duplicate[1:] = (step[1:] == step[:-1]) & (vehicle[1:] == vehicle[:-1])
    bad = duplicate | (route != route[rows[starts]][vehicle])
    if bad.any():
        i = int(np.argmax(bad))
        vid = trace.vehicle_ids[vehicle[i]]
        if duplicate[i]:
            raise TraceFormatError(f"vehicle {vid!r}: duplicate row at step {step[i]}")
        raise TraceFormatError(f"vehicle {vid!r}: route_label changes between rows")
    return trace


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------


def write_trace_csv(trace: Trace, destination: str | Path) -> None:
    """Write the trace in canonical row order; see the module docstring."""
    points, ids = trace.points, trace.vehicle_ids
    with open(destination, "w", encoding="utf-8", newline="\n") as out:
        out.write(TRACE_HEADER + "\n")
        for lo in range(0, len(points), _CHUNK):
            chunk = points[lo : lo + _CHUNK]
            out.writelines(
                f"{step},{ids[v]},{x:.17g},{y:.17g},{speed:.17g},{route}\n"
                for step, v, x, y, speed, route in zip(*(chunk[f].tolist() for f in _FIELDS))
            )


def read_trace_csv(source: str | Path) -> Trace:
    """Inverse of :func:`write_trace_csv`; rows are re-sorted into canonical
    (step, vehicle_id) order and validated as the module docstring says.  The
    returned trace carries no scenario config.  The file is read line by line;
    no copy of its text is held.
    """
    ids: dict[str, int] = {}
    cols: tuple[list, ...] = tuple([] for _ in _FIELDS)
    blanks: list[int] = []
    for line_no, fields in _csv_rows(source, TRACE_HEADER, blanks):
        try:
            step = int(fields[0])
            x, y, speed = float(fields[2]), float(fields[3]), float(fields[4])
            route_label = int(fields[5])
        except ValueError as exc:
            raise TraceFormatError(f"line {line_no}: non-numeric field ({exc})") from exc
        if not _STEP_MIN <= step <= _STEP_MAX:
            raise TraceFormatError(f"line {line_no}: step {step} out of the int64 range")
        if route_label not in (0, 1):
            raise TraceFormatError(f"line {line_no}: route_label must be 0 or 1")
        row = (step, ids.setdefault(fields[1], len(ids)), x, y, speed, route_label)
        for c, value in zip(cols, row):
            c.append(value)
    columns = {f: np.array(c, dtype=POINT_DTYPE[f]) for c, f in zip(cols, _FIELDS)}
    del cols  # free the per-row Python objects before sorting
    return _checked_trace(columns, ids, lambda row: f"line {row + 2 + bisect_right(blanks, row)}")


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
    with _utf8_text(source) as file:
        text = file.read()
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        line, column = exc.position
        offset = _byte_offset(text, line, column)
        raise TraceFormatError(
            f"XML syntax error at byte offset {offset} (line {line}, column {column}): {exc}"
        ) from exc

    ids: dict[str, int] = {}
    cols: tuple[list, ...] = tuple([] for _ in _FIELDS)
    skipped = 0
    step = -1
    for timestep in root.iter("timestep"):
        if timestep.get("time") is None:
            raise TraceFormatError("timestep element is missing required attribute 'time'")
        step += 1
        for vehicle in timestep.iter("vehicle"):
            values = [vehicle.get(attr) for attr in _FCD_ATTRS]
            if None in values:
                missing = _FCD_ATTRS[values.index(None)]
                raise TraceFormatError(f"vehicle element is missing required attribute {missing!r}")
            vehicle_id = values[0]
            if vehicle_id not in labels:
                skipped += 1
                continue
            try:
                x, y, speed = map(float, values[1:])
            except ValueError as exc:
                raise TraceFormatError(f"vehicle {vehicle_id!r}: {exc}") from exc
            index = ids.setdefault(vehicle_id, len(ids))
            for c, value in zip(cols, (step, index, x, y, speed, labels[vehicle_id])):
                c.append(value)
    if skipped:
        log.warning("skipped %d vehicle observations with no route label", skipped)
    names = list(ids)
    for vehicle_id in names:
        if any(c in vehicle_id for c in ",\r\n"):
            raise TraceFormatError(f"vehicle {vehicle_id!r}: a trace CSV id holds no ',', CR, LF")
    return _checked_trace(
        dict(zip(_FIELDS, cols)), ids, lambda row: f"vehicle {names[cols[1][row]]!r}"
    )


def read_label_csv(source: str | Path) -> LabelTable:
    """Load the ``vehicle_id,route_label`` sidecar; ids must be unique."""
    table: LabelTable = {}
    for line_no, (vehicle_id, raw) in _csv_rows(source, LABEL_HEADER):
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
        lines.append(f"{e.features[0]:.17g},{e.features[1]:.17g},{e.label}")
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_examples_csv(source: str | Path) -> Dataset:
    examples = []
    for line_no, fields in _csv_rows(source, EXAMPLES_HEADER):
        try:
            x, y = float(fields[0]), float(fields[1])
            label = int(fields[2])
        except ValueError as exc:
            raise TraceFormatError(f"line {line_no}: non-numeric field") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TraceFormatError(f"line {line_no}: non-finite value")
        if label not in (1, -1):
            raise TraceFormatError(f"line {line_no}: label must be +1 or -1")
        examples.append(LabeledExample(features=(x, y), label=label))
    return Dataset(examples=tuple(examples))


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


def sample_examples(
    trace: Trace,
    n: int,
    seed: int,
    exclude_vehicles: tuple[str, ...] | frozenset[str] = (),
) -> Dataset:
    """Draw one (x, y) example from each of ``n`` distinct vehicles.

    Vehicles are chosen uniformly without replacement from the trace (minus
    ``exclude_vehicles``); each contributes its position at one uniformly
    random step.  Deterministic in (trace, n, seed): the ``n`` vehicle draws
    come first, then one step draw per chosen vehicle, in choice order.
    """
    if n < 0:
        raise ValueError(f"sample size must be at least 0, got {n}")
    excluded = set(exclude_vehicles)
    pool = [v for v, vid in enumerate(trace.vehicle_ids) if vid not in excluded]
    if len(pool) < n:
        raise InsufficientVehiclesError(f"need {n} distinct vehicles, trace provides {len(pool)}")
    rng = random.Random(seed)
    chosen = np.array(_choose(pool, n, rng), dtype=np.int64)
    draws = np.array([rng.random() for _ in range(n)])
    rows, starts, counts = trace.rows_by_vehicle
    count = counts[chosen]
    k = np.minimum((draws * count).astype(np.int64), count - 1)
    picked = trace.points[rows[starts[chosen] + k]]
    examples = tuple(
        LabeledExample(features=(x, y), label=label_to_class(route))
        for x, y, route in zip(*(picked[f].tolist() for f in ("x", "y", "route_label")))
    )
    return Dataset(examples, tuple(trace.vehicle_ids[v] for v in chosen.tolist()))


def derive_seed(seed: int, stream: int) -> int:
    """Arithmetic sub-stream derivation (portable, no hashing)."""
    return (seed * 1_000_003 + stream) % 2**63
