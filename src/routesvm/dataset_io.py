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

Both trace readers check each row where they parse it, so an error names
the first bad row in file order: x, y and speed must be finite, a step must
fit in a signed 64-bit integer, and an FCD vehicle id holds no comma, CR or
LF, which a trace CSV could not hold.  Trace CSV numbers are plain decimal
(``1_0`` is not a number), parsed a block of lines at a time by ``np.loadtxt``.
The rows fill one ``POINT_DTYPE`` array, handed to
:func:`~routesvm.traffic_sim.make_trace`, and the checks that span rows run
once: a (step, vehicle_id) pair occurs once and a vehicle keeps one route
label.  The label and examples CSVs share one row reader.  Every file is
UTF-8.  Violations raise :class:`TraceFormatError`.

Route labels are mapped to classes exactly once, here: route 0 -> +1,
route 1 -> -1.  No other module converts labels.
"""

from __future__ import annotations

import logging
import math
import random
import warnings
import xml.etree.ElementTree as ElementTree
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count, islice, repeat
from pathlib import Path

import numpy as np

from .svm import DataError, LabeledExample
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
_CHUNK = 1 << 16  # lines per block read by the trace CSV reader
_WRITE_BATCH = 8192  # rows per trace CSV write batch; fewer if an id exceeds 64 bytes
# The trace CSV columns np.loadtxt parses: every field but vehicle_id.
_TRACE_COLUMNS = np.dtype([(f, POINT_DTYPE[f]) for f in _FIELDS if f != "vehicle"])
_STEP_MIN, _STEP_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class TraceFormatError(DataError):
    """A trace/label/example file does not match its documented format."""


class InsufficientVehiclesError(DataError):
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


def _skip_header(lines, header: str) -> None:
    """Read the first line of ``lines``; anything but ``header`` is an error."""
    first = lines.readline()
    got = first.rstrip("\n")
    if got != header:
        message = f"malformed header: expected {header!r}, got {got!r}"
        raise TraceFormatError(message if first else "empty file")


def _csv_rows(source: str | Path, header: str):
    """(line number, fields) of each non-blank line after ``header``; a file
    with another first line, or a row with another field count, is an error."""
    width = header.count(",") + 1
    with _utf8_text(source) as lines:
        _skip_header(lines, header)
        for line_no, line in enumerate(lines, start=2):
            if line == "\n":
                continue
            fields = line.rstrip("\n").split(",")
            if len(fields) != width:
                message = f"line {line_no}: expected {width} fields, got {len(fields)}"
                raise TraceFormatError(message)
            yield line_no, fields


def _checked_trace(points: np.ndarray, ids: dict[str, int]) -> Trace:
    """The readers' checks that span rows; each row was checked at parse.

    ``points``, the rows in file order, becomes the trace's points; ``ids`` maps
    each vehicle id to its ``vehicle`` index.  A repeated (step, vehicle_id) or
    a changed route label is reported for its first row in canonical order."""
    trace = make_trace(points, list(ids))
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


def _byte_table(items: list[bytes], width: int | None = None) -> np.ndarray:
    """``items`` left-aligned in a ``uint8`` matrix, padded with 0xFF."""
    lengths = np.fromiter(map(len, items), np.int64, len(items))
    keep = np.arange(lengths.max(initial=0) if width is None else width) < lengths[:, None]
    data = np.full(keep.shape, 0xFF, np.uint8)
    data[keep] = np.frombuffer(b"".join(items), np.uint8)
    return data


def _int_text(column: np.ndarray, end: bytes) -> np.ndarray:
    """Each integer's decimal text and ``end``; each distinct value is formatted once."""
    values, inverse = np.unique(column, return_inverse=True)
    return _byte_table([b"%d%s" % (v, end) for v in values.tolist()])[inverse]


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi = fl(a·b) and hi + lo = a·b exactly: Dekker's two-product
    (1971); each operation is its own ufunc call, so none is fused."""
    big = [x * 134217729.0 for x in (a, b)]  # 2**27 + 1: x = high + low, 26 bits each
    ah, bh = (c - (c - x) for c, x in zip(big, (a, b)))
    al, bl, hi = a - ah, b - bh, a * b
    return hi, (((ah * bh - hi) + ah * bl) + al * bh) + al * bl


def _drop_table() -> np.ndarray:
    """0xFF on a float field's bytes not shown, by (exponent k, significant digits)."""
    k, digits = np.divmod(np.arange(-4 * 18, 17 * 18)[:, None], 18)
    i = np.arange(17)
    slots = np.stack([i < np.maximum(digits, k + 1), (i == 16) | (i == k) & (k < digits - 1)], -1)
    keep = np.hstack([0 * k, np.array([1, 1, 2, 3, 4]) <= -k, slots.reshape(-1, 34)])
    return np.where(keep, 0, 0xFF).astype(np.uint8).view(np.uint64)


# A float field as 40 bytes: "-0.000", each of the 17 digits and a slot for a
# point after it, the last holding the comma; the bytes not shown become 0xFF.
# _HEAD holds the first 8 bytes by leading digit, _GROUP the next 8 by 4-digit
# group, and _LAST a group's digits before its trailing zeros.
_HEAD = np.array([[*b"-0.000", 48 + d, 46] for d in range(10)], np.uint8).view(np.uint64)[:, 0]
_GROUP = np.ascontiguousarray(np.insert(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48,
                                        [1, 2, 3, 4], 46, axis=1)).view(np.uint64)[:, 0]
_LAST = 4 - sum(np.arange(10000) % 10**p == 0 for p in range(1, 5))
_DROP = _drop_table()
_POW10 = 10.0 ** np.arange(21)  # exact in float64
_DECADES = np.array([float(f"1e{m}") for m in range(-4, 17)])  # the floats nearest 1e-4 .. 1e16


def _float_text(v: np.ndarray) -> np.ndarray:
    """``format(x, ".17g")`` and a comma per float, in 40-byte rows padded with 0xFF.

    For 1e-4 <= |x| < 1e16: k = floor(log10|x|) by exact comparisons with
    _DECADES; |x|·10^(16-k) = hi + lo exactly, hi an integer in [1e16, 1e17];
    and hi plus lo rounded half to even is the 17-digit integer, which never
    carries to 10^17.  The tests check both facts about powers of ten."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    k = np.searchsorted(_DECADES, a, side="right") - 5
    hi, lo = _two_prod(a, _POW10[16 - k])
    whole = np.floor(lo)
    d = hi.astype(np.int64) + whole.astype(np.int64)
    d += (lo > whole + 0.5) | ((lo == whole + 0.5) & (d & 1 == 1))
    data = np.empty((len(v), 5), np.uint64)
    digits = np.ones(len(v), np.int64)  # significant digits: up to the last nonzero group's
    for j in range(4, 0, -1):
        d, group = np.divmod(d, 10000)
        data[:, j] = _GROUP[group]
        digits = np.where((digits == 1) & (group != 0), 4 * j - 3 + _LAST[group], digits)
    data[:, 0] = _HEAD[d]
    data.view(np.uint8)[:, -1] = ord(",")
    data |= _DROP[(k + 4) * 18 + digits]
    data.view(np.uint8)[:, 0] = np.where(np.signbit(v), ord("-"), 0xFF)
    text = [b"%s," % format(x, ".17g").encode() for x in v[~fast].tolist()]
    data[~fast] = _byte_table(text, 40).view(np.uint64)
    return data.view(np.uint8)


def write_trace_csv(trace: Trace, destination: str | Path) -> None:
    """Write the trace in canonical row order; see the module docstring.

    Each row is ``f"{step},{id},{x:.17g},{y:.17g},{speed:.17g},{route}\\n"``,
    built a batch of rows at a time as one byte matrix whose unused bytes
    are 0xFF, which UTF-8 never holds, and written without them.  Ids come
    from a UTF-8 table and each distinct step and label of a batch is
    formatted once.  x, y and speed get exact digits by array arithmetic for
    1e-4 <= |v| < 1e16 (:func:`_float_text`); other values (±0, exponent
    form, subnormals, huge) are formatted one by one."""
    ids = _byte_table([vid.encode() + b"," for vid in trace.vehicle_ids])
    batch = max(1, _WRITE_BATCH * 64 // max(ids.shape[1], 64))
    with open(destination, "wb") as out:
        out.write(TRACE_HEADER.encode() + b"\n")
        for lo in range(0, len(trace.points), batch):
            chunk = trace.points[lo : lo + batch]
            rows = np.concatenate([
                _int_text(chunk["step"], b","), ids[chunk["vehicle"]],
                *(_float_text(chunk[f]) for f in ("x", "y", "speed")),
                _int_text(chunk["route_label"], b"\n")], axis=1)
            out.write(rows.tobytes().translate(None, b"\xff"))


def _parse_trace_rows(lines: list[str]) -> np.ndarray:
    """The numeric columns of trace CSV data lines, parsed in C.

    NumPy releases that still parse an integer field such as ``1.5`` via a
    float only warn, with a DeprecationWarning; that is a ValueError here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=_TRACE_COLUMNS, delimiter=",",
                              usecols=(0, 2, 3, 4, 5), comments=None, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None


def _trace_row_error(line: str) -> str | None:
    """Why ``line`` is not a trace CSV data row, or None if it is one."""
    fields = line.rstrip("\n").split(",")
    if len(fields) != len(_FIELDS):
        return f"expected {len(_FIELDS)} fields, got {len(fields)}"
    try:
        step = int(fields[0])
        values = float(fields[2]), float(fields[3]), float(fields[4])
        route_label = int(fields[5])
    except ValueError as exc:
        return f"non-numeric field ({exc})"
    if not _STEP_MIN <= step <= _STEP_MAX:
        return f"step {step} out of the int64 range"
    if route_label not in (0, 1):
        return "route_label must be 0 or 1"
    try:  # what Python reads but np.loadtxt does not, such as "1_0"
        _parse_trace_rows([line])
    except ValueError as exc:
        return f"non-numeric field ({exc})"
    return None if all(map(math.isfinite, values)) else "non-finite value"


def _block_error(block: list[str], line_no: int) -> TraceFormatError:
    """The error for the first bad row of a block, whose first line is file
    line ``line_no``, that failed a whole-block check."""
    for n, line in enumerate(block, start=line_no):
        why = line != "\n" and _trace_row_error(line)
        if why:
            return TraceFormatError(f"line {n}: {why}")
    raise AssertionError("a block that failed its checks has no bad row")


def _row_bound(source: str | Path) -> int:
    """At least the data rows of a trace CSV that passes the reader's checks:
    each holds five commas, as the header does.  Blank lines and line ends
    of any kind count for nothing, so the bound is exact for a file with no
    other commas, such as every file :func:`write_trace_csv` writes."""
    commas = 0
    with open(source, "rb") as raw:
        for chunk in iter(lambda: raw.read(1 << 20), b""):
            commas += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord(","))
    return max(0, commas // (len(_FIELDS) - 1) - 1)


def read_trace_csv(source: str | Path) -> Trace:
    """Inverse of :func:`write_trace_csv`; rows are re-sorted into canonical
    (step, vehicle_id) order and validated as the module docstring says.

    The file is read ``_CHUNK`` lines at a time; no copy of its text is held.
    One Python pass over a block skips blank lines, checks the field count
    and maps the vehicle ids; ``np.loadtxt`` parses the other columns, checked
    a block at a time.  A block that fails is scanned again, row by row, to
    name its first bad line.  Each block is copied into one points array,
    sized up front by :func:`_row_bound`, and freed; then the checks that span
    rows run once.
    """
    points = np.empty(_row_bound(source), dtype=POINT_DTYPE)
    end = 0
    ids: dict[str, int] = {}
    with _utf8_text(source) as text:
        _skip_header(text, TRACE_HEADER)
        for line_no in count(2, _CHUNK):  # the file line of the block's first line
            block = list(islice(text, _CHUNK))
            if not block:
                break
            lines = [line for line in block if line != "\n"] if "\n" in block else block
            if not lines:
                continue
            if set(map(str.count, lines, repeat(","))) != {len(_FIELDS) - 1}:
                raise _block_error(block, line_no)
            names = [line.split(",", 2)[1] for line in lines]
            for name in dict.fromkeys(names):
                ids.setdefault(name, len(ids))
            stop = end + len(lines)
            if stop > len(points):  # the file grew after it was counted
                points = np.concatenate([points, np.empty(stop - len(points), POINT_DTYPE)])
            points["vehicle"][end:stop] = np.fromiter(map(ids.__getitem__, names), np.int64)
            try:
                rows = _parse_trace_rows(lines)
            except ValueError:
                raise _block_error(block, line_no) from None
            route = rows["route_label"]
            finite = np.isfinite(rows["x"]) & np.isfinite(rows["y"]) & np.isfinite(rows["speed"])
            if not (((route == 0) | (route == 1)) & finite).all():
                raise _block_error(block, line_no)
            for name in _TRACE_COLUMNS.names:
                points[name][end:stop] = rows[name]
            end = stop
            del block, lines, names, rows, route, finite  # one block of work at a time
    if end < len(points):  # the file shrank after it was counted
        points = points[:end].copy()
    return _checked_trace(points, ids)  # the array itself: a view would keep its base alive


# ---------------------------------------------------------------------------
# SUMO floating-car-data XML
# ---------------------------------------------------------------------------


def _byte_offset(text: str, line: int, column: int) -> int:
    head = text.split("\n", line - 1)[: line - 1]  # expat ends a line at LF only
    return sum(len(ln.encode("utf-8")) + 1 for ln in head) + column


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
    rows: list[tuple] = []
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
            if vehicle_id not in ids and any(c in vehicle_id for c in ",\r\n"):
                raise TraceFormatError(
                    f"vehicle {vehicle_id!r}: a trace CSV id holds no ',', CR, LF")
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(speed)):
                raise TraceFormatError(f"vehicle {vehicle_id!r}: non-finite value")
            index = ids.setdefault(vehicle_id, len(ids))
            rows.append((step, index, x, y, speed, labels[vehicle_id]))
    if skipped:
        log.warning("skipped %d vehicle observations with no route label", skipped)
    return _checked_trace(np.array(rows, dtype=POINT_DTYPE), ids)


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
