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
LF, which a trace CSV could not hold.  A number in a trace, label or
examples CSV is what Python's ``int`` or ``float`` reads from ASCII text
without "_" (``1_0`` is not a number), and a float is finite: the three
share one row reader.  A trace CSV is parsed a block of lines at a time, by
an exact array digit kernel where the block is canonical, else row by row.
The rows fill one ``POINT_DTYPE`` array, handed to
:func:`~routesvm.traffic_sim.make_trace`, and the checks that span rows run
once: a (step, vehicle_id) pair occurs once and a vehicle keeps one route
label.  Every file is UTF-8.  Violations raise :class:`TraceFormatError`.

Route labels become classes in :func:`sample_examples` alone, as
``1 - 2 * route_label``: route 0 -> +1, route 1 -> -1.
"""

from __future__ import annotations

import logging
import math
import operator
import random
import re
import xml.etree.ElementTree as ElementTree
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice
from pathlib import Path

import numpy as np

from .svm import DataError, LabeledExample
from .traffic_sim import POINT_DTYPE, Trace, make_trace, uniform_draws

__all__ = [
    "TraceFormatError",
    "InsufficientVehiclesError",
    "Dataset",
    "LabelTable",
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
_CHUNK = 8192  # lines per block read by the trace CSV reader
_WRITE_BATCH = 8192  # rows per trace CSV write batch; fewer if an id exceeds 64 bytes
_STEP_MIN, _STEP_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class TraceFormatError(DataError):
    """A trace/label/example file does not match its documented format."""


class InsufficientVehiclesError(DataError):
    pass


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled examples as a read-only (n, d) float array ``features`` and a
    read-only (n,) int array ``labels`` of +1 and -1, copied and checked once,
    here, and a sample's vehicles.  Datasets compare by value."""

    features: np.ndarray
    labels: np.ndarray
    vehicle_ids: tuple[str, ...] = ()

    def __post_init__(self):
        features, labels = np.asarray(self.features), np.asarray(self.labels)
        if features.ndim != 2 or labels.shape != features.shape[:1]:
            raise ValueError(f"shapes {features.shape}, {labels.shape} are not (n, d), (n,)")
        if not np.isfinite(features).all():  # text is a TypeError
            raise ValueError("features must be finite")
        if not np.isin(labels, (1, -1)).all():
            raise ValueError("labels must be +1 or -1")
        for name, array in (("features", features.astype(float)), ("labels", labels.astype(int))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.vehicle_ids == other.vehicle_ids and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.features, other.features))

    def __reduce__(self):
        """A pickled or deep-copied dataset is rebuilt, so re-checked and read-only."""
        return Dataset, (self.features, self.labels, self.vehicle_ids)

    @cached_property
    def examples(self) -> tuple[LabeledExample, ...]:
        """The rows as :class:`LabeledExample` values, built on first access."""
        return tuple(map(LabeledExample, self.features.tolist(), self.labels.tolist()))


@contextmanager
def _utf8_text(source: str | Path, newline: str | None = None):
    """``source`` opened as text; bytes that are not UTF-8 raise TraceFormatError."""
    try:
        with open(source, encoding="utf-8", newline=newline) as text:
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


def _fields(lines, kinds: tuple[type, ...], line_no: int = 2):
    """(line number, values) of each non-blank line of ``lines``, the first
    numbered ``line_no``: its comma-separated fields, each read as its kind
    in ``kinds``, ``str`` as is, ``int`` and ``float`` as Python reads ASCII
    text without "_".  The first bad line raises TraceFormatError: another
    field count, a field that is not its number, then a non-finite float."""
    numeric, floats = [kind is not str for kind in kinds], [kind is float for kind in kinds]
    for n, line in enumerate(lines, start=line_no):
        if line == "\n":
            continue
        fields = line.rstrip("\n").split(",")
        if len(fields) != len(kinds):
            raise TraceFormatError(f"line {n}: expected {len(kinds)} fields, got {len(fields)}")
        try:
            values = [kind(text) for kind, text in zip(kinds, fields)]
        except ValueError as exc:
            raise TraceFormatError(f"line {n}: non-numeric field ({exc})") from None
        if "_" in line or not line.isascii():  # a str field, such as an id, may hold either
            for text in compress(fields, numeric):
                if "_" in text or not text.isascii():
                    raise TraceFormatError(
                        f"line {n}: non-numeric field ({text!r} is not ASCII without '_')")
        if not all(map(math.isfinite, compress(values, floats))):
            raise TraceFormatError(f"line {n}: non-finite value")
        yield n, values


def _csv_rows(source: str | Path, header: str, kinds: tuple[type, ...]):
    """(line number, values) of each non-blank line after ``header``, read
    by :func:`_fields`; a file with another first line is an error."""
    with _utf8_text(source) as lines:
        _skip_header(lines, header)
        yield from _fields(lines, kinds)


def _checked_trace(points: np.ndarray, ids: list[str] | dict[str, int]) -> Trace:
    """The readers' checks that span rows; each row was checked at parse.

    ``points``, the rows in file order, becomes the trace's points; ``ids``
    lists the ids by ``vehicle`` index, as a dict's keys do.  A repeated (step,
    vehicle_id) or a changed route label is reported for its first row in
    canonical order."""
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
_POW10 = np.array([float(10**k) for k in range(23)])  # exact in float64
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
    are 0xFF, which UTF-8 never holds, and written without them.

    - Per vehicle, once per trace: the id text, and the ``speed,route`` tail
      of one of its rows.  A batch whose every row has its vehicle's speed
      bits and route label takes the tails from that table.
    - Per distinct value of a batch: the step, and in a batch that has a row
      differing from its vehicle's tail, the route label.
    - Per row: x and y, and in such a batch the speed.

    Floats get exact digits by array arithmetic for 1e-4 <= |v| < 1e16
    (:func:`_float_text`); other values (±0, exponent form, subnormals,
    huge) are formatted one by one."""
    points = trace.points
    ids = _byte_table([vid.encode() + b"," for vid in trace.vehicle_ids])
    speed, route = np.zeros(len(ids)), np.zeros(len(ids), np.int8)
    speed[points["vehicle"]], route[points["vehicle"]] = points["speed"], points["route_label"]
    tails = np.concatenate([_float_text(speed), _int_text(route, b"\n")], axis=1)
    tails = _byte_table([tail.tobytes().translate(None, b"\xff") for tail in tails])
    batch = max(1, _WRITE_BATCH * 64 // max(ids.shape[1], 64))
    with open(destination, "wb") as out:
        out.write(TRACE_HEADER.encode() + b"\n")
        for lo in range(0, len(points), batch):
            chunk = points[lo : lo + batch]
            v = chunk["vehicle"]
            if ((chunk["speed"].view(np.int64) == speed.view(np.int64)[v]).all()
                    and (chunk["route_label"] == route[v]).all()):
                tail = [tails[v]]
            else:
                tail = [_float_text(chunk["speed"]), _int_text(chunk["route_label"], b"\n")]
            rows = np.concatenate([
                _int_text(chunk["step"], b","), ids[v],
                *(_float_text(chunk[f]) for f in ("x", "y")), *tail], axis=1)
            out.write(rows.tobytes().translate(None, b"\xff"))


def _parse_block(block: list[str], line_no: int) -> dict:
    """The numeric columns of a block of trace CSV lines, the first numbered
    ``line_no``, read by :func:`_fields`; the first bad row raises, and so
    does a step outside int64 or a route label other than 0 or 1."""
    rows = []
    for n, row in _fields(block, (int, str, float, float, float, int), line_no):
        if not _STEP_MIN <= row[0] <= _STEP_MAX:
            raise TraceFormatError(f"line {n}: step {row[0]} out of the int64 range")
        if row[5] not in (0, 1):
            raise TraceFormatError(f"line {n}: route_label must be 0 or 1")
        rows.append(row)
    return {name: column for name, column in zip(_FIELDS, zip(*rows)) if name != "vehicle"}


_ONES = 0x0101010101010101  # one in each byte of a word
_SCALE = np.array([10 ** (8 - d) for d in range(9)], np.uint64)  # by bytes dropped
_BIG = 10**17 // _SCALE  # reaches 10**17 once scaled


def _digits(words, a, b, value=0, big=False):
    """Append the digits in bytes [a, b) of each row to ``value``, 8 per word
    (Lemire, *Number parsing at a gigabyte per second*, 2021): (value, all
    digits, big where it reached 10**17 and means nothing)."""
    value, big = value + np.zeros(len(a), np.uint64), big | np.zeros(len(a), bool)
    bad = np.zeros(len(a), np.uint64)
    for j in range(-(-int((b - a).max(initial=0)) // 8) - 1, -1, -1):  # the leading word first
        end = np.maximum(b - 8 * j, a)
        drop = np.maximum(a + 8 - end, 0)  # the little-endian word's low bytes before a
        bits = drop.astype(np.uint64) << 3  # shifted out; the zeros shifted in read as 0
        w = words[end - 8]
        bad |= ((w & 0xF0 * _ONES | (w + 6 * _ONES & 0xF0 * _ONES) >> 4) ^ 0x33 * _ONES) >> bits
        w = (w >> bits << bits & 0x0F * _ONES) * 2561 >> 8  # 10a + b for each pair of bytes,
        w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16  # then of pairs, then of fours
        big |= value >= _BIG[drop]
        value = value * _SCALE[drop] + ((w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32)
    return value, bad == 0, big


def _parse_floats(pad, words, s: np.ndarray, t: np.ndarray, found: list) -> np.ndarray | None:
    """The floats in bytes [s, t) of each row, or None unless each is
    ``-?D+(.D+)?(e[+-]DDD?)?``; ``found`` lists the block's "e" and "."
    offsets, each ending one past the block.  A float is m / p, p = 10**k:
    for k in [0, 22] and m < 2**53, one correctly rounded division (Clinger
    1990).  For 2**53 <= m < 10**17, q = fl(fl(m) / p) is under 1.5 ulps
    off; q·p = hi + lo exactly (:func:`_two_prod`), hi an integer near m,
    so m - hi - lo = r + err exactly, and q steps to the neighbour past half
    the gap times p, an exact float compared with r, then err; ties to even.
    Others (over 17 significant digits, k outside [0, 22]) go through ``float``."""
    e = np.minimum(found[0][np.searchsorted(found[0], s)], t)  # the first "e", else t
    dot = np.minimum(found[1][np.searchsorted(found[1], s)], e)  # the first ".", else e
    neg = pad[s] == ord("-")
    a = s + neg
    frac = dot + (dot < e)
    m, ok, big = _digits(words, a, dot)
    m, ok_frac, big = _digits(words, frac, e, m, big)
    k = e - frac
    i = np.flatnonzero(e < t)
    sign, size = pad[e[i] + 1], t[i] - e[i]  # "e", the sign and 2 or 3 digits
    power, ok_power, _ = _digits(words, e[i] + 2, t[i])
    ok[i] &= ok_power & ((size == 4) | (size == 5)) & ((sign == ord("+")) | (sign == ord("-")))
    k[i] += np.where(sign == ord("-"), 1, -1) * power.astype(np.int64)
    if not (ok & ok_frac & (dot > a) & ((e > frac) | (dot == e))).all():
        return None
    slow = big | (k < 0) | (k > 22)
    p = _POW10[np.where(slow, 0, k)]
    q = m.astype(float) / p
    hard = np.flatnonzero(~slow & (m >= 2**53))
    hi, lo = _two_prod(q[hard], p[hard])
    d = (m[hard].astype(np.int64) - hi.astype(np.int64)).astype(float)
    r = d - lo
    err = (d - (r - (r - d))) - (lo + (r - d))  # r + err = d - lo exactly: Knuth's two-sum
    bits = q[hard].view(np.int64)  # a positive float's neighbours are its bits -1 and +1
    up, down = (((bits + step).view(float) - q[hard]) * 0.5 * p[hard] for step in (1, -1))
    odd = bits & 1 == 1
    above = (r > up) | (r == up) & ((err > 0) | (err == 0) & odd)
    below = (r < down) | (r == down) & ((err < 0) | (err == 0) & odd)
    q[hard] = (bits + above - below).view(float)
    for j in np.flatnonzero(slow).tolist():
        q[j] = float(pad[a[j]:t[j]].tobytes())
    return np.where(neg, -q, q)


def _parse_canonical_rows(pad, words, first: np.ndarray, last: np.ndarray) -> dict | None:
    """The numeric columns of a block with fields [first, last), or None unless
    each is canonical: 1 to 18 step digits, route_label 0 or 1, and floats as
    :func:`_parse_floats` reads them, a column at a time: 8 bytes a row."""
    first, last = first.reshape(-1, 6), last.reshape(-1, 6)
    step, ok, _ = _digits(words, first[:, 0], last[:, 0])
    route, size = pad[first[:, 5]] - ord("0"), last[:, 0] - first[:, 0]
    if not (ok & (size >= 1) & (size <= 18) & (last[:, 5] - first[:, 5] == 1) & (route <= 1)).all():
        return None
    rows = {"step": step.astype(np.int64), "route_label": route}
    found = [np.append(np.flatnonzero(pad == byte), len(pad)) for byte in b"e."]
    for field, name in enumerate(("x", "y", "speed"), start=2):
        rows[name] = _parse_floats(pad, words, first[:, field], last[:, field], found)
        if rows[name] is None:
            return None
    return rows


def _vehicle_index(words, a: np.ndarray, b: np.ndarray, table: dict, ids: list[str]) -> np.ndarray:
    """The vehicle index of each id, bytes [a, b) of its row, by ``table``:
    per id length, the sorted keys (the bytes as a uint64, or a void of such
    words past 8 bytes) of the ids seen so far, and their indices.  A new id
    takes the next index and joins ``ids``, where Python first touches it."""
    index = np.empty(len(a), np.int64)
    for n in np.unique(b - a).tolist():
        rows = np.flatnonzero(b - a == n)
        width = max(1, -(-n // 8))  # words per key
        key = words[b[rows, None] + 8 * np.arange(-width, 0)]
        key[:, 0] &= (2**64 - 1) >> 8 * (8 * width - n) << 8 * (8 * width - n)  # the id's bytes
        key = key[:, 0] if width == 1 else key.view(f"V{8 * width}")[:, 0]
        known, known_index = table.get(n, (key[:0], index[:0]))
        keys, at, inverse = np.unique(np.concatenate([known, key]), True, True)
        new = at >= len(known)
        found = np.append(known_index, np.zeros(len(key), np.int64))[at]  # a known id's index
        found[new] = np.arange(len(ids), len(ids) + np.count_nonzero(new))
        ids.extend(k.tobytes()[8 * width - n :].decode() for k in keys[new])
        table[n] = keys, found
        index[rows] = found[inverse[len(known):]]
    return index


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
    A block's lines, blank ones skipped, are joined and encoded, and one
    array pass over the bytes finds every field; :func:`_vehicle_index` maps
    the ids.  :func:`_parse_canonical_rows` parses the numbers of a block
    whose numbers are all canonical and finite, as in every file
    :func:`write_trace_csv` writes; :func:`_parse_block` parses any other
    block row by row with :func:`_fields`, the one grammar of a CSV row, and
    names its first bad line.  Each block is copied into one points
    array, sized up front by :func:`_row_bound`, and freed; then the checks
    that span rows run once.
    """
    points = np.empty(_row_bound(source), dtype=POINT_DTYPE)
    end = 0
    ids, table = [], {}  # the vehicle ids by index; see _vehicle_index
    with _utf8_text(source) as text:
        _skip_header(text, TRACE_HEADER)
        for line_no in count(2, _CHUNK):  # the file line of the block's first line
            block = list(islice(text, _CHUNK))
            if not block:
                break
            lines = [line for line in block if line != "\n"] if "\n" in block else block
            if not lines:
                continue
            raw = bytes(8) + "".join(lines).encode()  # 8 bytes before the text for word loads
            pad = np.frombuffer(raw if raw.endswith(b"\n") else raw + b"\n", np.uint8)
            words = np.ndarray((len(pad) - 7,), "<u8", pad, 0, (1,))  # the 8 bytes at each offset
            seps = np.flatnonzero((pad == ord(",")) | (pad == ord("\n")))  # where each field ends
            first = np.concatenate(([8], seps[:-1] + 1))  # where each field starts
            whole = len(seps) == len(_FIELDS) * len(lines) and (pad[seps[5::6]] == ord("\n")).all()
            rows = whole and _parse_canonical_rows(pad, words, first, seps)
            if not rows or not all(np.isfinite(rows[f]).all() for f in ("x", "y", "speed")):
                rows = _parse_block(block, line_no)  # if not whole, a row has another field count
            stop = end + len(lines)
            if stop > len(points):  # the file grew after it was counted
                points = np.concatenate([points, np.empty(stop - len(points), POINT_DTYPE)])
            points["vehicle"][end:stop] = _vehicle_index(words, first[1::6], seps[1::6], table, ids)
            for name, column in rows.items():
                points[name][end:stop] = column
            end = stop
            del block, lines, raw, pad, words, seps, first, rows  # free the block
    if end < len(points):  # the file shrank after it was counted
        points = points[:end].copy()
    return _checked_trace(points, ids)  # the array itself: a view would keep its base alive


# ---------------------------------------------------------------------------
# SUMO floating-car-data XML
# ---------------------------------------------------------------------------


def _byte_offset(text: str, line: int, column: int) -> int:
    """File offset of expat's (line, column) in ``text`` as read, line ends
    untranslated: expat ends a line at CRLF, CR or LF and counts characters."""
    start = max((m.end() for m in islice(re.finditer("\r\n|\r|\n", text), line - 1)), default=0)
    return len(text[: start + column].encode("utf-8"))


def read_fcd_xml(source: str | Path, labels: LabelTable) -> Trace:
    """Ingest a SUMO floating-car-data export.

    ``time`` attribute values are mapped to integer steps by order of
    appearance.  Vehicles absent from ``labels`` are skipped; a single
    warning with the skip count is logged.  A vehicle listed twice in one
    timestep raises :class:`TraceFormatError`.
    """
    with _utf8_text(source, newline="") as file:
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
    for line_no, (vehicle_id, route_label) in _csv_rows(source, LABEL_HEADER, (str, int)):
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
    """Write the dataset's rows as ``x,y,label``; features other than (x, y)
    raise ValueError."""
    if dataset.features.shape[1] != 2:
        raise ValueError(f"an examples CSV holds 2 features (x, y), "
                         f"the dataset has {dataset.features.shape[1]}")
    lines = [EXAMPLES_HEADER]
    lines.extend(f"{x:.17g},{y:.17g},{label}"
                 for (x, y), label in zip(dataset.features.tolist(), dataset.labels.tolist()))
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_examples_csv(source: str | Path) -> Dataset:
    rows = []
    for line_no, row in _csv_rows(source, EXAMPLES_HEADER, (float, float, int)):
        if row[2] not in (1, -1):
            raise TraceFormatError(f"line {line_no}: label must be +1 or -1")
        rows.append(row)
    table = np.array(rows, dtype=float).reshape(-1, 3)
    return Dataset(table[:, :2], table[:, 2])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_examples(
    trace: Trace,
    n: int,
    seed: int,
    exclude_vehicles: tuple[str, ...] | frozenset[str] = (),
) -> Dataset:
    """Draw one (x, y) example from each of ``n`` distinct vehicles.

    Vehicles are chosen uniformly without replacement from the trace (minus
    ``exclude_vehicles``) by a partial Fisher-Yates shuffle; each contributes
    its position at one uniformly random step.  Deterministic in (trace, n,
    seed): the ``n`` vehicle draws of ``random.Random(seed).random()`` come
    first, then one step draw per chosen vehicle in choice order, all taken by
    :func:`~routesvm.traffic_sim.uniform_draws`, whose reliance on
    ``getrandbits``' word order a tier-1 test pins on every Python version.
    The seed is an integer, a numpy one too; a negative seed, which
    ``random.Random`` takes as its absolute value, is refused.
    """
    if n < 0:
        raise ValueError(f"sample size must be at least 0, got {n}")
    seed = operator.index(seed)  # a numpy integer becomes an int; a float is refused, not truncated
    if seed < 0:
        raise ValueError(f"sample seed must be at least 0, got {seed}")
    excluded = set(exclude_vehicles)
    pool = [v for v, vid in enumerate(trace.vehicle_ids) if vid not in excluded]
    if len(pool) < n:
        raise InsufficientVehiclesError(f"need {n} distinct vehicles, trace provides {len(pool)}")
    u = uniform_draws(random.Random(seed), 2 * n)
    left = len(pool) - np.arange(n)  # entries not yet fixed at shuffle step i
    swaps = np.arange(n) + np.minimum((u[:n] * left).astype(np.int64), left - 1)
    for i, j in enumerate(swaps.tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    chosen = np.array(pool[:n], dtype=np.int64)
    rows, starts, counts = trace.rows_by_vehicle
    count = counts[chosen]
    k = np.minimum((u[n:] * count).astype(np.int64), count - 1)
    picked = trace.points[rows[starts[chosen] + k]]
    return Dataset(np.column_stack((picked["x"], picked["y"])), 1 - 2 * picked["route_label"],
                   tuple(trace.vehicle_ids[v] for v in chosen.tolist()))


def derive_seed(seed: int, stream: int) -> int:
    """Arithmetic sub-stream derivation (portable, no hashing)."""
    return (seed * 1_000_003 + stream) % 2**63
