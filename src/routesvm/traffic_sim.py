"""Deterministic microscopic simulator of a two-route highway junction.

Vehicles drive in one direction on a three-lane mainline.  At the junction
each vehicle either continues straight (route 0) or takes the right off-ramp
(route 1), descending on a smooth cubic path to the ramp level and then
continuing straight.  The simulator emits one position sample per vehicle per
time step, labeled with the vehicle's route choice.

A :class:`Trace` holds those samples as numpy columns (step, vehicle index,
x, y, speed, route_label) in one structured ``POINT_DTYPE`` array, plus the
sorted table of vehicle ids the index points into.  Every builder fills one
such array and hands it to :func:`make_trace`, which puts it in canonical
order in place; the simulator fills it a block of steps at a time, already in
that order, so no builder holds more than the array and one block of work.

All randomness is ``random.Random(rng_seed).random()``, drawn in bulk by
:func:`uniform_draws` in this order: per vehicle, in index order, a route, a
lane and a speed draw, then one y-jitter draw per time step.  Positions are
elementwise float64 arithmetic in a fixed order, so a given
``ScenarioConfig``, checked once when it is built, always produces a
bit-identical trace on every platform.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Real

import numpy as np
from numpy.typing import ArrayLike

from .svm import _python_number

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "Trace",
    "make_trace",
    "generate_trace",
    "uniform_draws",
    "vehicle_position",
]

LANE_COUNT = 3
_BLOCK = 1 << 16  # rows generate_trace fills, and draws uniform_draws makes, at a time


class ConfigError(ValueError):
    """A scenario configuration violates an invariant.

    ``field`` names the offending configuration field.
    """

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry and sampling parameters for one simulation run.

    Distances are meters, speeds meters per step.  ``lane_y`` lists the three
    lane center ordinates from top (leftmost lane) down.  Route-1 vehicles
    leave the mainline at ``junction_x`` and reach ``ramp_end`` where the
    off-ramp levels out.  Vehicle ``i`` spawns at ``x = spawn_spacing * i`` so
    the fleet occupies a distinct stretch of road on both sides of the
    junction.  Building one, ``replace`` included, raises :class:`ConfigError`
    naming the first field that is invalid.  Each field is typed like its
    default, an integer, a real or a tuple of as many, never a bool, within
    float64 range; an integer field keeps the Python int a numpy integer
    equals, and a real field holds the Python float its value rounds to.
    """

    num_vehicles: int = 600
    num_steps: int = 100
    lane_y: tuple[float, float, float] = (0.0, -0.5, -1.0)
    junction_x: float = 200.0
    ramp_end: tuple[float, float] = (260.0, -2.0)
    speed_range: tuple[float, float] = (1.0, 3.0)
    route2_probability: float = 0.5
    spawn_spacing: float = 2.5
    lane_noise: float = 0.05
    rng_seed: int = 7

    def __post_init__(self):
        for f in fields(self):
            value, many = getattr(self, f.name), isinstance(f.default, tuple)
            kind, size = int if type(f.default) is int else Real, len(f.default) if many else 1
            values = value if many and isinstance(value, tuple) else (value,)
            values = tuple(map(_python_number, values))
            if len(values) != size or any(isinstance(v, bool) or not isinstance(v, kind)
                                          for v in values):
                need = f"{size} numbers" if many else "an integer" if kind is int else "a number"
                raise ConfigError(f.name, f"must be {need}")
            if not all(abs(v) <= sys.float_info.max for v in values):
                raise ConfigError(f.name, "must be finite")
            values = values if kind is int else tuple(map(float, values))
            object.__setattr__(self, f.name, values if many else values[0])
        if self.num_vehicles < 1:
            raise ConfigError("num_vehicles", "must be >= 1")
        if self.num_steps < 1:
            raise ConfigError("num_steps", "must be >= 1")
        if not all(a > b for a, b in zip(self.lane_y, self.lane_y[1:])):
            raise ConfigError("lane_y", "must be strictly decreasing")
        lo, hi = self.speed_range
        if not (0.0 < lo <= hi):
            raise ConfigError("speed_range", "needs 0 < low <= high")
        if self.ramp_end[1] >= min(self.lane_y):
            raise ConfigError("ramp_end", "ordinate must lie below the lowest lane")
        if self.ramp_end[0] <= self.junction_x:
            raise ConfigError("ramp_end", "abscissa must lie past the junction")
        if not (0.0 <= self.route2_probability <= 1.0):
            raise ConfigError("route2_probability", "must be in [0, 1]")
        if self.spawn_spacing <= 0.0:
            raise ConfigError("spawn_spacing", "must be > 0")
        if self.lane_noise < 0.0:
            raise ConfigError("lane_noise", "must be >= 0")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed", "must be a nonnegative integer")


POINT_DTYPE = np.dtype(
    [("step", np.int64), ("vehicle", np.int64), ("x", np.float64), ("y", np.float64),
     ("speed", np.float64), ("route_label", np.int8)]  # route 0 = mainline, 1 = off-ramp
)


@dataclass(frozen=True, eq=False)
class Trace:
    """Vehicle observations, one row per vehicle per step; build with :func:`make_trace`.

    ``points`` is a read-only ``POINT_DTYPE`` array sorted by (step, vehicle
    id); its ``vehicle`` field indexes ``vehicle_ids``, the sorted table of
    distinct ids, so index order is id order.
    """

    points: np.ndarray
    vehicle_ids: tuple[str, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.vehicle_ids == other.vehicle_ids and np.array_equal(self.points, other.points)

    def __reduce__(self):
        """A pickled or deep-copied trace is rebuilt by :func:`make_trace`, so read-only."""
        return make_trace, (self.points, self.vehicle_ids)

    @cached_property
    def rows_by_vehicle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, starts, counts): row indices grouped by vehicle index, each
        vehicle's rows in step order; vehicle ``v`` owns
        ``rows[starts[v]:starts[v] + counts[v]]``.  Computed once per trace,
        by a stable sort on vehicle alone, as the rows are in step order."""
        rows = np.argsort(self.points["vehicle"], kind="stable")
        counts = np.bincount(self.points["vehicle"], minlength=len(self.vehicle_ids))
        return rows, np.cumsum(counts) - counts, counts


def make_trace(points: np.ndarray, vehicle_ids: Sequence[str]) -> Trace:
    """A trace from a ``POINT_DTYPE`` array of rows in any order.

    Takes ownership of ``points``: it is changed in place and becomes the
    trace's read-only ``points``.  Its ``vehicle`` values index
    ``vehicle_ids``, distinct ids in any order, each with a row.  The id table
    is sorted and the indices remapped to it; rows are put in (step, vehicle
    id) order with one stable ``np.lexsort``, one field at a time, only if an
    O(n) check finds them out of that order.  Nothing is validated here; the
    file readers validate what they ingest.
    """
    id_order = sorted(range(len(vehicle_ids)), key=vehicle_ids.__getitem__)
    if id_order != list(range(len(id_order))):
        rank = np.argsort(np.array(id_order, dtype=np.int64))  # given index -> sorted position
        points["vehicle"] = rank[points["vehicle"]]
    step, vehicle = points["step"], points["vehicle"]
    if ((step[1:] < step[:-1]) | ((step[1:] == step[:-1]) & (vehicle[1:] < vehicle[:-1]))).any():
        order = np.lexsort((vehicle, step))
        for name in POINT_DTYPE.names:
            points[name] = points[name][order]
    points.flags.writeable = False
    return Trace(points, tuple(vehicle_ids[i] for i in id_order))


def vehicle_position(
    config: ScenarioConfig, route: ArrayLike, lane_index: ArrayLike, speed: ArrayLike,
    step: ArrayLike, spawn_x: ArrayLike = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free position of a vehicle at ``step``.

    x advances by ``speed`` per step from ``spawn_x``.  Route 0 keeps the
    lane ordinate forever; route 1 follows the lane until the junction, then
    a cubic Hermite blend with zero slope at both ends down to ``ramp_end``,
    and stays flat at the ramp level beyond it.  The arguments broadcast
    together, so one call places a whole fleet; scalar arguments give 0-d
    results.  Pure function of its arguments.
    """
    x = spawn_x + speed * np.asarray(step)
    lane_y = np.asarray(config.lane_y, dtype=float)[lane_index]
    x0 = config.junction_x
    x1, y1 = config.ramp_end
    ramp = np.asarray(route) != 0
    y = np.where(ramp & (x >= x1), y1, lane_y)
    blend = np.broadcast_to(ramp & ~(x <= x0) & ~(x >= x1), y.shape)  # a nan x blends to nan
    x_on, lane_on = (np.broadcast_to(a, y.shape)[blend] for a in (x, lane_y))
    s = (x_on - x0) / (x1 - x0)  # float_power is C pow, as Python's s ** 3; numpy's ** is not
    y[blend] = lane_on + (y1 - lane_on) * (3.0 * s * s - 2.0 * np.float_power(s, 3))
    return x, y


def uniform_draws(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, leaving ``rng`` where n calls would.

    Each is CPython's ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` on two MT19937
    outputs, which ``getrandbits`` yields low word first, ``_BLOCK`` values at a time.
    """
    u = np.empty(n)
    for first in range(0, n, _BLOCK):
        m = min(_BLOCK, n - first)
        w = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u8")
        u[first : first + m] = (((w & 0xFFFFFFFF) >> 5) * 67108864.0 + (w >> 38)) / 2.0**53
    return u


@np.errstate(over="ignore", invalid="ignore")  # positions that overflow are refused
def generate_trace(config: ScenarioConfig) -> Trace:
    """Simulate the configured scenario and return its labeled trace.

    Vehicle ``i`` is ``v{i:04d}``; row ``i`` of the draws holds its route,
    lane and speed draws, then its y-jitter draws, in stream order.  The
    per-vehicle values are permuted into id order (past 10000 vehicles
    ``v10000`` sorts before ``v1001``) and the points are filled ``_BLOCK``
    rows of whole steps at a time, in canonical order, so nothing is sorted.

    Raises :class:`ConfigError` for a config whose positions overflow float64
    (field ``positions``).
    """
    rng = random.Random(config.rng_seed)
    n, steps = config.num_vehicles, config.num_steps
    u = uniform_draws(rng, n * (3 + steps)).reshape(n, -1)
    ids = [f"v{i:04d}" for i in range(n)]
    by_id = np.array(sorted(range(n), key=ids.__getitem__))
    lo, hi = config.speed_range
    routes = (u[by_id, 0] < config.route2_probability).astype(np.int8)
    lanes = np.minimum((u[by_id, 1] * LANE_COUNT).astype(np.int64), LANE_COUNT - 1)
    speeds = lo + (hi - lo) * u[by_id, 2]
    spawn_x = config.spawn_spacing * by_id
    points = np.empty(n * steps, dtype=POINT_DTYPE)
    per_block = max(1, _BLOCK // n)
    for first in range(0, steps, per_block):
        last = min(first + per_block, steps)
        step = np.arange(first, last)[:, None]
        block = points[first * n : last * n].reshape(-1, n)
        block["step"], block["vehicle"] = step, np.arange(n)
        block["speed"], block["route_label"] = speeds, routes
        block["x"], block["y"] = vehicle_position(config, routes, lanes, speeds, step, spawn_x)
        block["y"] += (2.0 * u[by_id, 3 + first : 3 + last].T - 1.0) * config.lane_noise
        finite = (np.isfinite(block["x"]) & np.isfinite(block["y"])).all(axis=1)
        if not finite.all():
            raise ConfigError("positions", f"overflow float64 at step {first + finite.argmin()}")
    return make_trace(points, [ids[i] for i in by_id])
