"""Deterministic microscopic simulator of a two-route highway junction.

Vehicles drive in one direction on a three-lane mainline.  At the junction
each vehicle either continues straight (route 0) or takes the right off-ramp
(route 1), descending on a smooth cubic path to the ramp level and then
continuing straight.  The simulator emits one position sample per vehicle per
time step, labeled with the vehicle's route choice.

A :class:`Trace` holds those samples as numpy columns (step, vehicle index,
x, y, speed, route_label) in one structured array, plus the sorted table of
vehicle ids the index points into.  :func:`make_trace` is the one place that
builds a trace from columns; the simulator and both file readers use it.

All randomness comes from one ``random.Random(rng_seed)`` stream, drawn in
this order: per vehicle, in index order, a route draw, a lane draw, a speed
draw, then one y-jitter draw per time step.  Positions are elementwise
float64 arithmetic in a fixed order, so a given ``ScenarioConfig`` always
produces a bit-identical trace on every platform.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "Trace",
    "make_trace",
    "generate_trace",
    "vehicle_position",
]

LANE_COUNT = 3


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
    junction.
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

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming the first field that is invalid."""
        for f in fields(self):
            if not all(abs(v) <= sys.float_info.max for v in np.ravel(getattr(self, f.name))):
                raise ConfigError(f.name, "must be finite")
        if self.num_vehicles < 1:
            raise ConfigError("num_vehicles", "must be >= 1")
        if self.num_steps < 1:
            raise ConfigError("num_steps", "must be >= 1")
        if len(self.lane_y) != LANE_COUNT:
            raise ConfigError("lane_y", f"must list {LANE_COUNT} lane ordinates")
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

    @cached_property
    def rows_by_vehicle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, starts, counts): row indices grouped by vehicle index, each
        vehicle's rows in step order; vehicle ``v`` owns
        ``rows[starts[v]:starts[v] + counts[v]]``.  Computed once per trace."""
        rows = np.lexsort((self.points["step"], self.points["vehicle"]))
        counts = np.bincount(self.points["vehicle"], minlength=len(self.vehicle_ids))
        return rows, np.cumsum(counts) - counts, counts


def make_trace(columns: Mapping, vehicle_ids: Sequence[str]) -> Trace:
    """A trace from columns of rows in any order.

    ``columns`` maps every ``POINT_DTYPE`` field to one value per row; the
    ``vehicle`` values index ``vehicle_ids``, distinct ids in any order, each
    with a row.  The id table is sorted, the indices remapped to it and the
    rows put in (step, vehicle id) order with one stable ``np.lexsort``.
    Nothing is validated here; the file readers validate what they ingest.
    """
    id_order = sorted(range(len(vehicle_ids)), key=vehicle_ids.__getitem__)
    rank = np.argsort(np.array(id_order, dtype=np.int64))  # given index -> sorted position
    vehicle = rank[np.asarray(columns["vehicle"], dtype=np.int64)]
    step = np.asarray(columns["step"], dtype=np.int64)
    order = np.lexsort((vehicle, step))
    points = np.empty(len(order), dtype=POINT_DTYPE)
    points["step"], points["vehicle"] = step[order], vehicle[order]
    for name in ("x", "y", "speed", "route_label"):
        points[name] = np.asarray(columns[name])[order]
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
    s = (x - x0) / (x1 - x0)  # float_power is C pow, as Python's s ** 3; numpy's ** is not
    ramp_y = np.where(x <= x0, lane_y, np.where(
        x >= x1, y1, lane_y + (y1 - lane_y) * (3.0 * s * s - 2.0 * np.float_power(s, 3))))
    return x, np.where(np.asarray(route) == 0, lane_y, ramp_y)


def generate_trace(config: ScenarioConfig) -> Trace:
    """Simulate the configured scenario and return its labeled trace.

    Vehicle ``i`` is ``v{i:04d}``; row ``i`` of the draws holds its route,
    lane and speed draws, then its y-jitter draws, in stream order.

    Raises :class:`ConfigError` for configs violating invariants.
    """
    config.validate()
    rng = random.Random(config.rng_seed)
    n, steps = config.num_vehicles, config.num_steps
    u = np.fromiter(iter(rng.random, None), float, count=n * (3 + steps)).reshape(n, -1)
    lo, hi = config.speed_range
    routes = (u[:, :1] < config.route2_probability).astype(np.int8)  # (n, 1) columns
    lanes = np.minimum((u[:, 1:2] * LANE_COUNT).astype(np.int64), LANE_COUNT - 1)
    speeds = lo + (hi - lo) * u[:, 2:3]
    spawn_x = config.spawn_spacing * np.arange(n)[:, None]
    x, y = vehicle_position(config, routes, lanes, speeds, np.arange(steps), spawn_x)
    columns = {
        "step": np.tile(np.arange(steps), n),
        "vehicle": np.repeat(np.arange(n), steps),
        "x": x.ravel(),
        "y": (y + (2.0 * u[:, 3:] - 1.0) * config.lane_noise).ravel(),
        "speed": np.repeat(speeds, steps),
        "route_label": np.repeat(routes, steps),
    }
    return make_trace(columns, [f"v{i:04d}" for i in range(n)])
