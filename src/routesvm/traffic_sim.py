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

All randomness comes from a single ``random.Random`` stream consumed in a
documented order, so a given ``ScenarioConfig`` always produces a
bit-identical trace on every platform.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

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
        for f in fields(self):  # unlike math.isfinite, comparisons take ints past float range
            if not all(-np.inf < v < np.inf for v in np.ravel(getattr(self, f.name))):
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
    distinct ids, so index order is id order.  ``config`` is ``None`` for
    ingested traces; it is carried for provenance and excluded from equality,
    so round-trips through formats that do not persist it compare equal.
    """

    points: np.ndarray
    vehicle_ids: tuple[str, ...]
    config: ScenarioConfig | None = None

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


def make_trace(
    columns: Mapping, vehicle_ids: Sequence[str], config: ScenarioConfig | None = None
) -> Trace:
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
    return Trace(points, tuple(vehicle_ids[i] for i in id_order), config)


def _ramp_y(config: ScenarioConfig, lane_y: float, x: float) -> float:
    """Off-ramp ordinate at abscissa ``x``.

    Cubic Hermite blend from (junction_x, lane_y) to ramp_end with zero slope
    at both ends; flat at the ramp level beyond ramp_end.
    """
    x0 = config.junction_x
    x1, y1 = config.ramp_end
    if x <= x0:
        return lane_y
    if x >= x1:
        return y1
    s = (x - x0) / (x1 - x0)
    return lane_y + (y1 - lane_y) * (3.0 * s * s - 2.0 * s ** 3)


def vehicle_position(
    config: ScenarioConfig,
    route: int,
    lane_index: int,
    speed: float,
    step: int,
    spawn_x: float = 0.0,
) -> tuple[float, float]:
    """Noise-free position of a vehicle at ``step``.

    x advances by ``speed`` per step from ``spawn_x``.  Route 0 keeps the
    spawn lane ordinate forever; route 1 follows the lane until the junction,
    then the smooth ramp path down to the ramp level.  Pure function of its
    arguments.
    """
    x = spawn_x + speed * step
    lane_y = config.lane_y[lane_index]
    if route == 0:
        return x, lane_y
    return x, _ramp_y(config, lane_y, x)


def generate_trace(config: ScenarioConfig) -> Trace:
    """Simulate the configured scenario and return its labeled trace.

    Per vehicle, in index order (vehicle ``i`` is ``v{i:04d}``), the seeded
    stream is consumed as: route draw, lane draw, speed draw, then one
    y-jitter draw per time step.  Identical configs (including seed)
    therefore yield bit-identical traces.

    Raises :class:`ConfigError` for configs violating invariants.
    """
    config.validate()
    rng = random.Random(config.rng_seed)
    lo, hi = config.speed_range
    noise = config.lane_noise
    n, steps = config.num_vehicles, config.num_steps
    routes, speeds, xs, ys = [], [], [], []
    for i in range(n):
        route = 1 if rng.random() < config.route2_probability else 0
        lane_index = min(int(rng.random() * LANE_COUNT), LANE_COUNT - 1)
        speed = lo + (hi - lo) * rng.random()
        spawn_x = config.spawn_spacing * i
        routes.append(route)
        speeds.append(speed)
        for step in range(steps):
            x, y = vehicle_position(config, route, lane_index, speed, step, spawn_x)
            xs.append(x)
            ys.append(y + (2.0 * rng.random() - 1.0) * noise)
    columns = {
        "step": np.tile(np.arange(steps), n),
        "vehicle": np.repeat(np.arange(n), steps),
        "x": xs,
        "y": ys,
        "speed": np.repeat(speeds, steps),
        "route_label": np.repeat(routes, steps),
    }
    return make_trace(columns, [f"v{i:04d}" for i in range(n)], config)
