import hashlib
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from routesvm import traffic_sim
from routesvm.cli import main
from routesvm.dataset_io import write_trace_csv
from routesvm.traffic_sim import (
    ConfigError,
    ScenarioConfig,
    generate_trace,
    make_trace,
    uniform_draws,
    vehicle_position,
)

from helpers import (
    label_table_of,
    peak_allocation,
    pickled_and_deep_copies,
    reference_trace,
    rows_of,
)


def config_with(**kwargs) -> ScenarioConfig:
    return ScenarioConfig(**{"num_vehicles": 10, "num_steps": 20, **kwargs})


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"num_vehicles": 0}, "num_vehicles"),
            ({"num_steps": 0}, "num_steps"),
            ({"lane_y": (0.0, 0.0, -1.0)}, "lane_y"),
            ({"lane_y": (-1.0, -0.5, 0.0)}, "lane_y"),
            ({"lane_y": (0.0, -1.0)}, "lane_y"),
            ({"speed_range": (0.0, 2.0)}, "speed_range"),
            ({"speed_range": (3.0, 1.0)}, "speed_range"),
            ({"ramp_end": (260.0, -0.5)}, "ramp_end"),
            ({"ramp_end": (150.0, -2.0)}, "ramp_end"),
            ({"route2_probability": 1.5}, "route2_probability"),
            ({"spawn_spacing": 0.0}, "spawn_spacing"),
            ({"rng_seed": -1}, "rng_seed"),
            ({"spawn_spacing": 10**400}, "spawn_spacing"),
            ({"num_vehicles": 10**400}, "num_vehicles"),
            ({"num_vehicles": 3.0}, "num_vehicles"),
            ({"num_vehicles": True}, "num_vehicles"),
            ({"num_steps": 2.5}, "num_steps"),
            ({"num_steps": np.float64(3.0)}, "num_steps"),
            ({"rng_seed": 1.5}, "rng_seed"),
            ({"rng_seed": True}, "rng_seed"),
            ({"lane_noise": True}, "lane_noise"),
            ({"lane_noise": np.True_}, "lane_noise"),
            ({"lane_noise": "0.1"}, "lane_noise"),
            ({"junction_x": None}, "junction_x"),
            ({"lane_y": (True, False, -1.0)}, "lane_y"),
            ({"lane_y": [0.0, -0.5, -1.0]}, "lane_y"),
            ({"lane_noise": np.float32("inf")}, "lane_noise"),
            ({"spawn_spacing": np.float16("inf")}, "spawn_spacing"),
            ({"junction_x": np.float32("inf")}, "junction_x"),
        ],
    )
    def test_invalid_config_names_field(self, kwargs, field):
        with pytest.raises(ConfigError) as exc_info:
            generate_trace(config_with(**kwargs))
        assert exc_info.value.field == field
        assert field in str(exc_info.value)

    @pytest.mark.parametrize("field", ["num_vehicles", "num_steps", "rng_seed"])
    @pytest.mark.parametrize("bad", [2.0, False])
    def test_a_non_integer_count_or_seed_is_not_an_integer(self, field, bad):
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer$"):
            config_with(**{field: bad})

    def test_numpy_integer_counts_and_seeds_are_accepted(self):
        config = config_with(num_vehicles=np.int64(10), num_steps=np.int32(20),
                             rng_seed=np.uint64(7))
        assert generate_trace(config) == generate_trace(config_with())

    def test_numpy_floats_are_the_python_floats_they_equal(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning: each is read as a Python float
            config = config_with(lane_noise=np.float32(0.1), junction_x=np.float16(200),
                                 lane_y=(np.float32(0), -0.5, np.longdouble(-1)))
        assert {type(v) for v in (config.lane_noise, config.junction_x, *config.lane_y)} == {float}
        python = config_with(lane_noise=float(np.float32(0.1)), junction_x=200.0)
        assert config == python
        assert generate_trace(config) == generate_trace(python)

    def test_an_int_past_the_int64_range_is_a_real_fields_float(self):
        config = ScenarioConfig(num_vehicles=3, num_steps=2, spawn_spacing=10**300)
        assert generate_trace(config) == generate_trace(replace(config, spawn_spacing=1e300))
        assert type(config.spawn_spacing) is float

    def test_an_int_real_field_gives_its_floats_trace_bytes(self, tmp_path):
        for name, spacing in (("int", 3), ("float", 3.0)):
            write_trace_csv(generate_trace(config_with(spawn_spacing=spacing)), tmp_path / name)
        assert (tmp_path / "int").read_bytes() == (tmp_path / "float").read_bytes()

    def test_default_config_is_valid(self):
        assert ScenarioConfig() == replace(ScenarioConfig())

    @pytest.mark.parametrize("kwargs, field", [
        ({"num_steps": 0}, "num_steps"),
        ({"lane_y": (0.0, 0.0, -1.0)}, "lane_y"),
        ({"rng_seed": True}, "rng_seed"),
    ])
    def test_replace_checks_the_new_config(self, kwargs, field):
        with pytest.raises(ConfigError) as exc_info:
            replace(ScenarioConfig(), **kwargs)
        assert exc_info.value.field == field


class TestVehiclePosition:
    def test_step_zero_is_spawn_point(self):
        cfg = ScenarioConfig()
        for lane in range(3):
            x, y = vehicle_position(cfg, 0, lane, 2.0, 0, spawn_x=12.5)
            assert (x, y) == (12.5, cfg.lane_y[lane])

    def test_straight_route_is_uniform_motion(self):
        cfg = ScenarioConfig()
        v = 1.75
        for t in (1, 7, 42, 99):
            x, y = vehicle_position(cfg, 0, 1, v, t)
            assert x == pytest.approx(v * t)
            assert y == cfg.lane_y[1]

    def test_ramp_route_reaches_ramp_level(self):
        cfg = ScenarioConfig()
        for lane in range(3):
            for t in range(200):
                x, y = vehicle_position(cfg, 1, lane, 3.0, t)
                if x >= cfg.ramp_end[0]:
                    assert y <= cfg.ramp_end[1] + 1e-9

    def test_ramp_route_matches_straight_before_junction(self):
        cfg = ScenarioConfig()
        for t in range(60):
            straight = vehicle_position(cfg, 0, 2, 2.0, t)
            ramp = vehicle_position(cfg, 1, 2, 2.0, t)
            if straight[0] < cfg.junction_x:
                assert ramp == straight

    def test_ramp_y_nonincreasing_after_junction(self):
        cfg = ScenarioConfig()
        prev_y = None
        for t in range(150):
            x, y = vehicle_position(cfg, 1, 0, 2.5, t)
            if x > cfg.junction_x and prev_y is not None:
                assert y <= prev_y + 1e-12
            prev_y = y

    def test_scalar_arguments_give_0d_results(self):
        x, y = vehicle_position(ScenarioConfig(), 1, 0, 2.5, 90)
        assert np.ndim(x) == np.ndim(y) == 0

    def test_arguments_broadcast_to_the_per_vehicle_values(self):
        cfg = ScenarioConfig()
        routes, lanes = np.array([[0], [1], [1]]), np.array([[2], [0], [1]])
        speeds, spawn = np.array([[1.5], [2.0], [3.0]]), np.array([[0.0], [150.0], [190.0]])
        steps = np.arange(40)
        x, y = vehicle_position(cfg, routes, lanes, speeds, steps, spawn)
        assert x.shape == y.shape == (3, 40)
        for v in range(3):
            for t in steps.tolist():
                one = vehicle_position(cfg, int(routes[v, 0]), int(lanes[v, 0]),
                                       float(speeds[v, 0]), t, float(spawn[v, 0]))
                assert (x[v, t], y[v, t]) == one

    @staticmethod
    def all_points_position(config, route, lane_index, speed, step, spawn_x=0.0):
        """vehicle_position as it was: the ramp blend at every point, then
        selected by np.where."""
        x = spawn_x + speed * np.asarray(step)
        lane_y = np.asarray(config.lane_y, dtype=float)[lane_index]
        x0 = config.junction_x
        x1, y1 = config.ramp_end
        s = (x - x0) / (x1 - x0)
        ramp_y = np.where(x <= x0, lane_y, np.where(
            x >= x1, y1, lane_y + (y1 - lane_y) * (3.0 * s * s - 2.0 * np.float_power(s, 3))))
        return x, np.where(np.asarray(route) == 0, lane_y, ramp_y)

    @pytest.mark.parametrize("route, lane, speed, step, spawn_x", [
        # x exactly at the junction and at the ramp end, and either side of each
        (1, 2, 1.0, 0, np.array([np.nextafter(200.0, 0), 200.0, np.nextafter(200.0, 300), 230.0,
                                 np.nextafter(260.0, 0), 260.0, np.nextafter(260.0, 300)])),
        (np.array([0, 1, 2]), np.array([0, 1, 2]), 2.0, np.arange(140)[:, None], 0.0),
        # scalars, which give 0-d results: before, on and past the ramp
        (1, 0, 2.5, 60, 0.0), (1, 0, 2.5, 90, 0.0), (1, 1, 2.5, 104, 0.0),
        (1, 0, 2.5, 80, 0.0), (1, 2, 2.0, 130, 0.0), (0, 1, 2.5, 90, 0.0),
        (1, 0, 2, 105, 0), (1, 0, 2.5, 0, np.nan),
        # a route array broadcasting wider than x, and one lane per route
        (np.array([[0], [1], [3]]), 1, 2.0, np.arange(0, 150, 7), 0.0),
        (np.array([[1], [0], [1]]), np.array([[2], [0], [1]]), 1.5, np.arange(0, 200, 9), 10.0),
    ])
    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(),
        # lane -0.7 blends to -2.9000000000000004 at the ramp end, not -2.9
        ScenarioConfig(lane_y=(0.1, -0.7, -1.3), ramp_end=(260.0, -2.9)),
    ])
    def test_the_blend_at_ramp_points_only_matches_all_points_bitwise(
            self, cfg, route, lane, speed, step, spawn_x):
        got = vehicle_position(cfg, route, lane, speed, step, spawn_x)
        want = self.all_points_position(cfg, route, lane, speed, step, spawn_x)
        for a, b in zip(got, want):
            assert (type(a), np.shape(a), np.asarray(a).dtype) == \
                (type(b), np.shape(b), np.asarray(b).dtype)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_x_strictly_increasing(self):
        cfg = ScenarioConfig()
        for route in (0, 1):
            xs = [vehicle_position(cfg, route, 1, 1.0, t)[0] for t in range(50)]
            assert all(b > a for a, b in zip(xs, xs[1:]))


class TestGenerateTrace:
    def test_single_vehicle_straight_keeps_lane_ordinate(self):
        cfg = config_with(num_vehicles=1, route2_probability=0.0, lane_noise=0.0)
        trace = generate_trace(cfg)
        assert len(trace.points) == cfg.num_steps
        labels = set(trace.points["route_label"].tolist())
        assert labels == {0}
        ys = set(trace.points["y"].tolist())
        assert len(ys) == 1
        assert ys.pop() in cfg.lane_y

    @pytest.mark.parametrize("kwargs", [
        {"spawn_spacing": 1e308},
        {"speed_range": (1.0, 1e308)},
        {"lane_y": (1e308, 0.0, -1e308), "ramp_end": (260.0, -1.7e308), "lane_noise": 1e308},
    ])
    def test_positions_past_float64_raise_config_error_without_a_warning(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="overflow float64") as exc_info:
                generate_trace(config_with(**kwargs))
        assert exc_info.value.field == "positions"

    def test_route_split_matches_probability(self):
        cfg = config_with(num_vehicles=500, route2_probability=0.5, rng_seed=7)
        trace = generate_trace(cfg)
        label_per_vehicle = label_table_of(trace)
        fraction = sum(label_per_vehicle.values()) / len(label_per_vehicle)
        assert 0.4 <= fraction <= 0.6

    def test_determinism(self):
        cfg = config_with(rng_seed=99)
        assert generate_trace(cfg) == generate_trace(cfg)

    @pytest.mark.parametrize("seed, digest", [
        (7, "74edcf8d646f805939cab1d11d73059032ee2bb32547ae0bf979e158046631c6"),
        (11, "9d1b92bf82e5dc39a3a9fdad2cb0908470cfdc02a92469ef8f0fee6c030ca05e"),
        (23, "3e49271f32934f1cb8b8a10fae50c693ad64330cfba288444ec062880a9036e1"),
    ])
    def test_default_trace_bytes_are_pinned(self, tmp_path, seed, digest):
        path = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(ScenarioConfig(rng_seed=seed)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_run_paper_figure_bytes_are_pinned(self, tmp_path):
        assert main(["run-paper", "--out-dir", str(tmp_path), "--seed", "7"]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("model.txt", "train.svg", "test_10.svg", "test_100.svg")}
        assert digests == {
            "model.txt": "b0243a19800a06daffcab6a784d29d8480ebdfed7f8376005e6ae7de33936885",
            "train.svg": "32594fac11efc7f95e4d9e4568f87cf2873119ca9548bea3180c02d79f663c36",
            "test_10.svg": "be6271dbd3b822c33d972b06f0a5258a650dc72ef5fea0626b36026aca31dc5f",
            "test_100.svg": "00d2132093ab886d17ae7452350a732a3def15c226c70018a27ac160ec967e27",
        }

    def test_points_sorted_and_unique(self):
        trace = generate_trace(config_with(num_vehicles=7, num_steps=9))
        keys = [row[:2] for row in rows_of(trace)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_id_string_order_above_ten_thousand_vehicles(self):
        trace = generate_trace(ScenarioConfig(num_vehicles=10001, num_steps=1))
        keys = [row[:2] for row in rows_of(trace)]
        assert keys == sorted(keys)
        assert len(set(keys)) == 10001
        ids = [vid for _, vid in keys]
        assert ids.index("v10000") < ids.index("v1001")
        assert list(trace.vehicle_ids) == ids

    @pytest.mark.parametrize("block", [1, 20, 1 << 16])
    @pytest.mark.parametrize("vehicles, steps", [(7, 9), (10001, 2)])
    def test_matches_the_reference_in_any_block_size(self, monkeypatch, vehicles, steps, block):
        """Blocks of whole steps, the last one short; past 10000 vehicles id
        order is not index order."""
        monkeypatch.setattr(traffic_sim, "_BLOCK", block)
        config = ScenarioConfig(num_vehicles=vehicles, num_steps=steps)
        trace, reference = generate_trace(config), reference_trace(config)
        assert trace.vehicle_ids == reference.vehicle_ids
        assert trace.points.tobytes() == reference.points.tobytes()

    def test_peak_allocation_is_the_points_and_one_block(self):
        trace, peak = peak_allocation(generate_trace, ScenarioConfig(num_vehicles=2000))
        ratio = peak / trace.points.nbytes
        assert ratio <= 1.6

    def test_points_are_read_only(self):
        trace = generate_trace(config_with())
        with pytest.raises(ValueError):
            trace.points["x"][0] = 0.0

    def test_labels_constant_per_vehicle_and_steps_contiguous(self):
        trace = generate_trace(config_with(num_vehicles=12, num_steps=15))
        by_vehicle = {}
        for step, vid, *_, label in rows_of(trace):
            by_vehicle.setdefault(vid, []).append((step, label))
        for rows in by_vehicle.values():
            assert len({label for _, label in rows}) == 1
            steps = sorted(step for step, _ in rows)
            assert steps == list(range(steps[0], steps[0] + len(steps)))

    def test_class_geometry_bands(self, default_trace):
        cfg = ScenarioConfig()
        p = default_trace.points
        mainline = p["route_label"] == 0
        assert mainline.any() and not mainline.all()
        assert np.all(p["y"][mainline] >= min(cfg.lane_y) - cfg.lane_noise - 1e-12)
        past_ramp = ~mainline & (p["x"] > cfg.ramp_end[0])
        assert past_ramp.any()
        assert np.all(p["y"][past_ramp] <= cfg.ramp_end[1] + cfg.lane_noise + 1e-12)

    def test_speed_within_range_and_constant(self):
        cfg = config_with(num_vehicles=9)
        trace = generate_trace(cfg)
        by_vehicle = {}
        for _, vid, _, _, speed, _ in rows_of(trace):
            by_vehicle.setdefault(vid, set()).add(speed)
        lo, hi = cfg.speed_range
        assert len(by_vehicle) == cfg.num_vehicles
        for speeds in by_vehicle.values():
            assert len(speeds) == 1
            speed = speeds.pop()
            assert lo <= speed <= hi
            assert math.isfinite(speed)


class TestUniformDraws:
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**70])
    def test_the_draws_are_the_stream(self, seed):
        """Chunk edges included; pins getrandbits' low-word-first order."""
        rng, reference = random.Random(seed), random.Random(seed)
        block = traffic_sim._BLOCK
        for n in (0, 1, block - 1, block, block + 1, 3 * block):
            drawn = uniform_draws(rng, n)
            assert drawn.dtype == np.float64 and drawn.shape == (n,)
            assert drawn.tobytes() == np.array([reference.random() for _ in range(n)]).tobytes()
            assert rng.getstate() == reference.getstate()


class TestMakeTrace:
    @staticmethod
    def shuffled(trace, seed):
        """The trace's rows and id table, each in a random order."""
        rng = np.random.default_rng(seed)
        points = trace.points[rng.permutation(len(trace.points))]
        given = rng.permutation(len(trace.vehicle_ids))  # given index -> canonical index
        points["vehicle"] = np.argsort(given)[points["vehicle"]]
        return points, [trace.vehicle_ids[i] for i in given]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_rows_give_the_canonical_trace(self, seed):
        trace = generate_trace(config_with(num_vehicles=12, num_steps=7))
        shuffled = make_trace(*self.shuffled(trace, seed))
        assert shuffled == trace
        assert shuffled.points.tobytes() == trace.points.tobytes()

    def test_canonical_input_is_used_in_place(self):
        generated = generate_trace(config_with())
        points = generated.points.copy()
        trace = make_trace(points, generated.vehicle_ids)
        assert trace == generated
        assert np.shares_memory(trace.points, points)
        assert not points.flags.writeable

    def test_pickled_and_deep_copies_are_read_only_copies(self):
        trace = generate_trace(config_with())
        for copied in pickled_and_deep_copies(trace):
            assert copied == trace and not copied.points.flags.writeable
            assert not np.shares_memory(copied.points, trace.points)

    def test_shuffled_input_is_sorted_in_place(self):
        points, ids = self.shuffled(generate_trace(config_with()), 0)
        assert np.shares_memory(make_trace(points, ids).points, points)

    def test_rows_with_equal_keys_keep_their_order(self):
        points = np.zeros(4, dtype=traffic_sim.POINT_DTYPE)
        points["step"] = [1, 0, 1, 0]
        points["x"] = [0.0, 1.0, 2.0, 3.0]
        assert make_trace(points, ["a"]).points["x"].tolist() == [1.0, 3.0, 0.0, 2.0]
