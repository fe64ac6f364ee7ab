import hashlib
import subprocess
import sys
import warnings

import pytest

from helpers import baseline_dispatch_env, enabled_simd_targets, subprocess_env
from routesvm import cli
from routesvm.cli import main, parse_test_sizes
from routesvm.dataset_io import TraceFormatError, read_fcd_xml, write_trace_csv
from routesvm.svm import ModelFormatError, load_model
from routesvm.traffic_sim import ScenarioConfig, generate_trace


# A linear model over three features, with a scaler.
THREE_FEATURE_MODEL = (
    "routesvm-model v2 family=linear bias=0 supports=2 mean=0,0,0 scale=1,1,1\n"
    "1 1 1 0 0\n1 -1 0 1 0\n"
)

# One support; the degree is within float64 range, but the kernel overflows on
# any position.
OVERFLOWING_POLY_MODEL = (
    "routesvm-model v2 family=polynomial degree=100000000000000000000 gamma=1 coef0=1"
    " bias=0 supports=1\n1 1 1 1\n"
)

# Support lines of 2 and 3 features, with no scaler to catch it.
RAGGED_MODEL = "routesvm-model v1 family=linear bias=0.5 supports=2\n1 1 0 1\n1 -1 0 1 2\n"

# A linear model whose one support gives w = (1, 0): the boundary is x = 2.
VERTICAL_MODEL = "routesvm-model v2 family=linear bias=-2 supports=1\n1 1 1 0\n"

# Linear models with no boundary line: no supports, and a zero weight vector.
LINELESS_MODELS = {
    "no-supports": "routesvm-model v2 family=linear bias=1 supports=0\n",
    "zero-weight": "routesvm-model v2 family=linear bias=0 supports=2\n1 1 1 1\n1 -1 1 1\n",
}


@pytest.fixture()
def trace_path(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    write_trace_csv(small_trace, path)
    return path


@pytest.fixture()
def overflowing_trace_path(tmp_path):
    """A trace whose x values are finite but whose spread overflows float64."""
    trace = generate_trace(ScenarioConfig(num_vehicles=30, num_steps=5, spawn_spacing=1e306))
    path = tmp_path / "overflowing.csv"
    write_trace_csv(trace, path)
    return path


# run-paper --seed 7 into argv[1]/<family> for each family in argv[2:], then a
# last stdout line of the SIMD targets numpy dispatched to.
RUN_PAPER_SCRIPT = """
import sys
from helpers import enabled_simd_targets
from routesvm.cli import main
for family in sys.argv[2:]:
    out_dir = f"{sys.argv[1]}/{family}"
    if main(["run-paper", "--seed", "7", "--kernel", family, "--out-dir", out_dir]):
        sys.exit(f"run-paper --kernel {family} failed")
print(" ".join(enabled_simd_targets()))
"""


def main_without_warnings(argv: list[str]) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


@pytest.fixture()
def single_route_trace_path(tmp_path):
    trace = generate_trace(ScenarioConfig(num_vehicles=20, num_steps=10,
                                          route2_probability=0.0, rng_seed=1))
    path = tmp_path / "single.csv"
    write_trace_csv(trace, path)
    return path


class TestGenerate:
    def test_creates_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["generate", "--vehicles", "30", "--steps", "10", "--seed", "7",
                     "-o", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "30 vehicles" in captured.out

    def test_zero_vehicles_exits_2_naming_field(self, tmp_path, capsys):
        code = main(["generate", "--vehicles", "0", "-o", str(tmp_path / "t.csv")])
        assert code == 2
        assert "vehicles" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--spacing", "1e308"],
        ["--speed-range", "1,1e308"],
        ["--lane-y", "1e308,0,-1e308", "--ramp-end", "260,-1.7e308", "--lane-noise", "1e308"],
    ])
    def test_overflowing_positions_exit_2_without_a_file(self, tmp_path, capsys, flags):
        out = tmp_path / "t.csv"
        assert main_without_warnings(["generate", "--vehicles", "5", *flags, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: positions: overflow float64 at step ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 4.66 TiB", "error: Unable to allocate 4.66 TiB\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, message,
                                                 line):
        def no_memory(config):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_trace", no_memory)
        out = tmp_path / "t.csv"
        assert main(["generate", "-o", str(out)]) == 1
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["generate", "--vehicles", "25", "--steps", "12", "--seed", "3"]
        assert main(flags + ["-o", str(a)]) == 0
        assert main(flags + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "# a short scenario\n"
            "\n"
            "num_vehicles = 15\n"
            "   # comment only\n"
            "num_steps = 8  # short run\n"
            "rng_seed = 2\n"
            "speed_range = 1.0,2.0\n"
        )
        out = tmp_path / "t.csv"
        assert main(["generate", "--config", str(cfg), "-o", str(out)]) == 0
        assert out.read_text().count("\n") == 15 * 8 + 1

    def test_config_file_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("vehicles = 10\n")
        assert main(["generate", "--config", str(cfg), "-o", str(tmp_path / "t.csv")]) == 2

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num_vehicles = 10\nnum_steps 8\n")
        assert main(["generate", "--config", str(cfg), "-o", str(tmp_path / "t.csv")]) == 2
        assert "config: line 2: expected key=value, got 'num_steps 8'" in capsys.readouterr().err

    def test_config_repeated_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num_vehicles = 600\nnum_steps = 8\nnum_vehicles = 30\n")
        out = tmp_path / "t.csv"
        assert main(["generate", "--config", str(cfg), "-o", str(out)]) == 2
        assert "config: line 3: repeated key 'num_vehicles'" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("num_vehicles = 15\nnum_steps = 8\n")
        out = tmp_path / "t.csv"
        assert main(["generate", "--config", str(cfg), "--vehicles", "5", "-o", str(out)]) == 0
        assert out.read_text().count("\n") == 5 * 8 + 1


#: (flag, ScenarioConfig field, flag value, a different value for the file)
SCENARIO_FLAGS = [
    ("--vehicles", "num_vehicles", "70", "40"),
    ("--steps", "num_steps", "6", "3"),
    ("--seed", "rng_seed", "11", "2"),
    ("--route2-prob", "route2_probability", "0.3", "0.9"),
    ("--spacing", "spawn_spacing", "4.0", "1.5"),
    ("--junction-x", "junction_x", "150", "100"),
    ("--ramp-end", "ramp_end", "300,-3", "280,-2.5"),
    ("--lane-y", "lane_y", "1,0,-1", "0.5,0,-0.5"),
    ("--speed-range", "speed_range", "0.5,2", "1,4"),
    ("--lane-noise", "lane_noise", "0.2", "0.01"),
]
SCENARIO_IDS = [case[1] for case in SCENARIO_FLAGS]
BASE_CONFIG = "num_vehicles = 90\nnum_steps = 5\n"  # 90 vehicles reach past the junction


def base_config_with(field: str, value: str) -> str:
    """BASE_CONFIG with ``field = value`` in place of its own line for ``field``."""
    lines = [line for line in BASE_CONFIG.splitlines(True) if line.split(" = ")[0] != field]
    return "".join(lines) + f"{field} = {value}\n"


class TestScenarioFlags:
    def generate(self, tmp_path, name, flags=(), config=None):
        out = tmp_path / f"{name}.csv"
        if config is not None:
            path = tmp_path / f"{name}.cfg"
            path.write_text(config)
            flags = ["--config", str(path), *flags]
        assert main(["generate", *flags, "-o", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("flag, field, value, file_value", SCENARIO_FLAGS, ids=SCENARIO_IDS)
    def test_flag_matches_config_key_and_overrides_it(self, tmp_path, flag, field, value,
                                                      file_value):
        from_flag = self.generate(tmp_path, "flag", [f"{flag}={value}"], BASE_CONFIG)
        from_file = self.generate(tmp_path, "file", config=base_config_with(field, value))
        other = base_config_with(field, file_value)
        assert from_file == from_flag
        assert self.generate(tmp_path, "both", [f"{flag}={value}"], other) == from_flag
        assert self.generate(tmp_path, "other", config=other) != from_flag

    def test_negative_tuple_values_use_the_equals_form(self, tmp_path):
        # "--lane-y -1,-2,-3" would read "-1,-2,-3" as an option.
        values = {"lane_y": "-1,-2,-3", "ramp_end": "260,-5"}
        flags = ["--lane-y=-1,-2,-3", "--ramp-end=260,-5"]
        config = BASE_CONFIG + "".join(f"{k} = {v}\n" for k, v in values.items())
        from_flags = self.generate(tmp_path, "flags", flags, BASE_CONFIG)
        assert self.generate(tmp_path, "file", config=config) == from_flags
        assert self.generate(tmp_path, "base", config=BASE_CONFIG) != from_flags

    def test_all_flags_match_config_file(self, tmp_path):
        flags = [f"{flag}={value}" for flag, _, value, _ in SCENARIO_FLAGS]
        config = "".join(f"{field} = {value}\n" for _, field, value, _ in SCENARIO_FLAGS)
        from_flags = self.generate(tmp_path, "flags", flags)
        assert self.generate(tmp_path, "file", config=config) == from_flags

    @pytest.mark.parametrize("flag, field, bad", [
        ("--vehicles", "num_vehicles", "0"),
        ("--steps", "num_steps", "-1"),
        ("--seed", "rng_seed", "-3"),
        ("--route2-prob", "route2_probability", "1.5"),
        ("--spacing", "spawn_spacing", "0"),
        ("--ramp-end", "ramp_end", "100,-3"),
        ("--ramp-end", "ramp_end", "300"),
        ("--lane-y", "lane_y", "0,x,-1"),
        ("--lane-y", "lane_y", "-1,0,1"),
        ("--speed-range", "speed_range", "3,1"),
        ("--speed-range", "speed_range", "1,2,3"),
        ("--lane-noise", "lane_noise", "-0.1"),
    ])
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, flag, field, bad):
        out = str(tmp_path / "t.csv")
        assert main(["generate", "--vehicles=8", f"{flag}={bad}", "-o", out]) == 2
        assert field in capsys.readouterr().err
        config = tmp_path / "bad.cfg"
        config.write_text(f"num_vehicles = 8\n{field} = {bad}\n")
        assert main(["generate", "--config", str(config), "-o", out]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [case[:2] for case in SCENARIO_FLAGS
                                             if "," not in case[2]])
    def test_non_numeric_value_exits_2_naming_field(self, tmp_path, capsys, flag, field):
        out = str(tmp_path / "t.csv")
        assert main(["generate", f"{flag}=abc", "-o", out]) == 2
        assert f"{field}: non-numeric value 'abc'" in capsys.readouterr().err
        config = tmp_path / "bad.cfg"
        config.write_text(f"{field} = abc\n")
        assert main(["generate", "--config", str(config), "-o", out]) == 2
        assert f"{field}: line 1: non-numeric value 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field, bad", [
        ("--junction-x", "junction_x", "nan"),
        ("--spacing", "spawn_spacing", "inf"),
        ("--lane-noise", "lane_noise", "inf"),
        ("--ramp-end", "ramp_end", "260,nan"),
        ("--speed-range", "speed_range", "1,inf"),
    ])
    def test_non_finite_value_exits_2_naming_field(self, tmp_path, capsys, flag, field, bad):
        out = tmp_path / "t.csv"
        assert main(["generate", "--vehicles=8", f"{flag}={bad}", "-o", str(out)]) == 2
        assert f"{field}: must be finite" in capsys.readouterr().err
        config = tmp_path / "bad.cfg"
        config.write_text(f"num_vehicles = 8\n{field} = {bad}\n")
        assert main(["generate", "--config", str(config), "-o", str(out)]) == 2
        assert f"{field}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"num_vehicles = 8\nlane_noise = \xff\n")
        assert main(["generate", "--config", str(config), "-o", str(tmp_path / "t.csv")]) == 2
        assert "config" in capsys.readouterr().err


def generated(flags, path) -> bytes:
    """The trace ``generate`` writes to ``path`` with ``flags``; an exit code
    other than 0 raises SystemExit with it."""
    code = main(["generate", "--vehicles=2", "--steps=2", *flags, "-o", str(path)])
    if code:
        raise SystemExit(code)
    return path.read_bytes()


def read_scenario_file(path, text):
    config = path.with_suffix(".cfg")
    config.write_text(f"num_steps = 3\nlane_noise = {text}\n")
    return generated(["--config", str(config)], path)


def read_fcd_x(path, text):
    path.write_text(f'<fcd-export><timestep time="0"><vehicle id="v" x="{text}" y="0"'
                    ' speed="1"/></timestep></fcd-export>\n')
    return read_fcd_xml(path, {"v": 0}).points["x"].tolist()


def read_model_bias(path, text):
    path.write_text(f"routesvm-model v2 family=linear bias={text} supports=0\n")
    return load_model(path).bias


def read_model_feature(path, text):
    path.write_text(f"routesvm-model v2 family=linear bias=0 supports=1\n1 1 {text} 0\n")
    return load_model(path).support_examples


# Each reader of a float outside the CSVs, given the float's text: what it
# reads, and the error or exit code that refuses text which is not a number.
NUMBER_READERS = {
    "model-header": (read_model_bias, ModelFormatError),
    "model-support": (read_model_feature, ModelFormatError),
    "scenario-file": (read_scenario_file, SystemExit),
    "generate-flag": (lambda path, text: generated([f"--lane-noise={text}"], path), SystemExit),
    "fcd": (read_fcd_x, TraceFormatError),
}


@pytest.mark.parametrize("reader", NUMBER_READERS)
@pytest.mark.parametrize("text", ["1_0", "\u0661", "\u0663.5", "+1", "1e0"])
def test_every_reader_reads_a_number_as_the_csvs_do(tmp_path, capsys, reader, text):
    """The model file, a scenario file or flag and an FCD attribute read a
    number as the trace, label and examples CSVs do: what Python's float
    reads from ASCII text without "_"."""
    read, error = NUMBER_READERS[reader]
    path = tmp_path / "input"
    if text.isascii() and "_" not in text:
        assert read(path, text) == read(path, "1")
        return
    with pytest.raises(error) as exc_info:
        read(path, text)
    if error is SystemExit:
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lane_noise: ") and f"non-numeric value {text!r}" in err
    else:
        assert str(exc_info.value).endswith(f"{text!r} is not ASCII without '_'")


# A flag argparse types, or a --test-sizes part, given text that Python's int()
# or float() reads but the number rule refuses; "TRACE" stands for a trace path.
REFUSED_FLAG_NUMBERS = [
    ["run-paper", "--vehicles", "6_00"],
    ["run-paper", "--seed", "\u0667"],
    ["train", "TRACE", "--train-size", "4_00"],
    ["sweep", "TRACE", "--C", "1_0"],
    ["sweep", "TRACE", "--kernel", "rbf", "--gamma", "\u0660.5"],
    ["sweep", "TRACE", "--test-sizes", "1_0"],
]


@pytest.mark.parametrize("argv", REFUSED_FLAG_NUMBERS, ids=" ".join)
def test_a_typed_flag_reads_a_number_as_generate_does(trace_path, tmp_path, capsys, argv):
    """As ``generate --vehicles 6_00`` does, each exits 2, naming the text, and writes nothing."""
    out = tmp_path / "out"
    output = ["--out-dir", str(out)] if argv[0] == "run-paper" else ["-o", str(out)]
    assert main([str(trace_path) if a == "TRACE" else a for a in argv] + output) == 2
    assert repr(argv[-1]) in capsys.readouterr().err
    assert not out.exists()


# A kernel flag, with a value, that the family does not take.
INAPPLICABLE_KERNEL_FLAGS = [
    ("linear", "gamma", "0.5"),
    ("linear", "coef0", "1"),
    ("linear", "degree", "2"),
    ("rbf", "coef0", "1"),
    ("rbf", "degree", "2"),
    ("sigmoid", "degree", "2"),
]


class TestKernelFlags:
    # The train cases keep their ids; the sweep and run-paper ones add the command.
    @pytest.mark.parametrize("command, family, flag, value", [
        pytest.param(command, *case,
                     id="-".join(case) + ("" if command == "train" else f"-{command}"))
        for command in ("train", "sweep", "run-paper") for case in INAPPLICABLE_KERNEL_FLAGS
    ])
    def test_flag_that_does_not_apply_exits_2(self, trace_path, tmp_path, capsys, command,
                                              family, flag, value):
        out = tmp_path / "out"
        where = [str(trace_path), "-o", str(out)]
        if command == "run-paper":
            where = ["--out-dir", str(out)]
        code = main([command, *where, "--train-size", "30", "--kernel", family,
                     f"--{flag}", value])
        assert code == 2
        assert f"--{flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("degree, message", [
        (10**20, "non-finite bias or alpha"),
        (int("1" * 401), "needs a finite int degree within float64 range"),
    ])
    def test_overflowing_degree_exits_2(self, trace_path, tmp_path, capsys, degree, message):
        out = tmp_path / "m.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", str(trace_path), "--train-size", "30", "--kernel", "polynomial",
                         "--degree", str(degree), "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1  # the error line alone
        assert not out.exists()

    def test_overflowing_degree_in_a_model_exits_3(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "m.txt"
        model_path.write_text(f"routesvm-model v2 family=polynomial degree={'1' * 401} gamma=1"
                              " coef0=0 bias=0 supports=0\n")
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(tmp_path / "r.csv")])
        assert code == 3
        assert "within float64 range" in capsys.readouterr().err

    def test_kernel_overflowing_at_prediction_exits_3(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "m.txt"
        model_path.write_text(OVERFLOWING_POLY_MODEL)
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", str(trace_path), "--model", str(model_path),
                         "--test-sizes", "10", "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: decision values are not finite: the kernel overflows on the data\n"
        assert not out.exists()

    @pytest.mark.parametrize("family, degree", [("polynomial", 3), ("sigmoid", None)])
    def test_constructor_defaults_are_saved(self, trace_path, tmp_path, family, degree):
        out = tmp_path / "m.txt"
        assert main(["train", str(trace_path), "--train-size", "30", "--kernel", family,
                     "-o", str(out)]) == 0
        kernel = load_model(out).kernel
        assert (kernel.family, kernel.degree, kernel.coef0) == (family, degree, 0.0)


class TestTrain:
    def test_trains_and_prints_boundary(self, trace_path, tmp_path, capsys):
        out = tmp_path / "model.txt"
        code = main(["train", str(trace_path), "--train-size", "30", "--seed", "5",
                     "-o", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "support vectors:" in captured.out
        assert "boundary: y = " in captured.out
        assert out.exists()

    def test_zero_weight_model_is_saved_without_a_boundary(self, tmp_path, capsys):
        trace = tmp_path / "flat.csv"
        rows = "".join(f"0,v{i},0,0,1,{i % 2}\n" for i in range(10))
        trace.write_text("step,vehicle_id,x,y,speed,route_label\n" + rows)
        out = tmp_path / "model.txt"
        assert main(["train", str(trace), "--train-size", "10", "-o", str(out)]) == 0
        assert "boundary" not in capsys.readouterr().out
        assert out.exists()

    def test_kernel_flags_recorded_in_model(self, trace_path, tmp_path):
        out = tmp_path / "model.txt"
        code = main(["train", str(trace_path), "--train-size", "30",
                     "--kernel", "rbf", "--gamma", "0.5", "-o", str(out)])
        assert code == 0
        model = load_model(out)
        assert model.kernel.family == "rbf"
        assert model.kernel.gamma == 0.5

    @pytest.mark.parametrize("command", [
        ["train"], ["sweep", "--test-sizes", "10"],
    ], ids=["train", "sweep"])
    def test_overflowing_features_exit_3_without_a_file(self, overflowing_trace_path, tmp_path,
                                                        capsys, command):
        out = tmp_path / "out"
        code = main_without_warnings([*command, str(overflowing_trace_path), "--train-size", "10",
                                      "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: scaler needs a finite mean and positive scale per feature\n"
        assert not out.exists()

    def test_single_route_trace_exits_3(self, single_route_trace_path, tmp_path, capsys):
        code = main(["train", str(single_route_trace_path), "--train-size", "10",
                     "-o", str(tmp_path / "m.txt")])
        assert code == 3

    def test_non_finite_trace_exits_3(self, trace_path, tmp_path, capsys):
        lines = trace_path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "nan"
        lines[1] = ",".join(fields)
        trace_path.write_text("\n".join(lines) + "\n")
        code = main(["train", str(trace_path), "--train-size", "30", "--seed", "5",
                     "-o", str(tmp_path / "m.txt")])
        assert code == 3
        assert "line 2: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["duplicate", "conflict"])
    def test_duplicate_or_conflicting_rows_exit_3(self, trace_path, tmp_path, capsys, change):
        lines = trace_path.read_text().splitlines()
        row = lines[1].split(",")
        if change == "conflict":
            row[0] = str(int(row[0]) + 10_000)
            row[5] = str(1 - int(row[5]))
        lines.append(",".join(row))
        trace_path.write_text("\n".join(lines) + "\n")
        code = main(["train", str(trace_path), "--train-size", "30", "--seed", "5",
                     "-o", str(tmp_path / "m.txt")])
        assert code == 3
        assert f"vehicle {row[1]!r}" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_step_outside_int64_exits_3(self, trace_path, tmp_path, capsys):
        lines = trace_path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[0] = "99999999999999999999999"
        lines[2] = ",".join(fields)
        trace_path.write_text("\n".join(lines) + "\n")
        code = main(["train", str(trace_path), "--train-size", "30", "--seed", "5",
                     "-o", str(tmp_path / "m.txt")])
        assert code == 3
        assert "line 3: step 99999999999999999999999 out of the int64 range" in (
            capsys.readouterr().err
        )

    def test_non_utf8_trace_exits_3(self, trace_path, tmp_path, capsys):
        trace_path.write_bytes(trace_path.read_bytes() + b"0,v\xff,1,2,3,0\n")
        code = main(["train", str(trace_path), "--train-size", "30", "-o", str(tmp_path / "m.txt")])
        assert code == 3
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_route_label_outside_0_1_exits_3(self, trace_path, tmp_path, capsys):
        lines = trace_path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[5] = "2"
        lines[1] = ",".join(fields)
        trace_path.write_text("\n".join(lines) + "\n")
        code = main(["train", str(trace_path), "--train-size", "30", "-o", str(tmp_path / "m.txt")])
        assert code == 3
        assert "line 2: route_label must be 0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--C=-1", "C must be finite and > 0"),
        ("--tol=0", "tol must be finite and > 0"),
        ("--max-passes=0", "max_passes must be finite and >= 1"),
        ("--train-size=0", "training data is empty"),
    ])
    def test_bad_train_config_exits_2(self, trace_path, tmp_path, capsys, flag, message):
        out = tmp_path / "m.txt"
        assert main(["train", str(trace_path), "--train-size", "30", flag, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_trace_exits_1(self, tmp_path):
        code = main(["train", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "m.txt")])
        assert code == 1

    @pytest.mark.parametrize("flags", [["--kernel", "rbf", "--gamma", "-1"], ["--C", "0"]])
    def test_bad_flag_is_refused_before_the_trace_is_read(self, tmp_path, capsys, flags):
        code = main(["train", str(tmp_path / "nope.csv"), *flags, "-o", str(tmp_path / "m.txt")])
        assert code == 2
        assert "nope.csv" not in capsys.readouterr().err

    def test_gamma_on_linear_kernel_exits_2(self, trace_path, tmp_path):
        code = main(["train", str(trace_path), "--gamma", "0.5",
                     "-o", str(tmp_path / "m.txt")])
        assert code == 2

    # A large C takes many passes: 29 for linear and 54 for polynomial.
    @pytest.mark.parametrize("family, c_value, digest", [
        ("linear", "1", "b0243a19800a06daffcab6a784d29d8480ebdfed7f8376005e6ae7de33936885"),
        ("linear", "100", "cce689068a546df2ff8f952fbba25cc90507933a29ad5a489df5a436ff3a8d29"),
        ("rbf", "1", "47aa462ca800466922538a30c204289237486709d60ef65ed74fe9bc94b1527e"),
        ("rbf", "100", "ab6cd2556d369ce3e1682d83d36b3ecc7e19173fc3a682facdb92ab6fea56efc"),
        ("polynomial", "1", "bc451b611b29fc50df1fa2d74d5c2d0bdfcadfb3e3265d8f4581368d017b1d68"),
        ("polynomial", "100", "a9a73b50c9a67f1fb9f8e99f54d69dc0f3205341a30a67274cd8c82aac3e25fa"),
        ("sigmoid", "1", "e59c685e5f7b772f5d61e428124ab43e83a864925d892a4598a87b16d1d0ea22"),
        ("sigmoid", "100", "4cb720baf4389616501e516b4887274bd0cde3ac9002823f0469156402a4a623"),
    ])
    def test_model_bytes_on_the_run_paper_trace_are_pinned(self, default_trace, tmp_path,
                                                           family, c_value, digest):
        """rbf and sigmoid models follow numpy's SIMD exp and tanh, so they are
        trained in a subprocess at numpy's baseline dispatch, where exp and
        tanh are the C library's; linear and polynomial bits do not depend on
        the dispatch."""
        trace, model = tmp_path / "trace.csv", tmp_path / "model.txt"
        write_trace_csv(default_trace, trace)
        argv = ["train", str(trace), "--kernel", family, "--C", c_value, "-o", str(model)]
        if family in ("linear", "polynomial"):
            assert main(argv) == 0
        elif (env := baseline_dispatch_env()) is None:
            pytest.skip("numpy exposes no runtime CPU info")
        else:
            subprocess.run([sys.executable, "-m", "routesvm.cli", *argv], env=env,
                           capture_output=True, check=True, timeout=300)
        assert hashlib.sha256(model.read_bytes()).hexdigest() == digest

    def test_deterministic_model_file(self, trace_path, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        flags = ["train", str(trace_path), "--train-size", "30", "--seed", "5"]
        assert main(flags + ["-o", str(a)]) == 0
        assert main(flags + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    @pytest.mark.parametrize("command, flags", [
        ("train", []), ("sweep", ["--test-sizes", "10"]),
        ("sweep", ["--test-sizes", "10", "--model"]),
    ])
    def test_negative_seed_exits_2(self, trace_path, tmp_path, capsys, command, flags):
        """random.Random(-3) is random.Random(3), so the seed is refused."""
        if "--model" in flags:
            model = tmp_path / "model.txt"
            assert main(["train", str(trace_path), "--train-size", "30", "-o", str(model)]) == 0
            flags = [*flags, str(model)]
            capsys.readouterr()
        else:  # sweep --model refuses --train-size
            flags = [*flags, "--train-size", "30"]
        out = tmp_path / "out.txt"
        code = main([command, str(trace_path), "--seed", "-3", *flags, "-o", str(out)])
        assert code == 2
        assert "sample seed must be at least 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_single_test_size(self, trace_path, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["sweep", str(trace_path), "--train-size", "30",
                     "--test-sizes", "10", "-o", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 2
        assert "Testing examples" in capsys.readouterr().out

    def test_range_of_sizes(self, trace_path, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["sweep", str(trace_path), "--train-size", "30",
                     "--test-sizes", "5:20:5", "-o", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 5

    def test_with_pretrained_model(self, trace_path, tmp_path):
        model_path = tmp_path / "model.txt"
        assert main(["train", str(trace_path), "--train-size", "30",
                     "-o", str(model_path)]) == 0
        out = tmp_path / "report.csv"
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10,20", "-o", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 3

    @pytest.mark.parametrize("flags", [
        ["--kernel", "rbf"], ["--kernel", "linear"], ["--degree", "2"], ["--gamma", "0"],
        ["--coef0", "1"], ["--C", "1"], ["--tol", "0.1"], ["--max-passes", "5"],
        ["--train-size", "5"], ["--train-size", "400"],
    ], ids=lambda flags: flags[0])
    def test_pretrained_model_refuses_a_training_flag(self, trace_path, tmp_path, capsys, flags):
        model_path, out = tmp_path / "model.txt", tmp_path / "report.csv"
        model_path.write_text(LINELESS_MODELS["no-supports"])
        code = main(["sweep", str(trace_path), "--model", str(model_path), *flags,
                     "--test-sizes", "10", "--seed", "3", "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {flags[0]} does not apply with --model\n"
        assert not out.exists()

    def test_pretrained_model_warns_that_test_sets_may_overlap_training(self, trace_path,
                                                                         tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        assert main(["train", str(trace_path), "--train-size", "30",
                     "-o", str(model_path)]) == 0
        capsys.readouterr()
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10,20", "-o", str(tmp_path / "report.csv")])
        assert code == 0
        out, err = capsys.readouterr()
        assert err == ("warning: the test sets come from every vehicle and may include the"
                       " model's training vehicles\n")
        assert "warning" not in out
        assert out.endswith(f"wrote report to {tmp_path / 'report.csv'}\n")

    def test_pretrained_model_report_names_no_training_size(self, trace_path, tmp_path,
                                                            capsys):
        """A model file does not record how many examples trained it."""
        model_path = tmp_path / "model.txt"
        assert main(["train", str(trace_path), "--train-size", "30",
                     "-o", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(tmp_path / "report.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Testing examples  model file"
        assert "training examples" not in "\n".join(lines)

    def test_non_utf8_model_exits_3(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        assert main(["train", str(trace_path), "--train-size", "30", "-o", str(model_path)]) == 0
        model_path.write_bytes(model_path.read_bytes().replace(b"family", b"\xffamily"))
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(tmp_path / "r.csv")])
        assert code == 3
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_repeated_model_header_field_exits_3(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        model_path.write_text("routesvm-model v2 family=linear bias=0 bias=1 supports=0\n")
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(tmp_path / "r.csv")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == ["error: repeated header field 'bias'"]

    def test_non_finite_model_bias_exits_3(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        assert main(["train", str(trace_path), "--train-size", "30", "-o", str(model_path)]) == 0
        text = model_path.read_text()
        bias = text.split("bias=", 1)[1].split()[0]
        model_path.write_text(text.replace(f"bias={bias}", "bias=nan", 1))
        out = tmp_path / "r.csv"
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(out)])
        assert code == 3
        assert "bias and alphas must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_model_alpha_exits_3(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        assert main(["train", str(trace_path), "--train-size", "30", "-o", str(model_path)]) == 0
        header, first, *rest = model_path.read_text().splitlines(keepends=True)
        model_path.write_text("".join([header, "-5 " + first.split(" ", 1)[1], *rest]))
        out = tmp_path / "r.csv"
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(out)])
        assert code == 3
        assert "alphas must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_training_is_reported(self, trace_path, tmp_path, capsys):
        code = main(["sweep", str(trace_path), "--train-size", "30", "--test-sizes", "10",
                     "--C", "1000", "--max-passes", "1", "-o", str(tmp_path / "r.csv")])
        assert code == 0
        assert "\nwarning: training did not fully converge\n" in capsys.readouterr().out

    def test_vertical_boundary_is_printed(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        model_path.write_text(VERTICAL_MODEL)
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(tmp_path / "r.csv")])
        assert code == 0
        assert "\nboundary: vertical at x = 2\n" in capsys.readouterr().out

    @pytest.mark.parametrize("name", LINELESS_MODELS)
    def test_linear_model_without_a_line_prints_no_boundary(self, trace_path, tmp_path,
                                                            capsys, name):
        model_path = tmp_path / "model.txt"
        model_path.write_text(LINELESS_MODELS[name])
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(tmp_path / "r.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean" in out and "boundary" not in out

    def test_model_wider_than_the_data_exits_3(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        model_path.write_text(THREE_FEATURE_MODEL)
        out = tmp_path / "r.csv"
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(out)])
        assert code == 3
        assert "model has 3 features, data has 2" in capsys.readouterr().err
        assert not out.exists()

    def test_ragged_model_exits_3(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        model_path.write_text(RAGGED_MODEL)
        out = tmp_path / "r.csv"
        code = main(["sweep", str(trace_path), "--model", str(model_path),
                     "--test-sizes", "10", "-o", str(out)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: line 3: 3 features, line 2 has 2"]
        assert not out.exists()

    def test_missing_trace_exits_1(self, tmp_path):
        code = main(["sweep", str(tmp_path / "nope.csv"), "--test-sizes", "10",
                     "-o", str(tmp_path / "r.csv")])
        assert code == 1

    def test_bad_test_sizes_exits_2(self, trace_path, tmp_path):
        code = main(["sweep", str(trace_path), "--test-sizes", "abc",
                     "-o", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("sizes, message", [
        ("10:5:1", "range needs stop >= start and step > 0"),
        ("1:10:0", "range needs stop >= start and step > 0"),
        ("1:2", "range needs start:stop:step"),
    ])
    def test_bad_test_size_range_exits_2(self, trace_path, tmp_path, capsys, sizes, message):
        out = tmp_path / "r.csv"
        assert main(["sweep", str(trace_path), "--test-sizes", sizes, "-o", str(out)]) == 2
        assert f"bad --test-sizes value {sizes!r}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["--test-sizes=0,10", "--test-sizes=-5,10"])
    @pytest.mark.parametrize("model", [False, True], ids=["train", "model"])
    def test_size_below_one_exits_2(self, trace_path, tmp_path, capsys, sizes, model):
        flags = ["--train-size", "30"]
        if model:
            assert main(["train", str(trace_path), *flags, "-o", str(tmp_path / "m.txt")]) == 0
            flags = ["--model", str(tmp_path / "m.txt")]
        out = tmp_path / "r.csv"
        assert main(["sweep", str(trace_path), *flags, sizes, "-o", str(out)]) == 2
        assert "test sizes must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_test_sizes(self):
        assert parse_test_sizes("10") == [10]
        assert parse_test_sizes("10,20,30") == [10, 20, 30]
        assert parse_test_sizes("10:100:10") == list(range(10, 101, 10))


class TestPlot:
    @pytest.fixture()
    def model_path(self, trace_path, tmp_path):
        path = tmp_path / "model.txt"
        assert main(["train", str(trace_path), "--train-size", "30",
                     "-o", str(path)]) == 0
        return path

    @pytest.fixture()
    def data_path(self, trace_path, tmp_path, model_path):
        # reuse the sweep machinery to produce an examples csv
        from routesvm.dataset_io import read_trace_csv, sample_examples, write_examples_csv

        trace = read_trace_csv(trace_path)
        ds = sample_examples(trace, 20, seed=11)
        path = tmp_path / "examples.csv"
        write_examples_csv(ds, path)
        return path

    def test_plot_svg_written(self, model_path, data_path, tmp_path):
        out = tmp_path / "plot.svg"
        code = main(["plot", "--model", str(model_path), "--data", str(data_path),
                     "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "<polygon" in text

    def test_model_wider_than_the_data_exits_3(self, data_path, tmp_path, capsys):
        model_path = tmp_path / "wide.txt"
        model_path.write_text(THREE_FEATURE_MODEL)
        out = tmp_path / "plot.svg"
        code = main(["plot", "--model", str(model_path), "--data", str(data_path),
                     "-o", str(out)])
        assert code == 3
        assert "model has 3 features, data has 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("with_data", [True, False], ids=["data", "no-data"])
    def test_ragged_model_exits_3(self, data_path, tmp_path, capsys, with_data):
        model_path = tmp_path / "ragged.txt"
        model_path.write_text(RAGGED_MODEL)
        out = tmp_path / "plot.svg"
        data = ["--data", str(data_path)] if with_data else []
        code = main(["plot", "--model", str(model_path), *data, "-o", str(out)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: line 3: 3 features, line 2 has 2"]
        assert not out.exists()

    def test_vertical_boundary_frame_holds_the_data_and_the_line(self, data_path, tmp_path):
        model_path, out = tmp_path / "vertical.txt", tmp_path / "plot.svg"
        model_path.write_text(VERTICAL_MODEL)
        code = main(["plot", "--model", str(model_path), "--data", str(data_path),
                     "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert '<line class="boundary"' in text and text.count('class="pt-') == 20

    def test_plot_empty_dataset(self, model_path, tmp_path):
        out = tmp_path / "plot.svg"
        code = main(["plot", "--model", str(model_path), "-o", str(out)])
        assert code == 0
        assert "boundary" in out.read_text()

    def test_plot_deterministic(self, model_path, data_path, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        flags = ["plot", "--model", str(model_path), "--data", str(data_path)]
        assert main(flags + ["-o", str(a)]) == 0
        assert main(flags + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag", ["--x-range=0:1", "--width=10"])
    def test_layout_flags_are_gone(self, model_path, tmp_path, capsys, flag):
        out = tmp_path / "p.svg"
        assert main(["plot", "--model", str(model_path), flag, "-o", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_past_float64_exits_3(self, model_path, tmp_path, capsys):
        data_path = tmp_path / "huge.csv"
        data_path.write_text("x,y,label\n-1e308,0,1\n1e308,-2,-1\n")
        out = tmp_path / "p.svg"
        code = main(["plot", "--model", str(model_path), "--data", str(data_path),
                     "-o", str(out)])
        assert code == 3
        assert "plot frame is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", LINELESS_MODELS)
    def test_linear_model_without_a_line_draws_the_scatter_only(self, data_path, tmp_path,
                                                                name):
        model_path = tmp_path / "model.txt"
        model_path.write_text(LINELESS_MODELS[name])
        out = tmp_path / "p.svg"
        code = main(["plot", "--model", str(model_path), "--data", str(data_path),
                     "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert "<polygon" not in text and '<line class="boundary"' not in text
        assert 'class="pt-' in text

    def test_nonlinear_plot_draws_the_scatter_only(self, trace_path, data_path, tmp_path):
        model_path = tmp_path / "rbf.txt"
        assert main(["train", str(trace_path), "--train-size", "30",
                     "--kernel", "rbf", "-o", str(model_path)]) == 0
        out = tmp_path / "p.svg"
        code = main(["plot", "--model", str(model_path), "--data", str(data_path),
                     "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert "<polygon" not in text and '<line class="boundary"' not in text
        assert 'class="pt-' in text

    def test_no_regions_flag_is_gone(self, model_path, tmp_path):
        out = tmp_path / "p.svg"
        assert main(["plot", "--model", str(model_path), "--no-regions", "-o", str(out)]) == 2
        assert not out.exists()

    def test_scatter_only_nonlinear_ok(self, trace_path, tmp_path):
        model_path = tmp_path / "rbf.txt"
        assert main(["train", str(trace_path), "--train-size", "30",
                     "--kernel", "rbf", "-o", str(model_path)]) == 0
        out = tmp_path / "p.svg"
        code = main(["plot", "--model", str(model_path), "-o", str(out)])
        assert code == 0


class TestRunPaper:
    def test_small_pipeline(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["run-paper", "--out-dir", str(out_dir), "--vehicles", "80",
                     "--train-size", "40", "--test-sizes", "5:10:5", "--seed", "7"])
        assert code == 0
        for name in ("trace.csv", "model.txt", "report.csv", "train.csv", "train.svg"):
            assert (out_dir / name).exists()
        assert "mean" in capsys.readouterr().out

    def test_fig6_outputs_when_sizes_present(self, tmp_path):
        out_dir = tmp_path / "run"
        code = main(["run-paper", "--out-dir", str(out_dir), "--vehicles", "200",
                     "--train-size", "60", "--test-sizes", "10:100:90", "--seed", "7"])
        assert code == 0
        for name in ("test_10.csv", "test_10.svg", "test_100.csv", "test_100.svg"):
            assert (out_dir / name).exists()

    def test_report_matches_sweep_of_its_trace(self, tmp_path):
        out_dir = tmp_path / "run"
        flags = ["--seed", "11", "--train-size", "40", "--test-sizes", "5:50:15"]
        assert main(["run-paper", "--out-dir", str(out_dir), "--vehicles", "120", *flags]) == 0
        sweep = tmp_path / "sweep.csv"
        assert main(["sweep", str(out_dir / "trace.csv"), *flags, "-o", str(sweep)]) == 0
        assert sweep.read_bytes() == (out_dir / "report.csv").read_bytes()

    def test_too_few_vehicles_exits_3_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["run-paper", "--out-dir", str(out_dir), "--vehicles", "450"]) == 3
        assert "need 500 distinct vehicles, trace provides 450" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("kernel_flags", [["--kernel", "rbf"],
                                              ["--kernel", "polynomial", "--degree", "2"]])
    def test_kernel_model_matches_train_on_its_trace(self, tmp_path, kernel_flags):
        out_dir = tmp_path / "run"
        flags = ["--seed", "11", "--train-size", "40", *kernel_flags]
        assert main(["run-paper", "--out-dir", str(out_dir), "--vehicles", "120",
                     "--test-sizes", "5:50:15", *flags]) == 0
        model = tmp_path / "model.txt"
        assert main(["train", str(out_dir / "trace.csv"), *flags, "-o", str(model)]) == 0
        assert model.read_bytes() == (out_dir / "model.txt").read_bytes()
        assert load_model(model).kernel.family == kernel_flags[1]

    def test_kernel_flag_the_linear_default_does_not_take_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["run-paper", "--out-dir", str(out_dir), "--vehicles", "80",
                     "--gamma", "1"]) == 2
        assert "--gamma does not apply to the linear kernel" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--kernel", "rbf", "--gamma", "0"], "rbf kernel needs gamma > 0"),
        (["--kernel", "polynomial", "--degree", "0"], "polynomial kernel needs degree >= 1"),
    ])
    def test_bad_kernel_flag_exits_2_before_writing(self, tmp_path, capsys, flags, message):
        out_dir = tmp_path / "run"
        assert main(["run-paper", "--out-dir", str(out_dir), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("sizes", ["--test-sizes=0,10", "--test-sizes=-5,10"])
    def test_size_below_one_exits_2_before_writing(self, tmp_path, capsys, sizes):
        out_dir = tmp_path / "run"
        assert main(["run-paper", "--out-dir", str(out_dir), "--vehicles", "80", sizes]) == 2
        assert "test sizes must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("flags, code, message", [
        (["--train-size", "0"], 2, "training data is empty"),
        (["--train-size", "1"], 3, "training data needs both classes"),
        (["--train-size", "20", "--kernel", "polynomial", "--degree", str(10**20)], 2,
         "the kernel overflows"),
    ], ids=["empty", "single-class", "overflowing-kernel"])
    def test_training_failure_writes_nothing(self, tmp_path, capsys, flags, code, message):
        out_dir = tmp_path / "run"
        assert main_without_warnings(["run-paper", "--out-dir", str(out_dir), "--vehicles", "30",
                                      "--test-sizes", "5", *flags]) == code
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1  # the error line alone
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", [["--C", "1"], ["--tol", "1e-3"], ["--max-passes", "5"]])
    def test_solver_flags_are_refused(self, tmp_path, capsys, flag):
        out_dir = tmp_path / "run"
        assert main(["run-paper", "--out-dir", str(out_dir), "--vehicles", "30", *flag]) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_default_train_size_matches_train(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["run-paper", "--out-dir", str(out_dir), "--vehicles", "410",
                     "--test-sizes", "10"]) == 0
        assert f"{cli.DEFAULT_TRAIN_SIZE} training examples" in capsys.readouterr().out
        model = tmp_path / "model.txt"
        assert main(["train", str(out_dir / "trace.csv"), "-o", str(model)]) == 0
        assert model.read_bytes() == (out_dir / "model.txt").read_bytes()

    def test_linear_and_polynomial_outputs_are_the_same_bytes_at_numpy_baseline_simd(
            self, tmp_path):
        """run-paper in two processes: numpy's SIMD dispatch as it is, and with
        every enabled target above numpy's baseline disabled.  The trace, model
        and report match byte for byte.  rbf and sigmoid are left out: their
        bits follow numpy's SIMD exp and tanh."""
        targets = enabled_simd_targets()
        if targets is None:
            pytest.skip("numpy exposes no runtime CPU info")
        if not targets:
            pytest.skip("numpy uses no SIMD target above its baseline here")
        dispatched = {}
        for level, level_env in (("default", subprocess_env()),
                                 ("baseline", baseline_dispatch_env())):
            run = subprocess.run([sys.executable, "-c", RUN_PAPER_SCRIPT, str(tmp_path / level),
                                  "linear", "polynomial"],
                                 env=level_env, capture_output=True, text=True, check=True,
                                 timeout=300)
            dispatched[level] = run.stdout.splitlines()[-1]
        assert dispatched == {"default": " ".join(targets), "baseline": ""}
        for family in ("linear", "polynomial"):
            for name in ("trace.csv", "model.txt", "report.csv"):
                default, baseline = (tmp_path / level / family / name for level in dispatched)
                assert default.read_bytes() == baseline.read_bytes(), f"{family}/{name}"


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2
