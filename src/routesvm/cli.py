"""Command-line surface: generate traces, train, sweep, plot, reproduce.

Exit codes are stable across subcommands: 0 success, 1 I/O failure or out
of memory, 2 bad usage or configuration (a scenario whose positions overflow
float64 too), 3 data error (``svm.DataError``: single-class training data,
malformed input files, insufficient vehicles, features whose mean or spread
overflows).  Diagnostics go to standard error, one line per error; results
and file paths go to standard output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .dataset_io import (
    Dataset,
    read_examples_csv,
    read_trace_csv,
    write_examples_csv,
    write_trace_csv,
)
from .eval_pipeline import (
    accuracy_sweep,
    boundary_report,
    format_boundary,
    format_report,
    report_to_csv,
    split_examples,
    sweep_with_model,
    train_position_model,
)
from .plotting import render_svg
from .svm import (
    KERNEL_FAMILIES,
    KERNEL_PARAMS,
    DataError,
    KernelSpec,
    TrainConfig,
    _number,
    _utf8_text,
    load_model,
    save_model,
)
from .traffic_sim import ConfigError, ScenarioConfig, generate_trace

__all__ = ["main", "DEFAULT_SEED", "DEFAULT_TEST_SIZES"]

# Documented default seed for the reproduction pipeline (`run-paper`).
DEFAULT_SEED = 7
DEFAULT_TEST_SIZES = "10:100:10"
DEFAULT_TRAIN_SIZE = 400


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Scenario configuration assembly (defaults <- config file <- flags)
# ---------------------------------------------------------------------------

# Each generate flag and the ScenarioConfig field it sets.
_SCENARIO_FLAGS = {
    "--vehicles": "num_vehicles",
    "--steps": "num_steps",
    "--seed": "rng_seed",
    "--route2-prob": "route2_probability",
    "--spacing": "spawn_spacing",
    "--junction-x": "junction_x",
    "--ramp-end": "ramp_end",
    "--lane-y": "lane_y",
    "--speed-range": "speed_range",
    "--lane-noise": "lane_noise",
}
_SCENARIO_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


def _scenario_value(field: str, raw: str, where: str = ""):
    """A ScenarioConfig field's value, typed from its default by
    :func:`~routesvm.svm._number`: an int, a float, or a tuple of as many
    comma-separated values as the default holds, each typed like the
    default's.  ``where`` prefixes the error message."""
    if field not in _SCENARIO_DEFAULTS:
        raise ConfigError(field, f"{where}unknown field")
    default = _SCENARIO_DEFAULTS[field]
    shape, parts = (default, raw.split(",")) if isinstance(default, tuple) else ((default,), [raw])
    if len(parts) != len(shape):
        message = f"{where}expected {len(shape)} comma-separated numbers, got {raw!r}"
        raise ConfigError(field, message)
    try:
        values = tuple(_number(p, type(d)) for d, p in zip(shape, parts))
    except ValueError:
        raise ConfigError(field, f"{where}non-numeric value {raw!r}") from None
    return values if isinstance(default, tuple) else values[0]


def load_scenario_file(path: str | Path) -> dict:
    """Parse the key=value scenario format ('#' comments, blank lines ok)."""
    with _utf8_text(path, partial(ConfigError, "config")) as file:
        text = file.read()
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("config", f"line {line_no}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key in values:
            raise ConfigError("config", f"line {line_no}: repeated key {key!r}")
        values[key] = _scenario_value(key, raw, f"line {line_no}: ")
    return values


def _build_scenario(args: argparse.Namespace) -> ScenarioConfig:
    values = load_scenario_file(args.config) if args.config else {}
    for field in _SCENARIO_FLAGS.values():
        if getattr(args, field) is not None:
            values[field] = _scenario_value(field, getattr(args, field))
    return ScenarioConfig(**values)


# Every kernel parameter and its type; each is a train, sweep and run-paper flag.
_KERNEL_FLAGS = {name: kind for params in KERNEL_PARAMS.values() for name, kind in params.items()}


# The solver's flags, each a TrainConfig field, and their types; train and sweep take them.
_SOLVER_FLAGS = {"C": float, "tol": float, "max_passes": int}

# The flags that only training reads; each parses to None when not given.
_TRAINING_FLAGS = ("kernel", *_KERNEL_FLAGS, *_SOLVER_FLAGS, "train_size")


def _given(args: argparse.Namespace, names) -> dict:
    """The flags in ``names`` that were given; one the command lacks reads as None."""
    return {name: value for name in names if (value := getattr(args, name, None)) is not None}


def _experiment(args: argparse.Namespace) -> tuple[int, KernelSpec, TrainConfig]:
    """The train size (DEFAULT_TRAIN_SIZE unless given), kernel and TrainConfig
    that the flags name.  The kernel is the --kernel family's constructor (linear
    by default) called with the kernel flags given; a flag that family does not
    take is a usage error.  A command without solver flags gets TrainConfig().
    Reads no file, so a bad flag is refused before any trace is read or made."""
    family, given = args.kernel or "linear", _given(args, _KERNEL_FLAGS)
    for name in given:
        if name not in KERNEL_PARAMS[family]:
            raise ValueError(f"--{name} does not apply to the {family} kernel")
    kernel = getattr(KernelSpec, family)(**given)
    train_size = DEFAULT_TRAIN_SIZE if args.train_size is None else args.train_size
    return train_size, kernel, TrainConfig(**_given(args, _SOLVER_FLAGS))


def integer(text: str) -> int:
    """An integer flag's value, read by :func:`~routesvm.svm._number`."""
    return _number(text, int)


def real(text: str) -> float:
    """A real flag's value, read by :func:`~routesvm.svm._number`."""
    return _number(text, float)


_FLAG_TYPES = {int: integer, float: real}  # argparse names the function when it refuses a value


def parse_test_sizes(raw: str) -> list[int]:
    """Accept '10', '10,20,30', or 'start:stop:step' (stop inclusive), each
    size an :func:`integer`."""
    try:
        if ":" in raw:
            parts = [integer(p) for p in raw.split(":")]
            if len(parts) != 3:
                raise ValueError("range needs start:stop:step")
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError("range needs stop >= start and step > 0")
            return list(range(start, stop + 1, step))
        return [integer(p) for p in raw.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --test-sizes value {raw!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _build_scenario(args)
    trace = generate_trace(config)
    write_trace_csv(trace, args.output)
    print(f"wrote {config.num_vehicles} vehicles, {len(trace.points)} points to {args.output}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    train_size, kernel, cfg = _experiment(args)
    train_ds, _ = split_examples(read_trace_csv(args.trace), train_size, (), args.seed)
    model = train_position_model(train_ds, kernel, cfg)
    save_model(model, args.output)
    summary = model.summary
    print(f"support vectors: {summary.n_support}")
    print(f"converged: {summary.converged} (passes: {summary.passes})")
    boundary = format_boundary(boundary_report(model))
    if boundary is not None:
        print(boundary)
    print(f"wrote model to {args.output}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    test_sizes = parse_test_sizes(args.test_sizes)
    if args.model:
        if given := _given(args, _TRAINING_FLAGS):
            flag = next(iter(given)).replace("_", "-")
            raise ValueError(f"--{flag} does not apply with --model")
        trace, model = read_trace_csv(args.trace), load_model(args.model)
        _, tests = split_examples(trace, 0, test_sizes, args.seed)
        report = sweep_with_model(model, tests, None)
    else:
        train_size, kernel, cfg = _experiment(args)
        trace = read_trace_csv(args.trace)
        report = accuracy_sweep(trace, train_size, test_sizes, kernel, cfg, args.seed)
    report_to_csv(report, args.output)
    print(format_report(report))
    print(f"wrote report to {args.output}")
    if args.model:  # a model file does not record its training draw
        print("warning: the test sets come from every vehicle and may include the model's"
              " training vehicles", file=sys.stderr)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = read_examples_csv(args.data) if args.data else Dataset(np.empty((0, 2)), ())
    svg = render_svg(model, dataset)
    Path(args.output).write_text(svg, encoding="utf-8", newline="\n")
    print(f"wrote plot to {args.output}")
    return 0


def _cmd_run_paper(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    test_sizes = parse_test_sizes(args.test_sizes)
    train_size, kernel, cfg = _experiment(args)

    trace = generate_trace(ScenarioConfig(num_vehicles=args.vehicles, rng_seed=args.seed))
    train_ds, tests = split_examples(trace, train_size, test_sizes, args.seed)
    model = train_position_model(train_ds, kernel, cfg)
    report = sweep_with_model(model, tests, train_size)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    save_model(model, out_dir / "model.txt")
    report_to_csv(report, out_dir / "report.csv")

    figures = {"train": train_ds}
    figures.update((f"test_{n}", test) for n, test in zip(test_sizes, tests) if n in (10, 100))
    for name, dataset in figures.items():
        write_examples_csv(dataset, out_dir / f"{name}.csv")
        svg = render_svg(model, dataset)
        (out_dir / f"{name}.svg").write_text(svg, encoding="utf-8", newline="\n")

    print(format_report(report))
    print(f"outputs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_experiment_flags(parser: argparse.ArgumentParser, solver: bool = True) -> None:
    """The flags that _experiment reads, and --seed; ``solver`` adds the solver's."""
    parser.add_argument("--kernel", choices=KERNEL_FAMILIES, help="default linear")
    for name, kind in _KERNEL_FLAGS.items():
        parser.add_argument(f"--{name}", type=_FLAG_TYPES[kind])
    for name, kind in _SOLVER_FLAGS.items() if solver else ():
        parser.add_argument(f"--{name.replace('_', '-')}", type=_FLAG_TYPES[kind],
                            help=f"TrainConfig.{name}, default {getattr(TrainConfig, name)}")
    parser.add_argument("--train-size", type=integer, help=f"default {DEFAULT_TRAIN_SIZE}")
    parser.add_argument("--seed", type=integer, default=DEFAULT_SEED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routesvm",
        description="Highway junction route prediction with a from-scratch kernel SVM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate the highway scenario to a trace CSV")
    p.add_argument("--config", help="key=value scenario file (flags override it)")
    for flag, field in _SCENARIO_FLAGS.items():
        default = _SCENARIO_DEFAULTS[field]
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        p.add_argument(flag, dest=field, help=f"default {shown}")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train an SVM on examples sampled from a trace")
    p.add_argument("trace")
    _add_experiment_flags(p)
    p.add_argument("-o", "--output", required=True, help="model output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="accuracy sweep over test sizes")
    p.add_argument("trace")
    p.add_argument("--model", default=None,
                   help="evaluate this serialized model instead of training")
    _add_experiment_flags(p)
    p.add_argument("--test-sizes", default=DEFAULT_TEST_SIZES,
                   help="'10', '10,20,30', or 'start:stop:step'")
    p.add_argument("-o", "--output", required=True, help="report CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plot", help="render the scatter, and a linear model's regions, to SVG")
    p.add_argument("--model", required=True)
    p.add_argument("--data", default=None, help="examples CSV (x,y,label)")
    p.add_argument("-o", "--output", required=True, help="SVG output path")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser(
        "run-paper",
        help="one-line reproduction: generate, train, sweep, plot with the defaults",
    )
    p.add_argument("--out-dir", required=True)
    p.add_argument("--vehicles", type=integer, default=ScenarioConfig.num_vehicles)
    p.add_argument("--test-sizes", default=DEFAULT_TEST_SIZES)
    _add_experiment_flags(p, solver=False)
    p.set_defaults(func=_cmd_run_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except DataError as exc:
        _err(str(exc))
        return 3
    except OSError as exc:
        _err(str(exc))
        return 1
    except MemoryError as exc:
        _err(str(exc) or "out of memory")
        return 1
    except ValueError as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
