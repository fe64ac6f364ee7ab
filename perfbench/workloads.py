"""The benchmark's workloads: inputs derived from the seed, one timed op,
and the check of that op's outputs.

Every op calls the program through a module attribute (``cli.main``,
``svm.train``), so a traced run's wrappers see the call.
"""

from __future__ import annotations

import io
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from routesvm import cli, dataset_io, svm, traffic_sim
from routesvm.svm import decision_values

from . import checks

PAPER_SEEDS = 8
TRACE_SEEDS = 1
TRAIN_SETS = 16
TRAIN_N = 2000
TRACE_VEHICLES = 6000
TRACE_POINTS = TRACE_VEHICLES * 100
TRACE_TEST_SIZES = list(range(500, 5001, 500))
PAPER_TEST_SIZES = list(range(10, 101, 10))


@dataclass
class Outcome:
    """What the check of one op found."""

    problems: list[str] = field(default_factory=list)
    accuracy: float | None = None
    converged: bool | None = None


def _draws(label: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` with its stdout and stderr captured."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class PaperDefault:
    name = "paper_default"
    why = "the run-paper reproduction with its documented defaults; spans every module"

    def __init__(self):
        self._hashes: dict[int, dict[str, str]] = {}

    def plan(self, seed: int) -> list[int]:
        return _draws(self.name, seed, PAPER_SEEDS)

    def build_one(self, op_seed: int) -> int:
        return op_seed

    def run(self, op_seed: int, workdir: Path):
        return _quiet_main(["run-paper", "--out-dir", str(workdir / "paper"), "--seed", str(op_seed)])

    def check(self, op_seed: int, raw, workdir: Path, spans) -> Outcome:
        rc, out = raw
        out_dir = workdir / "paper"
        try:
            if rc != 0:
                return Outcome([f"run-paper exited {rc}: {out.strip()[-200:]}"])
            rows = checks.read_report(out_dir / "report.csv")
            problems = checks.check_report(rows, PAPER_TEST_SIZES)
            hashes = checks.hash_outputs(out_dir)
            first = self._hashes.setdefault(op_seed, hashes)
            problems += checks.compare_outputs(first, hashes)
            return Outcome(problems, checks.report_mean(rows), checks.CONVERGENCE_WARNING not in out)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


class Trace6000:
    name = "trace_6000"
    why = "a 600k-point trace written then read back and swept at 10x the reference scale"

    def plan(self, seed: int) -> list[int]:
        return _draws(self.name, seed, TRACE_SEEDS)

    def build_one(self, op_seed: int) -> int:
        return op_seed

    def run(self, op_seed: int, workdir: Path):
        trace, report = workdir / "trace.csv", workdir / "report.csv"
        gen = _quiet_main(["generate", "--vehicles", str(TRACE_VEHICLES), "--seed", str(op_seed),
                           "-o", str(trace)])
        if gen[0] != 0:
            return gen, None
        sweep = _quiet_main(["sweep", str(trace), "--train-size", "400",
                             "--test-sizes", "500:5000:500", "--seed", str(op_seed),
                             "-o", str(report)])
        return gen, sweep

    def check(self, op_seed: int, raw, workdir: Path, spans) -> Outcome:
        gen, sweep = raw
        if gen[0] != 0:
            return Outcome([f"generate exited {gen[0]}: {gen[1].strip()[-200:]}"])
        if sweep[0] != 0:
            return Outcome([f"sweep exited {sweep[0]}: {sweep[1].strip()[-200:]}"])
        problems = []
        if f"{TRACE_POINTS} points" not in gen[1]:
            problems.append(f"generate did not report {TRACE_POINTS} points")
        rows = checks.count_lines(workdir / "trace.csv") - 1
        if rows != TRACE_POINTS:
            problems.append(f"trace.csv holds {rows} rows")
        read_back = [s.counts.get("points") for s in spans if s.name == "dataset_io.read_trace_csv"]
        if spans and read_back != [TRACE_POINTS]:
            problems.append(f"read_trace_csv returned {read_back} points")
        report = checks.read_report(workdir / "report.csv")
        problems += checks.check_report(report, TRACE_TEST_SIZES)
        converged = checks.CONVERGENCE_WARNING not in sweep[1]
        return Outcome(problems, checks.report_mean(report), converged)


@dataclass(frozen=True)
class TrainingSet:
    """Standardized examples for one solve, scaled the way
    train_position_model scales them for the linear kernel."""

    sample_seed: int
    examples: tuple[svm.LabeledExample, ...]


def standardized_examples(trace, n: int, sample_seed: int) -> tuple[svm.LabeledExample, ...]:
    ds = dataset_io.sample_examples(trace, n, sample_seed)
    xs = np.array([e.features for e in ds.examples], dtype=float)
    scaled = svm.Standardizer().fit(xs).transform(xs)
    return tuple(svm.LabeledExample(tuple(row), e.label) for row, e in zip(scaled, ds.examples))


class TrainRbfN2000:
    """svm.train with the rbf kernel on 2000 standardized examples from a
    2000-vehicle trace."""

    name = "train_rbf_n2000"
    why = "solver-bound rbf SMO at n=2000 on the exp Gram path"
    kernel = svm.KernelSpec.rbf()
    cfg = svm.TrainConfig()

    def plan(self, seed: int) -> list[tuple[int, int]]:
        # Solve time depends on the input, and mostly on its trace, so every
        # set gets a trace of its own.
        draws = _draws(self.name, seed, 2 * TRAIN_SETS)
        return list(zip(draws[::2], draws[1::2]))

    def build_one(self, seeds: tuple[int, int]) -> TrainingSet:
        trace_seed, sample_seed = seeds
        trace = traffic_sim.generate_trace(
            traffic_sim.ScenarioConfig(num_vehicles=TRAIN_N, rng_seed=trace_seed)
        )
        return TrainingSet(sample_seed, standardized_examples(trace, TRAIN_N, sample_seed))

    def run(self, item: TrainingSet, workdir: Path):
        cfg = svm.TrainConfig(rng_seed=item.sample_seed)
        return svm.train(list(item.examples), self.kernel, cfg)

    def check(self, item: TrainingSet, model, workdir: Path, spans) -> Outcome:
        problems = checks.check_trained_model(
            decision_values, model, item.examples, self.cfg.C, self.cfg.tol
        )
        accuracy = checks.training_accuracy(decision_values, model, item.examples)
        return Outcome(problems, accuracy, model.summary.converged)


WORKLOADS = {w.name: w for w in (PaperDefault, Trace6000, TrainRbfN2000)}
NAMES = tuple(WORKLOADS)


def make(name: str):
    """A fresh workload object (it keeps per-run state such as output hashes)."""
    return WORKLOADS[name]()
