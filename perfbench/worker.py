"""One workload process, started by run.py.

    python -m perfbench.worker setup   --workload W --seed S --inputs FILE
    python -m perfbench.worker measure --workload W --seed S --inputs FILE
                                       --seconds T --trace 0|1 --workdir DIR

``setup`` times the program's import and the build of each of the
workload's inputs, and pickles the inputs to FILE (with ``--import-only``
it times the import alone).  ``measure`` loads them and runs
the ops as a closed loop, one at a time, for at least T seconds and whole
cycles over the inputs, checking each op's outputs.  Either mode prints one
JSON object as its last line of standard output.

The perfbench modules import numpy, so they are imported only after the
program's import has been timed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import pickle
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

PROGRAM_MODULES = ("traffic_sim", "dataset_io", "svm", "eval_pipeline", "plotting", "cli")


def import_program() -> dict:
    import importlib

    return {name: importlib.import_module(f"routesvm.{name}") for name in PROGRAM_MODULES}


def setup(args) -> dict:
    """Time the import and, unless ``--import-only``, the build of each input."""
    start = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - start
    from perfbench import calibrate, workloads

    kernel = calibrate.kernel_seconds()
    result = {
        "ref_import_s": calibrate.reference_seconds(import_s, kernel, kernel),
        "env": {"numpy": sys.modules["numpy"].__version__},
    }
    if args.import_only:
        return result
    workload = workloads.make(args.workload)
    items, build_s = [], []
    for spec in workload.plan(args.seed):
        start = time.perf_counter()
        items.append(workload.build_one(spec))
        build_s.append(time.perf_counter() - start)
    kernel_after = calibrate.kernel_seconds()
    Path(args.inputs).write_bytes(pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL))
    result["ref_build_s"] = [calibrate.reference_seconds(b, kernel, kernel_after) for b in build_s]
    return result


def run_ops(workload, items, workdir: Path, seconds: float, tracer=None) -> list[dict]:
    """Closed loop over the inputs in order until ``seconds`` have passed and
    every input has run the same number of times.  The calibration kernel
    runs between ops (outside their timing)."""
    from perfbench import calibrate

    records = []
    started = time.perf_counter()
    kernel_before = calibrate.kernel_seconds()
    while not records or len(records) % len(items) or time.perf_counter() - started < seconds:
        index = len(records) % len(items)
        item = items[index]
        gc.collect()
        first_span = 0
        if tracer is not None:
            tracer.op = len(records)
            first_span = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            raw, error = workload.run(item, workdir), None
        except Exception as exc:
            raw, error = None, f"op raised {type(exc).__name__}: {exc}"
        op_s = time.perf_counter() - t0
        kernel_after = calibrate.kernel_seconds()
        spans = tracer.spans[first_span:] if tracer is not None else []
        if error is None:
            try:
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    outcome = workload.check(item, raw, workdir, spans)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        problems = [error] if error else outcome.problems
        records.append({
            "input": index,
            "seconds": op_s,
            "ref_seconds": calibrate.reference_seconds(op_s, kernel_before, kernel_after),
            "problems": problems,
            "accuracy": None if error else outcome.accuracy,
            "converged": None if error else outcome.converged,
        })
        kernel_before = kernel_after
    return records


def scaling_curve(program: dict, seed: int) -> dict:
    """Linear training time, passes and convergence at each SCALING_SIZES n,
    on standardized examples from one trace big enough for the largest n."""
    from perfbench import layers, workloads

    svm, traffic_sim = program["svm"], program["traffic_sim"]
    trace_seed, *sample_seeds = workloads._draws("scaling", seed, 1 + len(layers.SCALING_SIZES))
    trace = traffic_sim.generate_trace(
        traffic_sim.ScenarioConfig(num_vehicles=max(layers.SCALING_SIZES), rng_seed=trace_seed)
    )
    sets = [
        workloads.standardized_examples(trace, n, s)
        for n, s in zip(layers.SCALING_SIZES, sample_seeds)
    ]
    del trace
    out = {}
    for n, s, examples in zip(layers.SCALING_SIZES, sample_seeds, sets):
        gc.collect()
        t0 = time.perf_counter()
        model = svm.train(list(examples), svm.KernelSpec.linear(), svm.TrainConfig(rng_seed=s))
        out[f"svm.train.linear.n{n}.s"] = time.perf_counter() - t0
        out[f"svm.train.linear.n{n}.passes"] = model.summary.passes
        out[f"svm.train.linear.n{n}.converged"] = int(model.summary.converged)
    return out


def read_peak_alloc_mb(program: dict, trace_csv: Path) -> float:
    """Peak bytes Python allocates while reading ``trace_csv``, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        program["dataset_io"].read_trace_csv(trace_csv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def op_median(records: list[dict]) -> float:
    return statistics.median(r["ref_seconds"] for r in records)


def measure(args) -> dict:
    program = import_program()
    from perfbench import layers, tracing, workloads

    workload = workloads.make(args.workload)
    items = pickle.loads(Path(args.inputs).read_bytes())
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if not args.trace:
        records = run_ops(workload, items, workdir, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"ops": records, "peak_rss_mb": peak_rss_mb}

    # Traced run: half the time untraced, half traced, both from the first
    # input, so the difference of their medians is the tracing overhead.
    untraced = run_ops(workload, items, workdir, args.seconds / 2)
    tracer = tracing.Tracer(list(program.values()))
    tracer.install(layers.targets(program))
    try:
        traced = run_ops(workload, items, workdir, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    per_layer = dict.fromkeys((name for name, _, _ in layers.PER_LAYER), 0.0)
    per_layer.update(layers.span_metrics(tracer, len(traced)))
    per_layer["perfbench.trace_overhead_s"] = op_median(traced) - op_median(untraced)
    if args.workload == "trace_6000":
        per_layer["dataset_io.read_trace_csv.peak_alloc_mb"] = read_peak_alloc_mb(
            program, workdir / "trace.csv"
        )
    if args.workload == "train_rbf_n2000":
        per_layer.update(scaling_curve(program, args.seed))
    if args.spans:
        tracer.dump(Path(args.spans))
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return {
        "ops": untraced + traced,
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--spans", default=None, help="write the traced run's spans here")
    parser.add_argument("--import-only", action="store_true", help="setup: time the import only")
    args = parser.parse_args(argv)
    result = setup(args) if args.mode == "setup" else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
