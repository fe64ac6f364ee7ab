#!/usr/bin/env python3
"""routesvm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each workload runs in child processes of its own.  Three ``setup``
children time the import; the first also builds the inputs, timing each
one, so ``setup_s`` is the median import plus the input count times the
median input build.  One ``measure`` child then runs the ops as a closed
loop, one client, single-threaded, with the BLAS/OpenMP thread variables
set to 1 and the package imported from ``src/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
A record with every op, the environment and, for traced runs, the spans is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_default", "trace_6000", "train_rbf_n2000")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run ``perfbench.worker`` to completion and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv[0]} did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(ops: list[dict], peak_rss_mb: float, setup_s: float) -> dict:
    times = [r["ref_seconds"] for r in ops]
    first_accuracy = {}
    for r in ops:
        if r["accuracy"] is not None:
            first_accuracy.setdefault(r["input"], r["accuracy"])
    accuracy = sum(first_accuracy.values()) / len(first_accuracy) if first_accuracy else 0.0
    return {
        "op_s_p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
        "accuracy_mean": (accuracy, "fraction"),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    inputs = workdir / "inputs.pickle"
    common = ["--workload", name, "--seed", str(seed), "--inputs", str(inputs)]
    try:
        setups = [run_worker(["setup", *common], deadline)]
        setups += [run_worker(["setup", "--import-only", *common], deadline)
                   for _ in range(SETUP_REPEATS - 1)]
        measured = run_worker(
            ["measure", *common, "--seconds", str(seconds), "--trace", str(int(trace)),
             "--workdir", str(workdir / "ops"), "--spans", str(out_dir / f"spans-{tag}.json")],
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = measured["ops"]
    problems = [f"op {i} (input {r['input']}): {p}" for i, r in enumerate(ops) for p in r["problems"]]
    failed = sum(1 for r in ops if r["problems"])
    converged = [r["converged"] for r in ops if r["converged"] is not None]
    builds = setups[0]["ref_build_s"]
    setup_s = (statistics.median(s["ref_import_s"] for s in setups)
               + len(builds) * statistics.median(builds))
    n_inputs = 1 + max(r["input"] for r in ops)
    if trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in measured["per_layer"].items()}
    else:
        metrics = end_to_end(ops, measured["peak_rss_mb"], setup_s)
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    shares = {
        "unconverged_share": sum(1 for c in converged if not c) / len(converged) if converged else 0.0,
        "failed_share": failed / len(ops),
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": {**environment(), **setups[0]["env"]},
        "metrics": metrics_json,
        "shares": shares, "problems": problems, "setups": setups, "ops": ops,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    env = record["env"]
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)} ops={len(ops)} "
          f"inputs={n_inputs}")
    print(f"  env commit={env['commit']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    for key, value in shares.items():
        print(f"  {key:<44} {value:>14.6g} share")
    print(f"  {'wall op_s_p50 (not calibrated)':<44} "
          f"{statistics.median(r['seconds'] for r in ops):>14.6g} s")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics_json,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "routesvm" / "__init__.py").is_file():
        print(f"error: no routesvm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), deadline)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
