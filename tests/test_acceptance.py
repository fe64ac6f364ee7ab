"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import random
import time

import numpy as np
import pytest

from routesvm.cli import main
from routesvm.dataset_io import (
    read_fcd_xml,
    read_trace_csv,
    write_trace_csv,
)
from routesvm.eval_pipeline import BoundaryLine, accuracy_sweep, boundary_report
from routesvm.svm import (
    KernelSpec,
    LabeledExample,
    SvmModel,
    TrainConfig,
    classify,
    functional_margin,
    geometric_margin,
    kernel_eval,
    model_from_text,
    model_to_text,
    predict,
    train,
)

from helpers import (
    hard_margin_oracle,
    label_table_of,
    random_linear_model,
    random_overlapping_examples,
    random_separable_examples,
    random_trace,
    write_fcd_xml,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_accuracy_regime(tmp_path):
    """run-paper with the documented default seed lands in the target
    accuracy regime: mean in [0.88, 0.97], every row >= 0.80, <= 10 s."""
    out_dir = tmp_path / "reproduction"
    started = time.perf_counter()
    code = main(["run-paper", "--out-dir", str(out_dir)])
    elapsed = time.perf_counter() - started
    assert code == 0
    rows = []
    for line in (out_dir / "report.csv").read_text().splitlines()[1:]:
        size, correct, accuracy = line.split(",")
        rows.append((int(size), int(correct), float(accuracy)))
    assert [r[0] for r in rows] == list(range(10, 101, 10))
    mean = sum(r[2] for r in rows) / len(rows)
    min_row = min(r[2] for r in rows)
    ok = 0.88 <= mean <= 0.97 and min_row >= 0.80 and elapsed <= 10.0
    report(
        "criterion 1 (accuracy regime)",
        ok,
        f"mean={mean:.4f} (target [0.88, 0.97]), min row={min_row:.2f} "
        f"(target >= 0.80), runtime={elapsed:.1f}s (target <= 10s)",
    )


def test_criterion_2_boundary_placement(default_model):
    """Default-scenario linear boundary is flat and brackets y = -1.5."""
    boundary = boundary_report(default_model)
    assert isinstance(boundary, BoundaryLine)
    ok = abs(boundary.slope) <= 0.05 and -2.0 <= boundary.intercept <= -1.0
    report(
        "criterion 2 (boundary placement)",
        ok,
        f"slope={boundary.slope:.3g} (target |slope| <= 0.05), "
        f"intercept={boundary.intercept:.3f} (target [-2, -1])",
    )


def test_criterion_3_oracle_equivalence():
    """1000 seeded separable sets: trained hard-margin geometric margin
    matches the brute-force subset-enumeration oracle within 1e-3 relative."""
    rng = random.Random(20240901)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        examples = random_separable_examples(rng)
        model = train(
            examples,
            KernelSpec.linear(),
            TrainConfig(C=1e6, tol=1e-6, max_passes=10000, rng_seed=trial),
        )
        _, _, oracle_margin = hard_margin_oracle(
            [e.features for e in examples], [e.label for e in examples]
        )
        trained_margin = min(geometric_margin(model, e) for e in examples)
        worst = max(worst, abs(trained_margin - oracle_margin) / oracle_margin)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-3 and elapsed <= 30.0
    report(
        "criterion 3 (oracle equivalence)",
        ok,
        f"1000 trials, worst rel err={worst:.2e} (target <= 1e-3), "
        f"runtime={elapsed:.1f}s (target <= 30s)",
    )


def test_criterion_4_margin_identities():
    """Margin identities on 500 random linear models: geometric margin equals
    functional margin over the explicit weight norm within 1e-9; scaling
    (alpha, b) by c leaves classification and geometric margin alone while
    scaling the functional margin by c."""
    rng = random.Random(44)
    grid = np.array(
        [(gx, gy) for gx in np.linspace(-3, 3, 50) for gy in np.linspace(-3, 3, 50)]
    )
    worst_identity = 0.0
    worst_gm_shift = 0.0
    worst_fm_rel = 0.0
    flips = 0
    for _ in range(500):
        model = random_linear_model(rng)
        w = np.zeros(2)
        for alpha, e in zip(model.alphas, model.support_examples):
            w += alpha * e.label * np.asarray(e.features)
        norm = float(np.linalg.norm(w))
        if norm <= 1e-12:
            continue
        point = LabeledExample((rng.uniform(-3, 3), rng.uniform(-3, 3)),
                               1 if rng.random() < 0.5 else -1)
        fm = point.label * (float(w @ point.features) + model.bias)
        worst_identity = max(
            worst_identity, abs(geometric_margin(model, point) - fm / norm)
        )
        base_classes = predict(model, grid)
        for c in (0.5, 3.0, 100.0):
            scaled = model.scaled(c)
            flips += int(np.sum(predict(scaled, grid) != base_classes))
            worst_gm_shift = max(
                worst_gm_shift,
                abs(geometric_margin(scaled, point) - geometric_margin(model, point)),
            )
            fm_scaled = functional_margin(scaled, point)
            fm_base = functional_margin(model, point)
            if c == 0.5:
                if fm_scaled != c * fm_base:
                    worst_fm_rel = max(worst_fm_rel, 1.0)
            elif fm_base != 0.0:
                worst_fm_rel = max(
                    worst_fm_rel, abs(fm_scaled - c * fm_base) / abs(c * fm_base)
                )
    ok = (
        worst_identity <= 1e-9
        and flips == 0
        and worst_gm_shift <= 1e-9
        and worst_fm_rel <= 1e-12
    )
    report(
        "criterion 4 (margin identities)",
        ok,
        f"identity err={worst_identity:.2e} (<= 1e-9), grid flips={flips} (=0), "
        f"gm shift={worst_gm_shift:.2e} (<= 1e-9), fm scale err={worst_fm_rel:.2e} (<= 1e-12)",
    )


def _separable_blobs(rng: random.Random, n: int = 40):
    examples = []
    for _ in range(n):
        label = 1 if rng.random() < 0.5 else -1
        cx = 2.0 if label == 1 else -2.0
        examples.append(LabeledExample((rng.gauss(cx, 0.5), rng.gauss(0.0, 0.5)), label))
    if {1, -1} <= {e.label for e in examples}:
        return examples
    return _separable_blobs(rng, n)


def test_criterion_5_kkt_suite():
    """After training on 20 seeded datasets at C in {0.1, 1, 10}: KKT case
    split within tol, |sum alpha_i y_i| <= tol, dual objective non-decreasing."""
    tol = 1e-3
    kkt_worst = 0.0
    constraint_worst = 0.0
    objective_drops = 0
    runs = 0
    for trial in range(20):
        rng = random.Random(5000 + trial)
        data = (
            _separable_blobs(rng) if trial % 2 == 0 else random_overlapping_examples(rng, 50)
        )
        for c_value in (0.1, 1.0, 10.0):
            runs += 1
            cfg = TrainConfig(C=c_value, tol=tol, max_passes=5000, rng_seed=trial)
            model = train(data, KernelSpec.linear(), cfg)
            alpha_of = dict(zip(model.support_examples, model.alphas))
            constraint_worst = max(
                constraint_worst,
                abs(sum(a * e.label for e, a in alpha_of.items())),
            )
            for e in data:
                margin = functional_margin(model, e)
                alpha = alpha_of.get(e, 0.0)
                if alpha <= 1e-10:
                    kkt_worst = max(kkt_worst, max(0.0, (1.0 - tol) - margin))
                elif alpha >= c_value - 1e-10:
                    kkt_worst = max(kkt_worst, max(0.0, margin - (1.0 + tol)))
                else:
                    kkt_worst = max(kkt_worst, max(0.0, abs(margin - 1.0) - tol))
            objectives = model.summary.dual_objectives
            objective_drops += sum(
                1 for a, b in zip(objectives, objectives[1:]) if b < a - 1e-9
            )
    ok = kkt_worst == 0.0 and constraint_worst <= tol and objective_drops == 0
    report(
        "criterion 5 (KKT suite)",
        ok,
        f"{runs} runs; KKT excess={kkt_worst:.2e} (=0), "
        f"|sum alpha*y|={constraint_worst:.2e} (<= {tol}), "
        f"objective drops={objective_drops} (=0)",
    )


def test_criterion_6_kernel_correctness():
    """rbf self-kernel is exactly 1; all four families symmetric on 1000
    random pairs within 1e-12; XOR solvable with rbf but not linear."""
    rng = random.Random(99)
    rbf_self_ok = all(
        kernel_eval(KernelSpec.rbf(gamma=g), v, v) == 1.0
        for g in (0.01, 1.0, 50.0)
        for v in [(rng.uniform(-5, 5), rng.uniform(-5, 5))]
    )
    specs = [
        KernelSpec.linear(),
        KernelSpec.polynomial(degree=3, gamma=0.7, coef0=0.2),
        KernelSpec.rbf(gamma=0.9),
        KernelSpec.sigmoid(gamma=0.4, coef0=-0.1),
    ]
    asym = 0.0
    for _ in range(1000):
        a = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        for spec in specs:
            asym = max(asym, abs(kernel_eval(spec, a, b) - kernel_eval(spec, b, a)))

    xor = [
        LabeledExample((0.0, 0.0), -1),
        LabeledExample((1.0, 1.0), -1),
        LabeledExample((0.0, 1.0), 1),
        LabeledExample((1.0, 0.0), 1),
    ]
    rbf_model = train(xor, KernelSpec.rbf(gamma=1.0), TrainConfig(C=100.0))
    rbf_correct = sum(classify(rbf_model, e.features) == e.label for e in xor)
    linear_model = train(xor, KernelSpec.linear(), TrainConfig(C=100.0))
    linear_correct = sum(classify(linear_model, e.features) == e.label for e in xor)

    ok = rbf_self_ok and asym <= 1e-12 and rbf_correct == 4 and linear_correct <= 3
    report(
        "criterion 6 (kernel correctness)",
        ok,
        f"rbf self=1: {rbf_self_ok}, max asymmetry={asym:.2e} (<= 1e-12), "
        f"XOR rbf {rbf_correct}/4 (=4), XOR linear {linear_correct}/4 (<= 3)",
    )


def test_criterion_7_io_round_trips(tmp_path):
    """Trace CSV and model serialization are lossless on 100 random
    instances; FCD ingestion reproduces a helper-exported trace."""
    rng = random.Random(7000)
    trace_fail = 0
    for i in range(100):
        trace = random_trace(rng, n_vehicles=rng.randint(1, 8), n_steps=rng.randint(1, 6))
        path = tmp_path / f"trace_{i}.csv"
        write_trace_csv(trace, path)
        if read_trace_csv(path) != trace:
            trace_fail += 1

    model_fail = 0
    kernels = [
        KernelSpec.linear(),
        KernelSpec.polynomial(degree=3, gamma=0.5, coef0=1.0),
        KernelSpec.rbf(gamma=2.0),
        KernelSpec.sigmoid(gamma=0.25, coef0=-0.5),
    ]
    for i in range(100):
        base = random_linear_model(rng)
        model = SvmModel(
            kernel=kernels[i % 4],
            support_examples=base.support_examples,
            alphas=base.alphas,
            bias=base.bias,
        )
        text = model_to_text(model)
        if model_from_text(text) != model or model_to_text(model_from_text(text)) != text:
            model_fail += 1

    fcd_fail = 0
    for i in range(10):
        trace = random_trace(rng, n_vehicles=rng.randint(1, 6), n_steps=rng.randint(1, 5))
        path = tmp_path / f"fcd_{i}.xml"
        write_fcd_xml(trace, path, time_step=0.4)
        if read_fcd_xml(path, label_table_of(trace)) != trace:
            fcd_fail += 1

    ok = trace_fail == 0 and model_fail == 0 and fcd_fail == 0
    report(
        "criterion 7 (I/O round-trips)",
        ok,
        f"trace csv failures={trace_fail}/100, model failures={model_fail}/100, "
        f"fcd failures={fcd_fail}/10 (all must be 0)",
    )


def test_criterion_8_command_determinism(tmp_path):
    """Every CLI command produces byte-identical outputs across two runs."""
    mismatches = []

    def run_twice(label, flags, outputs):
        for suffix in ("a", "b"):
            workdir = tmp_path / f"{label}_{suffix}"
            workdir.mkdir(exist_ok=True)
            assert main([arg.format(dir=workdir) for arg in flags]) == 0
        for name in outputs:
            first = (tmp_path / f"{label}_a" / name).read_bytes()
            second = (tmp_path / f"{label}_b" / name).read_bytes()
            if first != second:
                mismatches.append(f"{label}:{name}")

    run_twice(
        "generate",
        ["generate", "--vehicles", "50", "--steps", "20", "--seed", "3",
         "-o", "{dir}/trace.csv"],
        ["trace.csv"],
    )
    trace_path = tmp_path / "generate_a" / "trace.csv"
    run_twice(
        "train",
        ["train", str(trace_path), "--train-size", "30", "--seed", "5",
         "-o", "{dir}/model.txt"],
        ["model.txt"],
    )
    model_path = tmp_path / "train_a" / "model.txt"
    run_twice(
        "sweep",
        ["sweep", str(trace_path), "--train-size", "30", "--seed", "5",
         "--test-sizes", "5:15:5", "-o", "{dir}/report.csv"],
        ["report.csv"],
    )
    run_twice(
        "plot",
        ["plot", "--model", str(model_path), "-o", "{dir}/plot.svg"],
        ["plot.svg"],
    )
    run_twice(
        "run-paper",
        ["run-paper", "--out-dir", "{dir}", "--vehicles", "100",
         "--train-size", "40", "--test-sizes", "10:20:10", "--seed", "7"],
        ["trace.csv", "model.txt", "report.csv", "train.svg", "test_10.csv", "test_10.svg"],
    )

    ok = not mismatches
    report(
        "criterion 8 (determinism)",
        ok,
        "all command outputs byte-identical across reruns"
        if ok
        else f"mismatched outputs: {mismatches}",
    )


def test_criterion_9_every_kernel_family_usable(default_trace):
    """Each kernel family, at its default parameters, reaches a mean accuracy
    >= 0.90 with a converged solve on the default experiment (seed-7 trace,
    400 training examples, test sizes 10:100:10)."""
    results = []
    for kernel in (
        KernelSpec.linear(),
        KernelSpec.rbf(),
        KernelSpec.polynomial(),
        KernelSpec.sigmoid(),
    ):
        sweep = accuracy_sweep(
            default_trace, 400, list(range(10, 101, 10)), kernel, TrainConfig(), seed=7
        )
        results.append((kernel.family, sweep.mean_accuracy, sweep.convergence_flag))
    ok = all(mean >= 0.90 and converged for _, mean, converged in results)
    report(
        "criterion 9 (every kernel family usable)",
        ok,
        ", ".join(
            f"{family} mean={mean:.4f} converged={converged}"
            for family, mean, converged in results
        )
        + " (target mean >= 0.90, converged)",
    )
