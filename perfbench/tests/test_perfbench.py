"""Self-tests of the benchmark: its checks reject corrupted outputs, its
inputs follow the seed, its tracer restores the program, and
BENCHMARK.json names the metrics the code emits.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import pickle
from pathlib import Path

import pytest

from perfbench import checks, layers, run, tracing, workloads
from routesvm import cli, dataset_io, eval_pipeline, svm, traffic_sim

ROOT = Path(__file__).resolve().parents[2]


def _rows(report_csv: Path):
    return checks.read_report(report_csv)


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    """One run-paper op and its check, in a directory the tests may corrupt."""
    workdir = tmp_path_factory.mktemp("paper")
    wl = workloads.PaperDefault()
    op_seed = wl.build_one(wl.plan(1)[0])
    raw = wl.run(op_seed, workdir)
    rows = _rows(workdir / "paper" / "report.csv")
    outcome = wl.check(op_seed, raw, workdir, [])
    return wl, op_seed, raw, rows, outcome


def test_paper_op_passes_its_check(paper_run):
    _, _, _, _, outcome = paper_run
    assert outcome.problems == []
    assert outcome.accuracy >= checks.MEAN_ACCURACY_FLOOR


def test_paper_rerun_is_byte_identical_and_a_changed_output_is_not(paper_run, tmp_path):
    wl, op_seed, _, _, _ = paper_run
    assert wl.check(op_seed, wl.run(op_seed, tmp_path), tmp_path, []).problems == []
    raw = wl.run(op_seed, tmp_path)
    model = tmp_path / "paper" / "model.txt"
    model.write_text(model.read_text().replace("bias=", "bias=1"))
    problems = wl.check(op_seed, raw, tmp_path, []).problems
    assert problems == ["model.txt differs from an earlier run"]


def test_paper_nonzero_exit_fails(paper_run, tmp_path):
    wl, op_seed, _, _, _ = paper_run
    assert wl.check(op_seed, (2, "error: boom"), tmp_path, []).problems


def test_report_check_rejects_a_flipped_count(paper_run):
    _, _, _, rows, _ = paper_run
    assert checks.check_report(rows, workloads.PAPER_TEST_SIZES) == []
    size, correct, _ = rows[0]
    flipped = [(size, size - correct, (size - correct) / size)] + rows[1:]
    assert checks.check_report(flipped, workloads.PAPER_TEST_SIZES)
    inconsistent = [(size, correct - 1, rows[0][2])] + rows[1:]
    assert checks.check_report(inconsistent, workloads.PAPER_TEST_SIZES)


def test_report_check_rejects_missing_rows_and_low_accuracy(paper_run):
    _, _, _, rows, _ = paper_run
    assert checks.check_report(rows[:-1], workloads.PAPER_TEST_SIZES)
    chance = [(s, s // 2, (s // 2) / s) for s, _, _ in rows]
    problems = checks.check_report(chance, workloads.PAPER_TEST_SIZES)
    assert any("mean accuracy" in p for p in problems)


def test_trace_check_rejects_a_short_trace_and_a_wrong_read_back(tmp_path):
    wl = workloads.Trace6000()
    sizes = workloads.TRACE_TEST_SIZES
    (tmp_path / "report.csv").write_text(
        "test_size,correct,accuracy\n" + "".join(f"{s},{s},1.0\n" for s in sizes)
    )
    (tmp_path / "trace.csv").write_text("header\n" + "row\n" * 10)
    gen = (0, f"wrote 6000 vehicles, {workloads.TRACE_POINTS} points to trace.csv\n")
    problems = wl.check(1, (gen, (0, "")), tmp_path, [])
    assert problems.problems == ["trace.csv holds 10 rows"]
    span = tracing.Span(0, None, "dataset_io.read_trace_csv", 0, 0.0, counts={"points": 10})
    assert "read_trace_csv returned [10] points" in wl.check(1, (gen, (0, "")), tmp_path, [span]).problems


@pytest.fixture(scope="module")
def small_training():
    trace = traffic_sim.generate_trace(traffic_sim.ScenarioConfig(num_vehicles=200, rng_seed=3))
    examples = workloads.standardized_examples(trace, 150, 5)
    model = svm.train(list(examples), svm.KernelSpec.rbf(), svm.TrainConfig())
    assert model.summary.converged
    return examples, model


def test_trained_model_check_accepts_the_model(small_training):
    examples, model = small_training
    cfg = svm.TrainConfig()
    assert checks.check_trained_model(svm.decision_values, model, examples, cfg.C, cfg.tol) == []


def test_trained_model_check_rejects_a_perturbed_bias(small_training):
    examples, model = small_training
    cfg = svm.TrainConfig()
    bad = dataclasses.replace(model, bias=model.bias + 0.05)
    problems = checks.check_trained_model(svm.decision_values, bad, examples, cfg.C, cfg.tol)
    assert problems and "KKT violations" in problems[0]


def test_trained_model_check_rejects_foreign_supports(small_training):
    examples, model = small_training
    cfg = svm.TrainConfig()
    copies = tuple(dataclasses.replace(e) for e in examples)
    assert checks.check_trained_model(svm.decision_values, model, copies, cfg.C, cfg.tol)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_follow_the_seed(name):
    wl = workloads.make(name)
    plan = wl.plan(7)
    assert wl.plan(7) == plan and wl.plan(8) != plan
    first = pickle.dumps(wl.build_one(plan[0]))
    assert pickle.dumps(wl.build_one(plan[0])) == first
    assert pickle.dumps(wl.build_one(wl.plan(8)[0])) != first


def test_tracer_wraps_where_callers_look_and_restores(tmp_path):
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in
               (traffic_sim, dataset_io, svm, eval_pipeline, cli)}
    import routesvm.plotting as plotting
    modules["plotting"] = plotting
    originals = (cli.generate_trace, eval_pipeline.train, svm.kernel_matrix)
    tracer = tracing.Tracer(list(modules.values()))
    tracer.install(layers.targets(modules))
    try:
        assert cli.generate_trace is not originals[0]
        assert eval_pipeline.train is svm.train
        trace_csv = tmp_path / "t.csv"
        assert cli.main(["generate", "--vehicles", "30", "--steps", "10", "-o", str(trace_csv)]) == 0
        assert cli.main(["sweep", str(trace_csv), "--train-size", "10", "--test-sizes", "5",
                         "-o", str(tmp_path / "r.csv")]) == 0
    finally:
        tracer.uninstall()
    assert (cli.generate_trace, eval_pipeline.train, svm.kernel_matrix) == originals
    by_id = {s.id: s for s in tracer.spans}
    train = next(s for s in tracer.spans if s.name == "svm.train")
    assert by_id[train.parent].name == "eval_pipeline.train_position_model"
    gram = next(s for s in tracer.spans if s.name == "svm.kernel_matrix")
    assert by_id[gram.parent].name == "svm.train"
    values = layers.span_metrics(tracer, ops=2)
    assert values["traffic_sim.generate_trace.points"] == 150
    assert values["dataset_io.read_trace_csv.points"] == 150
    assert values["svm.train.calls"] == 0.5
    assert values["svm.kernel_matrix.bytes_computed"] == 8 * values["svm.kernel_matrix.entries"]
    assert all(v >= 0 for k, v in values.items() if k.endswith("self_s"))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    ops = [{"ref_seconds": 1.0, "seconds": 1.0, "input": 0, "accuracy": 0.9}]
    emitted = run.end_to_end(ops, peak_rss_mb=1.0, setup_s=1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in emitted.items()
    ]
