import pytest

import random

import numpy as np

from routesvm.dataset_io import InsufficientVehiclesError, sample_examples
from routesvm.eval_pipeline import (
    BoundaryLine,
    EmptyTestError,
    EvaluationReport,
    VerticalBoundary,
    accuracy_sweep,
    boundary_report,
    evaluate,
    format_report,
    report_to_csv,
    split_examples,
    sweep_with_model,
    train_position_model,
)
from routesvm.svm import (
    KernelSpec,
    LabeledExample,
    SvmModel,
    TrainConfig,
    classify,
    decision_values,
    extract_hyperplane,
    load_model,
    predict,
    save_model,
    train,
)

from helpers import dataset_of


def linear_model(w, b) -> SvmModel:
    """A linear model with the given explicit weights, built from one or two
    unit-coefficient supports."""
    supports = []
    alphas = []
    if w[0]:
        supports.append(LabeledExample((1.0, 0.0), 1 if w[0] > 0 else -1))
        alphas.append(abs(float(w[0])))
    if w[1]:
        supports.append(LabeledExample((0.0, 1.0), 1 if w[1] > 0 else -1))
        alphas.append(abs(float(w[1])))
    return SvmModel(
        kernel=KernelSpec.linear(),
        support_examples=tuple(supports),
        alphas=tuple(alphas),
        bias=float(b),
    )


class TestEvaluate:
    def test_all_positive_model_on_positives(self):
        model = linear_model((0.0, 1.0), 100.0)  # decision always positive near origin
        test = dataset_of(LabeledExample((float(i), 0.0), 1) for i in range(3))
        assert evaluate(model, test) == (3, 1.0)

    def test_nine_of_ten(self):
        model = linear_model((0.0, 1.0), 0.0)  # classify by sign of y
        examples = [LabeledExample((0.0, 1.0), 1) for _ in range(9)]
        examples.append(LabeledExample((0.0, 1.0), -1))  # predicted +1, labeled -1
        correct, accuracy = evaluate(model, dataset_of(examples))
        assert (correct, accuracy) == (9, 0.9)

    def test_ninety_four_of_hundred(self):
        model = linear_model((0.0, 1.0), 0.0)
        examples = [LabeledExample((0.0, 1.0), 1) for _ in range(94)]
        examples.extend(LabeledExample((0.0, 1.0), -1) for _ in range(6))
        correct, accuracy = evaluate(model, dataset_of(examples))
        assert (correct, accuracy) == (94, 0.94)

    @pytest.mark.parametrize("family", ["linear", "rbf", "polynomial", "sigmoid"])
    def test_predict_agrees_with_classify_and_evaluate_on_the_run_paper_draw(self, default_trace,
                                                                            family):
        train_ds, tests = split_examples(default_trace, 400, range(10, 101, 10), 7)
        model = train_position_model(train_ds, getattr(KernelSpec, family)())
        for test in (train_ds, *tests):
            predicted = predict(model, test.features)
            assert predicted.tolist() == [classify(model, x) for x in test.features]
            assert evaluate(model, test)[0] == int(np.sum(predicted == test.labels))

    def test_empty_test_error(self):
        with pytest.raises(EmptyTestError):
            evaluate(linear_model((0.0, 1.0), 0.0), dataset_of([]))


class TestBoundaryReport:
    def test_horizontal_boundary(self):
        boundary = boundary_report(linear_model((0.0, 2.0), 3.0))
        assert isinstance(boundary, BoundaryLine)
        assert boundary.slope == 0.0
        assert boundary.intercept == -1.5

    def test_vertical_boundary(self):
        boundary = boundary_report(linear_model((1.0, 0.0), -2.0))
        assert isinstance(boundary, VerticalBoundary)
        assert boundary.x == 2.0

    def test_sloped_boundary(self):
        boundary = boundary_report(linear_model((1.0, 2.0), 4.0))
        assert boundary.slope == pytest.approx(-0.5)
        assert boundary.intercept == pytest.approx(-2.0)

    def test_linear_model_without_supports_has_none(self):
        assert boundary_report(linear_model((0.0, 0.0), 1.0)) is None

    def test_zero_weight_vector_has_none(self):
        model = SvmModel(
            kernel=KernelSpec.linear(),
            support_examples=(LabeledExample((1.0, 1.0), 1), LabeledExample((1.0, 1.0), -1)),
            alphas=(1.0, 1.0),
            bias=0.0,
        )
        assert boundary_report(model) is None

    def test_nonlinear_unsupported(self):
        xor = [
            LabeledExample((0.0, 0.0), -1),
            LabeledExample((1.0, 1.0), -1),
            LabeledExample((0.0, 1.0), 1),
            LabeledExample((1.0, 0.0), 1),
        ]
        model = train(xor, KernelSpec.rbf(gamma=1.0), TrainConfig(C=100.0))
        assert boundary_report(model) is None


class TestSweep:
    def test_empty_test_sizes_gives_zero_rows(self, small_trace):
        report = accuracy_sweep(small_trace, 30, [], KernelSpec.linear(), TrainConfig(), seed=3)
        assert report.rows == ()
        assert report.mean_accuracy is None

    def test_sweep_determinism(self, small_trace):
        args = (small_trace, 30, [5, 10], KernelSpec.linear(), TrainConfig(rng_seed=1))
        assert accuracy_sweep(*args, seed=4) == accuracy_sweep(*args, seed=4)

    def test_rows_store_exact_counts(self, small_trace):
        report = accuracy_sweep(small_trace, 30, [5, 10, 15], KernelSpec.linear(),
                                TrainConfig(), seed=2)
        for row, size in zip(report.rows, (5, 10, 15)):
            assert row.test_size == size
            assert 0 <= row.correct <= size
            assert row.accuracy == row.correct / size
        assert report.mean_accuracy == pytest.approx(
            sum(r.accuracy for r in report.rows) / 3
        )
        assert report.train_size == 30

    def test_test_sets_disjoint_from_training_vehicles(self, small_trace):
        train_ds, tests = split_examples(small_trace, 30, [5, 10, 20], 5)
        assert train_ds == sample_examples(small_trace, 30, 5)
        assert [len(t.examples) for t in tests] == [5, 10, 20]
        for test in tests:
            assert len(set(test.vehicle_ids)) == len(test.examples)
            assert not set(test.vehicle_ids) & set(train_ds.vehicle_ids)
        model = train(list(train_ds.examples), KernelSpec.linear(), TrainConfig())
        report = sweep_with_model(model, tests, 30)
        assert [r.test_size for r in report.rows] == [5, 10, 20]

    @pytest.mark.parametrize("train_size, test_sizes", [(-1, [5]), (30, [0, 5]), (30, [5, -3])])
    def test_sizes_below_range_rejected_before_drawing(self, small_trace, train_size,
                                                       test_sizes):
        # The vehicle count would also fail: the size check comes first.
        with pytest.raises(ValueError, match="sizes? must be at least"):
            split_examples(small_trace, train_size, test_sizes + [1000], 0)

    def test_insufficient_vehicles_propagates(self, small_trace):
        with pytest.raises(InsufficientVehiclesError):
            accuracy_sweep(small_trace, 55, [10], KernelSpec.linear(), TrainConfig(), seed=0)

    def test_boundary_filled_for_linear_kernel(self, small_trace):
        report = accuracy_sweep(small_trace, 30, [5], KernelSpec.linear(), TrainConfig(), seed=1)
        assert isinstance(report.boundary, (BoundaryLine, VerticalBoundary))


class TestReportSerialization:
    def test_csv_layout(self, tmp_path):
        report = EvaluationReport(
            rows=(),
            mean_accuracy=None,
            boundary=None,
            train_size=0,
            convergence_flag=True,
        )
        path = tmp_path / "r.csv"
        report_to_csv(report, path)
        assert path.read_text() == "test_size,correct,accuracy\n"

    def test_csv_rows_and_table(self, small_trace, tmp_path):
        report = accuracy_sweep(small_trace, 30, [5, 10], KernelSpec.linear(),
                                TrainConfig(), seed=9)
        path = tmp_path / "r.csv"
        report_to_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "test_size,correct,accuracy"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 5
        assert float(first[2]) == report.rows[0].accuracy

        table = format_report(report)
        assert "Testing examples" in table
        assert "30 training examples" in table
        assert "mean" in table

    def test_empty_report_mean_flagged(self):
        report = EvaluationReport(
            rows=(), mean_accuracy=None, boundary=None,
            train_size=10, convergence_flag=True,
        )
        assert "undefined" in format_report(report)


def anisotropic_positions(rng: random.Random, n: int) -> list[LabeledExample]:
    """Road-like examples: x spans 2 km and carries no signal, y separates."""
    data = []
    for _ in range(n):
        label = 1 if rng.random() < 0.5 else -1
        x = rng.uniform(0.0, 2000.0)
        y = rng.gauss(1.0 if label == 1 else -1.0, 0.3)
        data.append(LabeledExample((x, y), label))
    return data


class TestPipelineHyperplane:
    def test_raw_plane_matches_decision_values(self):
        rng = random.Random(13)
        for _ in range(20):
            model = train_position_model(
                dataset_of(anisotropic_positions(rng, rng.randint(10, 60))), KernelSpec.linear()
            )
            assert model.scaler is not None
            w, b = extract_hyperplane(model)
            points = np.array(
                [(rng.uniform(-500, 2500), rng.uniform(-5, 5)) for _ in range(25)]
            )
            assert decision_values(model, points) == pytest.approx(
                points @ w + b, rel=1e-9, abs=1e-9
            )


class TestTrainPositionModel:
    def test_linear_handles_anisotropic_scales(self):
        data = anisotropic_positions(random.Random(21), 80)
        model = train_position_model(dataset_of(data), KernelSpec.linear(), TrainConfig(rng_seed=1))
        assert model.summary.converged
        correct = sum(classify(model, e.features) == e.label for e in data)
        assert correct >= 76  # the blobs overlap slightly
        boundary = boundary_report(model)
        assert isinstance(boundary, BoundaryLine)
        assert abs(boundary.intercept) < 0.8
        assert abs(boundary.slope) < 1e-2

    @pytest.mark.parametrize("kernel", [
        KernelSpec.rbf(), KernelSpec.polynomial(), KernelSpec.sigmoid(),
    ], ids=lambda k: k.family)
    def test_nonlinear_keeps_scaler_on_reload(self, kernel, tmp_path):
        rng = random.Random(5)
        data = anisotropic_positions(rng, 60)
        model = train_position_model(dataset_of(data), kernel, TrainConfig())
        assert model.scaler is not None
        assert model.scaler.mean[0] > 100.0  # fitted on raw meters
        path = tmp_path / "model.txt"
        save_model(model, path)
        restored = load_model(path)
        assert restored == model
        points = np.array([(rng.uniform(0, 2000), rng.uniform(-3, 3)) for _ in range(50)])
        assert np.array_equal(decision_values(restored, points), decision_values(model, points))

    def test_close_to_direct_training_when_scales_are_sane(self):
        # Standardization reweights features, so the two solutions differ a
        # little; they must still agree on nearly all predictions.
        rng = random.Random(33)
        data = []
        for _ in range(40):
            label = 1 if rng.random() < 0.5 else -1
            data.append(LabeledExample(
                (rng.gauss(1.0 if label == 1 else -1.0, 0.8), rng.gauss(0.0, 0.8)), label
            ))
        cfg = TrainConfig(rng_seed=2, max_passes=2000)
        pipeline_model = train_position_model(dataset_of(data), KernelSpec.linear(), cfg)
        direct_model = train(data, KernelSpec.linear(), cfg)
        train_agreement = sum(
            classify(pipeline_model, e.features) == classify(direct_model, e.features)
            for e in data
        )
        assert train_agreement >= 36
        grid = [(gx, gy) for gx in np.linspace(-3, 3, 15) for gy in np.linspace(-3, 3, 15)]
        grid_agreement = sum(
            classify(pipeline_model, p) == classify(direct_model, p) for p in grid
        )
        assert grid_agreement >= 0.85 * len(grid)


class TestDataVolumeSanity:
    def test_more_training_data_helps_on_default_scenario(self, default_trace):
        """Training on 400 examples should beat training on 20 for most seeds.

        Evaluated on one 200-vehicle row (the whole held-out pool): smaller
        sweep rows resample the same vehicles and their noise swamps the
        true model-quality gap.
        """
        wins = 0
        for seed in range(10):
            big = accuracy_sweep(default_trace, 400, [200], KernelSpec.linear(),
                                 TrainConfig(rng_seed=seed), seed=seed)
            small = accuracy_sweep(default_trace, 20, [200], KernelSpec.linear(),
                                   TrainConfig(rng_seed=seed), seed=seed)
            if big.mean_accuracy >= small.mean_accuracy:
                wins += 1
        assert wins >= 8
