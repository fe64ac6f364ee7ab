import random
import warnings

import numpy as np
import pytest

from routesvm.dataset_io import sample_examples
from routesvm.svm import (
    DimensionMismatchError,
    KernelSpec,
    LabeledExample,
    SingleClassError,
    Standardizer,
    TrainConfig,
    classify,
    decision_value,
    decision_values,
    extract_hyperplane,
    geometric_margin,
    model_to_text,
    train,
)
from routesvm.traffic_sim import ScenarioConfig, generate_trace

from helpers import hard_margin_oracle, random_overlapping_examples, random_separable_examples

TWO_POINTS = [LabeledExample((0.0, 1.0), 1), LabeledExample((0.0, -1.0), -1)]
XOR = [
    LabeledExample((0.0, 0.0), -1),
    LabeledExample((1.0, 1.0), -1),
    LabeledExample((0.0, 1.0), 1),
    LabeledExample((1.0, 0.0), 1),
]


class TestTrainBasics:
    def test_two_point_mirror_symmetry(self):
        model = train(TWO_POINTS, KernelSpec.linear(), TrainConfig(C=10.0))
        w, b = extract_hyperplane(model)
        assert abs(b) <= 1e-3
        assert abs(w[0]) <= 1e-3
        assert w[1] > 0
        assert len(model.support_examples) == 2
        assert model.alphas[0] == pytest.approx(model.alphas[1], rel=1e-9)
        assert decision_value(model, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-6)

    def test_xor_rbf_separates(self):
        model = train(XOR, KernelSpec.rbf(gamma=1.0), TrainConfig(C=100.0))
        assert all(classify(model, e.features) == e.label for e in XOR)

    def test_xor_linear_cannot_separate(self):
        model = train(XOR, KernelSpec.linear(), TrainConfig(C=100.0))
        correct = sum(classify(model, e.features) == e.label for e in XOR)
        assert correct <= 3

    def test_single_class_error(self):
        with pytest.raises(SingleClassError):
            train([LabeledExample((0.0, 0.0), 1), LabeledExample((1.0, 1.0), 1)],
                  KernelSpec.linear())

    def test_empty_data_error(self):
        with pytest.raises(ValueError):
            train([], KernelSpec.linear())

    def test_inconsistent_dimensions_error(self):
        with pytest.raises(DimensionMismatchError):
            train([LabeledExample((0.0,), 1), LabeledExample((1.0, 1.0), -1)],
                  KernelSpec.linear())

    def test_kernel_overflow_raises_instead_of_a_nan_model(self):
        data = random_overlapping_examples(random.Random(0), 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and numpy warns of no overflow on the way
            with pytest.raises(ValueError, match="non-finite bias or alpha"):
                train(data, KernelSpec.polynomial(degree=10**20, gamma=0.5))

    @pytest.mark.parametrize("kwargs, message", [
        ({"C": 10**400}, "C must be finite and > 0"),
        ({"tol": 10**400}, "tol must be finite and > 0"),
        ({"max_passes": float("nan")}, "max_passes must be >= 1"),
    ])
    def test_out_of_range_config_raises(self, kwargs, message):
        with pytest.raises(ValueError) as exc_info:
            train(TWO_POINTS, KernelSpec.linear(), TrainConfig(**kwargs))
        assert str(exc_info.value) == message

    def test_gamma_default_resolved_at_training(self):
        model = train(TWO_POINTS, KernelSpec.rbf())
        assert model.kernel.gamma == 1.0 / len(TWO_POINTS[0].features)

    def test_fractional_max_passes_caps_odd_n(self):
        # 41 examples: the cap is 61.5 steps, which a step count never equals.
        data = random_overlapping_examples(random.Random(0), 41)
        model = train(data, KernelSpec.linear(), TrainConfig(C=100.0, max_passes=1.5))
        assert model.summary.passes == 2
        assert model.summary.converged is False

    def test_determinism(self):
        rng = random.Random(31)
        data = random_overlapping_examples(rng, 40)
        cfg = TrainConfig(C=1.0, rng_seed=5)
        first = train(data, KernelSpec.linear(), cfg)
        second = train(data, KernelSpec.linear(), cfg)
        assert model_to_text(first) == model_to_text(second)

    def test_rng_seed_has_no_effect(self):
        data = random_overlapping_examples(random.Random(32), 40)
        first = train(data, KernelSpec.linear(), TrainConfig(rng_seed=1))
        second = train(data, KernelSpec.linear(), TrainConfig(rng_seed=2))
        assert model_to_text(first) == model_to_text(second)


@pytest.fixture(scope="module")
def large_trace():
    return generate_trace(ScenarioConfig(num_vehicles=2000, rng_seed=7))


class TestTrainedModelInvariants:
    # The sigmoid Gram matrix of these sets is indefinite, so some pairs have
    # non-positive curvature and take the TAU step.
    @pytest.mark.parametrize(
        "c_value, kernel",
        [
            (0.1, KernelSpec.linear()),
            (1.0, KernelSpec.linear()),
            (10.0, KernelSpec.linear()),
            (1.0, KernelSpec.sigmoid(gamma=0.5, coef0=-1.0)),
        ],
        ids=["0.1", "1.0", "10.0", "sigmoid"],
    )
    def test_dual_feasibility_and_kkt(self, c_value, kernel):
        cfg = TrainConfig(C=c_value, tol=1e-3, max_passes=5000)
        for trial in range(5):
            rng = random.Random(100 + trial)
            data = random_overlapping_examples(rng, 50)
            model = train(data, kernel, cfg)
            assert model.summary.converged
            objectives = model.summary.dual_objectives
            assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))

            alphas = dict()
            for alpha, e in zip(model.alphas, model.support_examples):
                assert 0.0 < alpha <= c_value + 1e-12
                alphas[e] = alpha
            total = sum(a * e.label for e, a in alphas.items())
            assert abs(total) <= cfg.tol

            for e in data:
                margin = e.label * decision_value(model, e.features)
                alpha = alphas.get(e, 0.0)
                if alpha <= 1e-10:
                    assert margin >= 1.0 - cfg.tol
                elif alpha >= c_value - 1e-10:
                    assert margin <= 1.0 + cfg.tol
                else:
                    assert abs(margin - 1.0) <= cfg.tol

    def test_dual_objective_monotone(self):
        for trial in range(5):
            rng = random.Random(42 + trial)
            data = random_overlapping_examples(rng, 60)
            model = train(data, KernelSpec.linear(), TrainConfig(C=1.0, rng_seed=trial))
            objectives = model.summary.dual_objectives
            assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))

    @pytest.mark.parametrize("n", [400, 2000])
    def test_standardized_trace_examples_converge(self, large_trace, n):
        examples = sample_examples(large_trace, n, seed=7).examples
        raw = np.array([e.features for e in examples])
        xs = Standardizer().fit(raw).transform(raw)
        data = [LabeledExample(tuple(row), e.label) for row, e in zip(xs, examples)]
        cfg = TrainConfig()
        model = train(data, KernelSpec.linear(), cfg)
        assert model.summary.converged

        alpha_of = {id(e): a for e, a in zip(model.support_examples, model.alphas)}
        alphas = np.array([alpha_of.get(id(e), 0.0) for e in data])
        labels = np.array([e.label for e in data])
        margin = labels * decision_values(model, xs)
        at_zero, at_c = alphas <= 1e-12, alphas >= cfg.C - 1e-12
        violations = (
            (at_zero & (margin < 1.0 - cfg.tol))
            | (~at_zero & ~at_c & (np.abs(margin - 1.0) > cfg.tol))
            | (at_c & (margin > 1.0 + cfg.tol))
        )
        assert not violations.any()

    def test_support_vectors_only_nonzero_alphas(self):
        rng = random.Random(77)
        data = random_overlapping_examples(rng, 50)
        model = train(data, KernelSpec.linear(), TrainConfig(C=1.0))
        assert all(alpha > 0 for alpha in model.alphas)
        assert len(model.support_examples) < len(data)


class TestOracleEquivalence:
    def test_hard_margin_matches_bruteforce(self):
        rng = random.Random(2024)
        for trial in range(100):
            examples = random_separable_examples(rng)
            model = train(
                examples,
                KernelSpec.linear(),
                TrainConfig(C=1e6, tol=1e-6, max_passes=10000, rng_seed=trial),
            )
            oracle_w, oracle_b, oracle_margin = hard_margin_oracle(
                [e.features for e in examples], [e.label for e in examples]
            )
            trained_margin = min(geometric_margin(model, e) for e in examples)
            assert trained_margin == pytest.approx(oracle_margin, rel=1e-3)

            w, b = extract_hyperplane(model)
            norm = float(np.linalg.norm(w))
            assert np.allclose(w / norm, oracle_w, atol=1e-3)
            assert b / norm == pytest.approx(oracle_b, abs=1e-3 * max(1.0, abs(oracle_b)))


class TestExtractHyperplane:
    def test_nonlinear_kernel_rejected(self):
        model = train(XOR, KernelSpec.rbf(gamma=1.0), TrainConfig(C=100.0))
        from routesvm.svm import UnsupportedKernelError

        with pytest.raises(UnsupportedKernelError):
            extract_hyperplane(model)

    def test_empty_model_rejected(self):
        from routesvm.svm import SvmModel

        empty = SvmModel(kernel=KernelSpec.linear(), support_examples=(), alphas=(), bias=0.0)
        with pytest.raises(ValueError):
            extract_hyperplane(empty)

    def test_highway_model_weight_mostly_vertical(self, default_model):
        w, _ = extract_hyperplane(default_model)
        assert abs(w[0]) / abs(w[1]) <= 0.05


class TestScalingInvariance:
    def test_classify_unchanged_under_positive_scaling(self):
        rng = random.Random(9)
        data = random_separable_examples(rng, max_pts=6)
        model = train(data, KernelSpec.linear(), TrainConfig(C=10.0))
        grid = [(gx, gy) for gx in np.linspace(-3, 3, 25) for gy in np.linspace(-3, 3, 25)]
        for c in (0.5, 3.0, 100.0):
            scaled = model.scaled(c)
            assert all(classify(scaled, p) == classify(model, p) for p in grid)
