import math
import operator
import pickle
import random
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from routesvm import svm
from routesvm.dataset_io import InsufficientVehiclesError, TraceFormatError
from routesvm.svm import (
    DataError,
    DimensionMismatchError,
    KernelSpec,
    LabeledExample,
    ModelFormatError,
    SingleClassError,
    Standardizer,
    SvmModel,
    UnsupportedKernelError,
    ZeroNormError,
    classify,
    decision_values,
    extract_hyperplane,
    functional_margin,
    geometric_margin,
    kernel_eval,
    kernel_matrix,
    model_from_text,
    model_to_text,
    predict,
    train,
    weight_norm,
)

from helpers import random_linear_model, random_overlapping_examples, subprocess_env


# Prints one sha256 per kernel family of the decision values on the run-paper
# seed-7 training and test sets, then of ||w|| and, for linear, of (w, b).
NUMBERS_SCRIPT = """
import hashlib
import numpy as np
from routesvm.eval_pipeline import split_examples, train_position_model
from routesvm.svm import KernelSpec, decision_values, extract_hyperplane, weight_norm
from routesvm.traffic_sim import ScenarioConfig, generate_trace
trace = generate_trace(ScenarioConfig(num_vehicles=600, rng_seed=7))
train_ds, tests = split_examples(trace, 400, range(10, 101, 10), 7)
for spec in (KernelSpec.linear(), KernelSpec.polynomial()):
    model = train_position_model(train_ds, spec)
    numbers = [decision_values(model, ds.features) for ds in (train_ds, *tests)]
    numbers.append(np.float64(weight_norm(model)))
    if spec.family == "linear":
        w, b = extract_hyperplane(model)
        numbers += [w, np.float64(b)]
    print(spec.family, hashlib.sha256(b"".join(n.tobytes() for n in numbers)).hexdigest())
"""

# A bad support line at file line 4, after a blank line 3.
BAD_LINE_AFTER_BLANK = "routesvm-model v2 family=linear bias=0 supports=2\n1.0 1 0 0\n\n1.0 x 0 0\n"

# One feature, so train resolves an unset gamma to 1.
TWO_CLASS_LINE = (LabeledExample((0.0,), -1), LabeledExample((1.0,), 1))


def single_support_model(features=(0.0, 1.0), label=1, alpha=1.0, bias=0.0) -> SvmModel:
    return SvmModel(
        kernel=KernelSpec.linear(),
        support_examples=(LabeledExample(tuple(features), label),),
        alphas=(alpha,),
        bias=bias,
    )


def bias_only_model(bias: float) -> SvmModel:
    return SvmModel(kernel=KernelSpec.linear(), support_examples=(), alphas=(), bias=bias)


class TestLabeledExample:
    @pytest.mark.parametrize("features, label, message", [
        ((0.0, 1.0), 0, "label must be +1 or -1, got 0"),
        ((math.nan, 1.0), 1, "features must be finite"),
        ((10**400, 1.0), 1, "features must be finite"),
        ((1.0, -math.inf), 1, "features must be finite"),
        ((np.float32(np.inf), 1.0), -1, "features must be finite"),
    ])
    def test_bad_label_or_feature_raises(self, features, label, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc_info:
                LabeledExample(features, label)
        assert type(exc_info.value) is ValueError
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("feature", ["1.5", b"1.5", bytearray(b"1.5")])
    def test_text_feature_raises_type_error(self, feature):
        # float() would parse it; a feature must already be a number
        with pytest.raises(TypeError):
            LabeledExample((feature, 1.0), 1)

    @pytest.mark.parametrize("features", [b"12", bytearray(b"12"), memoryview(b"12")])
    def test_bytes_features_raise_type_error(self, features):
        # bytes iterate as ints, so b"12" would be stored as (49.0, 50.0)
        with pytest.raises(TypeError, match="not bytes"):
            LabeledExample(features, 1)

    @pytest.mark.parametrize("features", [
        (3, 0.5), (True, 0.5), (np.int64(-4), 0.5), (np.float64(2.5), 0.5), (Fraction(1, 3), 0.5),
        (np.float32(0.1), np.float32(-0.3)),  # the old range check warned on a float32 cast
    ])
    def test_every_feature_is_stored_as_a_float_without_a_warning(self, features):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = LabeledExample(features, 1)
        assert [type(f) for f in e.features] == [float, float]
        assert e.features == tuple(map(float, features))

    @pytest.mark.parametrize("label", [1.0, True, np.int64(-1)])
    def test_label_of_another_type_is_stored_as_int(self, label):
        examples = [LabeledExample((0, 1), label), LabeledExample((0, -1), -label)]
        assert [type(e.label) for e in examples] == [int, int]
        text = model_to_text(train(examples, KernelSpec.linear()))
        assert model_to_text(model_from_text(text)) == text

    def test_model_trained_on_bool_features_reads_back(self):
        model = train([LabeledExample((True,), 1), LabeledExample((False,), -1)],
                      KernelSpec.linear())
        assert model_from_text(model_to_text(model)) == model

    def test_list_features_make_a_hashable_tuple_twin(self):
        e = LabeledExample([0.5, 1.0], 1)
        assert e == LabeledExample((0.5, 1.0), 1)
        assert hash(e) == hash(LabeledExample((0.5, 1.0), 1))
        assert e.features == (0.5, 1.0)

    def test_iterator_features_are_read_once(self):
        assert LabeledExample(iter([0.5, 1.0]), 1).features == (0.5, 1.0)

    def test_example_is_slotted_and_frozen(self):
        e = LabeledExample((0.5, -1.0), -1)
        assert not hasattr(e, "__dict__")
        with pytest.raises(FrozenInstanceError):
            e.label = 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        e = LabeledExample((0.5, -0.0), -1)
        back = pickle.loads(pickle.dumps(e, protocol))
        assert back == e and hash(back) == hash(e)
        assert math.copysign(1.0, back.features[1]) == -1.0

    def test_numpy_features_pickle_without_numpy(self):
        e = LabeledExample(tuple(np.array([0.5, -1.0])), 1)
        assert b"numpy" not in pickle.dumps(e, pickle.HIGHEST_PROTOCOL)


@pytest.mark.parametrize("error", [
    DimensionMismatchError, SingleClassError, ModelFormatError, TraceFormatError,
    InsufficientVehiclesError,
])
def test_data_errors_share_one_type(error):
    assert issubclass(error, DataError)


class TestKernels:
    def test_linear_dot_product(self):
        assert kernel_eval(KernelSpec.linear(), (1, 2), (3, 4)) == 11.0

    def test_rbf_zero_distance(self):
        for gamma in (0.1, 1.0, 25.0):
            assert kernel_eval(KernelSpec.rbf(gamma=gamma), (0.3, -2.0), (0.3, -2.0)) == 1.0

    @pytest.mark.parametrize("d", [1, 2, 8, 16, 64])
    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 7.5])
    def test_rbf_self_kernel_is_exactly_one_at_every_feature_count(self, d, gamma):
        # x - x is 0 in every feature, so |x - x|^2 is 0 and exp(-gamma * 0) is 1.
        xs = np.random.default_rng(d).uniform(-1e4, 1e4, (200, d))
        spec = KernelSpec.rbf(gamma=gamma)
        assert all(kernel_eval(spec, v, v) == 1.0 for v in xs)
        assert (np.diag(kernel_matrix(spec, xs, xs)) == 1.0).all()
        assert (svm._gram(spec, xs)[1] == 1.0).all()

    def test_polynomial_cross_unit_vectors(self):
        spec = KernelSpec.polynomial(degree=2, gamma=1.0, coef0=1.0)
        assert kernel_eval(spec, (1, 0), (0, 1)) == 1.0

    def test_sigmoid_matches_tanh(self):
        spec = KernelSpec.sigmoid(gamma=0.5, coef0=0.25)
        a, b = (1.0, 2.0), (-0.5, 3.0)
        expected = math.tanh(0.5 * (1.0 * -0.5 + 2.0 * 3.0) + 0.25)
        assert kernel_eval(spec, a, b) == pytest.approx(expected, rel=1e-15)

    def test_symmetry_all_families(self):
        rng = random.Random(5)
        specs = [
            KernelSpec.linear(),
            KernelSpec.polynomial(degree=3, gamma=0.7, coef0=0.2),
            KernelSpec.rbf(gamma=0.9),
            KernelSpec.sigmoid(gamma=0.4, coef0=-0.1),
        ]
        for _ in range(200):
            a = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            for spec in specs:
                assert abs(kernel_eval(spec, a, b) - kernel_eval(spec, b, a)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_eval(KernelSpec.linear(), (1, 2), (1, 2, 3))

    @pytest.mark.parametrize("a, b, shape", [
        ([1.0, 2.0], [[1.0, 2.0]], (2,)),
        ([[1.0, 2.0]], [1.0, 2.0], (2,)),
        (np.zeros((1, 1, 2)), np.zeros((1, 2)), (1, 1, 2)),
        (np.zeros((1, 2)), np.zeros((2, 1, 2)), (2, 1, 2)),
        (1.0, [[1.0]], ()),
    ])
    def test_kernel_matrix_takes_only_2d_stacks_of_rows(self, a, b, shape):
        with pytest.raises(ValueError) as exc_info:
            kernel_matrix(KernelSpec.linear(), a, b)
        assert str(exc_info.value) == f"expected a 2-D stack of rows, got shape {shape}"

    @pytest.mark.parametrize("a, b", [(np.zeros((2, 0)), np.zeros((3, 0))),
                                      (np.zeros((2, 0)), np.zeros((3, 2)))])
    def test_kernel_matrix_refuses_rows_without_features(self, a, b):
        with pytest.raises(DimensionMismatchError, match="^vectors have no features$"):
            kernel_matrix(KernelSpec.rbf(gamma=1.0), a, b)

    def test_kernel_eval_takes_one_vector_as_one_row(self):
        assert kernel_eval(KernelSpec.linear(), [1.0, 2.0], [[3.0, 4.0]]) == 11.0
        with pytest.raises(ValueError, match=r"^expected a 2-D stack of rows, got shape"):
            kernel_eval(KernelSpec.linear(), np.zeros((1, 1, 2)), [1.0, 2.0])

    @pytest.mark.parametrize("family, kwargs, message", [
        ("linear", {"gamma": 1.0}, "linear kernel takes no gamma"),
        ("linear", {"degree": 2}, "linear kernel takes no degree"),
        ("rbf", {"gamma": -1.0}, "rbf kernel needs gamma > 0"),
        ("rbf", {"gamma": 1.0, "coef0": 0.0}, "rbf kernel takes no coef0"),
        ("polynomial", {"gamma": 1.0, "coef0": 0.0},
         "polynomial kernel needs a finite int degree within float64 range"),
        ("polynomial", {"degree": 0, "gamma": 1.0, "coef0": 0.0},
         "polynomial kernel needs degree >= 1"),
        ("polynomial", {"degree": 3, "gamma": 1.0},
         "polynomial kernel needs a finite float coef0 within float64 range"),
        ("sigmoid", {"gamma": 1.0, "coef0": 0.0, "degree": 2}, "sigmoid kernel takes no degree"),
        ("sigmoid", {"gamma": 1.0}, "sigmoid kernel needs a finite float coef0 within float64 range"),
        ("rbf", {"gamma": math.inf}, "rbf kernel needs a finite float gamma within float64 range"),
        ("sigmoid", {"gamma": 1.0, "coef0": math.nan},
         "sigmoid kernel needs a finite float coef0 within float64 range"),
        ("polynomial", {"degree": 2.5, "gamma": 1.0, "coef0": 0.0},
         "polynomial kernel needs a finite int degree within float64 range"),
        ("polynomial", {"degree": 2**1024, "gamma": 1.0, "coef0": 0.0},
         "polynomial kernel needs a finite int degree within float64 range"),
        ("sigmoid", {"gamma": 1.0, "coef0": -(10**400)},
         "sigmoid kernel needs a finite float coef0 within float64 range"),
        ("rbf", {"gamma": np.float32("inf")},
         "rbf kernel needs a finite float gamma within float64 range"),
        ("sigmoid", {"gamma": 1.0, "coef0": np.float64("nan")},
         "sigmoid kernel needs a finite float coef0 within float64 range"),
        ("rbf", {"gamma": np.float32(-0.5)}, "rbf kernel needs gamma > 0"),
        ("polynomial", {"degree": np.int64(0), "gamma": 1.0, "coef0": 0.0},
         "polynomial kernel needs degree >= 1"),
        ("polynomial", {"degree": np.float64(3.0), "gamma": 1.0, "coef0": 0.0},
         "polynomial kernel needs a finite int degree within float64 range"),
        ("polynomial", {"degree": np.longdouble(3), "gamma": 1.0, "coef0": 0.0},
         "polynomial kernel needs a finite int degree within float64 range"),
        ("rbf", {"gamma": np.longdouble("1e4000")},
         "rbf kernel needs a finite float gamma within float64 range"),
        ("sigmoid", {"gamma": 1.0, "coef0": np.longdouble("-inf")},
         "sigmoid kernel needs a finite float coef0 within float64 range"),
        ("rbf", {"gamma": np.longdouble("nan")},
         "rbf kernel needs a finite float gamma within float64 range"),
    ])
    def test_parameters_present_exactly_per_family(self, family, kwargs, message):
        with pytest.raises(ValueError) as exc_info:
            KernelSpec(family, **kwargs)
        assert type(exc_info.value) is ValueError
        assert str(exc_info.value) == message

    def test_unknown_family_is_refused_when_built(self):
        with pytest.raises(UnsupportedKernelError, match="^unknown kernel family 'quadratic'$"):
            KernelSpec("quadratic")

    @pytest.mark.parametrize("spec, changes, message", [
        (KernelSpec.rbf(gamma=1.0), {"gamma": -1.0}, "rbf kernel needs gamma > 0"),
        (KernelSpec.rbf(gamma=1.0), {"gamma": math.nan},
         "rbf kernel needs a finite float gamma within float64 range"),
        (KernelSpec.polynomial(gamma=1.0), {"degree": 0}, "polynomial kernel needs degree >= 1"),
        (KernelSpec.linear(), {"coef0": 1.0}, "linear kernel takes no coef0"),
        (KernelSpec.sigmoid(), {"family": "rbf"}, "rbf kernel takes no coef0"),
    ])
    def test_replace_checks_the_new_spec(self, spec, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(spec, **changes)

    @pytest.mark.parametrize("spec", [KernelSpec("rbf"), KernelSpec.rbf(), KernelSpec.sigmoid(),
                                      KernelSpec.polynomial()], ids=["rbf", "rbf()", "sigmoid",
                                                                     "polynomial"])
    def test_unresolved_gamma_builds_but_is_not_evaluated(self, spec):
        message = f"^{spec.family} kernel needs a gamma: train resolves None to 1/d$"
        with pytest.raises(ValueError, match=message):
            kernel_eval(spec, (1.0,), (2.0,))
        with pytest.raises(ValueError, match=message):
            kernel_matrix(spec, np.ones((2, 1)), np.ones((3, 1)))
        model = replace(single_support_model(), kernel=spec)
        with pytest.raises(ValueError, match=message):
            decision_values(model, np.ones((2, 2)))
        assert train(TWO_CLASS_LINE, spec).kernel == replace(spec, gamma=1.0)

    @pytest.mark.parametrize("family, kwargs, message", [
        ("polynomial", {"degree": True, "gamma": 1.0}, "polynomial kernel needs a finite int degree"),
        ("polynomial", {"gamma": True}, "polynomial kernel needs a finite float gamma"),
        ("polynomial", {"gamma": 1.0, "coef0": False},
         "polynomial kernel needs a finite float coef0"),
        ("rbf", {"gamma": True}, "rbf kernel needs a finite float gamma"),
        ("sigmoid", {"gamma": 0.5, "coef0": True}, "sigmoid kernel needs a finite float coef0"),
        ("polynomial", {"degree": np.bool_(True), "gamma": 1.0},
         "polynomial kernel needs a finite int degree"),
        ("rbf", {"gamma": np.bool_(True)}, "rbf kernel needs a finite float gamma"),
    ])
    def test_bool_parameters_are_refused(self, family, kwargs, message):
        # A bool is an int to isinstance, but model_to_text would write it as
        # "True", which model_from_text cannot read back.
        with pytest.raises(ValueError, match=f"^{message} within float64 range$"):
            getattr(KernelSpec, family)(**kwargs)

    @pytest.mark.parametrize("a, b, expected", [
        ((1e200,), (1e200,), 1.0),
        ((-1e200,), (-1e200,), 1.0),
        ((1e200, 3.0), (1e200, 3.0), 1.0),
        ((1e200,), (-1e200,), 0.0),
        ((1e200,), (5e199,), 0.0),
        ((1e154,), (0.9e154,), 0.0),  # 2 a.b overflows, the norms do not
        ((1.7e308,), (-1.7e308,), 0.0),  # a - b itself overflows
    ])
    def test_rbf_is_defined_where_the_norms_overflow(self, a, b, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_eval(KernelSpec.rbf(gamma=1.0), a, b) == expected
            assert kernel_matrix(KernelSpec.rbf(gamma=1.0), [a, b], [b]).tolist() == [
                [expected], [1.0]]

    def test_rbf_where_the_norms_overflow_keeps_a_small_distance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = kernel_eval(KernelSpec.rbf(gamma=1.0), (1e200, 0.0), (1e200, 1e-3))
        assert value == pytest.approx(math.exp(-1e-6), rel=1e-15)

    def test_rbf_values_are_the_summed_squared_differences_bit_for_bit(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(scale=1e3, size=(40, 3)), rng.normal(scale=1e3, size=(30, 3))
        spec = KernelSpec.rbf(gamma=1e-6)
        squares = ((a[:, None, k] - b[None, :, k]) ** 2 for k in range(3))
        expected = np.exp(-1e-6 * sum(squares))  # ((0 + s_0) + s_1) + s_2, feature order
        assert kernel_matrix(spec, a, b).tobytes() == expected.tobytes()

    def test_rbf_builds_no_array_of_differences(self):
        # The (400, 400, 16) difference array alone would be 16 times the result.
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(400, 16)), rng.normal(size=(400, 16))
        tracemalloc.start()
        try:
            kernel_matrix(KernelSpec.rbf(gamma=0.5), a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 400 * 400 * 8

    def test_rbf_is_bitwise_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(scale=1e3, size=(40, 3)), rng.normal(scale=1e3, size=(30, 3))
        spec = KernelSpec.rbf(gamma=1e-6)
        assert kernel_matrix(spec, a, b).tobytes() == kernel_matrix(spec, b, a).T.tobytes()
        row, _ = svm._gram(spec, a)
        rows = np.array([row(i) for i in range(len(a))])
        assert rows.tobytes() == rows.T.tobytes()  # row i is column i

    def test_rbf_entries_that_are_finite_keep_their_value_when_their_sum_overflows(self):
        # Each |a - b|^2 is 1.69e308, finite; their sum over the row would overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = kernel_matrix(KernelSpec.rbf(gamma=1e-308), [[0.0]], [[1.3e154], [-1.3e154]])
        assert k.shape == (1, 2)
        assert k[0].tolist() == pytest.approx([math.exp(-1.69)] * 2, rel=1e-12)


class TestDecisionAndClassify:
    def test_empty_model_returns_bias(self):
        model = bias_only_model(0.0)
        for x in ((0, 0), (4, -7), (1e6, 1e6)):
            assert decision_values(model, x).tolist() == [0.0]

    def test_single_support_unit_dot(self):
        model = single_support_model()
        assert decision_values(model, (0.0, 1.0)).tolist() == [1.0]

    def test_classify_positive_negative_and_tie(self):
        assert classify(bias_only_model(2.3), (0, 0)) == 1
        assert classify(bias_only_model(-0.1), (0, 0)) == -1
        assert classify(bias_only_model(0.0), (0, 0)) == 1

    @pytest.mark.parametrize("model", [single_support_model(), bias_only_model(0.5)],
                             ids=["supports", "bias-only"])
    def test_only_a_vector_or_a_2d_stack_of_rows_is_taken(self, model):
        assert decision_values(model, [0.0, 1.0]).tolist() == decision_values(model, [[0.0, 1.0]]).tolist()
        with pytest.raises(ValueError) as exc_info:
            decision_values(model, np.zeros((2, 2, 2)))
        assert str(exc_info.value) == "expected a 2-D stack of rows, got shape (2, 2, 2)"
        for xs in ([], np.zeros((3, 0))):
            with pytest.raises(DimensionMismatchError, match="^vectors have no features$"):
                decision_values(model, xs)

    def test_width_mismatch_raises_before_the_scaler(self):
        model = replace(single_support_model(features=(0.0, 1.0, 2.0)),
                        scaler=Standardizer((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        with pytest.raises(DimensionMismatchError, match="^model has 3 features, data has 2$"):
            decision_values(model, np.zeros((10, 2)))

    def test_kernel_overflow_raises_data_error_without_a_warning(self):
        model = SvmModel(
            kernel=KernelSpec.polynomial(degree=10**20, gamma=1.0, coef0=1.0),
            support_examples=(LabeledExample((1.0, 1.0), 1),),
            alphas=(1.0,),
            bias=0.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="decision values are not finite"):
                decision_values(model, np.ones((3, 2)))

    def test_scoring_leaves_the_model_and_its_pickle_as_they_were(self):
        model = replace(train(random_overlapping_examples(random.Random(3), 40), KernelSpec.linear()),
                        scaler=Standardizer((0.5, -0.5), (2.0, 3.0)))
        before = pickle.dumps(model)
        decision_values(model, np.zeros((4, 2)))
        predict(model, np.ones((3, 2)))
        classify(model, (1.0, 2.0))
        weight_norm(model)
        extract_hyperplane(model)
        assert pickle.dumps(model) == before

    def test_classify_consistent_with_decision_on_grid(self):
        rng = random.Random(11)
        model = random_linear_model(rng)
        for gx in np.linspace(-4, 4, 21):
            for gy in np.linspace(-4, 4, 21):
                sign = 1 if decision_values(model, (gx, gy))[0] >= 0 else -1
                assert classify(model, (gx, gy)) == sign


class TestMargins:
    def test_functional_margin_single_support(self):
        model = single_support_model()
        assert functional_margin(model, LabeledExample((0.0, 1.0), 1)) == 1.0

    def test_functional_margin_sign(self):
        model = single_support_model()  # w = (0, 1), b = 0
        assert functional_margin(model, LabeledExample((2.0, 3.0), 1)) > 0
        assert functional_margin(model, LabeledExample((2.0, -3.0), -1)) > 0
        assert functional_margin(model, LabeledExample((2.0, 3.0), -1)) < 0

    def test_margin_zero_on_boundary(self):
        model = single_support_model()
        on_boundary = LabeledExample((5.0, 0.0), 1)
        assert functional_margin(model, on_boundary) == 0.0
        assert geometric_margin(model, on_boundary) == 0.0

    def test_geometric_margin_is_point_to_line_distance(self):
        model = single_support_model()  # w = (0, 1)
        assert geometric_margin(model, LabeledExample((0.0, 2.0), 1)) == pytest.approx(2.0)

    def test_scaling_leaves_geometric_margin(self):
        rng = random.Random(3)
        for _ in range(50):
            model = random_linear_model(rng)
            point = LabeledExample((rng.uniform(-3, 3), rng.uniform(-3, 3)), 1)
            scaled = model.scaled(3.0)
            assert geometric_margin(scaled, point) == pytest.approx(
                geometric_margin(model, point), abs=1e-9
            )
            assert functional_margin(scaled, point) == pytest.approx(
                3.0 * functional_margin(model, point), rel=1e-12
            )

    def test_zero_norm_error(self):
        with pytest.raises(ZeroNormError):
            geometric_margin(bias_only_model(1.0), LabeledExample((0.0, 0.0), 1))
        # two identical supports with opposite labels cancel w exactly
        cancelling = SvmModel(
            kernel=KernelSpec.linear(),
            support_examples=(
                LabeledExample((1.0, 1.0), 1),
                LabeledExample((1.0, 1.0), -1),
            ),
            alphas=(0.5, 0.5),
            bias=0.0,
        )
        with pytest.raises(ZeroNormError):
            geometric_margin(cancelling, LabeledExample((0.0, 0.0), 1))

    def test_weight_norm_matches_explicit_w_for_linear(self):
        rng = random.Random(17)
        for _ in range(50):
            model = random_linear_model(rng)
            w = np.zeros(2)
            for alpha, e in zip(model.alphas, model.support_examples):
                w += alpha * e.label * np.asarray(e.features)
            assert weight_norm(model) == pytest.approx(float(np.linalg.norm(w)), rel=1e-12)


def in_index_order(terms) -> float:
    """((t0 + t1) + t2) + ... in Python floats."""
    return reduce(operator.add, terms)


class TestSummationOrder:
    """Decision values, ||w|| and w add the supports' terms in index order,
    the rule kernel values follow, and not in an order a BLAS build picks."""

    @pytest.mark.parametrize("spec", [
        KernelSpec.linear(), KernelSpec.rbf(gamma=0.5),
        KernelSpec.polynomial(degree=3, gamma=0.5, coef0=1.0),
    ], ids=lambda spec: spec.family)
    def test_sums_run_over_the_supports_in_index_order(self, spec):
        examples = random_overlapping_examples(random.Random(5), 80)
        model = train(examples, spec)
        assert len(model.support_examples) > 8  # past a BLAS kernel's unrolled block
        xs = np.array([e.features for e in examples])
        supports = np.array([e.features for e in model.support_examples])
        coefs = [alpha * e.label for alpha, e in zip(model.alphas, model.support_examples)]

        def weighted_sums(columns):  # sum_i coefs[i] * column[i], per column
            return [in_index_order(map(operator.mul, coefs, column)) for column in columns]

        k = kernel_matrix(spec, supports, xs)
        assert decision_values(model, xs).tolist() == [
            value + model.bias for value in weighted_sums(k.T.tolist())]
        v = weighted_sums(kernel_matrix(spec, supports, supports).T.tolist())
        assert weight_norm(model) == math.sqrt(max(in_index_order(map(operator.mul, v, coefs)), 0))
        if spec.family == "linear":
            assert extract_hyperplane(model)[0].tolist() == weighted_sums(supports.T.tolist())

    def test_the_blas_kernel_does_not_move_the_numbers(self):
        """Linear and polynomial models trained and scored on the run-paper
        seed-7 draw under two OpenBLAS kernels, picked by OPENBLAS_CORETYPE,
        give the same decision values, ||w|| and w."""
        runs = [subprocess.run([sys.executable, "-c", NUMBERS_SCRIPT],
                               env=subprocess_env(OPENBLAS_VERBOSE="2", OPENBLAS_CORETYPE=core),
                               capture_output=True, text=True, check=True, timeout=300)
                for core in ("Nehalem", "Prescott")]
        if not all("Core:" in run.stdout + run.stderr for run in runs):
            pytest.skip("numpy's BLAS is not an OpenBLAS that takes OPENBLAS_CORETYPE")
        digests = [[line for line in run.stdout.splitlines() if not line.startswith("Core:")]
                   for run in runs]
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]


class TestStandardizer:
    def test_fit_transform(self):
        xs = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]])
        std = Standardizer().fit(xs)
        out = std.transform(xs)
        assert np.allclose(out.mean(axis=0), 0.0)
        assert np.allclose(out.std(axis=0), 1.0)

    def test_unfitted_raises(self):
        with pytest.raises(ValueError):
            Standardizer().transform(np.zeros((2, 2)))

    def test_fit_returns_new_hashable_instance(self):
        unfitted = Standardizer()
        fitted = unfitted.fit(np.array([[1.0, 5.0], [3.0, 5.0]]))
        assert unfitted.mean is None
        assert fitted == Standardizer(mean=(2.0, 5.0), scale=(1.0, 1.0))
        assert hash(fitted) == hash(Standardizer(mean=(2.0, 5.0), scale=(1.0, 1.0)))

    @pytest.mark.parametrize("xs", [
        [[-1e308, 0.0], [1e308, 1.0]],  # the spread overflows
        [[1e308], [1e308], [1e308]],  # the mean overflows
    ])
    def test_fit_on_overflowing_features_raises_data_error_without_a_warning(self, xs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="finite mean and positive scale"):
                Standardizer().fit(np.array(xs))

    @pytest.mark.parametrize("mean, scale", [
        ((0.0,), None),
        (None, (1.0,)),
        ((), ()),
        ((0.0, 0.0), (1.0,)),
        ([0.0], [1.0]),
        ((math.nan,), (1.0,)),
        ((0.0,), (math.inf,)),
        ((0.0,), (0.0,)),
        ((0.0, 1.0), (1.0, -2.0)),
    ])
    def test_only_finite_equal_length_tuples_with_positive_scales_are_taken(self, mean, scale):
        with pytest.raises(DataError):
            Standardizer(mean=mean, scale=scale)


class TestSerialization:
    def test_round_trip_structural_equality(self):
        rng = random.Random(23)
        for _ in range(50):
            model = random_linear_model(rng)
            text = model_to_text(model)
            assert model_from_text(text) == model
            assert model_to_text(model_from_text(text)) == text

    def test_round_trip_all_kernel_families(self):
        rng = random.Random(29)
        base = random_linear_model(rng)
        for spec in (
            KernelSpec.polynomial(degree=4, gamma=0.25, coef0=1.5),
            KernelSpec.rbf(gamma=1.0 / 3.0),
            KernelSpec.sigmoid(gamma=0.125, coef0=-0.75),
        ):
            model = SvmModel(
                kernel=spec,
                support_examples=base.support_examples,
                alphas=base.alphas,
                bias=base.bias,
            )
            assert model_from_text(model_to_text(model)) == model

    def test_seventeen_digit_floats_round_trip_exactly(self):
        model = single_support_model(features=(1 / 3, math.pi), alpha=math.e, bias=math.sqrt(2))
        restored = model_from_text(model_to_text(model))
        assert restored.bias == model.bias
        assert restored.alphas == model.alphas
        assert restored.support_examples == model.support_examples

    def test_scaler_round_trips_in_header(self):
        scaler = Standardizer(mean=(1 / 3, -math.pi), scale=(math.e, 0.5))
        model = SvmModel(
            kernel=KernelSpec.rbf(gamma=0.5),
            support_examples=(LabeledExample((0.25, -1.0), 1), LabeledExample((-0.5, 2.0), -1)),
            alphas=(0.75, 0.75),
            bias=0.125,
            scaler=scaler,
        )
        text = model_to_text(model)
        assert text.startswith("routesvm-model v2 family=rbf ")
        assert text.splitlines()[0].endswith(
            " mean=0.33333333333333331,-3.1415926535897931 scale=2.7182818284590451,0.5"
        )
        restored = model_from_text(text)
        assert restored == model
        assert model_to_text(restored) == text

    def test_model_without_scaler_has_no_scaler_tokens(self):
        text = model_to_text(single_support_model())
        assert text.startswith("routesvm-model v2 ")
        assert "mean=" not in text and "scale=" not in text

    def test_v1_text_still_loads_and_predicts(self):
        # A linear model as the v1 format wrote it: unit-basis supports that
        # spell out w = (4.3871317720793428e-4, 2.4235366289262417).
        text = (
            "routesvm-model v1 family=linear bias=3.1045942042217614 supports=3\n"
            "0.00043871317720793428 1 1 0\n"
            "2.4235366289262417 1 0 1\n"
            "2.4239753421034496 -1 0 0\n"
        )
        model = model_from_text(text)
        assert model.scaler is None
        w, b = extract_hyperplane(model)
        assert tuple(w) == (0.00043871317720793428, 2.4235366289262417)
        assert b == 3.1045942042217614
        points = np.array([(0.0, 0.0), (1500.0, -1.0), (300.0, -2.5), (2000.0, 1.5)])
        assert decision_values(model, points) == pytest.approx(points @ w + b, rel=1e-12)
        assert [classify(model, p) for p in points] == [1, 1, -1, 1]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "not-a-model v1 family=linear bias=0 supports=0\n",
            "routesvm-model v9 family=linear bias=0 supports=0\n",
            "routesvm-model v2 family=linear bias=0 supports=0 mean=1,2\n",
            "routesvm-model v2 family=linear bias=0 supports=1 mean=0,0 scale=1,0\n1.0 1 0 0\n",
            "routesvm-model v2 family=linear bias=0 supports=1 mean=0 scale=1\n1.0 1 0 0\n",
            "routesvm-model v2 family=linear bias=0 supports=0 mean=0,nan scale=1,1\n",
            "routesvm-model v2 family=linear bias=0 supports=0 mean=0,0 scale=1,inf\n",
            "routesvm-model v2 family=linear bias=0 supports=0 mean=0,0 scale=1\n",
            "routesvm-model v2 family=linear bias=0 supports=0 mean=0 scale=-1\n",
            "routesvm-model v1 family=linear bias=0 supports=0 mean=0,0 scale=1,1\n",
            "routesvm-model v1 family=linear bias=0 supports=1\n",
            "routesvm-model v1 family=linear bias=zz supports=0\n",
            "routesvm-model v1 family=linear bias=0 supports=1\n1.0 1\n",
            "routesvm-model v1 family=linear bias=0 supports=0 extra=1\n",
            "routesvm-model v2 family=linear bias=nan supports=0\n",
            "routesvm-model v2 family=linear bias=0 supports=1\nnan 1 0 0\n",
            "routesvm-model v2 family=linear bias=0 supports=1\n-5 1 0 0\n",
            f"routesvm-model v2 family=polynomial degree={'1' * 401} gamma=1 coef0=0"
            " bias=0 supports=0\n",
            "routesvm-model v2 family=rbf gamma=inf bias=0 supports=0\n",
            "routesvm-model v2 family=sigmoid gamma=1 coef0=nan bias=0 supports=0\n",
            BAD_LINE_AFTER_BLANK,
        ],
    )
    def test_malformed_model_text(self, text):
        with pytest.raises(ModelFormatError):
            model_from_text(text)

    @pytest.mark.parametrize("header, message", [
        ("family=rbf bias=0", "bad model header: 'gamma'"),
        ("family=rbf degree=2 gamma=1 bias=0", "unknown header fields ['degree']"),
        ("family=linear bias=0 bias=1", "repeated header field 'bias'"),
        ("family=rbf gamma bias=0", "malformed header token 'gamma'"),
    ])
    def test_bad_header_messages(self, header, message):
        with pytest.raises(ModelFormatError) as exc_info:
            model_from_text(f"routesvm-model v2 {header} supports=0\n")
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("degree, gamma, coef0", [
        (3, 0.5, 0.0), (np.int64(3), np.float32(0.5), np.float64(0.0)),
        (np.uint8(3), np.float16(0.5), np.int32(0)),
        (np.int64(3), np.longdouble(0.5), np.longdouble(0)),
    ], ids=["python", "numpy", "numpy-narrow", "numpy-wide"])
    def test_header_writes_the_family_parameters_in_table_order(self, degree, gamma, coef0):
        spec = KernelSpec.polynomial(degree=degree, gamma=gamma, coef0=coef0)
        assert {type(v) for v in (spec.degree, spec.gamma, spec.coef0)} <= {int, float}
        model = SvmModel(spec, (), (), 1.0)
        assert model_to_text(model) == (
            "routesvm-model v2 family=polynomial degree=3 gamma=0.5 coef0=0 bias=1 supports=0\n"
        )

    def test_large_degree_round_trips(self):
        model = SvmModel(KernelSpec.polynomial(degree=10**20, gamma=0.5), (), (), 1.0)
        assert model_from_text(model_to_text(model)) == model

    @pytest.mark.parametrize("version, scaler", [("v1", ""), ("v2", " mean=0,0 scale=1,1")])
    def test_ragged_support_lines_name_the_first_odd_line(self, version, scaler):
        text = (f"routesvm-model {version} family=linear bias=0.5 supports=3{scaler}\n"
                "1 1 0 1\n\n1 -1 0 1 2\n1 1 0\n")
        with pytest.raises(ModelFormatError) as exc_info:
            model_from_text(text)
        assert str(exc_info.value) == "line 4: 3 features, line 2 has 2"

    def test_bad_support_line_is_named_by_its_file_line(self):
        with pytest.raises(ModelFormatError, match="^line 4: "):
            model_from_text(BAD_LINE_AFTER_BLANK)
