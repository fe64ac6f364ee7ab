import gc
import random
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from routesvm import svm
from routesvm.dataset_io import sample_examples
from routesvm.svm import (
    NORM_FLOOR,
    DataError,
    DimensionMismatchError,
    KernelSpec,
    LabeledExample,
    SingleClassError,
    Standardizer,
    TrainConfig,
    classify,
    decision_values,
    extract_hyperplane,
    geometric_margin,
    kernel_matrix,
    load_model,
    model_to_text,
    save_model,
    train,
    weight_norm,
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
        assert decision_values(model, (0.0, 0.0))[0] == pytest.approx(0.0, abs=1e-6)

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
        for label in (1, -1):  # reported before ragged features
            with pytest.raises(SingleClassError) as exc_info:
                train([LabeledExample((0.0,), label), LabeledExample((1.0, 1.0), label)],
                      KernelSpec.linear())
            assert str(exc_info.value) == f"training data needs both classes, got labels [{label}]"

    def test_empty_data_error(self):
        with pytest.raises(ValueError):
            train([], KernelSpec.linear())

    def test_inconsistent_dimensions_error(self):
        for features in (
            [(0.0,), (1.0, 1.0)],
            [(1.0, 1.0), (0.0,)],  # the longer example first
            [(0.0, 1.0), (2.0,), (3.0, 4.0, 5.0)],  # 6 features in all, as 3 examples of 2 have
        ):
            data = [LabeledExample(x, 1 if k % 2 else -1) for k, x in enumerate(features)]
            with pytest.raises(DimensionMismatchError) as exc_info:
                train(data, KernelSpec.linear())
            assert str(exc_info.value) == "training examples have inconsistent dimensions"

    @pytest.mark.parametrize("kernel", [KernelSpec.linear(), KernelSpec.rbf(),
                                        KernelSpec.polynomial(), KernelSpec.sigmoid()],
                             ids=lambda k: k.family)
    def test_zero_feature_examples_are_a_data_error(self, kernel):
        # Refused before a missing gamma is resolved to 1/d.
        with pytest.raises(DataError) as exc_info:
            train([LabeledExample((), 1), LabeledExample((), -1)], kernel)
        assert exc_info.type is DimensionMismatchError
        assert str(exc_info.value) == "training examples have no features"

    @pytest.mark.parametrize("c_value", [1e-12, 1e-13])
    def test_a_box_inside_the_floor_keeps_no_support_and_the_initial_bias(self, c_value):
        # The bound floor NORM_FLOOR * max(1, C) is 1e-12 >= C, so every alpha
        # is within it of both 0 and C: none is interior, I_up and I_low are
        # empty at the floor, and b keeps its start value.
        model = train(XOR, KernelSpec.linear(), TrainConfig(C=c_value))
        assert model_to_text(model) == "routesvm-model v2 family=linear bias=0 supports=0\n"
        assert (model.summary.n_support, model.summary.converged) == (0, False)

    def test_kernel_overflow_raises_instead_of_a_nan_model(self):
        data = random_overlapping_examples(random.Random(0), 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and numpy warns of no overflow on the way
            with pytest.raises(ValueError, match="non-finite bias or alpha"):
                train(data, KernelSpec.polynomial(degree=10**20, gamma=0.5))

    @pytest.mark.parametrize("kwargs, message", [
        ({"C": 10**400}, "C must be finite and > 0"),
        ({"tol": 10**400}, "tol must be finite and > 0"),
        ({"max_passes": float("nan")}, "max_passes must be finite and >= 1"),
        ({"max_passes": float("inf")}, "max_passes must be finite and >= 1"),
        ({"C": "1"}, "C must be finite and > 0"),
        ({"C": None}, "C must be finite and > 0"),
        ({"tol": "1e-3"}, "tol must be finite and > 0"),
        ({"max_passes": "3"}, "max_passes must be finite and >= 1"),
        ({"C": np.float32("inf")}, "C must be finite and > 0"),
        ({"tol": np.float16("inf")}, "tol must be finite and > 0"),
        ({"C": np.longdouble("1e4000")}, "C must be finite and > 0"),
        ({"tol": np.longdouble("nan")}, "tol must be finite and > 0"),
        ({"C": True}, "C must be finite and > 0"),
        ({"C": np.True_}, "C must be finite and > 0"),
        ({"tol": True}, "tol must be finite and > 0"),
        ({"max_passes": True}, "max_passes must be finite and >= 1"),
        ({"max_passes": np.True_}, "max_passes must be finite and >= 1"),
    ])
    def test_out_of_range_config_raises(self, kwargs, message):
        with pytest.raises(ValueError) as exc_info:
            train(TWO_POINTS, KernelSpec.linear(), TrainConfig(**kwargs))
        assert type(exc_info.value) is ValueError
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("value", [np.float32(2), np.float64(2), np.longdouble(2), np.int64(2)],
                             ids=lambda value: type(value).__name__)
    def test_numpy_parameters_become_python_numbers(self, value):
        config = TrainConfig(C=value, tol=value, max_passes=value)
        kind = int if isinstance(value, np.integer) else float
        assert {type(v) for v in (config.C, config.tol, config.max_passes)} == {kind}
        assert config == TrainConfig(C=2, tol=2, max_passes=2)

    @pytest.mark.parametrize("kwargs, message", [
        ({"C": 0}, "C must be finite and > 0"),
        ({"tol": -1e-3}, "tol must be finite and > 0"),
        ({"max_passes": 0}, "max_passes must be finite and >= 1"),
    ])
    def test_replace_checks_the_new_config(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(TrainConfig(), **kwargs)

    def test_rbf_trains_where_the_feature_norms_overflow(self):
        # Every rbf value lies in [0, 1]; here the Gram matrix is the identity.
        data = [LabeledExample((1e200,), 1), LabeledExample((-1e200,), -1),
                LabeledExample((5e199,), 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(data, KernelSpec.rbf())
        assert model.summary.converged
        assert np.isfinite([model.bias, *model.alphas]).all()
        assert [classify(model, e.features) for e in data] == [1, -1, 1]

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


def standardized_examples(trace, n, seed=7):
    examples = sample_examples(trace, n, seed=seed).examples
    raw = np.array([e.features for e in examples])
    xs = Standardizer().fit(raw).transform(raw)
    return [LabeledExample(tuple(row), e.label) for row, e in zip(xs, examples)]


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
                margin = e.label * decision_values(model, e.features)[0]
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
        data = standardized_examples(large_trace, n)
        xs = np.array([e.features for e in data])
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


ALL_KERNELS = [KernelSpec.linear(), KernelSpec.rbf(), KernelSpec.polynomial(),
               KernelSpec.sigmoid()]


def gram_solve(data, kernel, cfg=TrainConfig()):
    """What train returns, computed by _Smo over the full Gram matrix."""
    xs = np.array([e.features for e in data], dtype=float)
    ys = np.array([e.label for e in data], dtype=float)
    full = kernel_matrix(kernel.resolved(xs), xs, xs)
    smo = svm._Smo(full.__getitem__, np.diag(full).copy(), ys, cfg)
    summary = smo.run(cfg.max_passes)
    keep = np.flatnonzero(smo.alpha > NORM_FLOOR * max(1.0, cfg.C))
    return ([id(data[i]) for i in keep], tuple(float(smo.alpha[i]) for i in keep), float(smo.b),
            replace(summary, n_support=len(keep)))


class TestKernelRows:
    """train reads kernel rows on demand; the full Gram matrix is the reference."""

    @pytest.mark.parametrize("cache", [svm._ROW_CACHE, 1], ids=["cache64", "cache1"])
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.family)
    def test_train_matches_the_full_gram_solve(self, large_trace, monkeypatch, kernel, cache):
        monkeypatch.setattr(svm, "_ROW_CACHE", cache)
        data = standardized_examples(large_trace, 400)
        model = train(data, kernel)
        got = ([id(e) for e in model.support_examples], model.alphas, model.bias, model.summary)
        assert got == gram_solve(data, kernel)
        assert model.summary.converged

    @settings(max_examples=200, deadline=None, database=None,
              phases=[p for p in Phase if p is not Phase.explain])
    @given(
        xs=st.integers(1, 4).flatmap(lambda d: hnp.arrays(
            float, st.tuples(st.integers(1, 12), st.just(d)),
            elements=st.floats(-1e3, 1e3, allow_subnormal=False))),
        kernel=st.one_of(
            st.just(KernelSpec.linear()),
            st.builds(KernelSpec.rbf, st.floats(1e-3, 10.0)),
            st.builds(KernelSpec.polynomial, st.integers(1, 4), st.floats(1e-3, 1.0),
                      st.floats(-2.0, 2.0)),
            st.builds(KernelSpec.sigmoid, st.floats(1e-3, 1.0), st.floats(-2.0, 2.0)),
        ),
    )
    def test_rows_and_diagonal_are_the_gram_matrix_bitwise(self, xs, kernel):
        full = kernel_matrix(kernel, xs, xs)
        row, diag = svm._gram(kernel, xs)
        assert diag.tobytes() == np.diag(full).tobytes()
        for i in [*range(len(xs)), 0]:  # a second call gives the same bits
            assert row(i).tobytes() == full[i].tobytes()

    def test_rbf_n3000_computes_one_row_at_a_time(self, monkeypatch):
        trace = generate_trace(ScenarioConfig(num_vehicles=3000, num_steps=20, rng_seed=7))
        data = standardized_examples(trace, 3000)
        lefts = []

        def recording_kernel_matrix(spec, a, b):
            lefts.append(len(a))
            return kernel_matrix(spec, a, b)

        monkeypatch.setattr(svm, "kernel_matrix", recording_kernel_matrix)
        tracemalloc.start()
        try:
            model = train(data, KernelSpec.rbf())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.summary.converged
        assert lefts and set(lefts) == {1}
        assert peak < 16 * 2**20  # the 3000 x 3000 Gram matrix alone is 72 MB

    def test_curvature_is_computed_only_for_rows_taken_as_i(self, large_trace):
        data = standardized_examples(large_trace, 2000)
        xs = np.array([e.features for e in data])
        ys = np.array([e.label for e in data], dtype=float)
        kernel = KernelSpec.rbf().resolved(xs)
        smo = svm._Smo(*svm._gram(kernel, xs), ys, TrainConfig())
        curvature, taken = smo.curvature, []
        smo.curvature = lambda i: taken.append(i) or curvature(i)
        assert smo.run(TrainConfig().max_passes).converged
        computed = curvature.cache_info().misses
        assert computed == len(set(taken)) < svm._ROW_CACHE  # no curvature entry was evicted
        assert computed < smo.rows.cache_info().misses

    def test_a_finished_run_is_freed_without_the_cyclic_collector(self, large_trace):
        data = standardized_examples(large_trace, 400)
        xs = np.array([e.features for e in data])
        kernel = KernelSpec.rbf().resolved(xs)
        gc.disable()
        try:
            smo = svm._Smo(*svm._gram(kernel, xs), np.array([e.label for e in data], dtype=float),
                           TrainConfig())
            smo.run(TrainConfig().max_passes)
            freed = weakref.ref(smo)
            del smo
            assert freed() is None
        finally:
            gc.enable()


class ReferenceSmo:
    """The pair-step loop with no incremental bookkeeping: it keeps only alpha
    and G, and derives F, the I_up/I_low masks and the curvature vector from
    them afresh at every step.  ``svm._Smo`` keeps those current instead and
    must take the same steps bit for bit."""

    def __init__(self, row, diag, y, cfg):
        self.row, self.diag, self.y = row, diag, y
        self.c, self.tol, self.n = cfg.C, cfg.tol, len(y)
        self.alpha = np.zeros(self.n)
        self.grad = -np.ones(self.n)
        self.b = 0.0

    def movable(self, floor=0.0):
        above, below = self.alpha > floor, self.alpha < self.c - floor
        pos = self.y > 0
        return np.where(pos, below, above), np.where(pos, above, below)

    def objective(self):
        return float(0.5 * np.sum(self.alpha * (1.0 - self.grad)))

    def run(self, max_passes):
        objectives, steps = [], 0
        while True:
            f = -self.y * self.grad
            up, low = self.movable()
            f_up = np.where(up, f, -np.inf)
            i = int(np.argmax(f_up))
            gap = float(f_up[i] - np.min(np.where(low, f, np.inf)))
            if not gap > self.tol or steps >= max_passes * self.n:
                break
            b = f[i] - f
            a = self.diag[i] + self.diag - 2.0 * self.row(i)
            a = np.where(a > 0.0, a, svm.TAU)
            j = int(np.argmin(np.where(low & (b > 0.0), -(b * b) / a, np.inf)))
            self.step(i, j, b[j] / a[j])
            steps += 1
            if steps % self.n == 0:
                objectives.append(self.objective())
        if steps % self.n:
            objectives.append(self.objective())
        self.finalize_bias()
        return svm.TrainSummary(
            passes=-(-steps // self.n),
            converged=gap <= self.tol and self.final_violations() == 0,
            dual_objectives=tuple(objectives),
        )

    def step(self, i, j, lam):
        y_i, y_j = self.y[i], self.y[j]
        old_i, old_j = self.alpha[i], self.alpha[j]
        room_i = self.c - old_i if y_i > 0 else old_i
        room_j = old_j if y_j > 0 else self.c - old_j
        lam = min(lam, room_i, room_j)
        self.alpha[i] = min(self.c, max(0.0, old_i + y_i * lam))
        self.alpha[j] = min(self.c, max(0.0, old_j - y_j * lam))
        d_i, d_j = self.alpha[i] - old_i, self.alpha[j] - old_j
        self.grad += self.y * (y_i * d_i * self.row(i) + y_j * d_j * self.row(j))

    def finalize_bias(self):
        f = -self.y * self.grad
        up, low = self.movable(NORM_FLOOR * max(1.0, self.c))
        unbound = up & low
        if unbound.any():
            self.b = float(np.mean(f[unbound]))
        elif up.any() and low.any():
            self.b = 0.5 * float(f[up].max() + f[low].min())

    def final_violations(self):
        floor = NORM_FLOOR * max(1.0, self.c)
        margin = self.grad + 1.0 + self.y * self.b
        at_zero, at_c = self.alpha <= floor, self.alpha >= self.c - floor
        bad = (
            (at_zero & (margin < 1.0 - self.tol))
            | (~at_zero & ~at_c & (np.abs(margin - 1.0) > self.tol))
            | (at_c & (margin > 1.0 + self.tol))
        )
        return int(bad.sum())


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


small_sets = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(
        st.tuples(*[st.one_of(st.integers(-2, 2).map(float), st.floats(-3.0, 3.0))] * d),
        st.sampled_from([1, -1]),
    ),
    min_size=2, max_size=12,
).filter(lambda rows: {label for _, label in rows} == {1, -1}))


class TestReferenceLoop:
    """train against ReferenceSmo on the full Gram matrix, bit for bit."""

    # No explain phase: on a failure it re-runs the test many times over.
    @settings(max_examples=200, deadline=None, database=None,
              phases=[p for p in Phase if p is not Phase.explain])
    @given(
        rows=small_sets,
        c_value=st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 100.0)),
        kernel=st.one_of(
            st.just(KernelSpec.linear()),
            st.builds(KernelSpec.rbf, st.floats(1e-2, 10.0)),
            st.builds(KernelSpec.polynomial, st.integers(1, 3), st.floats(1e-2, 1.0),
                      st.floats(-2.0, 2.0)),
            st.builds(KernelSpec.sigmoid, st.floats(1e-2, 1.0), st.floats(-2.0, 2.0)),
        ),
    )
    # Its bias is an average of exact zeros, which the reference makes -0.0.
    @example(rows=[((-2.0,), 1), ((-2.0,), 1), ((-1.0,), -1)], c_value=0.5,
             kernel=KernelSpec.linear())
    # Its first update is [2, inf, 0]: the views' sentinels must not become inf - inf.
    @example(rows=[((1e10, 1e10), 1), ((1e300, 1e300), 1), ((0.0, 0.0), -1)], c_value=1.0,
             kernel=KernelSpec.linear())
    def test_train_matches_the_reference_loop_bitwise(self, rows, c_value, kernel):
        assert_matches_reference([LabeledExample(x, label) for x, label in rows], kernel,
                                 TrainConfig(C=c_value))

    def test_linear_c100_at_n400_matches_the_reference_loop_bitwise(self, default_trace):
        """Thousands of steps that move alpha off and back onto the box."""
        summary = assert_matches_reference(standardized_examples(default_trace, 400),
                                           KernelSpec.linear(), TrainConfig(C=100.0))
        assert (summary.passes, summary.converged) == (29, True)

    def test_a_scan_where_every_candidate_score_underflows_matches_the_reference(self):
        """F within 1e-169 of 0, so every b_t^2 underflows to 0 and each candidate
        scores -0.0, as the other t do: j must still be the first candidate (t = 2),
        not t = 0, which is outside I_low."""
        xs = np.array([[0.0], [1.0], [2.0], [3.0]])
        ys = np.array([1.0, 1.0, -1.0, -1.0])  # at alpha = 0: I_up = {0, 1}, I_low = {2, 3}
        f = np.array([0.0, 3e-170, 1e-170, 2e-170])
        cfg = TrainConfig(tol=1e-200, max_passes=5)
        full = kernel_matrix(KernelSpec.rbf(gamma=1.0), xs, xs)
        ref = ReferenceSmo(full.__getitem__, np.diag(full).copy(), ys, cfg)
        ref.grad = -ys * f
        smo = svm._Smo(full.__getitem__, np.diag(full).copy(), ys, cfg)
        smo.f_up, smo.f_low = np.where(smo.up, f, -np.inf), np.where(smo.low, f, np.inf)
        ref.run(cfg.max_passes)
        smo.run(cfg.max_passes)
        assert ref.alpha[0] == 0.0 and ref.alpha[2] > 0.0
        assert _bits(smo.alpha) == _bits(ref.alpha)
        assert _bits(smo.b) == _bits(ref.b)
        f_smo = np.where(smo.up, smo.f_up, smo.f_low)
        assert (f_smo + 0.0).tobytes() == (-ys * ref.grad + 0.0).tobytes()


def assert_matches_reference(data, kernel, cfg):
    """train, and _Smo's state after its run, equal ReferenceSmo's bit for bit;
    returns the reference's summary."""
    xs = np.array([e.features for e in data])
    ys = np.array([e.label for e in data], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # as train, which refuses an overflow
        full = kernel_matrix(kernel.resolved(xs), xs, xs)
        ref = ReferenceSmo(full.__getitem__, np.diag(full).copy(), ys, cfg)
        summary = ref.run(cfg.max_passes)
    keep = np.flatnonzero(ref.alpha > NORM_FLOOR * max(1.0, cfg.C))

    model = train(data, kernel, cfg)
    assert [id(e) for e in model.support_examples] == [id(data[i]) for i in keep]
    assert _bits(model.alphas) == _bits(ref.alpha[keep])
    assert _bits(model.bias) == _bits(ref.b)
    got = model.summary
    assert (got.passes, got.converged, got.n_support) == (
        summary.passes, summary.converged, len(keep))
    assert _bits(got.dual_objectives) == _bits(summary.dual_objectives)

    with np.errstate(over="ignore", invalid="ignore"):
        smo = svm._Smo(*svm._gram(model.kernel, xs), ys, cfg)
        up, low = ReferenceSmo.movable(smo)  # at alpha = 0, by the reference's rule
        assert np.array_equal(smo.up, up) and np.array_equal(smo.low, low)
        smo.run(cfg.max_passes)
    up, low = ReferenceSmo.movable(smo)
    assert np.array_equal(smo.up, up) and np.array_equal(smo.low, low)
    assert smo.grad.tobytes() == ref.grad.tobytes()
    # F is kept by subtraction, so an exact zero may carry either sign.
    f = np.where(smo.up, smo.f_up, smo.f_low)
    assert (f + 0.0).tobytes() == (-ys * ref.grad + 0.0).tobytes()
    return summary


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


# One kernel of each positive semidefinite family, for the weak-duality and QP checks.
PSD_KERNELS = [KernelSpec.linear(), KernelSpec.rbf(0.5), KernelSpec.polynomial(3, 0.5, 1.0)]


def dual_objective(data, kernel, alpha):
    """sum(alpha) - 1/2 alpha'Q alpha with Q_ij = y_i y_j K(x_i, x_j)."""
    xs = np.array([e.features for e in data])
    ys = np.array([e.label for e in data], dtype=float)
    q = ys[:, None] * ys[None] * kernel_matrix(kernel, xs, xs)
    return float(np.sum(alpha) - 0.5 * alpha @ q @ alpha)


@pytest.fixture(scope="module")
def trace_4600():
    return generate_trace(ScenarioConfig(num_vehicles=4600, rng_seed=7))


class TestOptimality:
    """The solver's certificate checked against quantities it does not compute."""

    @pytest.mark.parametrize("kernel", PSD_KERNELS, ids=lambda k: k.family)
    def test_saved_model_primal_bounds_the_dual(self, trace_4600, tmp_path, kernel):
        """P = 1/2 |w|^2 + C sum(hinge), from a reloaded model alone, is at
        least the solver's last dual objective D (weak duality) and within a
        relative 1e-3 of it for every certified solve."""
        data = standardized_examples(trace_4600, 400)
        xs = np.array([e.features for e in data])
        ys = np.array([e.label for e in data], dtype=float)
        certified = []
        for c_value in (1.0, 100.0, 1000.0):
            cfg = TrainConfig(C=c_value)
            model = train(data, kernel, cfg)
            if not model.summary.converged:  # linear at C = 1000 stops on the pass cap
                assert model.summary.passes == cfg.max_passes
                continue
            save_model(model, tmp_path / "model.txt")
            saved = load_model(tmp_path / "model.txt")
            hinge = np.maximum(0.0, 1.0 - ys * decision_values(saved, xs))
            primal = 0.5 * weight_norm(saved) ** 2 + c_value * float(np.sum(hinge))
            dual = model.summary.dual_objectives[-1]
            assert primal >= dual - 1e-9 * abs(dual)
            assert primal - dual <= 1e-3 * primal
            certified.append(c_value)
        assert {1.0, 100.0} <= set(certified)

    @pytest.mark.parametrize("c_value", [1.0, 100.0])
    @pytest.mark.parametrize("kernel", PSD_KERNELS, ids=lambda k: k.family)
    def test_slsqp_reaches_the_same_dual_objective(self, default_trace, kernel, c_value):
        """scipy's SLSQP on the dual QP, an independent solver, agrees with
        train.  Its ``success`` flag is not read: it can be False at an
        optimum that matches."""
        pytest.importorskip("scipy")
        from scipy.optimize import minimize

        data = standardized_examples(default_trace, 30)
        xs = np.array([e.features for e in data])
        ys = np.array([e.label for e in data], dtype=float)
        q = ys[:, None] * ys[None] * kernel_matrix(kernel, xs, xs)
        result = minimize(
            lambda a: 0.5 * a @ q @ a - np.sum(a), np.zeros(len(ys)), jac=lambda a: q @ a - 1.0,
            method="SLSQP", bounds=[(0.0, c_value)] * len(ys),
            constraints=[{"type": "eq", "fun": lambda a: ys @ a, "jac": lambda a: ys}],
            options={"ftol": 1e-12, "maxiter": 1000},
        )
        alpha = result.x
        assert 0.0 <= alpha.min() and alpha.max() <= c_value
        assert abs(ys @ alpha) <= 1e-9
        model = train(data, kernel, TrainConfig(C=c_value))
        assert model.summary.converged
        assert dual_objective(data, kernel, alpha) == pytest.approx(
            model.summary.dual_objectives[-1], rel=1e-6)

    def test_certified_sigmoid_model_is_a_kkt_point_below_the_optimum(self, default_trace):
        """The sigmoid Gram matrix is indefinite, so the dual need not be
        concave: train certifies a KKT point, and a feasible alpha at a vertex
        of the box, found by SLSQP, has the higher dual objective."""
        data = standardized_examples(default_trace, 80)
        kernel, cfg = KernelSpec.sigmoid(0.5, 0.0), TrainConfig(C=1.0)
        alpha = np.zeros(len(data))
        alpha[[1, 5, 6, 8, 9, 10, 17, 20, 21, 22, 33, 42, 44, 49, 50, 55, 57, 62, 67, 71, 74,
               78]] = cfg.C
        assert sum(e.label * a for e, a in zip(data, alpha)) == 0.0
        model = train(data, kernel, cfg)
        assert model.summary.converged
        assert model.summary.dual_objectives[-1] < dual_objective(data, kernel, alpha)
