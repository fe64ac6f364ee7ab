"""From-scratch kernel support vector machine.

Binary soft-margin SVM trained by pairwise coordinate ascent on the dual
(SMO-style): each step picks the maximal-violating pair by second-order
working-set selection (WSS2, as in LIBSVM), solves the two-variable
subproblem in closed form and clips it to the box.  Training stops when the
violation gap m(alpha) - M(alpha) is at most the tolerance, a certificate
that the multipliers are optimal to within it.  The decision function is

    f(x) = sum_i alpha_i * y_i * K(s_i, x) + b

over the retained support examples.  Four kernel families are supported:
linear, polynomial, rbf, sigmoid.  Each value type checks itself once, when
it is built; a ``KernelSpec`` gamma of None is the one unresolved state.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from numbers import Real
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "DimensionMismatchError",
    "SingleClassError",
    "UnsupportedKernelError",
    "ZeroNormError",
    "ModelFormatError",
    "LabeledExample",
    "KernelSpec",
    "TrainConfig",
    "TrainSummary",
    "SvmModel",
    "Standardizer",
    "kernel_eval",
    "kernel_matrix",
    "decision_values",
    "predict",
    "classify",
    "functional_margin",
    "geometric_margin",
    "weight_norm",
    "train",
    "extract_hyperplane",
    "model_to_text",
    "model_from_text",
    "save_model",
    "load_model",
]

# Each kernel family's parameters and their types, in model-header order.
KERNEL_PARAMS: dict[str, dict[str, type]] = {
    "linear": {},
    "polynomial": {"degree": int, "gamma": float, "coef0": float},
    "rbf": {"gamma": float},
    "sigmoid": {"gamma": float, "coef0": float},
}
KERNEL_FAMILIES = tuple(KERNEL_PARAMS)

NORM_FLOOR = 1e-12

# Curvature used in place of a non-positive a_ij (indefinite kernels).
TAU = 1e-12

# Kernel rows the solver keeps: the most recently used, as in LIBSVM.
_ROW_CACHE = 64


class DataError(ValueError):
    """Input data is unusable: the CLI's exit code 3.  The package's
    data-error classes subclass it."""


class DimensionMismatchError(DataError):
    pass


class SingleClassError(DataError):
    pass


class UnsupportedKernelError(ValueError):
    pass


class ZeroNormError(ValueError):
    pass


class ModelFormatError(DataError):
    pass


def _f17(v: float) -> str:
    """Decimal text with 17 significant digits (exact float round-trip); an int exactly."""
    return str(v) if isinstance(v, int) else format(float(v), ".17g")


@dataclass(frozen=True, slots=True)
class LabeledExample:
    """A feature vector with class label +1 or -1.

    Features are stored as a tuple of Python floats and the label as an int,
    whatever real numbers they were given as (numpy scalars, bools, a list):
    an example is a slotted, immutable, hashable and picklable value.  A str
    or bytes feature raises TypeError; a non-finite one ValueError."""

    features: tuple[float, ...]
    label: int

    def __post_init__(self):
        if isinstance(self.features, (bytes, bytearray, memoryview)):  # they iterate as ints
            raise TypeError("features must be real numbers, not bytes")
        label, features = self.label, tuple(self.features)  # an iterator is read once
        if label not in (1, -1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        if type(label) is not int:
            object.__setattr__(self, "label", int(label))  # 1.0 or True is saved as 1
        try:  # isfinite takes each feature as the float it converts to; text is a TypeError
            finite = all(map(math.isfinite, features))
        except OverflowError:  # an int past float range
            finite = False
        if not finite:
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", tuple(map(float, features)))


def _python_number(value: np.generic):
    """The Python int or float a numpy scalar equals, a longdouble rounded."""
    return float(value) if isinstance(value, np.floating) else value.item()


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus the hyperparameters that family uses.

    linear:      K(a,b) = a.b                      (no parameters)
    polynomial:  K(a,b) = (gamma*(a.b) + coef0)^degree
    rbf:         K(a,b) = exp(-gamma*||a-b||^2)
    sigmoid:     K(a,b) = tanh(gamma*(a.b) + coef0)

    ``KERNEL_PARAMS`` lists the parameters each family takes; the others
    stay ``None``.  A spec is checked when built, ``replace`` included; a
    numpy integer or float parameter is kept as the Python number it equals.
    ``gamma=None``, the default, is the one unresolved state: ``train`` fills
    in 1 / n_features, and ``kernel_matrix`` refuses it.
    """

    family: str
    degree: int | None = None
    gamma: float | None = None
    coef0: float | None = None

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    @classmethod
    def polynomial(cls, degree: int = 3, gamma: float | None = None, coef0: float = 0.0) -> "KernelSpec":
        return cls("polynomial", degree=degree, gamma=gamma, coef0=coef0)

    @classmethod
    def rbf(cls, gamma: float | None = None) -> "KernelSpec":
        return cls("rbf", gamma=gamma)

    @classmethod
    def sigmoid(cls, gamma: float | None = None, coef0: float = 0.0) -> "KernelSpec":
        return cls("sigmoid", gamma=gamma, coef0=coef0)

    def __post_init__(self):
        if self.family not in KERNEL_PARAMS:
            raise UnsupportedKernelError(f"unknown kernel family {self.family!r}")
        params = KERNEL_PARAMS[self.family]
        for name in ("degree", "gamma", "coef0"):
            value, kind = getattr(self, name), params.get(name)
            if value is None and (kind is None or name == "gamma"):
                continue  # a parameter the family does not take, or a gamma train fills in
            if kind is None:
                raise ValueError(f"{self.family} kernel takes no {name}")
            if isinstance(value, np.generic):  # the Python number model_to_text writes
                object.__setattr__(self, name, value := _python_number(value))
            if isinstance(value, bool) or not (isinstance(value, (kind, int))
                                               and abs(value) <= sys.float_info.max):
                raise ValueError(f"{self.family} kernel needs a finite {kind.__name__} {name}"
                                 " within float64 range")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"{self.family} kernel needs gamma > 0")
        if self.degree is not None and self.degree < 1:
            raise ValueError("polynomial kernel needs degree >= 1")

    def resolved(self, features: np.ndarray) -> "KernelSpec":
        """Fill a missing gamma with 1/d for d features."""
        if self.gamma is None and "gamma" in KERNEL_PARAMS[self.family]:
            return replace(self, gamma=1.0 / features.shape[1])
        return self


def _pairwise_dots(a: np.ndarray, b: np.ndarray, term=np.multiply) -> np.ndarray:
    """Sums of ``term(a, b)`` over the last axis of ``a`` and ``b``, broadcast
    against each other, accumulated one index at a time in index order: the
    package's one summation rule.  ``a[:, None]`` and ``b[None]`` give all
    pairs' dot products, as ``a @ b.T``; ``m.T`` and a vector ``c`` give
    ``c @ m``.  Built from elementwise terms, the floating-point result does
    not depend on the BLAS build or the CPU.  Linear and polynomial models
    train bit for bit alike on every CPU; rbf and sigmoid ones follow numpy's
    SIMD ``exp`` and ``tanh``, which numpy picks by the CPU at import.
    """
    dots = term(a[..., 0], b[..., 0])
    for k in range(1, a.shape[-1]):
        dots += term(a[..., k], b[..., k])
    return dots


def _kernel(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The family's formula on rows ``a`` and ``b``, broadcast against each
    other as ``_pairwise_dots`` takes them, in ``KernelSpec``'s operation
    order.  rbf sums (a_k - b_k)^2 there, squared in place, and never builds
    the (..., d) difference array.  Each term is finite or +inf, so the value
    is never nan, K(x, x) is 1 and K(a, b) is K(b, a) bit for bit.  polynomial
    raises to ``degree`` by squarings and multiplications, high bit first:
    exact IEEE products, not numpy's SIMD ``power``, and a power past float64
    is inf as with ``pow``.  Call it under ``np.errstate(over="ignore", invalid="ignore")``."""
    if spec.family == "rbf":  # exp(-gamma * |a - b|^2)
        dots = _pairwise_dots(a, b, lambda u, v: np.square(diff := u - v, out=diff))
        return np.exp(np.multiply(dots, -spec.gamma, out=dots), out=dots)
    dots = _pairwise_dots(a, b)
    if spec.family == "linear":
        return dots
    np.add(np.multiply(dots, spec.gamma, out=dots), spec.coef0, out=dots)
    if spec.family == "sigmoid":
        return np.tanh(dots, out=dots)
    base = dots.copy()
    for bit in bin(spec.degree)[3:]:  # the bits after the leading 1, high to low
        np.multiply(dots, dots, out=dots)
        if bit == "1":
            np.multiply(dots, base, out=dots)
    return dots


def _rows(xs) -> np.ndarray:
    """``xs`` as float rows (n, d); another ndim raises ValueError, d = 0 DimensionMismatchError."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"expected a 2-D stack of rows, got shape {xs.shape}")
    if not xs.shape[1]:
        raise DimensionMismatchError("vectors have no features")
    return xs


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = K(a[i], b[j]) for row-vector stacks a, b of
    shapes (n, d) and (m, d), d >= 1; any other shape, or a gamma of None,
    raises a ValueError.  numpy warns of no overflow: an rbf entry is never
    nan and the rbf matrix of a against b is that of b against a transposed,
    bit for bit; another family's overflow shows as inf or nan in the matrix."""
    if spec.gamma is None and "gamma" in KERNEL_PARAMS[spec.family]:
        raise ValueError(f"{spec.family} kernel needs a gamma: train resolves None to 1/d")
    a, b = _rows(a), _rows(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"vectors have dimensions {a.shape[1]} and {b.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return _kernel(spec, a[:, None], b[None])


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Evaluate the kernel on a single pair of vectors."""
    return float(kernel_matrix(spec, np.atleast_2d(a), np.atleast_2d(b))[0, 0])


@dataclass(frozen=True)
class TrainConfig:
    """Soft-margin training knobs.

    ``C`` is the box constraint and ``tol`` the stopping gap m(alpha) - M(alpha).
    A pass is n pair steps for n training examples; ``max_passes`` caps
    training at ``max_passes * n`` steps.  ``rng_seed`` has no effect (the
    solver draws no random numbers); it is accepted for existing callers.
    """

    C: float = 1.0
    tol: float = 1e-3
    max_passes: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("C", "tol", "max_passes"):  # a float32 would meet float max as float32 inf
            if isinstance(value := getattr(self, name), np.generic):
                object.__setattr__(self, name, _python_number(value))
        C, tol, passes = (None if isinstance(v, bool) else v  # a bool is a Real; None fails below
                          for v in (self.C, self.tol, self.max_passes))
        if not (isinstance(C, Real) and 0 < C <= sys.float_info.max):
            raise ValueError("C must be finite and > 0")
        if not (isinstance(tol, Real) and 0 < tol <= sys.float_info.max):
            raise ValueError("tol must be finite and > 0")
        if not (isinstance(passes, Real) and 1 <= passes <= sys.float_info.max):
            raise ValueError("max_passes must be finite and >= 1")


@dataclass(frozen=True)
class TrainSummary:
    """What happened during optimization (not persisted with the model)."""

    passes: int
    converged: bool
    dual_objectives: tuple[float, ...]
    n_support: int = 0


@dataclass(frozen=True)
class Standardizer:
    """Per-feature standardization (x - mean) / scale, fitted on training data.

    A model that carries one applies it to every input before the kernel.
    Unfitted, both fields are None; fitted, they are tuples of one finite
    mean and one finite scale > 0 per feature.  Anything else raises DataError.
    """

    mean: tuple[float, ...] | None = None
    scale: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mean is None and self.scale is None:
            return
        if not (isinstance(self.mean, tuple) and isinstance(self.scale, tuple)
                and len(self.mean) == len(self.scale) > 0
                and all(map(math.isfinite, self.mean + self.scale)) and min(self.scale) > 0):
            raise DataError("scaler needs a finite mean and positive scale per feature")

    def fit(self, xs: np.ndarray) -> "Standardizer":
        """A new standardizer fitted to ``xs``; a constant feature gets scale 1.
        Features whose mean or spread overflows float64 raise DataError."""
        xs = np.asarray(xs, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan raises below
            mean, std = xs.mean(axis=0), xs.std(axis=0)
        return Standardizer(mean=tuple(mean.tolist()),
                            scale=tuple(np.where(std == 0, 1.0, std).tolist()))

    def transform(self, xs: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise ValueError("standardizer is not fitted")
        return (np.asarray(xs, dtype=float) - np.array(self.mean)) / np.array(self.scale)


@dataclass(frozen=True)
class SvmModel:
    """Trained classifier: support examples, dual coefficients, bias, kernel.

    A ``scaler`` standardizes every input before the kernel; the supports are
    then stored in standardized coordinates."""

    kernel: KernelSpec
    support_examples: tuple[LabeledExample, ...]
    alphas: tuple[float, ...]
    bias: float
    summary: TrainSummary | None = field(default=None, compare=False)
    scaler: Standardizer | None = None

    def scaled(self, c: float) -> "SvmModel":
        """Copy with all dual coefficients and the bias multiplied by c."""
        return replace(
            self, alphas=tuple(c * a for a in self.alphas), bias=c * self.bias, summary=None
        )


def _supports(model: SvmModel) -> tuple[np.ndarray, np.ndarray]:
    """The support features as rows and alpha_i * y_i per support, built on
    each call; callers check first that the model has supports."""
    rows = np.array([e.features for e in model.support_examples], dtype=float)
    labels = np.array([e.label for e in model.support_examples], dtype=float)
    return rows, np.asarray(model.alphas, dtype=float) * labels


def decision_values(model: SvmModel, xs: np.ndarray) -> np.ndarray:
    """Decision function over a stack of row vectors or one vector, summed
    over the supports in index order by ``_pairwise_dots``: the same bits
    whatever the BLAS build or CPU.  A kernel that overflows on the data
    raises DataError."""
    xs = _rows(np.atleast_2d(np.asarray(xs, dtype=float)))
    if not model.support_examples:
        return np.full(xs.shape[0], model.bias)
    rows, coefs = _supports(model)
    if xs.shape[1] != rows.shape[1]:
        raise DimensionMismatchError(f"model has {rows.shape[1]} features, data has {xs.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        if model.scaler is not None:
            xs = model.scaler.transform(xs)
        k = kernel_matrix(model.kernel, rows, xs)
        values = _pairwise_dots(k.T, coefs) + model.bias
    if not np.isfinite(values).all():
        raise DataError("decision values are not finite: the kernel overflows on the data")
    return values


def predict(model: SvmModel, xs: np.ndarray) -> np.ndarray:
    """The class of each row, or of one vector: +1 where the decision value
    is >= 0, else -1 (an exact zero maps to +1).  The one sign rule."""
    return np.where(decision_values(model, xs) >= 0.0, 1, -1)


def classify(model: SvmModel, x) -> int:
    """The class of one vector, as :func:`predict` gives it."""
    return int(predict(model, x)[0])


def functional_margin(model: SvmModel, e: LabeledExample) -> float:
    """label * f(features): positive iff the example is classified correctly."""
    return e.label * float(decision_values(model, e.features)[0])


def weight_norm(model: SvmModel) -> float:
    """||w|| in the model's own (with a scaler, standardized) kernel feature
    space: sqrt(c' K c) with c = alpha*y."""
    if not model.support_examples:
        return 0.0
    rows, coefs = _supports(model)
    k = kernel_matrix(model.kernel, rows, rows)
    sq = float(_pairwise_dots(_pairwise_dots(k.T, coefs), coefs))
    return math.sqrt(max(sq, 0.0))


def geometric_margin(model: SvmModel, e: LabeledExample) -> float:
    """Functional margin / ||w||: signed distance to the boundary in the
    model's own (with a scaler, standardized) feature space."""
    norm = weight_norm(model)
    if norm <= NORM_FLOOR:
        raise ZeroNormError("weight vector norm is below the numeric floor")
    return functional_margin(model, e) / norm


def extract_hyperplane(model: SvmModel) -> tuple[np.ndarray, float]:
    """Explicit (w, b) of a linear-kernel model, in raw input coordinates:
    w = sum_i alpha_i y_i s_i, then w / scale and b - sum(w * mean / scale)."""
    if model.kernel.family != "linear":
        raise UnsupportedKernelError(
            f"hyperplane extraction needs a linear kernel, got {model.kernel.family}"
        )
    if not model.support_examples:
        raise ValueError("model has no support examples")
    rows, coefs = _supports(model)
    w = _pairwise_dots(rows.T, coefs)
    if model.scaler is None:
        return w, model.bias
    mean, scale = np.array(model.scaler.mean), np.array(model.scaler.scale)
    return w / scale, float(model.bias - np.sum(w * mean / scale))


# ---------------------------------------------------------------------------
# Training (pairwise dual coordinate ascent)
# ---------------------------------------------------------------------------


def _gram(spec: KernelSpec, xs: np.ndarray) -> tuple[Callable[[int], np.ndarray], np.ndarray]:
    """The solver's view of the Gram matrix K(xs, xs): ``(row, diag)``.

    ``row(i)`` computes row i on each call, bit for bit
    ``kernel_matrix(spec, xs[i:i+1], xs)[0]``, which is also column i, and
    ``diag`` is the matrix's diagonal, in O(n d), by the same formula.  A
    Fortran-ordered copy of ``xs`` is made once, here.  ``_Smo`` keeps the
    rows it used last.
    """
    cols = np.asfortranarray(xs)
    return (lambda i: kernel_matrix(spec, cols[i:i + 1], cols)[0]), _kernel(spec, cols, cols)


class _Smo:
    """One optimization run over the Gram matrix K, read a row at a time:
    ``row(i)`` is row i and ``diag`` the diagonal.

    Minimizes the dual in LIBSVM form, 1/2 alpha'Q alpha - sum(alpha) with
    Q_ij = y_i y_j K_ij and gradient G = Q alpha - 1.  F_t = -y_t G_t is the
    bias that puts example t exactly on its margin.  I_up holds the t whose
    y_t * alpha_t can grow, I_low those whose y_t * alpha_t can shrink.  alpha
    is optimal iff m = max F over I_up is at most M = min F over I_low; the
    gap m - M certifies how close it is (Keerthi et al. 2001).

    A pair step moves alpha_i and alpha_j only, so the run keeps as state
    what the step changes, as LIBSVM does (Chang & Lin 2011, section 4): the
    ``up`` and ``low`` masks (y > 0 and y < 0 at alpha = 0, then set at i and
    j) and F as two views, ``f_up`` (F on I_up, -inf elsewhere) and ``f_low``
    (F on I_low, +inf elsewhere), both moved in place by two scaled kernel
    rows.  Every t is in I_up or I_low, so F and G derive from them.  ``rows``
    keeps the ``_ROW_CACHE`` most recently used kernel rows (LIBSVM's kernel
    cache) and ``curvature`` as many negated curvature vectors (see ``run``),
    made only for the rows taken as i: at most 128 vectors of length n, none
    of them ever written.
    """

    def __init__(self, row: Callable[[int], np.ndarray], diag: np.ndarray, y: np.ndarray,
                 cfg: TrainConfig):
        self.y, self.c, self.tol, self.n = y, float(cfg.C), cfg.tol, len(y)
        self.alpha = np.zeros(self.n)
        self.up, self.low = y > 0, y < 0
        self.f_up, self.f_low = np.where(self.up, y, -np.inf), np.where(self.low, y, np.inf)
        self.b = 0.0
        self.rows = rows = lru_cache(maxsize=_ROW_CACHE)(row)
        sums, mask = np.empty(self.n), np.empty(self.n, dtype=bool)

        def neg_curvature(i: int) -> np.ndarray:  # no ``self`` here: a run frees without gc
            """-a = 2 K_i - (K_ii + diag), as x - y is -(y - x) bit for bit; -TAU unless a > 0."""
            neg_a = np.multiply(rows(i), 2.0)
            neg_a -= np.add(diag[i], diag, out=sums)
            np.putmask(neg_a, np.logical_not(np.less(neg_a, 0.0, out=mask), out=mask), -TAU)
            return neg_a

        self.curvature = lru_cache(maxsize=_ROW_CACHE)(neg_curvature)

    @property
    def grad(self) -> np.ndarray:
        """G = -y * F.  An exact zero comes out +0.0, as in a G updated by
        additions from -1, so F derived back from G has one zero sign per class."""
        return -self.y * np.where(self.up, self.f_up, self.f_low) + 0.0

    def objective(self) -> float:
        """sum(alpha) - 1/2 alpha'Q alpha, read off G in O(n)."""
        return float(0.5 * np.sum(self.alpha * (1.0 - self.grad)))

    def run(self, max_passes: int) -> TrainSummary:
        """Pair steps until m - M <= tol or max_passes * n steps.

        Each step takes i = argmax F over I_up and, among the t in I_low with
        b_t = F_i - F_t > 0, the j minimizing -b_t^2 / a_t, where
        a_t = K_ii + K_tt - 2 K_it, or TAU when that is not positive (WSS2,
        Fan, Chen & Lin 2005).  The scan clamps b = max(F_i - ``f_low``, 0),
        so b_t is 0 for nan, for b_t <= 0 and for the -inf outside I_low, and
        scores b_t^2 / (-a_t), which is -b_t^2 / a_t bit for bit: each
        candidate scores <= -0.0 and every other t exactly -0.0, so the first
        minimizer is the masked rule's, unless every candidate's b_t^2
        underflows; then a guard takes the first t with b_t > 0, as the masked
        rule does.  The step adds y_i * lam to alpha_i and -y_j * lam to
        alpha_j, lam = b_j / a_j clipped to the box.  A pass is n steps; the
        objective is recorded after each pass, the last one possibly partial.
        """
        n, c, tol, labels, limit = self.n, self.c, self.tol, self.y.tolist(), max_passes * self.n
        alpha, up, low, f_up, f_low = self.alpha, self.up, self.low, self.f_up, self.f_low
        rows, curvature, (update, scratch) = self.rows, self.curvature, np.empty((2, n))
        up_max, up_item, low_min, low_item = f_up.argmax, f_up.item, f_low.argmin, f_low.item
        multiply, subtract, divide, fmax, putmask, inf = (
            np.multiply, np.subtract, np.divide, np.fmax, np.putmask, np.inf)
        b, score = np.empty(n), np.empty(n)
        objectives, steps = [], 0
        while True:
            i = int(up_max())
            f_i = up_item(i)
            gap = f_i - low_item(int(low_min()))
            if gap != gap:  # an infinite update can make a sentinel inf - inf: re-set them
                putmask(f_up, ~up, -inf)
                putmask(f_low, ~low, inf)
                i = int(up_max())
                f_i = up_item(i)
                gap = f_i - low_item(int(low_min()))
            if not gap > tol or steps >= limit:  # a nan gap stops too
                break
            k_i, neg_a = rows(i), curvature(i)
            fmax(subtract(f_i, f_low, out=b), 0.0, out=b)
            j = int(divide(multiply(b, b, out=score), neg_a, out=score).argmin())
            if not b.item(j) > 0.0:  # every candidate's score underflowed to -0.0
                j = int((b > 0.0).argmax())
            y_i, y_j = labels[i], labels[j]
            old_i, old_j = alpha.item(i), alpha.item(j)
            lam = min(b.item(j) / -neg_a.item(j), c - old_i if y_i > 0 else old_i,
                      old_j if y_j > 0 else c - old_j)
            new_i = min(c, max(0.0, old_i + y_i * lam))
            new_j = min(c, max(0.0, old_j - y_j * lam))
            alpha[i], alpha[j] = new_i, new_j
            multiply(k_i, y_i * (new_i - old_i), out=update)
            update += multiply(rows(j), y_j * (new_j - old_j), out=scratch)
            f_up -= update
            f_low -= update
            for t, y_t, new, f_t in ((i, y_i, new_i, up_item(i)), (j, y_j, new_j, low_item(j))):
                above, below = new > 0.0, new < c
                up_t, low_t = up[t], low[t] = (below, above) if y_t > 0 else (above, below)
                f_up[t], f_low[t] = f_t if up_t else -inf, f_t if low_t else inf
            steps += 1
            if steps % n == 0:
                objectives.append(self.objective())
        if steps % n:
            objectives.append(self.objective())
        violations = self.finish()
        return TrainSummary(
            passes=-(-steps // n),
            converged=gap <= tol and violations == 0,
            dual_objectives=tuple(objectives),
            n_support=int(self.support.sum()),
        )

    def finish(self) -> int:
        """Split alpha once, in O(n): at 0, interior or at C, a bound taken
        within ``NORM_FLOOR * max(1, C)``.  From that split set ``support``
        (alpha not at 0) and b, and return the KKT case-split violation count.
        b is the mean F over interior alpha; with none, the midpoint of max F
        over I_up and min F over I_low, which keeps every KKT deviation within
        half the gap; with I_up or I_low empty, b stays."""
        floor = NORM_FLOOR * max(1.0, self.c)
        at_zero, at_c = self.alpha <= floor, self.alpha >= self.c - floor
        interior, self.support = ~at_zero & ~at_c, ~at_zero
        pos, grad = self.y > 0, self.grad
        f = -self.y * grad  # F, an exact zero's sign set by the class
        up, low = np.where(pos, ~at_c, ~at_zero), np.where(pos, ~at_zero, ~at_c)
        if interior.any():
            self.b = float(np.mean(f[interior]))
        elif up.any() and low.any():
            self.b = 0.5 * float(f[up].max() + f[low].min())
        margin = grad + 1.0 + self.y * self.b  # y_i * f(x_i)
        bad = (at_zero & (margin < 1.0 - self.tol)) | (at_c & (margin > 1.0 + self.tol))
        return int((bad | (interior & (np.abs(margin - 1.0) > self.tol))).sum())


def train(
    data: list[LabeledExample] | tuple[LabeledExample, ...],
    kernel: KernelSpec,
    cfg: TrainConfig = TrainConfig(),
) -> SvmModel:
    """Fit the soft-margin dual on ``data`` and return the trained model.

    Maximizes  sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)
    subject to 0 <= alpha <= C and sum(alpha * y) = 0.  Training stops when
    the violation gap m(alpha) - M(alpha) is at most ``cfg.tol`` or after
    ``cfg.max_passes`` passes of n pair steps each.  ``summary.converged`` is
    True only when the gap certificate held and the final KKT case split
    finds no violation; non-convergence is reported there, not raised.  One
    O(n) end-of-run step splits alpha into at 0, interior and at C, and the
    bias, that KKT split and the kept supports (alpha not at 0) all read it.
    A kernel that overflows on the data leaves a non-finite bias or alpha, and
    that raises ValueError.  ``cfg.rng_seed`` has no effect.

    A certified sigmoid model, whose Gram matrix can be indefinite, is a KKT
    point of a dual that need not be concave, not necessarily its optimum: on
    80 standardized examples at C = 1 one reached 18.0530, scipy's SLSQP 18.0686.

    Labels and features are each read into an array in one pass, after a
    per-example check that every example has as many features as the first;
    one that differs raises DimensionMismatchError.

    The n x n Gram matrix is never built: the solver computes kernel rows as
    it needs them and keeps the last 64, plus the curvature vectors of the
    last 64 rows taken as i, so memory is O(n) plus 128 vectors of length n.
    """
    if not data:
        raise ValueError("training data is empty")
    n = len(data)
    ys = np.fromiter((e.label for e in data), dtype=float, count=n)
    if np.all(ys == ys[0]):
        raise SingleClassError(f"training data needs both classes, got labels {[int(ys[0])]}")
    d = len(data[0].features)
    if any(len(e.features) != d for e in data):
        raise DimensionMismatchError("training examples have inconsistent dimensions")
    if not d:
        raise DimensionMismatchError("training examples have no features")
    xs = np.fromiter(chain.from_iterable(e.features for e in data), dtype=float,
                     count=n * d).reshape(n, d)
    kernel = kernel.resolved(xs)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        smo = _Smo(*_gram(kernel, xs), ys, cfg)
        summary = smo.run(cfg.max_passes)
    if not (math.isfinite(smo.b) and np.isfinite(smo.alpha).all()):
        raise ValueError("training left a non-finite bias or alpha: the kernel overflows")
    keep = np.flatnonzero(smo.support)
    return SvmModel(
        kernel=kernel,
        support_examples=tuple(data[int(i)] for i in keep),
        alphas=tuple(float(smo.alpha[int(i)]) for i in keep),
        bias=float(smo.b),
        summary=summary,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = "routesvm-model"
_VERSION = "v2"
_READABLE_VERSIONS = ("v1", "v2")  # v1: the same format without a scaler


def model_to_text(model: SvmModel) -> str:
    """Versioned plain-text form; floats at 17 significant digits.

    Header line: magic, version, kernel family and parameters, bias, support
    count, and for a model with a scaler ``mean=a,b scale=c,d``.  Then one
    line per support vector: alpha, label, features.
    """
    spec = model.kernel
    parts = [_MAGIC, _VERSION, f"family={spec.family}"]
    parts.extend(f"{name}={_f17(getattr(spec, name))}" for name in KERNEL_PARAMS[spec.family])
    parts.append(f"bias={_f17(model.bias)}")
    parts.append(f"supports={len(model.support_examples)}")
    if model.scaler is not None:
        parts.append("mean=" + ",".join(_f17(v) for v in model.scaler.mean))
        parts.append("scale=" + ",".join(_f17(v) for v in model.scaler.scale))
    lines = [" ".join(parts)]
    for alpha, example in zip(model.alphas, model.support_examples):
        fields = [_f17(alpha), str(example.label)]
        fields.extend(_f17(f) for f in example.features)
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> SvmModel:
    """Inverse of :func:`model_to_text`, also reading v1 (no scaler);
    raises ModelFormatError on bad input."""
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError("empty model text")
    header = lines[0].split()
    if len(header) < 4 or header[0] != _MAGIC:
        raise ModelFormatError("missing model header magic")
    if header[1] not in _READABLE_VERSIONS:
        raise ModelFormatError(f"unsupported model version {header[1]!r}")
    fields: dict[str, str] = {}
    for token in header[2:]:
        if "=" not in token:
            raise ModelFormatError(f"malformed header token {token!r}")
        key, value = token.split("=", 1)
        if key in fields:
            raise ModelFormatError(f"repeated header field {key!r}")
        fields[key] = value
    try:
        family = fields.pop("family")
        params = {name: kind(fields.pop(name))
                  for name, kind in KERNEL_PARAMS.get(family, {}).items()}
        bias = float(fields.pop("bias"))
        count = int(fields.pop("supports"))
        scaler = None
        if header[1] != "v1" and ("mean" in fields or "scale" in fields):
            scaler = Standardizer(
                mean=tuple(float(v) for v in fields.pop("mean").split(",")),
                scale=tuple(float(v) for v in fields.pop("scale").split(",")),
            )
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"bad model header: {exc}") from exc
    if fields:
        raise ModelFormatError(f"unknown header fields {sorted(fields)}")
    try:
        spec = KernelSpec(family, **params)
    except ValueError as exc:
        raise ModelFormatError(f"bad kernel parameters: {exc}") from exc

    body = [(line_no, ln) for line_no, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != count:
        raise ModelFormatError(f"expected {count} support lines, found {len(body)}")
    alphas = []
    examples = []
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) < 3:
            raise ModelFormatError(f"line {line_no}: too few fields")
        try:
            alphas.append(float(tokens[0]))
            label = int(tokens[1])
            features = tuple(float(t) for t in tokens[2:])
            examples.append(LabeledExample(features=features, label=label))
        except ValueError as exc:
            raise ModelFormatError(f"line {line_no}: {exc}") from exc
        if len(features) != len(examples[0].features):
            raise ModelFormatError(f"line {line_no}: {len(features)} features, line {body[0][0]}"
                                   f" has {len(examples[0].features)}")
    if not all(map(math.isfinite, (bias, *alphas))):
        raise ModelFormatError("bias and alphas must be finite")
    if min(alphas, default=0.0) < 0.0:
        raise ModelFormatError("alphas must be >= 0")
    if scaler is not None and examples and len(examples[0].features) != len(scaler.mean):
        raise ModelFormatError(f"scaler has {len(scaler.mean)} features,"
                               f" supports have {len(examples[0].features)}")
    return SvmModel(
        kernel=spec,
        support_examples=tuple(examples),
        alphas=tuple(alphas),
        bias=bias,
        scaler=scaler,
    )


def save_model(model: SvmModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8", newline="\n")


def load_model(path: str | Path) -> SvmModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not UTF-8 text ({exc})") from None
    return model_from_text(text)
