"""Output checks for one benchmark op.

Each check returns the problems it found (empty when the output is right)
and holds for a correct program on every seed: accuracy floors sit below
the worst value a correct run reaches (see README.md), and non-convergence
is recorded, never failed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Accuracy floors for sweep reports.  Over 304 run-paper seeds a correct
# program's mean accuracy reached 0.890 and a 10-example row 0.6, so the
# floors sit below both.
MEAN_ACCURACY_FLOOR = 0.85
ROW_ACCURACY_FLOOR = 0.4

CONVERGENCE_WARNING = "warning: training did not fully converge"


def read_report(path: Path) -> list[tuple[int, int, float]]:
    """Rows of a report CSV as (test_size, correct, accuracy)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "test_size,correct,accuracy":
        raise ValueError(f"{path.name}: bad header")
    rows = []
    for line in lines[1:]:
        size, correct, accuracy = line.split(",")
        rows.append((int(size), int(correct), float(accuracy)))
    return rows


def check_report(rows: list[tuple[int, int, float]], sizes: list[int]) -> list[str]:
    """Report rows cover ``sizes`` in order, are internally consistent and
    clear the accuracy floors."""
    problems = []
    if [r[0] for r in rows] != sizes:
        return [f"report sizes {[r[0] for r in rows]} != {sizes}"]
    for size, correct, accuracy in rows:
        if not 0 <= correct <= size or accuracy != correct / size:
            problems.append(f"row {size}: correct={correct} accuracy={accuracy}")
        elif accuracy < ROW_ACCURACY_FLOOR:
            problems.append(f"row {size}: accuracy {accuracy} < {ROW_ACCURACY_FLOOR}")
    mean = report_mean(rows)
    if mean < MEAN_ACCURACY_FLOOR:
        problems.append(f"mean accuracy {mean:.4f} < {MEAN_ACCURACY_FLOOR}")
    return problems


def report_mean(rows: list[tuple[int, int, float]]) -> float:
    return sum(r[2] for r in rows) / len(rows)


def hash_outputs(out_dir: Path) -> dict[str, str]:
    """sha256 of every file an op left in ``out_dir``."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def compare_outputs(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Byte-identity of an op's outputs with an earlier op on the same seed."""
    if first.keys() != again.keys():
        return [f"output files {sorted(again)} != {sorted(first)}"]
    return [f"{name} differs from an earlier run" for name in first if first[name] != again[name]]


def count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def model_alphas(model, examples) -> np.ndarray:
    """Dual coefficient of every training example (0 for non-supports).

    ``svm.train`` keeps the training example objects themselves as support
    examples, so supports are matched to training rows by identity.
    """
    row_of = {id(e): i for i, e in enumerate(examples)}
    alpha = np.zeros(len(examples))
    for a, e in zip(model.alphas, model.support_examples):
        if id(e) not in row_of:
            raise ValueError("a support example is not one of the training examples")
        alpha[row_of[id(e)]] = a
    return alpha


def kkt_violations(decision_values, model, examples, C: float, tol: float) -> int:
    """KKT case-split violations of a trained model, recomputed from its
    decision function: alpha=0 needs margin >= 1-tol, interior alpha needs
    |margin-1| <= tol, alpha=C needs margin <= 1+tol."""
    alpha = model_alphas(model, examples)
    xs = np.array([e.features for e in examples], dtype=float)
    ys = np.array([e.label for e in examples], dtype=float)
    margin = ys * decision_values(model, xs)
    floor = 1e-12 * max(1.0, C)
    at_zero = alpha <= floor
    at_c = alpha >= C - floor
    interior = ~at_zero & ~at_c
    bad = (
        (at_zero & (margin < 1.0 - tol))
        | (interior & (np.abs(margin - 1.0) > tol))
        | (at_c & (margin > 1.0 + tol))
    )
    return int(bad.sum())


def dual_objective(kernel_matrix, model) -> float:
    """sum(alpha) - 1/2 c'Kc over the supports, with c = alpha * y."""
    if not model.support_examples:
        return 0.0
    xs = np.array([e.features for e in model.support_examples], dtype=float)
    c = np.array(model.alphas) * np.array([e.label for e in model.support_examples])
    return float(np.sum(model.alphas) - 0.5 * c @ kernel_matrix(model.kernel, xs, xs) @ c)


def training_accuracy(decision_values, model, examples) -> float:
    xs = np.array([e.features for e in examples], dtype=float)
    ys = np.array([e.label for e in examples])
    predicted = np.where(decision_values(model, xs) >= 0.0, 1, -1)
    return float(np.mean(predicted == ys))


def check_trained_model(decision_values, model, examples, C: float, tol: float) -> list[str]:
    """Box constraints always; zero KKT violations when the model says it
    converged."""
    problems = []
    if any(not 0.0 < a <= C for a in model.alphas):
        problems.append("a dual coefficient lies outside (0, C]")
    try:
        violations = kkt_violations(decision_values, model, examples, C, tol)
    except ValueError as exc:
        return problems + [str(exc)]
    if model.summary is not None and model.summary.converged and violations:
        problems.append(f"converged model has {violations} KKT violations")
    return problems
