"""Standalone SVG rendering of decision regions and labeled scatter points.

Output is plain SVG text built with fixed number formatting and no ids or
timestamps, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math

from .dataset_io import Dataset
from .eval_pipeline import BoundaryLine, VerticalBoundary, boundary_report
from .svm import DataError, SvmModel, classify, predict

__all__ = ["render_svg"]

_WIDTH = 640
_HEIGHT = 480
_PAD_FRACTION = 0.05
_POS_COLOR = "#d94f3d"  # class +1 (mainline route)
_NEG_COLOR = "#3a6bc6"  # class -1 (off-ramp route)
_REGION_POS_COLOR = "#f6ddd9"
_REGION_NEG_COLOR = "#dbe5f6"
_BOUNDARY_STROKE = "#222222"
_POINT_RADIUS = 3.0


def _auto_ranges(
    dataset: Dataset, boundary: BoundaryLine | VerticalBoundary | None
) -> tuple[tuple[float, float], tuple[float, float]]:
    if len(dataset.labels):
        x_lo, y_lo = dataset.features.min(axis=0).tolist()
        x_hi, y_hi = dataset.features.max(axis=0).tolist()
        if isinstance(boundary, BoundaryLine):
            edge_ys = [boundary.intercept + boundary.slope * x for x in (x_lo, x_hi)]
            y_lo, y_hi = min(y_lo, *edge_ys), max(y_hi, *edge_ys)
        elif isinstance(boundary, VerticalBoundary):
            x_lo, x_hi = min(x_lo, boundary.x), max(x_hi, boundary.x)
    elif isinstance(boundary, BoundaryLine):
        x_lo, x_hi, y_lo, y_hi = -1.0, 1.0, boundary.intercept - 1.0, boundary.intercept + 1.0
    elif isinstance(boundary, VerticalBoundary):
        x_lo, x_hi, y_lo, y_hi = boundary.x - 1.0, boundary.x + 1.0, -1.0, 1.0
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    x_pad = _PAD_FRACTION * (x_hi - x_lo) or 1.0
    y_pad = _PAD_FRACTION * (y_hi - y_lo) or 1.0
    return (x_lo - x_pad, x_hi + x_pad), (y_lo - y_pad, y_hi + y_pad)


def _clip_halfplane(
    polygon: list[tuple[float, float]], edge
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a convex polygon against edge(p) >= 0."""
    out: list[tuple[float, float]] = []
    for idx, p in enumerate(polygon):
        q = polygon[(idx + 1) % len(polygon)]
        gp, gq = edge(p), edge(q)
        if gp >= 0.0:
            out.append(p)
        if (gp > 0.0 > gq) or (gq > 0.0 > gp):
            t = gp / (gp - gq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _boundary_edge(boundary: BoundaryLine | VerticalBoundary, sign: float):
    if isinstance(boundary, BoundaryLine):
        return lambda p: sign * (p[1] - boundary.slope * p[0] - boundary.intercept)
    return lambda p: sign * (p[0] - boundary.x)


class _Canvas:
    """World-to-pixel mapping over the fixed viewport."""

    def __init__(self, x_range, y_range):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range

    def px(self, x: float) -> float:
        return (x - self.x_lo) / (self.x_hi - self.x_lo) * _WIDTH

    def py(self, y: float) -> float:
        # SVG y grows downward
        return (self.y_hi - y) / (self.y_hi - self.y_lo) * _HEIGHT

    def point(self, x: float, y: float) -> str:
        return f"{self.px(x):.2f},{self.py(y):.2f}"


def render_svg(model: SvmModel, dataset: Dataset) -> str:
    """Render decision regions, boundary, and scatter to SVG text.

    The regions and the boundary are drawn when :func:`boundary_report` gives
    the model a boundary line (a linear kernel: the regions are half-planes);
    for any other kernel the figure is the scatter alone.  Misclassified
    points get a ring marker (class ``miss``).  The frame spans the data and
    the boundary; one too wide for float64 raises :class:`DataError`.  Data
    with features other than (x, y) raises ValueError.
    """
    if dataset.features.shape[1] != 2:
        raise ValueError(f"a figure plots 2 features (x, y), the dataset has "
                         f"{dataset.features.shape[1]}")
    boundary = boundary_report(model)
    x_range, y_range = _auto_ranges(dataset, boundary)
    if not all(math.isfinite(hi - lo) for lo, hi in (x_range, y_range)):
        raise DataError("plot frame is not finite: the data or the boundary spans past float64")
    canvas = _Canvas(x_range, y_range)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        "<style>"
        f".region-pos{{fill:{_REGION_POS_COLOR};}}"
        f".region-neg{{fill:{_REGION_NEG_COLOR};}}"
        f".boundary{{stroke:{_BOUNDARY_STROKE};stroke-width:1.5;fill:none;}}"
        f".pt-pos{{fill:{_POS_COLOR};}}"
        f".pt-neg{{fill:{_NEG_COLOR};}}"
        f".miss{{fill:none;stroke:#111111;stroke-width:1.2;}}"
        "</style>",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]

    corners = [
        (canvas.x_lo, canvas.y_lo),
        (canvas.x_hi, canvas.y_lo),
        (canvas.x_hi, canvas.y_hi),
        (canvas.x_lo, canvas.y_hi),
    ]
    if boundary is not None:
        for sign in (1.0, -1.0):
            region = _clip_halfplane(corners, _boundary_edge(boundary, sign))
            cx = sum(p[0] for p in region) / len(region)
            cy = sum(p[1] for p in region) / len(region)
            cls = "region-pos" if classify(model, (cx, cy)) == 1 else "region-neg"
            coords = " ".join(canvas.point(x, y) for x, y in region)
            parts.append(f'<polygon class="{cls}" points="{coords}"/>')
        if isinstance(boundary, BoundaryLine):
            p1 = (canvas.x_lo, boundary.slope * canvas.x_lo + boundary.intercept)
            p2 = (canvas.x_hi, boundary.slope * canvas.x_hi + boundary.intercept)
        else:
            p1 = (boundary.x, canvas.y_lo)
            p2 = (boundary.x, canvas.y_hi)
        parts.append(
            f'<line class="boundary" x1="{canvas.px(p1[0]):.2f}" y1="{canvas.py(p1[1]):.2f}" '
            f'x2="{canvas.px(p2[0]):.2f}" y2="{canvas.py(p2[1]):.2f}"/>'
        )

    r = _POINT_RADIUS
    hits = predict(model, dataset.features) == dataset.labels
    for (x, y), label, hit in zip(dataset.features.tolist(), dataset.labels.tolist(), hits.tolist()):
        px, py = canvas.px(x), canvas.py(y)
        if label == 1:
            parts.append(f'<circle class="pt-pos" cx="{px:.2f}" cy="{py:.2f}" r="{r:.2f}"/>')
        else:
            side = 2.0 * r
            parts.append(
                f'<rect class="pt-neg" x="{px - r:.2f}" y="{py - r:.2f}" '
                f'width="{side:.2f}" height="{side:.2f}"/>'
            )
        if not hit:
            parts.append(
                f'<circle class="miss" cx="{px:.2f}" cy="{py:.2f}" r="{2.2 * r:.2f}"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
