"""Concave-functional evaluation, the results table and curve-data export.

Rounding happens only at presentation time: the table keeps full precision
internally, prints 3 decimals for display and writes 12 significant digits
to CSV. CSV output is UTF-8 with '.' decimals and LF line endings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap

import numpy as np

# implied_auc_values is not called here; it stays importable under this
# module's name because perfbench/layers.py wraps it there
from .auc_engine import implied_auc_values  # noqa: F401
from .dist_core import (
    DiscreteScoreDist,
    PosteriorCurve,
    SourceModel,
    TargetSpec,
    _require_shared_support,
    mean_under,
)
from .errors import DomainError, StructuralError
from .recal_methods import CANONICAL_ORDER, DISPLAY_LABELS, RecalResult

CONCAVITY_SLACK = 1e-12

TABLE_CSV_HEADER = "method,mean_probs,auc,mean_functional"
CURVES_CSV_HEADER = "series,support,value"
# one CSV line per row: the label, then each number at 12 significant digits
_TABLE_CSV_LINE = "{},{:.12g},{:.12g},{:.12g}\n".format
# the cells after a curve's series name: the support point, and the value
# left as a %-field, so a series' lines are one template filled in one step
_CURVE_POINT_CELLS = ",{:.12g},%.12g\n".format


def _check_concave_on_grid(grid: np.ndarray, values: np.ndarray) -> None:
    # chord test at every interior grid point, with float slack
    left, mid, right = grid[:-2], grid[1:-1], grid[2:]
    chord = (values[:-2] * (right - mid) + values[2:] * (mid - left)) / (right - left)
    below = np.flatnonzero(values[1:-1] < chord - CONCAVITY_SLACK)
    if below.size:
        raise DomainError(f"functional is not concave on its grid near u={mid[below[0]]!r}")


@dataclass(frozen=True, eq=False)
class FunctionalSpec:
    """A concave function C on [0, 1], either built-in sqrt or tabulated.

    Tabulated functionals are evaluated by linear interpolation on a grid
    that must start at 0, end at 1 and pass the midpoint concavity test
    within 1e-12 slack.
    """

    id: str
    grid: np.ndarray | None = None
    grid_values: np.ndarray | None = None

    @classmethod
    def sqrt(cls) -> "FunctionalSpec":
        return cls("sqrt")

    @classmethod
    def tabulated(cls, grid, values) -> "FunctionalSpec":
        g = np.array(grid, dtype=float, copy=True)
        v = np.array(values, dtype=float, copy=True)
        if g.ndim != 1 or g.size < 2 or g.shape != v.shape:
            raise StructuralError("tabulated functional needs matching grid and values")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise DomainError("tabulated functional must be finite")
        if np.any(np.diff(g) <= 0):
            raise StructuralError("tabulated grid must be strictly increasing")
        if g[0] != 0.0 or g[-1] != 1.0:
            raise DomainError("tabulated grid must cover [0, 1] exactly")
        _check_concave_on_grid(g, v)
        g.setflags(write=False)
        v.setflags(write=False)
        return cls("tabulated", g, v)

    @classmethod
    def from_id(cls, name: str) -> "FunctionalSpec":
        if name == "sqrt":
            return cls.sqrt()
        raise DomainError(f"unknown functional id {name!r}")

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        if self.id == "sqrt":
            return np.sqrt(arr)
        return np.interp(arr, self.grid, self.grid_values)


def functional_mean(
    dist: DiscreteScoreDist, curve: PosteriorCurve, functional: FunctionalSpec
) -> float:
    """Expectation of C(curve) under the distribution."""
    _require_shared_support(dist.support, curve.support, "dist and curve")
    return float(np.dot(dist.probs, functional(curve.values)))


def functional_bounds(q: float, functional: FunctionalSpec) -> tuple[float, float]:
    """Jensen bounds for E[C(Z)] over all Z in [0, 1] with mean q.

    Lower bound (1-q) C(0) + q C(1) is attained by a two-point law on
    {0, 1}; upper bound C(q) by the constant q.
    """
    if not (0.0 < q < 1.0):
        raise DomainError("q must lie strictly inside (0, 1)")
    c0 = float(functional(0.0))
    c1 = float(functional(1.0))
    return (1.0 - q) * c0 + q * c1, float(functional(q))


def _checked_in_order(
    source: SourceModel, target: TargetSpec, results: list[RecalResult]
) -> list[RecalResult]:
    """The results in canonical method order; two for one method, or a support
    not shared by the source, the target and every result, are refused."""
    _require_shared_support(source.support, target.support, "source and target")
    by_method = {}
    for result in results:
        if result.method in by_method:
            raise StructuralError(f"duplicate result for method {result.method.value}")
        _require_shared_support(
            target.support, result.posterior.support, "target and result posterior"
        )
        by_method[result.method] = result
    return [by_method[method] for method in CANONICAL_ORDER if method in by_method]


@dataclass(frozen=True)
class TableRow:
    label: str
    mean_probs: float
    auc: float
    mean_functional: float


@dataclass(frozen=True)
class ResultsTable:
    """Source row followed by one row per method, in fixed canonical order."""

    rows: tuple[TableRow, ...]


def build_results_table(
    source: SourceModel,
    target: TargetSpec,
    results: list[RecalResult],
    functional: FunctionalSpec,
) -> ResultsTable:
    """Assemble the results table: a leading Source row evaluated under the
    source features, then each method evaluated under the target features.

    Method rows are ordered canonically regardless of input order; values are
    stored at full precision and rounded only when rendered.
    """
    results = _checked_in_order(source, target, results)
    rows = [
        TableRow(
            label="Source",
            mean_probs=mean_under(source.feature_dist, source.posterior),
            auc=source.implied_auc,
            mean_functional=functional_mean(
                source.feature_dist, source.posterior, functional
            ),
        )
    ]
    for result in results:
        rows.append(
            TableRow(
                label=DISPLAY_LABELS[result.method],
                mean_probs=result.achieved_mean,
                auc=result.implied_auc,
                mean_functional=functional_mean(
                    target.feature_dist, result.posterior, functional
                ),
            )
        )
    return ResultsTable(rows=tuple(rows))


def format_table(table: ResultsTable) -> str:
    """Fixed-width display rendering, 3 decimals per cell."""
    label_width = max(len(row.label) for row in table.rows)
    label_width = max(label_width, len("method"))
    lines = [
        f"{'method':<{label_width}}  mean_probs    auc  mean_functional"
    ]
    for row in table.rows:
        lines.append(
            f"{row.label:<{label_width}}  {row.mean_probs:>10.3f}  {row.auc:>5.3f}  "
            f"{row.mean_functional:>15.3f}"
        )
    return "\n".join(lines) + "\n"


def table_to_csv(table: ResultsTable) -> str:
    """CSV rendering at 12 significant digits."""
    cells = ((r.label, r.mean_probs, r.auc, r.mean_functional) for r in table.rows)
    return TABLE_CSV_HEADER + "\n" + "".join(starmap(_TABLE_CSV_LINE, cells))


def export_curves(
    source: SourceModel, target: TargetSpec, results: list[RecalResult]
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """One (series, support, values) triple per curve series, for plotting.

    Emits the source and target feature pmfs, the source posterior curve and
    one posterior series per result, in canonical method order; results are
    refused as in the table (:class:`StructuralError`). The arrays are the
    models' own, read-only. Posterior series of the non-capped methods stay
    strictly positive, so consumers can log-scale the value axis.
    """
    results = _checked_in_order(source, target, results)
    return [
        ("source_pmf", source.support, source.feature_dist.probs),
        ("target_pmf", target.support, target.feature_dist.probs),
        ("posterior_source", source.support, source.posterior.values),
    ] + [
        (f"posterior_{r.method.value}", r.posterior.support, r.posterior.values)
        for r in results
    ]


def curves_to_csv(series: list[tuple[str, np.ndarray, np.ndarray]]) -> str:
    """CSV rendering of (series, support, values) triples at 12 significant
    digits, one line per point; a row (series, s, v) is a one-point series.

    Each distinct support is formatted once, keyed on its bits, so -0.0
    prints as -0 even beside an otherwise equal support holding 0.0.
    """
    point_cells: dict[bytes, list[str]] = {}
    parts = [CURVES_CSV_HEADER + "\n"]
    for name, support, values in series:
        support = np.asarray(support, dtype=float).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if support.size != values.size:
            raise StructuralError(
                f"curve series {name!r} has {support.size} support points "
                f"but {values.size} values"
            )
        key = support.tobytes()
        if key not in point_cells:
            # "" first, so joining on the series name puts it before every point
            point_cells[key] = ["", *map(_CURVE_POINT_CELLS, support.tolist())]
        label = f"{name}".replace("%", "%%")
        parts.append(label.join(point_cells[key]) % tuple(values.tolist()))
    return "".join(parts)
