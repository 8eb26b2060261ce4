"""Concave-functional evaluation, the results table and curve-data export.

Rounding happens only at presentation time: the table keeps full precision
internally, prints 3 decimals for display and writes 12 significant digits
to CSV. CSV output is UTF-8 with '.' decimals and LF line endings. The
curve CSV's numbers are the bytes of ``"%.12g" % x``, rendered by a numpy
kernel (:func:`_g12_fields`) that rounds exactly for 1e-11 <= |x| < 1e12
and formats zeros, non-finite values and the rest by ``"%.12g"`` itself.
Its lines are built one series at a time, in blocks of about 512 KiB.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
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
from .errors import DegenerateClassError, DomainError, StructuralError
from .recal_methods import CANONICAL_ORDER, DISPLAY_LABELS, RecalResult

CONCAVITY_SLACK = 1e-12

TABLE_CSV_HEADER = "method,mean_probs,auc,mean_functional"
CURVES_CSV_HEADER = "series,support,value"
# one CSV line per row: the label, then each number at 12 significant digits
_TABLE_CSV_LINE = "{},{:.12g},{:.12g},{:.12g}\n".format
# a curves.csv number is a field of _FIELD bytes padded with _PAD, a byte
# that UTF-8 never uses; a series goes out in blocks of ~_BLOCK_BYTES bytes
_FIELD = 24
_PAD = 0xFF
_BLOCK_BYTES = 1 << 19
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# outputs are written in slices of this many characters, so that at most one
# slice is ever held encoded beside the text
_SLICE = 1 << 20


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
    stored at full precision and rounded only when rendered. A source whose
    AUC is undefined raises a :class:`DegenerateClassError` naming the
    Source row.
    """
    results = _checked_in_order(source, target, results)
    try:
        source_auc = source.implied_auc
    except DegenerateClassError as exc:
        raise DegenerateClassError(f"results table: Source row: {exc}") from exc
    rows = [
        TableRow(
            label="Source",
            mean_probs=mean_under(source.feature_dist, source.posterior),
            auc=source_auc,
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


@functools.cache
def _g12_tables():
    """The lookup tables of :func:`_g12_fields`, built on first use.

    Four map an index to bytes of a field, with c = 24 * negative + e + 11
    the class of a number of decimal exponent e:
    - bytes 0-7 by (c, first digit, point shown): the sign, the "0.000" of
      exponents -4..-1, the digit and the point;
    - 4 digits by g, or by g + 10,000 with their trailing zeros padded;
    - the last 3 digits by g < 1,000, padded so, then a pad;
    - bytes 20-23 by e + 11: the exponent, where there is one.
    Then 10**s for 0 <= s <= 22, exact in float64, and its Veltkamp split.
    """
    ascii_digits = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)
    head = np.full((48, 10, 2, 8), _PAD, dtype=np.uint8)
    exponent = np.full((24, 4), _PAD, dtype=np.uint8)
    for e in range(-11, 13):
        if -4 <= e < 0:
            text = np.frombuffer(b"0." + b"0" * (-e - 1), dtype=np.uint8)
            head[e + 11, ..., :text.size] = head[e + 35, ..., 1:text.size + 1] = text
        elif e < -4 or e == 12:
            exponent[e + 11] = np.frombuffer(b"e%+03d" % e, dtype=np.uint8)
    head[24:, ..., 0] = ord("-")
    head[..., 6] = ascii_digits[:, None]
    head[:, :, 1, 7] = ord(".")
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # indexed by the digits of g
    for i in range(4):
        digits[..., i] = ascii_digits.reshape([10 if j == i else 1 for j in range(4)])
    padded = digits.copy()
    padded[..., 0, 3] = padded[..., 0, 0, 2:] = padded[:, 0, 0, 0, 1:] = _PAD
    padded[0, 0, 0, 0] = _PAD
    digits, padded = digits.reshape(-1, 4), padded.reshape(-1, 4)
    group3 = np.column_stack([padded[:1000, 1:], np.full(1000, _PAD, dtype=np.uint8)])
    p10 = np.array([float(10**s) for s in range(23)])
    p10_hi = _SPLIT * p10 - (_SPLIT * p10 - p10)
    return (
        head.view(np.uint64).ravel(),
        np.concatenate([digits, padded]).view(np.uint32).ravel(),
        group3.view(np.uint32).ravel(),
        exponent.view(np.uint32).ravel(),
        p10, p10_hi, p10 - p10_hi,
    )


def _g12_fields(x: np.ndarray) -> np.ndarray:
    """``"%.12g" % v`` for each v of the float64 array x, as the rows of an
    (x.size, _FIELD) uint8 matrix; a row without its _PAD bytes is the text.

    For 1e-11 <= |v| < 1e12 and e = floor(log10 |v|), the digits are
    N = |v| * 10**(11 - e) rounded half to even. The power is exact, so the
    float product hi is within half an ulp of the exact one, and only where
    hi is a half-integer can that error change N: there the exact remainder
    of Dekker's two-product decides, and a zero remainder is a true tie. A
    field is the bytes: 0-5 the sign and "0.000", 6 the first digit, 7 the
    point, 8-18 the other digits, 19 a pad and 20-23 the exponent, gathered
    from :func:`_g12_tables`. Zeros, values out of that range or not
    finite, and a log10 off by one (hi outside [1e11, 1e12)) are formatted
    by "%.12g" one at a time.
    """
    head, group4, group3, exponent, p10, p10_hi, p10_lo = _g12_tables()
    out = np.empty((x.size, _FIELD), dtype=np.uint8)
    a = np.abs(x)
    in_range = (a >= 1e-11) & (a < 1e12)
    y = np.where(in_range, a, 1.0)  # placeholders, formatted by the fallback
    e = np.clip(np.floor(np.log10(y)), -11, 11).astype(np.intp)
    scale = 11 - e
    hi = y * p10[scale]
    n = np.rint(hi)
    ties = np.flatnonzero(np.abs(hi - n) == 0.5)
    if ties.size:
        y_t, hi_t, s = y[ties], hi[ties], scale[ties]
        y_hi = _SPLIT * y_t - (_SPLIT * y_t - y_t)
        y_lo = y_t - y_hi
        err = ((y_hi * p10_hi[s] - hi_t) + y_hi * p10_lo[s] + y_lo * p10_hi[s]) + y_lo * p10_lo[s]
        n[ties] = np.where(err == 0.0, n[ties], hi_t + np.copysign(0.5, err))
    in_decade = (hi >= 1e11) & (hi < 1e12)
    carry = n == 1e12  # 1e11 one decade up
    e += carry
    n = np.where(in_decade & ~carry, n, 1e11)
    d0 = np.floor(n / 1e11)
    tail = n - d0 * 1e11
    g1 = np.floor(tail / 1e7)
    rest = tail - g1 * 1e7
    g2 = np.floor(rest / 1e3)
    g3 = (rest - g2 * 1e3).astype(np.intp)
    g2 = g2.astype(np.intp)
    cls = np.signbit(x) * 24 + (e + 11)
    point = (tail != 0.0) & ((e >= 0) | (e < -4))
    out.view(np.uint64)[:, 0] = head[(cls * 10 + d0.astype(np.intp)) * 2 + point]
    words = out.view(np.uint32)
    words[:, 2] = group4[g1.astype(np.intp) + 10_000 * ((g2 == 0) & (g3 == 0))]
    words[:, 3] = group4[g2 + 10_000 * (g3 == 0)]
    words[:, 4] = group3[g3]
    words[:, 5] = exponent[e + 11]
    whole = np.flatnonzero((e >= 1) & (e <= 11))
    if whole.size:
        # digits 1..e join the integer part: they move left over the point,
        # keep their zeros, and the point follows them if a nonzero digit does
        f, at = out[whole], 7 + e[whole, None]
        cols = np.arange(7, 19)
        moved = np.where(cols < at, f[:, 8:20], f[:, 7:19])
        moved[(cols < at) & (moved == _PAD)] = ord("0")
        fraction = np.fmod(n[whole], p10[11 - e[whole]]) != 0.0
        moved[cols == at] = np.where(fraction, ord("."), _PAD)
        f[:, 7:19] = moved
        out[whole] = f
    fallback = np.flatnonzero(~(in_range & in_decade))
    if fallback.size:
        texts = b"".join((b"%.12g" % v).ljust(_FIELD, b"\xff") for v in x[fallback].tolist())
        out[fallback] = np.frombuffer(texts, dtype=np.uint8).reshape(-1, _FIELD)
    return out


def curves_to_csv(series: list[tuple[str, np.ndarray, np.ndarray]]) -> str:
    """CSV rendering of (series, support, values) triples at 12 significant
    digits, one line per point; a row (series, s, v) is a one-point series.

    The text is the blocks of :func:`_curves_csv_blocks`, joined: each
    distinct support is formatted once, keyed on its bits, so -0.0 prints
    as -0 even beside an otherwise equal support holding 0.0, and numbers
    are ``"%.12g"`` from :func:`_g12_fields`. A caller that exports many
    short series pays one kernel call per series. The text grows by ``+=``
    one block at a time: CPython resizes a str that nothing else references
    in place (a realloc, not a copy), so the peak is the output plus one
    block. The CLI writes the blocks as they come and never holds the text.
    """
    text = ""
    for block in _curves_csv_blocks(series):
        text += block
    return text


def _curves_csv_blocks(
    series: Iterable[tuple[str, np.ndarray, np.ndarray]],
) -> Iterator[str]:
    """The text of ``curves_to_csv(series)`` in pieces: the header line,
    then each series in blocks of about _BLOCK_BYTES bytes, one series per
    block (:func:`_csv_block`). Each distinct support is formatted once per
    call, in block-sized slices, into one field matrix kept for the call."""
    yield CURVES_CSV_HEADER + "\n"
    formatted: dict[bytes, np.ndarray] = {}  # support bits -> its number fields
    for name, support, vals in series:
        support = np.asarray(support, dtype=float).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        if support.size != vals.size:
            raise StructuralError(
                f"curve series {name!r} has {support.size} support points "
                f"but {vals.size} values"
            )
        if not vals.size:
            continue
        prefix = f"{name},".encode("utf-8", "surrogatepass")
        lines = max(1, _BLOCK_BYTES // (len(prefix) + 2 * _FIELD + 2))
        key = support.tobytes()
        fields = formatted.get(key)
        if fields is None:
            fields = formatted[key] = np.empty((support.size, _FIELD), dtype=np.uint8)
            for a in range(0, support.size, lines):
                fields[a:a + lines] = _g12_fields(support[a:a + lines])
        for a in range(0, vals.size, lines):
            yield _csv_block(prefix, fields[a:a + lines], vals[a:a + lines])


def _csv_block(prefix: bytes, support_fields: np.ndarray, values: np.ndarray) -> str:
    """The CSV lines of one series' slice: a byte matrix whose rows are
    [prefix | support | , | value | LF], its numbers padded with _PAD."""
    value_col = len(prefix) + _FIELD + 1
    m = np.empty((values.size, value_col + _FIELD + 1), dtype=np.uint8)
    m[:, :len(prefix)] = np.frombuffer(prefix, np.uint8)
    m[:, len(prefix):value_col - 1] = support_fields
    m[:, value_col - 1] = ord(",")
    m[:, value_col:-1] = _g12_fields(values)
    m[:, -1] = ord("\n")
    return m.tobytes().translate(None, b"\xff").decode("utf-8", "surrogatepass")


def _write_slices(stream, *texts: str) -> None:
    """Write each text to the text stream ``stream`` in slices of _SLICE
    characters, so that no encoded copy of a whole text is made."""
    for text in texts:
        for start in range(0, len(text), _SLICE):
            stream.write(text[start:start + _SLICE])
