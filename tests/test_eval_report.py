import tracemalloc
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recal import (
    CANONICAL_ORDER,
    DegenerateClassError,
    DiscreteScoreDist,
    DomainError,
    FunctionalSpec,
    PosteriorCurve,
    ResultsTable,
    StructuralError,
    TableRow,
    TargetSpec,
    build_results_table,
    capped_scaling,
    curves_to_csv,
    export_curves,
    format_table,
    functional_bounds,
    functional_mean,
    mean_under,
    run_methods,
    scenario_from_dict,
    table_to_csv,
)
from conftest import CELL_TOL, METHOD_REPROS, REFERENCE_TABLE, random_dist, random_values


@pytest.fixture(scope="module")
def example_results(example_scenario):
    return run_methods(example_scenario)


def reference_csv(header, rows):
    # the element-by-element rule: label, then each number at 12 significant
    # digits, LF line endings and a trailing LF
    lines = [header] + [",".join([f"{row[0]}"] + [f"{x:.12g}" for x in row[1:]]) for row in rows]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [
    -0.0, 5e-324, 1e-300, 1 / 3, 0.1, 1.0, 1e16, 123456789012.5,
    float("inf"), -float("inf"), float("nan"),
]
EDGE_ROWS = [(f"s{i}", a, b) for i, (a, b) in enumerate(zip(EDGE_FLOATS, EDGE_FLOATS[::-1]))]
any_float = st.floats(allow_nan=True, allow_infinity=True)
zero_or_any_float = st.one_of(st.sampled_from([0.0, -0.0]), any_float)


@st.composite
def curve_series(draw):
    # (name, support, values) series whose names hold '%' and NUL, and whose
    # supports are a shared base, the base with each zero's sign flipped, or
    # their own
    base = draw(st.lists(zero_or_any_float, min_size=2, max_size=8))
    supports = {"shared": base, "flipped": [-x if x == 0.0 else x for x in base]}
    series = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["shared", "flipped", "own"]))
        support = supports.get(kind) or draw(
            st.lists(zero_or_any_float, min_size=2, max_size=8)
        )
        values = draw(st.lists(any_float, min_size=len(support), max_size=len(support)))
        name = draw(st.text()) + "%s\0" + draw(st.text()) + "%"
        series.append((name, np.array(support), np.array(values)))
    return series


class TestFunctionalSpec:
    def test_sqrt_builtin(self):
        c = FunctionalSpec.sqrt()
        assert c(0.25) == 0.5
        np.testing.assert_allclose(c(np.array([0.0, 1.0])), [0.0, 1.0])

    def test_tabulated_linear_interpolation(self):
        c = FunctionalSpec.tabulated([0.0, 0.5, 1.0], [0.0, 0.4, 0.5])
        assert abs(c(0.25) - 0.2) <= 1e-15

    def test_tabulated_rejects_convex(self):
        grid = np.linspace(0.0, 1.0, 21)
        with pytest.raises(DomainError):
            FunctionalSpec.tabulated(grid, grid**2)

    def test_tabulated_accepts_concave(self):
        grid = np.linspace(0.0, 1.0, 101)
        FunctionalSpec.tabulated(grid, np.sqrt(grid))
        FunctionalSpec.tabulated(grid, grid * (1.0 - grid))

    def test_sqrt_concavity_midpoint_property(self):
        rng = np.random.default_rng(1)
        c = FunctionalSpec.sqrt()
        for _ in range(200):
            u, v = rng.uniform(0.0, 1.0, 2)
            assert c((u + v) / 2.0) >= (c(u) + c(v)) / 2.0 - 1e-12

    def test_tabulated_rejects_non_finite_values(self):
        with pytest.raises(DomainError, match="must be finite"):
            FunctionalSpec.tabulated([0.0, 0.5, 1.0], [0.0, np.nan, 0.5])

    def test_tabulated_rejects_a_grid_that_does_not_increase(self):
        with pytest.raises(StructuralError, match="strictly increasing"):
            FunctionalSpec.tabulated([0.0, 0.5, 0.5, 1.0], [0.0, 0.4, 0.4, 0.5])

    def test_tabulated_grid_must_cover_unit_interval(self):
        with pytest.raises(DomainError):
            FunctionalSpec.tabulated([0.1, 0.5, 1.0], [0.0, 0.2, 0.3])
        with pytest.raises(DomainError):
            FunctionalSpec.tabulated([0.0, 0.5, 0.9], [0.0, 0.2, 0.3])

    def test_unknown_id_rejected(self):
        with pytest.raises(DomainError):
            FunctionalSpec.from_id("cube")


class TestFunctionalMean:
    def test_identity_tabulated_equals_mean(self):
        rng = np.random.default_rng(2)
        identity = FunctionalSpec.tabulated([0.0, 1.0], [0.0, 1.0])
        for _ in range(50):
            n = int(rng.integers(1, 9))
            d = random_dist(rng, n)
            curve = PosteriorCurve(d.support, random_values(rng, n))
            assert abs(functional_mean(d, curve, identity) - mean_under(d, curve)) <= 1e-15

    def test_example_source_sqrt(self, example_scenario):
        value = functional_mean(
            example_scenario.source.feature_dist,
            example_scenario.source.posterior,
            FunctionalSpec.sqrt(),
        )
        assert abs(value - REFERENCE_TABLE["Source"][2]) <= CELL_TOL

    def test_constant_curve_attains_upper_bound(self):
        rng = np.random.default_rng(3)
        d = random_dist(rng, 5)
        q = 0.07
        curve = PosteriorCurve(d.support, np.full(5, q))
        value = functional_mean(d, curve, FunctionalSpec.sqrt())
        assert abs(value - np.sqrt(q)) <= 1e-12

    def test_mismatched_support(self):
        d = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        curve = PosteriorCurve([0.0, 2.0], [0.5, 0.5])
        with pytest.raises(StructuralError):
            functional_mean(d, curve, FunctionalSpec.sqrt())


class TestFunctionalBounds:
    def test_sqrt_bounds_for_example_prior(self):
        lower, upper = functional_bounds(0.05, FunctionalSpec.sqrt())
        assert abs(lower - 0.05) <= 1e-15
        assert abs(upper - np.sqrt(0.05)) <= 1e-15
        assert abs(upper - 0.2236) <= 1e-4

    def test_identity_collapses(self):
        identity = FunctionalSpec.tabulated([0.0, 1.0], [0.0, 1.0])
        lower, upper = functional_bounds(0.3, identity)
        assert abs(lower - 0.3) <= 1e-15
        assert abs(upper - 0.3) <= 1e-15

    def test_parabola_with_zero_endpoints(self):
        q = 0.31
        grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101), [q]]))
        parabola = FunctionalSpec.tabulated(grid, grid * (1.0 - grid))
        lower, upper = functional_bounds(q, parabola)
        assert abs(lower) <= 1e-15
        assert abs(upper - q * (1.0 - q)) <= 1e-12

    def test_invalid_prior(self):
        with pytest.raises(DomainError):
            functional_bounds(0.0, FunctionalSpec.sqrt())

    def test_jensen_bounds_hold_for_example_results(self, example_scenario, example_results):
        c = FunctionalSpec.sqrt()
        q = example_scenario.target.prior
        lower, upper = functional_bounds(q, c)
        for result in example_results:
            value = functional_mean(example_scenario.target.feature_dist, result.posterior, c)
            assert lower - 1e-10 <= value <= upper + 1e-10, result.method


class TestResultsTable:
    def test_empty_results_source_row_only(self, example_scenario):
        table = build_results_table(
            example_scenario.source, example_scenario.target, [], FunctionalSpec.sqrt()
        )
        assert len(table.rows) == 1
        assert table.rows[0].label == "Source"

    def test_example_table_matches_reference(self, example_scenario, example_results):
        table = build_results_table(
            example_scenario.source, example_scenario.target, example_results, FunctionalSpec.sqrt()
        )
        assert len(table.rows) == 9
        for row in table.rows:
            expected = REFERENCE_TABLE[row.label]
            assert abs(row.mean_probs - expected[0]) <= CELL_TOL, row.label
            assert abs(row.auc - expected[1]) <= CELL_TOL, row.label
            assert abs(row.mean_functional - expected[2]) <= CELL_TOL, row.label

    def test_row_order_is_fixed(self, example_scenario, example_results):
        table = build_results_table(
            example_scenario.source, example_scenario.target, list(reversed(example_results)),
            FunctionalSpec.sqrt(),
        )
        assert [row.label for row in table.rows] == list(REFERENCE_TABLE)

    def test_single_method_off_target_flagged_by_value(self, example_scenario):
        from recal import label_shift_correct

        result = label_shift_correct(example_scenario.source, example_scenario.target)
        table = build_results_table(
            example_scenario.source, example_scenario.target, [result], FunctionalSpec.sqrt()
        )
        assert len(table.rows) == 2
        assert table.rows[1].label == "Label shift"
        assert abs(table.rows[1].mean_probs - 0.060) <= CELL_TOL

    def test_values_recomputable(self, example_scenario, example_results):
        c = FunctionalSpec.sqrt()
        table = build_results_table(
            example_scenario.source, example_scenario.target, example_results, c
        )
        by_label = {row.label: row for row in table.rows}
        for result in example_results:
            from recal import DISPLAY_LABELS, implied_auc

            row = by_label[DISPLAY_LABELS[result.method]]
            tgt = example_scenario.target
            assert abs(row.mean_probs - mean_under(tgt.feature_dist, result.posterior)) <= 1e-12
            assert abs(row.auc - implied_auc(tgt.feature_dist, result.posterior)) <= 1e-12
            assert (
                abs(row.mean_functional - functional_mean(tgt.feature_dist, result.posterior, c))
                <= 1e-12
            )

    def test_duplicate_method_rejected(self, example_scenario, example_results):
        with pytest.raises(StructuralError):
            build_results_table(
                example_scenario.source,
                example_scenario.target,
                [example_results[0], example_results[0]],
                FunctionalSpec.sqrt(),
            )

    def test_undefined_source_auc_names_the_source_row(self):
        """A source whose posterior mean rounds to 1 has no AUC, although
        capped scaling returns a result on it."""
        sc = scenario_from_dict(METHOD_REPROS["platt_source_mean_rounds_to_1"][1])
        result = capped_scaling(sc.source, sc.target)
        with pytest.raises(
            DegenerateClassError, match="^results table: Source row: posterior mean 1.0 "
        ):
            build_results_table(sc.source, sc.target, [result], FunctionalSpec.sqrt())

    def test_mixed_support_rejected(self, example_scenario, example_results):
        other = TargetSpec(
            DiscreteScoreDist(np.arange(17, dtype=float) + 0.5, np.full(17, 1.0 / 17.0)),
            0.05,
        )
        with pytest.raises(StructuralError):
            build_results_table(
                example_scenario.source, other, example_results, FunctionalSpec.sqrt()
            )

    def test_display_rounds_to_three_decimals(self, example_scenario, example_results):
        table = build_results_table(
            example_scenario.source, example_scenario.target, example_results, FunctionalSpec.sqrt()
        )
        text = format_table(table)
        lines = text.strip().split("\n")
        assert lines[0].split()[:2] == ["method", "mean_probs"]
        assert len(lines) == 10
        source_line = lines[1].split()
        assert source_line[-3:] == ["0.010", "0.802", "0.084"]

    def test_csv_format(self, example_scenario, example_results):
        table = build_results_table(
            example_scenario.source, example_scenario.target, example_results, FunctionalSpec.sqrt()
        )
        text = table_to_csv(table)
        lines = text.split("\n")
        assert lines[0] == "method,mean_probs,auc,mean_functional"
        assert lines[-1] == ""  # trailing LF
        assert "\r" not in text
        first = lines[1].split(",")
        assert first[0] == "Source"
        # 12 significant digits survive a round trip at 1e-11 relative error
        assert abs(float(first[2]) - table.rows[0].auc) <= 1e-11

    def test_csv_matches_reference_on_edge_values(self):
        rows = [(label, a, b, a) for label, a, b in EDGE_ROWS]
        table = ResultsTable(tuple(TableRow(*row) for row in rows))
        assert table_to_csv(table) == reference_csv(
            "method,mean_probs,auc,mean_functional", rows
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(), any_float, any_float, any_float)))
    def test_csv_matches_reference(self, rows):
        table = ResultsTable(tuple(TableRow(*row) for row in rows))
        assert table_to_csv(table) == reference_csv(
            "method,mean_probs,auc,mean_functional", rows
        )


class TestExportCurves:
    def test_duplicate_method_rejected(self, example_scenario, example_results):
        with pytest.raises(StructuralError, match="duplicate result for method capped_scaling"):
            export_curves(
                example_scenario.source,
                example_scenario.target,
                [example_results[0], example_results[0]],
            )

    def test_posterior_off_target_support_rejected(self, example_scenario, example_results):
        result = example_results[0]
        curve = result.posterior
        shifted = replace(
            result, posterior=PosteriorCurve(curve.support + 0.5, curve.values)
        )
        with pytest.raises(StructuralError, match="target and result posterior"):
            export_curves(example_scenario.source, example_scenario.target, [shifted])

    def test_series_inventory_without_results(self, example_scenario):
        series = export_curves(example_scenario.source, example_scenario.target, [])
        assert {name for name, _, _ in series} == {"source_pmf", "target_pmf", "posterior_source"}
        assert len(series) == 3
        assert all(support.size == values.size == 17 for _, support, values in series)

    def test_full_run_series_count(self, example_scenario, example_results):
        series = export_curves(example_scenario.source, example_scenario.target, example_results)
        assert len({name for name, _, _ in series}) == len(series) == 11
        assert all(support.size == values.size == 17 for _, support, values in series)

    def test_posterior_series_positive_for_log_scale(self, example_scenario, example_results):
        series = export_curves(example_scenario.source, example_scenario.target, example_results)
        for name, _, values in series:
            if name.startswith("posterior_"):
                assert np.all(values > 0.0), name

    def test_rows_match_elementwise_reference(self, example_scenario, example_results):
        src, tgt = example_scenario.source, example_scenario.target
        expected = [
            ("source_pmf", src.support, src.feature_dist.probs),
            ("target_pmf", tgt.support, tgt.feature_dist.probs),
            ("posterior_source", src.support, src.posterior.values),
        ]
        by_method = {r.method: r for r in example_results}
        expected += [
            (f"posterior_{m.value}", by_method[m].posterior.support, by_method[m].posterior.values)
            for m in CANONICAL_ORDER
        ]
        series = export_curves(src, tgt, list(reversed(example_results)))
        assert [name for name, _, _ in series] == [name for name, _, _ in expected]
        for (_, support, values), (_, want_support, want_values) in zip(series, expected):
            assert support.tobytes() == want_support.tobytes()
            assert values.tobytes() == want_values.tobytes()

    @pytest.mark.parametrize(
        "make_row",
        [tuple, list, lambda row: (row[0], np.float64(row[1]), np.float64(row[2]))],
        ids=["tuple", "list", "np_float64"],
    )
    def test_csv_matches_reference_on_edge_values(self, make_row):
        rows = [make_row(row) for row in EDGE_ROWS]
        assert curves_to_csv(rows) == reference_csv("series,support,value", EDGE_ROWS)

    def test_csv_of_no_rows_is_the_header_line(self):
        assert curves_to_csv([]) == "series,support,value\n"

    def test_series_of_no_points_has_no_lines(self):
        empty = np.array([])
        series = [("a", empty, empty), ("b", [1.0], [2.0]), ("c", empty, empty)]
        assert curves_to_csv(series) == "series,support,value\nb,1,2\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(), any_float, any_float)))
    def test_csv_matches_reference(self, rows):
        assert curves_to_csv(rows) == reference_csv("series,support,value", rows)

    @settings(max_examples=200, deadline=None)
    @given(curve_series())
    def test_csv_of_series_matches_reference_on_rows(self, series):
        rows = [
            (name, s, v)
            for name, support, values in series
            for s, v in zip(support.tolist(), values.tolist())
        ]
        assert curves_to_csv(series) == reference_csv("series,support,value", rows)

    def test_series_length_mismatch_names_the_series(self):
        with pytest.raises(StructuralError, match="posterior_fjs"):
            curves_to_csv([("posterior_fjs", np.arange(3.0), np.ones(2))])

    def test_csv_rendering(self, example_scenario, example_results):
        series = export_curves(example_scenario.source, example_scenario.target, example_results)
        text = curves_to_csv(series)
        lines = text.split("\n")
        assert lines[0] == "series,support,value"
        assert len(lines) == 1 + sum(values.size for _, _, values in series) + 1
        assert lines[1].startswith("source_pmf,0,")


def csv_numbers(values):
    """The (support, value) cells of the curve CSV of one series whose
    support and values are both ``values``."""
    x = np.asarray(values, dtype=float)
    return [line.split(",")[1:] for line in curves_to_csv([("", x, x)]).split("\n")[1:-1]]


def assert_numbers_match_percent_format(values):
    for v, cells in zip(np.asarray(values, dtype=float).tolist(), csv_numbers(values)):
        assert cells == ["%.12g" % v] * 2, v


@st.composite
def decimal_ties(draw):
    # odd / 2**m is odd * 5**m * 10**-m exactly: with odd * 5**m of 13 digits
    # (ending in 5) it lies halfway between two 12-digit decimals
    m = draw(st.integers(1, 18))
    odd = draw(st.integers(-(-10**12 // 5**m) // 2, (10**13 - 1) // 5**m // 2)) * 2 + 1
    return odd / 2**m


kernel_floats = st.builds(
    lambda v, negative: -v if negative else v,
    st.one_of(
        st.floats(1e-11, 1e12, exclude_max=True),
        decimal_ties(),
        st.builds(
            lambda p, way: float(np.nextafter(10.0**p, way)),
            st.integers(-12, 12), st.sampled_from([0.0, 10.0**13]),
        ),
        st.sampled_from([10.0**p for p in range(-12, 13)] + [999999999999.5]),
        any_float,
    ),
    st.booleans(),
)


class TestCurveTextMemory:
    def test_peak_is_the_text_and_one_block(self):
        """The text grows by one block at a time, resized in place, so
        tracemalloc's peak over the export of 6 series of 65,537 points stays
        within 1.5 times the text; joining the blocks held both, ~2.15 times."""
        support = np.linspace(-3.0, 3.0, 65_537)
        rng = np.random.default_rng(25)
        names = ["source_pmf", "target_pmf", "posterior_source"]
        names += [f"posterior_{m}" for m in ("capped_scaling", "label_shift", "fjs")]
        series = [(name, support, rng.random(support.size)) for name in names]
        tracemalloc.start()
        try:
            text = curves_to_csv(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 18_000_000
        assert peak <= 1.5 * len(text)


class TestCurveNumbers:
    """The curve CSV's vectorised rendering against ``"%.12g" % x``."""

    def test_ties_powers_of_ten_and_the_carry(self):
        values = [999999999999.5, 99999999999.95, 0.5, 2.5, 1e-11, 1e12, 12.5, 100.0, 1e-5]
        values += [float(np.nextafter(10.0**p, w)) for p in range(-12, 13) for w in (0.0, 1e13)]
        assert_numbers_match_percent_format(values + [-v for v in values])
        assert csv_numbers([999999999999.5])[0] == ["1e+12", "1e+12"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(kernel_floats, min_size=1, max_size=40))
    def test_matches_percent_format(self, values):
        assert_numbers_match_percent_format(values)

    def test_seeded_sweep_of_the_whole_exponent_range(self):
        rng = np.random.default_rng(24)
        n = 60_000
        values = np.concatenate([
            np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 1025, n)),
            np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-37, 41, n)),
            rng.integers(1, 10**12, n) * 10.0 ** rng.integers(-23, 1, n),
        ])
        values[rng.random(values.size) < 0.5] *= -1.0
        # every bit pattern: both signs, subnormals, infinities and NaNs
        values = np.concatenate([values, rng.integers(0, 2**64, n, dtype=np.uint64).view(float)])
        text = curves_to_csv([("", values, values)])
        assert text == reference_csv("series,support,value", [("", v, v) for v in values.tolist()])

    def test_csv_of_the_large_support_is_byte_identical(self):
        support = np.linspace(-3.0, 3.0, 65_537)
        # 5,778 points are exact ties at 12 digits, rounded half to even
        digits = (Decimal(v).normalize().as_tuple().digits for v in support.tolist())
        assert sum(len(d) == 13 and d[-1] == 5 for d in digits) == 5_778
        pmf = np.exp(-0.5 * support**2)
        series = [
            ("source_pmf", support, pmf / pmf.sum()),
            ("posterior_source", support, 1.0 / (1.0 + np.exp(-1.2 * support + 2.0))),
            ("support", support, support),
        ]
        rows = [(name, s, v) for name, x, y in series for s, v in zip(x.tolist(), y.tolist())]
        assert curves_to_csv(series) == reference_csv("series,support,value", rows)

    def test_csv_of_the_worked_example_is_byte_identical(self, example_scenario, example_results):
        series = export_curves(example_scenario.source, example_scenario.target, example_results)
        # each of the 1,320 copies is a block of its own; a 100,000-character
        # name makes blocks of 10 lines, so its 17 points span two blocks
        series = [(f"{name}{i}", s, v) for i in range(120) for name, s, v in series]
        series.append(("n" * 100_000, series[0][1], series[0][2]))
        rows = [(name, s, v) for name, x, y in series for s, v in zip(x.tolist(), y.tolist())]
        assert curves_to_csv(series) == reference_csv("series,support,value", rows)
