"""Tests for ASCII chart rendering and CSV/markdown export."""

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import (
    bar_chart,
    grouped_bar_chart,
    suite_chart,
    suite_to_csv,
    suite_to_markdown,
    to_csv,
    to_markdown,
)


class TestBarChart:
    def test_longest_bar_belongs_to_max(self):
        chart = bar_chart(["a", "b", "c"], [1.0, 3.0, 2.0])
        rows = chart.splitlines()
        widths = {row[0]: row.count("█") for row in rows}
        assert widths["b"] == max(widths.values())
        assert widths["a"] < widths["c"] < widths["b"]

    def test_title_and_values_shown(self):
        chart = bar_chart(["x"], [2.5], title="My chart")
        assert chart.startswith("My chart")
        assert "2.500" in chart

    def test_zero_and_negative_values_render_empty_bars(self):
        chart = bar_chart(["z", "n"], [0.0, -1.0], vmax=1.0)
        assert "█" not in chart

    def test_shared_axis_via_vmax(self):
        a = bar_chart(["x"], [1.0], vmax=4.0, width=40)
        b = bar_chart(["x"], [2.0], vmax=4.0, width=40)
        assert a.count("█") * 2 == b.count("█")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0], width=0)

    def test_empty_chart(self):
        assert bar_chart([], [], title="t") == "t"

    @given(
        values=st.lists(
            st.floats(min_value=0.01, max_value=100, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40)
    def test_bar_width_monotone_in_value(self, values):
        labels = [f"l{i}" for i in range(len(values))]
        rows = bar_chart(labels, values, width=60).splitlines()
        widths = [row.count("█") for row in rows]
        order = sorted(range(len(values)), key=lambda i: values[i])
        for a, b in zip(order, order[1:]):
            assert widths[a] <= widths[b]


class TestGroupedBarChart:
    def test_rows_per_label_equals_series_count(self):
        chart = grouped_bar_chart(
            ["w1", "w2"], {"s1": [1, 2], "s2": [3, 4]}
        )
        assert len(chart.splitlines()) == 4

    def test_baseline_relative_rendering(self):
        """With baseline=1.0, a 1.02 bar is much shorter than a 1.30 bar."""
        chart = grouped_bar_chart(
            ["w"], {"small": [1.02], "big": [1.30]}, baseline=1.0, width=56
        )
        small_row, big_row = chart.splitlines()
        assert small_row.count("█") < big_row.count("█") / 3

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grouped_bar_chart(["a", "b"], {"s": [1.0]})


class TestCsv:
    def test_round_trips_through_csv_module(self):
        text = to_csv(["a", "b"], [["x,y", 'has "quotes"'], ["plain", 2]])
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed == [["a", "b"], ["x,y", 'has "quotes"'], ["plain", "2"]]

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            to_csv(["a", "b"], [["only-one"]])

    @given(
        cells=st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=12,
            ),
            min_size=2,
            max_size=2,
        )
    )
    @settings(max_examples=40)
    def test_any_text_round_trips(self, cells):
        # csv.reader treats \r\n as one line ending; normalize like csv does.
        text = to_csv(["h1", "h2"], [cells])
        parsed = list(csv.reader(io.StringIO(text)))
        expected = [c.replace("\r\n", "\n") for c in cells]
        assert [c.replace("\r\n", "\n") for c in parsed[1]] == expected


class TestMarkdown:
    def test_structure(self):
        md = to_markdown(["h1", "h2"], [["a", "b"]])
        lines = md.splitlines()
        assert lines[0] == "| h1 | h2 |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| a | b |"

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            to_markdown(["a"], [["x", "y"]])


class TestSuiteExports:
    @pytest.fixture(scope="class")
    def results(self):
        from repro.experiments.common import DEFAULT_SCHEMES, evaluate_suite
        from repro.workloads.spec import make_spec_trace

        traces = [make_spec_trace("mcf", "inp", 6000)]
        return evaluate_suite(traces, schemes={"triangel": DEFAULT_SCHEMES["triangel"]})

    def test_csv_has_geomean_row(self, results):
        text = suite_to_csv(results, "speedup")
        assert text.splitlines()[0] == "workload,triangel"
        assert text.splitlines()[-1].startswith("geomean,")

    def test_markdown_renders(self, results):
        md = suite_to_markdown(results, "traffic")
        assert md.startswith("| workload | triangel |")

    def test_chart_renders_all_workloads(self, results):
        chart = suite_chart(results, "speedup", title="spd")
        assert "mcf_inp" in chart and chart.startswith("spd")

    def test_unknown_metric_raises(self, results):
        with pytest.raises(AttributeError):
            suite_to_csv(results, "nonsense")
