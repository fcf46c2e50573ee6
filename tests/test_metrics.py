"""Metrics helpers: statistics, report formatting."""

import pytest

from repro.metrics import (
    format_table,
    mean,
    median,
    stdev,
    summarize,
)


def test_mean_median_stdev():
    assert mean([1, 2, 3]) == 2
    assert median([1, 2, 3, 4]) == 2.5
    assert median([5]) == 5
    assert stdev([2, 2, 2]) == 0
    assert stdev([1]) == 0
    with pytest.raises(ValueError):
        mean([])


def test_summarize():
    summary = summarize([1.0, 2.0, 3.0])
    assert summary["count"] == 3
    assert summary["mean"] == 2.0
    assert summary["min"] == 1.0 and summary["max"] == 3.0


def test_format_table_aligns_and_handles_none():
    text = format_table(
        ["name", "value"],
        [["short", 1.5], ["a-much-longer-name", None]],
        title="Demo",
    )
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert "N/A" in text
    assert "1.500" in text


def test_format_table_large_and_small_numbers():
    text = format_table(["v"], [[123456.789], [0.0000123]])
    assert "1.23e" in text


def test_format_series():
    # a figure series is a titled two-column table
    text = format_table(["n", "seconds"], list(zip([1, 2], [10.0, 20.0])),
                        title="Fig X")
    assert "Fig X" in text
    assert "seconds" in text
