"""Tests of the percentile helper (``python3 -m pytest perfbench``)."""

from __future__ import annotations

import pytest

from stats import MIN_BEYOND, InsufficientSamples, min_samples, percentile


def test_nearest_rank_values():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(reversed(values), 90) == 90


def test_p90_needs_one_hundred_samples():
    assert percentile(range(100), 90) == 89
    with pytest.raises(InsufficientSamples, match="need 10"):
        percentile(range(99), 90)


def test_p99_needs_one_thousand_samples():
    assert percentile(range(1000), 99) == 989
    with pytest.raises(InsufficientSamples):
        percentile(range(999), 99)


def test_p50_needs_twenty_samples():
    assert percentile(range(20), 50) == 9
    with pytest.raises(InsufficientSamples):
        percentile(range(19), 50)


@pytest.mark.parametrize("q", [50, 90, 99, 99.9, 75])
def test_min_samples_is_the_threshold(q):
    count = min_samples(q)
    percentile(range(count), q)
    with pytest.raises(InsufficientSamples):
        percentile(range(count - 1), q)


def test_at_least_min_beyond_samples_lie_above_the_result():
    values = [float(index) for index in range(250)]
    result = percentile(values, 90)
    assert sum(1 for value in values if value > result) >= MIN_BEYOND


@pytest.mark.parametrize("q", [0, 100, -1, 150])
def test_rejects_percentiles_outside_the_open_interval(q):
    with pytest.raises(ValueError):
        percentile(range(1000), q)


def test_empty_input_fails_loudly():
    with pytest.raises(InsufficientSamples):
        percentile([], 50)
