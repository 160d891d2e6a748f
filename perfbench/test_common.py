"""Tests of the op log (``python3 -m pytest perfbench``)."""

from __future__ import annotations

import pytest

from common import Intervals, Outcome


def test_intervals_keep_pairs_without_growing():
    log = Intervals(4)
    size = log.starts.buffer_info()[1], log.ends.buffer_info()[1]
    log.append(1.0, 1.5)
    log.append(2.0, 2.25)
    assert list(log) == [(1.0, 1.5), (2.0, 2.25)]
    assert len(log) == 2 and log.room() == 2
    assert (log.starts.buffer_info()[1], log.ends.buffer_info()[1]) == size


def test_a_full_log_refuses_more_pairs():
    log = Intervals(1)
    log.append(0.0, 1.0)
    assert log.room() == 0
    with pytest.raises(IndexError):
        log.append(1.0, 2.0)


def test_busy_time_is_the_ops_own_unless_given_its_own_log():
    serial, pooled = Outcome(8), Outcome(8, 2)
    assert serial.busy is serial.latencies
    assert pooled.busy is not pooled.latencies and pooled.busy.room() == 2
