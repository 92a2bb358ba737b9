"""Unit tests for the benchmark's load generator and metric catalogue.

Run with ``python3 -m pytest perfbench -q`` from the repository root.  No
test here sleeps: the generator runs on a fake clock.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from catalogue import END_TO_END, PER_LAYER
from loadgen import OpenLoopGenerator, poisson_schedule


class FakeClock:
    """A clock that only moves when something sleeps or does work."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_schedule_is_deterministic_per_seed():
    first = poisson_schedule(300.0, 10.0, np.random.default_rng(7))
    again = poisson_schedule(300.0, 10.0, np.random.default_rng(7))
    other = poisson_schedule(300.0, 10.0, np.random.default_rng(8))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_schedule_has_fixed_count_sorted_within_window():
    offsets = poisson_schedule(20.0, 15.0, np.random.default_rng(1))
    assert len(offsets) == 300
    assert np.all(np.diff(offsets) >= 0)
    assert offsets[0] >= 0.0 and offsets[-1] < 15.0


def test_schedule_gaps_look_exponential():
    offsets = poisson_schedule(1000.0, 100.0, np.random.default_rng(3))
    gaps = np.diff(offsets)
    assert gaps.mean() == pytest.approx(1e-3, rel=0.05)
    assert gaps.std() == pytest.approx(gaps.mean(), rel=0.1)  # CV of 1


def test_schedule_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        poisson_schedule(0.0, 1.0, np.random.default_rng(0))


def test_latency_is_measured_from_the_due_time():
    """A slow submit delays later requests; their latency must include it."""
    clock = FakeClock()
    offsets = np.array([0.0, 0.1, 0.2])
    pending = []

    def submit(index):
        clock.now += 0.5 if index == 0 else 0.001  # request 0 stalls the caller
        return index

    def attach(index, handle, on_done):
        pending.append(on_done)
        if index == len(offsets) - 1:  # all sent: everything completes 10 ms later
            clock.now += 0.010
            for finish in pending:
                finish(True)

    generator = OpenLoopGenerator(submit, attach, clock=clock, sleep=clock.sleep)
    result = generator.run(offsets, drain_timeout_s=0.0)

    start = 100.0
    assert np.allclose(result.due, start + offsets)
    # Requests 1 and 2 were due at 0.1 s and 0.2 s but could only be sent
    # after request 0's 0.5 s submit returned.
    assert result.late_s[0] == pytest.approx(0.0)
    assert result.late_s[1] == pytest.approx(0.4)
    assert result.late_s[2] == pytest.approx(0.301)
    assert result.submit_s[0] == pytest.approx(0.5)
    done_at = start + 0.5 + 0.001 + 0.001 + 0.010
    assert np.allclose(result.done, done_at)
    assert np.allclose(result.latency_s, done_at - result.due)
    assert result.ok.all()
    assert result.backlog_at_end == 0


def test_refused_and_unfinished_requests_are_failures():
    clock = FakeClock()

    def submit(index):
        if index == 1:
            raise RuntimeError("refused")
        return index

    def attach(index, handle, on_done):
        if index == 0:
            on_done(False)  # an error reply
        # request 2 never completes

    generator = OpenLoopGenerator(submit, attach, clock=clock, sleep=clock.sleep)
    result = generator.run(np.array([0.0, 0.01, 0.02]), drain_timeout_s=0.0)
    assert list(result.ok) == [False, False, False]
    assert not np.isnan(result.done[0]) and not np.isnan(result.done[1])
    assert np.isnan(result.done[2])
    assert isinstance(result.outcomes[1], RuntimeError)
    assert result.backlog_at_end == 1


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
