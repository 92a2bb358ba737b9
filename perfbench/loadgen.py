"""Seeded open-loop Poisson load for the serving workloads.

An open loop sends every request at its scheduled time whether or not
earlier requests have finished, so a stall shows up as queueing instead of
silently lowering the offered load.  Latency is therefore measured from each
request's *due* time, not from when it was actually submitted: a generator
that falls behind (GIL contention, a slow ``submit``) charges its lateness to
the requests it delays, which keeps the numbers safe from coordinated
omission.  One thread submits everything; completions are stamped by a
callback on the request's future.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def poisson_schedule(
    rate_per_s: float, seconds: float, rng: np.random.Generator
) -> np.ndarray:
    """Send offsets (seconds from the start) of a Poisson stream.

    The stream is conditioned on its count: exactly ``round(rate * seconds)``
    arrivals, placed as sorted uniform draws on ``[0, seconds)``, which is
    the distribution of a Poisson process given its number of events.  Fixing
    the count keeps the offered load identical across seeds, so run-to-run
    spread reflects the server rather than the draw.
    """
    if rate_per_s <= 0 or seconds <= 0:
        raise ValueError("rate and duration must be positive")
    count = max(1, round(rate_per_s * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=count))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``; NaN when empty."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        return float("nan")
    return float(np.percentile(data, q))


@dataclass
class OpenLoopResult:
    """What one open-loop run observed, all times in seconds."""

    due: np.ndarray  # absolute due instants (clock of the run)
    sent: np.ndarray  # when submit() was entered
    submit_s: np.ndarray  # time spent inside submit()
    done: np.ndarray  # completion instants; NaN when the request never finished
    ok: np.ndarray  # bool: completed and produced a result
    outcomes: list = field(default_factory=list)  # whatever submit() returned
    backlog_at_end: int = 0  # requests sent but unfinished when the last was sent

    @property
    def latency_s(self) -> np.ndarray:
        """Due-to-completion latency per request (NaN when unfinished)."""
        return self.done - self.due

    @property
    def late_s(self) -> np.ndarray:
        """How late the generator entered ``submit`` for each request."""
        return self.sent - self.due


class OpenLoopGenerator:
    """Submit requests on a fixed schedule from one thread.

    ``submit(index)`` must start request ``index`` and return a handle;
    ``attach(index, handle, on_done)`` must arrange for ``on_done(ok)`` to be
    called once when that request finishes (``ok`` false for errors and
    refusals).  ``clock``/``sleep`` are injectable so the accounting can be
    tested without real time passing.
    """

    def __init__(
        self,
        submit: Callable[[int], object],
        attach: Callable[[int, object, Callable[[bool], None]], None],
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._submit = submit
        self._attach = attach
        self._clock = clock
        self._sleep = sleep

    def run(self, offsets: np.ndarray, drain_timeout_s: float = 60.0) -> OpenLoopResult:
        """Send request ``i`` at ``start + offsets[i]``, then wait for all."""
        n = len(offsets)
        due = np.empty(n)
        sent = np.empty(n)
        submit_s = np.empty(n)
        done = np.full(n, np.nan)
        ok = np.zeros(n, dtype=bool)
        outcomes: list = [None] * n
        remaining = [n]
        all_done = threading.Event()
        lock = threading.Lock()
        if n == 0:
            all_done.set()

        def finisher(index: int) -> Callable[[bool], None]:
            def on_done(success: bool) -> None:
                stamp = self._clock()
                with lock:
                    if not np.isnan(done[index]):
                        return
                    done[index] = stamp
                    ok[index] = success
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        all_done.set()

            return on_done

        start = self._clock()
        for index in range(n):
            due[index] = start + float(offsets[index])
            wait = due[index] - self._clock()
            if wait > 0:
                self._sleep(wait)
            sent[index] = self._clock()
            try:
                handle = self._submit(index)
            except Exception as error:  # a refused submit is a failed request
                submit_s[index] = self._clock() - sent[index]
                outcomes[index] = error
                finisher(index)(False)
                continue
            submit_s[index] = self._clock() - sent[index]
            outcomes[index] = handle
            self._attach(index, handle, finisher(index))
        with lock:
            backlog = remaining[0]
        all_done.wait(drain_timeout_s)
        with lock:  # late callbacks may still be writing
            done, ok = done.copy(), ok.copy()
        return OpenLoopResult(
            due=due,
            sent=sent,
            submit_s=submit_s,
            done=done,
            ok=ok,
            outcomes=outcomes,
            backlog_at_end=backlog,
        )
