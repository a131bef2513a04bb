"""Load generators: closed loops (each caller waits for its reply before
sending again) and a fixed-rate open loop (requests fall due on a
schedule whether or not the system keeps up)."""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Sample:
    """One request: when it was due (open loop only; equals ``start`` in
    a closed loop), when it was sent, when its reply was complete."""

    index: int
    due: float
    start: float
    end: float
    ok: bool

    @property
    def latency(self) -> float:
        """Reply time counted from when the request was due — a stall
        charges every request queued behind it."""
        return self.end - self.due

    @property
    def service(self) -> float:
        return self.end - self.start

    @property
    def lateness(self) -> float:
        """How late the generator sent it."""
        return self.start - self.due


def _attempt(send: Callable[[int], bool], index: int) -> bool:
    try:
        return bool(send(index))
    except Exception:  # noqa: BLE001 - a failed request is a counted outcome
        return False


def closed_loop(
    senders: Sequence[Callable[[int], bool]],
    ops_per_sender: int,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[float, list[Sample]]:
    """Run one closed loop per sender, each on its own thread (inline for
    a single sender), released together.  ``send(i)`` returns whether the
    reply was acceptable; an exception counts as a failure.  Returns the
    common start time and every sample."""
    samples: list[list[Sample]] = [[] for _ in senders]

    def loop(slot: int) -> None:
        send = senders[slot]
        for i in range(ops_per_sender):
            index = slot * ops_per_sender + i
            start = clock()
            ok = _attempt(send, index)
            samples[slot].append(Sample(index, start, start, clock(), ok))

    if len(senders) == 1:
        started = clock()
        loop(0)
        return started, samples[0]
    barrier = threading.Barrier(len(senders) + 1)

    def released(slot: int) -> None:
        barrier.wait()
        loop(slot)

    threads = [
        threading.Thread(
            target=released, args=(slot,), name=f"perfbench-closed-{slot}"
        )
        for slot in range(len(senders))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = clock()
    for thread in threads:
        thread.join()
    return started, [s for per_sender in samples for s in per_sender]


class OpenLoop:
    """A fixed-rate schedule shared by the sender threads: request ``i``
    is due at ``t0 + i / rate``; whichever sender is free takes the next
    one, waits until it is due, and sends it."""

    def __init__(
        self,
        total: int,
        rate: float,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.total = total
        self.rate = rate
        self.clock = clock
        self.sleep = sleep
        self.t0 = 0.0
        self.samples: list[Sample] = []
        self._next = 0
        self._lock = threading.Lock()

    @property
    def nominal_end(self) -> float:
        return self.t0 + self.total / self.rate

    def _take(self) -> int | None:
        with self._lock:
            if self._next >= self.total:
                return None
            index = self._next
            self._next += 1
            return index

    def drain(self, send: Callable[[int], bool]) -> None:
        """One sender's loop: take, wait until due, send, record."""
        while (index := self._take()) is not None:
            due = self.t0 + index / self.rate
            wait = due - self.clock()
            if wait > 0:
                self.sleep(wait)
            start = self.clock()
            ok = _attempt(send, index)
            sample = Sample(index, due, start, self.clock(), ok)
            with self._lock:
                self.samples.append(sample)

    def run(self, senders: Sequence[Callable[[int], bool]]) -> list[Sample]:
        self.t0 = self.clock()
        if len(senders) == 1:
            self.drain(senders[0])
        else:
            threads = [
                threading.Thread(
                    target=self.drain, args=(send,), name=f"perfbench-open-{slot}"
                )
                for slot, send in enumerate(senders)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self.samples.sort(key=lambda s: s.index)
        return self.samples

    def backlog_end(self) -> int:
        """Requests already due but not yet sent when the schedule
        nominally ended — 0 for a system that kept up."""
        end = self.nominal_end
        return sum(1 for s in self.samples if s.start > end)
