"""The non-fused heap event loop: the simulator's ordering reference.

:class:`HeapSimulator` differs from the production
:class:`~repro.simkit.sim.Simulator` only in how timeouts fire: a
timeout schedules its own ``Event.succeed`` as a plain heap action, and
the run loops execute every popped action by calling it.  The production
loop's fused dispatch (the heap entry is the event, triggered in place)
must reproduce this execution order exactly;
``tests/test_simkit_event_order.py`` checks that over seeded random
process programs.
"""

from __future__ import annotations

import heapq
import typing

from repro.simkit.events import _FAILED, _PENDING, Event
from repro.simkit.sim import Simulator

__all__ = ["HeapSimulator"]

_INF = float("inf")


class HeapSimulator(Simulator):
    """A :class:`Simulator` whose timeouts schedule ``Event.succeed``."""

    __slots__ = ()

    def timeout(self, delay: float, value: object = None) -> Event:
        """An event that succeeds *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"negative timeout {delay!r}")
        event = Event(self, name="timeout")
        # The bound method is the scheduled action when there is no
        # value to deliver (the common case) — no closure allocation.
        heapq.heappush(self._queue, (
            self._now + delay, next(self._sequence),
            event.succeed if value is None
            else lambda: event.succeed(value)))
        return event

    def timeout_at(self, at: float, value: object = None) -> Event:
        """An event that succeeds at the absolute time *at*."""
        if at < self._now:
            raise ValueError(f"timeout_at({at!r}) is in the past "
                             f"(now={self._now!r})")
        event = Event(self, name="timeout")
        heapq.heappush(self._queue, (
            at, next(self._sequence),
            event.succeed if value is None
            else lambda: event.succeed(value)))
        return event

    def run(self, until: float | Event | None = None) -> object:
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = _INF if until is None else float(until)
        if deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        self._run_slow(deadline)
        if deadline != _INF:
            self._now = deadline
        return None

    def _run_slow(self, deadline: float) -> None:
        """The reference run loop: binary heap, no fused dispatch."""
        queue, ripe, heappop = self._queue, self._ripe, heapq.heappop
        while True:
            if ripe:
                # A heap entry at the current instant with a smaller
                # sequence number predates the deque head: run it first.
                if queue and queue[0][0] <= self._now \
                        and queue[0][1] < ripe[0][0]:
                    self._now, _, action = heappop(queue)
                else:
                    _, action = ripe.popleft()
            elif queue and queue[0][0] <= deadline:
                self._now, _, action = heappop(queue)
            else:
                break
            action()

    def _run_until_event(self, event: Event) -> object:
        queue, ripe, heappop = self._queue, self._ripe, heapq.heappop
        while event._state is _PENDING:
            if ripe:
                if queue and queue[0][0] <= self._now \
                        and queue[0][1] < ripe[0][0]:
                    self._now, _, action = heappop(queue)
                else:
                    _, action = ripe.popleft()
            elif queue:
                self._now, _, action = heappop(queue)
            else:
                raise RuntimeError(
                    f"simulation ran out of events before {event!r} triggered")
            action()
        # Drain same-instant dispatches so callbacks at this time complete.
        while ripe or (queue and queue[0][0] <= self._now):
            if ripe and not (queue and queue[0][0] <= self._now
                             and queue[0][1] < ripe[0][0]):
                _, action = ripe.popleft()
            else:
                self._now, _, action = heappop(queue)
            action()
        if event._state is _FAILED:
            raise typing.cast(BaseException, event.value)
        return event.value
