"""Deterministic discrete-event engine.

The engine orders events by ``(time, priority, sequence)``.  The sequence
number makes ordering fully deterministic: two events scheduled for the
same cycle with the same priority fire in the order they were scheduled.
Determinism matters here because the persistence machinery is full of
races (flush completions vs. new conflicting requests) and reproducible
experiments are a hard requirement for the benchmark harness.

Components never spin; they schedule a callback for the cycle at which a
hardware event (message arrival, NVRAM write completion, ...) would occur
and return.  Blocking behaviour (a core stalled on an online persist) is
expressed by simply not scheduling the continuation until the unblocking
event fires.

Implementation notes -- the two-tier queue:

* The dominant event class by far is the zero-delay continuation: every
  op transition in :mod:`repro.cpu.processor` re-schedules itself for
  the *current* cycle.  Routing those through a binary heap costs two
  O(log n) operations plus an :class:`Event` allocation per transition.
  Instead, same-cycle default-priority work goes into a plain FIFO
  *ready deque* that is drained before the heap is consulted.
* The drain preserves the exact ``(time, priority, seq)`` firing order:
  every ready entry carries key ``(now, 0, seq)``, the deque is FIFO in
  ``seq``, and the heap head (whose time is always ``>= now``) is fired
  first whenever its key sorts below the ready head's -- i.e. when it is
  at the current cycle with a negative priority or an older sequence
  number.  The clock only advances off the heap, so the ready deque can
  never hold entries from two different cycles.
* :meth:`Engine.call_soon` is the allocation-free entry to the ready
  deque (no :class:`Event`, no cancellation support); ``schedule(0,
  ...)`` with default priority is routed there too but still returns a
  cancellable :class:`Event`.
* Timed events keep the min-heap of ``(time, priority, seq, event)``
  tuples, so ordering resolves through C-level tuple comparison.
  Cancellation is lazy: a cancelled event stays queued until it reaches
  the head, where it is dropped.  A live-event counter keeps
  :meth:`Engine.pending` O(1), and when cancelled entries come to
  dominate a large heap the queue is compacted in place.
* ``REPRO_SLOW_ENGINE=1`` in the environment forces the pure-heap
  reference path (every event, including ``call_soon``, goes through
  the heap) and refuses fast-forward sessions (:meth:`ff_begin`).  The
  fast and reference paths fire callbacks in bit-identical order; the
  determinism-digest tests assert this across every persistency model.
* Every completion goes through the queues.  The one component allowed
  to advance the clock outside the dispatch loop is a fast-forward
  session, which merges its own virtual events against the queue heads
  in the loop's key order.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, List, Optional, Tuple

# Compact the heap when it holds more than this many entries and fewer
# than half of them are live.  Small heaps are never compacted; the
# rebuild would cost more than the dead entries it removes.
_COMPACT_MIN_SIZE = 64


def _slow_engine_requested() -> bool:
    return os.environ.get("REPRO_SLOW_ENGINE", "") not in ("", "0", "false")


def fast_paths_enabled() -> bool:
    """True unless ``REPRO_SLOW_ENGINE=1`` selected the reference mode.

    The flag gates every hot-path shortcut in the simulator, not just
    the engine's queues: the processor's attribute-held stat counters,
    the cache last-line memo and the machine's accounting hoists all
    fall back to their straightforward per-event reference
    implementations in slow mode.  That keeps the reference run an
    executable specification: the determinism-digest tests and
    ``python -m repro check`` assert the shortcuts change nothing.
    Read once at construction time, like :class:`Engine` does.
    """
    return not _slow_engine_requested()


@contextmanager
def reference_mode(slow: bool = True):
    """Build engines on the pure-heap reference path within the block.

    The engine reads ``REPRO_SLOW_ENGINE`` at construction, so toggling
    the environment variable around machine construction is all it
    takes; the previous value is restored on exit.
    """
    key = "REPRO_SLOW_ENGINE"
    saved = os.environ.get(key)
    os.environ[key] = "1" if slow else "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = saved


class Event:
    """A scheduled callback; kept alive inside the queue entry tuple."""

    __slots__ = ("time", "callback", "args", "cancelled", "_engine")

    def __init__(self, time: int, callback: Callable[..., None],
                 args: tuple, engine: Optional["Engine"] = None) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing when it reaches the queue head.

        Idempotent: cancelling twice decrements the engine's live-event
        count exactly once.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancel()


class Engine:
    """The global event queue and simulation clock.

    Typical use::

        engine = Engine()
        engine.schedule(10, handler, arg1, arg2)
        engine.run()
        print(engine.now)
    """

    def __init__(self) -> None:
        # Heap entries are ``(time, priority, seq, event)`` for
        # cancellable work and ``(time, priority, seq, None, callback,
        # args)`` for the allocation-free schedule_call path; the unique
        # seq means tuple comparison never reaches element 3.
        self._queue: List[Tuple] = []
        # Same-cycle FIFO: (seq, callback, args, event-or-None).  Entries
        # with an Event were routed from schedule(0, ...) and may be
        # cancelled; call_soon entries carry None and cannot be.
        self._ready: Deque[
            Tuple[int, Callable[..., None], tuple, Optional[Event]]
        ] = deque()
        self._seq = 0
        self._live = 0
        self.now: int = 0
        self._stopped = False
        # True while run() is executing with no max_events bound; gates
        # fast-forward sessions, which need exact event accounting.
        self._in_run = False
        self._until: Optional[int] = None
        # While positive, ff_begin refuses to open a session.  Held by
        # components that dispatch several independent continuations
        # synchronously from one event (the epoch managers' waiter
        # loops): a session opened inside the first continuation would
        # advance ``now`` and fire queued events under the feet of the
        # rest.  An open session holds it too, so sessions never nest.
        self.advance_holds = 0
        # REPRO_SLOW_ENGINE=1 selects the pure-heap reference mode.
        self.fast = not _slow_engine_requested()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay runs later in the
        current cycle (after already-queued same-cycle events with lower
        sequence numbers).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = Event(time, callback, args, engine=self)
        if delay == 0 and priority == 0 and self.fast:
            self._ready.append((self._seq, callback, args, event))
        else:
            heapq.heappush(self._queue, (time, priority, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Queue ``callback(*args)`` for later in the current cycle.

        Equivalent to ``schedule(0, callback, *args)`` but without
        allocating an :class:`Event`; the continuation cannot be
        cancelled.  This is the hot-path API for the per-op state
        transitions of :mod:`repro.cpu.processor`.
        """
        if self.fast:
            self._ready.append((self._seq, callback, args, None))
            self._seq += 1
            self._live += 1
        else:
            self.schedule(0, callback, *args)

    def schedule_call(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule ``callback(*args)`` with no cancellation support.

        The timed sibling of :meth:`call_soon`: same firing order as
        ``schedule(delay, ...)`` (one sequence number is consumed either
        way) but without allocating an :class:`Event`, for the many hot
        callers -- core issue/compute self-schedules, memory-controller
        completions, request completions -- that never cancel.  In
        reference mode it degrades to plain :meth:`schedule`.
        """
        if not self.fast:
            self.schedule(delay, callback, *args)
            return
        if delay == 0:
            self._ready.append((self._seq, callback, args, None))
        elif delay > 0:
            heapq.heappush(
                self._queue,
                (self.now + delay, 0, self._seq, None, callback, args),
            )
        else:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        self._live += 1

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute cycle count."""
        return self.schedule(time - self.now, callback, *args,
                             priority=priority)

    # ------------------------------------------------------------------
    # Lazy-deletion bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._live -= 1
        queue = self._queue
        if len(queue) > _COMPACT_MIN_SIZE and self._live * 2 < len(queue):
            # In-place slice assignment: ``run`` holds a local alias to
            # the queue list, so the list object must not be replaced.
            queue[:] = [
                entry for entry in queue
                if entry[3] is None or not entry[3].cancelled
            ]
            heapq.heapify(queue)

    def _discard_cancelled_head(self) -> None:
        """Reap cancelled entries at the heads of both queues.

        After it returns, the ready head and heap head (if any) are
        live.  Cancelled entries were already removed from the live
        count when they were cancelled.
        """
        ready = self._ready
        while ready and ready[0][3] is not None and ready[0][3].cancelled:
            ready.popleft()
        queue = self._queue
        while queue and queue[0][3] is not None and queue[0][3].cancelled:
            heapq.heappop(queue)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Runs until the queue is empty, the clock passes ``until``,
        ``stop()`` is called, or ``max_events`` events have fired.
        Returns the number of events executed.
        """
        executed = 0
        self._stopped = False
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        bounded = max_events is not None
        self._in_run = not bounded
        self._until = until
        try:
            while True:
                # Cancelled entries are reaped lazily at dispatch: a
                # popped entry whose event was cancelled is dropped
                # without firing (its live count was already decremented
                # at cancel time).  A cancelled *head* can therefore win
                # an ordering comparison below, but winning only gets it
                # popped and skipped, which preserves the firing order of
                # everything live.
                if self._stopped:
                    break
                if bounded and executed >= max_events:
                    break
                if ready:
                    # Ready head has key (now, 0, seq).  The heap head
                    # (time >= now) fires first only when it sorts below
                    # that key: same cycle with a negative priority or an
                    # older sequence number.
                    if queue:
                        head = queue[0]
                        if head[0] <= self.now and (
                            head[1] < 0
                            or (head[1] == 0 and head[2] < ready[0][0])
                        ):
                            entry = pop(queue)
                            event = entry[3]
                            if event is None:
                                self._live -= 1
                                entry[4](*entry[5])
                                executed += 1
                            elif not event.cancelled:
                                self._live -= 1
                                event.callback(*event.args)
                                executed += 1
                            continue
                    item = popleft()
                    event = item[3]
                    if event is not None and event.cancelled:
                        continue
                    self._live -= 1
                    item[1](*item[2])
                    executed += 1
                    continue
                if not queue:
                    break
                head = queue[0]
                time = head[0]
                if until is not None and time > until:
                    # All heap times are >= the head's, so nothing
                    # (cancelled or live) runs within the bound.
                    self.now = until
                    break
                entry = pop(queue)
                event = entry[3]
                if event is not None and event.cancelled:
                    continue
                self._live -= 1
                self.now = time
                if event is None:
                    entry[4](*entry[5])
                else:
                    event.callback(*event.args)
                executed += 1
        finally:
            self._in_run = False
            self._until = None
        return executed

    # ------------------------------------------------------------------
    # Fast-forward sessions
    # ------------------------------------------------------------------
    # A fast-forward session lets one component (the core's write-buffer
    # drain) advance a stretch of its own future work analytically while
    # interleaved foreign events still fire in exact (time, priority,
    # seq) order.  The session holds the clock (``advance_holds``) so no
    # second session opens inside it; the queues stay the single source
    # of truth for foreign work, and the session's own *virtual* events
    # live outside the queues as (time, seq) keys that the caller merges
    # against the queue heads in :meth:`run`'s key order.  Virtual
    # events draw their sequence numbers from ``_seq``, the counter real
    # scheduling uses, so a virtual event that has to be re-materialized
    # into the heap (session bail-out) lands exactly where its scheduled
    # twin would have been.  Virtual events are not counted in
    # ``_live``; the re-materializing caller adds them back.

    def ff_begin(self) -> bool:
        """Open a fast-forward session.

        Refuses (returning False) in reference mode, outside an
        unbounded :meth:`run`, after :meth:`stop`, or while any
        component holds the clock -- which includes another session, so
        sessions never nest.
        """
        if (
            not self.fast
            or not self._in_run
            or self._stopped
            or self.advance_holds
        ):
            return False
        self.advance_holds += 1
        return True

    def ff_end(self) -> None:
        """Close the session opened by the matching :meth:`ff_begin`."""
        self.advance_holds -= 1

    def ff_dispatch_one(self) -> None:
        """Fire exactly one queued event, exactly as :meth:`run` would.

        The caller has already decided that this event precedes its
        next virtual event and has checked the
        stop/until bounds.  The clock advances off the heap just like in
        the main loop; cancelled entries are skipped without firing.
        """
        queue = self._queue
        ready = self._ready
        while True:
            if ready:
                if queue:
                    head = queue[0]
                    if head[0] <= self.now and (
                        head[1] < 0
                        or (head[1] == 0 and head[2] < ready[0][0])
                    ):
                        entry = heapq.heappop(queue)
                        event = entry[3]
                        if event is None:
                            self._live -= 1
                            entry[4](*entry[5])
                            return
                        if not event.cancelled:
                            self._live -= 1
                            event.callback(*event.args)
                            return
                        continue
                item = ready.popleft()
                event = item[3]
                if event is not None and event.cancelled:
                    continue
                self._live -= 1
                item[1](*item[2])
                return
            if not queue:
                return
            entry = heapq.heappop(queue)
            event = entry[3]
            if event is not None and event.cancelled:
                continue
            self._live -= 1
            self.now = entry[0]
            if event is None:
                entry[4](*entry[5])
            else:
                event.callback(*event.args)
            return

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._discard_cancelled_head()
        if self._ready:
            # Ready entries are always same-cycle work: the clock cannot
            # advance while any are queued.
            return self.now
        return self._queue[0][0] if self._queue else None
