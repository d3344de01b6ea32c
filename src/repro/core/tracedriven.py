"""Trace-driven DES — replaying an externally collected event stream.

The taxonomy's third DES kind: "a trace-driven DES proceeds by reading in a
set of events that are collected independently from another environment and
[is] suitable for modeling a system that has executed before in another
environment."

:class:`TraceDrivenSimulator` pre-loads a list of
:class:`~repro.core.trace.TraceRecord` rows and dispatches each to a
*handler* keyed by the record's ``kind``.  Because the trace fixes every
occurrence time, a replay is exactly reproducible and — as benchmark E12
shows — usually faster than re-simulating the generating model, since all
the model logic that *produced* the events is skipped.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .engine import Simulator
from .errors import TraceFormatError
from .events import Event, Priority
from .queues import EventQueue
from .trace import TraceRecord

__all__ = ["TraceDrivenSimulator"]

Handler = Callable[["TraceDrivenSimulator", TraceRecord], None]


class TraceDrivenSimulator(Simulator):
    """Replays a recorded trace through kind-keyed handlers.

    Usage::

        sim = TraceDrivenSimulator(records)
        sim.on("job_arrival", lambda sim, rec: model.arrive(rec))
        sim.run()

    Records whose kind has no handler are counted in ``unhandled`` rather
    than silently dropped (or raise, with ``strict=True``), because a typo'd
    handler name silently ignoring half a workload is the classic
    trace-replay bug.
    """

    def __init__(
        self,
        records: Iterable[TraceRecord],
        queue: EventQueue | str = "heap",
        seed: int = 0,
        strict: bool = False,
    ) -> None:
        recs = sorted(records, key=lambda r: r.time)
        if any(math.isnan(r.time) for r in recs):
            raise TraceFormatError("trace contains a record at NaN time")
        start = recs[0].time if recs else 0.0
        super().__init__(queue=queue, seed=seed, start_time=start)
        self._handlers: dict[str, Handler] = {}
        self._default_handler: Handler | None = None
        self.strict = strict
        self.unhandled = 0
        self.replayed = 0
        # Bulk preload: the records are already sorted and can never be in
        # the past (start == recs[0].time), so skip schedule_at()'s
        # per-record validation and push straight onto the event list —
        # replay then runs entirely on the fused pop_if_le dispatch loop.
        # Events store fields as given, so coerce here as schedule_at would.
        push = self._queue.push
        normal = int(Priority.NORMAL)
        for rec in recs:
            push(Event(float(rec.time), self._next_seq(), self._dispatch,
                       (rec,), priority=normal, label=rec.kind))

    def on(self, kind: str, handler: Handler) -> "TraceDrivenSimulator":
        """Register *handler* for records of *kind*; chainable."""
        self._handlers[kind] = handler
        return self

    def on_default(self, handler: Handler) -> "TraceDrivenSimulator":
        """Register a catch-all handler for kinds with no specific one."""
        self._default_handler = handler
        return self

    def _dispatch(self, rec: TraceRecord) -> None:
        handler = self._handlers.get(rec.kind, self._default_handler)
        if handler is None:
            self.unhandled += 1
            if self.strict:
                raise TraceFormatError(
                    f"no handler for trace kind {rec.kind!r} at t={rec.time}"
                )
            return
        self.replayed += 1
        handler(self, rec)
