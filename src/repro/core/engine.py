"""The event-driven simulation kernel.

This is the *event-driven DES* of the taxonomy's mechanics axis: simulation
time advances by irregular increments, jumping directly to the next
scheduled event ("more efficient than a time-driven DES since it does not
step through regular time intervals when no event occurs" — benchmarked in
E3 against :mod:`repro.core.timedriven`).

Design points, each mapped to a taxonomy category:

* **engine optimization / event list** — the future-event set is a pluggable
  :class:`~repro.core.queues.base.EventQueue`; pick the structure per run
  (``Simulator(queue="calendar")``).
* **behavior** — the kernel itself is strictly deterministic; stochastic
  models draw from :class:`~repro.core.rng.StreamFactory` streams owned by
  the simulator, so one integer seed pins the whole trajectory.
* **input data** — an attached :class:`~repro.core.trace.TraceRecorder`
  captures the executed event stream, enabling trace-driven replay.
* **observability** — dispatch is tiered by what is attached: nothing
  (one attribute check — the null-object fast path), metrics only
  (:meth:`Simulator._run_metrics_lite`, which batches instrument updates
  in locals and samples durations), or any richer facet (the generic
  observed loop, which times every firing).  Budgets are gated by the
  ``e11_obs_fleet`` benchmark section.
"""

from __future__ import annotations

import math
from time import perf_counter_ns
from typing import Any, Callable, Optional

from .errors import SchedulingError, StopSimulation
from .events import Event, Priority
from .monitor import Monitor
from .queues import EventQueue, make_queue
from .rng import Stream, StreamFactory

__all__ = ["Simulator"]

#: the default band as a plain int, so the common call needs no coercion
_NORMAL = int(Priority.NORMAL)


class Simulator:
    """Sequential event-driven discrete-event simulator.

    Parameters
    ----------
    queue:
        Event-list structure: an :class:`EventQueue` instance or a registry
        name (``"linear" | "heap" | "splay" | "calendar" | "ladder" |
        "adaptive"``).
    seed:
        Root seed for all random streams drawn via :meth:`stream`.
    start_time:
        Initial simulation clock value.

    Examples
    --------
    >>> sim = Simulator(seed=42)
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (5.0, ['hello'])
    """

    def __init__(
        self,
        queue: EventQueue | str = "heap",
        seed: int = 0,
        start_time: float = 0.0,
    ) -> None:
        self._queue: EventQueue = make_queue(queue) if isinstance(queue, str) else queue
        self._now = float(start_time)
        self._seq = 0
        self._running = False
        self._stopped = False
        self._stop_reason = ""
        self._events_executed = 0
        self.streams = StreamFactory(seed)
        self.monitor = Monitor("simulation")
        #: optional hooks called as ``hook(event)`` just before each firing —
        #: used by trace recording and by debugging instrumentation.
        self.pre_event_hooks: list[Callable[[Event], None]] = []
        #: observability binding (:class:`repro.obs.session.ObsBinding`),
        #: installed by ``Observation.attach``.  Null-object protocol: the
        #: engine's only disabled-path cost is ``is not None`` checks — one
        #: per ``schedule_at`` and one per ``run()``/``step()`` entry.
        self._obs = None

    # -- clock & identity ------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Raw future-event count (may include cancelled records)."""
        return len(self._queue)

    @property
    def stop_reason(self) -> str:
        """Why the last run ended ('' if it simply drained the queue)."""
        return self._stop_reason

    def stream(self, name: str) -> Stream:
        """Named independent random stream (see :class:`StreamFactory`)."""
        return self.streams.stream(name)

    # -- scheduling ---------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _NORMAL,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run *delay* time units from now.

        Returns the :class:`Event`, whose :meth:`~Event.cancel` method is the
        way to tear down timers.
        """
        return self.schedule_at(self._now + delay, fn, *args,
                                priority=priority, label=label, **kwargs)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _NORMAL,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn`` at absolute simulation *time* (>= now).

        The one place event fields are validated and coerced: the stored
        :class:`Event` always holds a plain ``float`` time and a plain
        ``int`` priority, whatever numeric types the caller passed.
        """
        if time.__class__ is not float:
            if math.isnan(time):  # also the TypeError for non-numbers
                raise SchedulingError("cannot schedule event at NaN time")
            time = float(time)
        if not time >= self._now:
            if time != time:
                raise SchedulingError("cannot schedule event at NaN time")
            raise SchedulingError(
                f"cannot schedule event in the past (t={time} < now={self._now})"
            )
        if priority.__class__ is not int:
            priority = int(priority)
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, fn, args, kwargs, priority, label)
        self._queue.push(ev)
        obs = self._obs
        if obs is not None:
            obs.on_schedule(ev, self._now)
        return ev

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- execution ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Execute events until the queue drains, *until* passes, or stop.

        The dispatch loop touches the event list exactly **once** per firing
        via :meth:`~repro.core.queues.base.EventQueue.pop_if_le` — delete-min
        and the horizon check are fused, so structures whose find-min is a
        sweep (calendar, ladder) pay for it once instead of twice.

        Parameters
        ----------
        until:
            Inclusive time horizon: events at ``t <= until`` fire; the clock
            is then advanced to *until* itself (so time-average statistics
            cover the full horizon even if the last event fired earlier).
        max_events:
            Safety valve for runaway models; raises after this many firings
            *within this call* (each ``run()`` gets a fresh budget).
        """
        if self._obs is not None:
            return self._run_observed(until, max_events)
        if self._running:
            raise SchedulingError("run() is not reentrant")
        self._running = True
        self._stopped = False
        self._stop_reason = ""
        horizon = math.inf if until is None else until
        pop_if_le = self._queue.pop_if_le
        hooks = self.pre_event_hooks
        fired = 0
        try:
            if max_events is None:
                # Fast path: no budget accounting.  The callback is invoked
                # directly — pop_if_le never returns a cancelled event, so
                # Event.fire()'s liveness check (and its extra call frame)
                # is redundant here.  `hooks` aliases the live list, so
                # hooks registered mid-run still take effect.  Firings are
                # counted in a local and published in the finally block:
                # `events_executed` is a between-runs statistic, not a
                # mid-event one.
                while not self._stopped:
                    ev = pop_if_le(horizon)
                    if ev is None:
                        break
                    self._now = ev.time
                    fired += 1
                    if hooks:
                        for hook in hooks:
                            hook(ev)
                    try:
                        ev.fn(*ev.args, **ev.kwargs)
                    except StopSimulation as sig:
                        self._stopped = True
                        self._stop_reason = sig.reason or "StopSimulation"
            else:
                budget = int(max_events)
                while not self._stopped:
                    ev = pop_if_le(horizon)
                    if ev is None:
                        break
                    self._now = ev.time
                    fired += 1
                    if hooks:
                        for hook in hooks:
                            hook(ev)
                    try:
                        ev.fn(*ev.args, **ev.kwargs)
                    except StopSimulation as sig:
                        self._stopped = True
                        self._stop_reason = sig.reason or "StopSimulation"
                    if fired >= budget:
                        raise SchedulingError(
                            f"max_events budget of {max_events} exhausted at t={self._now}"
                        )
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._events_executed += fired
            self._running = False

    def _run_observed(self, until: float | None, max_events: int | None) -> None:
        """The dispatch loop with observability instrumentation.

        Kept as a separate method so the unobserved :meth:`run` loop stays
        byte-for-byte the measured fast path.  Semantics are identical —
        same fused ``pop_if_le`` protocol, same horizon and budget rules,
        same hook ordering — plus a ``perf_counter_ns`` stamp around each
        firing feeding the tracer/profiler/telemetry via the binding.
        """
        obs = self._obs
        if (obs.tracer is None and obs.profiler is None
                and obs.telemetry is None and obs.recorder is None
                and obs._m_fired is not None
                and obs._m_handler_ns.bounds is None):
            return self._run_metrics_lite(until, max_events)
        if self._running:
            raise SchedulingError("run() is not reentrant")
        self._running = True
        self._stopped = False
        self._stop_reason = ""
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else int(max_events)
        pop_if_le = self._queue.pop_if_le
        hooks = self.pre_event_hooks
        fired = 0
        try:
            while not self._stopped:
                ev = pop_if_le(horizon)
                if ev is None:
                    break
                self._now = ev.time
                fired += 1
                if hooks:
                    for hook in hooks:
                        hook(ev)
                t0 = obs.begin_fire(ev)
                try:
                    ev.fn(*ev.args, **ev.kwargs)
                except StopSimulation as sig:
                    self._stopped = True
                    self._stop_reason = sig.reason or "StopSimulation"
                finally:
                    obs.end_fire(ev, t0)
                if fired >= budget:
                    raise SchedulingError(
                        f"max_events budget of {max_events} exhausted at t={self._now}"
                    )
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._events_executed += fired
            self._running = False

    def _run_metrics_lite(self, until: float | None,
                          max_events: int | None) -> None:
        """The dispatch loop when *only* the metrics facet is attached.

        Per-event binding calls would cost more than the two instrument
        updates they carry, so this loop accumulates the fired count, the
        summed handler nanoseconds, and the pow-2 duration buckets in
        locals and folds them into the registry instruments once, on exit
        (the finally block also runs on StopSimulation and raised
        handlers, so no firing is ever lost).  The duration histogram
        *samples* every 16th firing here — the clock pair dominates the
        loop's added cost — while the fired counter stays exact; a run
        with telemetry, tracing, or a recorder attached times every
        firing via the generic loop above instead.  Registry state is
        authoritative at quiescence, not mid-``run()`` — exactly when the
        campaign runner dumps it.  The e11 benchmark gates this path at
        ≤10% overhead over the unobserved loop.
        """
        if self._running:
            raise SchedulingError("run() is not reentrant")
        self._running = True
        self._stopped = False
        self._stop_reason = ""
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else int(max_events)
        pop_if_le = self._queue.pop_if_le
        hooks = self.pre_event_hooks
        obs = self._obs
        clock = perf_counter_ns
        # 64 pow-2 buckets; a nanosecond duration's bit length can never
        # exceed 63 (that would be a 292-year handler), so no clamp needed.
        counts = [0] * len(obs._m_handler_ns.counts)
        dur_sum = 0
        fired = 0
        try:
            while not self._stopped:
                ev = pop_if_le(horizon)
                if ev is None:
                    break
                self._now = ev.time
                fired += 1
                if hooks:
                    for hook in hooks:
                        hook(ev)
                if fired & 15:
                    # Untimed firing (15 of every 16): the clock pair and
                    # bucket fold cost more than everything else this loop
                    # adds, so the duration histogram samples each 16th
                    # firing instead of paying that on every event.
                    try:
                        ev.fn(*ev.args, **ev.kwargs)
                    except StopSimulation as sig:
                        self._stopped = True
                        self._stop_reason = sig.reason or "StopSimulation"
                else:
                    t0 = clock()
                    try:
                        ev.fn(*ev.args, **ev.kwargs)
                    except StopSimulation as sig:
                        self._stopped = True
                        self._stop_reason = sig.reason or "StopSimulation"
                    dur = clock() - t0
                    dur_sum += dur
                    counts[dur.bit_length()] += 1
                if fired >= budget:
                    raise SchedulingError(
                        f"max_events budget of {max_events} exhausted at t={self._now}"
                    )
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._events_executed += fired
            self._running = False
            if fired:
                obs._m_fired.value += float(fired)
                h = obs._m_handler_ns
                # A handler that raised clean out of run() misses its
                # bucket; count from the buckets keeps the histogram
                # internally consistent, the counter still sees `fired`.
                h.count += sum(counts)
                h.sum += float(dur_sum)
                hist_counts = h.counts
                for i, n in enumerate(counts):
                    if n:
                        hist_counts[i] += n

    def step(self) -> bool:
        """Fire exactly one event.  Returns False when the queue is empty."""
        ev = self._queue.pop()
        if ev is None:
            return False
        self._now = ev.time
        self._events_executed += 1
        if self.pre_event_hooks:
            for hook in self.pre_event_hooks:
                hook(ev)
        obs = self._obs
        if obs is None:
            try:
                ev.fire()
            except StopSimulation as sig:
                self._stopped = True
                self._stop_reason = sig.reason or "StopSimulation"
            return True
        t0 = obs.begin_fire(ev)
        try:
            ev.fire()
        except StopSimulation as sig:
            self._stopped = True
            self._stop_reason = sig.reason or "StopSimulation"
        finally:
            obs.end_fire(ev, t0)
        return True

    def stop(self, reason: str = "") -> None:
        """Request the run loop to end after the current event."""
        self._stopped = True
        self._stop_reason = reason or "stop() called"

    def peek_time(self) -> float:
        """Time of the next live event, or +inf when idle."""
        ev = self._queue.peek()
        return ev.time if ev is not None else math.inf

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Simulator t={self._now:.6g} pending={len(self._queue)} "
                f"executed={self._events_executed}>")
