"""Process-oriented simulation: "active objects" on top of the event kernel.

MONARC 2 is described by the paper as "built based on a process oriented
approach for discrete event simulation, which is well suited to describe
concurrent running programs ... Threaded objects or 'Active Objects'
(having an execution thread, program counter, stack...) allow a natural way
to map the specific behavior of distributed data processing into the
simulation program."

Instead of OS threads (MONARC's Java mechanism), a :class:`Process` here is
a Python *generator*: the program counter and stack the paper mentions come
for free from the generator frame, and there are no real threads to
schedule — every context switch compiles down to one kernel event.  This is
also the taxonomy's *mapping of simulation jobs on physical threads*
optimization taken to its limit (thousands of simulated concurrent programs
on one OS thread); :mod:`repro.core.mapping` quantifies the alternatives.

A process body ``yield``\\ s what it wants to wait for:

====================  =====================================================
yielded value         meaning
====================  =====================================================
``float | int``       hold (sleep) that many time units
:class:`Signal`       wait until some other entity fires the signal
:class:`Process`      join — resume when that process terminates
:class:`AnyOf`        resume when the first of several waitables completes
:class:`AllOf`        resume when all of several waitables complete
``Waitable``          anything implementing the subscribe protocol
                      (resource request tokens do this)
====================  =====================================================

The value sent back into the generator is the waitable's result (a signal's
payload, a joined process's return value...).  Interrupting a process throws
:class:`~repro.core.errors.InterruptError` at its current wait point.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Iterable, Optional

from .engine import Simulator
from .errors import InterruptError, ProcessError
from .events import Event, Priority

__all__ = ["Waitable", "Signal", "Process", "AnyOf", "AllOf", "spawn", "timer"]

ProcessBody = Generator[Any, Any, Any]


class Waitable:
    """Subscribe protocol: anything a process may ``yield``.

    Subclasses call :meth:`_complete` exactly once; subscribed processes are
    then resumed with the result.  Late subscribers to an already-completed
    waitable resume immediately — this removes a whole class of races where
    a process checks-then-waits.
    """

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def done(self) -> bool:
        """True once the waitable has completed."""
        return self._done

    @property
    def result(self) -> Any:
        """The completion value (None until done)."""
        return self._result

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        if self._done:
            callback(self._result)
        else:
            self._callbacks.append(callback)

    def _unsubscribe(self, callback: Callable[[Any], None]) -> None:
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def _complete(self, result: Any = None) -> None:
        if self._done:
            return
        self._done = True
        self._result = result
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for cb in callbacks:
                cb(result)

    # Subclasses with cancellation semantics override.
    def _abandon(self, callback: Callable[[Any], None]) -> None:
        """Called when a waiting process stops caring (interrupt/AnyOf)."""
        self._unsubscribe(callback)


class Signal(Waitable):
    """A broadcast condition processes can wait on.

    Unlike a plain :class:`Waitable`, a signal can :meth:`fire` repeatedly —
    each firing wakes the *current* waiters with the payload; processes that
    wait afterwards block until the next firing.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__()
        self.name = name
        self.fire_count = 0

    def fire(self, payload: Any = None) -> int:
        """Wake all currently waiting processes; returns how many woke."""
        self.fire_count += 1
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(payload)
        return len(callbacks)

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        # Signals are level-less: never auto-complete, always queue.
        self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Signal {self.name!r} waiters={len(self._callbacks)}>"


class AnyOf(Waitable):
    """Completes with ``(index, result)`` of the first child to complete."""

    def __init__(self, waitables: Iterable[Waitable]) -> None:
        super().__init__()
        self.children = list(waitables)
        if not self.children:
            raise ProcessError("AnyOf needs at least one waitable")
        self._child_cbs: list[tuple[Waitable, Callable]] = []
        for i, w in enumerate(self.children):
            cb = self._make_cb(i)
            self._child_cbs.append((w, cb))
            w._subscribe(cb)

    def _make_cb(self, index: int) -> Callable[[Any], None]:
        def cb(result: Any) -> None:
            if not self._done:
                # Detach from the losers so they don't hold dead references.
                for w, other_cb in self._child_cbs:
                    if other_cb is not cb:
                        w._abandon(other_cb)
                self._complete((index, result))
        return cb


class AllOf(Waitable):
    """Completes with the list of all children's results, in child order."""

    def __init__(self, waitables: Iterable[Waitable]) -> None:
        super().__init__()
        self.children = list(waitables)
        if not self.children:
            raise ProcessError("AllOf needs at least one waitable")
        self._pending = len(self.children)
        self._results: list[Any] = [None] * len(self.children)
        for i, w in enumerate(self.children):
            w._subscribe(self._make_cb(i))

    def _make_cb(self, index: int) -> Callable[[Any], None]:
        def cb(result: Any) -> None:
            self._results[index] = result
            self._pending -= 1
            if self._pending == 0:
                self._complete(list(self._results))
        return cb


class _State(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"
    HOLDING = "holding"
    DONE = "done"
    FAILED = "failed"


_READY, _RUNNING, _WAITING, _HOLDING, _DONE, _FAILED = (
    _State.READY, _State.RUNNING, _State.WAITING, _State.HOLDING,
    _State.DONE, _State.FAILED)
#: the resumption band as a plain int, so schedule_at needs no coercion
_HIGH = int(Priority.HIGH)


class Process(Waitable):
    """An active object: a generator driven by the event kernel.

    Completes (as a :class:`Waitable`) with the generator's return value, so
    processes can ``yield`` other processes to join them.

    Every resumption — start, end of a hold, wake-up after a waitable
    completes, interrupt — is one kernel event whose callback is
    :meth:`_step`.  Waitables call back the bound method :meth:`_wake`
    rather than a per-wait closure; two bound methods of one process
    compare equal, so :meth:`Waitable._unsubscribe` still finds it.  (The
    bound methods are not stored on the process: that would make every
    process a reference cycle, freed only by the cyclic collector.)

    Parameters
    ----------
    sim:
        The owning simulator.
    body:
        A *started generator* or a generator function plus ``args``.
    name:
        Diagnostic label; appears in kernel event labels.
    """

    _counter = 0

    def __init__(self, sim: Simulator, body: Callable[..., ProcessBody] | ProcessBody,
                 *args: Any, name: str = "", **kwargs: Any) -> None:
        super().__init__()
        self.sim = sim
        if callable(body):
            gen = body(*args, **kwargs)
        else:
            gen = body
        if not hasattr(gen, "send"):
            raise ProcessError(f"process body must be a generator, got {type(gen)!r}")
        self._gen: ProcessBody = gen
        Process._counter += 1
        self.name = name or f"process-{Process._counter}"
        self.state = _READY
        self.error: Optional[BaseException] = None
        self._waiting_on: Optional[Waitable] = None
        # First step happens as a kernel event at the current time, so
        # construction never runs model code re-entrantly.  ``_pending`` is
        # the event that will next resume the body (start, hold end, or
        # wake-up); None while the body runs or waits on a waitable.
        # (``+ 0.0`` is schedule(0.0)'s arithmetic: a clock at -0.0 starts
        # the process at 0.0.)
        self._pending: Optional[Event] = sim.schedule_at(
            sim._now + 0.0, self._step, None, False, priority=_HIGH,
            label=f"start:{self.name}")
        obs = sim._obs
        if obs is not None:
            obs.on_process(self, "spawn")

    # -- lifecycle --------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True until the process terminates or fails."""
        return self.state is not _DONE and self.state is not _FAILED

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process at its wait point.

        No-op on a finished process.  The interrupt is delivered by a kernel
        event at the current time, and lands at the wait point the process
        is in when that event fires; that wait's timer or subscription is
        torn down then.  A resumption already scheduled when ``interrupt``
        is called runs first: a READY process runs to its first wait point,
        and a process whose waitable completed in the same instant runs to
        its next one, and the interrupt lands there.
        """
        if not self.alive:
            return
        self.sim.schedule(0.0, self._step, cause, True,
                          priority=_HIGH, label=f"interrupt:{self.name}")

    # -- engine plumbing -----------------------------------------------------------

    def _step(self, value: Any, is_interrupt: bool) -> None:
        """Advance the generator one segment (kernel event callback)."""
        state = self.state
        if state is _DONE or state is _FAILED:
            return
        if is_interrupt:
            # Tear down the wait the interrupt lands on, so no stale timer
            # or wake-up resumes the body a second time.
            pending = self._pending
            if pending is not None:
                pending.cancel()
            waiting_on = self._waiting_on
            if waiting_on is not None:
                waiting_on._abandon(self._wake)
        self._pending = None
        self._waiting_on = None
        self.state = _RUNNING
        try:
            if is_interrupt:
                yielded = self._gen.throw(InterruptError(value))
            else:
                yielded = self._gen.send(value)
        except StopIteration as stop:
            self.state = _DONE
            obs = self.sim._obs
            if obs is not None:
                obs.on_process(self, "done")
            self._complete(stop.value)
            return
        except InterruptError as exc:
            # The body let the interrupt escape: treat as clean termination
            # with the interrupt cause as the result.
            self.state = _DONE
            obs = self.sim._obs
            if obs is not None:
                obs.on_process(self, "done")
            self._complete(exc.cause)
            return
        except Exception as exc:
            self.state = _FAILED
            self.error = exc
            obs = self.sim._obs
            if obs is not None:
                obs.on_process(self, "failed")
            raise ProcessError(f"process {self.name!r} crashed: {exc!r}") from exc
        if isinstance(yielded, Waitable):
            self.state = _WAITING
            self._waiting_on = yielded
            yielded._subscribe(self._wake)
            return
        if not isinstance(yielded, (int, float)):
            self.state = _FAILED
            raise ProcessError(
                f"process {self.name!r} yielded unsupported {type(yielded).__name__!r}"
            )
        if yielded < 0:
            self.state = _FAILED
            raise ProcessError(f"process {self.name!r} held negative time {yielded}")
        self.state = _HOLDING
        sim = self.sim
        self._pending = sim.schedule_at(sim._now + yielded, self._step, None,
                                        False, label=f"hold:{self.name}")

    def _wake(self, result: Any) -> None:
        """Waitable callback: resume via the kernel, so wake-ups interleave
        deterministically."""
        self._waiting_on = None
        sim = self.sim
        self._pending = sim.schedule_at(sim._now + 0.0, self._step, result,
                                        False, priority=_HIGH,
                                        label=f"wake:{self.name}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name!r} state={self.state.value}>"


def spawn(sim: Simulator, body: Callable[..., ProcessBody] | ProcessBody,
          *args: Any, name: str = "", **kwargs: Any) -> Process:
    """Convenience constructor: ``spawn(sim, body, ...)`` == ``Process(...)``."""
    return Process(sim, body, *args, name=name, **kwargs)


def timer(sim: Simulator, delay: float, payload: Any = None) -> Waitable:
    """A waitable that completes *delay* time units from now.

    The building block for timeouts: race any operation against a timer
    with :class:`AnyOf` ::

        idx, result = yield AnyOf([transfer_handle, timer(sim, 30.0)])
        if idx == 1:
            ...  # timed out

    (A bare ``yield delay`` sleeps unconditionally; a timer can lose the
    race and be ignored.)
    """
    if delay < 0:
        raise ProcessError(f"timer delay must be >= 0, got {delay}")
    token = Waitable()
    sim.schedule(delay, token._complete, payload, label="timer")
    return token
