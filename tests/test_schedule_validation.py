"""Scheduling validates and coerces once, at ``schedule_at``.

:class:`~repro.core.events.Event` stores its fields as given, so every
path that creates kernel events — ``schedule``, ``schedule_at``, a process
hold, trace-driven preload — must hand it a plain ``float`` time and a
plain ``int`` priority, and must still reject NaN, past, and non-numeric
times.
"""

import math

import numpy as np
import pytest

from repro.core import Priority, Process, ProcessError, Simulator
from repro.core.errors import SchedulingError
from repro.core.queues import QUEUE_FACTORIES
from repro.core.trace import TraceRecord
from repro.core.tracedriven import TraceDrivenSimulator

ALL_KINDS = sorted(QUEUE_FACTORIES)
ODD_TIMES = [3, np.float64(2.5), 7.25, True, np.float64(4)]
ODD_PRIORITIES = [Priority.HIGH, 5, np.int64(7), Priority.LOW, 12.0]


def _noop():
    pass


def _fired(sim):
    seen = []
    sim.pre_event_hooks.append(seen.append)
    return seen


def _assert_plain(ev):
    assert type(ev.time) is float, type(ev.time)
    assert type(ev.priority) is int, type(ev.priority)


@pytest.mark.parametrize("time", ODD_TIMES)
@pytest.mark.parametrize("priority", ODD_PRIORITIES)
def test_schedule_at_stores_plain_types(time, priority):
    sim = Simulator()
    ev = sim.schedule_at(time, _noop, priority=priority)
    _assert_plain(ev)
    assert ev.time == float(time) and ev.priority == int(priority)


@pytest.mark.parametrize("delay", ODD_TIMES)
def test_schedule_stores_plain_types(delay):
    sim = Simulator(start_time=1.0)
    ev = sim.schedule(delay, _noop, priority=Priority.HIGH)
    _assert_plain(ev)
    assert ev.time == 1.0 + float(delay)


def test_default_priority_is_plain_int():
    ev = Simulator().schedule(1.0, _noop)
    _assert_plain(ev)
    assert ev.priority == Priority.NORMAL


@pytest.mark.parametrize("delay", [2, np.float64(2.0), 2.0])
def test_process_hold_stores_plain_types(delay):
    sim = Simulator()
    seen = _fired(sim)

    def body():
        yield delay

    Process(sim, body, name="holder")
    sim.run()
    assert [ev.label for ev in seen] == ["start:holder", "hold:holder"]
    for ev in seen:
        _assert_plain(ev)
    assert sim.now == 2.0


def test_tracedriven_preload_stores_plain_types():
    recs = [TraceRecord(1, "src", "a"), TraceRecord(np.float64(2.5), "src", "b")]
    sim = TraceDrivenSimulator(recs).on_default(lambda sim, rec: None)
    seen = _fired(sim)
    sim.run()
    assert [ev.time for ev in seen] == [1.0, 2.5]
    for ev in seen:
        _assert_plain(ev)


@pytest.mark.parametrize("bad", [math.nan, np.float64("nan")])
def test_nan_time_still_raises(bad):
    sim = Simulator()
    with pytest.raises(SchedulingError, match="NaN"):
        sim.schedule_at(bad, _noop)
    with pytest.raises(SchedulingError, match="NaN"):
        sim.schedule(bad, _noop)


@pytest.mark.parametrize("past", [4, np.float64(4.5), 4.999])
def test_past_time_still_raises(past):
    sim = Simulator(start_time=5.0)
    with pytest.raises(SchedulingError, match="past"):
        sim.schedule_at(past, _noop)
    with pytest.raises(SchedulingError, match="past"):
        sim.schedule(past - 5.0 - 1.0, _noop)


@pytest.mark.parametrize("bad", ["3.0", None, object()])
def test_non_numeric_time_raises_type_error(bad):
    with pytest.raises(TypeError):
        Simulator().schedule_at(bad, _noop)


def test_negative_and_unsupported_holds_still_fail():
    sim = Simulator()

    def negative():
        yield -1

    def unsupported():
        yield "soon"

    Process(sim, negative)
    with pytest.raises(ProcessError, match="negative"):
        sim.run()
    sim = Simulator()
    Process(sim, unsupported)
    with pytest.raises(ProcessError, match="unsupported"):
        sim.run()


def _fire_order(kind, odd):
    """Schedule a tie-heavy batch, with odd numeric types when *odd*."""
    sim = Simulator(queue=kind)
    seen = _fired(sim)
    stream = np.random.default_rng(7)
    for i in range(300):
        t = float(stream.integers(0, 20)) / 4.0
        p = int(stream.choice([0, 10, 20, 30]))
        if odd:
            t = np.float64(t) if i % 3 == 0 else (int(t) if t.is_integer() else t)
            p = Priority(p) if i % 2 else np.int64(p)
        sim.schedule_at(t, _noop, priority=p, label=f"e{i}")
    sim.run()
    return [(ev.time, ev.priority, ev.seq, ev.label) for ev in seen]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_ordering_unchanged_across_queues(kind):
    plain = _fire_order(kind, odd=False)
    assert plain == sorted(plain)
    assert _fire_order(kind, odd=True) == plain
    assert plain == _fire_order("heap", odd=False)
