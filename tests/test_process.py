"""Tests for the process-oriented ("active objects") layer."""

import gc
import weakref

import pytest

from repro.core import (
    AllOf,
    AnyOf,
    InterruptError,
    Process,
    ProcessError,
    Signal,
    Simulator,
    spawn,
)


class TestHold:
    def test_hold_advances_local_time(self):
        sim = Simulator()
        log = []

        def body():
            log.append(sim.now)
            yield 5.0
            log.append(sim.now)
            yield 2.5
            log.append(sim.now)

        Process(sim, body)
        sim.run()
        assert log == [0.0, 5.0, 7.5]

    def test_zero_hold_allowed(self):
        sim = Simulator()
        done = []

        def body():
            yield 0.0
            done.append(sim.now)

        Process(sim, body)
        sim.run()
        assert done == [0.0]

    def test_negative_hold_rejected(self):
        sim = Simulator()

        def body():
            yield -1.0

        Process(sim, body, name="bad")
        with pytest.raises(ProcessError, match="negative"):
            sim.run()

    def test_bad_yield_type_rejected(self):
        sim = Simulator()

        def body():
            yield "nonsense"

        Process(sim, body)
        with pytest.raises(ProcessError, match="unsupported"):
            sim.run()

    def test_non_generator_body_rejected(self):
        sim = Simulator()
        with pytest.raises(ProcessError, match="generator"):
            Process(sim, lambda: 42)


class TestSignals:
    def test_signal_wakes_waiters_with_payload(self):
        sim = Simulator()
        sig = Signal("go")
        got = []

        def waiter():
            payload = yield sig
            got.append((sim.now, payload))

        Process(sim, waiter)
        Process(sim, waiter)
        sim.schedule(3.0, sig.fire, "payload")
        sim.run()
        assert got == [(3.0, "payload"), (3.0, "payload")]

    def test_fire_returns_waiter_count(self):
        sim = Simulator()
        sig = Signal()

        def waiter():
            yield sig

        Process(sim, waiter)
        counts = []
        sim.schedule(1.0, lambda: counts.append(sig.fire()))
        sim.run()
        assert counts == [1]

    def test_late_waiter_blocks_until_next_fire(self):
        sim = Simulator()
        sig = Signal()
        got = []

        def late():
            yield 5.0  # signal fires at t=1 while we sleep
            yield sig  # must wait for the t=9 firing, not see the old one
            got.append(sim.now)

        Process(sim, late)
        sim.schedule(1.0, sig.fire)
        sim.schedule(9.0, sig.fire)
        sim.run()
        assert got == [9.0]


class TestJoin:
    def test_join_returns_process_result(self):
        sim = Simulator()
        results = []

        def child():
            yield 4.0
            return "child-result"

        def parent():
            c = Process(sim, child)
            r = yield c
            results.append((sim.now, r))

        Process(sim, parent)
        sim.run()
        assert results == [(4.0, "child-result")]

    def test_join_already_finished_process(self):
        sim = Simulator()
        results = []

        def quick():
            yield 1.0
            return 7

        def parent(c):
            yield 10.0  # child long done
            r = yield c
            results.append((sim.now, r))

        c = Process(sim, quick)
        Process(sim, parent, c)
        sim.run()
        assert results == [(10.0, 7)]


class TestCombinators:
    def test_anyof_first_wins(self):
        sim = Simulator()
        got = []

        def sleeper(d):
            yield d
            return d

        def racer():
            a = Process(sim, sleeper, 10.0)
            b = Process(sim, sleeper, 3.0)
            idx, result = yield AnyOf([a, b])
            got.append((sim.now, idx, result))

        Process(sim, racer)
        sim.run()
        assert got == [(3.0, 1, 3.0)]

    def test_allof_waits_for_slowest(self):
        sim = Simulator()
        got = []

        def sleeper(d):
            yield d
            return d

        def gatherer():
            procs = [Process(sim, sleeper, d) for d in (5.0, 2.0, 8.0)]
            results = yield AllOf(procs)
            got.append((sim.now, results))

        Process(sim, gatherer)
        sim.run()
        assert got == [(8.0, [5.0, 2.0, 8.0])]

    def test_empty_combinators_rejected(self):
        with pytest.raises(ProcessError):
            AnyOf([])
        with pytest.raises(ProcessError):
            AllOf([])


class TestInterrupt:
    def test_interrupt_during_hold(self):
        sim = Simulator()
        log = []

        def victim():
            try:
                yield 100.0
                log.append("finished")
            except InterruptError as exc:
                log.append((sim.now, exc.cause))

        v = Process(sim, victim)
        sim.schedule(5.0, v.interrupt, "preempt")
        sim.run()
        assert log == [(5.0, "preempt")]
        assert sim.now == 5.0

    def test_interrupt_during_signal_wait(self):
        sim = Simulator()
        sig = Signal()
        log = []

        def victim():
            try:
                yield sig
            except InterruptError:
                log.append("interrupted")
                return
            log.append("woke")

        v = Process(sim, victim)
        sim.schedule(2.0, v.interrupt)
        sim.schedule(5.0, sig.fire)  # late fire must NOT resume the victim
        sim.run()
        assert log == ["interrupted"]

    def test_interrupt_finished_process_noop(self):
        sim = Simulator()

        def body():
            yield 1.0

        p = Process(sim, body)
        sim.run()
        p.interrupt("too late")  # must not raise
        sim.run()
        assert not p.alive

    def test_unhandled_interrupt_completes_with_cause(self):
        sim = Simulator()

        def victim():
            yield 100.0

        v = Process(sim, victim)
        sim.schedule(1.0, v.interrupt, "cause-x")
        sim.run()
        assert v.done and v.result == "cause-x"

    def test_interrupt_racing_start_lands_at_first_wait(self):
        """A READY process runs to its first wait point; the interrupt lands
        there and the stale timer of that wait must not resume it."""
        sim = Simulator()
        log = []

        def body():
            try:
                yield 5.0
            except InterruptError as exc:
                log.append(("interrupted", sim.now, exc.cause))
            yield 10.0
            log.append(("woke", sim.now))

        p = Process(sim, body)
        p.interrupt("early")
        sim.run()
        assert log == [("interrupted", 0.0, "early"), ("woke", 10.0)]
        assert sim.now == 10.0

    def test_interrupt_racing_wake_lands_at_next_wait(self):
        """``sig.fire(); p.interrupt()`` in one callback: the scheduled
        wake-up runs first, and the interrupt lands at the next wait."""
        sim = Simulator()
        sig = Signal()
        log = []

        def body():
            yield sig
            try:
                yield 5.0
            except InterruptError:
                log.append(("interrupted", sim.now))
            yield 10.0
            log.append(("woke", sim.now))

        p = Process(sim, body)

        def fire_and_interrupt():
            sig.fire()
            p.interrupt()

        sim.schedule(1.0, fire_and_interrupt)
        sim.run()
        assert log == [("interrupted", 1.0), ("woke", 11.0)]
        assert sim.now == 11.0

    def test_double_interrupt_tears_down_each_wait(self):
        sim = Simulator()
        log = []

        def body():
            for _ in range(2):
                try:
                    yield 50.0
                except InterruptError as exc:
                    log.append((sim.now, exc.cause))
            yield 1.0
            log.append(("done", sim.now))

        p = Process(sim, body)
        sim.schedule(3.0, p.interrupt, "a")
        sim.schedule(3.0, p.interrupt, "b")
        sim.run()
        assert log == [(3.0, "a"), (3.0, "b"), ("done", 4.0)]


class TestLifecycle:
    def test_finished_process_freed_without_cycle_collector(self):
        """A process must not hold a reference cycle once it has finished:
        models create one per customer, and cyclic garbage would be freed
        only by the collector, raising peak memory."""
        sim = Simulator()
        sig = Signal()

        def body():
            yield 1.0
            yield sig

        p = Process(sim, body)
        ref = weakref.ref(p)
        del p
        sim.schedule(2.0, sig.fire)
        gc.disable()
        try:
            sim.run()
            assert ref() is None
        finally:
            gc.enable()

    def test_process_crash_raises_processerror(self):
        sim = Simulator()

        def bad():
            yield 1.0
            raise ValueError("boom")

        Process(sim, bad, name="crasher")
        with pytest.raises(ProcessError, match="crasher"):
            sim.run()

    def test_spawn_helper(self):
        sim = Simulator()
        done = []

        def body():
            yield 1.0
            done.append(True)

        p = spawn(sim, body, name="helper")
        sim.run()
        assert done == [True] and p.name == "helper"

    def test_generator_instance_accepted(self):
        sim = Simulator()
        log = []

        def body(tag):
            yield 2.0
            log.append(tag)

        Process(sim, body("pre-built-gen-fn-call")((), ) if False else body("x"))
        sim.run()
        assert log == ["x"]

    def test_result_available_after_completion(self):
        sim = Simulator()

        def body():
            yield 1.0
            return 99

        p = Process(sim, body)
        sim.run()
        assert p.done and p.result == 99

    def test_many_processes_interleave_deterministically(self):
        def run():
            sim = Simulator(seed=3)
            log = []

            def worker(i):
                stream = sim.stream(f"w{i}")
                for _ in range(5):
                    yield stream.exponential(1.0)
                    log.append((round(sim.now, 10), i))

            for i in range(10):
                Process(sim, worker, i)
            sim.run()
            return log

        assert run() == run()


class TestTimer:
    def test_timer_completes_at_delay(self):
        from repro.core import timer

        sim = Simulator()
        got = []

        def body():
            t = timer(sim, 4.0, payload="ding")
            result = yield t
            got.append((sim.now, result))

        Process(sim, body)
        sim.run()
        assert got == [(4.0, "ding")]

    def test_timeout_race_slow_operation(self):
        from repro.core import timer

        sim = Simulator()
        outcome = []

        def slow():
            yield 100.0
            return "done"

        def guarded():
            op = Process(sim, slow)
            idx, result = yield AnyOf([op, timer(sim, 10.0)])
            outcome.append(("timeout" if idx == 1 else "completed", sim.now))

        Process(sim, guarded)
        sim.run()
        assert outcome == [("timeout", 10.0)]

    def test_fast_operation_beats_timer(self):
        from repro.core import timer

        sim = Simulator()
        outcome = []

        def fast():
            yield 1.0
            return "done"

        def guarded():
            op = Process(sim, fast)
            idx, result = yield AnyOf([op, timer(sim, 10.0)])
            outcome.append((idx, result, sim.now))

        Process(sim, guarded)
        sim.run()
        assert outcome == [(0, "done", 1.0)]

    def test_negative_delay_rejected(self):
        from repro.core import timer

        with pytest.raises(ProcessError):
            timer(Simulator(), -1.0)

    def test_zero_delay_timer(self):
        from repro.core import timer

        sim = Simulator()
        t = timer(sim, 0.0)
        sim.run()
        assert t.done
