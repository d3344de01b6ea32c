"""Golden trajectories of the process/Resource layer.

Four process-style models are run at a fixed seed with a
:class:`~repro.core.trace.TraceRecorder` attached.  For each one the test
pins the SHA-256 of the executed ``(time, priority, seq, label)`` stream
and the SHA-256 of its end-of-run statistics.  Any change to the process,
resource, monitor, or scheduling layers that moves a single event, RNG
draw, or statistic — even in the last bit of a float — fails here.

Regenerate the constants only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_process_trajectory_pin.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core import AnyOf, Container, Process, Resource, Simulator, Store
from repro.core.monitor import Monitor
from repro.core.process import timer
from repro.core.trace import TraceRecorder
from repro.validation import QueueRunStats, simulate_mm1, simulate_mmc

SEED = 20091


class _Recording:
    """Stands in for an ``Observation``: the validation harness creates its
    simulator internally and hands it to ``obs.attach``."""

    def __init__(self) -> None:
        self.recorder = TraceRecorder()

    def attach(self, sim: Simulator, track: str = "") -> None:
        self.recorder.attach(sim)


def _stream_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(repr((rec.time, rec.value, int(rec.attrs["seq"]),
                       rec.kind)).encode())
        h.update(b"\n")
    return h.hexdigest()


def _stats_digest(stats: dict) -> str:
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()


def model_mm1():
    rec = _Recording()
    stats = simulate_mm1(0.8, 1.0, n_jobs=3_000, warmup=300, seed=SEED, obs=rec)
    return rec.recorder, stats.to_dict()


def model_mmc():
    rec = _Recording()
    stats = simulate_mmc(2.4, 1.0, 3, n_jobs=2_000, warmup=200, seed=SEED,
                         obs=rec)
    return rec.recorder, stats.to_dict()


def model_preemptive():
    """Two job classes on a preemptive priority server; a preempted job
    re-queues with its remaining work."""
    sim = Simulator(seed=SEED)
    recorder = TraceRecorder().attach(sim)
    cpu = Resource(sim, capacity=2, name="cpu", discipline="priority",
                   preemptive=True)
    mon = Monitor("jobs")
    in_system = mon.level("L")
    sojourn = mon.tally("W")
    preemptions = mon.counter("preemptions")
    arr = sim.stream("arrivals")
    svc = sim.stream("service")
    done = [0]

    def job(prio: int, work: float):
        arrived = sim.now
        in_system.add(sim.now, +1)
        while work > 0:
            req = yield cpu.request(priority=prio)
            started = sim.now
            idx, _ = yield AnyOf([timer(sim, work), req.preempted])
            if idx == 1:
                preemptions.increment(sim.now)
                work -= sim.now - started
                continue
            cpu.release(req)
            work = 0.0
        in_system.add(sim.now, -1)
        sojourn.record(sim.now - arrived)
        done[0] += 1

    def source():
        for i in range(600):
            prio = 0 if arr.uniform(0.0, 1.0) < 0.3 else 5
            Process(sim, job, prio, svc.exponential(1.5), name=f"job-{i}")
            yield arr.exponential(1.0)

    Process(sim, source, name="source")
    sim.run()
    t_end = sim.now
    w_mean, w_half = sojourn.batch_means(10)
    stats = QueueRunStats(
        completed=done[0], L=in_system.mean(t_end),
        Lq=cpu.monitor.levels["queue_length"].mean(t_end), W=w_mean,
        Wq=cpu.monitor.tallies["wait_time"].mean,
        utilization=cpu.utilization(t_end), W_ci_halfwidth=w_half).to_dict()
    stats["preemptions"] = preemptions.count
    return recorder, stats


def model_store_container():
    """Producers feed a bounded Store; consumers draw a budget from a
    Container before taking each item, and refill it afterwards."""
    sim = Simulator(seed=SEED)
    recorder = TraceRecorder().attach(sim)
    box = Store(sim, capacity=4, name="box")
    tank = Container(sim, capacity=10.0, initial=6.0, name="tank")
    mon = Monitor("pc")
    latency = mon.tally("latency")
    gaps = sim.stream("produce")
    work = sim.stream("consume")

    def producer(pid: int):
        for k in range(150):
            yield gaps.exponential(1.0)
            yield box.put((pid, k, sim.now))

    def consumer():
        while True:
            need = 1.0 + work.uniform(0.0, 3.0)
            yield tank.take(need)
            _, _, made = yield box.get()
            latency.record(sim.now - made)
            yield work.exponential(0.6)
            yield tank.add(need)

    for pid in range(3):
        Process(sim, producer, pid, name=f"producer-{pid}")
    for cid in range(2):
        Process(sim, consumer, name=f"consumer-{cid}")
    sim.run()
    stats = {"box": box.monitor.summary(sim.now),
             "tank": tank.monitor.summary(sim.now),
             "pc": mon.summary(sim.now)}
    return recorder, stats


MODELS = {
    "mm1": model_mm1,
    "mmc": model_mmc,
    "preemptive": model_preemptive,
    "store_container": model_store_container,
}

#: model -> (events fired, stream SHA-256, statistics SHA-256), captured
#: on the reference implementation
PINNED = {
    "mm1": (12001,
            "fc5daf6a6cb57d3a412013f401c5649723d2720f9a2bc96f4298879c9699a369",
            "2953456d3e64cbb735013644e3900d4e964f25e4003e9f95ed5eddf9229270db"),
    "mmc": (8001,
            "0d763d45d9b7bb5d58f52366952d41c7e03a436be7a0ecd4b51ddda46eff53a7",
            "0e9bfa73f60a463b71b5b9153af01935abc64ea9c4a51232d8318040eff73dae"),
    "preemptive": (
        3256,
        "cfe66e3711d5a3d1c234a0311ed3e6e806fad02a1a73d76a13b589fc5adf1cb9",
        "7b47953867059aea9b3241d5a9ee427d45345051f615200d0788899d51d728c5"),
    "store_container": (
        2707,
        "51f686cad948274e69a25949ec4e3af28749bc5873b150f6e168b0ad28c4d7e0",
        "524757c11117ce2d344fd3e6f00f8c47b9e24eb50880b62a5be2f025d18ca198"),
}


def _observe(name: str) -> tuple[int, str, str]:
    recorder, stats = MODELS[name]()
    return (len(recorder), _stream_digest(recorder.records),
            _stats_digest(stats))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_trajectory_is_pinned(name):
    assert _observe(name) == PINNED[name]


def test_stream_digest_sees_every_field():
    """The digest must move when any one of time, priority, seq, or label
    does, or the pin would let such a change through."""
    recorder, _ = model_mm1()
    records = recorder.records
    base = _stream_digest(records)
    first = records[0]
    for change in ({"time": first.time + 1e-12}, {"value": first.value + 1.0},
                   {"kind": first.kind + "x"},
                   {"attrs": {"seq": str(int(first.attrs["seq"]) + 1)}}):
        altered = [dataclasses.replace(first, **change)] + records[1:]
        assert _stream_digest(altered) != base, change


if __name__ == "__main__":
    for model in sorted(MODELS):
        print(f"    {model!r}: {_observe(model)!r},")
