"""Small fixed probes recorded beside the workloads.

* :func:`calibrate` — a pure-Python loop of fixed work.  Its time says how
  fast this host runs the interpreter right now; the benchmark measures it
  (in a :class:`Calibrator` process) beside every timing it takes and
  scales its times to a reference host speed.
* :func:`callback_floor` — the process-layer floor: the same M/M/1 as
  ``simulate_mm1``, driven by bare ``Simulator.schedule`` callbacks on the
  same arrival and service streams.  The two runs give identical sojourn
  times, so their wall-time ratio is the cost of the process and resource
  layers alone.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from collections import deque
from heapq import heappop, heappush
from time import perf_counter


class _Item:
    __slots__ = ("key", "tag")

    def __init__(self, key: float, tag: str) -> None:
        self.key = key
        self.tag = tag

    def weight(self, x: float) -> float:
        return self.key + x


#: objects in the calibration arena: about 70 MB, well beyond the caches
ARENA_ITEMS = 400_000


def make_arena(n: int = ARENA_ITEMS) -> list:
    return [[i, str(i), float(i)] for i in range(n)]


def calibrate(arena: list) -> float:
    """Seconds for one pass of a fixed interpreter- and memory-bound loop.

    The loop does what a DES does, without any ``repro`` code: it allocates
    small slotted objects, pushes and pops a heap of tuples, updates a dict
    and calls methods, then walks *arena* in a cache-hostile order.  A host
    that is busy, throttled or short of cache for its neighbours slows it
    about as much as it slows the workloads; a change to the simulator
    cannot change it.
    """
    t0 = perf_counter()
    heap, index, acc = [], {}, 0.0
    for i in range(30_000):
        item = _Item(i * 0.5, str(i & 255))
        heappush(heap, (item.key, i, item))
        index[item.tag] = item
        if len(heap) > 64:
            acc += heappop(heap)[2].weight(1.0)
    n, j = len(arena), 0
    for _ in range(75_000):
        j = (j + 7919) % n
        cell = arena[j]
        cell[2] += 1.0
    return perf_counter() - t0


class Calibrator:
    """Times :func:`calibrate` on request in a separate process.

    The arena lives there so that it adds nothing to the benchmark
    process's peak memory.  Use as a context manager: leaving it ends the
    process and waits for it.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended unexpectedly")
        return float(line)

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def _serve() -> None:
    arena = make_arena()
    for _ in sys.stdin:
        print(calibrate(arena), flush=True)


def callback_mm1(lam: float, mu: float, n_jobs: int, warmup: int,
                 seed: int) -> float:
    """M/M/1 on bare callbacks; returns the mean sojourn of customers
    ``warmup..n_jobs-1`` truncated to ten equal batches, as
    ``simulate_mm1`` reports it."""
    from repro.core import Simulator

    sim = Simulator(seed=seed)
    arr = sim.stream("arrivals")
    svc = sim.stream("service")
    waiting: deque = deque()
    busy = [False]
    sojourns: list[float] = []

    def start(i: int, arrived: float) -> None:
        busy[0] = True
        sim.schedule(svc.exponential(1 / mu), depart, i, arrived)

    def depart(i: int, arrived: float) -> None:
        if i >= warmup:
            sojourns.append(sim.now - arrived)
        if waiting:
            start(*waiting.popleft())
        else:
            busy[0] = False

    def arrive(i: int) -> None:
        if busy[0]:
            waiting.append((i, sim.now))
        else:
            start(i, sim.now)
        gap = arr.exponential(1 / lam)
        if i + 1 < n_jobs:
            sim.schedule(gap, arrive, i + 1)

    sim.schedule(0.0, arrive, 0)
    sim.run()
    usable = (len(sojourns) // 10) * 10
    return sum(sojourns[:usable]) / usable


def callback_floor(seed: int, n_jobs: int = 10_000, rounds: int = 3,
                   lam: float = 0.8, mu: float = 1.0) -> dict:
    """Interleaved process-model vs callback-model M/M/1 timings."""
    from repro.validation import simulate_mm1

    warmup = n_jobs // 10
    proc_s, cb_s, agree = [], [], True
    for _ in range(rounds):
        gc.collect()
        t0 = perf_counter()
        w_proc = simulate_mm1(lam, mu, n_jobs=n_jobs, warmup=warmup,
                              seed=seed).W
        t1 = perf_counter()
        gc.collect()
        t2 = perf_counter()
        w_cb = callback_mm1(lam, mu, n_jobs, warmup, seed)
        t3 = perf_counter()
        proc_s.append(t1 - t0)
        cb_s.append(t3 - t2)
        agree = agree and abs(w_proc - w_cb) <= 1e-9 * abs(w_proc)
    return {"ratio": statistics.median(proc_s) / statistics.median(cb_s),
            "agree": agree, "W": w_proc}


if __name__ == "__main__":
    _serve()
