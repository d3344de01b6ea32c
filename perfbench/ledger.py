"""The layer ledger: span tracing of one repetition, rolled up per layer.

For the traced run only, :func:`instrument` replaces the public entry
points of each simulator layer with thin wrappers that record a span
(name, start, end, parent) around every call, and restores every wrapped
attribute on exit.  Nothing under ``src/`` changes: the wrappers live here.

Event handlers get spans too.  The engine's dispatch loop calls
``pop_if_le`` once per firing, so a handler span runs from one
``pop_if_le`` return to the next ``pop_if_le`` call (or to the end of
``Simulator.run``), and is charged to the layer that owns the module of the
event's callable.  A span's self time is its duration minus the time its
child spans cover, so the layers' self times add up to the traced wall time
without double counting.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from array import array
from time import perf_counter_ns

#: module prefix -> layer; the first matching prefix wins, and a module
#: matching none (model code: scenario bodies, generators, this benchmark)
#: is charged to ``model``.
MODULE_LAYERS = (
    ("repro.core.engine", "engine"),
    ("repro.core.events", "engine"),
    ("repro.core.queues", "queue"),
    ("repro.core.rng", "rng"),
    ("repro.core.process", "process"),
    ("repro.core.resources", "resource"),
    ("repro.core.monitor", "monitor"),
    ("repro.network.flow", "flow"),
    ("repro.network.topology", "topology"),
    ("repro.network", "transfer"),
    ("repro.middleware", "middleware"),
    ("repro.hosts", "hosts"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs"),
    ("repro.campaign", "campaign"),
)

LAYERS = ("engine", "queue", "rng", "process", "resource", "monitor", "flow",
          "topology", "transfer", "middleware", "hosts", "faults", "obs",
          "campaign", "model")


def module_layer(module: str | None) -> str:
    """The layer that owns *module* (``model`` when no layer does)."""
    for prefix, layer in MODULE_LAYERS:
        if module is not None and module.startswith(prefix):
            return layer
    return "model"


class Tracer:
    """In-memory span store with a live stack for self-time accounting.

    Spans are kept as parallel typed arrays (22 bytes a span) so a traced
    repetition of a few million calls stays within a small memory budget.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("H")
        #: open spans: [span index, ns covered by children, is_handler,
        #: number of children]
        self.stack: list[list] = []
        #: tracer cost charged to a span per call (inner) and to its parent
        #: per child (outer); set by :meth:`calibrate`, subtracted in exit()
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        #: plain counters kept at the layer boundaries (see instrument())
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def enter(self, nid: int, handler: bool = False) -> None:
        stack = self.stack
        idx = len(self.start)
        self.parent.append(stack[-1][0] if stack else -1)
        self.name.append(nid)
        self.end.append(0)
        stack.append([idx, 0, handler, 0])
        self.start.append(perf_counter_ns())

    def exit(self) -> None:
        t = perf_counter_ns()
        idx, child_ns, _, children = self.stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        nid = self.name[idx]
        self.self_ns[nid] += (dur - child_ns - children * self.outer_ns
                              - self.inner_ns)
        self.calls[nid] += 1
        if self.stack:
            top = self.stack[-1]
            top[1] += dur
            top[3] += 1

    def calibrate(self, n: int = 20_000, rounds: int = 5) -> None:
        """Measure what one wrapped call costs its own span (``inner_ns``)
        and its parent (``outer_ns``), so self times leave the tracer out."""
        inner, outer = [], []
        for _ in range(rounds):
            probe = Tracer()
            child = probe.name_id("probe.child")
            parent = probe.name_id("probe.parent")
            call = _span(probe, _noop, "probe.child")
            probe.enter(parent)
            for _ in range(n):
                call(probe, 1.0)
            probe.exit()
            inner.append(probe.self_ns[child] / n)
            outer.append(probe.self_ns[parent] / n)
        self.inner_ns = statistics.median(inner)
        self.outer_ns = statistics.median(outer)

    def close_handler(self) -> None:
        """End the open handler span, if the innermost span is one."""
        stack = self.stack
        if stack and stack[-1][2]:
            self.exit()

    # -- read-out -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def calls_of(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_s_of(self, *names: str) -> float:
        return sum(self.self_ns[self._name_ids[n]] for n in names
                   if n in self._name_ids) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (span names are ``<layer>.<what>``)."""
        out = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.self_ns[nid] / 1e9
        return out

    def durations_s(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [(self.end[i] - self.start[i]) / 1e9
                for i in range(len(self.start)) if self.name[i] == nid]

    def write(self, directory: str, stem: str) -> None:
        """Dump the spans: ``<stem>.spans`` holds four native-byte-order
        arrays (start ns, end ns, parent index, name id) of equal length, and
        ``<stem>.json`` names the ids and gives the array typecodes."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, stem + ".spans"), "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.name):
                arr.tofile(fh)
        meta = {"spans": self.span_count(), "names": self.names,
                "arrays": [["start_ns", "q"], ["end_ns", "q"],
                           ["parent", "i"], ["name", "H"]]}
        with open(os.path.join(directory, stem + ".json"), "w") as fh:
            json.dump(meta, fh)


def _noop(*args, **kwargs) -> None:
    pass


def _span(tracer: Tracer, fn, name: str, before=None):
    """*fn* wrapped in a span called *name*; ``before(*args)``, when given,
    runs first, outside the span, to keep a boundary count."""
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args)
        enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()
    return wrapper


class _Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class instrument:
    """Context manager: wrap every layer's entry points into *tracer*.

    Besides spans, it keeps the boundary counts the per-layer ratios need
    (cancellations, route-cache misses, queue high-water mark, simulated
    resource waits) and remembers the flow networks, transfer services and
    machines it saw, so their own counters can be read after the run.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patches = _Patches()
        self.networks: dict[int, object] = {}
        self.services: dict[int, object] = {}
        self.machines: dict[int, object] = {}

    def __enter__(self) -> "instrument":
        try:
            self._install()
        except BaseException:
            self.patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close_handler()
        self.patches.restore()

    def _wrap(self, owner, attr: str, name: str, before=None) -> None:
        self.patches.set(owner, attr, _span(self.tracer, getattr(owner, attr),
                                            name, before))

    def _install(self) -> None:
        from repro.campaign import runner, stats
        from repro.core import engine, events, monitor, process, resources, rng
        from repro.core.queues.heap import HeapQueue
        from repro.faults.graph import FaultGraph
        from repro.hosts import cpu, storage
        from repro.middleware.catalog import ReplicaCatalog
        from repro.middleware.replication import DataReplicationAgent
        from repro.network.flow import FlowNetwork
        from repro.network.topology import Topology
        from repro.network.transfer import FileTransferService
        from repro.obs.session import ObsBinding

        tr = self.tracer
        wrap = self._wrap

        # engine ---------------------------------------------------------------
        wrap(engine.Simulator, "schedule_at", "engine.schedule_at")
        run = engine.Simulator.run
        run_id = tr.name_id("engine.run")

        @functools.wraps(run)
        def traced_run(sim, *args, **kwargs):
            tr.enter(run_id)
            try:
                return run(sim, *args, **kwargs)
            finally:
                tr.close_handler()
                tr.exit()
        self.patches.set(engine.Simulator, "run", traced_run)

        # queue: push/pop spans, the handler spans between pops -------------------
        counts = tr.counts
        counts["queue.max_len"] = 0

        def note_push(q, event) -> None:
            n = q.live_len() + (not event.cancelled)
            if n > counts["queue.max_len"]:
                counts["queue.max_len"] = n
        wrap(HeapQueue, "push", "queue.push", note_push)

        pop = HeapQueue.pop_if_le
        pop_id = tr.name_id("queue.pop")
        step = process.Process._step
        flush = FlowNetwork._flush
        layer_of: dict[object, int] = {}

        def handler_id(fn) -> int:
            f = getattr(fn, "__func__", fn)
            while isinstance(f, functools.partial):
                f = f.func
            key = getattr(f, "__code__", f)
            nid = layer_of.get(key)
            if nid is None:
                if f is flush:
                    name = "flow.realloc"
                else:
                    mod = getattr(f, "__module__", None) \
                        or type(f).__module__
                    name = module_layer(mod) + ".handler"
                nid = layer_of[key] = tr.name_id(name)
            return nid

        @functools.wraps(pop)
        def traced_pop(q, horizon):
            tr.close_handler()
            tr.enter(pop_id)
            try:
                ev = pop(q, horizon)
            finally:
                tr.exit()
            if ev is not None:
                fn = ev.fn
                if getattr(fn, "__func__", None) is step:
                    counts["process.resumptions"] = \
                        counts.get("process.resumptions", 0) + 1
                tr.enter(handler_id(fn), handler=True)
            return ev
        self.patches.set(HeapQueue, "pop_if_le", traced_pop)

        cancel = events.Event.cancel

        @functools.wraps(cancel)
        def counted_cancel(ev):
            if not ev.cancelled:
                counts["queue.cancelled"] = counts.get("queue.cancelled", 0) + 1
            return cancel(ev)
        self.patches.set(events.Event, "cancel", counted_cancel)

        # rng -------------------------------------------------------------------------
        for draw in ("uniform", "exponential", "erlang", "hyperexponential",
                     "pareto", "weibull", "lognormal", "normal", "randint",
                     "choice", "zipf", "poisson", "empirical", "bernoulli",
                     "shuffle"):
            wrap(rng.Stream, draw, "rng.draw")
        zipf_sampler = rng.Stream.zipf_sampler

        @functools.wraps(zipf_sampler)
        def traced_zipf_sampler(stream, *args, **kwargs):
            return _span(tr, zipf_sampler(stream, *args, **kwargs), "rng.draw")
        self.patches.set(rng.Stream, "zipf_sampler", traced_zipf_sampler)

        # process, resources, monitor ------------------------------------------------
        wrap(process.Process, "__init__", "process.spawn")
        wrap(resources.Resource, "request", "resource.request")

        def note_release(res, req) -> None:
            if req.granted_at is not None:
                counts["resource.wait_sum"] = counts.get(
                    "resource.wait_sum", 0.0) + req.granted_at - req.issued_at
        wrap(resources.Resource, "release", "resource.release", note_release)
        wrap(monitor.Tally, "record", "monitor.record")
        wrap(monitor.TimeWeighted, "set", "monitor.set")
        wrap(monitor.TimeWeighted, "add", "monitor.add")
        wrap(monitor.Counter, "increment", "monitor.increment")

        # network, middleware, hosts, faults ----------------------------------------------
        networks, services, machines = self.networks, self.services, self.machines
        wrap(FlowNetwork, "transfer", "flow.transfer",
             lambda net, *_: networks.setdefault(id(net), net))
        wrap(FlowNetwork, "abort_link", "flow.abort_link")

        def note_route(topo, src, dst) -> None:
            # A miss is one networkx single-source Dijkstra run: the route
            # cache is per source and filled on first use.
            if src != dst and src not in topo._route_cache:
                counts["topology.route_misses"] = \
                    counts.get("topology.route_misses", 0) + 1
        wrap(Topology, "route", "topology.route", note_route)
        wrap(Topology, "route_links", "topology.route_links")
        wrap(FileTransferService, "fetch", "transfer.fetch",
             lambda svc, *_: services.setdefault(id(svc), svc))
        wrap(ReplicaCatalog, "best_replica", "middleware.best_replica")
        wrap(ReplicaCatalog, "register", "middleware.register")
        wrap(DataReplicationAgent, "announce", "middleware.announce")
        for cls in (cpu.SpaceSharedMachine, cpu.TimeSharedMachine):
            wrap(cls, "submit", "hosts.submit",
                 lambda m, *_: machines.setdefault(id(m), m))
        wrap(cpu.SpaceSharedMachine, "fail", "hosts.fail")
        wrap(cpu.SpaceSharedMachine, "repair", "hosts.repair")
        wrap(storage.Disk, "read", "hosts.disk_read")
        wrap(storage.Disk, "store", "hosts.disk_store")
        wrap(FaultGraph, "fail", "faults.fail")
        wrap(FaultGraph, "repair", "faults.repair")

        # obs, campaign ----------------------------------------------------------------------
        wrap(ObsBinding, "begin_fire", "obs.begin_fire")
        wrap(ObsBinding, "end_fire", "obs.end_fire")
        wrap(runner, "run_campaign", "campaign.run_campaign")
        wrap(runner, "run_scenario", "campaign.run_scenario")
        wrap(runner, "aggregate_telemetry", "campaign.stats")
        wrap(runner.CampaignResult, "summaries", "campaign.stats")
        wrap(stats, "coverage_verdict", "campaign.stats")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rollup(tracer: Tracer, inst: instrument, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition (see metric_table.py)."""
    c = tracer.counts
    calls = tracer.calls_of
    layer = tracer.layer_self_s()
    events = sum(tracer.calls[nid] for nid, name in enumerate(tracer.names)
                 if name.endswith(".handler") or name == "flow.realloc")
    scheduled = calls("engine.schedule_at")
    pushes = calls("queue.push")
    draws = calls("rng.draw")
    nets = list(inst.networks.values())
    sharing = {k: sum(getattr(n.sharing, k) for n in nets)
               for k in ("recomputes", "flows_touched", "preserved",
                         "rescheduled", "coalesced")}
    services = list(inst.services.values())
    fetches = calls("transfer.fetch")
    retries = sum(s.retries for s in services)
    delays = [s.monitor.tallies.get("queue_delay") for s in services]
    delays = [t for t in delays if t is not None]
    releases = calls("resource.release")
    remote = calls("middleware.best_replica")
    submits = calls("hosts.submit")
    routes = calls("topology.route")
    return {
        "engine.events": events,
        "engine.events_per_s": _ratio(events, untraced_wall_s),
        "engine.schedule_calls": scheduled,
        "engine.schedule_self_s": tracer.self_s_of("engine.schedule_at"),
        "engine.dispatch_self_s": tracer.self_s_of("engine.run",
                                                   "engine.handler"),
        "engine.fired_per_scheduled": _ratio(events, scheduled),
        "queue.push_calls": pushes,
        "queue.pop_calls": calls("queue.pop"),
        "queue.self_s": layer["queue"],
        "queue.max_len": c.get("queue.max_len", 0),
        "queue.cancelled_frac": _ratio(c.get("queue.cancelled", 0), pushes),
        "rng.draws": draws,
        "rng.self_s": layer["rng"],
        "rng.ns_per_draw": _ratio(layer["rng"] * 1e9, draws),
        "process.spawned": calls("process.spawn"),
        "process.resumptions": c.get("process.resumptions", 0),
        "process.self_s": layer["process"],
        "resource.requests": calls("resource.request"),
        "resource.self_s": layer["resource"],
        "resource.mean_wait_sim": _ratio(c.get("resource.wait_sum", 0.0),
                                         releases),
        "monitor.records": calls("monitor.record") + calls("monitor.set")
        + calls("monitor.increment"),
        "monitor.self_s": layer["monitor"],
        "flow.transfers": calls("flow.transfer"),
        "flow.recomputes": sharing["recomputes"],
        "flow.flows_touched": sharing["flows_touched"],
        "flow.preserved_frac": _ratio(
            sharing["preserved"], sharing["preserved"] + sharing["rescheduled"]),
        "flow.coalesced": sharing["coalesced"],
        "flow.aborted": sum(n.aborted for n in nets),
        "flow.realloc_self_s": tracer.self_s_of("flow.realloc"),
        "flow.self_s": layer["flow"],
        "topology.route_calls": routes,
        "topology.route_miss_frac": _ratio(c.get("topology.route_misses", 0),
                                           routes),
        "topology.route_self_s": layer["topology"],
        "transfer.fetches": fetches,
        "transfer.retry_frac": _ratio(retries, fetches + retries),
        "transfer.mean_queue_delay_sim": _ratio(
            sum(t.total for t in delays), sum(t.count for t in delays)),
        "transfer.self_s": layer["transfer"],
        "middleware.announces": calls("middleware.announce"),
        "middleware.best_replica_calls": remote,
        "middleware.remote_read_frac": _ratio(
            remote, remote + calls("hosts.disk_read")),
        "middleware.self_s": layer["middleware"],
        "hosts.submits": submits,
        "hosts.eviction_frac": _ratio(
            sum(m.evictions for m in inst.machines.values()), submits),
        "hosts.self_s": layer["hosts"],
        "faults.crashes": calls("faults.fail"),
        "faults.self_s": layer["faults"],
        "obs.fire_calls": calls("obs.begin_fire"),
        "obs.self_s": layer["obs"],
        "campaign.runs": calls("campaign.run_scenario"),
        "campaign.overhead_s": sum(tracer.durations_s("campaign.run_campaign"))
        - sum(tracer.durations_s("campaign.run_scenario")),
        "campaign.stats_s": tracer.self_s_of("campaign.stats"),
        "model.self_s": layer["model"],
    }
