"""Flow-level network model with incremental max-min fair bandwidth sharing.

Taxonomy *granularity of the simulation*: "the simulation of the network can
model in detail the flow of each packet through the network, a time
consuming operation that leads to better output results, or it can model
only the flows of packets going from one end to another."  This module is
the fast end-to-end option — the granularity SimGrid and OptorSim chose.

Model
-----
Each active transfer is a *flow* with a fixed route and a remaining byte
count.  At any instant, link capacity is divided among crossing flows by
**max-min fairness** computed with the classic progressive-filling
algorithm: repeatedly find the most-constrained link (smallest fair share
``free_capacity / unfrozen_flows``), freeze its flows at that share, remove
the consumed capacity, and continue.

Incremental maintenance
-----------------------
The naive formulation recomputes *every* flow's rate and cancels+reschedules
*every* completion event on each admit/finish — O(F·L) work and O(F) event
churn per network event, the classic cost SimGrid's lazy/partial updates
were built to avoid.  This engine instead:

* keeps a persistent link → crossing-flows index, updated O(route length)
  on admit/finish, instead of rebuilding it per recompute;
* recomputes shares only for the **connected component** of flows that
  share a link (transitively) with the changed flow — progressive filling
  decomposes exactly across components, so disjoint components' rates and
  completion times are left untouched;
* **preserves** the projected completion time (ETA) of any flow whose
  recomputed rate is unchanged within a relative epsilon
  (``RESCHEDULE_EPS``);
* **coalesces** all admits/finishes at one timestamp into a single
  recompute, scheduled at the same time in the :data:`Priority.LOW` band so
  it runs after every same-time network event.

Completion times never enter the kernel's event list one per flow.  Each
network keeps its own heap of ``(eta, key, flow)`` entries — an entry is
live while its key is the flow's current one, so a recompute just pushes
the new ETA and the old entry dies in place — and arms exactly **one**
``flow_done`` kernel event, at the earliest live ETA.  That timer finishes
one flow per firing and re-arms, so the kernel fires exactly the events a
per-flow completion event would have, without leaving a cancelled record
in the event list for every flow a recompute touches.

``incremental=False`` retains the full progressive-filling engine (global
recompute, every ETA recomputed, no coalescing) as the verification
reference and churn baseline; ``verify=True`` cross-checks every
incremental update against it.  Per-network counters in
:attr:`FlowNetwork.sharing` (and, when a :mod:`repro.obs` session is
attached, run telemetry) account for the saved work.

A flow's data starts moving after the route's propagation latency; the
returned :class:`FlowHandle` completes when the last byte arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, RoutingError
from ..core.events import Event, Priority
from ..core.monitor import Monitor
from ..core.process import Waitable
from .topology import LinkSpec, Topology

__all__ = ["FlowHandle", "FlowNetwork", "SharingStats"]

#: absolute backstop for the starvation guard when the relative floor
#: underflows to zero (subnormal link capacities).
_MIN_SHARE = math.ulp(0.0)


class FlowHandle(Waitable):
    """One end-to-end transfer in flight.  Completes with the handle itself."""

    _counter = 0

    def __init__(self, src: str, dst: str, size: float, started: float,
                 rate_cap: float = math.inf) -> None:
        super().__init__()
        FlowHandle._counter += 1
        self.id = FlowHandle._counter
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.started = started
        self.finished: Optional[float] = None
        self.remaining = float(size)
        self.rate = 0.0
        self.rate_cap = float(rate_cap)
        self.links: list[LinkSpec] = []
        #: the owning network's interned ids of ``links``, in route order.
        self._link_ids: tuple[int, ...] = ()
        #: True when the transfer was aborted (a link on its route failed,
        #: or no route existed); ``remaining`` then keeps the undelivered
        #: byte count and ``error`` says why.  Subscribers must check this
        #: — an aborted handle still completes (exactly once), with itself.
        self.failed = False
        self.error: Optional[str] = None
        #: the ETA of the flow's live completion-heap entry (NaN: none) and
        #: that entry's key (-1: none).
        self._eta = math.nan
        self._eta_key = -1
        self._last_update = started

    @property
    def eta(self) -> float:
        """Projected completion time at the current rate.

        NaN while the flow has no live completion entry: before admission,
        while parked at rate 0, and once finished or aborted.
        """
        return self._eta

    @property
    def duration(self) -> float:
        """Transfer time (NaN while in flight)."""
        return (self.finished - self.started) if self.finished is not None else float("nan")

    @property
    def throughput(self) -> float:
        """Achieved end-to-end throughput (bytes/s; NaN while in flight)."""
        d = self.duration
        return self.size / d if d and not math.isnan(d) and d > 0 else float("nan")

    def __repr__(self) -> str:  # pragma: no cover
        if self.failed:
            state = f"aborted ({self.error})"
        elif self.finished is not None:
            state = "done"
        else:
            state = f"{self.remaining:.3g}B left"
        return f"<Flow #{self.id} {self.src}->{self.dst} {state}>"


@dataclass
class SharingStats:
    """Reallocation accounting for one :class:`FlowNetwork`.

    ``preserved``/``rescheduled`` partition the completion times (ETAs) of
    every recomputed flow that holds a positive rate; flows outside the
    recomputed component appear in neither (their ETAs were never touched
    at all).
    """

    recomputes: int = 0          #: progressive-filling passes actually run
    coalesced: int = 0           #: admits/finishes absorbed by a pending pass
    flows_touched: int = 0       #: flows whose rates were recomputed (summed)
    rescheduled: int = 0         #: ETAs recomputed (a fresh heap entry)
    preserved: int = 0           #: ETAs kept (rate unchanged)

    def as_dict(self) -> dict:
        """Flat dict (CSV/JSON-friendly)."""
        return {"recomputes": self.recomputes, "coalesced": self.coalesced,
                "flows_touched": self.flows_touched,
                "rescheduled": self.rescheduled, "preserved": self.preserved}


class FlowNetwork:
    """Event-driven max-min fair flow network over a :class:`Topology`.

    Parameters
    ----------
    sim, topology:
        The owning simulator and the link graph.
    efficiency:
        Fraction of nominal link capacity actually usable (protocol
        overhead); 0.92 by default, mirroring SimGrid's TCP correction.
    incremental:
        When True (default) use the component-scoped incremental engine.
        When False, run the retained full progressive-filling reference:
        every admit/finish immediately recomputes all flows and every
        flow's ETA (the churn baseline).
    verify:
        Debug mode: after every incremental update, recompute the full
        reference allocation and raise if any stored rate diverges beyond
        the epsilon policy.  Used by the differential fuzz tests.
    """

    #: Relative epsilon under which a recomputed rate counts as unchanged
    #: and the flow keeps its ETA (its completion-heap entry).  Chosen far
    #: below any modelled bandwidth change but above progressive-filling
    #: float noise, so drift against the full reference stays
    #: ≤ RESCHEDULE_EPS per flow.
    RESCHEDULE_EPS = 1e-12

    #: Starvation guard: a bottleneck share is floored at this fraction of
    #: the bottleneck link's usable capacity.  Float residue in the free
    #: capacity bookkeeping can otherwise drive a saturated link's share to
    #: exactly zero while an uncapped flow still crosses it — the flow
    #: would freeze at rate 0, never get an ETA, and hang forever (as would
    #: any process yielding on it).
    SHARE_FLOOR_EPS = 1e-12

    def __init__(self, sim: Simulator, topology: Topology,
                 efficiency: float = 0.92, incremental: bool = True,
                 verify: bool = False) -> None:
        if not 0 < efficiency <= 1:
            raise ConfigurationError(f"efficiency must be in (0,1], got {efficiency}")
        self.sim = sim
        self.topology = topology
        self.efficiency = efficiency
        self.incremental = incremental
        self.verify = verify
        #: active flows keyed by id — O(1) admit/finish bookkeeping.
        self._active: dict[int, FlowHandle] = {}
        #: link interning: every link a transfer routes over gets a dense
        #: int id on first use; the lists below are indexed by it.
        self._link_ids: dict[LinkSpec, int] = {}
        self._links: list[LinkSpec] = []
        self._usable: list[float] = []
        #: persistent link id → {flow id: flow} index over active flows.
        self._crossing: list[dict[int, FlowHandle]] = []
        #: flows admitted / link ids released since the last recompute —
        #: the seeds of the next component-scoped pass.
        self._dirty_flows: dict[int, FlowHandle] = {}
        self._dirty_links: set[int] = set()
        self._flush_scheduled = False
        #: completion heap of ``(eta, key, flow)``; an entry is live while
        #: ``key == flow._eta_key``.  Keys count up per network, so equal
        #: ETAs pop in the order they were computed.
        self._etas: list[tuple[float, int, FlowHandle]] = []
        self._eta_keys = 0
        self._live_etas = 0
        #: the one kernel event, armed at the earliest live ETA.
        self._timer: Optional[Event] = None
        self.sharing = SharingStats()
        self.monitor = Monitor("flow-network")
        self._active_level = self.monitor.level("active_flows", start_time=sim.now)
        self.completed = 0
        self.aborted = 0

    # -- public API ---------------------------------------------------------------

    def transfer(self, src: str, dst: str, size: float,
                 rate_cap: float = math.inf) -> FlowHandle:
        """Start moving *size* bytes from *src* to *dst*.

        Returns a :class:`FlowHandle` to ``yield`` on (process style) or to
        subscribe to.  ``rate_cap`` bounds the flow's share (used by the
        TCP-window protocol layer).  Zero-byte transfers complete after the
        path latency alone.
        """
        if not size >= 0:
            raise ConfigurationError(f"transfer size must be >= 0, got {size}")
        handle = FlowHandle(src, dst, size, self.sim.now, rate_cap=rate_cap)
        try:
            handle.links = self.topology.route_links(src, dst)
        except RoutingError:
            # Link outages partitioned the pair: fail fast (deterministic
            # same-timestamp event) instead of raising into the caller —
            # retry loops subscribe to the handle like any other outcome.
            self.sim.schedule(0.0, self._abort, handle,
                              f"no route {src} -> {dst}", label="flow_abort")
            return handle
        handle._link_ids = self._intern(handle.links)
        latency = self.topology.path_latency(src, dst)
        if size == 0 or not handle.links:
            # Same-host copy or empty payload: latency-only, never admitted
            # — must not perturb the rates of flows actually on the wire.
            self.sim.schedule(latency, self._finish, handle, label="flow_done")
            return handle
        self.sim.schedule(latency, self._admit, handle, label="flow_start")
        return handle

    @property
    def active_flows(self) -> int:
        """Number of transfers currently in flight."""
        return len(self._active)

    def flows(self) -> list[FlowHandle]:
        """The currently active flows (snapshot list)."""
        return list(self._active.values())

    def link_utilization(self, spec: LinkSpec) -> float:
        """Instantaneous utilization of one link by active flows."""
        lid = self._link_ids.get(spec)
        if lid is None:
            return 0.0  # no transfer has ever routed over it
        used = sum(f.rate for f in self._crossing[lid].values())
        return used / self._usable[lid]

    def reference_rates(self) -> dict[int, float]:
        """Full progressive filling over every active flow.

        The retained reference implementation: tests and the differential
        fuzz harness compare the incremental engine's stored rates against
        this on demand (and continuously with ``verify=True``).
        """
        return self._max_min_rates(dict(self._active))

    def abort_link(self, spec: LinkSpec) -> list[FlowHandle]:
        """Abort every active flow crossing *spec* (the link went down).

        Routing state lives on the :class:`Topology` — callers mark the
        outage there first (``topology.fail_link``) so no new flow routes
        over the dead link, then call this to kill the in-flight ones.
        Returns the aborted handles (each completed with ``failed=True``).
        """
        lid = self._link_ids.get(spec)
        if lid is None:
            return []
        victims = list(self._crossing[lid].values())
        for f in victims:
            self._abort(f, f"link {spec.src}->{spec.dst} failed")
        return victims

    # -- internals ------------------------------------------------------------------

    def _intern(self, links: list[LinkSpec]) -> tuple[int, ...]:
        """Dense int ids of *links*, assigning new ids on first sight.

        Ids follow first-admission order, which is fixed by the event
        stream — unlike ``LinkSpec`` hashes, which mix in per-process
        string hashing — so every structure keyed by them iterates the
        same way in every interpreter.
        """
        ids = self._link_ids
        out = []
        for link in links:
            lid = ids.get(link)
            if lid is None:
                lid = ids[link] = len(self._links)
                self._links.append(link)
                self._usable.append(link.bandwidth * self.efficiency)
                self._crossing.append({})
            out.append(lid)
        return tuple(out)

    def _release(self, handle: FlowHandle) -> None:
        """Drop an admitted flow from the active set and the link index."""
        del self._active[handle.id]
        crossing = self._crossing
        for lid in handle._link_ids:
            crossing[lid].pop(handle.id, None)
        self._active_level.set(self.sim.now, len(self._active))

    def _abort(self, handle: FlowHandle, reason: str) -> None:
        """Terminate *handle* as failed: settle bytes, free its links,
        drop its ETA, and complete it with ``failed=True``."""
        if handle.finished is not None:
            return  # already finished or aborted — completion fires once
        admitted = handle.id in self._active
        if admitted:
            self._settle(handle)
            self._release(handle)
            self._drop_eta(handle)
        handle.rate = 0.0
        handle.failed = True
        handle.error = reason
        handle.finished = self.sim.now
        self.aborted += 1
        self.monitor.counter("aborted_flows").increment(self.sim.now)
        obs = self.sim._obs
        if obs is not None:
            obs.on_flow_abort(handle)
        handle._complete(handle)
        if admitted:
            # the freed share goes back to the survivors on those links
            self._mark_dirty(links=handle._link_ids)
            self._arm()

    def _admit(self, handle: FlowHandle) -> None:
        # The route was up when the transfer started; a link may have died
        # during the propagation latency.  Admitting onto a dead link would
        # let bytes flow through an outage, so abort at the edge instead.
        for link in handle.links:
            if not self.topology.link_up(link.src, link.dst):
                self._abort(handle, f"link {link.src}->{link.dst} down")
                return
        handle._last_update = self.sim.now
        self._active[handle.id] = handle
        for lid in handle._link_ids:
            self._crossing[lid][handle.id] = handle
        self._active_level.set(self.sim.now, len(self._active))
        self._mark_dirty(flow=handle)

    def _finish(self, handle: FlowHandle) -> None:
        if handle.finished is not None:
            return  # aborted in the same instant — completion fires once
        admitted = handle.id in self._active
        handle.remaining = 0.0
        handle.rate = 0.0
        handle.finished = self.sim.now
        if admitted:
            self._release(handle)
        self.completed += 1
        self.monitor.tally("transfer_time").record(handle.duration)
        if admitted:
            # Never-admitted (latency-only) handles moved no bytes over any
            # link; tallying their 0 B/s would deflate the throughput stat.
            self.monitor.tally("throughput").record(handle.throughput)
        handle._complete(handle)
        if admitted:
            # A flow that never held bandwidth cannot change anyone's share.
            self._mark_dirty(links=handle._link_ids)

    def _settle(self, handle: FlowHandle) -> None:
        """Account bytes moved at the current rate since the last update."""
        dt = self.sim.now - handle._last_update
        if dt > 0:
            left = handle.remaining - handle.rate * dt
            handle.remaining = left if left > 0.0 else 0.0  # max(0.0, left)
        handle._last_update = self.sim.now

    def _mark_dirty(self, flow: FlowHandle | None = None,
                    links: Iterable[int] | None = None) -> None:
        """Record a topology-of-flows change and arrange one recompute.

        Incremental mode defers the recompute to a same-timestamp LOW-band
        event so every admit/finish at this instant lands in one pass; the
        reference mode recomputes immediately, exactly as the original
        engine did.
        """
        if not self.incremental:
            self._apply_rates(dict(self._active), preserve=False)
            self._arm()
            return
        if flow is not None:
            self._dirty_flows[flow.id] = flow
        if links is not None:
            self._dirty_links.update(links)
        if self._flush_scheduled:
            self.sharing.coalesced += 1
            return
        self._flush_scheduled = True
        self.sim.schedule(0.0, self._flush, label="flow_realloc",
                          priority=Priority.LOW)

    def _flush(self) -> None:
        """Run the coalesced, component-scoped recompute."""
        self._flush_scheduled = False
        dirty_flows = self._dirty_flows
        seed_links = self._dirty_links
        self._dirty_flows = {}
        self._dirty_links = set()
        for f in dirty_flows.values():
            if f.id in self._active:
                seed_links.update(f._link_ids)
        if seed_links:
            component = self._component(seed_links)
            if component:
                self._apply_rates(component, preserve=True)
                if self.verify:
                    self._verify_against_reference()
        self._arm()

    def _component(self, seed_links: Iterable[int]) -> dict[int, FlowHandle]:
        """Flows transitively sharing a link with any seed link id."""
        crossing = self._crossing
        flows: dict[int, FlowHandle] = {}
        stack = list(seed_links)
        seen = set(stack)
        while stack:
            for fid, f in crossing[stack.pop()].items():
                if fid not in flows:
                    flows[fid] = f
                    for lid in f._link_ids:
                        if lid not in seen:
                            seen.add(lid)
                            stack.append(lid)
        return flows

    def _apply_rates(self, flows: dict[int, FlowHandle], preserve: bool) -> None:
        """Settle, recompute max-min shares, and recompute ETAs.

        With *preserve*, a flow whose new rate matches its current rate
        within :data:`RESCHEDULE_EPS` (relative) keeps both its stored rate
        and its live heap entry — that ETA is still exact, since bytes keep
        draining at the unchanged rate.  The caller re-arms the timer.
        """
        if not flows:
            return
        # _max_min_rates reads no byte counts, so settling can ride along
        # in the ETA loop below.
        rates = self._max_min_rates(flows)
        now = self.sim.now
        stats = self.sharing
        stats.recomputes += 1
        stats.flows_touched += len(flows)
        rescheduled = preserved = 0
        eps = self.RESCHEDULE_EPS
        etas = self._etas
        key = self._eta_keys
        live = self._live_etas
        for fid, f in flows.items():
            dt = now - f._last_update  # _settle, inlined: one clock read
            if dt > 0:
                left = f.remaining - f.rate * dt
                f.remaining = left if left > 0.0 else 0.0
            f._last_update = now
            new_rate = rates[fid]
            old_rate = f.rate
            if preserve and f._eta_key >= 0:
                # abs(new - old) <= eps * max(abs(new), abs(old)), for the
                # non-negative rates progressive filling hands out
                tol = eps * (old_rate if old_rate > new_rate else new_rate)
                diff = new_rate - old_rate
                if -tol <= diff <= tol:
                    preserved += 1
                    continue
            f.rate = new_rate
            if new_rate > 0:
                if f._eta_key < 0:
                    live += 1
                key += 1
                # bitwise the time schedule(remaining / rate, ...) computes
                f._eta = eta = now + f.remaining / new_rate
                f._eta_key = key
                heappush(etas, (eta, key, f))
                rescheduled += 1
            elif f._eta_key >= 0:
                # rate == 0 can only happen with a rate cap of 0; such flows
                # sit idle until a reallocation frees capacity.
                f._eta = math.nan
                f._eta_key = -1
                live -= 1
        self._eta_keys = key
        self._live_etas = live
        stats.rescheduled += rescheduled
        stats.preserved += preserved
        obs = self.sim._obs
        if obs is not None:
            obs.on_reallocate(len(flows), rescheduled, preserved)

    def _drop_eta(self, flow: FlowHandle) -> None:
        """Kill *flow*'s heap entry in place (the caller re-arms)."""
        if flow._eta_key >= 0:
            flow._eta = math.nan
            flow._eta_key = -1
            self._live_etas -= 1

    def _next_eta(self) -> Optional[float]:
        """The earliest live ETA, dropping dead entries off the top."""
        etas = self._etas
        while etas:
            eta, key, flow = etas[0]
            if flow._eta_key == key:
                return eta
            heappop(etas)
        return None

    def _arm(self) -> None:
        """Keep the one completion timer on the earliest live ETA.

        While a recompute is pending the timer is only armed for a flow due
        at this very instant: that pass (LOW band, same instant) re-arms,
        and it would move a timer armed for later anyway.
        """
        if len(self._etas) > 2 * self._live_etas:
            # dead entries outnumber live ones: rebuild from the live ones
            self._etas = [e for e in self._etas if e[2]._eta_key == e[1]]
            heapify(self._etas)
        eta = self._next_eta()
        timer = self._timer
        if timer is not None:
            if timer.time == eta:
                return
            timer.cancel()
            self._timer = None
        if eta is not None and (not self._flush_scheduled
                                or eta <= self.sim.now):
            self._timer = self.sim.schedule_at(eta, self._on_timer,
                                               label="flow_done")

    def _on_timer(self) -> None:
        """Finish the one flow due now, then re-arm for the next."""
        self._timer = None
        flow = heappop(self._etas)[2]  # _arm left a live entry due now on top
        self._drop_eta(flow)
        eta = self._next_eta()
        if eta is not None and eta <= self.sim.now:
            # a flow due at this same instant fires before anything this
            # completion schedules, as its own event would have
            self._timer = self.sim.schedule_at(eta, self._on_timer,
                                               label="flow_done")
        self._finish(flow)
        self._arm()

    def _verify_against_reference(self) -> None:
        """Assert stored rates match the full progressive-filling reference.

        The tolerance covers the two sanctioned divergence sources: an
        epsilon-preserved stale rate (≤ RESCHEDULE_EPS relative) and float
        tie-break noise between component-local and global filling order.
        """
        reference = self.reference_rates()
        for fid, want in reference.items():
            got = self._active[fid].rate
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
                raise AssertionError(
                    f"incremental rate divergence: flow #{fid} has rate "
                    f"{got!r}, full reference says {want!r} "
                    f"(active={len(self._active)})")

    def _max_min_rates(self, flows: dict[int, FlowHandle]) -> dict[int, float]:
        """Progressive filling restricted to *flows*.

        Callers pass either one connected component (the incremental path —
        filling decomposes exactly across components, so the restriction is
        lossless) or every active flow (the full reference).
        """
        if not flows:
            return {}
        usable = self._usable
        # Links in first-encounter order over *flows*: the bottleneck scan
        # walks them in this order, so its strict ``<`` picks the first of
        # any tied links.
        free: dict[int, float] = {}
        crossing: dict[int, list[FlowHandle]] = {}
        # Only finitely capped flows can ever freeze at their cap; listed in
        # *flows* order, so caps are subtracted from ``free`` in an order
        # that does not depend on flow-id values.
        idle: list[FlowHandle] = []
        cap_pool: list[FlowHandle] = []
        inf = math.inf
        for f in flows.values():
            for lid in f._link_ids:
                crossers = crossing.get(lid)
                if crossers is None:
                    free[lid] = usable[lid]
                    crossing[lid] = [f]
                else:
                    crossers.append(f)
            cap = f.rate_cap
            if cap < inf:
                (idle if cap <= 0.0 else cap_pool).append(f)
        #: unfrozen crossers per link, kept live as flows freeze; a link
        #: leaves the dict when its last crosser freezes.
        live = {lid: len(crossers) for lid, crossers in crossing.items()}
        rates: dict[int, float] = {}

        def freeze(f: FlowHandle, rate: float) -> None:
            rates[f.id] = rate
            for lid in f._link_ids:
                left = free[lid] - rate
                free[lid] = left if left > 0.0 else 0.0  # max(0.0, left)
                n = live[lid] - 1
                if n:
                    live[lid] = n
                else:
                    del live[lid]

        # Flows capped at 0 or below can never carry bytes; freeze them first
        # so the starvation guard below applies only to servable flows.
        for f in idle:
            freeze(f, 0.0)
        n_flows = len(flows)
        while len(rates) < n_flows:
            # Fair share each link could offer its unfrozen flows; track the
            # single most-constrained link (the iteration's bottleneck).
            best_share = math.inf
            best_link: Optional[int] = None
            for lid, n in live.items():
                share = free[lid] / n
                if share < best_share:
                    best_share = share
                    best_link = lid
            if best_link is None:
                # Remaining flows cross no constrained link (can only happen
                # with rate caps); give them their caps.
                for fid, f in flows.items():
                    if fid not in rates:
                        rates[fid] = f.rate_cap
                break
            # Starvation guard: float residue in `free` after repeated
            # subtraction can reach exactly 0 (or epsilon dust) while
            # uncapped flows still cross the link; a zero share would
            # freeze them at rate 0 with no ETA — a permanent hang.
            # Floor the share relative to the bottleneck's capacity
            # (overshoot is ≤ crossers · floor, far inside the efficiency
            # margin), with an absolute backstop for subnormal capacities.
            floor = self.SHARE_FLOOR_EPS * usable[best_link]
            if best_share < floor or best_share <= 0.0:
                best_share = floor if floor > 0.0 else _MIN_SHARE
            # Flows capped below the bottleneck share freeze at their cap
            # first — they consume less than a fair share everywhere.
            if cap_pool:
                capped = [f for f in cap_pool
                          if f.id not in rates and f.rate_cap < best_share]
                if capped:
                    for f in capped:
                        freeze(f, f.rate_cap)
                    continue
            # Freeze exactly the bottleneck link's flows at its fair share
            # (freeze, inlined).
            for f in crossing[best_link]:
                fid = f.id
                if fid not in rates:
                    rates[fid] = best_share
                    for lid in f._link_ids:
                        left = free[lid] - best_share
                        free[lid] = left if left > 0.0 else 0.0
                        n = live[lid] - 1
                        if n:
                            live[lid] = n
                        else:
                            del live[lid]
        # Post-condition of the guard: no servable flow ever starves.
        for fid, rate in rates.items():
            if rate <= 0.0 and flows[fid].rate_cap > 0.0:
                raise AssertionError(
                    f"max-min starvation: flow #{fid} (cap "
                    f"{flows[fid].rate_cap!r}) allocated rate {rate!r}")
        return rates
