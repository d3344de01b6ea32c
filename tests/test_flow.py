"""Tests for the flow-level network: max-min fairness, event timing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Process, Simulator
from repro.network import FlowNetwork, LinkSpec, Topology, dumbbell


def _live_labels(sim):
    """Labels of the live (not cancelled) events in the kernel's queue."""
    return sorted(ev.label for ev in sim._queue._iter_events()
                  if not ev.cancelled)


def simple_net(bw=100.0, latency=0.0, efficiency=1.0):
    t = Topology()
    t.add_link("a", "b", bw, latency)
    sim = Simulator()
    return sim, FlowNetwork(sim, t, efficiency=efficiency)


class TestSingleFlow:
    def test_lone_flow_gets_full_capacity(self):
        sim, net = simple_net(bw=100.0)
        h = net.transfer("a", "b", 1000.0)
        sim.run()
        assert h.finished == pytest.approx(10.0)
        assert h.throughput == pytest.approx(100.0)

    def test_latency_prepended(self):
        sim, net = simple_net(bw=100.0, latency=2.0)
        h = net.transfer("a", "b", 1000.0)
        sim.run()
        assert h.finished == pytest.approx(12.0)

    def test_zero_size_transfer_latency_only(self):
        sim, net = simple_net(bw=100.0, latency=3.0)
        h = net.transfer("a", "b", 0.0)
        sim.run()
        assert h.done and sim.now == pytest.approx(3.0)

    def test_same_node_transfer(self):
        sim, net = simple_net()
        h = net.transfer("a", "a", 500.0)
        sim.run()
        assert h.done

    def test_negative_size_rejected(self):
        sim, net = simple_net()
        with pytest.raises(ConfigurationError):
            net.transfer("a", "b", -1.0)
        with pytest.raises(ConfigurationError):  # nor is NaN a size
            net.transfer("a", "b", float("nan"))

    def test_efficiency_scales_rate(self):
        sim, net = simple_net(bw=100.0, efficiency=0.5)
        h = net.transfer("a", "b", 100.0)
        sim.run()
        assert h.finished == pytest.approx(2.0)

    def test_rate_cap_respected(self):
        sim, net = simple_net(bw=100.0)
        h = net.transfer("a", "b", 100.0, rate_cap=10.0)
        sim.run()
        assert h.finished == pytest.approx(10.0)


class TestFairSharing:
    def test_two_flows_halve_the_link(self):
        sim, net = simple_net(bw=100.0)
        h1 = net.transfer("a", "b", 1000.0)
        h2 = net.transfer("a", "b", 1000.0)
        sim.run()
        # both share 50 each, finish together at t=20
        assert h1.finished == pytest.approx(20.0)
        assert h2.finished == pytest.approx(20.0)

    def test_short_flow_releases_capacity(self):
        sim, net = simple_net(bw=100.0)
        h1 = net.transfer("a", "b", 1000.0)
        h2 = net.transfer("a", "b", 100.0)
        sim.run()
        # share 50/50 until h2 ends at t=2 (100B at 50B/s);
        # h1 then has 900B left at 100B/s -> ends at 2 + 9 = 11
        assert h2.finished == pytest.approx(2.0)
        assert h1.finished == pytest.approx(11.0)

    def test_late_arrival_steals_share(self):
        sim, net = simple_net(bw=100.0)
        h1 = net.transfer("a", "b", 1000.0)
        h2_holder = {}
        sim.schedule(5.0, lambda: h2_holder.update(h=net.transfer("a", "b", 250.0)))
        sim.run()
        # h1 alone for 5s (500B), then 50/50: h2 takes 5s (250B),
        # h1 has 250B left at t=10, full rate -> ends 12.5
        assert h2_holder["h"].finished == pytest.approx(10.0)
        assert h1.finished == pytest.approx(12.5)

    def test_max_min_with_unequal_bottlenecks(self):
        """Dumbbell: two flows share the bottleneck; a local flow doesn't."""
        t = dumbbell(["l1", "l2"], ["r1", "r2"], access_bw=100.0,
                     bottleneck_bw=60.0, latency=0.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        cross1 = net.transfer("l1", "r1", 300.0)   # crosses bottleneck
        cross2 = net.transfer("l2", "r2", 300.0)   # crosses bottleneck
        local = net.transfer("l1", "l2", 300.0)    # Lhub only
        sim.run()
        # bottleneck 60 shared -> 30 each; local flow: l1 access link shared
        # with cross1: l1->Lhub carries cross1(30)+local -> local gets 70.
        assert cross1.finished == pytest.approx(10.0)
        assert cross2.finished == pytest.approx(10.0)
        assert local.finished < 10.0

    def test_capacity_conservation_invariant(self):
        """Sum of rates on any link never exceeds capacity."""
        t = dumbbell(["l1", "l2", "l3"], ["r1"], access_bw=80.0,
                     bottleneck_bw=50.0, latency=0.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        for src in ("l1", "l2", "l3"):
            net.transfer(src, "r1", 500.0)
        # inspect rates after admission (t=0 events)
        sim.run(until=0.001)
        for link in t.links:
            used = sum(f.rate for f in net.flows() if link in f.links)
            assert used <= link.bandwidth + 1e-6

    def test_process_can_yield_flow(self):
        sim, net = simple_net(bw=10.0)
        log = []

        def body():
            h = yield net.transfer("a", "b", 100.0)
            log.append((sim.now, h.throughput))

        Process(sim, body)
        sim.run()
        assert log and log[0][0] == pytest.approx(10.0)

    def test_statistics_recorded(self):
        sim, net = simple_net()
        net.transfer("a", "b", 100.0)
        net.transfer("a", "b", 100.0)
        sim.run()
        assert net.completed == 2
        assert net.monitor.tally("transfer_time").count == 2


class TestStarvationGuard:
    """Regression: float residue (or underflow) in the free-capacity
    bookkeeping must never freeze an uncapped flow at rate 0 — a starved
    flow gets no completion event and the transfer hangs forever."""

    @pytest.mark.parametrize("incremental", [True, False])
    def test_subnormal_capacity_does_not_starve(self, incremental):
        # bandwidth 5e-324 (the minimum subnormal): the fair share for two
        # crossing flows, 5e-324 / 2, rounds to exactly 0.0 — the old
        # engine allocated rate 0 to both flows and never completed either.
        t = Topology()
        t.add_link("a", "b", 5e-324, 0.0)
        t.add_link("b", "c", 5e-324, 0.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0, incremental=incremental)
        h1 = net.transfer("a", "c", 5e-323)  # crosses both saturated links
        h2 = net.transfer("a", "c", 5e-323)
        sim.run(until=1e-9)
        for h in (h1, h2):
            assert h.rate > 0.0, "uncapped active flow frozen at rate 0"
            assert math.isfinite(h.eta), "starved flow has no completion time"
        sim.run()
        assert h1.done and h2.done

    def test_zero_rate_cap_flow_may_idle(self):
        """The guard applies to *servable* flows only: a cap of exactly 0
        legitimately parks the flow at rate 0 (no starvation assert)."""
        t = Topology()
        t.add_link("a", "b", 100.0, 0.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        live = net.transfer("a", "b", 100.0)
        parked = net.transfer("a", "b", 100.0, rate_cap=0.0)
        sim.run(until=1e-9)
        assert live.rate == pytest.approx(100.0)  # full link, sharer is idle
        assert parked.rate == 0.0 and not parked.done


class TestIncrementalSharing:
    def net(self, links, incremental=True, verify=True):
        t = Topology()
        for a, b, bw in links:
            t.add_link(a, b, bw, 0.0)
        sim = Simulator()
        return sim, FlowNetwork(sim, t, efficiency=1.0,
                                incremental=incremental, verify=verify)

    def test_same_timestamp_admits_coalesce_into_one_recompute(self):
        sim, net = self.net([("a", "b", 100.0)])
        handles = [net.transfer("a", "b", 100.0) for _ in range(5)]
        sim.run(until=1e-9)
        assert net.sharing.recomputes == 1
        assert net.sharing.coalesced == 4
        assert net.sharing.flows_touched == 5
        sim.run()
        assert all(h.done for h in handles)

    def test_disjoint_component_events_untouched(self):
        sim, net = self.net([("a", "b", 100.0), ("c", "d", 100.0)])
        h1 = net.transfer("a", "b", 1000.0)
        sim.run(until=0.5)
        eta1 = h1.eta
        assert eta1 == 10.0
        h2 = net.transfer("c", "d", 100.0)
        sim.run(until=0.6)
        # h2's admit recomputed only its own one-flow component: h1's ETA
        # was neither recomputed nor kept by a pass, it was never touched
        assert h1.eta == eta1
        assert net.sharing.flows_touched == 2  # one per single-flow flush
        assert net.sharing.rescheduled == 2 and net.sharing.preserved == 0
        # both flows ride on one kernel event, now armed for h2
        assert _live_labels(sim) == ["flow_done"]
        assert sim.peek_time() == h2.eta == 1.5
        sim.run()
        assert h1.finished == pytest.approx(10.0)
        assert h2.finished == pytest.approx(1.5)

    def test_unchanged_rate_preserves_completion_event(self):
        sim, net = self.net([("a", "b", 100.0)])
        big = net.transfer("a", "b", 10_000.0)
        capped = net.transfer("a", "b", 1_000.0, rate_cap=10.0)
        sim.run(until=1e-9)
        assert big.rate == pytest.approx(90.0)
        assert capped.rate == pytest.approx(10.0)
        eta = capped.eta
        holder = {}
        sim.schedule(1.0, lambda: holder.update(
            h=net.transfer("a", "b", 500.0, rate_cap=5.0)))
        preserved = net.sharing.preserved
        sim.run(until=1.5)
        # the newcomer squeezes `big` (85), but `capped` still gets its cap:
        # its rate is unchanged, so its completion time must be kept
        assert big.rate == pytest.approx(85.0)
        assert capped.eta == eta
        assert net.sharing.preserved == preserved + 1
        sim.run()
        assert big.done and capped.done and holder["h"].done

    def test_latency_only_transfers_leave_rates_alone(self):
        sim, net = self.net([("a", "b", 100.0)])
        h = net.transfer("a", "b", 1000.0)
        sim.run(until=1e-9)
        eta = h.eta
        recomputes = net.sharing.recomputes
        pending = sim.pending
        zero = net.transfer("a", "b", 0.0)    # empty payload
        local = net.transfer("b", "b", 50.0)  # same-host copy
        sim.run(until=0.1)
        assert zero.done and local.done
        # neither was ever admitted: no recompute, no event churn
        assert h.eta == eta
        assert net.sharing.recomputes == recomputes
        assert sim.pending == pending
        sim.run()
        assert h.finished == pytest.approx(10.0)
        assert net.completed == 3
        # throughput is only tallied for flows that actually held bandwidth
        assert net.monitor.tally("throughput").count == 1
        assert net.monitor.tally("transfer_time").count == 3

    def test_reference_mode_matches_incremental(self):
        for incremental in (True, False):
            sim, net = self.net([("a", "b", 100.0), ("b", "c", 60.0)],
                                incremental=incremental, verify=incremental)
            h1 = net.transfer("a", "c", 300.0)
            h2 = net.transfer("a", "b", 300.0)
            sim.run()
            if incremental:
                inc = (h1.finished, h2.finished)
            else:
                ref = (h1.finished, h2.finished)
        assert inc == pytest.approx(ref, rel=1e-9)


class TestLinkInterning:
    """Links are interned per network by value, on first use."""

    def net(self):
        t = Topology()
        t.add_link("a", "b", 100.0, 0.0)
        t.add_link("b", "c", 100.0, 0.0)
        sim = Simulator()
        return sim, t, FlowNetwork(sim, t, efficiency=1.0, verify=True)

    def test_never_crossed_link_is_idle(self):
        sim, t, net = self.net()
        h = net.transfer("a", "b", 1000.0)
        sim.run(until=1.0)
        unused = t.link("b", "c")
        assert net.link_utilization(unused) == 0.0
        assert net.abort_link(unused) == []
        assert not h.failed
        sim.run()
        assert h.finished == pytest.approx(10.0)

    def test_equal_but_distinct_spec_resolves_to_same_link(self):
        sim, t, net = self.net()
        net.transfer("a", "c", 1000.0)
        net.transfer("a", "b", 1000.0)
        sim.run(until=1.0)
        own = t.link("a", "b")
        twin = LinkSpec(own.src, own.dst, own.bandwidth, own.latency)
        assert twin is not own and twin == own
        assert net.link_utilization(twin) == net.link_utilization(own) == 1.0
        victims = net.abort_link(twin)
        assert len(victims) == 2 and all(v.failed for v in victims)
        assert net.abort_link(own) == []

    def test_verify_clean_through_abort_repair_cycle(self):
        sim, t, net = self.net()
        long = net.transfer("a", "c", 1000.0)
        short = net.transfer("b", "c", 1000.0)
        sim.run(until=1.0)
        for spec in t.fail_link("a", "b"):
            net.abort_link(spec)
        assert long.failed and not short.failed
        sim.run(until=2.0)
        assert short.rate == pytest.approx(100.0)
        t.repair_link("a", "b")
        again = net.transfer("a", "c", 500.0)
        sim.run()
        assert not again.failed and not short.failed
        assert net.aborted == 1 and net.active_flows == 0
        # 50/50 until the abort at 1, alone until 2, 50/50 with `again`
        # until it ends at 12, then alone for the last 350 bytes
        assert again.finished == pytest.approx(12.0)
        assert short.finished == pytest.approx(15.5)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=8),
       bw=st.floats(min_value=1.0, max_value=1e3))
def test_property_shared_link_aggregate_time(sizes, bw):
    """N simultaneous flows on one link finish no earlier than total/capacity,
    and the last finisher lands exactly at total_bytes/bandwidth (work
    conservation for a single shared link)."""
    sim, net = simple_net(bw=bw)
    handles = [net.transfer("a", "b", s) for s in sizes]
    sim.run()
    last = max(h.finished for h in handles)
    assert last == pytest.approx(sum(sizes) / bw, rel=1e-6)
    for h in handles:
        assert h.finished >= h.size / bw - 1e-9  # nobody beats the capacity


class TestCompletionTimer:
    """Flow completions live in a per-network heap behind one kernel event."""

    def net(self, incremental=True):
        t = Topology()
        t.add_link("a", "b", 100.0, 0.0)
        sim = Simulator()
        return sim, FlowNetwork(sim, t, efficiency=1.0,
                                incremental=incremental, verify=incremental)

    @pytest.mark.parametrize("n", [1, 200])
    def test_one_pending_event_for_many_flows(self, n):
        sim, net = self.net()
        handles = [net.transfer("a", "b", 100.0) for _ in range(n)]
        sim.run(until=1e-9)
        assert sim.pending == 1
        assert _live_labels(sim) == ["flow_done"]
        etas = {h.eta for h in handles}
        assert len(etas) == 1 and math.isfinite(etas.pop())
        expected = [h.eta for h in handles]
        sim.run()
        # the tied flows all finish at their ETA, before the next recompute
        assert [h.finished for h in handles] == expected
        assert all(math.isnan(h.eta) for h in handles)
        assert sim.pending == 0
        # n admits, one recompute, n completions, one recompute of nothing
        assert sim.events_executed == 2 * n + 2

    @pytest.mark.parametrize("incremental", [True, False])
    def test_at_most_one_completion_event_while_rates_move(self, incremental):
        sim, net = self.net(incremental)
        handles = [net.transfer("a", "b", 10.0 * (k + 1)) for k in range(30)]
        while sim.step():
            assert _live_labels(sim).count("flow_done") <= 1
            # dead heap entries never outnumber the live ones
            assert len(net._etas) <= 2 * net._live_etas
        finished = [h.finished for h in handles]
        assert finished == sorted(finished) and all(h.done for h in handles)
        assert net.completed == 30

    def test_eta_lifecycle(self):
        t = Topology()
        t.add_link("a", "b", 100.0, 1.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        h = net.transfer("a", "b", 500.0)
        doomed = net.transfer("a", "b", 500.0)
        parked = net.transfer("a", "b", 500.0, rate_cap=0.0)
        assert math.isnan(h.eta)  # still in propagation
        sim.run(until=2.0)
        assert h.eta == doomed.eta == 11.0  # 500 B at 50 B/s from t=1
        assert math.isnan(parked.eta)
        net.abort_link(t.link("a", "b"))
        assert math.isnan(h.eta) and math.isnan(doomed.eta)
        # the timer is gone; only the recompute for the freed link is due
        assert _live_labels(sim) == ["flow_realloc"]
        sim.run()
        assert h.failed and doomed.failed and parked.failed

    def test_same_instant_completions_precede_what_they_schedule(self):
        """Flows due at one instant finish before any same-instant NORMAL
        event an earlier finisher's subscriber schedules — the order one
        completion event per flow gave."""
        sim, net = self.net()
        first = net.transfer("a", "b", 100.0)
        second = net.transfer("a", "b", 100.0)
        order = []
        first._subscribe(lambda _h: sim.schedule(
            0.0, lambda: order.append(("follow-up", second.done))))
        sim.run()
        assert first.finished == second.finished
        assert order == [("follow-up", True)]
