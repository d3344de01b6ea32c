"""Tests for topology construction and routing."""

import random

import pytest

from repro.core import ConfigurationError, RoutingError, Simulator, TopologyError
from repro.network import (
    GBPS,
    FlowNetwork,
    Topology,
    dumbbell,
    eu_datagrid,
    ring,
    star,
    tier_tree,
)


class TestConstruction:
    def test_add_link_creates_endpoints(self):
        t = Topology()
        t.add_link("a", "b", 100.0, 0.01)
        assert set(t.nodes) == {"a", "b"}

    def test_symmetric_links_by_default(self):
        t = Topology()
        t.add_link("a", "b", 100.0)
        assert t.link("a", "b").bandwidth == 100.0
        assert t.link("b", "a").bandwidth == 100.0

    def test_asymmetric_link(self):
        t = Topology()
        t.add_link("a", "b", 100.0, symmetric=False)
        t.link("a", "b")
        with pytest.raises(TopologyError):
            t.link("b", "a")

    def test_bad_bandwidth_rejected(self):
        t = Topology()
        with pytest.raises(ConfigurationError):
            t.add_link("a", "b", 0.0)
        with pytest.raises(ConfigurationError):
            t.add_link("a", "b", 10.0, latency=-1.0)


class TestRouting:
    def topo(self):
        t = Topology()
        t.add_link("a", "b", 100.0, 0.01)
        t.add_link("b", "c", 50.0, 0.01)
        t.add_link("a", "c", 10.0, 0.1)  # direct but slow path
        return t

    def test_route_minimizes_latency(self):
        t = self.topo()
        assert t.route("a", "c") == ["a", "b", "c"]

    def test_self_route(self):
        t = self.topo()
        assert t.route("a", "a") == ["a"]
        assert t.route_links("a", "a") == []
        assert t.bottleneck_bandwidth("a", "a") == float("inf")

    def test_path_latency_sums(self):
        t = self.topo()
        assert t.path_latency("a", "c") == pytest.approx(0.02)

    def test_bottleneck_bandwidth(self):
        t = self.topo()
        assert t.bottleneck_bandwidth("a", "c") == 50.0

    def test_unknown_node_raises(self):
        t = self.topo()
        with pytest.raises(TopologyError):
            t.route("a", "zz")

    def test_no_route_raises(self):
        t = Topology()
        t.add_node("island")
        t.add_link("a", "b", 10.0)
        with pytest.raises(RoutingError):
            t.route("a", "island")

    def test_cache_invalidated_on_mutation(self):
        t = self.topo()
        assert t.route("a", "c") == ["a", "b", "c"]
        t.add_link("a", "c", 100.0, 0.001)  # new fast direct edge
        assert t.route("a", "c") == ["a", "c"]


class TestRouteLinkCache:
    """Route link tuples are cached beside the node paths and must be
    dropped wherever those are."""

    topo = TestRouting.topo

    def test_fail_and_repair_invalidate(self):
        t = self.topo()
        via_b = [t.link("a", "b"), t.link("b", "c")]
        assert t.route_links("a", "c") == via_b
        t.fail_link("a", "b")
        assert t.route_links("a", "c") == [t.link("a", "c")]
        assert t.path_latency("a", "c") == 0.1
        assert t.bottleneck_bandwidth("a", "c") == 10.0
        t.repair_link("a", "b")
        assert t.route_links("a", "c") == via_b
        assert t.bottleneck_bandwidth("a", "c") == 50.0

    def test_add_link_invalidates(self):
        t = self.topo()
        assert t.path_latency("a", "c") == pytest.approx(0.02)
        t.add_link("a", "c", 100.0, 0.001)
        assert t.route_links("a", "c") == [t.link("a", "c")]
        assert t.path_latency("a", "c") == 0.001
        assert t.bottleneck_bandwidth("a", "c") == 100.0

    def test_add_node_invalidates(self):
        t = self.topo()
        t.route_links("a", "c")
        assert t._route_links_cache
        t.add_node("d")
        assert not t._route_links_cache

    def test_transfer_after_fail_link_reroutes(self):
        t = self.topo()
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0, verify=True)
        first = net.transfer("a", "c", 100.0)
        sim.run()
        assert first.links == [t.link("a", "b"), t.link("b", "c")]
        t.fail_link("b", "c")
        second = net.transfer("a", "c", 100.0)
        sim.run()
        assert second.links == [t.link("a", "c")]
        assert not second.failed
        assert second.finished - second.started == pytest.approx(0.1 + 10.0)

    def test_returned_list_is_a_copy(self):
        t = self.topo()
        links = t.route_links("a", "c")
        links.clear()
        assert len(t.route_links("a", "c")) == 2
        assert t.bottleneck_bandwidth("a", "c") == 50.0
        path = t.route("a", "c")
        path.append("elsewhere")
        assert t.route("a", "c") == ["a", "b", "c"]

    def test_cached_sums_match_uncached(self):
        t = tier_tree([3, 2], [10 * GBPS, 1 * GBPS], latency=0.013)
        pairs = [(a, b) for a in t.nodes for b in t.nodes]
        for _ in range(2):  # first pass fills the cache, second reads it
            for a, b in pairs:
                path = t.route(a, b)
                links = [t.link(u, v) for u, v in zip(path, path[1:])]
                assert t.route_links(a, b) == links
                assert t.path_latency(a, b) == sum(l.latency for l in links)
                assert t.bottleneck_bandwidth(a, b) == min(
                    (l.bandwidth for l in links), default=float("inf"))


class TestFactories:
    def test_star_routes_through_center(self):
        t = star("hub", ["s1", "s2", "s3"], 100.0)
        assert t.route("s1", "s2") == ["s1", "hub", "s2"]

    def test_star_requires_leaves(self):
        with pytest.raises(ConfigurationError):
            star("hub", [], 100.0)

    def test_ring_connectivity(self):
        t = ring(["a", "b", "c", "d"], 10.0)
        assert t.route("a", "b") == ["a", "b"]
        assert len(t.route("a", "c")) == 3  # two hops either way

    def test_ring_minimum_size(self):
        with pytest.raises(ConfigurationError):
            ring(["a", "b"], 10.0)

    def test_dumbbell_bottleneck(self):
        t = dumbbell(["l1", "l2"], ["r1"], access_bw=100.0, bottleneck_bw=10.0)
        assert t.bottleneck_bandwidth("l1", "r1") == 10.0
        assert t.route("l1", "r1") == ["l1", "Lhub", "Rhub", "r1"]

    def test_tier_tree_structure(self):
        t = tier_tree([2, 3], [10 * GBPS, 1 * GBPS])
        assert t.has_node("T0")
        assert t.has_node("T1.0") and t.has_node("T1.1")
        assert t.has_node("T2.0.0") and t.has_node("T2.1.2")
        # T2 leaves reach T0 through their T1 parent
        assert t.route("T2.1.2", "T0") == ["T2.1.2", "T1.1", "T0"]
        # 1 + 2 + 6 nodes
        assert len(t.nodes) == 9

    def test_tier_tree_validates_lengths(self):
        with pytest.raises(ConfigurationError):
            tier_tree([2], [1.0, 2.0])

    def test_eu_datagrid_default_sites(self):
        t = eu_datagrid()
        assert t.has_node("CERN") and t.has_node("WAN")
        assert t.route("CERN", "RAL") == ["CERN", "WAN", "RAL"]

    def test_eu_datagrid_custom_sites(self):
        t = eu_datagrid(["X", "Y"])
        assert t.route("X", "Y") == ["X", "WAN", "Y"]


def _random_topology_pair(rng, nx):
    """The same random graph built as a Topology and as a networkx DiGraph.

    Latencies come from a small set, so equal-cost paths are common; some
    links are re-added with a new spec, some are taken down, and some nodes
    stay isolated.
    """
    topo, graph, down = Topology(), nx.DiGraph(), set()
    names = [f"n{i}" for i in range(rng.randint(2, 12))]
    for name in rng.sample(names, rng.randint(0, len(names))):
        topo.add_node(name)
        graph.add_node(name)
    for _ in range(rng.randint(0, 3 * len(names))):
        a, b = rng.sample(names, 2)
        latency = rng.choice((0.0, 0.005, 0.01, 0.01, 0.02))
        symmetric = rng.random() < 0.6
        topo.add_link(a, b, 100.0, latency, symmetric=symmetric)
        for u, v in ((a, b), (b, a)) if symmetric else ((a, b),):
            graph.add_edge(u, v, spec=topo.link(u, v))
    for a, b in rng.sample(list(graph.edges), rng.randint(0, 3)
                           if graph.number_of_edges() >= 3 else 0):
        for spec in topo.fail_link(a, b, symmetric=rng.random() < 0.5):
            down.add((spec.src, spec.dst))
    return topo, graph, down


def _networkx_route(nx, graph, down, src, dst):
    """Routes as the topology once computed them with networkx."""
    paths = nx.single_source_dijkstra_path(
        graph, src, weight=lambda u, v, d: (
            None if (u, v) in down
            else d["spec"].latency + Topology._HOP_EPS))
    return paths.get(dst)


class TestRoutingMatchesNetworkx:
    """The built-in Dijkstra picks the very path networkx's did, ties
    included, on random graphs with outages and equal-latency routes."""

    def test_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(20091)
        for trial in range(300):
            topo, graph, down = _random_topology_pair(rng, nx)
            assert topo.nodes == list(graph.nodes), trial
            assert topo.links == [d["spec"] for _, _, d in graph.edges(data=True)]
            for src in graph.nodes:
                for dst in graph.nodes:
                    want = ([src] if src == dst else
                            _networkx_route(nx, graph, down, src, dst))
                    if want is None:
                        with pytest.raises(RoutingError):
                            topo.route(src, dst)
                    else:
                        assert topo.route(src, dst) == want, (trial, src, dst)

    def test_equal_latency_tie_matches(self):
        """A diamond with two equal-cost branches: the first-added wins."""
        nx = pytest.importorskip("networkx")
        for first, second in (("b", "c"), ("c", "b")):
            topo, graph = Topology(), nx.DiGraph()
            for mid in (first, second):
                for a, b in (("a", mid), (mid, "d")):
                    topo.add_link(a, b, 10.0, 0.01)
                    graph.add_edge(a, b, spec=topo.link(a, b))
                    graph.add_edge(b, a, spec=topo.link(b, a))
            assert topo.route("a", "d") == ["a", first, "d"]
            assert topo.route("a", "d") == _networkx_route(
                nx, graph, set(), "a", "d")
