"""Network topology: nodes, links, routing.

Taxonomy *network characteristics*: "the network elements interconnecting
hosts within simulated distributed environments — routers, switches and
other devices".  A :class:`Topology` is a directed multigraph of named nodes
joined by :class:`LinkSpec` edges (bandwidth + latency), with shortest-path
routing (a heap-based Dijkstra) cached per source.

Factory helpers build the standard shapes the surveyed simulators assume:
a star (Bricks' central model), a tier tree (MONARC's T0/T1/T2), a dumbbell
(bottleneck studies), a ring, and an EU-DataGrid-like mesh (OptorSim).
Bandwidths are in **bytes per simulated second**, latencies in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, islice
from typing import Iterable, Sequence

from ..core.errors import ConfigurationError, RoutingError, TopologyError

__all__ = [
    "GBPS",
    "MBPS",
    "LinkSpec",
    "Topology",
    "star",
    "ring",
    "dumbbell",
    "tier_tree",
    "eu_datagrid",
]

#: 1 gigabit/s expressed in bytes/s — convenient for link definitions.
GBPS = 1e9 / 8
MBPS = 1e6 / 8


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """One directed link: capacity in bytes/s, propagation latency in s."""

    src: str
    dst: str
    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(
                f"link {self.src}->{self.dst}: bandwidth must be > 0")
        if self.latency < 0:
            raise ConfigurationError(
                f"link {self.src}->{self.dst}: latency must be >= 0")


class Topology:
    """Named nodes + directed capacity/latency links + shortest-path routes.

    Routes minimize total latency (with hop count as tiebreak via a tiny
    per-hop epsilon); they are computed lazily per source and invalidated
    on mutation.
    """

    _HOP_EPS = 1e-9

    def __init__(self) -> None:
        #: node name -> attributes, in insertion order
        self._nodes: dict[str, dict] = {}
        #: node name -> {successor: link}, both in insertion order
        self._adj: dict[str, dict[str, LinkSpec]] = {}
        self._route_cache: dict[str, dict[str, list[str]]] = {}
        #: the link tuple of each route served, next to its node path;
        #: cleared wherever the node-path cache is.
        self._route_links_cache: dict[str, dict[str, tuple[LinkSpec, ...]]] = {}
        #: directed edges currently out of service — routing hides them, so
        #: traffic reroutes around an outage when an alternate path exists
        #: and :meth:`route` raises RoutingError when the cut partitions
        #: the pair.
        self._down: set[tuple[str, str]] = set()

    # -- construction ----------------------------------------------------------

    def add_node(self, name: str, **attrs) -> None:
        """Add a node; re-adding an existing node updates its attributes."""
        self._ensure_node(name).update(attrs)
        self._invalidate_routes()

    def add_link(self, src: str, dst: str, bandwidth: float,
                 latency: float = 0.0, symmetric: bool = True) -> None:
        """Add a link (both directions when *symmetric*); creates endpoints.

        Re-adding an existing link replaces its spec in place.
        """
        spec = LinkSpec(src, dst, bandwidth, latency)  # validates
        self._add_edge(spec)
        if symmetric:
            self._add_edge(LinkSpec(dst, src, bandwidth, latency))
        self._invalidate_routes()

    def _ensure_node(self, name: str) -> dict:
        attrs = self._nodes.get(name)
        if attrs is None:
            attrs = self._nodes[name] = {}
            self._adj[name] = {}
        return attrs

    def _add_edge(self, spec: LinkSpec) -> None:
        self._ensure_node(spec.src)
        self._ensure_node(spec.dst)
        self._adj[spec.src][spec.dst] = spec

    def _edge(self, src: str, dst: str) -> LinkSpec | None:
        out = self._adj.get(src)
        return out.get(dst) if out is not None else None

    def _invalidate_routes(self) -> None:
        self._route_cache.clear()
        self._route_links_cache.clear()

    # -- link availability ------------------------------------------------------

    def fail_link(self, src: str, dst: str,
                  symmetric: bool = True) -> list[LinkSpec]:
        """Take the ``src -> dst`` link (and its reverse when *symmetric*)
        out of service.  Returns the specs that actually transitioned
        up→down, so callers can abort the flows crossing them.  Raises
        :class:`TopologyError` when the forward edge does not exist."""
        if self._edge(src, dst) is None:
            raise TopologyError(f"no direct link {src} -> {dst}")
        downed: list[LinkSpec] = []
        pairs = ((src, dst), (dst, src)) if symmetric else ((src, dst),)
        for a, b in pairs:
            spec = self._edge(a, b)
            if spec is not None and (a, b) not in self._down:
                self._down.add((a, b))
                downed.append(spec)
        if downed:
            self._invalidate_routes()
        return downed

    def repair_link(self, src: str, dst: str,
                    symmetric: bool = True) -> list[LinkSpec]:
        """Return the link (and reverse when *symmetric*) to service.
        Returns the specs that actually transitioned down→up."""
        if self._edge(src, dst) is None:
            raise TopologyError(f"no direct link {src} -> {dst}")
        restored: list[LinkSpec] = []
        pairs = ((src, dst), (dst, src)) if symmetric else ((src, dst),)
        for a, b in pairs:
            if (a, b) in self._down:
                self._down.discard((a, b))
                restored.append(self._adj[a][b])
        if restored:
            self._invalidate_routes()
        return restored

    def link_up(self, src: str, dst: str) -> bool:
        """True when the directed edge exists and is in service."""
        return self._edge(src, dst) is not None and (src, dst) not in self._down

    @property
    def down_links(self) -> list[LinkSpec]:
        """Specs of every directed edge currently out of service."""
        return [self._adj[a][b] for a, b in sorted(self._down)]

    # -- queries ------------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """All node names."""
        return list(self._nodes)

    @property
    def links(self) -> list[LinkSpec]:
        """All directed :class:`LinkSpec` edges."""
        return [spec for out in self._adj.values() for spec in out.values()]

    def has_node(self, name: str) -> bool:
        """True when *name* exists in the graph."""
        return name in self._nodes

    def link(self, src: str, dst: str) -> LinkSpec:
        """The direct link ``src -> dst``; raises if absent."""
        spec = self._edge(src, dst)
        if spec is None:
            raise TopologyError(f"no direct link {src} -> {dst}")
        return spec

    def degree(self, name: str) -> int:
        """Outgoing link count of a node."""
        if name not in self._nodes:
            raise TopologyError(f"unknown node {name!r}")
        return len(self._adj[name])

    # -- routing ------------------------------------------------------------------

    def route(self, src: str, dst: str) -> list[str]:
        """Node sequence ``[src, ..., dst]`` minimizing latency (+hop eps).

        Returns a fresh list; the cached path stays intact.
        """
        for n in (src, dst):
            if n not in self._nodes:
                raise TopologyError(f"unknown node {n!r}")
        if src == dst:
            return [src]
        per_src = self._route_cache.get(src)
        if per_src is None:
            per_src = self._route_cache[src] = self._shortest_paths(src)
        try:
            return list(per_src[dst])
        except KeyError:
            raise RoutingError(f"no route {src} -> {dst}") from None

    def _shortest_paths(self, src: str) -> dict[str, list[str]]:
        """Dijkstra from *src*: the node path to every reachable node.

        Ties break as in networkx's ``single_source_dijkstra_path``: the
        fringe holds ``(dist, push count, node)``, successors are relaxed in
        insertion order, and a path is replaced only by a strictly shorter
        one.  Out-of-service links do not exist as far as routing is
        concerned.
        """
        adj, down, hop_eps = self._adj, self._down, self._HOP_EPS
        dist: dict[str, float] = {}
        seen: dict[str, float] = {src: 0}
        pred: dict[str, str] = {}
        pushes = count()
        fringe = [(0, next(pushes), src)]
        while fringe:
            d, _, v = heappop(fringe)
            if v in dist:
                continue
            dist[v] = d
            for u, spec in adj[v].items():
                if u in dist or (v, u) in down:
                    continue
                du = d + (spec.latency + hop_eps)
                if u not in seen or du < seen[u]:
                    seen[u] = du
                    pred[u] = v
                    heappush(fringe, (du, next(pushes), u))
        paths = {src: [src]}
        for v in islice(dist, 1, None):  # settled in distance order
            paths[v] = paths[pred[v]] + [v]
        return paths

    def _links_along(self, src: str, dst: str) -> tuple[LinkSpec, ...]:
        """The cached link tuple along :meth:`route` (routes on a miss)."""
        per_src = self._route_links_cache.get(src)
        if per_src is not None:
            links = per_src.get(dst)
            if links is not None:
                return links
        path = self.route(src, dst)
        adj = self._adj
        links = tuple(adj[a][b] for a, b in zip(path, path[1:]))
        self._route_links_cache.setdefault(src, {})[dst] = links
        return links

    def route_links(self, src: str, dst: str) -> list[LinkSpec]:
        """The link sequence along :meth:`route` (empty when src == dst)."""
        return list(self._links_along(src, dst))

    def path_latency(self, src: str, dst: str) -> float:
        """Total propagation latency along the route."""
        return sum(link.latency for link in self._links_along(src, dst))

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        """Minimum link capacity along the route (inf for src == dst)."""
        return min((l.bandwidth for l in self._links_along(src, dst)),
                   default=float("inf"))

    def __repr__(self) -> str:  # pragma: no cover
        n_links = sum(len(out) for out in self._adj.values())
        return f"<Topology nodes={len(self._nodes)} links={n_links}>"


# -- canonical shapes --------------------------------------------------------------


def star(center: str, leaves: Sequence[str], bandwidth: float,
         latency: float = 0.01) -> Topology:
    """Bricks-style central model: every leaf talks through *center*."""
    if not leaves:
        raise ConfigurationError("star needs at least one leaf")
    topo = Topology()
    topo.add_node(center, kind="hub")
    for leaf in leaves:
        topo.add_node(leaf, kind="leaf")
        topo.add_link(leaf, center, bandwidth, latency)
    return topo


def ring(names: Sequence[str], bandwidth: float, latency: float = 0.01) -> Topology:
    """A bidirectional ring."""
    if len(names) < 3:
        raise ConfigurationError("ring needs at least three nodes")
    topo = Topology()
    for n in names:
        topo.add_node(n)
    for a, b in zip(names, list(names[1:]) + [names[0]]):
        topo.add_link(a, b, bandwidth, latency)
    return topo


def dumbbell(left: Sequence[str], right: Sequence[str], access_bw: float,
             bottleneck_bw: float, latency: float = 0.005) -> Topology:
    """Two clusters joined by one bottleneck link — congestion's fruit-fly."""
    if not left or not right:
        raise ConfigurationError("dumbbell needs nodes on both sides")
    topo = Topology()
    topo.add_node("Lhub", kind="router")
    topo.add_node("Rhub", kind="router")
    topo.add_link("Lhub", "Rhub", bottleneck_bw, latency)
    for n in left:
        topo.add_node(n)
        topo.add_link(n, "Lhub", access_bw, latency)
    for n in right:
        topo.add_node(n)
        topo.add_link(n, "Rhub", access_bw, latency)
    return topo


def tier_tree(tier_sizes: Sequence[int], bandwidths: Sequence[float],
              latency: float = 0.01, root: str = "T0") -> Topology:
    """MONARC-style tier model: T0 at the root, T1 children, T2 below...

    ``tier_sizes[k]`` is the number of tier-(k+1) centres *per* tier-k parent;
    ``bandwidths[k]`` is the capacity of tier-k -> tier-(k+1) links.
    Node names: ``T0``, ``T1.0``, ``T1.1``, ``T2.0.0`` ...
    """
    if len(tier_sizes) != len(bandwidths):
        raise ConfigurationError("tier_sizes and bandwidths must align")
    topo = Topology()
    topo.add_node(root, tier=0)
    parents: list[tuple[str, tuple[int, ...]]] = [(root, ())]
    for level, (fanout, bw) in enumerate(zip(tier_sizes, bandwidths), start=1):
        children: list[tuple[str, tuple[int, ...]]] = []
        for parent_name, path in parents:
            for c in range(fanout):
                cpath = path + (c,)
                name = f"T{level}." + ".".join(map(str, cpath))
                topo.add_node(name, tier=level)
                topo.add_link(parent_name, name, bw, latency)
                children.append((name, cpath))
        parents = children
    return topo


def eu_datagrid(site_names: Iterable[str] | None = None,
                wan_bandwidth: float = 2.5 * GBPS,
                lan_bandwidth: float = 10 * GBPS,
                latency: float = 0.02) -> Topology:
    """OptorSim's simplified EU DataGrid: sites on a shared WAN backbone.

    Each site has a LAN access link onto a backbone router; CERN is the
    default data source with a fatter access pipe.
    """
    names = list(site_names) if site_names is not None else [
        "CERN", "RAL", "IN2P3", "CNAF", "NIKHEF", "FZK", "PIC", "NDGF",
    ]
    if not names:
        raise ConfigurationError("eu_datagrid needs at least one site")
    topo = Topology()
    topo.add_node("WAN", kind="backbone")
    for i, site in enumerate(names):
        topo.add_node(site, kind="site")
        bw = lan_bandwidth if i == 0 else wan_bandwidth
        topo.add_link(site, "WAN", bw, latency)
    return topo
