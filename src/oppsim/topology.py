"""Topology generation, hop-ID assignment, and the two distance notions.

Hop IDs are breadth-first shortest-path lengths from the gateway.  Ranks
are 1 plus the node's expected path cost, so on lossy links the
rank-difference "distance" between two nodes inflates past their true
hop separation; :func:`witness_topology` builds the minimal chain that
exhibits the gap.

Every topology is built by one recipe, :func:`prepare`: it takes node
positions and undirected ``(a, b, ber)`` edges and, in one pass over the
edges, stores each link in both directions and lists each node's
neighbours.  One breadth-first search over those lists
(:func:`assign_hop_ids`) gives the hop IDs and each node's upstream set,
its neighbours one hop nearer the gateway.  ``prepare`` then makes each
``Node`` once, with its hop ID, constructs the one ``Topology``, stores
that upstream table on it and solves its cost table once
(:func:`compute_ranks`; ``Topology.rank`` derives from ``Topology.costs``).
The builders below and the CLI's topology-file reader only give positions
and edges, so what they return is ready for the closed forms and the
simulator.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from . import analysis
from .model import (
    BitErrorRate,
    Channel,
    ChannelModel,
    FrameParams,
    Node,
    NodeId,
    Topology,
    _positive_int,
    _probability,
)

DEFAULT_FRAME = FrameParams(micro_frame_bits=8, preamble_frames=2, data_frame_bits=100)
DEFAULT_CHANNEL = ChannelModel(
    channels=(Channel(p_sw=1.0, p_acc=0.5, bandwidth_hz=2e6),),
    noise_power=1e-9,
)

_BISECTION_STEPS = 200
# a star of N relays has N(N+1)/2 + N links: 1,000 relays make 501,500
MAX_STAR_FORWARDERS = 1_000
# a generated network's memory follows its nodes and links (see _near_pairs)
MAX_GENERATED_NODES = 100_000
MAX_GENERATED_LINKS = 500_000


class DisconnectedTopologyError(ValueError):
    """Raised when a generated placement leaves nodes unreachable."""


@dataclass(frozen=True)
class FixedBer:
    """Every link gets the same bit error rate."""

    p: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _probability("p", self.p))


@dataclass(frozen=True)
class DistanceBer:
    """Bit error rate grows quadratically with link distance, from p_min at
    zero range to p_max at the radio range, clamped into [p_min, p_max]."""

    p_min: float = 0.0
    p_max: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_min", _probability("p_min", self.p_min))
        object.__setattr__(self, "p_max", _probability("p_max", self.p_max))


@dataclass(frozen=True)
class GeneratorConfig:
    nodes: int
    area_side: float
    radio_range: float
    ber_model: FixedBer | DistanceBer
    frame: FrameParams = DEFAULT_FRAME
    channel: ChannelModel = DEFAULT_CHANNEL
    gateway_position: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        _positive_int("nodes", self.nodes, MAX_GENERATED_NODES)
        if not 0.0 < self.area_side < math.inf:
            raise ValueError(f"area_side must be positive and finite, got {self.area_side!r}")
        if not self.radio_range > 0.0:
            raise ValueError("radio_range must be positive")
        # a NaN coordinate would leave every node out of the gateway's range
        if self.gateway_position is not None and any(map(math.isnan, self.gateway_position)):
            raise ValueError(f"gateway_position must not be NaN, got {self.gateway_position!r}")


def _ber_law(
    model: FixedBer | DistanceBer, radio_range: float
) -> Callable[[float], BitErrorRate]:
    """A link's bit error rate as a function of its length.  The model's
    fields are probabilities, so every rate lies between two of them; a
    fixed law hands every link one shared rate.  Under the distance law
    with an infinite radio range, a link of infinite length is refused."""
    if isinstance(model, FixedBer):
        ber = BitErrorRate(model.p)
        return lambda distance: ber
    p_min, span = model.p_min, model.p_max - model.p_min
    lo, hi = min(model.p_min, model.p_max), max(model.p_min, model.p_max)
    law = lambda distance: BitErrorRate(
        min(max(p_min + span * (distance / radio_range) ** 2, lo), hi)
    )
    if radio_range < math.inf:
        return law

    def unbounded_law(distance: float) -> BitErrorRate:
        # an infinite range keeps a link whose length overflowed to inf,
        # and inf / inf has no rate
        if distance == math.inf:
            raise ValueError(
                "radio_range must be finite under the distance law: a link's length overflowed to inf"
                " (gateway_position or area_side too large)"
            )
        return law(distance)

    return unbounded_law


def generate(config: GeneratorConfig, seed: int) -> Topology:
    """Place nodes uniformly at random, link every pair within radio range,
    then assign hop IDs and solve costs.  Node 0 is the gateway, at the area
    center unless a position is configured.  Raises
    DisconnectedTopologyError when some node cannot reach the gateway;
    callers may retry with another seed.

    Exact ``math.hypot(ax - bx, ay - by) <= radio_range`` decides each
    link, but only pairs in neighbouring grid cells are compared (see
    :func:`_near_pairs`), so the search takes O(n·k) time for k nodes
    within about one radio range of a node instead of O(n²).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    side = config.area_side
    gw_pos = config.gateway_position or (side / 2.0, side / 2.0)
    # one draw of n - 1 (x, y) rows consumes the stream as n - 1 scalar x, y pairs would
    positions = [(float(gw_pos[0]), float(gw_pos[1]))]
    positions += map(tuple, rng.uniform(0.0, side, size=(config.nodes - 1, 2)).tolist())

    ber_law = _ber_law(config.ber_model, config.radio_range)
    edges = (
        (a, b, ber_law(dist)) for a, b, dist in _near_pairs(positions, config.radio_range)
    )
    return prepare(dict(enumerate(positions)), 0, edges, config.frame, config.channel)


# Cells are this factor wider than the radio range.  Rounding in the
# coordinate differences, the cell indices and math.hypot moves a pair by a
# few multiples of 2**-52 cell widths per cell the points span (at most
# isqrt(n) + 1 of them), far less than this margin, so a pair within range
# never lies two cells apart.
_CELL_MARGIN = 1.0 + 1e-6


def _near_pairs(
    points: list[tuple[float, float]], radius: float
) -> list[tuple[int, int, float]]:
    """Every index pair (a, b), a < b, with math.hypot(ax - bx, ay - by) <=
    radius, with that distance, in ascending (a, b) order.

    The points are bucketed into square cells at least ``radius`` wide, at
    most isqrt(n) + 1 of them along each axis, and each point is compared
    only with the points of the 3 x 3 cells around its own (Bentley,
    Stanat & Williams, "The complexity of finding fixed-radius near
    neighbors", Inf. Proc. Letters 6(6), 1977).  An infinite radius or a
    point at infinity puts every point into one cell.  Raises ValueError
    once more than ``MAX_GENERATED_LINKS`` pairs are found.
    """
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x0, y0 = min(xs), min(ys)
    span = max(max(xs) - x0, max(ys) - y0)
    cell = max(radius * _CELL_MARGIN, span / (math.isqrt(len(points)) + 1))
    if math.isfinite(span) and math.isfinite(cell):
        keys = [
            (math.floor((x - x0) / cell), math.floor((y - y0) / cell)) for x, y in points
        ]
    else:
        keys = [(0, 0)] * len(points)
    members: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    # the points of each occupied cell's 3 x 3 block, ascending
    blocks = {
        (cx, cy): sorted(
            i
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for i in members.get((cx + dx, cy + dy), ())
        )
        for cx, cy in members
    }
    pairs = []
    for a, (ax, ay) in enumerate(points):
        block = blocks[keys[a]]
        for b in block[bisect_right(block, a):]:
            bx, by = points[b]
            dist = math.hypot(ax - bx, ay - by)
            if dist <= radius:
                pairs.append((a, b, dist))
        if len(pairs) > MAX_GENERATED_LINKS:
            raise ValueError(f"links must be at most {MAX_GENERATED_LINKS}")
    return pairs


def assign_hop_ids(
    gateway: NodeId, adjacency: dict[NodeId, list[NodeId]]
) -> tuple[dict[NodeId, int], dict[NodeId, tuple[NodeId, ...]]]:
    """Each node's hop ID, its breadth-first distance from the gateway over
    ``adjacency`` (each node's neighbours), and its upstream set, its
    neighbours with a smaller hop ID, ascending by id.  Raises
    DisconnectedTopologyError naming the first unreachable node, in the
    order of ``adjacency``."""
    hops = {gateway: 0}
    upstream: dict[NodeId, list[NodeId]] = {gateway: []}
    frontier = [gateway]
    for current in frontier:  # reaches the nodes appended meanwhile
        hop = hops[current] + 1
        for nbr in adjacency[current]:
            # no neighbour lies more than one hop farther out, so
            # ``current`` is upstream of exactly those one hop farther
            nbr_hop = hops.get(nbr)
            if nbr_hop is None:
                hops[nbr] = hop
                upstream[nbr] = [current]
                frontier.append(nbr)
            elif nbr_hop == hop:
                upstream[nbr].append(current)
    for nid in adjacency:
        if nid not in hops:
            raise DisconnectedTopologyError(f"disconnected node: {nid!r} cannot reach the gateway")
    return hops, {nid: tuple(sorted(near)) for nid, near in upstream.items()}


def compute_ranks(topology: Topology) -> None:
    """Store its cost table on a topology just built: rank = 1 + path cost.
    The table carries the decode pairs the engine reads (see
    ``PathCostTable``)."""
    object.__setattr__(topology, "_costs", analysis.network_path_costs(topology))


def hop_distance(topology: Topology, a: NodeId, b: NodeId) -> int:
    """Distance in hop-ID space: |hop(a) - hop(b)|."""
    return abs(topology.hop_id(a) - topology.hop_id(b))


def rank_difference_distance(topology: Topology, a: NodeId, b: NodeId) -> float:
    """Distance in rank space: |rank(a) - rank(b)|.  On lossy links this is
    an expected-cost gap, not a hop count, and exceeds hop_distance."""
    return abs(topology.rank(a) - topology.rank(b))


def _bisect(law, target: float, frame: FrameParams, p_sw: float) -> float:
    """The bit error rate at which ``law``, which falls as the rate grows,
    equals ``target``."""
    lo, hi = 0.0, 1.0
    for _ in range(_BISECTION_STEPS):
        mid = (lo + hi) / 2.0
        step = (mid, hi) if law(mid, frame, p_sw) > target else (lo, mid)
        if step == (lo, hi):
            # every later step would repeat this one: the answer is final
            break
        lo, hi = step
    return (lo + hi) / 2.0


def ber_for_link_success(target: float, frame: FrameParams, p_sw: float) -> float:
    """Invert link_success: the bit error rate at which a candidate's
    hear-anything probability equals ``target``.  Needs
    target >= 1 - p_sw (the failure ceiling is p_sw)."""
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must be in [0, 1], got {target!r}")
    if target < 1.0 - p_sw:
        raise ValueError(f"link success {target!r} unreachable with p_sw={p_sw!r}")
    if target == 1.0:
        return 0.0
    return _bisect(analysis.link_success, target, frame, p_sw)


def ber_for_reception(target: float, frame: FrameParams, p_sw: float) -> float:
    """Invert reception_probability: the bit error rate at which the
    decode-and-forward probability equals ``target`` (at most p_sw)."""
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must be in [0, 1], got {target!r}")
    if target > p_sw:
        raise ValueError(f"reception probability {target!r} unreachable with p_sw={p_sw!r}")
    if target == p_sw:
        return 0.0
    return _bisect(analysis.reception_probability, target, frame, p_sw)


def prepare(
    positions: Mapping[NodeId, tuple[float, float] | None],
    gateway: NodeId,
    edges: Iterable[tuple[NodeId, NodeId, BitErrorRate]],
    frame: FrameParams,
    channel: ChannelModel,
) -> Topology:
    """The topology over the nodes of ``positions`` (id to position or None,
    in node order), each undirected edge ``(a, b, ber)`` stored as ``(a, b)``
    then ``(b, a)`` (a repeated edge keeps its first place and takes its last
    rate), hop IDs assigned, upstream table stored and cost table solved.

    One pass over the edges fills the link map and, at each edge's first
    appearance, both ends' neighbour lists; :func:`assign_hop_ids` runs the
    one breadth-first search over those lists, each ``Node`` is made once,
    with its hop ID, and the search's upstream sets become ``_upstream``."""
    adjacency: dict[NodeId, list[NodeId]] = {nid: [] for nid in positions}
    if gateway not in adjacency:
        raise ValueError(f"unknown node id: {gateway!r}")
    links: dict[tuple[NodeId, NodeId], BitErrorRate] = {}
    for a, b, ber in edges:
        key = (a, b)
        if key not in links:
            try:
                adjacency[a].append(b)
                adjacency[b].append(a)
            except KeyError:
                near, far = (b, a) if a in adjacency else (a, b)
                raise ValueError(f"link ({near!r}, {far!r}) references an unknown node") from None
        links[key] = ber
        links[(b, a)] = ber
    hops, upstream = assign_hop_ids(gateway, adjacency)
    # freed before the topology copies the link map, so that the build's
    # peak memory never holds the neighbour lists and two link maps at once
    del adjacency
    nodes = tuple(Node(nid, hops[nid], pos) for nid, pos in positions.items())
    topology = Topology(nodes=nodes, gateway=gateway, links=links, frame=frame, channel=channel)
    # the topology holds its own copy of the link map; freeing this one
    # before the cost solve lowers the build's peak memory
    del links
    object.__setattr__(topology, "_upstream", upstream)
    compute_ranks(topology)
    return topology


def chain_topology(
    link_success: list[float] | tuple[float, ...],
    frame: FrameParams = DEFAULT_FRAME,
    channel: ChannelModel = DEFAULT_CHANNEL,
) -> Topology:
    """A gateway-rooted line: node 0 is the gateway, node k sits k hops out,
    and the k-th link's bit error rate is solved so its hear-anything
    probability equals link_success[k]."""
    if not link_success:
        raise ValueError("chain needs at least one link")
    p_sw = channel.evaluated.p_sw
    rates = [BitErrorRate(ber_for_link_success(float(t), frame, p_sw)) for t in link_success]
    edges = [(k, k + 1, ber) for k, ber in enumerate(rates)]
    positions = {k: (float(k), 0.0) for k in range(len(rates) + 1)}
    return prepare(positions, 0, edges, frame, channel)


def witness_topology(
    far_cost: float = 3.04,
    frame: FrameParams = DEFAULT_FRAME,
    channel: ChannelModel = DEFAULT_CHANNEL,
) -> Topology:
    """The minimal chain where hop-ID distance and rank-difference distance
    disagree: gateway (id 1), one relay (id 3), and a far node (id 5) two
    hops out.  Both links share the link-success probability 2 / far_cost,
    so the far node's expected path cost is exactly ``far_cost`` and its
    rank 1 + far_cost, while its hop-ID distance from the gateway stays 2.
    """
    if not far_cost >= 2.0:
        raise ValueError(f"far_cost must be >= 2 (two lossless hops), got {far_cost!r}")
    p_sw = channel.evaluated.p_sw
    success = 2.0 / far_cost
    ber = BitErrorRate(ber_for_link_success(success, frame, p_sw))
    positions = {1: (0.0, 0.0), 3: (1.0, 0.0), 5: (2.0, 0.0)}
    return prepare(positions, 1, [(1, 3, ber), (3, 5, ber)], frame, channel)


def star_topology(
    forwarders: int,
    p_link: float,
    remaining_cost: float = 1.0,
    intercandidate_ber: float = 0.0,
    frame: FrameParams = DEFAULT_FRAME,
    channel: ChannelModel = DEFAULT_CHANNEL,
) -> Topology:
    """One source two hops out, N relay candidates one hop out, one gateway.

    Source-to-relay links are solved so the simulator's decode-and-forward
    probability equals ``p_link`` exactly; relay-to-gateway links are solved
    so each relay's expected path cost equals ``remaining_cost``.  Relays
    are pairwise linked at ``intercandidate_ber`` (0 = perfect overhearing).
    Node ids: gateway 0, relays 1..N, source N+1.
    """
    _positive_int("forwarders", forwarders, MAX_STAR_FORWARDERS)
    if not remaining_cost >= 1.0:
        raise ValueError(f"remaining_cost must be >= 1, got {remaining_cost!r}")
    p_sw = channel.evaluated.p_sw
    up_ber = BitErrorRate(ber_for_reception(float(p_link), frame, p_sw))
    relay_ber = BitErrorRate(ber_for_link_success(1.0 / remaining_cost, frame, p_sw))
    cross_ber = BitErrorRate(float(intercandidate_ber))

    source = forwarders + 1
    relays = range(1, source)
    positions = {0: (0.0, 0.0), **{r: (1.0, float(r)) for r in relays}, source: (2.0, 0.0)}
    edges = []
    for r in relays:
        edges += [(0, r, relay_ber), (r, source, up_ber)]
        edges += [(other, r, cross_ber) for other in range(1, r)]
    return prepare(positions, 0, edges, frame, channel)


def diamond_topology(
    source_ber: tuple[float, float] = (0.02, 0.02),
    relay_ber: tuple[float, float] = (0.01, 0.01),
    intercandidate_ber: float = 0.0,
    frame: FrameParams = DEFAULT_FRAME,
    channel: ChannelModel = DEFAULT_CHANNEL,
) -> Topology:
    """Gateway 0, relays 1 and 2, source 3 linked to both relays - the
    smallest topology where two candidates can hear the same transmission
    and must coordinate.  Bit error rates are taken literally (no
    inversion); relays are linked to each other at ``intercandidate_ber``.
    """
    b1, b2 = (BitErrorRate(float(b)) for b in source_ber)
    g1, g2 = (BitErrorRate(float(b)) for b in relay_ber)
    cross = BitErrorRate(float(intercandidate_ber))
    edges = [(0, 1, g1), (0, 2, g2), (1, 3, b1), (2, 3, b2), (1, 2, cross)]
    positions = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (1.0, -1.0), 3: (2.0, 0.0)}
    return prepare(positions, 0, edges, frame, channel)


def deepest_node(topology: Topology) -> NodeId:
    """The node with the largest hop ID (smallest id on ties) - the natural
    source for the built-in shapes."""
    max_hop = max(n.hop_id for n in topology.nodes)
    return min(n.id for n in topology.nodes if n.hop_id == max_hop)
