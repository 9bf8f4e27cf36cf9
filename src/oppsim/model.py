"""Shared domain types for the opportunistic-forwarding toolkit.

Every type is a frozen dataclass, safe to share between threads; input
types check their field-level invariants at construction time.
Whole-topology invariants (link symmetry, connectivity toward the gateway)
are deliberately *not* enforced at construction; :func:`validate` reports
them as a list of violations so a caller can surface every problem at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator, Mapping

NodeId = int | str


def _probability(name: str, value: float) -> float:
    value = float(value)
    # a NaN fails the comparison too
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return value


def _positive_int(name: str, value: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def _nonnegative_int(name: str, value: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def _positive_real(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return value


# the engine draws once per micro-frame per listener until one wakes it
MAX_PREAMBLE_FRAMES = 10_000


@dataclass(frozen=True)
class FrameParams:
    """Preamble and payload geometry of one transmission.

    ``micro_frame_bits``
        size of a single wake-up micro-frame, in bits.
    ``preamble_frames``
        how many micro-frames are sent back to back ahead of the payload.
    ``data_frame_bits``
        payload frame size, in bits.
    """

    micro_frame_bits: int
    preamble_frames: int
    data_frame_bits: int

    def __post_init__(self) -> None:
        _positive_int("micro_frame_bits", self.micro_frame_bits)
        _positive_int("preamble_frames", self.preamble_frames)
        _positive_int("data_frame_bits", self.data_frame_bits)
        # the closed forms and the energy column take bit counts as floats
        if self.bits_per_transmission > sys.float_info.max:
            raise ValueError(f"preamble_frames * micro_frame_bits + data_frame_bits must be at most"
                             f" {sys.float_info.max:.4g}")
        if self.preamble_frames > MAX_PREAMBLE_FRAMES:
            raise ValueError(f"preamble_frames must be at most {MAX_PREAMBLE_FRAMES}")

    @property
    def bits_per_transmission(self) -> int:
        return self.preamble_frames * self.micro_frame_bits + self.data_frame_bits


@dataclass(frozen=True, slots=True)
class BitErrorRate:
    """Independent per-bit error probability on one link."""

    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _probability("bit error rate", self.p))


@dataclass(frozen=True)
class Channel:
    """One cognitive channel: switching probability, access probability,
    nominal bandwidth in hertz."""

    p_sw: float
    p_acc: float
    bandwidth_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_sw", _probability("p_sw", self.p_sw))
        object.__setattr__(self, "p_acc", _probability("p_acc", self.p_acc))
        object.__setattr__(self, "bandwidth_hz", _positive_real("bandwidth_hz", self.bandwidth_hz))


@dataclass(frozen=True)
class ChannelModel:
    """The set of channels a transmitter may switch onto, plus receiver
    noise power.

    The first channel in ``channels`` is the channel under evaluation: the
    one whose switching probability gates link computations and simulated
    transmissions.
    """

    channels: tuple[Channel, ...]
    noise_power: float

    def __post_init__(self) -> None:
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("ChannelModel requires at least one channel")
        if not all(isinstance(c, Channel) for c in channels):
            raise ValueError("channels must be Channel instances")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "noise_power", _positive_real("noise_power", self.noise_power))

    @property
    def evaluated(self) -> Channel:
        return self.channels[0]


@dataclass(frozen=True)
class ForwarderEntry:
    """One candidate forwarder as seen from a sender: delivery probability
    of the link toward it and its remaining cost to the gateway."""

    node: NodeId
    p_link: float = 1.0
    remaining_cost: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_link", _probability("p_link", self.p_link))
        cost = float(self.remaining_cost)
        if not math.isfinite(cost) or cost < 0.0:
            raise ValueError(f"remaining_cost must be finite and >= 0, got {cost!r}")
        object.__setattr__(self, "remaining_cost", cost)


@dataclass(frozen=True)
class ForwarderSet:
    """An ordered set of candidate forwarders.

    Entries are canonicalized at construction: ascending remaining cost,
    ties broken by ascending node id.  Node ids inside one set must be
    mutually orderable (all ints or all strings).
    """

    entries: tuple[ForwarderEntry, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not all(isinstance(e, ForwarderEntry) for e in entries):
            raise ValueError("entries must be ForwarderEntry instances")
        ordered = tuple(sorted(entries, key=lambda e: (e.remaining_cost, e.node)))
        object.__setattr__(self, "entries", ordered)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ForwarderEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> ForwarderEntry:
        return self.entries[index]


@dataclass(frozen=True)
class PathCostTable:
    """Per-node expected cost to reach the gateway.  The gateway entry is
    pinned at zero; every other entry is >= 1 (at least one transmission).

    ``decode`` holds what the cost solve (``analysis.network_path_costs``)
    worked out on the way: per node, its upstream links' decode pairs
    (``analysis._decode_pair``, the one law) in ascending neighbour id
    order (``Topology.upstream_neighbors``), flat in one tuple
    ``(micro_p, data_p, micro_p, data_p, ...)``; the gateway's empty.
    They depend on no election mode, and the engine draws its receptions
    from them.  A table built by hand has none; tables compare by gateway
    and costs.
    """

    gateway: NodeId
    costs: Mapping[NodeId, float]
    decode: Mapping[NodeId, tuple[float, ...]] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        costs = dict(self.costs)
        if self.gateway not in costs:
            raise ValueError("cost table must include the gateway")
        if costs[self.gateway] != 0.0:
            raise ValueError(f"gateway cost must be 0, got {costs[self.gateway]!r}")
        for node, y in costs.items():
            y = float(y)
            if not math.isfinite(y):
                raise ValueError(f"cost of node {node!r} is not finite")
            if node != self.gateway and y < 1.0:
                raise ValueError(f"cost of node {node!r} must be >= 1, got {y!r}")
            costs[node] = y
        object.__setattr__(self, "costs", costs)

    def __getitem__(self, node: NodeId) -> float:
        try:
            return self.costs[node]
        except KeyError:
            raise ValueError(f"unknown node id: {node!r}") from None

    def __contains__(self, node: NodeId) -> bool:
        return node in self.costs


@dataclass(frozen=True, slots=True)
class Node:
    """A network node.  ``position`` is decorative; distances never feed the
    model directly (the generator maps them to bit error rates instead)."""

    id: NodeId
    hop_id: int
    position: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        _nonnegative_int("hop_id", self.hop_id)
        if self.position is not None:
            x, y = self.position
            object.__setattr__(self, "position", (float(x), float(y)))


@dataclass(frozen=True)
class Topology:
    """An immutable network snapshot: nodes, one designated gateway, a link
    map keyed by ordered node pairs, frame geometry, and the channel model.

    The link map is expected to hold both directions of every link with the
    same bit error rate; :func:`validate` reports asymmetries instead of the
    constructor rejecting them, so that diagnostics cover whole files.

    ``topology.prepare`` builds each topology once, with its hop IDs, and
    stores its cost table (:attr:`costs`); a node's rank is 1 plus its
    cost.  A hand-built or ``replace``d topology carries no table.
    ``prepare`` also stores the upstream table (``_upstream``, each node's
    neighbours with a smaller hop ID) from the breadth-first search that
    assigns the hop IDs; a hand-built or ``replace``d topology derives it
    from its links and hop IDs on first use.
    """

    nodes: tuple[Node, ...]
    gateway: NodeId
    links: Mapping[tuple[NodeId, NodeId], BitErrorRate]
    frame: FrameParams
    channel: ChannelModel

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        if not nodes or not all(isinstance(n, Node) for n in nodes):
            raise ValueError("nodes must be a non-empty sequence of Node instances")
        object.__setattr__(self, "nodes", nodes)
        links = {}
        for key, ber in self.links.items():
            a, b = key
            if a == b:
                raise ValueError(f"self-link on node {a!r}")
            if not isinstance(ber, BitErrorRate):
                ber = BitErrorRate(float(ber))
            links[(a, b)] = ber
        object.__setattr__(self, "links", links)
        if not isinstance(self.frame, FrameParams):
            raise ValueError("frame must be a FrameParams instance")
        if not isinstance(self.channel, ChannelModel):
            raise ValueError("channel must be a ChannelModel instance")

    @cached_property
    def _index(self) -> dict[NodeId, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _upstream(self) -> dict[NodeId, tuple[NodeId, ...]]:
        # each stored link, either direction, joins its nearer end to the
        # farther end's candidates; a link to a non-node joins nothing
        hop = {nid: n.hop_id for nid, n in self._index.items()}
        upstream: dict[NodeId, set[NodeId]] = {nid: set() for nid in hop}
        for a, b in self.links:
            if a in hop and b in hop and hop[a] != hop[b]:
                near, far = (a, b) if hop[a] < hop[b] else (b, a)
                upstream[far].add(near)
        return {nid: tuple(sorted(ns)) for nid, ns in upstream.items()}

    @cached_property
    def _non_gateway_ids(self) -> tuple[NodeId, ...]:
        return tuple(sorted(n.id for n in self.nodes if n.id != self.gateway))

    @property
    def costs(self) -> PathCostTable:
        """Each node's expected path cost to the gateway."""
        if "_costs" not in self.__dict__:
            raise ValueError("topology carries no cost table; build it with topology.prepare")
        return self.__dict__["_costs"]

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._index[node_id]
        except KeyError:
            raise ValueError(f"unknown node id: {node_id!r}") from None

    def upstream_neighbors(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """Neighbors with a strictly smaller hop id, ascending by node id."""
        try:
            return self._upstream[node_id]
        except KeyError:
            raise ValueError(f"unknown node id: {node_id!r}") from None

    def has_link(self, a: NodeId, b: NodeId) -> bool:
        return (a, b) in self.links

    def ber(self, a: NodeId, b: NodeId) -> float:
        try:
            return self.links[(a, b)].p
        except KeyError:
            raise ValueError(f"no link between {a!r} and {b!r}") from None

    def hop_id(self, node_id: NodeId) -> int:
        return self.node(node_id).hop_id

    def rank(self, node_id: NodeId) -> float:
        return 1.0 + self.costs[node_id]

    def non_gateway_ids(self) -> tuple[NodeId, ...]:
        return self._non_gateway_ids


@dataclass(frozen=True)
class Violation:
    """One broken topology invariant, with a stable machine-readable code."""

    code: str
    message: str


def validate(topology: Topology) -> list[Violation]:
    """Check whole-topology invariants and report every breach.

    Returns an empty list iff the topology is internally consistent:
    unique node ids, a known gateway at hop id 0, a symmetric link map
    over known endpoints, and every non-gateway node owning at least one
    neighbor with a strictly smaller hop id (a route toward the gateway).
    """

    violations: list[Violation] = []
    seen: set[NodeId] = set()
    for n in topology.nodes:
        if n.id in seen:
            violations.append(Violation("node-ids", f"duplicate node id {n.id!r}"))
        seen.add(n.id)

    if topology.gateway not in seen:
        violations.append(Violation("gateway", f"gateway {topology.gateway!r} is not a node"))
    else:
        gw = topology._index[topology.gateway]
        if gw.hop_id != 0:
            violations.append(
                Violation("gateway-hop-id", f"gateway hop id must be 0, got {gw.hop_id}")
            )

    reported_pairs: set[frozenset[NodeId]] = set()
    for (a, b), ber in topology.links.items():
        if a not in seen or b not in seen:
            violations.append(Violation("link-endpoints", f"link ({a!r}, {b!r}) references an unknown node"))
            continue
        reverse = topology.links.get((b, a))
        if reverse is not None and reverse.p == ber.p:
            continue
        # a mismatch shows from both directions: report the pair once
        pair = frozenset((a, b))
        if pair in reported_pairs:
            continue
        reported_pairs.add(pair)
        if reverse is None:
            violations.append(Violation("symmetry", f"link ({a!r}, {b!r}) has no reverse entry"))
        else:
            violations.append(
                Violation(
                    "symmetry",
                    f"link ({a!r}, {b!r}) bit error rate {ber.p!r} != reverse {reverse.p!r}",
                )
            )

    if topology.gateway in seen:
        for n in topology.nodes:
            if n.id == topology.gateway:
                continue
            if not topology.upstream_neighbors(n.id):
                violations.append(
                    Violation(
                        "connectivity",
                        f"node {n.id!r} has no neighbor with a smaller hop id",
                    )
                )
    return violations


class EventKind(Enum):
    TRANSMIT_PREAMBLE = "transmit-preamble"
    TRANSMIT_DATA = "transmit-data"
    RECEIVE = "receive"
    ELECT = "elect"
    SUPPRESS = "suppress"
    DUPLICATE_FORWARD = "duplicate-forward"
    GATEWAY_ARRIVAL = "gateway-arrival"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped protocol event.  The optional fields are set only
    where they mean something."""

    time: int  # slot index of the transmission the event belongs to
    kind: EventKind
    actor: NodeId
    sender: NodeId | None = None  # whose transmission it reacts to; None: gateway source
    hops: int | None = None  # hop count an election or a gateway arrival reaches
    slot: int | None = None  # backoff slot an election fired in
    reason: str | None = None  # why a suppression dropped the copy: max-hops, window-closed


@dataclass(frozen=True)
class DeliveryTrace:
    """Complete event record of one end-to-end delivery attempt.  Every
    summary of the attempt is read off the events."""

    source: NodeId
    events: tuple[TraceEvent, ...]

    def count(self, kind: EventKind) -> int:
        return sum(1 for e in self.events if e.kind is kind)

    @property
    def delivered(self) -> bool:
        return any(e.kind is EventKind.GATEWAY_ARRIVAL for e in self.events)

    @property
    def duplicate_arrivals(self) -> int:
        """Gateway arrivals past the first."""
        return max(0, self.count(EventKind.GATEWAY_ARRIVAL) - 1)

    @property
    def transmissions(self) -> int:
        return self.count(EventKind.TRANSMIT_DATA)

    @property
    def first_arrival_hops(self) -> int | None:
        """Hop count of the first gateway arrival, or None if undelivered."""
        return next(
            (e.hops for e in self.events if e.kind is EventKind.GATEWAY_ARRIVAL), None
        )


@dataclass(frozen=True)
class Metrics:
    """Aggregated outcome of a batch of independent delivery replications."""

    deliveries_attempted: int
    deliveries_succeeded: int
    mean_duplicates: float
    empirical_coordination_overhead: float
    mean_transmissions: float
    mean_hops: float

    def __post_init__(self) -> None:
        _nonnegative_int("deliveries_attempted", self.deliveries_attempted)
        _nonnegative_int("deliveries_succeeded", self.deliveries_succeeded)
        if self.deliveries_succeeded > self.deliveries_attempted:
            raise ValueError("deliveries_succeeded exceeds deliveries_attempted")
        for name in ("mean_duplicates", "empirical_coordination_overhead",
                     "mean_transmissions", "mean_hops"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def pdr(self) -> float:
        """Packet delivery ratio; 0 when nothing was attempted."""
        if not self.deliveries_attempted:
            return 0.0
        return self.deliveries_succeeded / self.deliveries_attempted
