"""Slotted packet-level simulator of opportunistic forwarding.

Reception and suppression follow two deliberately different laws:

* A candidate can *forward* a packet only if the transmission was switched
  onto the evaluated channel, at least one preamble micro-frame woke it,
  and the data frame decoded (you cannot relay bits you never got).
* A candidate *suppresses* its own pending forward only on the
  coordination-failure complement: it duplicates exactly when the
  channel draw, every micro-frame, and the data frame of the elected
  winner's transmission were all missed.  This keeps the per-pair
  duplicate probability equal to the closed-form failure probability,
  including its literal channel-switch factor.

Both election disciplines are implemented: RECEIVER_BASED elects by rank
ordinal among hearing candidates (smallest rank fires first), while
SENDER_PRIORITIZED elects by position in the forwarder list the sender
stamps into the packet header.  Ranks are 1 + expected path cost and the
stamped list is sorted by that same cost, so with identical tie-breaking
the two disciplines elect the same winners; any performance gap between
them is measurement noise, which the metrics make checkable.

Determinism: replication r draws from a SplitMix64 stream rooted at the
master seed (``replication_seed``), so adding replications never perturbs
earlier ones and a fixed (topology, config, replication_index) triple
always yields a byte-identical trace.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import analysis
from .model import (
    DeliveryTrace,
    EventKind,
    Metrics,
    NodeId,
    Topology,
    TraceEvent,
    _nonnegative_int,
    _positive_int,
)


class ProtocolMode(Enum):
    RECEIVER_BASED = "receiver_based"
    SENDER_PRIORITIZED = "sender_prioritized"


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs.  ``source=None`` draws the source uniformly over
    non-gateway nodes per replication; ``election_slots`` bounds the backoff
    window (candidates whose slot ordinal falls outside never fire);
    ``suppression`` disables overhearing-based suppression in
    RECEIVER_BASED mode only."""

    mode: ProtocolMode
    replications: int = 1
    seed: int = 0
    source: NodeId | None = None
    max_hops: int = 32
    election_slots: int = 32
    suppression: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ProtocolMode):
            raise ValueError(f"mode must be a ProtocolMode, got {self.mode!r}")
        for name in ("replications", "max_hops", "election_slots"):
            _positive_int(name, getattr(self, name))
        _nonnegative_int("seed", self.seed)


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def replication_seed(seed: int, replication_index: int) -> int:
    """Stable per-replication seed: SplitMix64 stream rooted at the master
    seed, evaluated at the replication index.

    XORing or adding the raw index is not enough: over a contiguous index
    range that hands near-identical seed sets to nearby master seeds, so
    runs that should be independent end up replaying each other.  The
    64-bit finalizer decorrelates them while keeping the mapping pure, so
    the same (seed, index) pair always lands on the same stream.
    """
    x = (seed + (replication_index + 1) * _SPLITMIX_GAMMA) & _U64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _U64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _U64
    x ^= x >> 31
    return x


@lru_cache(maxsize=4096)
def _frame_decode_probs(ber: float, micro_bits: int, data_bits: int) -> tuple[float, float]:
    # per-frame decode probabilities; frame-level Bernoulli draws with these
    # values are distribution-identical to drawing each bit
    return ((1.0 - ber) ** micro_bits, (1.0 - ber) ** data_bits)


@dataclass
class _Pending:
    node: NodeId
    hops: int
    observers: tuple[NodeId, ...] = ()


def simulate_delivery(
    topology: Topology,
    costs: analysis.PathCostTable,
    config: SimConfig,
    replication_index: int,
) -> DeliveryTrace:
    """Run one end-to-end delivery attempt and return its full trace.

    There is no link-layer acknowledgement, so a transmission nobody
    decodes kills that packet copy; duplicate forwards spawn independent
    copies that may produce extra gateway arrivals.
    """
    rng = random.Random(replication_seed(config.seed, replication_index))
    gateway = topology.gateway
    if config.source is not None:
        source = config.source
        topology.node(source)
    else:
        candidates = topology.non_gateway_ids()
        if not candidates:
            source = gateway
        else:
            source = rng.choice(candidates)

    events: list[TraceEvent] = []
    if source == gateway:
        events.append(TraceEvent(0, EventKind.GATEWAY_ARRIVAL, gateway, "hops=0 from=source"))
        return DeliveryTrace.from_events(source, events)

    frame = topology.frame
    p_sw = topology.channel.evaluated.p_sw
    r_m = frame.preamble_frames
    m = frame.micro_frame_bits
    d = frame.data_frame_bits

    def decode_probs(a: NodeId, b: NodeId) -> tuple[float, float]:
        return _frame_decode_probs(topology.ber(a, b), m, d)

    def hears(a: NodeId, b: NodeId) -> bool:
        # frame-by-frame draws: any micro-frame wakes b, then the data frame
        micro_p, data_p = decode_probs(a, b)
        woke = False
        for _ in range(r_m):
            if rng.random() < micro_p:
                woke = True
                break
        if not woke:
            return False
        return rng.random() < data_p

    def overhearing_failed(observer: NodeId, transmitter: NodeId) -> bool:
        # miss every micro-frame AND the data frame of the winner's forward
        if not topology.has_link(observer, transmitter):
            return True
        micro_p, data_p = decode_probs(transmitter, observer)
        for _ in range(r_m):
            if rng.random() < micro_p:
                return False
        return not (rng.random() < data_p)

    queue: deque[_Pending] = deque([_Pending(node=source, hops=0)])
    slot = 0
    while queue:
        pending = queue.popleft()
        u = pending.node
        if pending.hops >= config.max_hops:
            for obs in pending.observers:
                events.append(TraceEvent(slot, EventKind.SUPPRESS, obs, f"from={u} max-hops"))
            continue

        t = slot
        slot += 1
        events.append(TraceEvent(t, EventKind.TRANSMIT_PREAMBLE, u, f"micro_frames={r_m}"))
        events.append(TraceEvent(t, EventKind.TRANSMIT_DATA, u, f"bits={d}"))
        on_channel = rng.random() < p_sw

        # co-candidates of u's own election react to this forward transmission
        for obs in pending.observers:
            if on_channel and overhearing_failed(obs, u):
                events.append(
                    TraceEvent(t, EventKind.DUPLICATE_FORWARD, obs, f"from={u}")
                )
                queue.append(_Pending(node=obs, hops=pending.hops))
            else:
                events.append(TraceEvent(t, EventKind.SUPPRESS, obs, f"from={u}"))

        upstream = topology.upstream_neighbors(u)
        hearing: list[NodeId] = []
        if on_channel:
            for c in upstream:
                if hears(u, c):
                    events.append(TraceEvent(t, EventKind.RECEIVE, c, f"from={u}"))
                    hearing.append(c)
        if not hearing:
            continue

        next_hops = pending.hops + 1
        if gateway in hearing:
            events.append(
                TraceEvent(t, EventKind.GATEWAY_ARRIVAL, gateway, f"hops={next_hops} from={u}")
            )
            hearing = [c for c in hearing if c != gateway]
            if not hearing:
                continue

        if config.mode is ProtocolMode.RECEIVER_BASED:
            order = sorted(hearing, key=lambda c: (topology.rank(c), c))
            ordinal = {c: i for i, c in enumerate(order)}
        else:
            stamped = sorted(upstream, key=lambda c: (costs[c], c))
            stamped_pos = {c: i for i, c in enumerate(stamped)}
            order = sorted(hearing, key=lambda c: stamped_pos[c])
            ordinal = {c: stamped_pos[c] for c in order}

        winner = order[0]
        if ordinal[winner] >= config.election_slots:
            for c in order:
                events.append(TraceEvent(t, EventKind.SUPPRESS, c, f"from={u} window-closed"))
            continue
        events.append(
            TraceEvent(
                t, EventKind.ELECT, winner,
                f"from={u} slot={ordinal[winner]} hops={next_hops}",
            )
        )

        attached: list[NodeId] = []
        for c in order[1:]:
            if ordinal[c] >= config.election_slots:
                events.append(TraceEvent(t, EventKind.SUPPRESS, c, f"from={u} window-closed"))
            elif config.mode is ProtocolMode.RECEIVER_BASED and not config.suppression:
                events.append(
                    TraceEvent(t, EventKind.DUPLICATE_FORWARD, c, f"from={u} winner={winner}")
                )
                queue.append(_Pending(node=c, hops=next_hops))
            else:
                attached.append(c)
        queue.append(_Pending(node=winner, hops=next_hops, observers=tuple(attached)))

    return DeliveryTrace.from_events(source, events)


def first_arrival_hops(trace: DeliveryTrace) -> int | None:
    """Hop count of the first gateway arrival, or None if undelivered."""
    for e in trace.events:
        if e.kind is EventKind.GATEWAY_ARRIVAL:
            for token in e.detail.split():
                if token.startswith("hops="):
                    return int(token[5:])
    return None


def run_experiment(topology: Topology, config: SimConfig) -> Metrics:
    """Run ``config.replications`` independent delivery attempts and
    aggregate.

    ``empirical_coordination_overhead`` is the per-replication sum, over
    election events, of the elected forwarder's expected path cost - the
    simulator counterpart of the closed-form coordination overhead (the
    gateway's cost is zero, so terminal hops contribute nothing).
    ``mean_duplicates`` counts duplicate-forward events per replication.
    """
    costs = analysis.network_path_costs(topology)
    attempted = config.replications
    succeeded = 0
    dup_events = 0
    transmissions = 0
    overhead_sum = 0.0
    hops_sum = 0
    for r in range(attempted):
        trace = simulate_delivery(topology, costs, config, r)
        if trace.delivered:
            succeeded += 1
            arrival = first_arrival_hops(trace)
            if arrival is not None:
                hops_sum += arrival
        dup_events += trace.count(EventKind.DUPLICATE_FORWARD)
        transmissions += trace.transmissions
        for e in trace.events:
            if e.kind is EventKind.ELECT:
                overhead_sum += costs[e.actor]
    return Metrics(
        deliveries_attempted=attempted,
        deliveries_succeeded=succeeded,
        pdr=succeeded / attempted,
        mean_duplicates=dup_events / attempted,
        empirical_coordination_overhead=overhead_sum / attempted,
        mean_transmissions=transmissions / attempted,
        mean_hops=(hops_sum / succeeded) if succeeded else 0.0,
    )
