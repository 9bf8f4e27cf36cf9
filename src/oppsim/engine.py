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
them is measurement noise, which the metrics make checkable.  One known
exception: two candidates whose costs differ by 1 ulp can round to the
same rank, and then receiver mode breaks the tie by node id where sender
mode keeps the cost order (the 1000-node generated mesh of the benchmark
hits this; ``perfbench/known_defects.json`` pins its output).

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
        source = rng.choice(candidates) if candidates else gateway
    if source == gateway:
        return DeliveryTrace(source, (TraceEvent(0, EventKind.GATEWAY_ARRIVAL, gateway, hops=0),))

    frame = topology.frame
    p_sw = topology.channel.evaluated.p_sw
    r_m = frame.preamble_frames
    m = frame.micro_frame_bits
    d = frame.data_frame_bits

    def preamble(a: NodeId, b: NodeId) -> tuple[bool, float]:
        # frame-by-frame draws until one of a's micro-frames wakes b; also
        # returns b's decode probability for a's data frame
        micro_p, data_p = _frame_decode_probs(topology.ber(a, b), m, d)
        for _ in range(r_m):
            if rng.random() < micro_p:
                return True, data_p
        return False, data_p

    def overheard(transmitter: NodeId, observer: NodeId) -> bool:
        # any micro-frame OR the data frame of the winner's forward
        if not topology.has_link(observer, transmitter):
            return False
        woke, data_p = preamble(transmitter, observer)
        return woke or rng.random() < data_p

    events: list[TraceEvent] = []
    queue: deque[_Pending] = deque([_Pending(node=source, hops=0)])
    slot = 0
    while queue:
        pending = queue.popleft()
        u = pending.node
        if pending.hops >= config.max_hops:
            for obs in pending.observers:
                events.append(
                    TraceEvent(slot, EventKind.SUPPRESS, obs, sender=u, reason="max-hops")
                )
            continue

        t = slot
        slot += 1
        events.append(TraceEvent(t, EventKind.TRANSMIT_PREAMBLE, u))
        events.append(TraceEvent(t, EventKind.TRANSMIT_DATA, u))
        on_channel = rng.random() < p_sw

        # co-candidates of u's own election react to this forward transmission
        for obs in pending.observers:
            if on_channel and not overheard(u, obs):
                events.append(TraceEvent(t, EventKind.DUPLICATE_FORWARD, obs, sender=u))
                queue.append(_Pending(node=obs, hops=pending.hops))
            else:
                events.append(TraceEvent(t, EventKind.SUPPRESS, obs, sender=u))

        upstream = topology.upstream_neighbors(u)
        hearing: list[NodeId] = []
        if on_channel:
            for c in upstream:
                # a micro-frame wakes c, then the data frame decodes
                woke, data_p = preamble(u, c)
                if woke and rng.random() < data_p:
                    events.append(TraceEvent(t, EventKind.RECEIVE, c, sender=u))
                    hearing.append(c)
        if not hearing:
            continue

        next_hops = pending.hops + 1
        if gateway in hearing:
            events.append(
                TraceEvent(t, EventKind.GATEWAY_ARRIVAL, gateway, sender=u, hops=next_hops)
            )
            hearing = [c for c in hearing if c != gateway]
            if not hearing:
                continue

        if config.mode is ProtocolMode.RECEIVER_BASED:
            order = sorted(hearing, key=lambda c: (topology.rank(c), c))
            ordinal = {c: i for i, c in enumerate(order)}
        else:
            stamped = sorted(upstream, key=lambda c: (costs[c], c))
            ordinal = {c: i for i, c in enumerate(stamped)}
            order = sorted(hearing, key=ordinal.__getitem__)

        winner = order[0]
        attached: list[NodeId] = []
        for c in order:
            if ordinal[c] >= config.election_slots:
                events.append(
                    TraceEvent(t, EventKind.SUPPRESS, c, sender=u, reason="window-closed")
                )
            elif c == winner:
                events.append(
                    TraceEvent(t, EventKind.ELECT, c, sender=u, hops=next_hops, slot=ordinal[c])
                )
            elif config.mode is ProtocolMode.RECEIVER_BASED and not config.suppression:
                events.append(TraceEvent(t, EventKind.DUPLICATE_FORWARD, c, sender=u))
                queue.append(_Pending(node=c, hops=next_hops))
            else:
                attached.append(c)
        if ordinal[winner] < config.election_slots:
            queue.append(_Pending(node=winner, hops=next_hops, observers=tuple(attached)))

    return DeliveryTrace(source, tuple(events))


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
        arrived = False
        for e in simulate_delivery(topology, costs, config, r).events:
            kind = e.kind
            if kind is EventKind.TRANSMIT_DATA:
                transmissions += 1
            elif kind is EventKind.ELECT:
                overhead_sum += costs[e.actor]
            elif kind is EventKind.DUPLICATE_FORWARD:
                dup_events += 1
            elif kind is EventKind.GATEWAY_ARRIVAL and not arrived:
                arrived = True
                succeeded += 1
                hops_sum += e.hops
    return Metrics(
        deliveries_attempted=attempted,
        deliveries_succeeded=succeeded,
        mean_duplicates=dup_events / attempted,
        empirical_coordination_overhead=overhead_sum / attempted,
        mean_transmissions=transmissions / attempted,
        mean_hops=(hops_sum / succeeded) if succeeded else 0.0,
    )
