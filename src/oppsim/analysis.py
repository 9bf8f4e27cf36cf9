"""Closed-form reliability and cost model of receiver-based opportunistic
forwarding.

Conventions
-----------
* A transmission is a preamble of ``preamble_frames`` micro-frames followed
  by one data frame; bits error independently at the link's rate.
* ``link_success`` is the complement of the coordination-failure event: a
  candidate stays silent iff it hears at least one micro-frame *or* the
  data frame, so the failure needs both to be missed (times the channel
  switching probability).  ``reception_probability`` is the stricter
  decode-and-forward law (a wake-up micro-frame *and* the data frame) used
  by the packet-level simulator; keeping both exposes the difference
  instead of papering over it.
* ``expected_retransmissions`` excludes the first attempt: a per-attempt
  failure probability f costs f / (1 - f) extra transmissions.
* The closed forms are total over their domain: a forwarder set that no
  member can receive from, the empty set included, costs ``inf`` with
  overhead 0, and a certain failure (f = 1) needs ``inf`` retransmissions.
  A node without upstream neighbours, the gateway among them, has the
  empty set.  ``network_path_costs`` is the one refusal of such a set,
  because a node's cost must be finite to enter the next node's set.

Floating-point policy: probabilities are computed in double precision and
``(1 - p) ** n`` switches to ``exp(n * log1p(-p))`` only in the
underflow-risk regime ``n * p < 1e-8``.  ``_decode_pair`` is the one
frame-decode law, a link's ``(1 - p)^m, (1 - p)^d``: the public laws,
``network_path_costs`` and the engine all read it.  The engine computes
only the overhearing pairs; the upstream links' are the ones the cost
solve returns with its table.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from . import model
from .model import (
    ForwarderEntry,
    ForwarderSet,
    FrameParams,
    NodeId,
    PathCostTable,
    Topology,
)


def _survival_power(p: float, n: int) -> float:
    """(1 - p) ** n under the module's floating-point policy; exactly 1.0
    at p = 0 and 0.0 at p = 1."""
    if n * p < 1e-8:
        return math.exp(n * math.log1p(-p))
    return (1.0 - p) ** n


def _decode_pair(p: float, frame: FrameParams) -> tuple[float, float]:
    """A link's micro-frame and data frame decode probabilities, (1 - p)^m and (1 - p)^d."""
    return _survival_power(p, frame.micro_frame_bits), _survival_power(p, frame.data_frame_bits)


def _failure(pair: tuple[float, float], frame: FrameParams, p_sw: float) -> float:
    """failure_probability of a link's decode pair and a p_sw already validated."""
    micro_p, data_p = pair
    return p_sw * (1.0 - micro_p) ** frame.preamble_frames * (1.0 - data_p)


def preamble_miss_probability(p: float, frame: FrameParams) -> float:
    """Probability that every micro-frame of the preamble fails to decode:
    [1 - (1 - p)^m]^r for m bits per micro-frame and r micro-frames."""
    p = model._probability("bit error probability", p)
    return (1.0 - _decode_pair(p, frame)[0]) ** frame.preamble_frames


def data_miss_probability(p: float, frame: FrameParams) -> float:
    """Probability the data frame fails to decode: 1 - (1 - p)^d."""
    p = model._probability("bit error probability", p)
    return 1.0 - _decode_pair(p, frame)[1]


def failure_probability(p: float, frame: FrameParams, p_sw: float) -> float:
    """Probability a listening candidate hears neither the preamble nor the
    data frame of a transmission switched onto the evaluated channel.

    The switching probability multiplies the joint miss, so p_sw = 0 makes
    the failure 0 by convention; callers needing "no transmission at all"
    semantics must gate on channel selection themselves.
    """
    p_sw = model._probability("p_sw", p_sw)
    p = model._probability("bit error probability", p)
    return _failure(_decode_pair(p, frame), frame, p_sw)


def link_success(p: float, frame: FrameParams, p_sw: float) -> float:
    """Complement of failure_probability: the candidate hears at least one
    micro-frame or the data frame."""
    return 1.0 - failure_probability(p, frame, p_sw)


def reception_probability(p: float, frame: FrameParams, p_sw: float) -> float:
    """Probability a listener can actually decode and forward the packet:
    the transmission is on the evaluated channel, at least one micro-frame
    wakes the listener, and the data frame decodes.

    Stricter than link_success; the packet-level simulator uses this law
    for reception while suppression follows link_success's complement.
    """
    micro_p, data_p = _decode_pair(model._probability("bit error probability", p), frame)
    p_sw = model._probability("p_sw", p_sw)
    return p_sw * (1.0 - (1.0 - micro_p) ** frame.preamble_frames) * data_p


class _Member(NamedTuple):
    """A forwarder set member as the cost solve needs it: no validation (its
    link success and its cost are valid by construction), and its fields in
    the order that sorts members into the canonical (cost, id) order."""

    remaining_cost: float
    node: NodeId
    p_link: float


def _election(members: ForwarderSet | Iterable[_Member]) -> tuple[float, float]:
    """One transmission to a set: iterates its members in the order given
    (a ``ForwarderSet``'s canonical order, or the cost solve's ``_Member``s
    in (cost, id) order) and returns the probability that no member
    receives and the sum over members of p_b * Y_b * prod_(earlier r)
    (1 - p_r); (1.0, 0.0) for the empty set."""
    all_miss = 1.0
    elected_mass = 0.0
    for e in members:
        elected_mass += e.p_link * e.remaining_cost * all_miss
        all_miss *= 1.0 - e.p_link
    return all_miss, elected_mass


def total_path_cost(forwarder_set: ForwarderSet) -> float:
    """Expected total cost of delivering through a forwarder set.

    First term: expected transmissions until at least one member receives
    (geometric in the all-miss probability).  Second term: expected
    remaining cost of the elected member - the first receiver in canonical
    order - conditioned on somebody receiving.  ``inf`` when no member can
    receive.
    """
    all_miss, elected_mass = _election(forwarder_set)
    p_some = 1.0 - all_miss
    if p_some <= 0.0:
        return math.inf
    return 1.0 / p_some + elected_mass / p_some


def coordination_overhead(forwarder_set: ForwarderSet) -> float:
    """Cost-weighted single-transmission election expectation: sum over
    members of p_b * Y_b * prod_(earlier r) (1 - p_r).

    Equals the expected remaining cost routed through whichever member is
    elected on one transmission, counting zero when nobody hears.  Grows
    with every added member; for N identical members it is
    Y * (1 - (1 - p)^N).
    """
    return _election(forwarder_set)[1]


def forwarder_entries(
    topology: Topology, node: NodeId, costs: Mapping[NodeId, float]
) -> ForwarderSet:
    """A node's forwarder set: its upstream neighbors (strictly smaller hop id;
    the set is empty without any) with link_success under the evaluated channel."""
    p_sw = topology.channel.evaluated.p_sw
    frame = topology.frame
    entries = [
        ForwarderEntry(
            node=nbr,
            p_link=link_success(topology.ber(node, nbr), frame, p_sw),
            remaining_cost=costs[nbr],
        )
        for nbr in topology.upstream_neighbors(node)
    ]
    return ForwarderSet(tuple(entries))


def network_path_costs(topology: Topology) -> PathCostTable:
    """Solve every node's expected path cost in ascending hop-id order.

    Each node's forwarder set only contains smaller-hop neighbors, so their
    costs are already final when the node is processed; the gateway anchors
    the recursion at zero.  Per upstream link it computes the decode pair
    once with ``_decode_pair``, the one frame-decode law, and derives the
    link's ``link_success`` from it with ``_failure``, as the public law
    does.  It hands ``total_path_cost`` one ``_Member`` per upstream
    neighbour, sorted into (cost, id) order, the canonical order of the set
    ``forwarder_entries`` builds, instead of a validated ``ForwarderSet``.

    It returns the pairs too, as the table's ``decode`` (see
    ``PathCostTable``), and leaves its argument as it was.  Flat, a node's
    pairs are one object, not one per link, so the solve leaves the garbage
    collector no more containers to track than one per node.
    """
    p_sw = topology.channel.evaluated.p_sw
    frame = topology.frame
    upstream_neighbors = topology.upstream_neighbors
    ber = topology.ber
    hop = {n.id: n.hop_id for n in topology.nodes}
    order = sorted(topology.non_gateway_ids(), key=lambda nid: (hop[nid], nid))
    costs: dict[NodeId, float] = {topology.gateway: 0.0}
    decode: dict[NodeId, tuple[float, ...]] = {topology.gateway: ()}
    for node in order:
        pairs = []
        members = []
        for nbr in upstream_neighbors(node):
            pair = _decode_pair(ber(node, nbr), frame)
            pairs += pair
            members.append(_Member(costs[nbr], nbr, 1.0 - _failure(pair, frame, p_sw)))
        members.sort()
        decode[node] = tuple(pairs)
        costs[node] = total_path_cost(members)
        if math.isinf(costs[node]):
            raise ValueError("unreachable forwarder set: every link probability is 0")
    return PathCostTable(gateway=topology.gateway, costs=costs, decode=decode)


def set_failure_probability(forwarder_set: ForwarderSet) -> float:
    """Probability a single transmission reaches no member of the set."""
    return _election(forwarder_set)[0]


def expected_retransmissions(failure: float) -> float:
    """Expected retransmissions beyond the first attempt when each attempt
    independently fails with probability ``failure``: f / (1 - f), and
    ``inf`` for a failure that is certain."""
    failure = model._probability("failure", failure)
    if failure == 1.0:
        return math.inf
    return failure / (1.0 - failure)


def potential_bandwidth(p_acc: float, bandwidth_hz: float) -> float:
    """Opportunistically usable bandwidth of a channel: access probability
    times nominal bandwidth."""
    p_acc = model._probability("p_acc", p_acc)
    return p_acc * model._positive_real("bandwidth_hz", bandwidth_hz)
