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
underflow-risk regime ``n * p < 1e-8``; the engine's decode probabilities
come from the same ``_survival_power``, so it governs them too.
"""

from __future__ import annotations

import math
from typing import Mapping

from . import model
from .model import (
    BitErrorRate,
    ForwarderEntry,
    ForwarderSet,
    FrameParams,
    NodeId,
    PathCostTable,
    Topology,
)


def _ber_value(p: float | BitErrorRate) -> float:
    if isinstance(p, BitErrorRate):
        return p.p
    return model._probability("bit error probability", p)


def _survival_power(p: float, n: int) -> float:
    """(1 - p) ** n under the module's floating-point policy; exactly 1.0
    at p = 0 and 0.0 at p = 1."""
    if n * p < 1e-8:
        return math.exp(n * math.log1p(-p))
    return (1.0 - p) ** n


def _preamble_miss(p: float, frame: FrameParams) -> float:
    single_miss = 1.0 - _survival_power(p, frame.micro_frame_bits)
    return single_miss**frame.preamble_frames


def _data_miss(p: float, frame: FrameParams) -> float:
    return 1.0 - _survival_power(p, frame.data_frame_bits)


def _failure(p: float, frame: FrameParams, p_sw: float) -> float:
    return p_sw * _preamble_miss(p, frame) * _data_miss(p, frame)


def _link_success(p: float, frame: FrameParams, p_sw: float) -> float:
    """link_success of a bit error rate and a p_sw already validated."""
    return 1.0 - _failure(p, frame, p_sw)


def preamble_miss_probability(p: float | BitErrorRate, frame: FrameParams) -> float:
    """Probability that every micro-frame of the preamble fails to decode:
    [1 - (1 - p)^m]^r for m bits per micro-frame and r micro-frames."""
    return _preamble_miss(_ber_value(p), frame)


def data_miss_probability(p: float | BitErrorRate, frame: FrameParams) -> float:
    """Probability the data frame fails to decode: 1 - (1 - p)^d."""
    return _data_miss(_ber_value(p), frame)


def failure_probability(p: float | BitErrorRate, frame: FrameParams, p_sw: float) -> float:
    """Probability a listening candidate hears neither the preamble nor the
    data frame of a transmission switched onto the evaluated channel.

    The switching probability multiplies the joint miss, so p_sw = 0 makes
    the failure 0 by convention; callers needing "no transmission at all"
    semantics must gate on channel selection themselves.
    """
    p_sw = model._probability("p_sw", p_sw)
    return _failure(_ber_value(p), frame, p_sw)


def link_success(p: float | BitErrorRate, frame: FrameParams, p_sw: float) -> float:
    """Complement of failure_probability: the candidate hears at least one
    micro-frame or the data frame."""
    p_sw = model._probability("p_sw", p_sw)
    return _link_success(_ber_value(p), frame, p_sw)


def reception_probability(p: float | BitErrorRate, frame: FrameParams, p_sw: float) -> float:
    """Probability a listener can actually decode and forward the packet:
    the transmission is on the evaluated channel, at least one micro-frame
    wakes the listener, and the data frame decodes.

    Stricter than link_success; the packet-level simulator uses this law
    for reception while suppression follows link_success's complement.
    """
    p = _ber_value(p)
    p_sw = model._probability("p_sw", p_sw)
    return p_sw * (1.0 - _preamble_miss(p, frame)) * _survival_power(p, frame.data_frame_bits)


def _election(forwarder_set: ForwarderSet) -> tuple[float, float]:
    """One transmission to a set, members in canonical order: the
    probability that no member receives, and the sum over members of
    p_b * Y_b * prod_(earlier r) (1 - p_r); (1.0, 0.0) for the empty set."""
    all_miss = 1.0
    elected_mass = 0.0
    for e in forwarder_set:
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
            p_link=_link_success(topology.ber(node, nbr), frame, p_sw),
            remaining_cost=costs[nbr],
        )
        for nbr in topology.upstream_neighbors(node)
    ]
    return ForwarderSet(tuple(entries))


def network_path_costs(topology: Topology) -> PathCostTable:
    """Solve every node's expected path cost in ascending hop-id order.

    Each node's forwarder set only contains smaller-hop neighbors, so their
    costs are already final when the node is processed; the gateway anchors
    the recursion at zero.
    """
    order = sorted(topology.non_gateway_ids(), key=lambda nid: (topology.hop_id(nid), nid))
    costs: dict[NodeId, float] = {topology.gateway: 0.0}
    for node in order:
        costs[node] = total_path_cost(forwarder_entries(topology, node, costs))
        if math.isinf(costs[node]):
            raise ValueError("unreachable forwarder set: every link probability is 0")
    return PathCostTable(gateway=topology.gateway, costs=costs)


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
