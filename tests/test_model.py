import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppsim import model
from oppsim.analysis import network_path_costs
from oppsim.model import (
    BitErrorRate,
    Channel,
    ChannelModel,
    DeliveryTrace,
    EventKind,
    ForwarderEntry,
    ForwarderSet,
    FrameParams,
    Metrics,
    Node,
    Topology,
    TraceEvent,
    validate,
)
from oppsim.topology import prepare


def make_frame(**kw):
    base = dict(micro_frame_bits=8, preamble_frames=2, data_frame_bits=100)
    base.update(kw)
    return FrameParams(**base)


def make_channel():
    return ChannelModel(channels=(Channel(1.0, 0.5, 2e6),), noise_power=1e-9)


def test_frame_params_bits_per_transmission():
    frame = make_frame()
    assert frame.bits_per_transmission == 8 * 2 + 100


@pytest.mark.parametrize(
    "field,value",
    [
        ("micro_frame_bits", 0),
        ("preamble_frames", 0),
        ("data_frame_bits", -1),
        ("micro_frame_bits", 2.5),
    ],
)
def test_frame_params_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        make_frame(**{field: value})


@pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
def test_bit_error_rate_domain(p):
    with pytest.raises(ValueError):
        BitErrorRate(p)


def test_bit_error_rate_accepts_bounds():
    assert BitErrorRate(0.0).p == 0.0
    assert BitErrorRate(1.0).p == 1.0


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(p_sw=1.5, p_acc=0.5, bandwidth_hz=1e6)
    with pytest.raises(ValueError):
        Channel(p_sw=0.5, p_acc=0.5, bandwidth_hz=0.0)


def test_channel_model_needs_a_channel():
    with pytest.raises(ValueError):
        ChannelModel(channels=(), noise_power=1e-9)


def test_channel_model_evaluated_is_first():
    first = Channel(0.9, 0.4, 1e6)
    model = ChannelModel(channels=(first, Channel(0.5, 0.5, 2e6)), noise_power=1e-9)
    assert model.evaluated is model.channels[0]
    assert model.evaluated.p_sw == 0.9


def test_forwarder_entry_validation():
    with pytest.raises(ValueError):
        ForwarderEntry(node=1, p_link=1.2, remaining_cost=1.0)
    with pytest.raises(ValueError):
        ForwarderEntry(node=1, p_link=0.5, remaining_cost=-1.0)


def test_forwarder_set_canonical_order():
    # sorted by remaining cost, node id breaking ties
    fs = ForwarderSet(
        (
            ForwarderEntry(node=9, p_link=0.5, remaining_cost=2.0),
            ForwarderEntry(node=4, p_link=0.5, remaining_cost=1.0),
            ForwarderEntry(node=2, p_link=0.5, remaining_cost=2.0),
        )
    )
    assert [e.node for e in fs] == [4, 2, 9]
    assert len(fs) == 3
    assert fs[0].remaining_cost == 1.0


def _tiny_topology(links=None):
    nodes = (
        Node(id=0, hop_id=0),
        Node(id=1, hop_id=1),
        Node(id=2, hop_id=2),
    )
    if links is None:
        links = {(0, 1): 0.01, (1, 0): 0.01, (1, 2): 0.01, (2, 1): 0.01}
    return Topology(
        nodes=nodes, gateway=0, links=links, frame=make_frame(), channel=make_channel()
    )


def _prepared(topo):
    """``topo`` built again through ``prepare``, from its own links."""
    edges = [(a, b, ber) for (a, b), ber in topo.links.items()]
    positions = {n.id: n.position for n in topo.nodes}
    return prepare(positions, topo.gateway, edges, topo.frame, topo.channel)


def test_topology_accessors():
    topo = _tiny_topology()
    assert topo.upstream_neighbors(1) == (0,)
    assert topo.upstream_neighbors(2) == (1,)
    assert topo.upstream_neighbors(0) == ()
    assert topo.has_link(0, 1) and not topo.has_link(0, 2)
    assert topo.ber(0, 1) == 0.01
    assert topo.hop_id(2) == 2
    assert _prepared(topo).rank(1) == 1.0 + network_path_costs(topo)[1]
    assert topo.non_gateway_ids() == (1, 2)
    with pytest.raises(ValueError, match=r"^unknown node id: 9$"):
        topo.upstream_neighbors(9)


@st.composite
def hand_built_links(draw):
    """Hop ids for nodes 0..n-1 and a link map a hand-built topology may
    hold: one-way links, and links to ids that are no node (n..n+1)."""
    n = draw(st.integers(min_value=1, max_value=7))
    hops = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    end = st.integers(min_value=0, max_value=n + 1)
    pairs = draw(st.lists(st.tuples(end, end).filter(lambda p: p[0] != p[1]), max_size=16))
    return hops, {pair: 0.01 for pair in pairs}


@settings(max_examples=100, deadline=None)
@given(hand_built_links())
def test_upstream_neighbors_are_the_nearer_ends_of_stored_links(drawn):
    hops, links = drawn
    nodes = tuple(Node(id=i, hop_id=h) for i, h in enumerate(hops))
    topo = Topology(nodes=nodes, gateway=0, links=links, frame=make_frame(), channel=make_channel())
    for i, hop in enumerate(hops):
        # a stored link joins both ends whichever way it points
        ends = {b for a, b in links if a == i} | {a for a, b in links if b == i}
        expected = tuple(sorted(m for m in ends if m < len(hops) and hops[m] < hop))
        assert topo.upstream_neighbors(i) == expected


def test_compute_ranks_shares_neighbour_tables():
    topo = _tiny_topology()
    ranked = _prepared(topo)
    # the cost solve ran on the topology prepare returns, so the upstream
    # table it built is the one that topology serves
    upstream = ranked.__dict__["_upstream"]
    assert ranked.costs == network_path_costs(topo)
    assert [ranked.rank(n.id) for n in ranked.nodes] == [1.0 + ranked.costs[i] for i in (0, 1, 2)]
    with pytest.raises(ValueError, match="topology.prepare"):
        topo.rank(1)
    assert ranked.upstream_neighbors(2) is upstream[2]
    assert ranked.links == topo.links and ranked.nodes == topo.nodes


def test_topology_coerces_float_links():
    topo = _tiny_topology()
    assert isinstance(topo.links[(0, 1)], BitErrorRate)


def test_topology_rejects_self_link():
    with pytest.raises(ValueError):
        _tiny_topology(links={(1, 1): 0.01})


def test_topology_rejects_a_link_key_that_is_not_a_pair():
    with pytest.raises(ValueError):
        _tiny_topology(links={(0, 1, 2): 0.01})


def test_validate_reports_duplicate_node_ids():
    nodes = (Node(id=0, hop_id=0), Node(id=0, hop_id=1))
    topo = Topology(
        nodes=nodes, gateway=0, links={}, frame=make_frame(), channel=make_channel()
    )
    codes = {v.code for v in validate(topo)}
    assert "node-ids" in codes


def test_validate_clean_topology():
    assert validate(_tiny_topology()) == []


def test_validate_reports_asymmetric_link_once():
    topo = _tiny_topology(links={(0, 1): 0.01, (1, 0): 0.01, (1, 2): 0.01})
    codes = [v.code for v in validate(topo)]
    assert codes.count("symmetry") == 1


def counted_pairs(monkeypatch):
    """The pairs ``validate`` builds, recorded by a stand-in ``frozenset``."""
    built = []

    def pair(items):
        built.append(frozenset(items))
        return built[-1]

    monkeypatch.setattr(model, "frozenset", pair, raising=False)
    return built


def symmetry_messages(topo):
    return [v.message for v in validate(topo) if v.code == "symmetry"]


class TestValidateSymmetry:
    """A pair is built only for a link that breaks symmetry, and each
    broken pair is reported once, in link order."""

    def test_symmetric_links_build_no_pair(self, monkeypatch):
        built = counted_pairs(monkeypatch)
        assert validate(_tiny_topology()) == []
        assert built == []

    def test_missing_reverse(self, monkeypatch):
        built = counted_pairs(monkeypatch)
        topo = _tiny_topology(links={(0, 1): 0.01, (1, 0): 0.01, (1, 2): 0.01})
        assert symmetry_messages(topo) == ["link (1, 2) has no reverse entry"]
        assert built == [frozenset((1, 2))]

    def test_mismatch_in_both_directions_is_reported_once(self, monkeypatch):
        built = counted_pairs(monkeypatch)
        links = {(0, 1): 0.01, (1, 2): 0.02, (1, 0): 0.01, (2, 1): 0.03}
        assert symmetry_messages(_tiny_topology(links=links)) == [
            "link (1, 2) bit error rate 0.02 != reverse 0.03"
        ]
        assert built == [frozenset((1, 2))] * 2

    def test_violations_keep_link_order(self):
        links = {(2, 1): 0.03, (0, 1): 0.01, (1, 0): 0.01, (2, 0): 0.01, (1, 2): 0.02}
        assert symmetry_messages(_tiny_topology(links=links)) == [
            "link (2, 1) bit error rate 0.03 != reverse 0.02",
            "link (2, 0) has no reverse entry",
        ]


def test_validate_reports_disconnected_node():
    topo = _tiny_topology(links={(0, 1): 0.01, (1, 0): 0.01})
    codes = {v.code for v in validate(topo)}
    assert "connectivity" in codes


def test_validate_reports_gateway_hop_id():
    nodes = (
        Node(id=0, hop_id=3),
        Node(id=1, hop_id=1),
    )
    topo = Topology(
        nodes=nodes,
        gateway=0,
        links={(0, 1): 0.01, (1, 0): 0.01},
        frame=make_frame(),
        channel=make_channel(),
    )
    codes = {v.code for v in validate(topo)}
    assert "gateway-hop-id" in codes


def test_validate_reports_unknown_gateway():
    nodes = (Node(id=1, hop_id=1),)
    topo = Topology(
        nodes=nodes, gateway=7, links={}, frame=make_frame(), channel=make_channel()
    )
    codes = {v.code for v in validate(topo)}
    assert "gateway" in codes


def test_validate_reports_dangling_link_endpoint():
    topo_nodes = (Node(id=0, hop_id=0), Node(id=1, hop_id=1))
    topo = Topology(
        nodes=topo_nodes,
        gateway=0,
        links={(0, 9): 0.01, (9, 0): 0.01},
        frame=make_frame(),
        channel=make_channel(),
    )
    codes = {v.code for v in validate(topo)}
    assert "link-endpoints" in codes


def _ev(kind, actor=1, **fields):
    return TraceEvent(time=0, kind=kind, actor=actor, **fields)


def test_delivery_trace_from_events():
    events = (
        _ev(EventKind.TRANSMIT_PREAMBLE),
        _ev(EventKind.TRANSMIT_DATA),
        _ev(EventKind.RECEIVE, actor=0, sender=1),
        _ev(EventKind.GATEWAY_ARRIVAL, actor=0, sender=1, hops=1),
    )
    trace = DeliveryTrace(source=1, events=events)
    assert trace.delivered
    assert trace.duplicate_arrivals == 0
    assert trace.transmissions == 1
    assert trace.first_arrival_hops == 1
    assert trace.count(EventKind.RECEIVE) == 1


def test_delivery_trace_counts_duplicate_arrivals():
    events = (
        _ev(EventKind.GATEWAY_ARRIVAL, actor=0, sender=1, hops=1),
        _ev(EventKind.GATEWAY_ARRIVAL, actor=0, sender=2, hops=2),
    )
    trace = DeliveryTrace(source=1, events=events)
    assert trace.delivered and trace.duplicate_arrivals == 1
    assert trace.first_arrival_hops == 1


def _metrics(**overrides):
    values = dict(
        deliveries_attempted=4,
        deliveries_succeeded=3,
        mean_duplicates=0.25,
        empirical_coordination_overhead=1.5,
        mean_transmissions=2.0,
        mean_hops=2.0,
    )
    return Metrics(**{**values, **overrides})


def test_metrics_consistency_checks():
    with pytest.raises(ValueError):
        _metrics(deliveries_succeeded=5)  # more than the 4 attempted
    with pytest.raises(ValueError):
        _metrics(mean_hops=-1.0)
    with pytest.raises(ValueError):
        _metrics(mean_duplicates=float("inf"))


def test_metrics_accepts_consistent_values():
    assert _metrics().pdr == 0.75
    # nothing attempted delivers nothing
    assert _metrics(deliveries_attempted=0, deliveries_succeeded=0).pdr == 0.0


def test_event_kind_values_are_stable():
    # the trace golden hashes and downstream readers key off these literals
    assert EventKind.TRANSMIT_PREAMBLE.value == "transmit-preamble"
    assert EventKind.DUPLICATE_FORWARD.value == "duplicate-forward"
    assert EventKind.GATEWAY_ARRIVAL.value == "gateway-arrival"
