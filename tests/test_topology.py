import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppsim import analysis, topology as topo
from oppsim.model import Channel, ChannelModel, FrameParams, Node, Topology


class TestBisectionSolvers:
    @given(st.floats(min_value=0.01, max_value=0.999))
    def test_link_success_inversion(self, target):
        ber = topo.ber_for_link_success(target, topo.DEFAULT_FRAME, 1.0)
        realized = analysis.link_success(ber, topo.DEFAULT_FRAME, 1.0)
        assert realized == pytest.approx(target, abs=1e-12)

    @given(st.floats(min_value=0.001, max_value=0.999))
    def test_reception_inversion(self, target):
        ber = topo.ber_for_reception(target, topo.DEFAULT_FRAME, 1.0)
        realized = analysis.reception_probability(ber, topo.DEFAULT_FRAME, 1.0)
        assert realized == pytest.approx(target, abs=1e-12)

    def test_perfect_targets_give_zero_ber(self):
        assert topo.ber_for_link_success(1.0, topo.DEFAULT_FRAME, 1.0) == 0.0
        assert topo.ber_for_reception(1.0, topo.DEFAULT_FRAME, 1.0) == 0.0

    def test_unattainable_targets_rejected(self):
        # with p_sw=0.5 at most half the transmissions can be received
        with pytest.raises(ValueError):
            topo.ber_for_reception(0.8, topo.DEFAULT_FRAME, 0.5)
        with pytest.raises(ValueError):
            topo.ber_for_link_success(0.2, topo.DEFAULT_FRAME, 0.5)


class TestChain:
    def test_ids_and_hops(self):
        chain = topo.chain_topology([0.8, 0.8])
        assert [n.id for n in chain.nodes] == [0, 1, 2]
        assert [n.hop_id for n in chain.nodes] == [0, 1, 2]
        assert chain.gateway == 0

    def test_link_success_realized(self):
        chain = topo.chain_topology([0.8, 0.6])
        assert analysis.link_success(chain.ber(0, 1), chain.frame, 1.0) == pytest.approx(
            0.8, abs=1e-12
        )
        assert analysis.link_success(chain.ber(1, 2), chain.frame, 1.0) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_ranks_follow_costs(self):
        chain = topo.chain_topology([0.8, 0.8])
        assert chain.rank(2) == pytest.approx(3.5, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            topo.chain_topology([])


class TestWitness:
    def test_structure(self):
        w = topo.witness_topology()
        assert w.gateway == 1
        assert {n.id for n in w.nodes} == {1, 3, 5}
        assert w.hop_id(5) == 2

    def test_distances_disagree(self):
        # two hops of identical quality, but cost says 3.04 transmissions
        w = topo.witness_topology()
        assert topo.hop_distance(w, 5, 1) == 2
        assert topo.rank_difference_distance(w, 5, 1) == pytest.approx(3.04, abs=1e-12)

    def test_far_cost_splits_evenly(self):
        w = topo.witness_topology(far_cost=4.0)
        assert analysis.link_success(w.ber(1, 3), w.frame, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert topo.rank_difference_distance(w, 5, 1) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_cost_below_two_hops(self):
        with pytest.raises(ValueError):
            topo.witness_topology(far_cost=1.5)


class TestStar:
    def test_structure(self):
        star = topo.star_topology(3, 0.6)
        assert star.gateway == 0
        assert [n.id for n in star.nodes] == [0, 1, 2, 3, 4]
        assert star.hop_id(4) == 2
        # relays are cross-linked for overhearing
        assert star.has_link(1, 2) and star.has_link(2, 3) and star.has_link(1, 3)

    def test_source_hears_relays_at_declared_probability(self):
        star = topo.star_topology(3, 0.6)
        rec = analysis.reception_probability(star.ber(4, 1), star.frame, 1.0)
        assert rec == pytest.approx(0.6, abs=1e-12)

    def test_relay_gateway_links_are_clean(self):
        star = topo.star_topology(2, 0.6, remaining_cost=1.0)
        assert star.ber(1, 0) == 0.0

    def test_costs_match_declared_remaining(self):
        star = topo.star_topology(2, 0.6, remaining_cost=1.0)
        costs = analysis.network_path_costs(star)
        assert costs[1] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_forwarders(self):
        with pytest.raises(ValueError):
            topo.star_topology(0, 0.6)


class TestDiamond:
    def test_structure(self):
        d = topo.diamond_topology()
        assert [n.id for n in d.nodes] == [0, 1, 2, 3]
        assert d.hop_id(3) == 2
        assert d.has_link(1, 2)

    def test_custom_bers_land_on_links(self):
        d = topo.diamond_topology(source_ber=(0.03, 0.04), relay_ber=(0.005, 0.006))
        assert d.ber(3, 1) == 0.03
        assert d.ber(3, 2) == 0.04
        assert d.ber(1, 0) == 0.005
        assert d.ber(2, 0) == 0.006

    def test_overhearing_link_ber(self):
        d = topo.diamond_topology(intercandidate_ber=0.25)
        assert d.ber(1, 2) == 0.25


class TestGenerate:
    CFG = topo.GeneratorConfig(
        nodes=12,
        area_side=100.0,
        radio_range=45.0,
        ber_model=topo.FixedBer(0.005),
    )

    def test_deterministic(self):
        a = topo.generate(self.CFG, seed=4)
        b = topo.generate(self.CFG, seed=4)
        assert a == b

    def test_seed_changes_layout(self):
        a = topo.generate(self.CFG, seed=4)
        b = topo.generate(self.CFG, seed=5)
        assert a != b

    def test_gateway_is_node_zero_at_center(self):
        g = topo.generate(self.CFG, seed=4)
        assert g.gateway == 0
        assert g.node(0).position == (50.0, 50.0)
        assert g.hop_id(0) == 0

    def test_links_are_symmetric_and_ranged(self):
        g = topo.generate(self.CFG, seed=4)
        for (a, b), ber in g.links.items():
            assert g.links[(b, a)] == ber
            xa, ya = g.node(a).position
            xb, yb = g.node(b).position
            assert math.hypot(xa - xb, ya - yb) <= self.CFG.radio_range

    def test_distance_ber_grows_with_distance(self):
        cfg = topo.GeneratorConfig(
            nodes=12,
            area_side=100.0,
            radio_range=45.0,
            ber_model=topo.DistanceBer(p_min=0.001, p_max=0.05),
        )
        g = topo.generate(cfg, seed=4)
        pairs = []
        for (a, b), ber in g.links.items():
            xa, ya = g.node(a).position
            xb, yb = g.node(b).position
            pairs.append((math.hypot(xa - xb, ya - yb), ber.p))
        pairs.sort()
        dists = [d for d, _ in pairs]
        bers = [p for _, p in pairs]
        assert bers == sorted(bers)
        assert bers[0] >= 0.001 and bers[-1] <= 0.05
        assert dists[-1] > dists[0]

    def test_disconnected_layout_raises(self):
        cfg = topo.GeneratorConfig(
            nodes=20,
            area_side=100.0,
            radio_range=10.0,
            ber_model=topo.FixedBer(0.005),
        )
        with pytest.raises(topo.DisconnectedTopologyError):
            topo.generate(cfg, seed=1)


class TestHopAssignment:
    def test_bfs_hop_ids(self):
        nodes = (
            Node(id=0, rank=1.0, hop_id=0),
            Node(id=1, rank=1.0, hop_id=0),
            Node(id=2, rank=1.0, hop_id=0),
        )
        links = {(0, 1): 0.0, (1, 0): 0.0, (1, 2): 0.0, (2, 1): 0.0, (0, 2): 0.0, (2, 0): 0.0}
        raw = Topology(
            nodes=nodes,
            gateway=0,
            links=links,
            frame=topo.DEFAULT_FRAME,
            channel=topo.DEFAULT_CHANNEL,
        )
        assigned = topo.assign_hop_ids(raw)
        assert [n.hop_id for n in assigned.nodes] == [0, 1, 1]

    def test_unreachable_node_named(self):
        nodes = (Node(id=0, rank=1.0, hop_id=0), Node(id=7, rank=1.0, hop_id=0))
        raw = Topology(
            nodes=nodes,
            gateway=0,
            links={},
            frame=topo.DEFAULT_FRAME,
            channel=topo.DEFAULT_CHANNEL,
        )
        with pytest.raises(topo.DisconnectedTopologyError, match="7"):
            topo.assign_hop_ids(raw)


def test_deepest_node_breaks_ties_by_id():
    star = topo.star_topology(2, 0.6)
    assert topo.deepest_node(star) == 3  # source sits below both relays
    chain = topo.chain_topology([0.9, 0.9])
    assert topo.deepest_node(chain) == 2


def test_default_channel_shape():
    assert topo.DEFAULT_CHANNEL.evaluated.p_sw == 1.0
    assert topo.DEFAULT_CHANNEL.evaluated.p_acc == 0.5
    assert topo.DEFAULT_FRAME.bits_per_transmission == 116


def test_custom_channel_propagates():
    channel = ChannelModel(channels=(Channel(0.7, 0.5, 1e6),), noise_power=1e-9)
    chain = topo.chain_topology([0.9], channel=channel)
    assert chain.channel.evaluated.p_sw == 0.7
    # realized success honors the channel under evaluation
    assert analysis.link_success(chain.ber(0, 1), chain.frame, 0.7) == pytest.approx(
        0.9, abs=1e-12
    )


def test_frame_override_propagates():
    frame = FrameParams(micro_frame_bits=4, preamble_frames=3, data_frame_bits=50)
    chain = topo.chain_topology([0.9], frame=frame)
    assert chain.frame == frame
    assert analysis.link_success(chain.ber(0, 1), frame, 1.0) == pytest.approx(0.9, abs=1e-12)
