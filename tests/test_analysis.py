"""Closed-form layer: frozen reference values and algebraic invariants.

The frozen constants were computed with independent arithmetic (direct
product expansion, fractions where exact) before the closed forms were
written, and must never be regenerated from the code under test.
"""

import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oppsim import analysis
from oppsim import topology as topo
from oppsim.model import (
    BitErrorRate,
    Channel,
    ChannelModel,
    ForwarderEntry,
    ForwarderSet,
    FrameParams,
    Node,
    Topology,
)
from oppsim.topology import DEFAULT_CHANNEL, DEFAULT_FRAME, chain_topology

FRAME = FrameParams(micro_frame_bits=8, preamble_frames=2, data_frame_bits=100)

# reference point p=0.01 under the 8/2/100 frame
PREAMBLE_MISS_REF = 0.0059683822390354455
DATA_MISS_REF = 0.6339676587267709
JOINT_MISS_REF = 0.003783761314467744
LINK_SUCCESS_REF = 0.9962162386855322


def entries(*pairs):
    return ForwarderSet(
        tuple(ForwarderEntry(node=i, p_link=p, remaining_cost=y) for i, (p, y) in enumerate(pairs))
    )


class TestFrameFactors:
    def test_preamble_miss_reference_value(self):
        assert analysis.preamble_miss_probability(0.01, FRAME) == pytest.approx(
            PREAMBLE_MISS_REF, abs=1e-15
        )

    def test_data_miss_reference_value(self):
        assert analysis.data_miss_probability(0.01, FRAME) == pytest.approx(
            DATA_MISS_REF, abs=1e-15
        )

    def test_joint_failure_reference_value(self):
        assert analysis.failure_probability(0.01, FRAME, 1.0) == pytest.approx(
            JOINT_MISS_REF, abs=1e-15
        )

    def test_link_success_reference_value(self):
        assert analysis.link_success(0.01, FRAME, 1.0) == pytest.approx(
            LINK_SUCCESS_REF, abs=1e-15
        )

    def test_switch_probability_scales_failure(self):
        full = analysis.failure_probability(0.01, FRAME, 1.0)
        assert analysis.failure_probability(0.01, FRAME, 0.25) == pytest.approx(full * 0.25)
        assert analysis.failure_probability(0.01, FRAME, 0.0) == 0.0

    def test_perfect_and_dead_bits(self):
        assert analysis.failure_probability(0.0, FRAME, 1.0) == 0.0
        assert analysis.link_success(0.0, FRAME, 1.0) == 1.0
        # every bit flips: preamble and data are always missed
        assert analysis.failure_probability(1.0, FRAME, 1.0) == 1.0

    def test_accepts_bit_error_rate_wrapper(self):
        wrapped = analysis.failure_probability(BitErrorRate(0.01), FRAME, 1.0)
        assert wrapped == analysis.failure_probability(0.01, FRAME, 1.0)

    def test_reception_is_stricter_than_link_success(self):
        # decoding the payload is harder than merely being detectable
        for p in (0.001, 0.01, 0.05):
            assert analysis.reception_probability(p, FRAME, 1.0) <= analysis.link_success(
                p, FRAME, 1.0
            )

    def test_reception_reference_point(self):
        expected = 1.0 * (1.0 - PREAMBLE_MISS_REF) * (1.0 - 0.01) ** 100
        assert analysis.reception_probability(0.01, FRAME, 1.0) == pytest.approx(expected)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_failure_stays_in_unit_interval(self, p, p_sw):
        f = analysis.failure_probability(p, FRAME, p_sw)
        assert 0.0 <= f <= 1.0
        assert analysis.link_success(p, FRAME, p_sw) == pytest.approx(1.0 - f)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=12))
    def test_more_preamble_repetitions_never_raise_miss(self, p, extra):
        # repeating the preamble gives more chances to hear it
        base = analysis.preamble_miss_probability(p, FRAME)
        longer = FrameParams(FRAME.micro_frame_bits, FRAME.preamble_frames + extra, FRAME.data_frame_bits)
        assert analysis.preamble_miss_probability(p, longer) <= base + 1e-15

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=400))
    def test_longer_data_frame_never_lowers_miss(self, p, extra):
        longer = FrameParams(FRAME.micro_frame_bits, FRAME.preamble_frames, FRAME.data_frame_bits + extra)
        assert analysis.data_miss_probability(p, longer) >= analysis.data_miss_probability(
            p, FRAME
        ) - 1e-15

    def test_tiny_ber_keeps_precision(self):
        # survival exponentiation must not round 1-p to 1
        p = 1e-12
        miss = analysis.data_miss_probability(p, FRAME)
        assert miss == pytest.approx(100 * p, rel=1e-6)
        assert miss > 0.0

    @pytest.mark.parametrize("n", [1, 8, 100, 2**20])
    def test_survival_power_endpoints_are_exact(self, n):
        assert analysis._survival_power(0.0, n) == 1.0
        assert analysis._survival_power(1.0, n) == 0.0

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            analysis.failure_probability(1.5, FRAME, 1.0)
        with pytest.raises(ValueError):
            analysis.failure_probability(0.01, FRAME, -0.2)


class TestPathCost:
    def test_two_equal_candidates(self):
        # 1/(1 - 0.25) + (0.5*1 + 0.25*1)/0.75 = 4/3 + 1 = 7/3
        fs = entries((0.5, 1.0), (0.5, 1.0))
        assert analysis.total_path_cost(fs) == pytest.approx(7.0 / 3.0, abs=1e-15)

    def test_single_candidate(self):
        fs = entries((0.5, 1.0))
        assert analysis.total_path_cost(fs) == pytest.approx(3.0, abs=1e-15)

    def test_perfect_candidate_short_circuits(self):
        fs = entries((1.0, 2.0), (0.3, 5.0))
        assert analysis.total_path_cost(fs) == pytest.approx(3.0, abs=1e-15)

    def test_unreachable_set_costs_inf(self):
        assert analysis.total_path_cost(entries((0.0, 1.0), (0.0, 2.0))) == math.inf

    def test_order_is_by_cost_not_declaration(self):
        # same set declared in both orders must agree
        a = entries((0.9, 5.0), (0.2, 1.0))
        b = entries((0.2, 1.0), (0.9, 5.0))
        assert analysis.total_path_cost(a) == analysis.total_path_cost(b)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=1.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_cost_at_least_one_transmission_plus_best_case(self, pairs):
        fs = entries(*pairs)
        cost = analysis.total_path_cost(fs)
        cheapest = min(y for _, y in pairs)
        assert cost >= 1.0 + cheapest - 1e-12
        assert math.isfinite(cost)

    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_equal_cost_closed_form(self, n, p, y):
        # all candidates alike: cost collapses to 1/(1-(1-p)^n) + y
        fs = entries(*[(p, y)] * n)
        p_some = 1.0 - (1.0 - p) ** n
        assert analysis.total_path_cost(fs) == pytest.approx(1.0 / p_some + y, rel=1e-12)


class TestCoordinationOverhead:
    def test_reference_pair(self):
        fs = entries((0.5, 1.0), (0.5, 2.0))
        assert analysis.coordination_overhead(fs) == pytest.approx(1.0, abs=1e-15)

    def test_two_equal_candidates(self):
        fs = entries((0.5, 1.0), (0.5, 1.0))
        assert analysis.coordination_overhead(fs) == pytest.approx(0.75, abs=1e-15)

    def test_zero_when_nothing_heard(self):
        assert analysis.coordination_overhead(entries((0.0, 3.0))) == 0.0

    def test_gateway_candidate_contributes_nothing(self):
        # a candidate with zero remaining cost is free to elect
        fs = entries((0.5, 0.0), (0.5, 4.0))
        assert analysis.coordination_overhead(fs) == pytest.approx(0.5 * 0.5 * 4.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_overhead_bounded_by_worst_candidate(self, pairs):
        fs = entries(*pairs)
        overhead = analysis.coordination_overhead(fs)
        assert 0.0 <= overhead <= max(y for _, y in pairs) + 1e-12

    @settings(max_examples=50)
    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.5, max_value=4.0),
    )
    def test_equal_cost_overhead_increases_with_set_size(self, n, p, y):
        smaller = entries(*[(p, y)] * n)
        larger = entries(*[(p, y)] * (n + 1))
        assert analysis.coordination_overhead(larger) > analysis.coordination_overhead(smaller)


def test_empty_set_is_total():
    # the general forms, not a refusal: nobody can receive, nobody is elected
    empty = ForwarderSet(())
    assert analysis.total_path_cost(empty) == math.inf
    assert analysis.coordination_overhead(empty) == 0.0
    assert analysis.set_failure_probability(empty) == 1.0
    assert analysis.expected_retransmissions(analysis.set_failure_probability(empty)) == math.inf


class TestSetFailureAndRetries:
    def test_heterogeneous_set_failure(self):
        fs = entries((0.9, 1.0), (0.5, 2.0))
        assert analysis.set_failure_probability(fs) == pytest.approx(0.1 * 0.5)

    def test_retransmissions_reference(self):
        assert analysis.expected_retransmissions(0.9) == pytest.approx(9.0, rel=1e-12)
        assert analysis.expected_retransmissions(0.0) == 0.0

    def test_retransmissions_excludes_first_attempt(self):
        # half the attempts fail: one extra transmission on average
        assert analysis.expected_retransmissions(0.5) == pytest.approx(1.0)

    def test_certain_failure_needs_inf_retransmissions(self):
        assert analysis.expected_retransmissions(1.0) == math.inf

    @pytest.mark.parametrize("failure", [1.5, math.nan])
    def test_failure_outside_unit_interval_rejected(self, failure):
        with pytest.raises(ValueError):
            analysis.expected_retransmissions(failure)

    @given(st.floats(min_value=0.0, max_value=0.99))
    def test_retransmissions_monotone(self, f):
        assert analysis.expected_retransmissions(f) <= analysis.expected_retransmissions(
            min(0.99, f + 0.005)
        )


def test_potential_bandwidth():
    assert analysis.potential_bandwidth(0.5, 2e6) == pytest.approx(1e6)
    with pytest.raises(ValueError):
        analysis.potential_bandwidth(1.5, 2e6)
    with pytest.raises(ValueError):
        analysis.potential_bandwidth(0.5, -1.0)


class TestPathCostTable:
    def test_gateway_anchored_at_zero(self):
        table = analysis.PathCostTable(gateway=0, costs={0: 0.0, 1: 1.25})
        assert table[0] == 0.0
        assert table[1] == 1.25
        assert 1 in table and 9 not in table

    def test_rejects_nonzero_gateway_cost(self):
        with pytest.raises(ValueError):
            analysis.PathCostTable(gateway=0, costs={0: 0.5})

    def test_rejects_sub_unit_node_cost(self):
        # any non-gateway node needs at least one transmission
        with pytest.raises(ValueError):
            analysis.PathCostTable(gateway=0, costs={0: 0.0, 1: 0.5})


class TestNetworkCosts:
    def test_lossless_chain(self):
        topo = chain_topology([1.0, 1.0, 1.0])
        costs = analysis.network_path_costs(topo)
        assert [costs[i] for i in range(4)] == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_partial_chain_reference(self):
        topo = chain_topology([0.8, 0.8])
        costs = analysis.network_path_costs(topo)
        assert costs[1] == pytest.approx(1.25, abs=1e-12)
        assert costs[2] == pytest.approx(2.5, abs=1e-12)

    def test_rank_is_one_plus_cost(self):
        topo = chain_topology([0.8, 0.8])
        costs = analysis.network_path_costs(topo)
        assert topo.costs == costs
        for node in topo.nodes:
            assert topo.rank(node.id) == 1.0 + costs[node.id]

    def test_forwarder_entries_use_link_success(self):
        topo = chain_topology([0.8])
        costs = analysis.network_path_costs(topo)
        fs = analysis.forwarder_entries(topo, 1, costs)
        assert len(fs) == 1
        assert fs[0].node == 0
        assert fs[0].p_link == pytest.approx(0.8, abs=1e-12)
        assert fs[0].remaining_cost == 0.0

    def _disconnected(self):
        nodes = (
            Node(id=0, hop_id=0),
            Node(id=1, hop_id=1),
            Node(id=2, hop_id=2),
        )
        return Topology(
            nodes=nodes,
            gateway=0,
            links={(0, 1): 0.01, (1, 0): 0.01},
            frame=DEFAULT_FRAME,
            channel=DEFAULT_CHANNEL,
        )

    def test_disconnected_node_raises(self):
        # node 2's empty forwarder set costs inf: the cost solve's one refusal
        with pytest.raises(ValueError, match=r"^unreachable forwarder set: every link probability is 0$"):
            analysis.network_path_costs(self._disconnected())

    def test_node_without_upstream_neighbors_has_the_empty_set(self):
        assert analysis.forwarder_entries(self._disconnected(), 2, {0: 0.0, 1: 1.0}) == ForwarderSet(())
        chain = chain_topology([0.8])
        assert analysis.forwarder_entries(chain, chain.gateway, chain.costs) == ForwarderSet(())


def costs_from_public_functions(t):
    """network_path_costs recomputed from link_success, ForwarderEntry,
    ForwarderSet and total_path_cost, each called as a user would."""
    p_sw = t.channel.evaluated.p_sw
    costs = {t.gateway: 0.0}
    for node in sorted(t.non_gateway_ids(), key=lambda nid: (t.hop_id(nid), nid)):
        fs = ForwarderSet(
            tuple(
                ForwarderEntry(nbr, analysis.link_success(t.ber(node, nbr), t.frame, p_sw), costs[nbr])
                for nbr in t.upstream_neighbors(node)
            )
        )
        costs[node] = analysis.total_path_cost(fs)
    return costs


class TestNetworkCostsFromPublicFunctions:
    CHANNEL = ChannelModel(channels=(Channel(0.8, 0.5, 2e6),), noise_power=1e-9)
    FRAME = FrameParams(micro_frame_bits=4, preamble_frames=3, data_frame_bits=60)

    @pytest.mark.parametrize("frame", [DEFAULT_FRAME, FRAME])
    @pytest.mark.parametrize("channel", [DEFAULT_CHANNEL, CHANNEL])
    def test_built_in_shapes(self, frame, channel):
        shapes = [
            topo.chain_topology([0.9, 0.8, 0.95], frame=frame, channel=channel),
            topo.witness_topology(frame=frame, channel=channel),
            topo.star_topology(4, 0.7, remaining_cost=1.5, intercandidate_ber=0.01,
                               frame=frame, channel=channel),
            topo.diamond_topology((0.02, 0.03), (0.01, 0.005), frame=frame, channel=channel),
        ]
        for t in shapes:
            assert analysis.network_path_costs(t).costs == costs_from_public_functions(t)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.0, max_value=0.02),
        st.floats(min_value=0.0, max_value=0.02),
        st.sampled_from([DEFAULT_CHANNEL, CHANNEL]),
    )
    def test_generated_graphs(self, nodes, seed, p_min, p_max, channel):
        config = topo.GeneratorConfig(
            nodes=nodes,
            area_side=100.0,
            radio_range=35.0,
            ber_model=topo.DistanceBer(p_min, p_max),
            channel=channel,
        )
        try:
            t = topo.generate(config, seed=seed)
        except topo.DisconnectedTopologyError:
            reject()
        assert analysis.network_path_costs(t).costs == costs_from_public_functions(t)
