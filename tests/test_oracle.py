import math

import pytest

from oppsim import analysis, oracle, topology as topo
from oppsim.model import ForwarderEntry, ForwarderSet, FrameParams


def entries(*pairs):
    return ForwarderSet(
        tuple(ForwarderEntry(node=i, p_link=p, remaining_cost=y) for i, (p, y) in enumerate(pairs))
    )


class TestExactSingleHop:
    def test_two_equal_candidates(self):
        result = oracle.exact_single_hop(entries((0.5, 1.0), (0.5, 1.0)))
        assert result.expected_cost == pytest.approx(7.0 / 3.0, abs=1e-15)
        assert result.overhead == pytest.approx(0.75, abs=1e-15)

    def test_asymmetric_pair(self):
        # hand expansion: subsets {A}, {B}, {A,B} with A=(0.5,1) preferred
        result = oracle.exact_single_hop(entries((0.5, 1.0), (0.5, 2.0)))
        assert result.overhead == pytest.approx(1.0, abs=1e-15)
        assert result.expected_cost == pytest.approx(1.0 / 0.75 + 1.0 / 0.75, abs=1e-15)

    def test_single_perfect_candidate(self):
        result = oracle.exact_single_hop(entries((1.0, 0.0)))
        assert result.expected_cost == 1.0
        assert result.overhead == 0.0

    def test_unreachable_set(self):
        result = oracle.exact_single_hop(entries((0.0, 1.0), (0.0, 1.0)))
        assert math.isinf(result.expected_cost)
        assert result.overhead == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            oracle.exact_single_hop(ForwarderSet(()))

    def test_enumeration_bound(self):
        big = entries(*[(0.5, 1.0)] * (oracle.MAX_ENUMERATION_SIZE + 1))
        with pytest.raises(ValueError):
            oracle.exact_single_hop(big)

    def test_winner_preference_is_canonical(self):
        # when both receive, the lower-cost candidate is elected, so the
        # high-cost one contributes only through its solo subset
        result = oracle.exact_single_hop(entries((1.0, 1.0), (1.0, 9.0)))
        assert result.overhead == pytest.approx(1.0)
        assert result.expected_cost == pytest.approx(2.0)


class TestExactTwoHop:
    def test_lossless_chain(self):
        chain = oracle.ChainSpec(source=2, gateway=0, links={2: ((1, 1.0),), 1: ((0, 1.0),)})
        assert oracle.exact_two_hop(chain) == pytest.approx(2.0, abs=1e-15)

    def test_partial_chain(self):
        chain = oracle.ChainSpec(source=2, gateway=0, links={2: ((1, 0.8),), 1: ((0, 0.8),)})
        assert oracle.exact_two_hop(chain) == pytest.approx(2.5, abs=1e-15)

    def test_two_candidate_first_hop(self):
        # both relays reach the gateway perfectly; first hop mirrors the
        # single-hop enumeration with unit remaining costs
        chain = oracle.ChainSpec(
            source=3,
            gateway=0,
            links={3: ((1, 0.5), (2, 0.5)), 1: ((0, 1.0),), 2: ((0, 1.0),)},
        )
        assert oracle.exact_two_hop(chain) == pytest.approx(7.0 / 3.0, abs=1e-15)

    def test_depth_bound(self):
        links = {i: ((i - 1, 1.0),) for i in range(1, oracle.MAX_PATH_DEPTH + 2)}
        chain = oracle.ChainSpec(source=oracle.MAX_PATH_DEPTH + 1, gateway=0, links=links)
        with pytest.raises(ValueError):
            oracle.exact_two_hop(chain)

    def test_cycle_detected(self):
        chain = oracle.ChainSpec(source=1, gateway=0, links={1: ((2, 0.5),), 2: ((1, 0.5),)})
        with pytest.raises(ValueError):
            oracle.exact_two_hop(chain)

    def test_forwarder_bound(self):
        wide = tuple((10 + i, 0.5) for i in range(oracle.MAX_FORWARDERS_PER_HOP + 1))
        links = {1: wide}
        links.update({10 + i: ((0, 1.0),) for i in range(oracle.MAX_FORWARDERS_PER_HOP + 1)})
        chain = oracle.ChainSpec(source=1, gateway=0, links=links)
        with pytest.raises(ValueError):
            oracle.exact_two_hop(chain)

    def test_dead_first_hop_rejected(self):
        # unlike the single-hop oracle, the path walk refuses to recurse
        # through a node that can never progress
        chain = oracle.ChainSpec(source=1, gateway=0, links={1: ((0, 0.0),)})
        with pytest.raises(ValueError):
            oracle.exact_two_hop(chain)


class TestBitLevelFrameOracle:
    FRAME = FrameParams(micro_frame_bits=8, preamble_frames=2, data_frame_bits=100)

    def test_reproducible(self):
        a = oracle.bit_level_frame_oracle(0.01, self.FRAME, 5000, seed=9)
        b = oracle.bit_level_frame_oracle(0.01, self.FRAME, 5000, seed=9)
        assert a == b

    def test_seed_changes_estimate(self):
        a = oracle.bit_level_frame_oracle(0.01, self.FRAME, 5000, seed=9)
        b = oracle.bit_level_frame_oracle(0.01, self.FRAME, 5000, seed=10)
        assert a != b

    def test_perfect_bits(self):
        est = oracle.bit_level_frame_oracle(0.0, self.FRAME, 2000, seed=1)
        assert est.preamble_miss == 0.0
        assert est.data_miss == 0.0
        assert est.joint_miss == 0.0

    def test_dead_bits(self):
        est = oracle.bit_level_frame_oracle(1.0, self.FRAME, 2000, seed=1)
        assert est.preamble_miss == 1.0
        assert est.data_miss == 1.0
        assert est.joint_miss == 1.0

    def test_joint_never_exceeds_factors(self):
        est = oracle.bit_level_frame_oracle(0.05, self.FRAME, 20000, seed=4)
        assert est.joint_miss <= est.preamble_miss + 1e-12
        assert est.joint_miss <= est.data_miss + 1e-12

    def test_trials_recorded(self):
        est = oracle.bit_level_frame_oracle(0.01, self.FRAME, 1234, seed=0)
        assert est.trials == 1234

    def test_decoded_matches_reception_law(self):
        t = topo.chain_topology([0.8])
        trials = 200_000
        est = oracle.bit_level_frame_oracle(t.ber(1, 0), t.frame, trials, seed=55)
        expect = analysis.reception_probability(t.ber(1, 0), t.frame, 1.0)
        se = math.sqrt(expect * (1.0 - expect) / trials)
        assert abs(est.decoded - expect) < 3.5 * se

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            oracle.bit_level_frame_oracle(0.01, self.FRAME, 0, seed=0)
