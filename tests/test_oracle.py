import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppsim import analysis, oracle, topology as topo, verification
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


# probabilities at the edges of [0, 1] and below the normal range
EDGE_PROBS = st.sampled_from([0.0, 1.0, 5e-324, 2e-308, 1e-300, 0.1, 0.3, 0.5, 0.999999])
TIED_COSTS = st.sampled_from([0.0, 1e-9, 0.3, 1.0, 7.0])


@st.composite
def same_size_sets(draw):
    """Forwarder sets of one size, with few distinct costs, so ties are
    broken by node ids given in a shuffled order."""
    n = draw(st.integers(1, 6))
    sets = []
    for _ in range(draw(st.integers(1, 12))):
        nodes = draw(st.permutations(range(n)))
        probs = draw(st.lists(EDGE_PROBS | st.floats(0.0, 1.0), min_size=n, max_size=n))
        costs = draw(st.lists(TIED_COSTS, min_size=n, max_size=n))
        sets.append(ForwarderSet(tuple(map(ForwarderEntry, nodes, probs, costs))))
    return sets


class TestExactSingleHopBatch:
    @settings(max_examples=300, deadline=None)
    @given(sets=same_size_sets(), cells=st.sampled_from([1, 3, 8, 50, 1 << 16]))
    def test_equals_scalar_enumeration(self, sets, cells):
        # a small cell cap splits the sets and the outcomes into blocks
        with mock.patch.object(oracle, "_BATCH_CELLS", cells):
            expected_cost, overhead = oracle.exact_single_hop_batch(sets)
        assert expected_cost.shape == overhead.shape == (len(sets),)
        for fs, cost, over in zip(sets, expected_cost.tolist(), overhead.tolist()):
            exact = oracle.exact_single_hop(fs)
            assert (cost, over) == (exact.expected_cost, exact.overhead)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty forwarder set"):
            oracle.exact_single_hop_batch([ForwarderSet(())])

    def test_enumeration_bound(self):
        big = entries(*[(0.5, 1.0)] * (oracle.MAX_ENUMERATION_SIZE + 1))
        with pytest.raises(ValueError, match="size 21 exceeds enumeration bound 20"):
            oracle.exact_single_hop_batch([big])

    def test_mixed_sizes_rejected(self):
        # one array of sets takes one size; sizes 2, 1 and 3 hold as many
        # members as three sets of the first one's size
        for sizes in ((1, 2), (2, 1, 3)):
            with pytest.raises(ValueError, match="mixed sizes"):
                oracle.exact_single_hop_batch([entries(*[(0.5, 1.0)] * k) for k in sizes])

    def test_largest_set_in_outcome_blocks(self):
        # 2^20 outcomes in blocks of 2^16 cells, the elected mass carried over
        big = entries(*[(0.5, float(i)) for i in range(oracle.MAX_ENUMERATION_SIZE)])
        expected_cost, overhead = oracle.exact_single_hop_batch([big])
        p_none = 0.5**oracle.MAX_ENUMERATION_SIZE
        mass = sum(0.5 ** (i + 1) * i for i in range(oracle.MAX_ENUMERATION_SIZE))
        assert overhead[0] == pytest.approx(mass, rel=1e-12)
        assert expected_cost[0] == pytest.approx((1.0 + mass) / (1.0 - p_none), rel=1e-12)


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


def whole_chunk_oracle(p, frame, trials, seed):
    """The per-bit Monte Carlo as it drew before row blocks: every
    ``(chunk, bits)`` matrix in one call.  Returns the three miss counts."""
    rng = np.random.default_rng(seed)
    preamble = data = joint = 0
    remaining = trials
    while remaining > 0:
        chunk = min(remaining, oracle._MC_CHUNK)
        all_micro_failed = np.ones(chunk, dtype=bool)
        for _ in range(frame.preamble_frames):
            all_micro_failed &= (rng.random((chunk, frame.micro_frame_bits)) < p).any(axis=1)
        data_failed = (rng.random((chunk, frame.data_frame_bits)) < p).any(axis=1)
        preamble += int(all_micro_failed.sum())
        data += int(data_failed.sum())
        joint += int((all_micro_failed & data_failed).sum())
        remaining -= chunk
    return preamble, data, joint


@pytest.mark.parametrize("p", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("seed", [0, 3])
def test_row_blocks_draw_the_whole_chunk_stream(p, seed):
    frame = topo.DEFAULT_FRAME
    for trials in (1, 4095, 4097, 65536, 65537, 131073):
        preamble, data, joint = whole_chunk_oracle(p, frame, trials, seed)
        est = oracle.bit_level_frame_oracle(p, frame, trials, seed)
        assert est == oracle.FrameMissEstimates(preamble, data, joint, trials)
        assert (est.preamble_miss, est.data_miss, est.joint_miss, est.decoded) == (
            preamble / trials, data / trials, joint / trials, (trials - preamble - data + joint) / trials
        )


# frame widths on each side of the 8-byte words the per-bit test packs
# its rows into; each width is a micro-frame once and a data frame once
WIDTHS = (1, 7, 8, 9, 63, 64, 65, 100)


@pytest.mark.parametrize("p", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("micro_bits, data_bits", zip(WIDTHS, WIDTHS[::-1]))
def test_word_packed_test_draws_the_whole_chunk_stream(p, micro_bits, data_bits):
    for preamble_frames, trials in ((1, 1), (2, 511), (3, 512), (1, 513), (2, 1025), (3, 65537)):
        frame = FrameParams(micro_bits, preamble_frames, data_bits)
        expected = oracle.FrameMissEstimates(*whole_chunk_oracle(p, frame, trials, 11), trials)
        assert oracle.bit_level_frame_oracle(p, frame, trials, 11) == expected


def shard_counts(p, frame, trials, seed, shard):
    """The miss counts of ``trials`` trials summed over shards of ``shard``
    consecutive trials, each its own ``bit_level_frame_oracle`` call."""
    parts = [
        oracle.bit_level_frame_oracle(p, frame, min(shard, trials - first), seed, first, trials)
        for first in range(0, trials, shard)
    ]
    assert sum(part.trials for part in parts) == trials
    counts = ((part.preamble_misses, part.data_misses, part.joint_misses) for part in parts)
    return tuple(map(sum, zip(*counts))), oracle.FrameMissEstimates.pooled(parts)


# trial counts on the row-block and chunk edges; verify's shards stay inside
# a chunk, shards of 5,000 trials cross the chunk edges
@pytest.mark.parametrize("p", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("shard", [verification._MC_SHARD, 5_000])
def test_shards_add_up_to_the_serial_run(p, shard):
    frame = topo.DEFAULT_FRAME
    for trials in (1, 511, 513, 1023, 1024, 65535, 65536, 65537, 200_000):
        counts, pooled = shard_counts(p, frame, trials, 7, shard)
        assert counts == whole_chunk_oracle(p, frame, trials, 7)
        assert pooled == oracle.bit_level_frame_oracle(p, frame, trials, 7)


@pytest.mark.parametrize("first, trials, total", [(-1, 10, 20), (11, 10, 20), (0, 21, 20)])
def test_a_shard_outside_its_run_is_refused(first, trials, total):
    with pytest.raises(ValueError, match="not in a run of 20"):
        oracle.bit_level_frame_oracle(0.01, topo.DEFAULT_FRAME, trials, 0, first, total)
