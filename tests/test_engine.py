"""Packet-level simulator behavior.

Statistical assertions here use wide three-sigma nets on purpose: they
exist to catch implementation drift, not to re-verify the closed forms
(the acceptance suite owns those comparisons at fixed seeds).
"""

import math

import pytest

from oppsim import analysis, cli, engine, topology as topo
from oppsim.engine import ProtocolMode, SimConfig
from oppsim.model import Channel, ChannelModel, EventKind


def star(n=3, p=0.6, **kw):
    return topo.star_topology(n, p, **kw)


def costs_of(t):
    return analysis.network_path_costs(t)


class TestSimConfig:
    def test_rejects_bad_replications(self):
        with pytest.raises(ValueError):
            SimConfig(mode=ProtocolMode.RECEIVER_BASED, replications=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=-1)

    def test_rejects_bad_election_slots(self):
        with pytest.raises(ValueError):
            SimConfig(mode=ProtocolMode.RECEIVER_BASED, election_slots=0)


class TestReplicationSeed:
    def test_pure(self):
        assert engine.replication_seed(5, 9) == engine.replication_seed(5, 9)

    def test_indices_decorrelated(self):
        seeds = {engine.replication_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_nearby_masters_share_no_prefix(self):
        # adjacent master seeds must not replay each other's streams
        a = {engine.replication_seed(11, i) for i in range(1000)}
        b = {engine.replication_seed(12, i) for i in range(1000)}
        assert len(a & b) == 0

    def test_fits_in_64_bits(self):
        assert 0 <= engine.replication_seed(2**63, 2**20) < 2**64


class TestSimulateDelivery:
    def test_deterministic(self):
        t = star()
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=4)
        a = engine.simulate_delivery(t, costs_of(t), cfg, 17)
        b = engine.simulate_delivery(t, costs_of(t), cfg, 17)
        assert a == b

    def test_replication_index_varies_outcome(self):
        t = star()
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=4)
        c = costs_of(t)
        traces = {engine.simulate_delivery(t, c, cfg, i).delivered for i in range(200)}
        assert traces == {True, False}  # p_link=0.6 cubes to a real miss rate

    def test_gateway_source_is_trivially_delivered(self):
        t = star()
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=0)
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 0)
        assert trace.delivered
        assert trace.transmissions == 0
        assert trace.first_arrival_hops == 0

    def test_event_stream_shape(self):
        t = topo.chain_topology([1.0])
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=1)
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 0)
        kinds = [e.kind for e in trace.events]
        assert kinds == [
            EventKind.TRANSMIT_PREAMBLE,
            EventKind.TRANSMIT_DATA,
            EventKind.RECEIVE,
            EventKind.GATEWAY_ARRIVAL,
        ]
        assert trace.delivered and trace.transmissions == 1
        assert trace.first_arrival_hops == 1

    def test_event_times_monotone(self):
        t = star()
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=5, source=4)
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 2)
        times = [e.time for e in trace.events]
        assert times == sorted(times)

    def test_noisy_links_never_deliver_payload(self):
        # at BER 0.4 the preamble is occasionally detectable but a
        # 100-bit payload never decodes, so nothing can be forwarded
        t = topo.diamond_topology(source_ber=(0.4, 0.4), relay_ber=(0.4, 0.4))
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=1, source=3)
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 0)
        assert not trace.delivered
        assert trace.count(EventKind.RECEIVE) == 0

    def test_channel_miss_blocks_everything(self):
        channel = ChannelModel(channels=(Channel(1e-9, 0.5, 2e6),), noise_power=1e-9)
        t = topo.chain_topology([1.0], channel=channel)
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=1, source=1)
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 0)
        assert not trace.delivered

    def test_max_hops_stops_the_walk(self):
        t = topo.chain_topology([1.0, 1.0, 1.0])
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=3, max_hops=2)
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 0)
        assert not trace.delivered
        assert trace.transmissions <= 2

    def test_elected_forwarder_is_lowest_rank(self):
        t = star(2, 0.95)
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=2, source=3)
        c = costs_of(t)
        for i in range(50):
            trace = engine.simulate_delivery(t, c, cfg, i)
            elected = [e for e in trace.events if e.kind is EventKind.ELECT]
            receives = [e for e in trace.events if e.kind is EventKind.RECEIVE]
            if not elected:
                continue
            first = elected[0]
            heard = {e.actor for e in receives if e.sender == trace.source}
            best = min(heard, key=lambda n: (t.rank(n), n))
            assert first.actor == best

    def test_suppression_off_forces_duplicates(self):
        t = star(3, 0.9)
        on = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=6, source=4, suppression=True)
        off = SimConfig(
            mode=ProtocolMode.RECEIVER_BASED, seed=6, source=4, suppression=False
        )
        c = costs_of(t)
        dup_on = sum(
            engine.simulate_delivery(t, c, on, i).count(EventKind.DUPLICATE_FORWARD)
            for i in range(300)
        )
        dup_off = sum(
            engine.simulate_delivery(t, c, off, i).count(EventKind.DUPLICATE_FORWARD)
            for i in range(300)
        )
        assert dup_on == 0  # perfect overhearing between relays
        assert dup_off > 0

    def test_suppression_flag_ignored_by_sender_mode(self):
        t = star(3, 0.9)
        c = costs_of(t)
        kw = dict(mode=ProtocolMode.SENDER_PRIORITIZED, seed=6, source=4)
        for i in range(100):
            a = engine.simulate_delivery(t, c, SimConfig(suppression=True, **kw), i)
            b = engine.simulate_delivery(t, c, SimConfig(suppression=False, **kw), i)
            assert a == b

    def test_broken_overhearing_duplicates_reach_gateway(self):
        # candidates that cannot hear each other both forward; the trace
        # must record the duplicate arrival rather than double-count it
        t = topo.diamond_topology(source_ber=(0.0, 0.0), relay_ber=(0.0, 0.0),
                                  intercandidate_ber=1.0)
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=9, source=3)
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 0)
        assert trace.delivered
        assert trace.count(EventKind.DUPLICATE_FORWARD) == 1
        assert trace.duplicate_arrivals == 1

    def test_election_window_close_drops_copy(self):
        t = topo.diamond_topology(source_ber=(0.0, 0.0), relay_ber=(0.0, 0.0))
        cfg = SimConfig(
            mode=ProtocolMode.RECEIVER_BASED, seed=9, source=3, election_slots=1
        )
        # both relays always hear; slot 1 is past the window in sender
        # ordering only when the second candidate would win, so in
        # receiver mode the winner at slot 0 always proceeds
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 0)
        assert trace.delivered

    def test_modes_elect_identical_winners(self):
        t = star(4, 0.7)
        c = costs_of(t)
        for i in range(150):
            r = engine.simulate_delivery(
                t, c, SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=8, source=5), i
            )
            s = engine.simulate_delivery(
                t, c, SimConfig(mode=ProtocolMode.SENDER_PRIORITIZED, seed=8, source=5), i
            )
            r_elect = [(e.actor, e.sender, e.hops) for e in r.events if e.kind is EventKind.ELECT]
            s_elect = [(e.actor, e.sender, e.hops) for e in s.events if e.kind is EventKind.ELECT]
            # slots may differ between orderings; the winners may not
            assert r_elect == s_elect
            assert r.delivered == s.delivered


class TestRunExperiment:
    def test_metrics_are_internally_consistent(self):
        t = star()
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, replications=500, seed=21, source=4)
        m = engine.run_experiment(t, cfg)
        assert m.deliveries_attempted == 500
        assert m.pdr == m.deliveries_succeeded / 500
        assert m.mean_transmissions >= m.pdr  # delivery needs at least one

    def test_uniform_source_draw_covers_nodes(self):
        t = topo.chain_topology([1.0, 1.0, 1.0])
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, replications=400, seed=13)
        c = costs_of(t)
        sources = {
            engine.simulate_delivery(t, c, cfg, i).source for i in range(400)
        }
        assert sources == {1, 2, 3}

    def test_star_pdr_tracks_analytic_reachability(self):
        # delivery happens iff at least one relay hears the source
        p, n, reps = 0.6, 3, 4000
        t = star(n, p)
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, replications=reps, seed=31, source=n + 1)
        m = engine.run_experiment(t, cfg)
        expect = 1.0 - (1.0 - p) ** n
        se = math.sqrt(expect * (1.0 - expect) / reps)
        assert abs(m.pdr - expect) < 3.5 * se

    def test_empirical_overhead_is_winner_cost_sum(self):
        # every metric equals its recomputation from the traces, exactly:
        # the overhead adds winner costs in event order, as run_experiment does
        lossy = dict(source_ber=(0.005, 0.005), relay_ber=(0.005, 0.005))
        # four hops of non-integer costs: the float sum depends on its order
        mesh = topo.generate(
            topo.GeneratorConfig(nodes=20, area_side=100.0, radio_range=30.0,
                                 ber_model=topo.FixedBer(0.002)),
            seed=1,
        )
        # (topology, sim overrides, whether duplicates and repeat arrivals occur)
        cases = [
            (mesh, {"source": topo.deepest_node(mesh)}, False),
            (star(2, 0.8), {}, False),
            (star(3, 0.6, intercandidate_ber=1.0), {}, True),
            (star(3, 0.6), {"suppression": False}, True),
            (topo.diamond_topology(**lossy, intercandidate_ber=1.0), {}, True),
            (topo.diamond_topology(**lossy), {"suppression": False}, True),
        ]
        for t, kw, duplicates in cases:
            cfg = SimConfig(**{"mode": ProtocolMode.RECEIVER_BASED, "replications": 300,
                               "seed": 5, "source": t.nodes[-1].id, **kw})
            c = costs_of(t)
            traces = [engine.simulate_delivery(t, c, cfg, i) for i in range(300)]
            total = 0.0
            for trace in traces:
                for e in trace.events:
                    if e.kind is EventKind.ELECT:
                        total += c[e.actor]
            delivered = [tr for tr in traces if tr.delivered]
            forwards = sum(tr.count(EventKind.DUPLICATE_FORWARD) for tr in traces)
            assert (forwards > 0) == (sum(tr.duplicate_arrivals for tr in traces) > 0) == duplicates
            m = engine.run_experiment(t, cfg)
            assert m.deliveries_succeeded == len(delivered)
            assert m.pdr == len(delivered) / 300
            assert m.empirical_coordination_overhead == total / 300
            assert m.mean_duplicates == forwards / 300
            assert m.mean_transmissions == sum(tr.transmissions for tr in traces) / 300
            assert m.mean_hops == sum(tr.first_arrival_hops for tr in delivered) / len(delivered)

    def test_mean_hops_zero_without_successes(self):
        t = topo.diamond_topology(source_ber=(0.4, 0.4), relay_ber=(0.4, 0.4))
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, replications=50, seed=2, source=3)
        m = engine.run_experiment(t, cfg)
        assert m.pdr == 0.0
        assert m.mean_hops == 0.0

    def test_same_seed_modes_pair_exactly(self):
        t = star(3, 0.6)
        kw = dict(replications=2000, seed=77, source=4)
        mr = engine.run_experiment(t, SimConfig(mode=ProtocolMode.RECEIVER_BASED, **kw))
        ms = engine.run_experiment(t, SimConfig(mode=ProtocolMode.SENDER_PRIORITIZED, **kw))
        assert mr.pdr == ms.pdr
        assert mr.mean_transmissions == ms.mean_transmissions


class TestHelpers:
    def test_first_arrival_hops_none_without_delivery(self):
        t = topo.diamond_topology(source_ber=(0.4, 0.4), relay_ber=(0.4, 0.4))
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=2, source=3)
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 0)
        assert trace.first_arrival_hops is None

    def test_energy_bits_counts_data_transmissions(self):
        t = topo.chain_topology([1.0, 1.0])
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=2, source=2)
        trace = engine.simulate_delivery(t, costs_of(t), cfg, 0)
        assert trace.transmissions == 2
        out = cli.cmd_simulate(
            {
                "topology": {"kind": "chain", "link_success": [1.0, 1.0]},
                "sim": {"mode": "receiver_based", "seed": 2, "source": 2, "replications": 1},
            }
        )
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        row = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert float(row["mean_energy_bits"]) == 2 * t.frame.bits_per_transmission
