"""Packet-level simulator behavior.

Statistical assertions here use wide three-sigma nets on purpose: they
exist to catch implementation drift, not to re-verify the closed forms
(the acceptance suite owns those comparisons at fixed seeds).
"""

import functools
import math
import os
import pickle
import select
from dataclasses import replace
from functools import partial

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oppsim import analysis, cli, engine, oracle, topology as topo, verification
from oppsim.engine import ProtocolMode, SimConfig, run_experiment
from oppsim.model import Channel, ChannelModel, EventKind, Metrics
from oppsim.oracle import bit_level_frame_oracle

from engine_cases import small_runs, without_cross_links
from test_golden import CONFIGS as GOLDEN_CONFIGS


def star(n=3, p=0.6, **kw):
    return topo.star_topology(n, p, **kw)


def costs_of(t):
    return analysis.network_path_costs(t)


def metrics_from_traces(traces, costs):
    """Every Metrics field recomputed from the traces of replications
    0..n-1; the overhead adds ELECT costs in event order, as
    run_experiment does."""
    n = len(traces)
    delivered = [tr for tr in traces if tr.delivered]
    overhead = 0.0
    for trace in traces:
        for e in trace.events:
            if e.kind is EventKind.ELECT:
                overhead += costs[e.actor]
    return Metrics(
        deliveries_attempted=n,
        deliveries_succeeded=len(delivered),
        mean_duplicates=sum(tr.count(EventKind.DUPLICATE_FORWARD) for tr in traces) / n,
        empirical_coordination_overhead=overhead / n,
        mean_transmissions=sum(tr.transmissions for tr in traces) / n,
        mean_hops=(
            sum(tr.first_arrival_hops for tr in delivered) / len(delivered) if delivered else 0.0
        ),
    )


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

    def test_seed_past_64_bits_is_refused(self):
        # the mix takes the seed modulo 2**64: 2**64 would rerun seed 0's run
        SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=2**64 - 1)
        with pytest.raises(ValueError, match=r"^seed must be at most 18446744073709551615$"):
            SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=2**64)


class TestSimulateDelivery:
    def test_deterministic(self):
        t = star()
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=4)
        a = engine.simulate_delivery(t, cfg, 17)
        b = engine.simulate_delivery(t, cfg, 17)
        assert a == b

    def test_replication_index_varies_outcome(self):
        t = star()
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=4)
        traces = {engine.simulate_delivery(t, cfg, i).delivered for i in range(200)}
        assert traces == {True, False}  # p_link=0.6 cubes to a real miss rate

    def test_gateway_source_is_trivially_delivered(self):
        t = star()
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=0)
        trace = engine.simulate_delivery(t, cfg, 0)
        assert trace.delivered
        assert trace.transmissions == 0
        assert trace.first_arrival_hops == 0

    def test_event_stream_shape(self):
        t = topo.chain_topology([1.0])
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=1)
        trace = engine.simulate_delivery(t, cfg, 0)
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
        trace = engine.simulate_delivery(t, cfg, 2)
        times = [e.time for e in trace.events]
        assert times == sorted(times)

    def test_noisy_links_never_deliver_payload(self):
        # at BER 0.4 the preamble is occasionally detectable but a
        # 100-bit payload never decodes, so nothing can be forwarded
        t = topo.diamond_topology(source_ber=(0.4, 0.4), relay_ber=(0.4, 0.4))
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=1, source=3)
        trace = engine.simulate_delivery(t, cfg, 0)
        assert not trace.delivered
        assert trace.count(EventKind.RECEIVE) == 0

    def test_channel_miss_blocks_everything(self):
        channel = ChannelModel(channels=(Channel(1e-9, 0.5, 2e6),), noise_power=1e-9)
        t = topo.chain_topology([1.0], channel=channel)
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=1, source=1)
        trace = engine.simulate_delivery(t, cfg, 0)
        assert not trace.delivered

    def test_max_hops_stops_the_walk(self):
        t = topo.chain_topology([1.0, 1.0, 1.0])
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=3, source=3, max_hops=2)
        trace = engine.simulate_delivery(t, cfg, 0)
        assert not trace.delivered
        assert trace.transmissions <= 2

    def test_elected_forwarder_is_lowest_rank(self):
        t = star(2, 0.95)
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=2, source=3)
        for i in range(50):
            trace = engine.simulate_delivery(t, cfg, i)
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
        dup_on = sum(
            engine.simulate_delivery(t, on, i).count(EventKind.DUPLICATE_FORWARD)
            for i in range(300)
        )
        dup_off = sum(
            engine.simulate_delivery(t, off, i).count(EventKind.DUPLICATE_FORWARD)
            for i in range(300)
        )
        assert dup_on == 0  # perfect overhearing between relays
        assert dup_off > 0

    def test_suppression_flag_ignored_by_sender_mode(self):
        t = star(3, 0.9)
        kw = dict(mode=ProtocolMode.SENDER_PRIORITIZED, seed=6, source=4)
        for i in range(100):
            a = engine.simulate_delivery(t, SimConfig(suppression=True, **kw), i)
            b = engine.simulate_delivery(t, SimConfig(suppression=False, **kw), i)
            assert a == b

    def test_broken_overhearing_duplicates_reach_gateway(self):
        # candidates that cannot hear each other both forward; the trace
        # must record the duplicate arrival rather than double-count it
        t = topo.diamond_topology(source_ber=(0.0, 0.0), relay_ber=(0.0, 0.0),
                                  intercandidate_ber=1.0)
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=9, source=3)
        trace = engine.simulate_delivery(t, cfg, 0)
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
        trace = engine.simulate_delivery(t, cfg, 0)
        assert trace.delivered

    def test_modes_elect_identical_winners(self):
        t = star(4, 0.7)
        for i in range(150):
            r = engine.simulate_delivery(
                t, SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=8, source=5), i
            )
            s = engine.simulate_delivery(
                t, SimConfig(mode=ProtocolMode.SENDER_PRIORITIZED, seed=8, source=5), i
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
        sources = {
            engine.simulate_delivery(t, cfg, i).source for i in range(400)
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
            # relays with no link to each other: the loser always duplicates
            (without_cross_links(topo.diamond_topology(**lossy)), {}, True),
        ]
        for t, kw, duplicates in cases:
            cfg = SimConfig(**{"mode": ProtocolMode.RECEIVER_BASED, "replications": 300,
                               "seed": 5, "source": t.nodes[-1].id, **kw})
            c = costs_of(t)
            traces = [engine.simulate_delivery(t, cfg, i) for i in range(300)]
            forwards = sum(tr.count(EventKind.DUPLICATE_FORWARD) for tr in traces)
            assert (forwards > 0) == (sum(tr.duplicate_arrivals for tr in traces) > 0) == duplicates
            assert engine.run_experiment(t, cfg) == metrics_from_traces(traces, c)

    @settings(max_examples=150, deadline=None)
    @given(run=small_runs(), replications=st.integers(min_value=1, max_value=30))
    def test_metrics_equal_their_recomputation_from_traces(self, run, replications):
        # the trace-free path and the traced path run one kernel; every
        # tally must agree with the events exactly, on every knob
        t, cfg = run
        cfg = replace(cfg, replications=replications)
        c = costs_of(t)
        traces = [engine.simulate_delivery(t, cfg, i) for i in range(replications)]
        assert engine.run_experiment(t, cfg) == metrics_from_traces(traces, c)

    def test_builds_no_trace(self, monkeypatch):
        mesh = topo.generate(
            topo.GeneratorConfig(nodes=20, area_side=100.0, radio_range=30.0,
                                 ber_model=topo.FixedBer(0.005)),
            seed=1,
        )
        # (topology, sim overrides): together they reach every event kind,
        # both suppression reasons and the gateway source
        cases = [
            (star(3, 0.6), {"source": 4, "max_hops": 1, "election_slots": 2}),
            (mesh, {"election_slots": 2, "suppression": False}),
            (star(), {"source": 0}),
        ]
        runs = [
            (t, SimConfig(**{"mode": mode, "replications": 200, "seed": 3, **kw}))
            for t, kw in cases
            for mode in ProtocolMode
        ]
        events = [
            e
            for t, cfg in runs
            for i in range(cfg.replications)
            for e in engine.simulate_delivery(t, cfg, i).events
        ]
        assert {e.kind for e in events} == set(EventKind)
        assert {e.reason for e in events} == {None, "max-hops", "window-closed"}

        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment built a trace")

        monkeypatch.setattr(engine, "TraceEvent", refuse)
        monkeypatch.setattr(engine, "DeliveryTrace", refuse)
        for t, cfg in runs:
            engine.run_experiment(t, cfg)

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


CORES = engine._cores()


def parallel_jobs():
    """Star, diamond and a small generated graph, each in both modes."""
    mesh = topo.generate(
        topo.GeneratorConfig(nodes=12, area_side=60.0, radio_range=30.0,
                             ber_model=topo.FixedBer(0.002)),
        seed=3,
    )
    topologies = [star(), topo.diamond_topology(relay_ber=(0.01, 0.02)), mesh]
    return [
        (t, SimConfig(mode=mode, replications=150, seed=5 + i))
        for i, t in enumerate(topologies)
        for mode in ProtocolMode
    ]


def outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def refuse_to_fork():
    raise AssertionError("forked")


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def runs(jobs):
    """``run_experiment`` jobs as ``run_jobs`` takes them."""
    return [partial(engine.run_experiment, t, c) for t, c in jobs]


def lambda_stand_in(func):
    """A test's stand-in for ``func`` and the list of its calls."""
    calls = []
    return (lambda *args: calls.append(args) or func(*args)), calls


def wraps_stand_in(func):
    """A tracer's stand-in for ``func`` and the list of its calls:
    ``functools.wraps`` copies ``__module__``, ``__qualname__`` and
    ``__wrapped__``, so only its code tells it from the package's own."""
    calls = []

    @functools.wraps(func)
    def wrapper(*args):
        calls.append(args)
        return func(*args)

    return wrapper, calls


def double(x):
    return 2 * x


def double_inverse(x):
    return 2 / x


@pytest.mark.usefixtures("no_child_left")
class TestRunExperiments:
    """``run_jobs`` of ``run_experiment`` jobs returns the serial list on any
    number of cores, raises what the serial loop raises, and reaps every
    child."""

    @pytest.mark.parametrize("cores", range(1, CORES + 1))
    def test_equals_the_serial_list(self, monkeypatch, cores):
        jobs = parallel_jobs()
        serial = [engine.run_experiment(t, c) for t, c in jobs]
        monkeypatch.setattr(engine, "_cores", lambda: cores)
        assert engine.run_jobs(runs(jobs)) == serial
        assert engine.run_jobs(iter(runs(jobs))) == serial
        assert engine.run_jobs(runs(jobs[:1])) == serial[:1]
        assert engine.run_jobs([]) == []

    # whichever process claims a bad job, the serial error is raised; two
    # bad jobs raise the earlier one's error
    @pytest.mark.parametrize("bad", [(0,), (1,), (1, 2), (2, 3), (3, 4)])
    def test_a_failing_job_raises_the_serial_error(self, monkeypatch, bad):
        jobs = parallel_jobs()
        for n, i in enumerate(bad):
            t, c = jobs[i]
            jobs[i] = (t, replace(c, source=f"missing-{n}"))
        serial = outcome(lambda: [engine.run_experiment(t, c) for t, c in jobs])
        assert serial == (ValueError, "unknown node id: 'missing-0'")
        for cores in range(1, CORES + 1):
            monkeypatch.setattr(engine, "_cores", lambda: cores)
            assert outcome(lambda: engine.run_jobs(runs(jobs))) == serial

    @pytest.mark.skipif(CORES < 2, reason="needs a second core for a child")
    def test_a_child_that_dies_is_an_error(self, monkeypatch):
        monkeypatch.setattr(engine, "_child", lambda *args: os._exit(3))
        with pytest.raises(ChildProcessError, match="exited without its results"):
            engine.run_jobs(runs(parallel_jobs()))

    # a child that claims a job and leaves without its result, or sends back
    # no result for it, fails the call instead of leaving a hole in the list;
    # this process claims only once the child has its job
    @pytest.mark.skipif(CORES < 2, reason="needs a second core for a child")
    @pytest.mark.parametrize("send, error", [
        (False, "exited without its results"),
        (True, "job 0 was claimed but sent back no result"),
    ])
    def test_a_child_that_drops_a_claimed_job_is_an_error(self, monkeypatch, send, error):
        claimed = engine._claimed
        ready, claimed_one = os.pipe()

        def claim_one(jobs, claims, out):
            try:
                next(claimed(claims))
                os.write(claimed_one, b"x")
                if send:
                    pickle.dump([], out)
                    out.flush()
            finally:
                os._exit(0 if send else 3)

        def claimed_after_the_child(claims):
            assert select.select([ready], [], [], 30)[0]
            return claimed(claims)

        monkeypatch.setattr(engine, "_cores", lambda: 2)
        monkeypatch.setattr(engine, "_child", claim_one)
        monkeypatch.setattr(engine, "_claimed", claimed_after_the_child)
        try:
            with pytest.raises(ChildProcessError, match=error):
                engine.run_jobs(runs(parallel_jobs()))
        finally:
            os.close(ready)
            os.close(claimed_one)

    # more jobs than claims fit in a pipe: one claim stands for a range; a
    # claim lost or left unanswered by any of 4 processes fails the call
    def test_more_jobs_than_claims(self, monkeypatch):
        jobs = [partial(engine.replication_seed, 0, i) for i in range(20_000)]
        serial = [job() for job in jobs]
        for cores in (1, 2, 4):
            monkeypatch.setattr(engine, "_cores", lambda: cores)
            assert engine.run_jobs(jobs) == serial

    def test_one_core_forks_nothing(self, monkeypatch):
        jobs = parallel_jobs()
        serial = [engine.run_experiment(t, c) for t, c in jobs]
        monkeypatch.setattr(engine, "_cores", lambda: 1)
        monkeypatch.setattr(os, "fork", refuse_to_fork)
        assert engine.run_jobs(runs(jobs)) == serial

    # a tracer that wraps run_experiment records its calls in this process
    # only, so every job must run here, whatever the stand-in is called
    def test_a_replaced_run_experiment_sees_every_job_here(self, monkeypatch):
        jobs = parallel_jobs()
        serial = [engine.run_experiment(t, c) for t, c in jobs]
        monkeypatch.setattr(engine, "_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", refuse_to_fork)
        for stand_in in (lambda_stand_in, wraps_stand_in):
            wrapper, calls = stand_in(run_experiment)
            monkeypatch.setattr(engine, "run_experiment", wrapper)
            assert engine.run_jobs(runs(jobs)) == serial
            assert len(calls) == len(jobs)

    def test_jobs_of_other_code_stay_here(self, monkeypatch):
        monkeypatch.setattr(engine, "_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", refuse_to_fork)
        assert engine.run_jobs(partial(double, x) for x in range(5)) == [0, 2, 4, 6, 8]

    # on one core every job still runs before the earliest error is raised
    def test_one_core_runs_every_job_then_raises(self, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "_cores", lambda: 1)
        monkeypatch.setattr(os, "fork", refuse_to_fork)
        with pytest.raises(ZeroDivisionError):
            engine.run_jobs([partial(double_inverse, 0), partial(calls.append, 1)])
        assert calls == [1]


@pytest.mark.usefixtures("no_child_left")
class TestRunVerification:
    """``run_verification`` hands ``run_jobs`` its grid and the shards of
    its per-bit Monte Carlo, which the cores claim: the report and the
    error are the serial ones on any number of cores, and every child is
    reaped."""

    GRID = "sizes=1-3;probs=0,0.5,1;costs=0,1"

    def run(self, monkeypatch, cores, **kw):
        monkeypatch.setattr(engine, "_cores", lambda: cores)
        args = {"grid": self.GRID, "trials": 20_000, "seed": 5, **kw}
        return outcome(lambda: verification.run_verification(**args))

    @pytest.mark.parametrize("cores", range(1, CORES + 1))
    def test_equals_the_serial_report(self, monkeypatch, cores):
        serial = self.run(monkeypatch, 1)
        assert serial[1] == 0 and serial[0].count("status=pass") == 3
        assert self.run(monkeypatch, cores) == serial
        serial = self.run(monkeypatch, 1, grid=None, seed=2)
        assert self.run(monkeypatch, cores, grid=None, seed=2) == serial

    # whichever process claims the grid or a shard, a bad grid value still
    # wins over a Monte Carlo error, as in the serial run; fewer than one
    # trial is still one shard, which refuses it
    @pytest.mark.parametrize("kw, error", [
        ({"grid": "probs=1.5"}, "p_link must be a probability in [0, 1], got 1.5"),
        ({"seed": -1}, "expected non-negative integer"),
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"grid": "probs=1.5", "seed": -1}, "p_link must be a probability in [0, 1], got 1.5"),
        ({"trials": -3}, "trials must be >= 1, got -3"),
    ])
    def test_a_failing_job_raises_the_serial_error(self, monkeypatch, kw, error):
        assert self.run(monkeypatch, 1, **kw) == (ValueError, error)
        for cores in range(2, CORES + 1):
            assert self.run(monkeypatch, cores, **kw) == (ValueError, error)

    def test_a_child_that_dies_is_an_error(self, monkeypatch):
        monkeypatch.setattr(engine, "_child", lambda *args: os._exit(3))
        assert self.run(monkeypatch, 2)[0] is ChildProcessError

    def test_one_core_forks_nothing(self, monkeypatch):
        serial = self.run(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", refuse_to_fork)
        assert self.run(monkeypatch, 1) == serial

    # a tracer that wraps the Monte Carlo records its calls in this process
    # only, so they must run here, whatever the stand-in is called: one call
    # per shard, the 20,000 trials as 16,384 and 3,616
    def test_a_replaced_oracle_sees_its_call_here(self, monkeypatch):
        serial = self.run(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", refuse_to_fork)
        for stand_in in (lambda_stand_in, wraps_stand_in):
            wrapper, calls = stand_in(bit_level_frame_oracle)
            monkeypatch.setattr(oracle, "bit_level_frame_oracle", wrapper)
            assert self.run(monkeypatch, 2) == serial
            assert [args[2:] for args in calls] == [(16_384, 5, 0, 20_000), (3_616, 5, 16_384, 20_000)]


class TestHelpers:
    def test_first_arrival_hops_none_without_delivery(self):
        t = topo.diamond_topology(source_ber=(0.4, 0.4), relay_ber=(0.4, 0.4))
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=2, source=3)
        trace = engine.simulate_delivery(t, cfg, 0)
        assert trace.first_arrival_hops is None

    def test_energy_bits_counts_data_transmissions(self):
        t = topo.chain_topology([1.0, 1.0])
        cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=2, source=2)
        trace = engine.simulate_delivery(t, cfg, 0)
        assert trace.transmissions == 2
        out = cli.cmd_simulate(
            cli.read_spec({
                "topology": {"kind": "chain", "link_success": [1.0, 1.0]},
                "sim": {"mode": "receiver_based", "seed": 2, "source": 2, "replications": 1},
            })
        )
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        row = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert float(row["mean_energy_bits"]) == 2 * t.frame.bits_per_transmission


@pytest.mark.parametrize("ber", [0.0, 1e-13, 1e-12, 1e-11, 1e-9, 1e-4, 0.01, 0.5])
def test_decode_laws_equal_the_closed_forms_exactly(ber):
    # one survival law for both: the engine's reception and suppression
    # laws equal the closed forms to the last bit, also where n * p < 1e-8
    t = replace(topo.chain_topology([1.0]), links={(0, 1): ber, (1, 0): ber})
    micro_p, data_p = engine._overhearing_probs(t.links, t.frame, 1, 0)
    r = t.frame.preamble_frames
    p_sw = t.channel.evaluated.p_sw
    reception = p_sw * (1.0 - (1.0 - micro_p) ** r) * data_p
    suppression = p_sw * (1.0 - micro_p) ** r * (1.0 - data_p)
    assert reception == analysis.reception_probability(ber, t.frame, p_sw)
    assert suppression == analysis.failure_probability(ber, t.frame, p_sw)


@functools.cache
def benchmark_mesh():
    """The 1000-node mesh the benchmark's mesh-simulate workload runs."""
    config = topo.GeneratorConfig(nodes=1000, area_side=100.0, radio_range=8.0,
                                  ber_model=topo.DistanceBer(0.0, 0.005))
    return topo.generate(config, seed=1)


PLAN_TOPOLOGIES = {
    "mesh": benchmark_mesh,
    "star": lambda: star(4, 0.7, intercandidate_ber=0.01),
    "diamond": lambda: topo.diamond_topology((0.02, 0.03), (0.01, 0.005), intercandidate_ber=0.02),
    "chain": lambda: topo.chain_topology([0.9, 0.8, 0.95]),
}


def reference_decode(t, a, b):
    p = t.ber(a, b)
    return (analysis._survival_power(p, t.frame.micro_frame_bits),
            analysis._survival_power(p, t.frame.data_frame_bits))


@pytest.mark.parametrize("mode", list(ProtocolMode))
@pytest.mark.parametrize("shape", PLAN_TOPOLOGIES)
def test_plan_tables_equal_the_topology_reference(shape, mode):
    # the kernel's tables read the topology's own tables directly; the
    # reference reads them through the topology's accessors
    t = PLAN_TOPOLOGIES[shape]()
    if mode is ProtocolMode.RECEIVER_BASED:
        key = lambda c: (t.rank(c), c)
    else:
        key = lambda c: (t.costs[c], c)
    decode = t.costs.decode
    for n in t.nodes:
        upstream = t.upstream_neighbors(n.id)
        # the cost solve returned each upstream link's decode pair with the
        # cost table, flat and in upstream order, equal to the overhearing
        # law to the bit
        assert [x.hex() for x in decode[n.id]] == [
            x.hex() for c in upstream for x in engine._overhearing_probs(t.links, t.frame, n.id, c)
        ]
        order = sorted(upstream, key=key)
        assert engine._upstream_candidates(t._upstream, decode, key, n.id) == tuple(
            (c, *reference_decode(t, n.id, c), order.index(c)) for c in upstream
        )
        # the kernel asks how each co-candidate of an election overhears the
        # winner, so every ordered pair of one node's upstream candidates
        for u in upstream:
            for obs in upstream:
                if obs != u:
                    expected = reference_decode(t, u, obs) if t.has_link(obs, u) else None
                    assert engine._overhearing_probs(t.links, t.frame, u, obs) == expected


@pytest.mark.parametrize("shape", PLAN_TOPOLOGIES)
def test_cost_solve_leaves_its_argument_as_it_was(shape):
    # the solve returns the decode pairs with its table instead of writing
    # them onto the topology; the topology's own lazily derived tables
    # (filled here first) are all it may touch
    built = PLAN_TOPOLOGIES[shape]()
    t = replace(built)
    t.non_gateway_ids(), t.upstream_neighbors(t.gateway), t.node(t.gateway)
    before = dict(vars(t))
    solved = analysis.network_path_costs(t)
    assert vars(t) == before
    assert solved == built.costs
    assert {n: [x.hex() for x in pairs] for n, pairs in solved.decode.items()} == {
        n: [x.hex() for x in pairs] for n, pairs in built.costs.decode.items()
    }


def branches_run():
    """The ``branches`` golden's generated graph and sim knobs."""
    spec = cli.read_spec(yaml.safe_load(GOLDEN_CONFIGS["branches"]))
    return spec.build(), spec.sim


def deep_mesh_run():
    """A 20-node mesh run from its deepest node: four hops of non-integer
    costs, so the overhead's float sum depends on its order."""
    config = topo.GeneratorConfig(nodes=20, area_side=100.0, radio_range=30.0, ber_model=topo.FixedBer(0.002))
    mesh = topo.generate(config, seed=1)
    return mesh, SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=5, source=topo.deepest_node(mesh))


TALLY_RUNS = {
    "star": lambda: (star(6, 0.7, intercandidate_ber=0.01), SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=4)),
    "diamond": lambda: (topo.diamond_topology(), SimConfig(mode=ProtocolMode.RECEIVER_BASED, seed=4)),
    "branches": branches_run,
    "mesh": deep_mesh_run,
    "gateway-source": lambda: (star(), SimConfig(mode=ProtocolMode.RECEIVER_BASED, source=0)),
}


@pytest.mark.parametrize("mode", list(ProtocolMode))
@pytest.mark.parametrize("shape", TALLY_RUNS)
def test_kernel_tallies_step_by_each_replications_trace(shape, mode):
    # the kernel yields running totals: consecutive yields differ by one
    # replication's counts, and the overhead adds the winners' costs in the
    # order the traces elect them
    t, cfg = TALLY_RUNS[shape]()
    cfg = replace(cfg, mode=mode)
    yields = list(engine._deliver(t, cfg, range(300), None))
    overhead = 0.0
    for i, (before, after) in enumerate(zip([(None, 0, 0, 0, 0, 0.0), *yields], yields)):
        trace = engine.simulate_delivery(t, cfg, i)
        steps = [now - then for now, then in zip(after[1:5], before[1:5])]
        assert [after[0], *steps] == [trace.source, trace.transmissions, trace.count(EventKind.DUPLICATE_FORWARD),
                                      int(trace.delivered), trace.first_arrival_hops or 0]
        for e in trace.events:
            if e.kind is EventKind.ELECT:
                overhead += t.costs[e.actor]
    assert yields[-1][5] == overhead
