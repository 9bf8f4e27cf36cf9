"""The engine's trace: pinned bytes for fixed configs, and a well-formedness
property over small topologies and every simulator knob."""

import hashlib
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppsim import engine, topology as topo
from oppsim.engine import ProtocolMode, SimConfig
from oppsim.model import EventKind

from engine_cases import small_runs

RECEIVER, SENDER = ProtocolMode.RECEIVER_BASED, ProtocolMode.SENDER_PRIORITIZED
LOSSY = dict(source_ber=(0.005, 0.005), relay_ber=(0.005, 0.005))

# name -> (topology builder, SimConfig overrides); each runs 20 replications
# at seed 7
CASES = {
    "chain-1": (lambda: topo.chain_topology([1.0]), dict(mode=RECEIVER)),
    "star-receiver": (lambda: topo.star_topology(3, 0.6), dict(mode=RECEIVER, source=4)),
    "star-sender": (lambda: topo.star_topology(3, 0.6), dict(mode=SENDER, source=4)),
    "diamond-no-overhearing": (
        lambda: topo.diamond_topology(**LOSSY, intercandidate_ber=1.0),
        dict(mode=RECEIVER, source=3),
    ),
    "star-no-suppression": (
        lambda: topo.star_topology(3, 0.6), dict(mode=RECEIVER, source=4, suppression=False)
    ),
    "diamond-sender-one-slot": (
        lambda: topo.diamond_topology(**LOSSY), dict(mode=SENDER, source=3, election_slots=1)
    ),
    "chain-max-hops": (
        lambda: topo.chain_topology([1.0, 1.0, 1.0]), dict(mode=RECEIVER, source=3, max_hops=2)
    ),
    "star-max-hops": (
        lambda: topo.star_topology(3, 0.9), dict(mode=RECEIVER, source=4, max_hops=1)
    ),
    "gateway-source": (lambda: topo.star_topology(3, 0.6), dict(mode=RECEIVER, source=0)),
}

# sha256 of the canonical JSON below, recorded from the free-text traces
# that preceded the typed fields: "from=N" -> sender, "hops=N" -> hops,
# "slot=N" -> slot, "max-hops"/"window-closed" -> reason, "from=source" ->
# no sender, and "micro_frames=", "bits=", "winner=" dropped; the two
# max-hops cases were re-recorded when a copy dropped at the hop limit
# became traced at the slot that elected it
EXPECTED = {
    "chain-1": "6fde5d88704b708424b2c24831c4c4c8227fc37c0839ffcdd92a40a774ed0afb",
    "star-receiver": "c5920d85e0d19fa1803428a3751e7e6b150e385d9f8061da762e713a3fff7bd7",
    "star-sender": "e8da6cfe00406be39d4e3bb1968a17ffc0cc184bd0ad4ab0856678a2a672c025",
    "diamond-no-overhearing": "952cef005345341fc5da42e5e5a8b6864543c58307bc28cd9858693c3f19f06d",
    "star-no-suppression": "601b09c56fae9e0ef87599e04d4811ac7cc5e5db5e6619ca45d4e0f0518963f0",
    "diamond-sender-one-slot": "fe0727364810e4759a7ed550e6cb79940d10f7c41d6739baea192356c09d14ef",
    "chain-max-hops": "85d41f8462ee17ddf738de7e6742e59c9fc0bb2dc4b100e8f56c36177144ec9d",
    "star-max-hops": "2696e03c8a294d61e98487458a3acb8916abe3cb605084f8794ad044e1180a38",
    "gateway-source": "c7b681a3f39e020a54017e391a40aa75f8c66cf79ce959e41452c0f78b57fb57",
}


@lru_cache(maxsize=None)
def case_traces(name):
    build, overrides = CASES[name]
    t = build()
    cfg = SimConfig(seed=7, **overrides)
    return tuple(engine.simulate_delivery(t, cfg, i) for i in range(20))


def canonical(traces) -> bytes:
    rows = [
        [[e.time, e.kind.value, e.actor, e.sender, e.hops, e.slot, e.reason] for e in tr.events]
        for tr in traces
    ]
    return json.dumps(rows, separators=(",", ":")).encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name):
    assert hashlib.sha256(canonical(case_traces(name))).hexdigest() == EXPECTED[name]


def test_golden_cases_reach_every_event_shape():
    events = [e for name in CASES for tr in case_traces(name) for e in tr.events]
    assert {e.kind for e in events} == set(EventKind)
    assert {e.reason for e in events} == {None, "max-hops", "window-closed"}
    assert any(tr.duplicate_arrivals for tr in case_traces("diamond-no-overhearing"))
    assert all(tr.first_arrival_hops == 0 for tr in case_traces("gateway-source"))


def test_copy_dropped_at_the_hop_limit_is_traced_where_it_was_elected():
    # the chain's 2nd hop elects node 1 at max_hops, so the copy node 1
    # would forward is dropped at the electing slot, sent by node 2
    last = case_traces("chain-max-hops")[0].events[-1]
    assert (last.time, last.kind, last.actor, last.sender, last.reason) == (
        1, EventKind.SUPPRESS, 1, 2, "max-hops"
    )


def check_well_formed(trace, t, cfg):
    events = trace.events
    if trace.source == t.gateway:
        assert [(e.kind, e.sender, e.hops) for e in events] == [
            (EventKind.GATEWAY_ARRIVAL, None, 0)
        ]
        return
    assert [e.time for e in events] == sorted(e.time for e in events)

    # PREAMBLE/DATA pairs, one per slot: the slot's transmitter
    transmitter = {}
    for i, e in enumerate(events):
        if e.kind is EventKind.TRANSMIT_PREAMBLE:
            data = events[i + 1]
            assert (data.kind, data.time, data.actor) == (EventKind.TRANSMIT_DATA, e.time, e.actor)
            assert e.time not in transmitter
            transmitter[e.time] = e.actor
        elif e.kind is EventKind.TRANSMIT_DATA:
            assert events[i - 1].kind is EventKind.TRANSMIT_PREAMBLE

    for e in events:
        assert e.reason in (None, "max-hops", "window-closed")
        assert (e.reason is None) or e.kind is EventKind.SUPPRESS
        assert (e.hops is not None) == (e.kind in (EventKind.ELECT, EventKind.GATEWAY_ARRIVAL))
        assert (e.slot is not None) == (e.kind is EventKind.ELECT)
        if e.kind in (EventKind.TRANSMIT_PREAMBLE, EventKind.TRANSMIT_DATA):
            assert e.sender is None
        else:
            assert e.sender == transmitter.get(e.time)
        if e.kind is EventKind.GATEWAY_ARRIVAL:
            assert e.actor == t.gateway
        if e.kind is EventKind.ELECT:
            assert 0 <= e.slot < cfg.election_slots
            assert 1 <= e.hops <= cfg.max_hops


@settings(max_examples=150, deadline=None)
@given(run=small_runs(), replication=st.integers(min_value=0, max_value=1000))
def test_every_trace_is_well_formed(run, replication):
    t, cfg = run
    trace = engine.simulate_delivery(t, cfg, replication)
    check_well_formed(trace, t, cfg)
