"""The engine's trace: pinned bytes for fixed configs, and a well-formedness
property over small topologies and every simulator knob."""

import hashlib
import json
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oppsim import analysis, engine, topology as topo
from oppsim.engine import ProtocolMode, SimConfig
from oppsim.model import EventKind

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
# no sender, and "micro_frames=", "bits=", "winner=" dropped
EXPECTED = {
    "chain-1": "6fde5d88704b708424b2c24831c4c4c8227fc37c0839ffcdd92a40a774ed0afb",
    "star-receiver": "c5920d85e0d19fa1803428a3751e7e6b150e385d9f8061da762e713a3fff7bd7",
    "star-sender": "e8da6cfe00406be39d4e3bb1968a17ffc0cc184bd0ad4ab0856678a2a672c025",
    "diamond-no-overhearing": "952cef005345341fc5da42e5e5a8b6864543c58307bc28cd9858693c3f19f06d",
    "star-no-suppression": "601b09c56fae9e0ef87599e04d4811ac7cc5e5db5e6619ca45d4e0f0518963f0",
    "diamond-sender-one-slot": "fe0727364810e4759a7ed550e6cb79940d10f7c41d6739baea192356c09d14ef",
    "chain-max-hops": "6abe02fad47aa9e22f6f93188bf90cbc48bf6b9bc15a73258b65b4ca4654eebb",
    "star-max-hops": "f319a66dc7b4e2fc65ccb25639eeaccf28eafc830e6ef832705da83f3a5a2f28",
    "gateway-source": "c7b681a3f39e020a54017e391a40aa75f8c66cf79ce959e41452c0f78b57fb57",
}


@lru_cache(maxsize=None)
def case_traces(name):
    build, overrides = CASES[name]
    t = build()
    costs = analysis.network_path_costs(t)
    cfg = SimConfig(seed=7, **overrides)
    return tuple(engine.simulate_delivery(t, costs, cfg, i) for i in range(20))


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

    elected_at_limit = set()
    for e in events:
        assert e.reason in (None, "max-hops", "window-closed")
        assert (e.reason is None) or e.kind is EventKind.SUPPRESS
        assert (e.hops is not None) == (e.kind in (EventKind.ELECT, EventKind.GATEWAY_ARRIVAL))
        assert (e.slot is not None) == (e.kind is EventKind.ELECT)
        if e.kind in (EventKind.TRANSMIT_PREAMBLE, EventKind.TRANSMIT_DATA):
            assert e.sender is None
        elif e.reason == "max-hops":
            # the copy of a winner that reached the hop limit is dropped
            # before it transmits, so its observers' slot has no transmitter
            assert e.sender in elected_at_limit
        else:
            assert e.sender == transmitter.get(e.time)
        if e.kind is EventKind.GATEWAY_ARRIVAL:
            assert e.actor == t.gateway
        if e.kind is EventKind.ELECT:
            assert 0 <= e.slot < cfg.election_slots
            assert 1 <= e.hops <= cfg.max_hops
            if e.hops == cfg.max_hops:
                elected_at_limit.add(e.actor)


@lru_cache(maxsize=None)
def small_topology(kind, size, ber, intercandidate_ber, seed):
    if kind == "star":
        return topo.star_topology(size, 1.0 - 40 * ber, intercandidate_ber=intercandidate_ber)
    if kind == "diamond":
        return topo.diamond_topology(
            (ber, 2 * ber), (ber, ber), intercandidate_ber=intercandidate_ber
        )
    gen = topo.GeneratorConfig(
        nodes=size + 3, area_side=40.0, radio_range=20.0, ber_model=topo.FixedBer(ber)
    )
    try:
        return topo.generate(gen, seed=seed)
    except topo.DisconnectedTopologyError:
        return None


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["star", "diamond", "generated"]),
    size=st.integers(min_value=1, max_value=5),
    ber=st.sampled_from([0.0, 0.002, 0.005, 0.01]),
    intercandidate_ber=st.sampled_from([0.0, 0.5, 1.0]),
    graph_seed=st.integers(min_value=0, max_value=20),
    mode=st.sampled_from(list(ProtocolMode)),
    election_slots=st.integers(min_value=1, max_value=4),
    max_hops=st.integers(min_value=1, max_value=5),
    suppression=st.booleans(),
    seed=st.integers(min_value=0, max_value=1000),
    replication=st.integers(min_value=0, max_value=1000),
)
def test_every_trace_is_well_formed(
    kind, size, ber, intercandidate_ber, graph_seed, mode, election_slots, max_hops,
    suppression, seed, replication,
):
    t = small_topology(kind, size, ber, intercandidate_ber, graph_seed)
    assume(t is not None)
    cfg = SimConfig(
        mode=mode, seed=seed, max_hops=max_hops, election_slots=election_slots,
        suppression=suppression,
    )
    trace = engine.simulate_delivery(t, analysis.network_path_costs(t), cfg, replication)
    check_well_formed(trace, t, cfg)
