"""Hypothesis strategy shared by the engine's property tests: a small
topology (star, diamond or generated graph) and a ``SimConfig`` over every
simulator knob."""

from functools import lru_cache

from hypothesis import assume
from hypothesis import strategies as st

from oppsim import topology as topo
from oppsim.engine import ProtocolMode, SimConfig


@lru_cache(maxsize=None)
def small_topology(kind, size, ber, intercandidate_ber, seed):
    """``intercandidate_ber=None`` links no two nodes of equal hop id, so
    co-candidates cannot overhear each other at all."""
    cross_ber = 0.0 if intercandidate_ber is None else intercandidate_ber
    if kind == "star":
        t = topo.star_topology(size, 1.0 - 40 * ber, intercandidate_ber=cross_ber)
    elif kind == "diamond":
        t = topo.diamond_topology((ber, 2 * ber), (ber, ber), intercandidate_ber=cross_ber)
    else:
        gen = topo.GeneratorConfig(
            nodes=size + 3, area_side=40.0, radio_range=20.0, ber_model=topo.FixedBer(ber)
        )
        try:
            t = topo.generate(gen, seed=seed)
        except topo.DisconnectedTopologyError:
            return None
    return without_cross_links(t) if intercandidate_ber is None else t


def without_cross_links(t):
    """``t`` prepared again from its links between nodes of different hop
    ids only; a shortest path never uses a link between equal hop ids, so
    removing those moves no hop id."""
    kept = [(a, b, v) for (a, b), v in t.links.items() if t.hop_id(a) != t.hop_id(b)]
    positions = {n.id: n.position for n in t.nodes}
    rebuilt = topo.prepare(positions, t.gateway, kept, t.frame, t.channel)
    assert rebuilt.nodes == t.nodes
    return rebuilt


@st.composite
def small_runs(draw):
    """(topology, SimConfig) with the source drawn per replication."""
    t = small_topology(
        draw(st.sampled_from(["star", "diamond", "generated"])),
        draw(st.integers(min_value=1, max_value=5)),
        draw(st.sampled_from([0.0, 0.002, 0.005, 0.01])),
        draw(st.sampled_from([0.0, 0.5, 1.0, None])),
        draw(st.integers(min_value=0, max_value=20)),
    )
    assume(t is not None)
    cfg = SimConfig(
        mode=draw(st.sampled_from(list(ProtocolMode))),
        seed=draw(st.integers(min_value=0, max_value=1000)),
        max_hops=draw(st.integers(min_value=1, max_value=5)),
        election_slots=draw(st.integers(min_value=1, max_value=4)),
        suppression=draw(st.booleans()),
    )
    return t, cfg
