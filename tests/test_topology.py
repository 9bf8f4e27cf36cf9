import hashlib
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppsim import analysis, cli, engine, topology as topo
from oppsim.engine import ProtocolMode, SimConfig
from oppsim.model import (
    BitErrorRate, Channel, ChannelModel, FrameParams, Node, Topology, validate,
)


def bisect_200(law, target, frame, p_sw):
    """The bisection as it was before it stopped at a fixed point: always
    200 halvings."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if law(mid, frame, p_sw) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


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

    @given(
        st.sampled_from(["link_success", "reception_probability"]),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-12),
        st.sampled_from([1.0, 0.7]),
    )
    def test_fixed_point_stop_equals_200_steps(self, law_name, target, p_sw):
        law = getattr(analysis, law_name)
        frame = topo.DEFAULT_FRAME
        if law_name == "link_success":
            target = max(target, 1.0 - p_sw)
        else:
            target *= p_sw
        ber = topo._bisect(law, target, frame, p_sw)
        assert ber == bisect_200(law, target, frame, p_sw)
        # (1 - p) ** d amplifies the rounding of 1 - p about d-fold, so the
        # laws themselves are accurate to about d ulps of 1
        tolerance = 2 * frame.data_frame_bits * math.ulp(1.0)
        assert abs(law(ber, frame, p_sw) - target) <= tolerance

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

    def test_tiny_radio_range_is_disconnected(self):
        cfg = topo.GeneratorConfig(
            nodes=5, area_side=100.0, radio_range=1e-310, ber_model=topo.FixedBer(0.005)
        )
        with pytest.raises(topo.DisconnectedTopologyError, match="node: 1 "):
            topo.generate(cfg, seed=1)

    def test_infinite_radio_range_links_every_pair(self):
        cfg = topo.GeneratorConfig(
            nodes=6, area_side=100.0, radio_range=math.inf, ber_model=topo.DistanceBer(0.0, 0.01)
        )
        g = topo.generate(cfg, seed=1)
        assert len(g.links) == 6 * 5
        assert {n.hop_id for n in g.nodes} == {0, 1}

    @pytest.mark.parametrize("side", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejects_area_side_not_positive_and_finite(self, side):
        with pytest.raises(ValueError, match="area_side must be positive and finite"):
            topo.GeneratorConfig(
                nodes=3, area_side=side, radio_range=10.0, ber_model=topo.FixedBer(0.005)
            )

    def test_benchmark_mesh_is_unchanged(self):
        # sha256 of repr((nodes, links)) of the 1000-node mesh the benchmark
        # simulates, recorded with the O(n^2) pair loop
        cfg = topo.GeneratorConfig(
            nodes=1000, area_side=100.0, radio_range=8.0, ber_model=topo.DistanceBer(0.0, 0.005)
        )
        g = topo.generate(cfg, seed=1)
        digest = hashlib.sha256(ranked_repr(g).encode()).hexdigest()
        assert digest == "d51a0bb7d25776d1ad1136862345a1d288d079c92bbb7680eadbaf2227034862"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_pair_loop_reference(self, data):
        nodes = data.draw(st.integers(min_value=1, max_value=40), label="nodes")
        side = data.draw(st.floats(min_value=0.5, max_value=200.0), label="side")
        diagonal = side * math.sqrt(2.0)
        radio_range = data.draw(
            st.one_of(
                st.floats(min_value=5e-324, max_value=1e-6),
                st.floats(min_value=0.01, max_value=1.0).map(lambda f: f * diagonal),
                st.floats(min_value=1.0, max_value=3.0).map(lambda f: f * diagonal),
                st.just(math.inf),
            ),
            label="radio_range",
        )
        ber_model = data.draw(
            st.one_of(
                st.builds(topo.FixedBer, st.sampled_from([0.0, 0.005, 1.0])),
                # p_min > p_max included
                st.builds(
                    topo.DistanceBer,
                    st.floats(min_value=0.0, max_value=0.05),
                    st.floats(min_value=0.0, max_value=0.05),
                ),
            ),
            label="ber_model",
        )
        gateway = data.draw(
            st.one_of(
                st.none(),
                st.sampled_from([(0.0, 0.0), (side, 0.0), (0.0, side), (side, side)]),
                st.tuples(
                    st.floats(min_value=-3 * side, max_value=4 * side),
                    st.floats(min_value=-3 * side, max_value=4 * side),
                ),
            ),
            label="gateway_position",
        )
        config = topo.GeneratorConfig(
            nodes=nodes,
            area_side=side,
            radio_range=radio_range,
            ber_model=ber_model,
            gateway_position=gateway,
        )
        seed = data.draw(st.integers(min_value=0, max_value=2**32), label="seed")
        assert _outcome(lambda c, s: built(topo.generate(c, s)), config, seed) == _outcome(
            reference_generate, config, seed
        )


def ranked_repr(t):
    """repr((nodes, links)) as it read when each node stored its rank,
    1 + cost, between its id and its hop id."""
    nodes = ", ".join(
        f"Node(id={n.id!r}, rank={t.rank(n.id)!r}, hop_id={n.hop_id!r}, position={n.position!r})"
        for n in t.nodes
    )
    return f"(({nodes}), {t.links!r})"


def _outcome(build, config, seed):
    """What ``build`` returns, or the error it raises."""
    try:
        return build(config, seed)
    except ValueError as exc:
        return type(exc), str(exc)


def reference_ber(model, distance, radio_range):
    if isinstance(model, topo.FixedBer):
        return model.p
    span = model.p_max - model.p_min
    p = model.p_min + span * (distance / radio_range) ** 2
    return min(max(p, min(model.p_min, model.p_max)), max(model.p_min, model.p_max))


def reference_generate(config, seed):
    """generate as an O(n^2) loop over every pair, with one scalar draw per
    coordinate."""
    rng = np.random.default_rng(seed)
    side = config.area_side
    gw = config.gateway_position or (side / 2.0, side / 2.0)
    positions = [(float(gw[0]), float(gw[1]))]
    for _ in range(1, config.nodes):
        positions.append((float(rng.uniform(0.0, side)), float(rng.uniform(0.0, side))))
    links = {}
    for a, (ax, ay) in enumerate(positions):
        for b in range(a + 1, len(positions)):
            bx, by = positions[b]
            dist = math.hypot(ax - bx, ay - by)
            if dist <= config.radio_range:
                ber = BitErrorRate(reference_ber(config.ber_model, dist, config.radio_range))
                links[(a, b)] = ber
                links[(b, a)] = ber
    return reference_prepare(dict(enumerate(positions)), 0, links, config.frame, config.channel)


def reference_prepare(positions, gateway, links, frame, channel):
    """What prepare builds from the directed link map ``links``, without
    its steps: hop IDs by relaxing every link until none shortens a path
    (Bellman-Ford with unit weights), then the costs solved on a topology
    built by hand with them.  Nodes, link items in order, cost table."""
    hops = {gateway: 0}
    changed = True
    while changed:
        changed = False
        for a, b in links:
            if a in hops and hops[a] + 1 < hops.get(b, math.inf):
                hops[b] = hops[a] + 1
                changed = True
    for nid in positions:
        if nid not in hops:
            raise topo.DisconnectedTopologyError(f"disconnected node: {nid!r} cannot reach the gateway")
    nodes = tuple(Node(id=nid, hop_id=hops[nid], position=pos) for nid, pos in positions.items())
    t = Topology(nodes=nodes, gateway=gateway, links=links, frame=frame, channel=channel)
    return t.nodes, list(t.links.items()), analysis.network_path_costs(t)


def built(t):
    """Nodes, link items in order and cost table of a prepared topology."""
    return t.nodes, list(t.links.items()), t.costs


class TestNearPairs:
    def test_pairs_exactly_radio_range_apart_across_cells(self):
        # the cells are a hair over 5 wide, starting at (0, 0): each pair
        # below is exactly 5 apart and straddles a cell boundary, along an
        # axis or diagonally
        points = [
            (0.0, 0.0), (5.0, 0.0), (10.0, 0.0), (15.0, 0.0), (4.0, 4.0), (7.0, 8.0),
            (9.0, 1.0), (12.0, 5.0), (15.0, 12.0), (0.0, 15.0), (10.0, 12.0),
        ]
        across = [(1, 2), (2, 3), (4, 5), (5, 10), (6, 7), (8, 10)]
        pairs = topo._near_pairs(points, 5.0)
        brute = [
            (a, b, math.hypot(ax - bx, ay - by))
            for a, (ax, ay) in enumerate(points)
            for b, (bx, by) in enumerate(points)
            if a < b and math.hypot(ax - bx, ay - by) <= 5.0
        ]
        assert pairs == brute
        assert all((a, b, 5.0) in pairs for a, b in across)

    def test_a_hair_beyond_the_radius_is_no_link(self):
        far = math.nextafter(5.0, math.inf)
        assert topo._near_pairs([(0.0, 0.0), (far, 0.0)], 5.0) == []
        assert topo._near_pairs([(0.0, 0.0), (5.0, 0.0)], 5.0) == [(0, 1, 5.0)]

    def test_point_at_infinity_and_infinite_radius(self):
        assert topo._near_pairs([(math.inf, 0.0), (1.0, 1.0)], 5.0) == []
        assert topo._near_pairs([(0.0, 0.0), (1e300, 0.0)], math.inf) == [(0, 1, 1e300)]


@st.composite
def connected_edges(draw):
    """Node count, gateway and an edge list over int ids that reaches every
    node: a random spanning tree plus extra edges, repeats allowed, in a
    random order with random rates."""
    n = draw(st.integers(min_value=2, max_value=8))
    gateway = draw(st.integers(min_value=0, max_value=n - 1))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    node = st.integers(min_value=0, max_value=n - 1)
    pairs += draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=10))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    pairs = draw(st.permutations(pairs))
    rate = st.floats(min_value=0.0, max_value=0.05).map(BitErrorRate)
    return n, gateway, [(a, b, draw(rate)) for a, b in pairs]


@settings(max_examples=60, deadline=None)
@given(connected_edges())
def test_prepare_stores_each_edge_both_ways(drawn):
    n, gateway, edges = drawn
    positions = {i: (float(i), 0.0) for i in range(n)}
    t = topo.prepare(positions, gateway, edges, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)
    links = {}
    for a, b, ber in edges:
        links[(a, b)] = ber
        links[(b, a)] = ber
    reference = reference_prepare(positions, gateway, links, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)
    assert built(t) == reference


def _prepared(drawn, string_ids):
    """The drawn edge list prepared over int ids, or over string ids."""
    n, gateway, edges = drawn
    ids = [f"n{i}" if string_ids else i for i in range(n)]
    positions = {ids[i]: (float(i), 0.0) for i in range(n)}
    edges = [(ids[a], ids[b], ber) for a, b, ber in edges]
    return topo.prepare(positions, ids[gateway], edges, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)


@settings(max_examples=60, deadline=None)
@given(connected_edges(), st.booleans())
def test_prepared_hop_ids_are_bfs_distances(drawn, string_ids):
    t = _prepared(drawn, string_ids)
    assert t.hop_id(t.gateway) == 0
    for node in t.nodes:
        if node.id != t.gateway:
            # one neighbour a hop nearer, and none nearer still; prepare
            # stores every link both ways, so a node's own links reach them all
            assert min(t.hop_id(b) for a, b in t.links if a == node.id) == node.hop_id - 1
    assert t.costs == analysis.network_path_costs(t)


@st.composite
def edge_lists(draw):
    """Node count, gateway and an edge list that may leave nodes
    unreachable: random pairs of distinct nodes, some repeated at another
    rate, in a random order.  Now and then the gateway or one edge's end
    is id n, which is no node."""
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    stray = draw(st.sampled_from([None] * 8 + ["gateway", "edge"]))
    gateway = n if stray == "gateway" else draw(node)
    pairs = []
    if n > 1:
        other = st.tuples(node, st.integers(min_value=1, max_value=n - 1))
        pairs = draw(st.lists(other.map(lambda p: (p[0], (p[0] + p[1]) % n)), max_size=2 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    if stray == "edge":
        pairs.append(draw(st.sampled_from([(n, 0), (0, n)])))
    pairs = draw(st.permutations(pairs))
    rate = st.floats(min_value=0.0, max_value=0.05).map(BitErrorRate)
    return n, gateway, [(a, b, draw(rate)) for a, b in pairs]


def tables(t, items, costs):
    """Hop ids, link items in order, upstream table and costs by
    ``float.hex``."""
    return (
        [(n.id, n.hop_id) for n in t.nodes],
        items,
        {n.id: t.upstream_neighbors(n.id) for n in t.nodes},
        [(node, y.hex()) for node, y in costs.costs.items()],
    )


def reference_tables(positions, gateway, links, frame, channel):
    """The tables of a topology built by hand with ``reference_prepare``'s
    hop ids, which derives its upstream table from its links on first use;
    or the refusal, as (type, message), for an unknown gateway, then for
    the first directed link in the map's order whose first end is no node,
    then for a disconnected node."""
    if gateway not in positions:
        return ValueError, f"unknown node id: {gateway!r}"
    for a, b in links:
        if a not in positions:
            return ValueError, f"link ({a!r}, {b!r}) references an unknown node"
    try:
        hopped, items, costs = reference_prepare(positions, gateway, links, frame, channel)
    except ValueError as exc:
        return type(exc), str(exc)
    t = Topology(nodes=hopped, gateway=gateway, links=links, frame=frame, channel=channel)
    assert "_upstream" not in t.__dict__
    return tables(t, items, costs)


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.booleans())
def test_one_pass_tables_equal_a_hand_built_topology(drawn, string_ids):
    n, gateway, edges = drawn
    ids = [f"n{i}" if string_ids else i for i in range(n + 1)]
    positions = {ids[i]: (float(i), 0.0) for i in range(n)}
    edges = [(ids[a], ids[b], ber) for a, b, ber in edges]
    links = {}
    for a, b, ber in edges:
        links[(a, b)] = ber
        links[(b, a)] = ber
    frame, channel = topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL
    try:
        t = topo.prepare(positions, ids[gateway], edges, frame, channel)
    except ValueError as exc:
        got = type(exc), str(exc)
    else:
        got = tables(t, list(t.links.items()), t.costs)
    assert got == reference_tables(positions, ids[gateway], links, frame, channel)


class TestHopAssignment:
    def _prepare(self, positions, edges, gateway=0):
        return topo.prepare(positions, gateway, edges, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)

    def test_bfs_hop_ids(self):
        ber = BitErrorRate(0.0)
        assigned = self._prepare(dict.fromkeys([0, 1, 2]), [(0, 1, ber), (1, 2, ber), (0, 2, ber)])
        assert [n.hop_id for n in assigned.nodes] == [0, 1, 1]

    def test_unreachable_node_named(self):
        with pytest.raises(topo.DisconnectedTopologyError, match="7"):
            self._prepare(dict.fromkeys([0, 7]), [])

    def test_unknown_gateway_or_endpoint_named(self):
        positions = dict.fromkeys([0, 1])
        ber = BitErrorRate(0.0)
        with pytest.raises(ValueError, match=r"^unknown node id: 5$"):
            self._prepare(positions, [(0, 1, ber)], gateway=5)
        with pytest.raises(ValueError, match=r"^link \(9, 1\) references an unknown node$"):
            self._prepare(positions, [(0, 1, ber), (1, 9, ber)])


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


def _file_round_trip(tmp_path):
    path = tmp_path / "star.topo"
    cli.write_topology_file(topo.star_topology(3, 0.6, intercandidate_ber=0.01), path)
    return cli.read_topology_file(path, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)


BUILDERS = {
    "chain": lambda tmp_path: topo.chain_topology([0.8, 0.6, 0.9]),
    "star": lambda tmp_path: topo.star_topology(3, 0.6, remaining_cost=1.7),
    "diamond": lambda tmp_path: topo.diamond_topology(),
    "witness": lambda tmp_path: topo.witness_topology(),
    "generated": lambda tmp_path: topo.generate(
        topo.GeneratorConfig(nodes=30, area_side=100.0, radio_range=30.0,
                             ber_model=topo.DistanceBer()),
        seed=2,
    ),
    "file": _file_round_trip,
}


@pytest.mark.parametrize("kind", BUILDERS)
def test_built_topology_owns_its_cost_table(kind, tmp_path):
    t = BUILDERS[kind](tmp_path)
    assert validate(t) == []
    assert t.costs == analysis.network_path_costs(t)
    for n in t.nodes:
        assert t.rank(n.id) == 1.0 + t.costs[n.id]
    # a copy or a hand-built topology may have other links or hop ids, so it
    # carries no table, also after a cost solve of it, and whatever reads
    # one refuses it, in either mode
    by_hand = Topology(nodes=t.nodes, gateway=t.gateway, links=t.links,
                       frame=t.frame, channel=t.channel)
    solved = replace(t)
    analysis.network_path_costs(solved)
    for copy in (replace(t), replace(t, links=dict(t.links)), by_hand, solved):
        assert copy == t
        for mode in ProtocolMode:
            cfg = SimConfig(mode=mode, replications=2)
            for read in (
                lambda: copy.costs,
                lambda: copy.rank(t.gateway),
                lambda: engine.run_experiment(copy, cfg),
                lambda: engine.simulate_delivery(copy, cfg, 0),
            ):
                with pytest.raises(ValueError) as refused:
                    read()
                assert str(refused.value) == "topology carries no cost table; build it with topology.prepare"
        edges = [(a, b, ber) for (a, b), ber in copy.links.items()]
        positions = {n.id: n.position for n in copy.nodes}
        assert topo.prepare(positions, copy.gateway, edges, copy.frame, copy.channel).costs == t.costs


@settings(max_examples=60, deadline=None)
@given(connected_edges(), st.booleans())
def test_prepared_topology_passes_validate(drawn, string_ids):
    # prepare stores both directions of each link and assigns hop IDs that
    # reach every node from a gateway at hop 0, so the CLI runs no validate pass
    t = _prepared(drawn, string_ids)
    assert validate(t) == []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.topo"
        cli.write_topology_file(t, path)
        assert validate(cli.read_topology_file(path, t.frame, t.channel)) == []
