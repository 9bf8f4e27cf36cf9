"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen; without ``-s`` pytest shows them for failing tests only.

Every statistical criterion pins its seeds.  Tolerances and runtime
budgets are asserted, not just printed; a budget breach fails the
criterion even when the numbers agree.
"""

import hashlib
import math
import time
from itertools import product

import pytest

from oppsim import analysis, cli, engine, oracle, topology as topo
from oppsim.engine import ProtocolMode, SimConfig
from oppsim.model import EventKind, ForwarderEntry, ForwarderSet


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def entries(pairs):
    return ForwarderSet(
        tuple(ForwarderEntry(node=i, p_link=p, remaining_cost=y) for i, (p, y) in enumerate(pairs))
    )


def nan_as_inf(err: float) -> float:
    """An error to fold with max(): a NaN would drop out of the fold, so it
    counts as the worst error there is."""
    return math.inf if math.isnan(err) else err


def test_criterion_1_single_hop_grid_matches_oracle():
    # every forwarder set of size 1..4 over a fixed probability/cost grid:
    # closed-form cost and overhead against exhaustive enumeration
    budget, tolerance = 5.0, 1e-12
    sizes = (1, 2, 3, 4)
    probs = (0.0, 0.25, 0.5, 0.75, 1.0)
    costs = (0.0, 1.0, 2.5)

    start = time.perf_counter()
    checked, max_err = 0, 0.0
    for n in sizes:
        for prob_combo in product(probs, repeat=n):
            for cost_combo in product(costs, repeat=n):
                fs = entries(zip(prob_combo, cost_combo))
                exact = oracle.exact_single_hop(fs)
                closed_cost = analysis.total_path_cost(fs)
                # equal costs, both inf for a dead set included, are no error
                cost_err = 0.0 if closed_cost == exact.expected_cost else abs(
                    closed_cost - exact.expected_cost
                )
                overhead_err = abs(analysis.coordination_overhead(fs) - exact.overhead)
                max_err = max(max_err, nan_as_inf(cost_err), nan_as_inf(overhead_err))
                checked += 1
    elapsed = time.perf_counter() - start

    ok = max_err <= tolerance and elapsed <= budget
    report(
        "criterion-1",
        ok,
        f"{checked} sets, max |closed - oracle| = {max_err:.3e} "
        f"(tolerance {tolerance:g}), {elapsed:.1f}s of {budget:g}s",
    )


def test_criterion_2_bit_level_oracle_confirms_frame_factors():
    # per-bit Monte Carlo at p=0.01 under the 8/2/100 frame against the
    # three closed factors, each within 3 binomial standard errors
    budget, trials, seed, p = 30.0, 1_000_000, 424_242, 0.01
    frame = topo.DEFAULT_FRAME

    start = time.perf_counter()
    est = oracle.bit_level_frame_oracle(p, frame, trials, seed)
    closed = {
        "preamble_miss": analysis.preamble_miss_probability(p, frame),
        "data_miss": analysis.data_miss_probability(p, frame),
        "joint_miss": analysis.failure_probability(p, frame, 1.0),
    }
    worst_z, worst_name = 0.0, ""
    for name, value in closed.items():
        se = math.sqrt(value * (1.0 - value) / trials)
        err = abs(getattr(est, name) - value)
        # a closed factor of 0 or 1 has no spread: only itself is within it
        z = nan_as_inf(err / se if se > 0 else (0.0 if err == 0 else math.inf))
        if z > worst_z:
            worst_z, worst_name = z, name
    elapsed = time.perf_counter() - start

    ok = worst_z <= 3.0 and elapsed <= budget
    report(
        "criterion-2",
        ok,
        f"{trials} trials, worst factor {worst_name} at {worst_z:.2f} sigma "
        f"(limit 3), {elapsed:.1f}s of {budget:g}s",
    )


def test_criterion_2_reports_an_estimate_off_a_degenerate_factor(monkeypatch):
    # negative control: a closed factor of exactly 0 has no binomial spread,
    # so the estimate off it fails the criterion through its own report
    monkeypatch.setattr(analysis, "preamble_miss_probability", lambda p, frame: 0.0)
    with pytest.raises(AssertionError, match="criterion-2: .* worst factor preamble_miss at inf sigma"):
        test_criterion_2_bit_level_oracle_confirms_frame_factors()


def test_criterion_3_hop_count_disagrees_with_rank_distance():
    # two identical-quality hops whose rank distance is 3.04 transmissions
    budget = 1.0
    start = time.perf_counter()
    w = topo.witness_topology(far_cost=3.04)
    hops = topo.hop_distance(w, 5, 1)
    rank_dist = topo.rank_difference_distance(w, 5, 1)
    elapsed = time.perf_counter() - start

    ok = hops == 2 and abs(rank_dist - 3.04) <= 0.01 and elapsed <= budget
    report(
        "criterion-3",
        ok,
        f"hop distance {hops} vs rank distance {rank_dist:.6f} "
        f"(want 2 vs 3.04 +/- 0.01), {elapsed:.1f}s of {budget:g}s",
    )


def test_criterion_4_overhead_grows_with_forwarder_count():
    # equal-cost candidate sets: closed form, strict growth, and the
    # packet-level simulator all in agreement
    budget, p_link, reps, tolerance = 60.0, 0.7, 100_000, 1e-12
    start = time.perf_counter()

    analytic = []
    closed_err = 0.0
    for n in range(1, 7):
        fs = entries([(p_link, 1.0)] * n)
        overhead = analysis.coordination_overhead(fs)
        expected = 1.0 * (1.0 - (1.0 - p_link) ** n)
        closed_err = max(closed_err, abs(overhead - expected))
        analytic.append(overhead)
    strictly_increasing = all(b > a for a, b in zip(analytic, analytic[1:]))

    worst_z = 0.0
    for n in range(1, 7):
        star = topo.star_topology(n, p_link)
        cfg = SimConfig(
            mode=ProtocolMode.RECEIVER_BASED,
            replications=reps,
            seed=300 + n,
            source=n + 1,
        )
        m = engine.run_experiment(star, cfg)
        se = math.sqrt(analytic[n - 1] * (1.0 - analytic[n - 1]) / reps)
        worst_z = max(worst_z, abs(m.empirical_coordination_overhead - analytic[n - 1]) / se)
    elapsed = time.perf_counter() - start

    ok = (
        closed_err <= tolerance
        and strictly_increasing
        and worst_z <= 3.0
        and elapsed <= budget
    )
    report(
        "criterion-4",
        ok,
        f"closed-form err {closed_err:.1e} (tol {tolerance:g}), "
        f"strictly increasing: {strictly_increasing}, "
        f"worst empirical deviation {worst_z:.2f} sigma over {reps} reps x 6 sizes, "
        f"{elapsed:.1f}s of {budget:g}s",
    )


def test_criterion_5_modes_deliver_equally():
    # receiver-based election and sender-side prioritization pick the same
    # winners, so their delivery rates must be statistically identical
    budget, reps = 120.0, 100_000
    start = time.perf_counter()
    g = topo.generate(
        topo.GeneratorConfig(
            nodes=20, area_side=100.0, radio_range=28.0, ber_model=topo.FixedBer(0.005)
        ),
        seed=2,
    )
    mr = engine.run_experiment(
        g, SimConfig(mode=ProtocolMode.RECEIVER_BASED, replications=reps, seed=101)
    )
    ms = engine.run_experiment(
        g, SimConfig(mode=ProtocolMode.SENDER_PRIORITIZED, replications=reps, seed=202)
    )
    diff = abs(mr.pdr - ms.pdr)
    pooled = (mr.deliveries_succeeded + ms.deliveries_succeeded) / (2 * reps)
    se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / reps)
    half_width = 2.5758 * se  # 99% two-proportion interval
    elapsed = time.perf_counter() - start

    ok = diff < 0.01 and diff <= half_width and elapsed <= budget
    report(
        "criterion-5",
        ok,
        f"pdr {mr.pdr:.5f} (receiver) vs {ms.pdr:.5f} (sender), "
        f"|diff| {diff:.5f} < 0.01 and within 99% interval {half_width:.5f}, "
        f"{elapsed:.1f}s of {budget:g}s",
    )


def test_criterion_6_runs_are_byte_identical(tmp_path):
    budget = 10.0
    config_text = (
        "topology: {kind: star, forwarders: 3, p_link: 0.6}\n"
        "sim: {mode: both, replications: 2000, seed: 42, source: 4}\n"
    )
    path = tmp_path / "repro.yaml"
    path.write_text(config_text)

    start = time.perf_counter()
    digests = []
    for name in ("a.csv", "b.csv"):
        dest = tmp_path / name
        code = cli.main(["simulate", str(path), "--out", str(dest)])
        assert code == 0
        digests.append(hashlib.sha256(dest.read_bytes()).hexdigest())
    elapsed = time.perf_counter() - start

    ok = digests[0] == digests[1] and elapsed <= budget
    report(
        "criterion-6",
        ok,
        f"sha256 {digests[0][:16]}... == {digests[1][:16]}...: {digests[0] == digests[1]}, "
        f"{elapsed:.1f}s of {budget:g}s",
    )


def test_criterion_7_perfect_overhearing_never_duplicates():
    # two candidates that always hear each other's forwards: the election
    # must suppress the loser in every single replication
    budget, reps = 10.0, 10_000
    start = time.perf_counter()
    d = topo.diamond_topology(
        source_ber=(0.005, 0.005), relay_ber=(0.005, 0.005), intercandidate_ber=0.0
    )
    cfg = SimConfig(mode=ProtocolMode.RECEIVER_BASED, replications=reps, seed=77, source=3)
    duplicates = 0
    for i in range(reps):
        trace = engine.simulate_delivery(d, cfg, i)
        duplicates += trace.count(EventKind.DUPLICATE_FORWARD)
    elapsed = time.perf_counter() - start

    ok = duplicates == 0 and elapsed <= budget
    report(
        "criterion-7",
        ok,
        f"{duplicates} duplicate forwards across {reps} replications (want 0), "
        f"{elapsed:.1f}s of {budget:g}s",
    )


def test_criterion_8_two_hop_cost_composes():
    budget, tolerance = 1.0, 1e-12
    start = time.perf_counter()
    chain = topo.chain_topology([0.8, 0.8])
    closed = analysis.network_path_costs(chain)[2]
    spec = oracle.ChainSpec(source=2, gateway=0, links={2: ((1, 0.8),), 1: ((0, 0.8),)})
    exact = oracle.exact_two_hop(spec)
    err = max(abs(closed - 2.5), abs(closed - exact))
    elapsed = time.perf_counter() - start

    ok = err <= tolerance and elapsed <= budget
    report(
        "criterion-8",
        ok,
        f"closed {closed!r} vs oracle {exact!r} vs 2.5, max err {err:.1e} "
        f"(tolerance {tolerance:g}), {elapsed:.1f}s of {budget:g}s",
    )
