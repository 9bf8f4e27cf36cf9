"""``tools/bench_pairs.py``, the script every ``BENCH_<n>.json`` comes from:
its seed parser, its win count, its quartiles and its verdicts, on
synthetic records (no benchmark is run), and its garbage-collector probe."""

import gc
import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCHMARK = {
    "end_to_end": [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "replications_per_s", "better": "higher", "bound": 0.25},
    ]
}
PARENT_RUN_S = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 0.99]


def record(run_s, replications_per_s=100.0):
    """One side's ``run_summary`` of one pair."""
    return {
        "metrics": {"run_s": run_s, "replications_per_s": replications_per_s},
        "raw_run_s": run_s,
        "raw_setup_s": 0.5,
        "scale": 1.0,
        "failed": 0,
        "attempted": 4,
    }


def summary(parent, change, claim=None):
    """``summarise`` over pairs of (run_s, replications_per_s) records."""
    runs = {
        "parent": {"w": [record(*p) for p in parent]},
        "change": {"w": [record(*c) for c in change]},
    }
    layers = {side: [{"x_s": 1.0}] * len(parent) for side in ("parent", "change")}
    return bench_pairs.summarise(runs, layers, BENCHMARK, claim)


def test_parse_seeds_reads_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("51-53,60") == [51, 52, 53, 60]


@pytest.mark.parametrize("better, expected", [("lower", 1), ("higher", 1)])
def test_wins_count_strict_improvements_only(better, expected):
    # pair 1 is lower for the change, pair 2 a tie, pair 3 higher
    assert bench_pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], better) == expected
    assert bench_pairs.wins([2.0, 2.0], [2.0, 2.0], better) == 0


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5}


def test_within_bound_follows_each_metrics_direction():
    parent = [(1.0, 100.0)] * 10
    ok = summary(parent, [(1.2, 80.0)] * 10)["workloads"]["w"]["metrics"]
    assert ok["run_s"]["within_bound"] and ok["replications_per_s"]["within_bound"]
    assert ok["run_s"]["relative_worsening_of_median"] == pytest.approx(0.2)
    assert ok["replications_per_s"]["relative_worsening_of_median"] == pytest.approx(0.2)
    worse = summary(parent, [(1.3, 70.0)] * 10)["workloads"]["w"]["metrics"]
    assert not worse["run_s"]["within_bound"]
    assert not worse["replications_per_s"]["within_bound"]
    # a gain is always within the bound
    better = summary(parent, [(0.5, 200.0)] * 10)["workloads"]["w"]["metrics"]
    assert better["run_s"]["within_bound"] and better["replications_per_s"]["within_bound"]


def layers_of(parent_x_s, change_x_s):
    """``summarise``'s ``layers`` entry for one layer timed over the pairs."""
    runs = {side: {"w": [record(1.0)] * len(parent_x_s)} for side in ("parent", "change")}
    layers = {"parent": [{"x_s": v} for v in parent_x_s], "change": [{"x_s": v} for v in change_x_s]}
    return bench_pairs.summarise(runs, layers, BENCHMARK, None)["layers"]["x_s"]


def test_a_layer_is_resolved_only_when_the_iqrs_are_disjoint():
    # 30% apart with the parent's spread: IQRs [0.99, 1.01] and [0.69, 0.71]
    apart = layers_of(PARENT_RUN_S, [v - 0.3 for v in PARENT_RUN_S])
    assert apart["parent"]["median"] == pytest.approx(1.0)
    assert apart["resolved"]
    assert layers_of([v - 0.3 for v in PARENT_RUN_S], PARENT_RUN_S)["resolved"]
    # medians 30% apart, but each side spread over the other's quartiles
    noisy = [0.7, 1.0, 1.3, 0.7, 1.0, 1.3, 0.7, 1.0, 1.3, 1.0]
    assert not layers_of(noisy, [v * 0.7 for v in noisy])["resolved"]
    assert not layers_of(PARENT_RUN_S, PARENT_RUN_S)["resolved"]


def claim_of(change_run_s):
    parent = [(v,) for v in PARENT_RUN_S]
    change = [(v,) for v in change_run_s]
    return summary(parent, change, claim="w:run_s")["claim"]


def test_claim_met_with_nine_wins_and_a_gap_beyond_the_parents_iqr():
    # nine pairs 0.1 faster, one tie: 9/10 wins, gap 0.1 > IQR 0.025
    claim = claim_of([v - 0.1 for v in PARENT_RUN_S[:9]] + PARENT_RUN_S[9:])
    assert claim["change_wins"] == "9/10"
    assert claim["parent_iqr"] == pytest.approx(0.025)
    assert claim["met"]


def test_claim_not_met_with_eight_wins():
    claim = claim_of([v - 0.1 for v in PARENT_RUN_S[:8]] + PARENT_RUN_S[8:])
    assert claim["change_wins"] == "8/10"
    assert not claim["met"]


def test_claim_not_met_when_the_gap_is_inside_the_parents_iqr():
    claim = claim_of([v - 0.01 for v in PARENT_RUN_S])
    assert claim["change_wins"] == "10/10"
    assert not claim["met"]


def test_gc_phases_counts_generation_2_collections_where_they_start():
    # the cycle's own gc.collect() is not counted, nor a generation-1 collection
    callbacks = list(gc.callbacks)
    counts = bench_pairs.gc_phases(lambda: gc.collect(1), gc.collect, lambda: None, cycles=3)
    assert counts == {"setup": 0, "call": 3, "loop": 0}
    assert gc.callbacks == callbacks


def test_gc_probe_runs_a_workload_as_run_py_does():
    probe = bench_pairs.gc_probe(bench_pairs.ROOT, "star-sweep", seed=0, cycles=1)
    assert probe.keys() == {"cores", "setup", "call", "loop"}
    assert probe["cores"] == len(os.sched_getaffinity(0))
    assert all(probe[phase] >= 0 for phase in bench_pairs.GC_PHASES)


def test_moved_lists_the_pairs_whose_collections_changed_phase():
    probe = {"cores": 2, "setup": 0, "call": 0, "loop": 8}
    moved = {**probe, "setup": 1, "loop": 7}
    probes = {
        "w": {"parent": [probe, probe, probe], "change": [probe, moved, probe]},
        "v": {"parent": [probe] * 3, "change": [probe] * 3},
    }
    pairs = [{"seed": 51, "first": "parent"}, {"seed": 52, "first": "change"},
             {"seed": 53, "first": "parent"}]
    marked = bench_pairs.moved_collections(pairs, probes)
    assert marked["w"] == {**probes["w"], "moved": [52]}
    assert marked["v"]["moved"] == []
