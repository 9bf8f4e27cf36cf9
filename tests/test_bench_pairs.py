"""``tools/bench_pairs.py``, the script every ``BENCH_<n>.json`` comes from:
its seed parser, its win count, its quartiles and its verdicts, on
synthetic records (no benchmark is run)."""

import importlib.util
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
