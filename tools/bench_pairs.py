"""Alternating parent/change pairs of the benchmark, summarised as one
``BENCH_<n>.json``.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 51-60 --out BENCH_5.json \
        --claim mesh-simulate:setup_s

The change is the working tree of this repository; the parent is the
commit ``--parent``, exported with ``git archive`` into a temporary
directory (so no worktree is registered in the repository).  For each seed
the script runs ``python3 perfbench/run.py --workload all --seed S`` once
on each side, the parent first on the 1st, 3rd, ... seed and second on the
others, and reads each workload's ``.perfbench_out/result-*.json``.  The
run length is run.py's own default, recorded as ``seconds``.  It also
times the ROADMAP's layer baselines (``generate`` at 1000 nodes,
``star_topology(6, 0.7)``, ``network_path_costs`` at 1000 nodes, verify-grid's
single-hop grid alone as ``run_verification`` with one Monte Carlo trial,
and the 200,000-trial ``bit_level_frame_oracle``) on each side, best of k,
in the same alternating order, and records each side's source-line count
of ``src/oppsim/*.py`` (as ``wc -l`` counts them) as ``source_lines``.

Per workload and end-to-end metric the output holds each side's q1, median
and q3 of the benchmark's (scaled) value, the change's wins over the pairs
(ties count for neither), the parent's interquartile range and the bound
from ``BENCHMARK.json``; per workload also each side's raw (unscaled)
run_s and setup_s medians and the median scale factor.  The file is
rewritten after every pair, so an interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

LAYER_SNIPPET = r"""
import json, sys, time
sys.path.insert(0, "src")
from oppsim import analysis, oracle, topology, verification

def best(fn, k):
    times = []
    for _ in range(k):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)

mesh_config = topology.GeneratorConfig(
    nodes=1000, area_side=100.0, radio_range=8.0, ber_model=topology.DistanceBer(0.0, 0.005)
)
mesh = topology.generate(mesh_config, seed=1)
print(json.dumps({
    "generate_1000_s": best(lambda: topology.generate(mesh_config, seed=1), 5),
    "star_topology_6_s": best(lambda: topology.star_topology(6, 0.7), 20),
    "network_path_costs_1000_s": best(lambda: analysis.network_path_costs(mesh), 5),
    "verify_single_hop_grid_s": best(
        lambda: verification.run_verification("sizes=1-4;probs=0,0.5,1;costs=0,1,2.5", trials=1), 5
    ),
    "bit_level_200k_s": best(
        lambda: oracle.bit_level_frame_oracle(0.01, topology.DEFAULT_FRAME, 200_000, 0), 5
    ),
}))
"""


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` into ``dest``; return its short hash."""
    short = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return short


def run_side(side_dir: Path, workloads: list[str], seed: int) -> dict:
    """One ``--workload all`` run; each workload's result record."""
    out = side_dir / ".perfbench_out"
    for name in workloads:
        (out / f"result-{name}-seed{seed}-trace0.json").unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed)],
        cwd=side_dir, check=False, stdout=subprocess.DEVNULL,
    )
    records = {}
    for name in workloads:
        path = out / f"result-{name}-seed{seed}-trace0.json"
        records[name] = json.loads(path.read_text()) if path.exists() else None
    return records


def layer_times(side_dir: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", LAYER_SNIPPET], cwd=side_dir, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def source_lines(side_dir: Path) -> int:
    """Lines of the package's modules, as ``wc -l src/oppsim/*.py`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (side_dir / "src" / "oppsim").glob("*.py"))


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def wins(parent: list[float], change: list[float], better: str) -> int:
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0.0)


def run_summary(record: dict) -> dict:
    calls = record["calls"]
    return {
        "metrics": record["metrics"],
        "raw_run_s": statistics.median(c["run_s"] for c in calls),
        "raw_setup_s": statistics.median(c["setup_s"] for c in calls),
        "scale": statistics.median(c["scale"] for c in calls),
        "failed": record["failed"],
        "attempted": record["attempted"],
    }


def summarise(runs: dict, layers: dict, benchmark: dict, claim: str | None) -> dict:
    """``runs[side][workload]`` and ``layers[side]`` are lists over pairs."""
    n = len(layers["parent"])
    workloads = {}
    for name in runs["parent"]:
        per_side = {side: runs[side][name] for side in SIDES}
        if any(r is None for side in SIDES for r in per_side[side]):
            workloads[name] = {"missing": "a run wrote no result file"}
            continue
        metrics = {}
        for spec in benchmark["end_to_end"]:
            metric, better = spec["name"], spec["better"]
            values = {s: [r["metrics"][metric] for r in per_side[s]] for s in SIDES}
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            worsening = (change["median"] - parent["median"]) / parent["median"]
            if better == "higher":
                worsening = -worsening
            metrics[metric] = {
                "better": better,
                "bound": spec["bound"],
                "parent": parent,
                "change": change,
                "change_wins": f"{wins(values['parent'], values['change'], better)}/{n}",
                "median_ratio_change_over_parent": change["median"] / parent["median"],
                "relative_worsening_of_median": worsening,
                "within_bound": worsening <= spec["bound"],
                "parent_iqr": parent["q3"] - parent["q1"],
                "median_gap": abs(change["median"] - parent["median"]),
            }
        raw = {}
        for key in ("raw_run_s", "raw_setup_s", "scale"):
            values = {s: [r[key] for r in per_side[s]] for s in SIDES}
            raw[key] = {s: quartiles(values[s]) for s in SIDES}
            if key != "scale":
                raw[key]["change_wins"] = f"{wins(values['parent'], values['change'], 'lower')}/{n}"
                raw[key]["median_ratio_parent_over_change"] = (
                    raw[key]["parent"]["median"] / raw[key]["change"]["median"]
                )
        failed = {s: sum(r["failed"] for r in per_side[s]) for s in SIDES}
        attempted = {s: sum(r["attempted"] for r in per_side[s]) for s in SIDES}
        workloads[name] = {
            "metrics": metrics,
            "unscaled": raw,
            "failed": {s: f"{failed[s]} of {attempted[s]}" for s in SIDES},
            "correct": {s: failed[s] == 0 for s in SIDES},
        }

    summary = {
        "workloads": workloads,
        "layers": {
            key: {s: quartiles([t[key] for t in layers[s]]) for s in SIDES}
            for key in layers["parent"][0]
        },
    }
    if claim:
        workload, metric = claim.split(":")
        m = workloads.get(workload, {}).get("metrics", {}).get(metric)
        if m is not None:
            won = int(m["change_wins"].split("/")[0])
            summary["claim"] = {
                "workload": workload,
                "metric": metric,
                "parent_median": m["parent"]["median"],
                "change_median": m["change"]["median"],
                "change_wins": m["change_wins"],
                "parent_iqr": m["parent_iqr"],
                "met": won >= 0.9 * n and m["median_gap"] > m["parent_iqr"]
                and m["relative_worsening_of_median"] < 0.0,
            }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--seeds", required=True, help="e.g. 51-60 or 1,4,9")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs = {side: {name: [] for name in workloads} for side in SIDES}
    layers = {side: [] for side in SIDES}
    pairs = []
    first = None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        dirs = {"parent": Path(tmp), "change": ROOT}
        parent_commit = export(args.parent, dirs["parent"])
        lines = {side: source_lines(dirs[side]) for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                print(f"# seed {seed}: {side}", file=sys.stderr, flush=True)
                records = run_side(dirs[side], workloads, seed)
                first = first or next((r for r in records.values() if r), None)
                for name, record in records.items():
                    runs[side][name].append(None if record is None else run_summary(record))
                layers[side].append(layer_times(dirs[side]))
            pairs.append({"seed": seed, "first": order[0]})
            result = {
                "description": args.description,
                "command": "python3 perfbench/run.py --workload all --seed S",
                "seconds": first and first["seconds"],
                "parent_commit": parent_commit,
                "source_lines": lines,
                "env": first and first["env"],
                "pairs": pairs,
                **summarise(runs, layers, benchmark, args.claim),
            }
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
