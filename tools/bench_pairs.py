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
timed on one CPU so that it forks no child for that trial, and the
200,000-trial ``bit_level_frame_oracle``) on each side, best of k,
in the same alternating order, and records each side's source-line count
of ``src/oppsim/*.py`` (as ``wc -l`` counts them) as ``source_lines``.
After each side's run it probes each workload's garbage collector
(``gc_generation2``): in a fresh process on that side, the cores the
process may run on and, over 8 repeats of run.py's cycle (set-up,
``gc.collect()``, CLI call, reference loop), how many generation-2
collections start in the set-up, the call and the loop.  A collection that
falls in the loop slows it and so shrinks the scale run.py applies to that
call (see ``perfbench/run.py``).

Per workload and end-to-end metric the output holds each side's q1, median
and q3 of the benchmark's (scaled) value, the change's wins over the pairs
(ties count for neither), the parent's interquartile range and the bound
from ``BENCHMARK.json``; per workload also each side's raw (unscaled)
run_s and setup_s medians and the median scale factor.  The file is
rewritten after every pair, so an interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
GC_CYCLES = 8
GC_PHASES = ("setup", "call", "loop")

LAYER_SNIPPET = r"""
import json, os, sys, time
sys.path.insert(0, "src")
from oppsim import analysis, oracle, topology, verification

def best(fn, k):
    times = []
    for _ in range(k):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)

def on_one_cpu(measure):
    # pinned, a forking call has no second core and runs serially
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return measure()
    finally:
        os.sched_setaffinity(0, cpus)

mesh_config = topology.GeneratorConfig(
    nodes=1000, area_side=100.0, radio_range=8.0, ber_model=topology.DistanceBer(0.0, 0.005)
)
mesh = topology.generate(mesh_config, seed=1)
print(json.dumps({
    "generate_1000_s": best(lambda: topology.generate(mesh_config, seed=1), 5),
    "star_topology_6_s": best(lambda: topology.star_topology(6, 0.7), 20),
    "network_path_costs_1000_s": best(lambda: analysis.network_path_costs(mesh), 5),
    "verify_single_hop_grid_s": on_one_cpu(lambda: best(
        lambda: verification.run_verification("sizes=1-4;probs=0,0.5,1;costs=0,1,2.5", trials=1), 5
    )),
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


def gc_phases(setup, call, loop, cycles: int = GC_CYCLES) -> dict:
    """Repeat run.py's cycle ``setup()``, ``gc.collect()``, ``call()``,
    ``loop()`` ``cycles`` times; return how many generation-2 collections
    start in each of the set-up, the call and the loop.  The cycle's own
    ``gc.collect()`` is not counted."""
    counts = dict.fromkeys(GC_PHASES, 0)
    phase = None

    def observe(event: str, info: dict) -> None:
        if event == "start" and info["generation"] == 2 and phase is not None:
            counts[phase] += 1

    gc.callbacks.append(observe)
    try:
        for _ in range(cycles):
            for phase, step in (("setup", setup), (None, gc.collect), ("call", call), ("loop", loop)):
                step()
    finally:
        gc.callbacks.remove(observe)
    return counts


def probe(name: str, seed: int, cycles: int = GC_CYCLES) -> None:
    """Print, as one JSON line, the cores this process may run on and
    ``gc_phases`` of workload ``name`` at benchmark seed ``seed``, timed as
    run.py times it, on the checkout in the working directory."""
    sys.path.insert(0, "perfbench")
    import run

    oppsim, _ = run.import_oppsim(Path.cwd())
    workload = run.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix="bench-probe-") as tmp:
        argv = run.prepare_argv(workload, seed % run.VARIANTS, Path(tmp))
        run.invoke(oppsim.cli, argv)  # warm-up, as run.py's
        counts = gc_phases(
            lambda: workload.setup(oppsim), lambda: run.invoke(oppsim.cli, argv),
            run.reference_loop, cycles,
        )
    print(json.dumps({"cores": len(os.sched_getaffinity(0)), **counts}))


def gc_probe(side_dir: Path, name: str, seed: int, cycles: int = GC_CYCLES) -> dict:
    """``probe`` of one workload, in a fresh process on the side in ``side_dir``."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import bench_pairs; "
            f"bench_pairs.probe({name!r}, {seed}, {cycles})")
    done = subprocess.run([sys.executable, "-c", code], cwd=side_dir, check=True,
                          capture_output=True, text=True, timeout=600)
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
    probes = {name: {side: [] for side in SIDES} for name in workloads}
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
                for name in workloads:
                    probes[name][side].append(gc_probe(dirs[side], name, seed))
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
                # per workload and side, one probe per pair
                "gc_generation2": {"cycles": GC_CYCLES, "workloads": probes},
            }
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
