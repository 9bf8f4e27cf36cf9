"""The benchmark's workloads.

Each workload is one ``oppsim`` subcommand on a fixed configuration.  A
workload knows the CLI arguments it times, the topologies its set-up
builds, and the checks its output must pass.  The benchmark seed selects
one of ``VARIANTS`` input variants (``seed % VARIANTS``); every variant
has a golden sha256 of the seed code's output in ``golden.json``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

VARIANTS = 32

STAR_P_LINK = 0.7
STAR_REMAINING_COST = 1.0
STAR_FORWARDERS = (1, 2, 3, 4, 5, 6)
STAR_REPLICATIONS = 1000
STAR_SIGMA_BOUND = 4.0

MESH_NODES = 1000
MESH_AREA_SIDE = 100.0
MESH_RADIO_RANGE = 8.0
MESH_BER = (0.0, 0.005)
# the CLI's default topology seed; the benchmark seed varies the replications,
# not the graph, because run time differs by more than half between graphs
MESH_TOPOLOGY_SEED = 1
MESH_REPLICATIONS = 1000

# The default sizes and costs with probabilities 0, 0.5 and 1 only: 7,380
# sets instead of 54,240, so that one call takes well under a second, like
# the other workloads' calls.  On this machine other tenants slow the
# processor in bursts; a 2-second call rarely escapes them, and a run's
# timing varied by 30% between runs.  With the default number of
# trials the per-bit Monte Carlo is about a third of the call.
VERIFY_GRID = "sizes=1-4;probs=0,0.5,1;costs=0,1,2.5"
VERIFY_GRID_SETS = 7_380
VERIFY_TRIALS = 200_000
# the chains run_verification composes, built again by the set-up
VERIFY_CHAINS = ((1.0, 1.0), (0.8, 0.8), (0.5,))

MODES = ("receiver_based", "sender_prioritized")


@dataclass(frozen=True)
class Workload:
    name: str
    # the CLI arguments for a variant, given the path of its config file
    argv: Callable[[int, str], list[str]]
    # YAML config for a variant, or None when the subcommand takes none
    config: Callable[[int], str | None]
    # engine replications (Monte Carlo trials for verify) per CLI run
    replications: int
    setup: Callable[[object], None]
    # problems found in a CLI run's output; empty when it is correct
    check: Callable[[str], list[str]]


def _prepared(oppsim, built) -> None:
    violations = oppsim.model.validate(built)
    if violations:
        raise RuntimeError(f"set-up built an invalid topology: {violations[0].message}")
    oppsim.analysis.network_path_costs(built)


def _csv_rows(output: str) -> list[dict[str, str]]:
    body = "".join(line + "\n" for line in output.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _mode_mismatches(rows: list[dict[str, str]], label: str) -> list[str]:
    """Rows of the two election modes must agree in every column but
    ``mode``: both modes run on the same seed and rank by the same cost."""
    if [r["mode"] for r in rows] != list(MODES):
        return [f"{label}: expected one row per mode {MODES}, got {[r['mode'] for r in rows]}"]
    first, second = ({k: v for k, v in r.items() if k != "mode"} for r in rows)
    if first != second:
        diff = sorted(k for k in first if first[k] != second[k])
        return [
            f"{label}: modes disagree on {', '.join(diff)}: "
            + "; ".join(f"{k} {first[k]} vs {second[k]}" for k in diff)
        ]
    return []


# ------------------------------------------------------------ star-sweep --


def _star_config(variant: int) -> str:
    return (
        f"topology: {{kind: star, forwarders: {STAR_FORWARDERS[-1]}, p_link: {STAR_P_LINK},"
        f" remaining_cost: {STAR_REMAINING_COST}}}\n"
        f"sim: {{mode: both, replications: {STAR_REPLICATIONS}, seed: {variant}}}\n"
        f"sweep: {{parameter: forwarders, values: {list(STAR_FORWARDERS)}}}\n"
    )


def _star_setup(oppsim) -> None:
    for n in STAR_FORWARDERS:
        _prepared(
            oppsim,
            oppsim.topology.star_topology(n, STAR_P_LINK, remaining_cost=STAR_REMAINING_COST),
        )


def _star_check(output: str) -> list[str]:
    rows = _csv_rows(output)
    problems: list[str] = []
    counts = [str(n) for n in STAR_FORWARDERS]
    if [r.get("forwarders") for r in rows] != [c for c in counts for _ in MODES]:
        return [f"star-sweep: unexpected rows {[r.get('forwarders') for r in rows]}"]
    for i, n in enumerate(STAR_FORWARDERS):
        pair = rows[2 * i : 2 * i + 2]
        problems += _mode_mismatches(pair, f"star-sweep forwarders={n}")
        # N identical candidates: overhead Y (1 - (1 - p)^N); each
        # replication elects a relay (cost Y) or nobody, so the empirical
        # mean has standard error Y sqrt(q (1 - q) / R) with q = 1 - (1 - p)^N
        q = 1.0 - (1.0 - STAR_P_LINK) ** n
        expected = STAR_REMAINING_COST * q
        sigma = STAR_REMAINING_COST * math.sqrt(q * (1.0 - q) / STAR_REPLICATIONS)
        for row in pair:
            analytic = float(row["analytic_overhead"])
            empirical = float(row["empirical_overhead"])
            if not math.isclose(analytic, expected, rel_tol=1e-9):
                problems.append(
                    f"star-sweep forwarders={n} {row['mode']}: analytic_overhead {analytic}"
                    f" != {expected:.12g}"
                )
            if abs(empirical - expected) > STAR_SIGMA_BOUND * sigma:
                problems.append(
                    f"star-sweep forwarders={n} {row['mode']}: empirical_overhead {empirical}"
                    f" is {abs(empirical - expected) / sigma:.1f} sigma from {expected:.12g}"
                )
    return problems


# --------------------------------------------------------- mesh-simulate --


def _mesh_config(variant: int) -> str:
    return (
        f"topology: {{kind: generated, nodes: {MESH_NODES}, area_side: {MESH_AREA_SIDE},"
        f" radio_range: {MESH_RADIO_RANGE}, seed: {MESH_TOPOLOGY_SEED},"
        f" ber: {{kind: distance, p_min: {MESH_BER[0]}, p_max: {MESH_BER[1]}}}}}\n"
        f"sim: {{mode: both, replications: {MESH_REPLICATIONS}, seed: {variant}}}\n"
    )


def _mesh_setup(oppsim) -> None:
    topology = oppsim.topology
    config = topology.GeneratorConfig(
        nodes=MESH_NODES,
        area_side=MESH_AREA_SIDE,
        radio_range=MESH_RADIO_RANGE,
        ber_model=topology.DistanceBer(*MESH_BER),
    )
    _prepared(oppsim, topology.generate(config, seed=MESH_TOPOLOGY_SEED))


def _mesh_check(output: str) -> list[str]:
    rows = _csv_rows(output)
    problems = _mode_mismatches(rows, "mesh-simulate")
    for row in rows:
        if row.get("replications") != str(MESH_REPLICATIONS):
            problems.append(f"mesh-simulate {row.get('mode')}: replications {row.get('replications')}")
    return problems


# ----------------------------------------------------------- verify-grid --


def _verify_setup(oppsim) -> None:
    for successes in VERIFY_CHAINS:
        _prepared(oppsim, oppsim.topology.chain_topology(list(successes)))


def _verify_check(output: str) -> list[str]:
    lines = output.splitlines()
    problems = []
    if not lines or lines[-1] != "verify result=pass breaches=0":
        problems.append(f"verify-grid: last line {lines[-1] if lines else ''!r}, expected a pass")
    if not any(f"case=single-hop-grid sets={VERIFY_GRID_SETS} " in line for line in lines):
        problems.append(f"verify-grid: single-hop grid did not check {VERIFY_GRID_SETS} sets")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="star-sweep",
            argv=lambda variant, path: ["sweep", path],
            config=_star_config,
            replications=STAR_REPLICATIONS * len(STAR_FORWARDERS) * len(MODES),
            setup=_star_setup,
            check=_star_check,
        ),
        Workload(
            name="mesh-simulate",
            argv=lambda variant, path: ["simulate", path],
            config=_mesh_config,
            replications=MESH_REPLICATIONS * len(MODES),
            setup=_mesh_setup,
            check=_mesh_check,
        ),
        Workload(
            name="verify-grid",
            argv=lambda variant, path: [
                "verify", "--grid", VERIFY_GRID, "--trials", str(VERIFY_TRIALS),
                "--seed", str(variant),
            ],
            config=lambda variant: None,
            replications=VERIFY_TRIALS,
            setup=_verify_setup,
            check=_verify_check,
        ),
    )
}
