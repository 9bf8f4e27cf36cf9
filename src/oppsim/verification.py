"""Closed forms against the oracles, over a grid of forwarder sets.

``run_verification`` is what ``oppsim verify`` runs.  Each of its three
cases is a list of errors held to one tolerance: every single-hop set of
the grid against exhaustive enumeration (cost and overhead, 1e-12), a few
chains' costs against the absorbing-walk oracle and their known values
(1e-12), and the frame miss factors against the per-bit Monte Carlo (3
binomial standard errors; a closed factor of 0 or 1 has none, so any
estimate off it breaches).  An error passes only if ``err <= tolerance``,
so a NaN breaches and counts as ``inf`` in its case's worst value, and a
case reads ``status=fail`` exactly when it has a breach line.
"""

from __future__ import annotations

import functools
import math
from itertools import islice, product

from . import analysis, engine, oracle, topology as topo
from .model import ForwarderEntry, ForwarderSet

DEFAULT_GRID = {
    "sizes": (1, 2, 3, 4),
    "probs": (0.0, 0.25, 0.5, 0.75, 1.0),
    "costs": (0.0, 1.0, 2.5),
}
DEFAULT_TRIALS = 200_000
DEFAULT_SEED = 20_240
# work bounds: 759,375 sets (sizes=5) take about 8 s, 10**8 trials about 30 s
MAX_GRID_SETS = 1_000_000
MAX_TRIALS = 100_000_000
SINGLE_HOP_TOLERANCE = 1e-12
COMPOSITION_TOLERANCE = 1e-12
FRAME_SIGMA_TOLERANCE = 3.0
FRAME_BER = 0.01
# a quarter of the per-bit Monte Carlo's 65,536-trial chunk, so no shard spans two
_MC_SHARD = 16_384

# scenario, per-link success probabilities, known cost of the far end
COMPOSITIONS = (
    ("lossless-two-hop", (1.0, 1.0), 2.0),
    ("partial-two-hop", (0.8, 0.8), 2.5),
    ("single-lossy-hop", (0.5,), 2.0),
)


class GridError(ValueError):
    """A grid specification could not be parsed."""


def _sizes(item: str) -> list[int]:
    lo, dash, hi = item.partition("-")
    lo = int(lo)
    # a range longer than the enumeration bound is cut one size past it, a size that is refused
    return list(range(lo, min(int(hi), lo + oracle.MAX_ENUMERATION_SIZE) + 1)) if dash else [lo]


def _parse_grid(spec: str | None):
    grid = {key: list(values) for key, values in DEFAULT_GRID.items()}
    for part in (spec or "").split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise GridError(f"bad grid fragment {part!r}; expected key=values")
        key, _, body = (s.strip() for s in part.partition("="))
        if key not in grid:
            raise GridError(f"unknown grid key {key!r}")
        items = [i for i in body.split(",") if i.strip()]
        try:
            if key == "sizes":
                grid[key] = [size for item in items for size in _sizes(item)]
            else:
                grid[key] = [float(i) for i in items]
        except ValueError:
            raise GridError(f"bad {key} list {body!r}") from None
    if not all(grid.values()):
        raise GridError("empty verification grid")
    if any(s < 1 for s in grid["sizes"]):
        raise GridError("grid sizes must be >= 1")
    for n in grid["sizes"]:
        oracle._check_enumerable(n)
    sets = sum((len(grid["probs"]) * len(grid["costs"])) ** n for n in grid["sizes"])
    if sets > MAX_GRID_SETS:
        raise GridError(f"--grid must make at most {MAX_GRID_SETS} forwarder sets")
    return grid["sizes"], grid["probs"], grid["costs"], sets


def _single_hop_checks(sizes, probs, costs):
    """Per grid set, the errors of its cost and of its overhead."""
    # one validated entry per (node, prob index, cost index), built when the
    # grid first meets it, so a bad value fails where it always did
    entry = functools.cache(lambda node, pi, ci: ForwarderEntry(node, probs[pi], costs[ci]))
    # a block's points share one tuple per cost-index combination; cleared
    # per block, so it never holds more than one block's
    shared = {}
    for n in sizes:
        # nested loops: an outer product would first copy both inner ones whole
        points = ((pis, shared.setdefault(cis, cis)) for pis in product(range(len(probs)), repeat=n)
                  for cis in product(range(len(costs)), repeat=n))
        while block := list(islice(points, oracle.batch_sets(n))):
            shared.clear()
            sets = [ForwarderSet(tuple(map(entry, range(n), pis, cis))) for pis, cis in block]
            exact = [values.tolist() for values in oracle.exact_single_hop_batch(sets)]
            for (pis, cis), fs, exact_cost, exact_overhead in zip(block, sets, *exact):
                for quantity, closed, value in (
                    ("cost", analysis.total_path_cost(fs), exact_cost),
                    ("overhead", analysis.coordination_overhead(fs), exact_overhead),
                ):
                    # equal values, both inf included, are no error
                    yield (abs(closed - value) if closed != value else 0.0), lambda err: (
                        f"probs={tuple(probs[i] for i in pis)} costs={tuple(costs[i] for i in cis)}"
                        f" quantity={quantity} closed={closed:.12g} oracle={value:.12g}"
                        f" error={err:.3e}"
                    )


def _composition_checks():
    """Per chain, the far end's cost against the oracle and its known value."""
    for name, successes, expected in COMPOSITIONS:
        chain, far = topo.chain_topology(successes), len(successes)
        closed = chain.costs[far]
        spec_links = {
            node: ((node - 1, analysis.link_success(chain.ber(node, node - 1), chain.frame, 1.0)),)
            for node in range(1, far + 1)
        }
        exact = oracle.exact_two_hop(oracle.ChainSpec(source=far, gateway=0, links=spec_links))
        for against, value in (("oracle", exact), ("expected", expected)):
            yield abs(closed - value), lambda err: (
                f"scenario={name} closed={closed:.12g} {against}={value:.12g} error={err:.3e}"
            )


def _frame_checks(estimates: oracle.FrameMissEstimates):
    """Per frame factor, the estimate's distance from the closed value in
    binomial standard errors."""
    frame, p, trials = topo.DEFAULT_FRAME, FRAME_BER, estimates.trials
    for name, closed in (
        ("preamble_miss", analysis.preamble_miss_probability(p, frame)),
        ("data_miss", analysis.data_miss_probability(p, frame)),
        ("joint_miss", analysis.failure_probability(p, frame, 1.0)),
    ):
        est = getattr(estimates, name)
        se = math.sqrt(closed * (1.0 - closed) / trials)
        # a closed value of 0 or 1 has no spread: only itself is within it
        sigma = abs(est - closed) / se if se > 0 else (0.0 if est == closed else math.inf)
        yield sigma, lambda err: (
            f"factor={name} closed={closed:.12g} estimate={est:.12g} sigma={err:.2f}"
        )


def _case(case: str, summary: str, tolerance: float, checks) -> tuple[str, list[str]]:
    """A case's status line and its breach lines."""
    worst, breaches = 0.0, []
    for err, detail in checks:
        # the one comparison, so a NaN breaches; ``detail`` reads the
        # check's variables, so it formats before the checks move on
        if not err <= tolerance:
            breaches.append(f"verify breach case={case} {detail(err)}")
            err = math.inf if math.isnan(err) else err
        worst = max(worst, err)
    return (f"verify case={case} {summary.format(worst)} tolerance={tolerance:g}"
            f" status={'fail' if breaches else 'pass'}"), breaches


def run_verification(
    grid: str | None = None, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
) -> tuple[str, int]:
    """Closed-form versus oracle checks; returns (report, exit_code)."""
    sizes, probs, costs, sets = _parse_grid(grid)
    exact = (
        ("single-hop-grid", f"sets={sets} max_abs_error={{:.3e}}", SINGLE_HOP_TOLERANCE,
         _single_hop_checks(sizes, probs, costs)),
        ("two-hop-composition", f"scenarios={len(COMPOSITIONS)} max_abs_error={{:.3e}}",
         COMPOSITION_TOLERANCE, _composition_checks()),
    )
    # the Monte Carlo in shards of consecutive trials, which the cores claim
    # beside the grid; a run of fewer than 1 trial is one shard, which refuses it
    shards = [
        functools.partial(oracle.bit_level_frame_oracle, FRAME_BER, topo.DEFAULT_FRAME,
                          min(_MC_SHARD, trials - first), seed, first, trials)
        for first in range(0, max(trials, 1), _MC_SHARD)
    ]
    # the grid and the Monte Carlo run on numpy; imported here, once, it is
    # in every forked child's memory instead of imported again by each
    import numpy  # noqa: F401

    cases, *estimates = engine.run_jobs([lambda: [_case(*c) for c in exact], *shards])
    cases.append(_case("bit-level-frames", f"trials={trials} max_sigma={{:.2f}}",
                       FRAME_SIGMA_TOLERANCE,
                       _frame_checks(oracle.FrameMissEstimates.pooled(estimates))))
    breaches = [breach for _, case_breaches in cases for breach in case_breaches]
    lines = [line for line, _ in cases] + breaches
    lines.append(f"verify result={'fail' if breaches else 'pass'} breaches={len(breaches)}")
    return "\n".join(lines) + "\n", 2 if breaches else 0
