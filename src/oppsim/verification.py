"""Closed forms against the oracles, over a grid of forwarder sets.

``run_verification`` is what ``oppsim verify`` runs.  It checks three
cases: every single-hop set of the grid against exhaustive enumeration,
a few two-hop chains against the absorbing-walk oracle, and the frame
miss factors against the per-bit Monte Carlo.
"""

from __future__ import annotations

import functools
import math
from itertools import islice, product

from . import analysis, oracle, topology as topo
from .model import ForwarderEntry, ForwarderSet

DEFAULT_GRID = {
    "sizes": (1, 2, 3, 4),
    "probs": (0.0, 0.25, 0.5, 0.75, 1.0),
    "costs": (0.0, 1.0, 2.5),
}
DEFAULT_TRIALS = 200_000
DEFAULT_SEED = 20_240
SINGLE_HOP_TOLERANCE = 1e-12
COMPOSITION_TOLERANCE = 1e-12
FRAME_SIGMA_TOLERANCE = 3.0


class GridError(ValueError):
    """A grid specification could not be parsed."""


def _sizes(item: str) -> list[int]:
    lo, dash, hi = item.partition("-")
    return list(range(int(lo), int(hi) + 1)) if dash else [int(item)]


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
    return grid["sizes"], grid["probs"], grid["costs"]


def run_verification(
    grid: str | None = None, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
) -> tuple[str, int]:
    """Closed-form versus oracle checks; returns (report, exit_code)."""
    sizes, probs, costs = _parse_grid(grid)
    lines: list[str] = []
    breaches: list[str] = []

    # one validated entry per (node, prob index, cost index), built when the
    # grid first meets it, so a bad value fails where it always did
    entry = functools.cache(lambda node, pi, ci: ForwarderEntry(node, probs[pi], costs[ci]))
    sets_checked = 0
    max_err = 0.0
    for n in sizes:
        points = product(product(range(len(probs)), repeat=n), product(range(len(costs)), repeat=n))
        while block := list(islice(points, oracle.batch_sets(n))):
            sets = [ForwarderSet(tuple(map(entry, range(n), pis, cis))) for pis, cis in block]
            exact = [values.tolist() for values in oracle.exact_single_hop_batch(sets)]
            for (pis, cis), fs, exact_cost, exact_overhead in zip(block, sets, *exact):
                closed_overhead = analysis.coordination_overhead(fs)
                closed_cost = analysis.total_path_cost(fs)
                err = abs(closed_overhead - exact_overhead)
                if not math.isinf(exact_cost):
                    err = max(err, abs(closed_cost - exact_cost))
                elif not math.isinf(closed_cost):
                    breaches.append(
                        "verify breach case=single-hop-grid"
                        f" probs={tuple(probs[i] for i in pis)}"
                        f" costs={tuple(costs[i] for i in cis)}"
                        " closed-form accepted an unreachable set"
                    )
                max_err = max(max_err, err)
                sets_checked += 1
                if err > SINGLE_HOP_TOLERANCE:
                    breaches.append(
                        "verify breach case=single-hop-grid"
                        f" probs={tuple(probs[i] for i in pis)}"
                        f" costs={tuple(costs[i] for i in cis)}"
                        f" closed=({closed_cost:.12g}, {closed_overhead:.12g})"
                        f" oracle=({exact_cost:.12g}, {exact_overhead:.12g})"
                        f" error={err:.3e}"
                    )
    lines.append(
        f"verify case=single-hop-grid sets={sets_checked} max_abs_error={max_err:.3e}"
        f" tolerance={SINGLE_HOP_TOLERANCE:g}"
        f" status={'pass' if max_err <= SINGLE_HOP_TOLERANCE else 'fail'}"
    )

    compositions = [
        ("lossless-two-hop", [1.0, 1.0], 2.0),
        ("partial-two-hop", [0.8, 0.8], 2.5),
        ("single-lossy-hop", [0.5], 2.0),
    ]
    comp_err = 0.0
    for name, successes, expected in compositions:
        chain = topo.chain_topology(successes)
        far = len(successes)
        closed = chain.costs[far]
        spec_links = {
            node: ((node - 1, analysis.link_success(chain.ber(node, node - 1), chain.frame, 1.0)),)
            for node in range(1, far + 1)
        }
        exact_cost = oracle.exact_two_hop(oracle.ChainSpec(source=far, gateway=0, links=spec_links))
        err = max(abs(closed - exact_cost), abs(closed - expected))
        comp_err = max(comp_err, err)
        if err > COMPOSITION_TOLERANCE:
            breaches.append(
                f"verify breach case=two-hop-composition scenario={name}"
                f" closed={closed:.12g} oracle={exact_cost:.12g} expected={expected:.12g}"
            )
    lines.append(
        f"verify case=two-hop-composition scenarios={len(compositions)}"
        f" max_abs_error={comp_err:.3e} tolerance={COMPOSITION_TOLERANCE:g}"
        f" status={'pass' if comp_err <= COMPOSITION_TOLERANCE else 'fail'}"
    )

    frame = topo.DEFAULT_FRAME
    p = 0.01
    estimates = oracle.bit_level_frame_oracle(p, frame, trials, seed)
    closed_factors = {
        "preamble_miss": analysis.preamble_miss_probability(p, frame),
        "data_miss": analysis.data_miss_probability(p, frame),
        "joint_miss": analysis.failure_probability(p, frame, 1.0),
    }
    max_sigma = 0.0
    for name, closed_value in closed_factors.items():
        est = getattr(estimates, name)
        se = math.sqrt(closed_value * (1.0 - closed_value) / trials)
        sigma = abs(est - closed_value) / se if se > 0 else 0.0
        max_sigma = max(max_sigma, sigma)
        if sigma > FRAME_SIGMA_TOLERANCE:
            breaches.append(
                f"verify breach case=bit-level-frames factor={name}"
                f" closed={closed_value:.12g} estimate={est:.12g} sigma={sigma:.2f}"
            )
    lines.append(
        f"verify case=bit-level-frames trials={trials} max_sigma={max_sigma:.2f}"
        f" tolerance={FRAME_SIGMA_TOLERANCE:g}"
        f" status={'pass' if max_sigma <= FRAME_SIGMA_TOLERANCE else 'fail'}"
    )

    lines.extend(breaches)
    code = 2 if breaches else 0
    lines.append(f"verify result={'fail' if breaches else 'pass'} breaches={len(breaches)}")
    return "\n".join(lines) + "\n", code
