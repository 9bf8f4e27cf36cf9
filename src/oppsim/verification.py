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

The work is one ``engine.run_jobs`` call.  The grid is cut into blocks of
at most ``oracle.batch_sets(n)`` sets of one size ``n`` along its leading
index (``_grid_blocks``), and each block is a job that returns its worst
error and its breach lines, and the Monte Carlo is shards of
``_MC_SHARD`` trials; the chains, which take well under a millisecond,
are checked in this process.  The cores claim the jobs in report order,
and no job is long, so no core idles while another finishes one.
The report is assembled in grid order from what the blocks return, so it
is the same on any number of cores; every grid value is checked before
any job runs, so a bad one raises the error the serial grid raised.
"""

from __future__ import annotations

import functools
import math
from itertools import product

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


def _grid_blocks(sizes, probs, costs) -> list[tuple[tuple[int, ...], int, int, int]]:
    """Every block of the grid as ``(radices, lead, first, stop)``, in
    grid order.  A set of size n is a point of 2n digits with these radices,
    its n probability indices and then its n cost indices, in
    ``itertools.product`` order; a block is every point whose ``lead``
    leading digits take the values ``first`` to ``stop - 1``, at most
    ``oracle.batch_sets(n)`` sets."""
    blocks = []
    for n in sizes:
        radices = (len(probs),) * n + (len(costs),) * n
        lead, trailing = 0, math.prod(radices)
        while trailing > oracle.batch_sets(n):
            trailing //= radices[lead]
            lead += 1
        heads, per = math.prod(radices[:lead]), oracle.batch_sets(n) // trailing
        for first in range(0, heads, per):
            stop = min(first + per, heads)
            blocks.append((radices, lead, first, stop))
    return blocks


def _points(radices, lead: int, first: int, stop: int):
    """The points whose ``lead`` leading digits run from ``first`` to
    ``stop - 1``, in grid order: each head's digits, read off its index,
    before every tail of the other digits."""
    tails = list(product(*map(range, radices[lead:])))
    for index in range(first, stop):
        head = ()
        for radix in reversed(radices[:lead]):
            index, digit = divmod(index, radix)
            head = (digit, *head)
        for tail in tails:
            yield head + tail


def _set_breach(probs, costs, n, point, quantity, closed, value, err) -> str:
    return (f"probs={tuple(probs[i] for i in point[:n])} costs={tuple(costs[i] for i in point[n:])}"
            f" quantity={quantity} closed={closed:.12g} oracle={value:.12g} error={err:.3e}")


def _grid_block(probs, costs, radices, lead: int, first: int, stop: int) -> tuple[float, list[str]]:
    """The worst error and the breach lines of one block of the grid (see
    ``_grid_blocks``): per set, the errors of its cost and of its overhead."""
    n = len(radices) // 2
    # one entry per (node, prob index, cost index); run_verification has
    # checked every value, so the order they are built in cannot matter
    entry = functools.cache(lambda node, pi, ci: ForwarderEntry(node, probs[pi], costs[ci]))
    nodes = range(n)
    points = list(_points(radices, lead, first, stop))
    sets = [ForwarderSet(tuple(map(entry, nodes, point[:n], point[n:]))) for point in points]
    exact_costs, exact_overheads = (values.tolist() for values in oracle.exact_single_hop_batch(sets))
    checks = zip(points, map(analysis.total_path_cost, sets), exact_costs,
                 map(analysis.coordination_overhead, sets), exact_overheads)
    return _tally("single-hop-grid", SINGLE_HOP_TOLERANCE, _set_errors(checks),
                  functools.partial(_set_breach, probs, costs, n))


def _set_errors(checks):
    """Per grid set, the errors of its cost and of its overhead, each with
    what its breach line names."""
    for point, cost, exact_cost, overhead, exact_overhead in checks:
        # equal values, both inf included, are no error
        yield abs(cost - exact_cost) if cost != exact_cost else 0.0, (point, "cost", cost, exact_cost)
        yield (abs(overhead - exact_overhead) if overhead != exact_overhead else 0.0,
               (point, "overhead", overhead, exact_overhead))


def _composition_breach(name, closed, against, value, err) -> str:
    return f"scenario={name} closed={closed:.12g} {against}={value:.12g} error={err:.3e}"


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
            yield abs(closed - value), (name, closed, against, value)


def _frame_breach(name, closed, est, err) -> str:
    return f"factor={name} closed={closed:.12g} estimate={est:.12g} sigma={err:.2f}"


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
        yield sigma, (name, closed, est)


def _tally(case: str, tolerance: float, checks, describe) -> tuple[float, list[str]]:
    """The worst error of ``checks``, ``(error, args)`` pairs, and a breach
    line, ``describe(*args, error)``, per error past ``tolerance``."""
    worst, breaches = 0.0, []
    for err, args in checks:
        # the one comparison, so a NaN breaches
        if not err <= tolerance:
            breaches.append(f"verify breach case={case} {describe(*args, err)}")
            err = math.inf if math.isnan(err) else err
        if err > worst:
            worst = err
    return worst, breaches


def _check_grid_values(probs, costs) -> None:
    """Build one entry of each grid value, in the order the serial grid
    first meets them: a bad value raises the error it always raised, also
    when the blocks that meet it run elsewhere or later."""
    for cost in costs:
        ForwarderEntry(0, probs[0], cost)
    for prob in probs:
        ForwarderEntry(0, prob, costs[0])


def run_verification(
    grid: str | None = None, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
) -> tuple[str, int]:
    """Closed-form versus oracle checks; returns (report, exit_code)."""
    sizes, probs, costs, sets = _parse_grid(grid)
    _check_grid_values(probs, costs)
    blocks = _grid_blocks(sizes, probs, costs)
    # the Monte Carlo in shards of consecutive trials; a run of fewer than
    # 1 trial is one shard, which refuses it
    shards = [(first, min(_MC_SHARD, trials - first)) for first in range(0, max(trials, 1), _MC_SHARD)]
    jobs = [
        *(functools.partial(_grid_block, probs, costs, *block) for block in blocks),
        *(functools.partial(oracle.bit_level_frame_oracle, FRAME_BER, topo.DEFAULT_FRAME, count, seed,
                            first, trials)
          for first, count in shards),
    ]
    # the grid and the Monte Carlo run on numpy; imported here, once, it is
    # in every forked child's memory instead of imported again by each
    import numpy  # noqa: F401

    results = engine.run_jobs(jobs)
    grid_tallies, estimates = results[:len(blocks)], results[len(blocks):]
    grid_worst = max(worst for worst, _ in grid_tallies)
    # the chains take well under a millisecond: no job of their own
    composition = _tally("two-hop-composition", COMPOSITION_TOLERANCE, _composition_checks(), _composition_breach)
    frames = _tally("bit-level-frames", FRAME_SIGMA_TOLERANCE,
                    _frame_checks(oracle.FrameMissEstimates.pooled(estimates)), _frame_breach)
    cases = (
        ("single-hop-grid", f"sets={sets} max_abs_error={grid_worst:.3e}", SINGLE_HOP_TOLERANCE,
         [line for _, lines in grid_tallies for line in lines]),
        ("two-hop-composition", f"scenarios={len(COMPOSITIONS)} max_abs_error={composition[0]:.3e}",
         COMPOSITION_TOLERANCE, composition[1]),
        ("bit-level-frames", f"trials={trials} max_sigma={frames[0]:.2f}", FRAME_SIGMA_TOLERANCE, frames[1]),
    )
    lines = [f"verify case={case} {summary} tolerance={tolerance:g} status={'fail' if breaches else 'pass'}"
             for case, summary, tolerance, breaches in cases]
    breaches = [line for *_, case_breaches in cases for line in case_breaches]
    lines += breaches
    lines.append(f"verify result={'fail' if breaches else 'pass'} breaches={len(breaches)}")
    return "\n".join(lines) + "\n", 2 if breaches else 0
