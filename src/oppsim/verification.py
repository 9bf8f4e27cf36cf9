"""Closed forms against the oracles, over a grid of forwarder sets.

``run_verification`` is what ``oppsim verify`` runs, and
``prepare_verification`` checks its arguments before any work.  Each of
its three cases is a list of errors held to one tolerance: every
single-hop set of the grid against exhaustive enumeration (cost and
overhead, 1e-12), a few chains' costs against the absorbing-walk oracle
and their known values (1e-12), and the frame miss factors against the
per-bit Monte Carlo (3 binomial standard errors; a closed factor of 0 or
1 has none, so any estimate off it breaches).  An error passes only if
``err <= tolerance``, so a NaN breaches and counts as ``inf`` in its
case's worst value, and a case reads ``status=fail`` exactly when it has
a breach line.

The work is one ``engine.run_jobs`` call.  Its jobs are the grid, cut
into runs of at most ``oracle.batch_sets(n)`` sets of one size ``n``
numbered in ``itertools.product`` order (``_grid_blocks``), each
returning its worst error and its breach lines, and the Monte Carlo in
shards of ``_MC_SHARD`` trials; the chains, well under a millisecond,
are checked in this process.  The cores claim the jobs in report order,
and no job is long, so no core idles while another finishes one.  The
report is assembled in grid order, so it is the same on any number of
cores, and every argument and grid value is checked before any job runs,
so a bad one raises the serial grid's error.
"""

from __future__ import annotations

import functools
import math

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
    """A refused ``verify`` argument: its grid, trial count or seed."""


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


def _grid_blocks(sizes, probs, costs) -> list[tuple[int, int, int]]:
    """Every block of the grid as ``(n, first, stop)``, in grid order: at most
    ``oracle.batch_sets(n)`` sets of size n, numbered ``first`` to ``stop - 1``
    in ``itertools.product`` order over their n prob and then n cost indices."""
    blocks = []
    for n in sizes:
        sets, per = (len(probs) * len(costs)) ** n, oracle.batch_sets(n)
        blocks += [(n, first, min(first + per, sets)) for first in range(0, sets, per)]
    return blocks


def _grid_indices(probs, costs, n: int, first: int, stop: int):
    """The probability and the cost indices of the sets of size n numbered
    ``first`` to ``stop - 1`` (see ``_grid_blocks``), decoded as two halves
    of n digits each."""
    import numpy as np

    def digits(numbers, radix):
        return zip(*(column.tolist() for column in np.unravel_index(numbers, (radix,) * n)))

    prob_numbers, cost_numbers = divmod(np.arange(first, stop), len(costs) ** n)
    return zip(digits(prob_numbers, len(probs)), digits(cost_numbers, len(costs)))


def _set_breach(probs, costs, n, number, quantity, closed, value, err) -> str:
    (prob_indices, cost_indices), = _grid_indices(probs, costs, n, number, number + 1)
    return (f"probs={tuple(probs[i] for i in prob_indices)} costs={tuple(costs[i] for i in cost_indices)}"
            f" quantity={quantity} closed={closed:.12g} oracle={value:.12g} error={err:.3e}")


def _grid_block(probs, costs, n: int, first: int, stop: int) -> tuple[float, list[str]]:
    """The worst error and the breach lines of one block of the grid (see
    ``_grid_blocks``): per set, the errors of its cost and of its overhead."""
    # one entry per (node, prob index, cost index); prepare_verification has
    # checked every value, so the order they are built in cannot matter
    entry = functools.cache(lambda node, pi, ci: ForwarderEntry(node, probs[pi], costs[ci]))
    nodes = range(n)
    sets = [ForwarderSet(tuple(map(entry, nodes, prob_indices, cost_indices)))
            for prob_indices, cost_indices in _grid_indices(probs, costs, n, first, stop)]
    exact_costs, exact_overheads = (values.tolist() for values in oracle.exact_single_hop_batch(sets))
    checks = zip(range(first, stop), map(analysis.total_path_cost, sets), exact_costs,
                 map(analysis.coordination_overhead, sets), exact_overheads)
    return _tally("single-hop-grid", SINGLE_HOP_TOLERANCE, _set_errors(checks),
                  functools.partial(_set_breach, probs, costs, n))


def _set_errors(checks):
    """Per grid set, the errors of its cost and of its overhead, each with
    what its breach line names."""
    for number, cost, exact_cost, overhead, exact_overhead in checks:
        # equal values, both inf included, are no error
        yield abs(cost - exact_cost) if cost != exact_cost else 0.0, (number, "cost", cost, exact_cost)
        yield (abs(overhead - exact_overhead) if overhead != exact_overhead else 0.0,
               (number, "overhead", overhead, exact_overhead))


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


def run_verification(grid: str | None = None, trials: int = DEFAULT_TRIALS,
                     seed: int = DEFAULT_SEED) -> tuple[str, int]:
    """Closed-form versus oracle checks; returns (report, exit_code).  Every
    refusal comes before any work (see ``prepare_verification``)."""
    return prepare_verification(grid, trials, seed)()


def prepare_verification(grid: str | None, trials: int, seed: int):
    """``run_verification``'s checks, before any work, and then the call that
    runs it.  ``GridError``: fewer than 1 trial, more than ``MAX_TRIALS``
    trials, a negative seed (in that order, in ``oppsim verify``'s words),
    then a grid that does not parse or makes more than ``MAX_GRID_SETS``
    sets; a grid value no forwarder entry takes raises that entry's error."""
    if trials < 1:
        raise GridError("--trials must be >= 1")
    if trials > MAX_TRIALS:
        raise GridError(f"--trials must be <= {MAX_TRIALS}")
    if seed < 0:
        raise GridError("--seed must be >= 0")
    sizes, probs, costs, sets = _parse_grid(grid)
    # one entry of each grid value, in the serial grid's order: a bad one raises
    # its usual error, also when the block that meets it runs elsewhere or later
    for cost in costs:
        ForwarderEntry(0, probs[0], cost)
    for prob in probs:
        ForwarderEntry(0, prob, costs[0])
    return functools.partial(_verify, sizes, probs, costs, sets, trials, seed)


def _verify(sizes, probs, costs, sets: int, trials: int, seed: int) -> tuple[str, int]:
    blocks = _grid_blocks(sizes, probs, costs)
    jobs = [functools.partial(_grid_block, probs, costs, *block) for block in blocks]
    # the Monte Carlo in shards of consecutive trials
    jobs += (functools.partial(oracle.bit_level_frame_oracle, FRAME_BER, topo.DEFAULT_FRAME,
                               min(_MC_SHARD, trials - first), seed, first, trials)
             for first in range(0, trials, _MC_SHARD))
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
    lines += [*breaches, f"verify result={'fail' if breaches else 'pass'} breaches={len(breaches)}"]
    return "\n".join(lines) + "\n", 2 if breaches else 0
