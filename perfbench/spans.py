"""Per-layer tracing from outside the package.

For a traced CLI run the benchmark replaces public functions of the
``oppsim`` modules with wrappers that record a span per call (name, start,
end, parent) in memory.  The package itself is not changed: every wrapped
attribute is put back when the ``Tracer`` context exits, so untraced runs
time unmodified code.  A layer is one package module; a span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# layer -> wrapped functions.  Internal calls by global name go through the
# wrappers too, because a module's attributes are its globals.
TARGETS = {
    "cli": ("main",),
    "model": ("validate",),
    "topology": (
        "generate", "star_topology", "chain_topology",
        "ber_for_link_success", "ber_for_reception",
        "assign_hop_ids", "compute_ranks",
    ),
    "analysis": (
        "network_path_costs", "link_success", "reception_probability",
        "total_path_cost", "coordination_overhead",
        "set_failure_probability", "expected_retransmissions",
    ),
    "engine": ("run_experiment", "simulate_delivery"),
    "oracle": ("exact_single_hop", "exact_two_hop", "bit_level_frame_oracle"),
}
LAYERS = tuple(TARGETS)
ROOT = "cli.main"

BUILDERS = ("topology.generate", "topology.star_topology", "topology.chain_topology")
BISECTIONS = ("topology.ber_for_link_success", "topology.ber_for_reception")
CLOSED_FORMS = (
    "analysis.total_path_cost", "analysis.coordination_overhead",
    "analysis.set_failure_probability", "analysis.expected_retransmissions",
)
# bytes the bit-level oracle allocates per simulated bit: one float64
# uniform draw and one bool comparison
ORACLE_BYTES_PER_BIT = 8 + 1

# metric name -> unit, in the order the benchmark prints them
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "model.self_s": "s",
    "model.validate_s": "s",
    "topology.self_s": "s",
    "topology.generate_s": "s",
    "topology.bisection_s": "s",
    "topology.bisection_calls": "count",
    "topology.links": "count",
    "topology.max_hop_id": "count",
    "analysis.self_s": "s",
    "analysis.network_path_costs_s": "s",
    "analysis.network_path_costs_calls": "count",
    "analysis.link_success_calls": "count",
    "analysis.closed_form_calls": "count",
    "analysis.closed_form_us_per_call": "us",
    "analysis.unreachable_set_errors": "count",
    "engine.self_s": "s",
    "engine.run_experiment_s": "s",
    "engine.replication_us.p50": "us",
    "engine.replication_us.p99": "us",
    "engine.events_per_replication": "count",
    "engine.transmissions_per_replication": "count",
    "engine.duplicate_forwards_per_replication": "count",
    "oracle.self_s": "s",
    "oracle.exact_single_hop_calls": "count",
    "oracle.exact_single_hop_us_per_call": "us",
    "oracle.bit_level_s": "s",
    "oracle.bit_level_bits_drawn": "count",
    "oracle.bit_level_bytes_computed": "bytes",
    "trace_overhead_ratio": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for none
    error: str | None = None
    children_s: float = 0.0
    # counts taken from the call's arguments or result
    info: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def _info(name: str, func, args: tuple, kwargs: dict, result) -> tuple:
    """Counts recorded with a span, taken after its clock stopped."""
    if name in BUILDERS:
        return (len(result.links) // 2, max(n.hop_id for n in result.nodes))
    if name == "engine.simulate_delivery":
        duplicates = sum(1 for e in result.events if e.kind.name == "DUPLICATE_FORWARD")
        return (len(result.events), result.transmissions, duplicates)
    if name == "oracle.bit_level_frame_oracle":
        bound = inspect.signature(func).bind(*args, **kwargs).arguments
        frame, trials = bound["frame"], bound["trials"]
        bits = frame.preamble_frames * frame.micro_frame_bits + frame.data_frame_bits
        return (trials * bits,)
    return ()


class Tracer:
    """Context manager that wraps the ``TARGETS`` of the given package for
    its lifetime.  ``spans`` holds every call made meanwhile, in start
    order; ``take`` hands them over and starts a new list."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, func):
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = perf_counter()
            finally:
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].children_s += span.end - span.start
            span.info = _info(name, func, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = func
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "oppsim" or n.startswith("oppsim.")]
        for layer, names in TARGETS.items():
            home = getattr(self.package, layer)
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                # re-exports and `from ... import` aliases hold the same object
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, alias, original))
                            setattr(module, alias, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, alias, original in reversed(self._patches):
            setattr(module, alias, original)
        self._patches = []


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def run_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced CLI run (every span it recorded),
    except those ``layer_metrics`` adds."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def calls(*names: str) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_by_layer[s.name.split(".", 1)[0]] += s.self_s

    built = [s.info for n in BUILDERS for s in by_name.get(n, ())]
    replications = [s.info for s in by_name.get("engine.simulate_delivery", ())]
    n_rep = len(replications)
    n_closed = calls(*CLOSED_FORMS)
    n_exact = calls("oracle.exact_single_hop")
    bits = sum(s.info[0] for s in by_name.get("oracle.bit_level_frame_oracle", ()))

    metrics = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
    metrics.update({
        "model.validate_s": total("model.validate"),
        "topology.generate_s": total("topology.generate"),
        "topology.bisection_s": total(*BISECTIONS),
        "topology.bisection_calls": calls(*BISECTIONS),
        "topology.links": sum(links for links, _ in built),
        "topology.max_hop_id": max((hop for _, hop in built), default=0),
        "analysis.network_path_costs_s": total("analysis.network_path_costs"),
        "analysis.network_path_costs_calls": calls("analysis.network_path_costs"),
        "analysis.link_success_calls": calls("analysis.link_success"),
        "analysis.closed_form_calls": n_closed,
        "analysis.closed_form_us_per_call": _per(total(*CLOSED_FORMS) * 1e6, n_closed),
        "analysis.unreachable_set_errors": sum(
            1 for s in by_name.get("analysis.total_path_cost", ())
            if s.error == "UnreachableForwarderSetError"
        ),
        "engine.run_experiment_s": total("engine.run_experiment"),
        "engine.events_per_replication": _per(sum(r[0] for r in replications), n_rep),
        "engine.transmissions_per_replication": _per(sum(r[1] for r in replications), n_rep),
        "engine.duplicate_forwards_per_replication": _per(sum(r[2] for r in replications), n_rep),
        "oracle.exact_single_hop_calls": n_exact,
        "oracle.exact_single_hop_us_per_call": _per(total("oracle.exact_single_hop") * 1e6, n_exact),
        "oracle.bit_level_s": total("oracle.bit_level_frame_oracle"),
        "oracle.bit_level_bits_drawn": bits,
        "oracle.bit_level_bytes_computed": bits * ORACLE_BYTES_PER_BIT,
    })
    return metrics


def replication_us(spans: list[Span]) -> list[float]:
    """Durations of the engine's replications, in microseconds."""
    return [s.duration * 1e6 for s in spans if s.name == "engine.simulate_delivery"]


def layer_metrics(
    runs: list[dict[str, float]], replications_us: list[float], import_s: float, overhead: float
) -> dict[str, float]:
    """Every per-layer metric: the median over traced runs of each run's
    value, replication percentiles over all their replications pooled."""
    metrics = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    metrics["cli.import_s"] = import_s
    metrics["engine.replication_us.p50"] = _percentile(replications_us, 50)
    metrics["engine.replication_us.p99"] = _percentile(replications_us, 99)
    metrics["trace_overhead_ratio"] = overhead
    return {name: metrics[name] for name in LAYER_UNITS}


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per span: index, name, parent, start and end in
    seconds from the first span's start, error if it raised."""
    origin = spans[0].start if spans else 0.0
    with path.open("w") as out:
        for i, s in enumerate(spans):
            record = {
                "id": i, "name": s.name, "parent": s.parent,
                "start": s.start - origin, "end": s.end - origin,
            }
            if s.error:
                record["error"] = s.error
            out.write(json.dumps(record) + "\n")
