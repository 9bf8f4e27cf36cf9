"""The package surface that ``perfbench/spans.py`` traces.

A traced benchmark run wraps each function its ``TARGETS`` names, by
attribute on its ``oppsim`` module, and reads ``.links`` and every node's
``hop_id`` off what its ``BUILDERS`` return.  Untraced runs and the rest of
the tests never look these names up that way, so a function that only
``topology.prepare`` calls (``assign_hop_ids``, ``compute_ranks``) could be
deleted or renamed with every other test passing.  These tests read the
benchmark's tables as they are and fail first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from oppsim import topology as topo

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up while the module runs
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans


SPANS = load_spans()

# a small call of each builder the benchmark counts links and hop IDs of
BUILDER_CALLS = {
    "topology.generate": lambda: topo.generate(
        topo.GeneratorConfig(nodes=12, area_side=50.0, radio_range=30.0,
                             ber_model=topo.FixedBer(0.005)),
        seed=1,
    ),
    "topology.star_topology": lambda: topo.star_topology(3, 0.6),
    "topology.chain_topology": lambda: topo.chain_topology([0.9, 0.8]),
}


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in SPANS.TARGETS.items() for name in names]
)
def test_every_traced_function_exists(layer, name):
    module = importlib.import_module(f"oppsim.{layer}")
    assert callable(getattr(module, name))


def test_every_traced_builder_has_a_call_here():
    assert set(SPANS.BUILDERS) == set(BUILDER_CALLS)


@pytest.mark.parametrize("name", sorted(BUILDER_CALLS))
def test_builder_results_expose_links_and_hop_ids(name):
    layer, attr = name.split(".")
    assert attr in SPANS.TARGETS[layer]
    built = BUILDER_CALLS[name]()
    assert len(built.links) > 0
    assert all(isinstance(n.hop_id, int) for n in built.nodes)
    assert max(n.hop_id for n in built.nodes) >= 1
