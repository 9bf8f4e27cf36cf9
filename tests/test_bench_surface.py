"""The package surface and the outputs that the benchmark in ``perfbench/``
depends on.

A traced benchmark run wraps each function its ``TARGETS`` names, by
attribute on its ``oppsim`` module, and reads ``.links`` and every node's
``hop_id`` off what its ``BUILDERS`` return.  Untraced runs and the rest of
the tests never look these names up that way.  ``topology.assign_hop_ids``
and ``topology.compute_ranks`` remain ``topology.prepare``'s steps only so
that the benchmark's spans still resolve (ROADMAP item 1 moves the span to
``prepare``); nothing else calls them, so either could be deleted or
renamed with every other test passing.  These tests read the benchmark's
tables as they are and fail first.

Every benchmark run also checks each CLI output against the sha256 in
``perfbench/golden.json``; a few variants of each workload are checked
here too, so a change to any output byte fails the tests first.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from oppsim import cli, topology as topo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """The module ``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its own module up while the module runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


SPANS = load("spans")
WORKLOADS = load("workloads")
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())

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


@pytest.mark.parametrize("variant", [0, 1, WORKLOADS.VARIANTS - 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_output_matches_benchmark_golden(name, variant, tmp_path, capsys):
    workload = WORKLOADS.WORKLOADS[name]
    config = workload.config(variant)
    path = tmp_path / f"{name}-variant{variant}.yaml"
    if config is not None:
        path.write_text(config)
    assert cli.main(workload.argv(variant, str(path))) == 0
    output = capsys.readouterr().out
    assert hashlib.sha256(output.encode()).hexdigest() == GOLDEN[name][str(variant)]
