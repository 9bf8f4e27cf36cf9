"""The README's config reference shows the parser's defaults, and its
library example gives the values it runs to.

Each value the reference shows must build the same thing as leaving the
key out, and each key it marks ``required`` must fail, naming the key,
when left out.
"""

import re
from pathlib import Path

import pytest
import yaml

from dataclasses import fields

from oppsim import cli
from oppsim.cli import ConfigError
from oppsim.model import ChannelModel

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
REFERENCE = README[README.index("### Config reference") : README.index("### Topology files")]
CONFIG_BLOCK, KINDS_BLOCK = re.findall(r"```yaml\n(.*?)```", REFERENCE, re.S)
LIBRARY_BLOCK = re.search(r"## Library use\n.*?```python\n(.*?)```", README, re.S).group(1)
TOPOLOGY_FILE = re.search(r"### Topology files\n\n```\n(.*?)```", README, re.S).group(1)

KINDS = yaml.safe_load(KINDS_BLOCK)


def required(block):
    """(top-level key, key) of every line whose comment starts 'required'."""
    marked, top = set(), None
    for line in block.splitlines():
        if re.match(r"\w+:", line):
            top = line.split(":")[0]
        found = re.match(r"\s+(\w+):.*#\s*required", line)
        if found:
            marked.add((top, found.group(1)))
    return marked


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def test_sections_show_the_parser_defaults():
    shown = yaml.safe_load(CONFIG_BLOCK)
    spec, default = cli.read_spec(shown), cli.read_spec({})
    assert spec.frame == default.frame
    assert spec.channel == default.channel
    assert (spec.sim, spec.modes) == (default.sim, default.modes)
    defaulted = [[{} for _ in entries] for entries in shown["forwarder_sets"]]
    assert cli.parse_forwarder_sets(shown) == cli.parse_forwarder_sets(
        {"forwarder_sets": defaulted}
    )


def test_reference_config_round_trips_through_yaml():
    spec = cli.read_spec(yaml.safe_load(CONFIG_BLOCK))
    assert cli.read_spec(yaml.safe_load(yaml.safe_dump(spec.as_dict()))) == spec


@pytest.mark.parametrize("section, key", sorted(required(CONFIG_BLOCK)))
def test_required_keys_of_the_sections(section, key):
    shown = yaml.safe_load(CONFIG_BLOCK)
    shown[section] = without(shown[section], key)
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        cli.cmd_sweep(cli.read_spec(shown))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_topology_kinds_show_the_builder_defaults(kind, tmp_path, monkeypatch):
    (tmp_path / "nodes.topo").write_text(TOPOLOGY_FILE)
    monkeypatch.chdir(tmp_path)
    def build(section):
        return cli.read_spec({"topology": {"kind": kind, **section}}).build()

    shown = KINDS[kind]
    needed = {key: shown[key] for top, key in required(KINDS_BLOCK) if top == kind}
    for key in needed:
        with pytest.raises(ConfigError, match=f"topology kind '{kind}' needs {key}"):
            build(without(needed, key))
    assert build(shown) == build(needed)


def distance_law():
    line = next(l for l in KINDS_BLOCK.splitlines() if l.strip().startswith("ber:"))
    return yaml.safe_load(line.split("# or ")[1])


def test_reference_names_exactly_the_keys_the_reader_takes():
    # the reader refuses any other key, so a key left out here could not be set
    shown = yaml.safe_load(CONFIG_BLOCK)
    assert set(shown) == set(cli.SECTIONS)
    assert set(shown["frame"]) == set(cli.FRAME_FIELDS)
    assert set(shown["channel"]) == {f.name for f in fields(ChannelModel)}
    assert [set(c) for c in shown["channel"]["channels"]] == [set(cli.CHANNEL_FIELDS)]
    assert set(shown["topology"]) == {"kind"}
    assert set(shown["sim"]) == set(cli.SIM_FIELDS)
    assert set(shown["sweep"]) == set(cli.SWEEP_FIELDS)
    assert {frozenset(e) for s in shown["forwarder_sets"] for e in s} == {frozenset(cli.FORWARDER_FIELDS)}
    kinds = cli._topology_kinds()
    assert set(KINDS) == set(kinds)
    for kind, (_, table) in kinds.items():
        assert set(KINDS[kind]) == set(table), kind
    laws = [KINDS["generated"]["ber"], distance_law()]
    assert {law["kind"] for law in laws} == set(cli.BER_KINDS)
    for law in laws:
        assert set(law) == {"kind", *cli.BER_KINDS[law["kind"]][1]}


def test_distance_ber_shows_its_defaults():
    shown = distance_law()
    def build(ber):
        section = {"kind": "generated", "nodes": KINDS["generated"]["nodes"], "ber": ber}
        return cli.read_spec({"topology": section}).build()

    assert build(shown) == build({"kind": "distance"})


# each expression the library example comments on: what its comment shows,
# and the value that stands for
LIBRARY_VALUES = {
    "analysis.total_path_cost(fs)": ("2.333...", pytest.approx(7 / 3)),
    "analysis.coordination_overhead(fs)": ("0.75", 0.75),
    "star.costs[1], star.rank(1)": ("(1.0, 2.0)", (1.0, 2.0)),
    "trace.first_arrival_hops": ("2,", 2),
    "elect.actor, elect.sender, elect.slot, elect.hops": ("(1, 4, 0, 1)", (1, 4, 0, 1)),
}


def test_library_example_runs_to_the_values_it_gives():
    namespace = {}
    exec(LIBRARY_BLOCK, namespace)
    comments = dict(
        (part.strip() for part in line.split("#"))
        for line in LIBRARY_BLOCK.splitlines() if "#" in line
    )
    for expression, (shown, value) in LIBRARY_VALUES.items():
        assert comments[expression].startswith(shown), expression
        assert eval(expression, namespace) == value, expression
