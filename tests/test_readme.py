"""The README's config reference shows the parser's defaults.

Each value the reference shows must build the same thing as leaving the
key out, and each key it marks ``required`` must fail, naming the key,
when left out.
"""

import re
from pathlib import Path

import pytest
import yaml

from oppsim import cli
from oppsim.cli import ConfigError

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
REFERENCE = README[README.index("### Config reference") : README.index("### Topology files")]
CONFIG_BLOCK, KINDS_BLOCK = re.findall(r"```yaml\n(.*?)```", REFERENCE, re.S)
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
    assert cli.parse_frame(shown) == cli.parse_frame({})
    assert cli.parse_channel(shown) == cli.parse_channel({})
    assert cli.parse_sim(shown) == cli.parse_sim({})
    defaulted = [[{} for _ in entries] for entries in shown["forwarder_sets"]]
    assert cli.parse_forwarder_sets(shown) == cli.parse_forwarder_sets(
        {"forwarder_sets": defaulted}
    )


@pytest.mark.parametrize("section, key", sorted(required(CONFIG_BLOCK)))
def test_required_keys_of_the_sections(section, key):
    shown = yaml.safe_load(CONFIG_BLOCK)
    shown[section] = without(shown[section], key)
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        cli.cmd_sweep(shown)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_topology_kinds_show_the_builder_defaults(kind, tmp_path, monkeypatch):
    (tmp_path / "nodes.topo").write_text(TOPOLOGY_FILE)
    monkeypatch.chdir(tmp_path)
    frame, channel = cli.parse_frame({}), cli.parse_channel({})

    def build(section):
        return cli.build_topology({"topology": {"kind": kind, **section}}, frame, channel)

    shown = KINDS[kind]
    needed = {key: shown[key] for top, key in required(KINDS_BLOCK) if top == kind}
    for key in needed:
        with pytest.raises(ConfigError, match=f"topology kind '{kind}' needs {key}"):
            build(without(needed, key))
    assert build(shown) == build(needed)


def test_distance_ber_shows_its_defaults():
    line = next(l for l in KINDS_BLOCK.splitlines() if l.strip().startswith("ber:"))
    shown = yaml.safe_load(line.split("# or ")[1])
    frame, channel = cli.parse_frame({}), cli.parse_channel({})

    def build(ber):
        section = {"kind": "generated", "nodes": KINDS["generated"]["nodes"], "ber": ber}
        return cli.build_topology({"topology": section}, frame, channel)

    assert build(shown) == build({"kind": "distance"})
