import collections
import contextlib
import csv
import hashlib
import io
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import unittest.mock
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oppsim import analysis, cli, engine, oracle, topology as topo, verification
from oppsim.cli import ConfigError
from oppsim.model import ForwarderEntry, ForwarderSet


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


STAR_CFG = """
topology:
  kind: star
  forwarders: 3
  p_link: 0.6
sim:
  mode: receiver_based
  replications: 400
  seed: 42
  source: 4
"""

# one topology section per kind; star is STAR_CFG's own
TOPOLOGIES = {
    "chain": {"kind": "chain", "link_success": [0.9, 0.8]},
    "star": yaml.safe_load(STAR_CFG)["topology"],
    "diamond": {"kind": "diamond", "relay_ber": [0.01, 0.02]},
    "witness": {"kind": "witness", "far_cost": 2.5},
    "generated": {"kind": "generated", "nodes": 20, "ber": {"kind": "distance", "p_max": 0.02}},
    "file": {"kind": "file", "path": "nodes.topo"},
}


def kind_cfg(kind):
    cfg = yaml.safe_load(STAR_CFG)
    cfg["topology"] = TOPOLOGIES[kind]
    return cfg


def run_limited(argv):
    """``python -m oppsim <argv>`` in a child held to 2 GiB of address space
    and 120 s, so an input that would exhaust memory or time fails the test
    instead of the runner."""
    src = Path(__file__).resolve().parents[1] / "src"

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

    return subprocess.run(
        [sys.executable, "-m", "oppsim", *argv],
        preexec_fn=limit, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )


def fails_with(tmp_path, capsys, command, text):
    """The stderr of ``oppsim <command>`` on a config that exits 1 with
    nothing on stdout."""
    assert cli.main([command, write_cfg(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestConfigParsing:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(tmp_path / "nope.yaml")

    def test_malformed_yaml(self, tmp_path):
        path = write_cfg(tmp_path, "topology: [unclosed")
        with pytest.raises(ConfigError):
            cli.load_config(path)

    def test_non_mapping_top_level(self, tmp_path):
        path = write_cfg(tmp_path, "- a\n- b\n")
        with pytest.raises(ConfigError):
            cli.load_config(path)

    @pytest.mark.parametrize("literal, number", [
        ("6e-1", 0.6), ("5e3", 5000.0), ("1.0e3", 1000.0), ("-2E+2", -200.0), (".5e1", 5.0), ("1.0e-3", 0.001),
    ])
    def test_exponent_floats_are_numbers(self, tmp_path, literal, number):
        # YAML 1.1 reads all but the last as strings; YAML 1.2 reads numbers
        assert cli.load_config(write_cfg(tmp_path, f"x: {literal}\n")) == {"x": number}

    @pytest.mark.parametrize("literal", ["1e", "e3", "1e3x", "0x1e3"])
    def test_other_exponent_like_scalars_stay_as_they_were(self, tmp_path, literal):
        assert cli.load_config(write_cfg(tmp_path, f"x: {literal}\n")) == yaml.safe_load(f"x: {literal}\n")

    def test_exponent_float_config_runs(self, tmp_path, capsys):
        # p_link: 6e-1 is p_link: 0.6, where it used to be a config error
        outs = []
        for literal in ("6e-1", "0.6"):
            cfg = write_cfg(tmp_path, f"topology: {{kind: star, forwarders: 2, p_link: {literal}}}\n")
            assert cli.main(["analyze", cfg]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_frame_defaults(self):
        frame = cli.read_spec({}).frame
        assert (frame.micro_frame_bits, frame.preamble_frames, frame.data_frame_bits) == (8, 2, 100)

    def test_frame_type_error_names_key(self):
        with pytest.raises(ConfigError, match="preamble_frames"):
            cli.read_spec({"frame": {"preamble_frames": "two"}})

    def test_channel_defaults(self):
        channel = cli.read_spec({}).channel
        assert channel.evaluated.p_sw == 1.0
        assert channel.noise_power == 1e-9

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="sim.mode"):
            cli.read_spec({"sim": {"mode": "psychic"}})

    def test_generated_needs_nodes(self):
        with pytest.raises(ConfigError, match="topology kind 'generated' needs nodes"):
            cli.read_spec({"topology": {"kind": "generated"}}).build()

    def test_unknown_topology_kind(self):
        with pytest.raises(ConfigError, match="nosuch"):
            cli.read_spec({"topology": {"kind": "nosuch"}}).build()

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_effective_config_idempotent(self, kind):
        cfg = kind_cfg(kind)
        eff = cli.read_spec(cfg).as_dict()
        assert cli.read_spec(eff).as_dict() == eff

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_digest_stable_under_defaulting(self, kind):
        cfg = kind_cfg(kind)
        eff = cli.read_spec(cfg).as_dict()
        assert cli.read_spec(cfg).digest == cli.read_spec(eff).digest
        assert len(cli.read_spec(cfg).digest) == 12

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_spec_round_trips_through_yaml(self, kind):
        spec = cli.read_spec(kind_cfg(kind))
        assert cli.read_spec(yaml.safe_load(yaml.safe_dump(spec.as_dict()))) == spec

    def test_digest_tracks_content(self):
        a = yaml.safe_load(STAR_CFG)
        b = yaml.safe_load(STAR_CFG.replace("p_link: 0.6", "p_link: 0.7"))
        assert cli.read_spec(a).digest != cli.read_spec(b).digest


class TestTopologyFiles:
    def test_round_trip_exact(self, tmp_path):
        original = topo.witness_topology()
        path = tmp_path / "w.topo"
        cli.write_topology_file(original, path)
        loaded = cli.read_topology_file(path, original.frame, original.channel)
        assert loaded == original

    def test_string_ids_survive(self, tmp_path):
        path = tmp_path / "t.topo"
        path.write_text(
            "nodes 2 gateway sink\n"
            "node sink 0 0\n"
            "node relay 1 0\n"
            "link sink relay 0.01\n"
        )
        loaded = cli.read_topology_file(path, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)
        assert loaded.gateway == "sink"
        assert loaded.hop_id("relay") == 1

    def test_unknown_link_endpoint_names_line(self, tmp_path):
        path = tmp_path / "t.topo"
        path.write_text("nodes 1 gateway 0\nnode 0 0 0\nlink 0 9 0.01\n")
        with pytest.raises(ConfigError, match=r"t\.topo:3"):
            cli.read_topology_file(path, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "t.topo"
        path.write_text("nodes 3 gateway 0\nnode 0 0 0\nnode 1 1 0\nlink 0 1 0.01\n")
        with pytest.raises(ConfigError, match="declares 3"):
            cli.read_topology_file(path, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)

    def test_duplicate_node_names_line(self, tmp_path):
        path = tmp_path / "t.topo"
        path.write_text("nodes 2 gateway 0\nnode 0 0 0\nnode 0 1 0\n")
        with pytest.raises(ConfigError, match=r"t\.topo:3"):
            cli.read_topology_file(path, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)

    def test_mixed_node_ids_name_line(self, tmp_path, capsys):
        path = tmp_path / "t.topo"
        path.write_text(
            "nodes 3 gateway 1\nnode 1 0 0\nnode a 1 0\nnode 2 1 1\n"
            "link 1 a 0.01\nlink 1 2 0.01\n"
        )
        err = fails_with(tmp_path, capsys, "analyze", f"topology: {{kind: file, path: {path}}}\n")
        assert err == f"config error: {path}:3: node ids mix integers and strings\n"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "t.topo"
        path.write_text(
            "# layout\n\nnodes 2 gateway 0\nnode 0 0 0\nnode 1 1 0\nlink 0 1 0.0\n"
        )
        loaded = cli.read_topology_file(path, topo.DEFAULT_FRAME, topo.DEFAULT_CHANNEL)
        assert loaded.hop_id(1) == 1


class TestAnalyzeCommand:
    def test_explicit_forwarder_sets(self):
        cfg = {
            "forwarder_sets": [
                [
                    {"node": 0, "p_link": 0.5, "remaining_cost": 1.0},
                    {"node": 1, "p_link": 0.5, "remaining_cost": 1.0},
                ]
            ]
        }
        out = cli.cmd_analyze(cli.read_spec(cfg))
        line = next(l for l in out.splitlines() if l.startswith("set "))
        assert "cost=2.33333333333" in line
        assert "overhead=0.75" in line
        assert "retransmissions=0.333333333333" in line
        # the whole record, byte for byte
        assert out == (
            "set index=0 size=2 cost=2.33333333333 overhead=0.75 failure=0.25"
            " retransmissions=0.333333333333 seed=0 config=0322ea8d297c"
            " retransmissions_convention=excludes-first-attempt\n"
        )

    def test_forwarder_entry_defaults(self):
        # node = the entry's index, p_link 1.0, remaining_cost 0.0
        sets = [[{}, {"p_link": 0.5}], [{"node": "a", "remaining_cost": 2.0}]]
        out = cli.cmd_analyze(cli.read_spec({"forwarder_sets": sets}))
        assert [l.split(" seed=")[0] for l in out.splitlines()] == [
            "set index=0 size=2 cost=1 overhead=0 failure=0 retransmissions=0",
            "set index=1 size=1 cost=3 overhead=2 failure=0 retransmissions=0",
        ]

    @pytest.mark.parametrize(
        "key, value", [("node", [1, 2]), ("p_link", True), ("remaining_cost", "2.5")]
    )
    def test_bad_forwarder_entry_is_one(self, tmp_path, capsys, key, value):
        entry = {"node": 2, "p_link": 0.5, "remaining_cost": 1.0, key: value}
        path = write_cfg(tmp_path, yaml.safe_dump({"forwarder_sets": [[{"node": 1}, entry]]}))
        assert cli.main(["analyze", path]) == 1
        assert f"forwarder_sets[0][1].{key}" in capsys.readouterr().err

    def test_mixed_forwarder_node_ids_is_one(self, tmp_path, capsys):
        sets = [[{"node": "a", "remaining_cost": 1.0}, {"p_link": 0.5, "remaining_cost": 1.0}]]
        path = write_cfg(tmp_path, yaml.safe_dump({"forwarder_sets": sets}))
        assert cli.main(["analyze", path]) == 1
        assert "forwarder_sets[0] mixes integer and string node ids" in capsys.readouterr().err

    def test_unreachable_explicit_set_reports_inf(self):
        cfg = {"forwarder_sets": [[{"node": 0, "p_link": 0.0, "remaining_cost": 1.0}]]}
        out = cli.cmd_analyze(cli.read_spec(cfg))
        assert "cost=inf" in out and "retransmissions=inf" in out

    def test_witness_distances_side_by_side(self):
        out = cli.cmd_analyze(cli.read_spec({"topology": {"kind": "witness"}}))
        far = next(l for l in out.splitlines() if l.startswith("node id=5"))
        assert "hop_distance_gateway=2" in far
        assert "rank_distance_gateway=3.04" in far

    def test_every_record_carries_provenance(self):
        out = cli.cmd_analyze(cli.read_spec({"topology": {"kind": "witness"}}))
        for line in out.splitlines():
            assert "seed=" in line and "config=" in line and "retransmissions_convention=" in line

    def test_channel_record_reports_potential_bandwidth(self):
        out = cli.cmd_analyze(cli.read_spec({"topology": {"kind": "witness"}}))
        channel = next(l for l in out.splitlines() if l.startswith("channel "))
        assert "potential_bandwidth_hz=1000000" in channel

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError):
            cli.cmd_analyze(cli.read_spec({}))


class TestSimulateCommand:
    def test_csv_shape(self, tmp_path):
        cfg = yaml.safe_load(STAR_CFG)
        out = cli.cmd_simulate(cli.read_spec(cfg))
        lines = out.splitlines()
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert any("seed=42" in c for c in comments)
        assert rows[0].startswith("mode,replications,pdr,")
        assert len(rows) == 2
        assert rows[1].startswith("receiver_based,400,")
        row = dict(zip(rows[0].split(","), rows[1].split(",")))
        bits = cli.read_spec(cfg).frame.bits_per_transmission
        assert float(row["mean_energy_bits"]) == pytest.approx(
            float(row["mean_transmissions"]) * bits, rel=1e-11
        )

    def test_both_modes_two_rows(self):
        cfg = yaml.safe_load(STAR_CFG.replace("mode: receiver_based", "mode: both"))
        rows = [l for l in cli.cmd_simulate(cli.read_spec(cfg)).splitlines() if not l.startswith("#")]
        assert len(rows) == 3
        assert rows[1].startswith("receiver_based,")
        assert rows[2].startswith("sender_prioritized,")

    def test_byte_identical_reruns(self):
        cfg = yaml.safe_load(STAR_CFG)
        a = cli.cmd_simulate(cli.read_spec(cfg))
        b = cli.cmd_simulate(cli.read_spec(yaml.safe_load(STAR_CFG)))
        assert hashlib.sha256(a.encode()).hexdigest() == hashlib.sha256(b.encode()).hexdigest()


class TestSweepCommand:
    def test_forwarders_axis(self):
        cfg = {
            "topology": {"kind": "star", "forwarders": 2, "p_link": 0.6},
            "sim": {"replications": 200, "seed": 7},
            "sweep": {"parameter": "forwarders", "values": [1, 2, 3]},
        }
        rows = [l for l in cli.cmd_sweep(cli.read_spec(cfg)).splitlines() if not l.startswith("#")]
        assert rows[0].startswith("forwarders,analytic_overhead,empirical_overhead,pdr,")
        assert len(rows) == 4
        # analytic column must reproduce the equal-cost closed form
        for row, n in zip(rows[1:], (1, 2, 3)):
            cells = row.split(",")
            assert cells[0] == str(n)
            assert float(cells[1]) == pytest.approx(1.0 - 0.4**n, abs=1e-12)

    def test_ber_axis_on_chain(self):
        cfg = {
            "topology": {"kind": "chain", "link_success": [0.9, 0.9]},
            "sim": {"replications": 50, "seed": 3},
            "sweep": {"parameter": "ber", "values": [0.001, 0.01]},
        }
        rows = [l for l in cli.cmd_sweep(cli.read_spec(cfg)).splitlines() if not l.startswith("#")]
        assert len(rows) == 3
        # a single-candidate hop pins overhead to exactly one transmission
        # worth of elected cost, so the ber axis must show through retries
        header = rows[0].split(",")
        retries = header.index("retransmissions")
        assert float(rows[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[1].split(",")[retries]) < float(rows[2].split(",")[retries])

    def test_p_sw_axis(self):
        cfg = {
            "topology": {"kind": "chain", "link_success": [1.0]},
            "sim": {"replications": 50, "seed": 3},
            "sweep": {"parameter": "p_sw", "values": [0.5, 1.0]},
        }
        rows = [l for l in cli.cmd_sweep(cli.read_spec(cfg)).splitlines() if not l.startswith("#")]
        assert len(rows) == 3

    def test_frame_axes(self):
        cfg = {
            "topology": {"kind": "chain", "link_success": [1.0]},
            "sim": {"replications": 20, "seed": 3},
            "sweep": {"parameter": "preamble_frames", "values": [1, 4]},
        }
        assert len(cli.cmd_sweep(cli.read_spec(cfg)).splitlines()) == 6
        cfg["sweep"] = {"parameter": "data_frame_bits", "values": [50, 200]}
        assert len(cli.cmd_sweep(cli.read_spec(cfg)).splitlines()) == 6

    def test_multi_axis_rejected(self):
        cfg = {
            "topology": {"kind": "star", "forwarders": 2, "p_link": 0.6},
            "sweep": {"parameter": ["forwarders", "ber"], "values": [1]},
        }
        with pytest.raises(ConfigError, match="single-axis"):
            cli.cmd_sweep(cli.read_spec(cfg))

    def test_empty_values_rejected(self):
        cfg = {
            "topology": {"kind": "star", "forwarders": 2, "p_link": 0.6},
            "sweep": {"parameter": "forwarders", "values": []},
        }
        with pytest.raises(ConfigError, match="empty sweep"):
            cli.cmd_sweep(cli.read_spec(cfg))

    @pytest.mark.parametrize("cfg", [
        # the star's gateway as the source, at two switching probabilities
        {"topology": {"kind": "star", "forwarders": 3, "p_link": 0.6},
         "sim": {"replications": 50, "source": 0, "mode": "both"},
         "sweep": {"parameter": "p_sw", "values": [0.7, 1.0]}},
        # a one-node network, whose deepest node is its gateway
        {"topology": {"kind": "generated", "nodes": 1}, "sim": {"replications": 50},
         "sweep": {"parameter": "ber", "values": [0.0, 0.01]}},
    ], ids=["star-p_sw-from-gateway", "one-node-ber"])
    def test_sweep_from_the_gateway_is_a_defined_row(self, cfg):
        # the empty forwarder set: no overhead, a certain failure, and the
        # packet is delivered where it starts, as simulate reports it
        lines = cli.cmd_sweep(cli.read_spec(cfg)).splitlines()
        header, *rows = [l.split(",") for l in lines if not l.startswith("#")]
        assert len(rows) == len(cfg["sweep"]["values"]) * len(cli.read_spec(cfg).modes)
        for cells in rows:
            row = dict(zip(header, cells))
            assert (row["analytic_overhead"], row["retransmissions"]) == ("0", "inf")
            assert (row["pdr"], row["mean_transmissions"]) == ("1", "0")
            point = {**cfg, "sim": {**cfg["sim"], "mode": row["mode"], "source": 0}}
            if header[0] == "p_sw":
                point["channel"] = {"channels": [{"p_sw": float(row["p_sw"])}]}
            else:
                point["topology"] = {**cfg["topology"], "ber": {"p": float(row["ber"])}}
            simulated = cli.cmd_simulate(cli.read_spec(point)).splitlines()[-2:]
            sim_row = dict(zip(*(l.split(",") for l in simulated)))
            for column in ("pdr", "mean_duplicates", "mean_transmissions", "empirical_overhead"):
                assert row[column] == sim_row[column]

    def test_forwarders_axis_needs_star(self):
        cfg = {
            "topology": {"kind": "chain", "link_success": [0.9]},
            "sweep": {"parameter": "forwarders", "values": [1]},
        }
        with pytest.raises(ConfigError, match="star"):
            cli.cmd_sweep(cli.read_spec(cfg))


class TestVerifyCommand:
    def test_default_grid_passes(self):
        report, code = verification.run_verification(trials=20_000, seed=5)
        assert code == 0
        assert "case=single-hop-grid" in report
        assert "case=two-hop-composition" in report
        assert "case=bit-level-frames" in report
        assert "result=pass" in report

    def test_custom_grid(self):
        report, code = verification.run_verification(
            "sizes=1-2;probs=0,0.5,1;costs=0,1", trials=5_000, seed=5
        )
        assert code == 0
        assert "sets=42" in report

    def test_empty_grid_rejected(self):
        with pytest.raises(verification.GridError, match="empty"):
            verification.run_verification("probs=;")

    def test_bad_grid_fragment(self):
        with pytest.raises(verification.GridError):
            verification.run_verification("sizes=x-y")

    @pytest.mark.parametrize("case, grid, faults", [
        # a closed form off by a little
        ("single-hop-grid", "sizes=1;probs=0.5;costs=1",
         [(analysis, "total_path_cost", lambda real: lambda fs: real(fs) + 1e-6)]),
        ("single-hop-grid", "sizes=2;probs=0.5;costs=1",
         [(analysis, "coordination_overhead", lambda real: lambda fs: real(fs) * 1.001)]),
        # a finite cost for a set that no member can receive from
        ("single-hop-grid", "sizes=1;probs=0;costs=1",
         [(analysis, "total_path_cost", lambda real: lambda fs: 1.0)]),
        # a NaN is no agreement
        ("single-hop-grid", "sizes=1;probs=0.5;costs=1",
         [(analysis, "coordination_overhead", lambda real: lambda fs: math.nan)]),
        ("bit-level-frames", "sizes=1;probs=0.5;costs=1",
         [(analysis, "failure_probability", lambda real: lambda p, frame, p_sw: math.nan)]),
        ("two-hop-composition", "sizes=1;probs=0.5;costs=1",
         [(oracle, "exact_two_hop", lambda real: lambda spec: math.nan)]),
        # a closed factor of 0 or 1 has no spread, so no estimate off it passes
        ("bit-level-frames", "sizes=1;probs=0.5;costs=1",
         [(analysis, "preamble_miss_probability", lambda real: lambda p, frame: 0.0),
          (analysis, "data_miss_probability", lambda real: lambda p, frame: 1.0)]),
    ], ids=["cost-skew", "overhead-skew", "unreachable-finite-cost", "overhead-nan",
            "failure-nan", "two-hop-oracle-nan", "degenerate-frame-factors"])
    def test_fault_injection_is_caught(self, monkeypatch, case, grid, faults):
        # negative controls: corrupt a closed form or an oracle and its case
        # must fail; a case reads fail exactly when it has a breach line
        for module, name, fault in faults:
            monkeypatch.setattr(module, name, fault(getattr(module, name)))
        report, code = verification.run_verification(grid, trials=1_000, seed=5)
        assert code == 2
        breaches = report.count("\nverify breach ")
        assert report.endswith(f"\nverify result=fail breaches={breaches}\n")
        assert f"\nverify breach case={case} " in report
        for summary in report.splitlines()[:3]:
            name = summary.split()[1].removeprefix("case=")
            assert summary.endswith(" status=fail") == (f"verify breach case={name} " in report)

    def test_finite_cost_of_unreachable_set_is_caught(self, monkeypatch):
        monkeypatch.setattr(analysis, "total_path_cost", lambda fs: 1.0)
        report, code = verification.run_verification("sizes=1;probs=0;costs=1", trials=1_000, seed=5)
        assert code == 2
        assert (
            "verify breach case=single-hop-grid probs=(0.0,) costs=(1.0,)"
            " quantity=cost closed=1 oracle=inf error=inf\n"
        ) in report

    def test_grid_starts_in_bounded_memory(self):
        # the grid's sets are generated one block at a time; holding every
        # index tuple of size 8 first took about 47 MB
        probs, costs = verification.DEFAULT_GRID["probs"], verification.DEFAULT_GRID["costs"]
        tracemalloc.start()
        try:
            next(verification._single_hop_checks([8], probs, costs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_oversized_grid_is_refused_within_an_address_space_limit(self):
        # size 21 is past the oracle's bound: the refusal comes before any
        # work, before the grid can exhaust memory
        done = run_limited(["verify", "--grid", "sizes=21", "--trials", "100"])
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "validation error: forwarder set of size 21 exceeds enumeration bound 20\n"

    @pytest.mark.parametrize("args, message", [
        # about 2.6e9 sets at the default probs and costs: hours of work
        (["--grid", "sizes=8"], "config error: --grid must make at most 1000000 forwarder sets"),
        # the range is never built; its first size past the bound is refused
        (["--grid", "sizes=1-1000000000000"],
         "validation error: forwarder set of size 21 exceeds enumeration bound 20"),
        (["--trials", str(10**18)], "config error: --trials must be <= 100000000"),
        (["--seed", "-1"], "config error: --seed must be >= 0"),
    ], ids=["sets", "size-range", "trials", "seed"])
    def test_unfinishable_run_is_refused_before_any_work(self, args, message):
        done = run_limited(["verify", *args])
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message + "\n")


class TestSolveCounts:
    """A built topology carries its cost table, so each command solves a
    topology's costs once, where it is built.  A ``ber`` sweep builds the
    configured topology once and re-links it once per point: 1 + points."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = analysis.network_path_costs

        def counted(t):
            calls.append(t)
            return solve(t)

        monkeypatch.setattr(analysis, "network_path_costs", counted)
        return calls

    @pytest.mark.parametrize("command, sweep, expected", [
        (cli.cmd_analyze, None, 1),
        (cli.cmd_simulate, None, 1),
        (cli.cmd_sweep, {"parameter": "forwarders", "values": [1, 2, 3]}, 3),
        (cli.cmd_sweep, {"parameter": "p_sw", "values": [0.6, 0.8, 1.0]}, 3),
        (cli.cmd_sweep, {"parameter": "ber", "values": [0.001, 0.01, 0.02]}, 4),
    ])
    def test_commands(self, solves, command, sweep, expected):
        cfg = {
            "topology": {"kind": "star", "forwarders": 2, "p_link": 0.6},
            "sim": {"mode": "both", "replications": 20, "seed": 7},
        }
        if sweep:
            cfg["sweep"] = sweep
        command(cli.read_spec(cfg))
        assert len(solves) == expected

    def test_analyze_topology_file(self, solves, tmp_path):
        path = tmp_path / "star.topo"
        cli.write_topology_file(topo.star_topology(2, 0.6), path)
        solves.clear()
        cli.cmd_analyze(cli.read_spec({"topology": {"kind": "file", "path": str(path)}}))
        assert len(solves) == 1

    def test_verify(self, solves):
        _, code = verification.run_verification("sizes=1;probs=0.5;costs=1", trials=1_000, seed=5)
        assert code == 0
        assert len(solves) == 3


class TestReadCounts:
    """Each command reads the config once, and a sweep point is the spec
    with its swept field replaced, so no section is read again for a run
    or for a point.  A read is one ``cli._read`` call; its section is its
    ``where`` up to the first ``.`` or ``[``."""

    TOPOLOGY = {
        "star": "topology: {kind: star, forwarders: 2, p_link: 0.6}\n",
        "generated": (
            "topology: {kind: generated, nodes: 20, radio_range: 40.0, seed: 2,"
            " ber: {kind: distance, p_max: 0.02}}\n"
        ),
    }
    SIM = "sim: {mode: both, replications: 20, seed: 7}\n"

    @pytest.fixture
    def reads(self, monkeypatch):
        counts = collections.Counter()
        read = cli._read

        def counted(section, where, table):
            counts[re.split(r"[.\[]", where)[0]] += 1
            return read(section, where, table)

        monkeypatch.setattr(cli, "_read", counted)
        return counts

    def run(self, tmp_path, reads, command, text):
        reads.clear()
        assert cli.main([command, write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
        return dict(reads)

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_commands_read_each_section_once(self, tmp_path, reads, command):
        counts = self.run(tmp_path, reads, command, self.TOPOLOGY["star"] + self.SIM)
        assert counts == {"frame": 1, "channel": 1, "sim": 1, "topology": 1}

    @pytest.mark.parametrize("kind, axis, values", [
        ("star", "forwarders", [1, 2, 3]),
        ("star", "ber", [0.001, 0.01, 0.02]),
        ("star", "p_sw", [0.6, 0.8, 1.0]),
        ("star", "preamble_frames", [1, 2, 3]),
        ("star", "data_frame_bits", [50, 100, 200]),
        ("generated", "p_sw", [0.6, 0.8, 1.0]),
        ("generated", "data_frame_bits", [50, 100, 200]),
    ])
    def test_sweep_points_read_no_section_again(self, tmp_path, reads, kind, axis, values):
        config = self.TOPOLOGY[kind] + self.SIM + "sweep: {parameter: %s, values: %s}\n"
        one = self.run(tmp_path, reads, "sweep", config % (axis, values[:1]))
        three = self.run(tmp_path, reads, "sweep", config % (axis, values))
        assert all(three[section] <= one.get(section, 0) for section in three), (one, three)


class TestSweepPointErrors:
    """A sweep point is the config with the swept key set, so it fails as
    ``simulate`` fails on that config: one stderr line, nothing on stdout."""

    def test_fractional_frame_value_is_one(self, tmp_path, capsys):
        err = fails_with(tmp_path, capsys, "sweep", (
            "topology: {kind: chain, link_success: [0.9]}\n"
            "sim: {replications: 10}\n"
            "sweep: {parameter: preamble_frames, values: [1, 1.9]}\n"
        ))
        assert err == "config error: frame.preamble_frames must be an integer, got 1.9\n"

    @pytest.mark.parametrize("axis, first", [
        ("forwarders", 1), ("ber", 0.01), ("p_sw", 1), ("preamble_frames", 1),
        ("data_frame_bits", 1),
    ])
    def test_null_value_is_no_point_on_any_axis(self, tmp_path, capsys, axis, first):
        # a null config key takes its default, but a null sweep value would
        # run that default under a row labelled None
        err = fails_with(tmp_path, capsys, "sweep", (
            "topology: {kind: star, forwarders: 2, p_link: 0.6}\n"
            "frame: {preamble_frames: 3}\n"
            "sim: {replications: 10}\n"
            f"sweep: {{parameter: {axis}, values: [{first}, null]}}\n"
        ))
        assert err == "config error: sweep values must be numbers, got None\n"

    def test_invalid_star_fails_alike_in_simulate_and_sweep(self, tmp_path, capsys):
        star = (
            "topology: {kind: star, forwarders: 2, p_link: 0.6, remaining_cost: 0.5}\n"
            "sim: {replications: 10}\n"
        )
        expected = "config error: topology: remaining_cost must be >= 1, got 0.5\n"
        assert fails_with(tmp_path, capsys, "simulate", star) == expected
        sweep = star + "sweep: {parameter: forwarders, values: [1, 2]}\n"
        assert fails_with(tmp_path, capsys, "sweep", sweep) == expected

    def test_out_of_range_p_sw_names_the_channel(self, tmp_path, capsys):
        err = fails_with(tmp_path, capsys, "sweep", (
            "topology: {kind: chain, link_success: [1.0]}\n"
            "sim: {replications: 10}\n"
            "sweep: {parameter: p_sw, values: [0.5, 1.5]}\n"
        ))
        assert err == (
            "config error: channel.channels[0]: p_sw must be a probability in [0, 1], got 1.5\n"
        )


    @pytest.mark.parametrize("axis, values, message", [
        ("forwarders", "[1, 2, 2.5]", "topology.forwarders must be an integer, got 2.5"),
        # a value that checks but fails to build: every point is built first
        ("forwarders", "[1, 2, 0]", "topology: forwarders must be a positive integer, got 0"),
        ("ber", "[0.001, 0.01, 1.5]",
         "sweep.values[2]: bit error rate must be a probability in [0, 1], got 1.5"),
    ])
    def test_bad_third_point_fails_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                  axis, values, message):
        runs, run = [], engine.run_experiment
        monkeypatch.setattr(engine, "run_experiment", lambda *job: runs.append(job) or run(*job))
        err = fails_with(tmp_path, capsys, "sweep", (
            "topology: {kind: star, forwarders: 2, p_link: 0.6}\n"
            "sim: {mode: both, replications: 10}\n"
            f"sweep: {{parameter: {axis}, values: {values}}}\n"
        ))
        assert err == f"config error: {message}\n"
        assert runs == []


class TestOneRunJobsCall:
    """A sweep builds every point, then runs all of their engine runs
    through one ``engine.run_jobs`` call, point-major and mode-minor."""

    SWEEP = (
        "topology: {kind: star, forwarders: 2, p_link: 0.6}\n"
        "sim: {mode: both, replications: 10}\n"
        "sweep: {parameter: %s, values: %s}\n"
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, run = [], engine.run_jobs

        def recorded(jobs):
            calls.append(list(jobs))
            return run(calls[-1])

        monkeypatch.setattr(engine, "run_jobs", recorded)
        return calls

    @pytest.mark.parametrize("axis, values", [
        ("forwarders", [1, 2, 3]), ("ber", [0.001, 0.002, 0.003]), ("p_sw", [0.6, 0.8, 1.0]),
    ])
    def test_one_call_with_its_jobs_in_row_order(self, tmp_path, capsys, calls, axis, values):
        assert cli.main(["sweep", write_cfg(tmp_path, self.SWEEP % (axis, values))]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")][1:]
        [jobs] = calls
        assert all(job.func is engine.run_experiment for job in jobs)
        assert [job.args[1].mode.value for job in jobs] == [row[7] for row in rows]
        assert [row[0] for row in rows] == [cli._fmt(v) for v in values for _ in range(2)]
        if axis == "forwarders":
            assert [job.args[1].source for job in jobs] == [v + 1 for v in values for _ in range(2)]

    def test_a_points_modes_share_one_topology(self, tmp_path, calls):
        cfg = write_cfg(tmp_path, self.SWEEP % ("ber", [0.001, 0.002, 0.003]))
        assert cli.main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 0
        [jobs] = calls
        topologies = [job.args[0] for job in jobs]
        assert all(a is b for a, b in zip(topologies[0::2], topologies[1::2]))
        assert len({id(t) for t in topologies}) == 3

    @pytest.mark.parametrize("cores, forks", [(2, 1), (1, 0)])
    def test_a_sweep_forks_once(self, tmp_path, monkeypatch, cores, forks):
        counted, fork = [], os.fork

        def counting_fork():
            counted.append(None)
            return fork()

        monkeypatch.setattr(engine, "_cores", lambda: cores)
        monkeypatch.setattr(os, "fork", counting_fork)
        cfg = write_cfg(tmp_path, self.SWEEP % ("forwarders", [1, 2, 3, 4, 5, 6]))
        assert cli.main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(counted) == forks
        assert (tmp_path / "out").read_text().count("\n") == 3 + 1 + 12


class TestCores:
    """``simulate`` and ``sweep`` run their engine runs, and ``verify`` its
    Monte Carlo beside its grid, on the cores this process may run on; the
    output does not depend on how many."""

    CONFIGS = {
        "simulate": STAR_CFG.replace("receiver_based", "both"),
        "sweep": STAR_CFG.replace("receiver_based", "both")
        + "sweep: {parameter: forwarders, values: [1, 2, 3]}\n",
    }

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    @pytest.mark.parametrize("command", [*sorted(CONFIGS), "verify"])
    def test_one_core_gives_the_same_bytes(self, tmp_path, command):
        if command == "verify":
            args, lines = ["--trials", "20000"], 4
        else:
            args, lines = [write_cfg(tmp_path, self.CONFIGS[command])], 5
        src = Path(__file__).resolve().parents[1] / "src"

        def one_core():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        outputs = [
            subprocess.run(
                [sys.executable, "-m", "oppsim", command, *args], preexec_fn=pin,
                env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, check=True,
                timeout=300,
            ).stdout
            for pin in (None, one_core)
        ]
        assert outputs[0].count(b"\n") >= lines
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_no_child_is_left(self, tmp_path, capsys, command):
        assert cli.main([command, write_cfg(tmp_path, self.CONFIGS[command])]) == 0
        assert capsys.readouterr().out.count("\n") > 4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestConfigErrorLines:
    """Configs that exit 1 with one stderr line and nothing on stdout."""

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_unreachable_topology_is_one(self, tmp_path, capsys, command):
        err = fails_with(tmp_path, capsys, command, (
            "topology: {kind: diamond, source_ber: [1.0, 1.0]}\nsim: {replications: 10}\n"
        ))
        assert err == (
            "config error: topology: unreachable forwarder set: every link probability is 0\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("replications", 0, "replications must be a positive integer, got 0"),
            ("seed", -1, "seed must be a nonnegative integer, got -1"),
            ("max_hops", 0, "max_hops must be a positive integer, got 0"),
            ("election_slots", 0, "election_slots must be a positive integer, got 0"),
        ],
    )
    def test_out_of_range_sim_key(self, tmp_path, capsys, command, key, value, message):
        err = fails_with(tmp_path, capsys, command, (
            f"topology: {{kind: chain, link_success: [0.9]}}\nsim: {{{key}: {value}}}\n"
        ))
        assert err == f"config error: sim: {message}\n"

    def test_out_of_range_ber_names_the_value(self, tmp_path, capsys):
        err = fails_with(tmp_path, capsys, "sweep", (
            "topology: {kind: chain, link_success: [0.9]}\n"
            "sim: {replications: 10}\n"
            "sweep: {parameter: ber, values: [0.01, 1.5]}\n"
        ))
        assert err == (
            "config error: sweep.values[1]: bit error rate must be a probability in [0, 1], got 1.5\n"
        )

    @pytest.mark.parametrize("command, text", [
        ("simulate", "topology: {kind: star, forwarders: 1000000000000000000, p_link: 0.6}\n"),
        ("sweep", "topology: {kind: star, forwarders: 2, p_link: 0.6}\n"
                  f"sweep: {{parameter: forwarders, values: [{10**400}]}}\n"),
    ], ids=["config", "sweep-value"])
    def test_huge_star_is_refused_before_it_allocates(self, tmp_path, command, text):
        done = run_limited([command, write_cfg(tmp_path, text)])
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "config error: topology: forwarders must be at most 1000\n"

    # a co-candidate with no usable link back draws once per micro-frame
    _LOSSY_STAR = "topology: {kind: star, forwarders: 3, p_link: 0.9, intercandidate_ber: 1.0}\n"
    # the benchmark's 1000-node mesh: each sweep point holds about 2.2 MB until the sweep's runs end
    _MESH = "topology: {kind: generated, nodes: 1000, radio_range: 8.0, ber: {kind: distance, p_max: 0.005}}\n"

    @pytest.mark.parametrize("command, text, message", [
        ("simulate", _LOSSY_STAR + "frame: {preamble_frames: 1000000000000}\nsim: {replications: 20}\n",
         "frame: preamble_frames must be at most 10000"),
        ("sweep", _LOSSY_STAR + "sim: {replications: 20}\n"
                  "sweep: {parameter: preamble_frames, values: [1000000000000]}\n",
         "frame: preamble_frames must be at most 10000"),
        ("simulate", _LOSSY_STAR + "sim: {replications: 1000000000000000000}\n",
         "sim: replications must be at most 100000000"),
        ("sweep", _MESH + "sim: {replications: 20}\nsweep: {parameter: p_sw, values: [%s]}\n"
                  % ", ".join(["1.0"] * 10_000), "sweep.values must have at most 256 entries"),
    ], ids=["preamble_frames", "sweep-preamble_frames", "replications", "sweep-values"])
    def test_huge_count_is_refused_before_any_work(self, tmp_path, command, text, message):
        done = run_limited([command, write_cfg(tmp_path, text)])
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"config error: {message}\n")

    def test_unreachable_ber_point_is_one(self, tmp_path, capsys):
        err = fails_with(tmp_path, capsys, "sweep", (
            "topology: {kind: star, forwarders: 2, p_link: 0.6}\n"
            "sim: {replications: 10}\n"
            "sweep: {parameter: ber, values: [0.5, 1.0]}\n"
        ))
        assert err == (
            "config error: sweep.values[1]: unreachable forwarder set: every link probability is 0\n"
        )


class TestMainExitCodes:
    def test_analyze_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "topology: {kind: witness}\n")
        assert cli.main(["analyze", path]) == 0
        assert "node id=5" in capsys.readouterr().out

    def test_config_error_is_one(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "topology: {kind: nosuch}\n")
        assert cli.main(["analyze", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_is_one(self, tmp_path):
        assert cli.main(["simulate", str(tmp_path / "missing.yaml")]) == 1

    def test_entry_points(self, tmp_path, monkeypatch, capsys):
        # the module run as a program, and the console script's function
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "oppsim", "verify", "--grid", "sizes=1", "--trials", "1000"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "verify result=pass breaches=0"
        monkeypatch.setattr(sys, "argv", ["oppsim", "simulate", str(tmp_path / "missing.yaml")])
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint()
        assert exit_.value.code == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config ")

    def test_verify_ok_is_zero(self, capsys):
        code = cli.main(["verify", "--grid", "sizes=1;probs=0,1;costs=1", "--trials", "2000"])
        assert code == 0

    def test_bad_grid_is_one(self, capsys):
        assert cli.main(["verify", "--grid", "sizes=x-y"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("sizes=1;probs=1.5;costs=1", "p_link must be a probability in [0, 1], got 1.5"),
            ("sizes=2;probs=nan;costs=1", "p_link must be a probability in [0, 1], got nan"),
            ("sizes=1;probs=0.5;costs=-1", "remaining_cost must be finite and >= 0, got -1.0"),
            ("sizes=1;probs=0.5;costs=inf", "remaining_cost must be finite and >= 0, got inf"),
            ("sizes=21;probs=0.5;costs=1", "forwarder set of size 21 exceeds enumeration bound 20"),
        ],
    )
    def test_verify_invalid_grid_value_is_one(self, capsys, grid, message):
        assert cli.main(["verify", "--grid", grid, "--trials", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: {message}\n"

    def test_infinite_area_side_is_one(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path, "topology: {kind: generated, nodes: 10, area_side: .inf}\nsim: {replications: 10}\n"
        )
        assert cli.main(["simulate", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "area_side must be positive and finite" in err
        assert "Traceback" not in err

    def test_boolean_source_is_one(self, tmp_path, capsys):
        # True == 1, so a boolean source would run from relay 1
        path = write_cfg(tmp_path, STAR_CFG.replace("source: 4", "source: true"))
        assert cli.main(["simulate", path]) == 1
        assert "sim.source" in capsys.readouterr().err

    def test_verify_breach_is_two(self, monkeypatch, capsys):
        real = analysis.total_path_cost
        monkeypatch.setattr(analysis, "total_path_cost", lambda fs: real(fs) + 1e-3)
        code = cli.main(["verify", "--grid", "sizes=1;probs=0.5;costs=1", "--trials", "2000"])
        assert code == 2

    def test_out_writes_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, STAR_CFG)
        dest = tmp_path / "result.csv"
        assert cli.main(["simulate", cfg, "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text().startswith("# seed=42")

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_unwritable_out_is_one_config_error(self, tmp_path, capsys, command):
        dest = tmp_path / "missing" / "result.csv"
        args = {"verify": ["--grid", "sizes=1", "--trials", "100"], "simulate": [write_cfg(tmp_path, STAR_CFG)]}
        assert cli.main([command, *args[command], "--out", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write output {dest}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not dest.parent.exists()

    def test_out_is_opened_before_the_command_runs(self, tmp_path, capsys, monkeypatch):
        runs = []
        real = engine.run_experiment
        monkeypatch.setattr(engine, "run_experiment", lambda *a: runs.append(a) or real(*a))
        cfg = write_cfg(tmp_path, STAR_CFG.replace("mode: receiver_based", "mode: both"))
        dest = tmp_path / "missing" / "result.csv"
        assert cli.main(["simulate", cfg, "--out", str(dest)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot write output {dest}: ")
        assert runs == []
        assert cli.main(["simulate", cfg, "--out", str(tmp_path / "result.csv")]) == 0
        assert len(runs) == 2

    def test_command_failing_after_the_open_leaves_an_empty_out(self, tmp_path, capsys):
        # as ``> out`` would: the file is there, emptied, and nothing is in it
        dest = tmp_path / "result.csv"
        dest.write_text("stale\n")
        cfg = write_cfg(tmp_path, STAR_CFG + "sweep: {parameter: forwarders, values: [0]}\n")
        assert cli.main(["sweep", cfg, "--out", str(dest)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert dest.read_text() == ""

    def test_simulate_same_bytes_through_main(self, tmp_path):
        cfg = write_cfg(tmp_path, STAR_CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", cfg, "--out", str(a)]) == 0
        assert cli.main(["simulate", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_loaded_topology_is_one(self, tmp_path, capsys):
        t = tmp_path / "asym.topo"
        # a one-way link: symmetric in the file format, so break it by
        # declaring a node the links never reach
        t.write_text("nodes 2 gateway 0\nnode 0 0 0\nnode 1 1 0\n")
        cfg = write_cfg(tmp_path, f"topology: {{kind: file, path: {t} }}\n")
        assert cli.main(["analyze", cfg]) == 1


_SIM = "sim: {replications: 10}\n"
_STAR = "topology: {kind: star, forwarders: 2}\n" + _SIM
_FILE = "topology: {kind: file, path: t.topo}\n" + _SIM
_TWO_NODES = "nodes 2 gateway 0\nnode 0 0 0\nnode 1 1 0\n"


def _three_nodes(seed, ber):
    """A 3-node generated network: with valid rates, seeds 1 to 6 connect it."""
    return f"topology: {{kind: generated, nodes: 3, radio_range: 60, seed: {seed}, ber: {ber}}}\n" + _SIM


# a rate law is refused by its own bounds, wherever the nodes fall: the law
# below gives each link of seed 1 a rate in [0, 1], but a link of seed 5 a
# negative one
_NEGATIVE_P_MIN = "topology.ber: p_min must be a probability in [0, 1], got -0.01"

# an integer no float holds, and the refusals of a frame or a number that big
_HUGE = "1" + "0" * 400
_HUGE_FRAME = "frame: preamble_frames * micro_frame_bits + data_frame_bits must be at most 1.798e+308"
_NO_FLOAT = "int too large to convert to float"
_STAR_P = "topology: {kind: star, forwarders: 2, p_link: 0.6}\n" + _SIM
# a misspelled key in three sections; each was once ignored, and the run was not the one written
_TYPOS = ("topology: {kind: star, forwarders: 2, p_link: 0.6, remainig_cost: 3.0}\n"
          "sim: {mode: receiver_based, replication: 5, seed: 1}\n"
          "framee: {preamble_frames: 4}\n")


class TestRefusals:
    """Refusals that no other test reaches: each is one config error line."""

    @pytest.mark.parametrize("argv, cfg, topology_file, message", [
        (["simulate"], _SIM, None, "missing 'topology' section"),
        (["sweep"], _STAR, None, "missing 'sweep' section"),
        (["simulate"], "frame: [1, 2]\n" + _STAR, None, "section 'frame' must be a mapping"),
        (["simulate"], "topology: {forwarders: 2}\n" + _SIM, None, "topology.kind is required"),
        (["simulate"], "topology: {kind: diamond, source_ber: [0.01, 0.02, 0.03]}\n" + _SIM, None,
         "topology.source_ber must have exactly 2 entries"),
        (["simulate"], "topology: {kind: chain, link_success: []}\n" + _SIM, None,
         "topology.link_success must be a non-empty list of numbers"),
        (["simulate"], "channel: {channels: []}\n" + _STAR, None, "channel.channels must be a non-empty list"),
        (["simulate"], "channel: {channels: [3]}\n" + _STAR, None, "channel.channels[0] must be a mapping"),
        (["analyze"], "forwarder_sets: []\n", None, "forwarder_sets must be a non-empty list"),
        (["simulate"], "topology: {kind: generated, nodes: 5, radio_range: -1}\n" + _SIM, None,
         "topology: radio_range must be positive"),
        (["simulate"], _FILE, "nodes 2 gw 0\n", "t.topo:1: header must be 'nodes N gateway G'"),
        (["simulate"], _FILE, "nodes two gateway 0\n", "t.topo:1: bad node count 'two'"),
        (["simulate"], _FILE, "nodes 1 gateway 0\nnode 0 0\n", "t.topo:2: node line must be 'node id x y'"),
        (["simulate"], _FILE, "nodes 1 gateway 0\nnode 0 x 0\n", "t.topo:2: bad coordinates"),
        (["simulate"], _FILE, _TWO_NODES + "link 0 1\n", "t.topo:4: link line must be 'link a b p'"),
        (["simulate"], _FILE, _TWO_NODES + "link 0 1 2.0\n",
         "t.topo:4: bit error rate must be a probability in [0, 1], got 2.0"),
        (["simulate"], _FILE, _TWO_NODES + "link 0 1 x\n", "t.topo:4: bad bit error rate 'x'"),
        (["simulate"], _FILE, "nodes 1 gateway 0\nedge 0 1\n", "t.topo:2: unknown directive 'edge'"),
        (["simulate"], _FILE, "node 0 0 0\n", "t.topo: missing 'nodes N gateway G' header"),
        (["simulate"], _FILE, "nodes 1 gateway 9\nnode 0 0 0\n", "t.topo: gateway 9 has no node line"),
        (["verify", "--grid", "sizes"], None, None, "bad grid fragment 'sizes'; expected key=values"),
        (["verify", "--grid", "foo=1"], None, None, "unknown grid key 'foo'"),
        (["verify", "--grid", "sizes=0"], None, None, "grid sizes must be >= 1"),
        (["verify", "--trials", "0"], None, None, "--trials must be >= 1"),
        (["simulate"], _three_nodes(1, "{kind: distance, p_min: -0.01, p_max: 0.05}"), None, _NEGATIVE_P_MIN),
        (["simulate"], _three_nodes(5, "{kind: distance, p_min: -0.01, p_max: 0.05}"), None, _NEGATIVE_P_MIN),
        (["simulate"], _three_nodes(1, "{kind: distance, p_min: 0.0, p_max: .nan}"), None,
         "topology.ber: p_max must be a probability in [0, 1], got nan"),
        (["simulate"], _three_nodes(1, "{kind: fixed, p: 1.5}"), None,
         "topology.ber: p must be a probability in [0, 1], got 1.5"),
        pytest.param(["analyze"], f"channel: {{channels: [{{p_sw: {_HUGE}}}]}}\n" + _STAR, None,
                     f"channel.channels[0].p_sw: {_NO_FLOAT}", id="huge-p_sw"),
        pytest.param(["simulate"], f"channel: {{noise_power: -{_HUGE}}}\n" + _STAR, None,
                     f"channel.noise_power: {_NO_FLOAT}", id="huge-noise_power"),
        pytest.param(["analyze"], f"topology: {{kind: star, forwarders: 2, remaining_cost: {_HUGE}}}\n", None,
                     f"topology.remaining_cost: {_NO_FLOAT}", id="huge-remaining_cost"),
        pytest.param(["simulate"], f"frame: {{data_frame_bits: {_HUGE}}}\n" + _STAR, None, _HUGE_FRAME,
                     id="huge-data_frame_bits"),
        pytest.param(["sweep"], _STAR_P + f"sweep: {{parameter: ber, values: [{_HUGE}]}}\n", None,
                     f"sweep.values[0]: {_NO_FLOAT}", id="huge-sweep-ber"),
        pytest.param(["sweep"], _STAR + f"sweep: {{parameter: p_sw, values: [-{_HUGE}]}}\n", None,
                     f"channel.channels[0].p_sw: {_NO_FLOAT}", id="huge-sweep-p_sw"),
        pytest.param(["sweep"], _STAR + f"sweep: {{parameter: preamble_frames, values: [{_HUGE}]}}\n", None,
                     _HUGE_FRAME, id="huge-sweep-preamble_frames"),
        # a key no table names is refused, whatever the command and the section
        pytest.param(["simulate"], "framee: {preamble_frames: 4}\n" + _STAR, None, "unknown key framee",
                     id="unknown-section"),
        pytest.param(["simulate"], _TYPOS, None, "unknown key framee", id="unknown-section-first"),
        pytest.param(["simulate"], "frame: {preamble_frame: 4}\n" + _STAR, None,
                     "unknown key frame.preamble_frame", id="unknown-frame-key"),
        pytest.param(["simulate"], "channel: {noise: 1.0}\n" + _STAR, None, "unknown key channel.noise",
                     id="unknown-channel-key"),
        pytest.param(["analyze"], "channel: {channels: [{p_sw: 1.0}, {bw: 2.0}]}\n" + _STAR, None,
                     "unknown key channel.channels[1].bw", id="unknown-channels-entry-key"),
        pytest.param(["simulate"], _TYPOS.split("\n")[0] + "\n" + _SIM, None, "unknown key topology.remainig_cost",
                     id="unknown-topology-key"),
        pytest.param(["simulate"], "topology: {kind: diamond, forwarders: 2}\n" + _SIM, None,
                     "unknown key topology.forwarders", id="key-of-another-kind"),
        pytest.param(["simulate"], _three_nodes(1, "{kind: fixed, q: 0.01}"), None, "unknown key topology.ber.q",
                     id="unknown-ber-key"),
        pytest.param(["simulate"], _three_nodes(1, "{kind: fixed, p_max: 0.01}"), None,
                     "unknown key topology.ber.p_max", id="key-of-another-ber-kind"),
        pytest.param(["simulate"], _STAR.replace("replications", "replication"), None,
                     "unknown key sim.replication", id="unknown-sim-key"),
        pytest.param(["analyze"], "forwarder_sets: [[{node: 1, p: 0.5}]]\n", None,
                     "unknown key forwarder_sets[0][0].p", id="unknown-forwarder-key"),
        pytest.param(["sweep"], _STAR + "sweep: {parameter: p_sw, values: [1.0], valuse: [0.5]}\n", None,
                     "unknown key sweep.valuse", id="unknown-sweep-key"),
    ])
    def test_refusal_is_one_config_error_line(self, tmp_path, monkeypatch, capsys, argv, cfg, topology_file,
                                              message):
        monkeypatch.chdir(tmp_path)
        if topology_file is not None:
            (tmp_path / "t.topo").write_text(topology_file)
        if cfg is not None:
            argv = [*argv, write_cfg(tmp_path, cfg)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"config error: {message}"]

    def test_decreasing_distance_law_builds(self, tmp_path, capsys):
        # p_min > p_max is a valid law: the rate falls with distance
        cfg = write_cfg(tmp_path, _three_nodes(1, "{kind: distance, p_min: 0.05, p_max: 0.01}"))
        assert cli.main(["simulate", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].startswith("receiver_based,10,")


# values at the edges of every key's type; a huge count is refused by its
# bound before any work
_EDGES = (0, 1, -1, math.nan, math.inf, -math.inf, 10**400, -10**400, "x", True, None, [], {})
_STAR_KEYS = cli._topology_kinds()["star"][1]
_ANALYZE_KEYS = {
    **{("frame", key): _EDGES for key in cli.FRAME_FIELDS},
    **{("channel", "channels", key): _EDGES for key in cli.CHANNEL_FIELDS},
    ("channel", "noise_power"): _EDGES,
    **{("topology", key): _EDGES for key in _STAR_KEYS},
}


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({}, optional={key: st.sampled_from(v) for key, v in _ANALYZE_KEYS.items()}))
def test_analyze_of_a_star_ends_in_records_or_one_error_line(tmp_path_factory, drawn):
    cfg = {"topology": {"kind": "star"}, "frame": {}, "channel": {}}
    for (section, *path), value in drawn.items():
        if path[0] == "channels":
            cfg[section].setdefault("channels", [{}])[0][path[1]] = value
        else:
            cfg[section][path[0]] = value
    path = tmp_path_factory.getbasetemp() / "drawn.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", str(path)])
    if code == 0:
        assert err.getvalue() == ""
        assert "nan" not in out.getvalue()
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith(("config error: ", "validation error: "))


_RUN_TOPOLOGIES = {
    "star": {"kind": "star", "forwarders": 2, "p_link": 0.6},
    "diamond": {"kind": "diamond"},
    "chain": {"kind": "chain", "link_success": [0.99, 0.95]},
}
# a drawn value: at an edge of its key's type, or an ordinary one; no
# integer in it is a count between 20 and any bound, so a drawn
# replications value runs at most 20 replications or is refused
_VALUES = st.sampled_from((*_EDGES, 0.5, 2, 0.01))


@st.composite
def _run_configs(draw):
    """(command, config): a simulate or sweep of a star, a diamond or a
    chain.  Up to two keys, drawn from the CLI's own tables or named by no
    table, are set to drawn values; a list key may take a short list of
    them.  Replications stay at most 20 and a sweep has at most 4 values."""
    kind = draw(st.sampled_from(sorted(_RUN_TOPOLOGIES)))
    tables = {
        ("frame",): cli.FRAME_FIELDS, ("sim",): cli.SIM_FIELDS, ("channel",): {"noise_power": float},
        ("channel", "channels"): cli.CHANNEL_FIELDS, ("topology",): cli._topology_kinds()[kind][1],
    }
    keys = [(where, key, key_kind) for where, table in tables.items() for key, key_kind in table.items()]
    keys += [(where, "unknown_key", None) for where in [(), *tables]]
    cfg = {"topology": dict(_RUN_TOPOLOGIES[kind]), "sim": {"replications": 20, "seed": 3}}
    for where, key, key_kind in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        if key_kind in (list, tuple) and draw(st.booleans()):
            value = draw(st.lists(_VALUES, max_size=3))
        else:
            value = draw(_VALUES)
        if where == ("channel", "channels"):
            cfg.setdefault("channel", {}).setdefault("channels", [{}])[0][key] = value
        elif where:
            cfg.setdefault(where[0], {})[key] = value
        else:
            cfg[key] = value
    command = draw(st.sampled_from(["simulate", "sweep"]))
    if command == "sweep":
        parameter = draw(st.sampled_from(cli._SWEEP_AXES) | _VALUES)
        cfg["sweep"] = {"parameter": parameter, "values": draw(st.lists(_VALUES, min_size=1, max_size=4))}
    return command, cfg


@settings(max_examples=300, deadline=None)
@given(_run_configs())
def test_simulate_and_sweep_end_in_rows_or_one_error_line(tmp_path_factory, drawn):
    command, cfg = drawn
    path = tmp_path_factory.getbasetemp() / "drawn-run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out, err = io.StringIO(), io.StringIO()
    # the runs stay in this process: a drawn config never forks
    with (unittest.mock.patch.object(engine, "_cores", lambda: 1), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        code = cli.main([command, str(path)])
    if code == 0:
        assert err.getvalue() == ""
        header, *rows = csv.reader(line for line in out.getvalue().splitlines() if not line.startswith("#"))
        assert rows
        for row in rows:
            assert len(row) == len(header)
            values = [float(v) for column, v in zip(header, row) if column not in ("mode", "config")]
            assert not any(math.isnan(v) for v in values)
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith(("config error: ", "validation error: "))
