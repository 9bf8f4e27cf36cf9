import hashlib

import pytest
import yaml

from oppsim import analysis, cli, topology as topo, verification
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

    def test_frame_defaults(self):
        frame = cli.parse_frame({})
        assert (frame.micro_frame_bits, frame.preamble_frames, frame.data_frame_bits) == (8, 2, 100)

    def test_frame_type_error_names_key(self):
        with pytest.raises(ConfigError, match="preamble_frames"):
            cli.parse_frame({"frame": {"preamble_frames": "two"}})

    def test_channel_defaults(self):
        channel = cli.parse_channel({})
        assert channel.evaluated.p_sw == 1.0
        assert channel.noise_power == 1e-9

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="sim.mode"):
            cli.parse_sim({"sim": {"mode": "psychic"}})

    def test_generated_needs_nodes(self):
        with pytest.raises(ConfigError, match="topology kind 'generated' needs nodes"):
            cli.build_topology(
                {"topology": {"kind": "generated"}}, cli.parse_frame({}), cli.parse_channel({})
            )

    def test_unknown_topology_kind(self):
        with pytest.raises(ConfigError, match="nosuch"):
            cli.build_topology({"topology": {"kind": "nosuch"}}, cli.parse_frame({}), cli.parse_channel({}))

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_effective_config_idempotent(self, kind):
        cfg = kind_cfg(kind)
        eff = cli.effective_config(cfg)
        assert cli.effective_config(eff) == eff

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_digest_stable_under_defaulting(self, kind):
        cfg = kind_cfg(kind)
        eff = cli.effective_config(cfg)
        assert cli.config_digest(cfg) == cli.config_digest(eff)
        assert len(cli.config_digest(cfg)) == 12

    def test_digest_tracks_content(self):
        a = yaml.safe_load(STAR_CFG)
        b = yaml.safe_load(STAR_CFG.replace("p_link: 0.6", "p_link: 0.7"))
        assert cli.config_digest(a) != cli.config_digest(b)


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
        out = cli.cmd_analyze(cfg)
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
        out = cli.cmd_analyze({"forwarder_sets": sets})
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
        out = cli.cmd_analyze(cfg)
        assert "cost=inf" in out and "retransmissions=inf" in out

    def test_witness_distances_side_by_side(self):
        out = cli.cmd_analyze({"topology": {"kind": "witness"}})
        far = next(l for l in out.splitlines() if l.startswith("node id=5"))
        assert "hop_distance_gateway=2" in far
        assert "rank_distance_gateway=3.04" in far

    def test_every_record_carries_provenance(self):
        out = cli.cmd_analyze({"topology": {"kind": "witness"}})
        for line in out.splitlines():
            assert "seed=" in line and "config=" in line and "retransmissions_convention=" in line

    def test_channel_record_reports_potential_bandwidth(self):
        out = cli.cmd_analyze({"topology": {"kind": "witness"}})
        channel = next(l for l in out.splitlines() if l.startswith("channel "))
        assert "potential_bandwidth_hz=1000000" in channel

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError):
            cli.cmd_analyze({})


class TestSimulateCommand:
    def test_csv_shape(self, tmp_path):
        cfg = yaml.safe_load(STAR_CFG)
        out = cli.cmd_simulate(cfg)
        lines = out.splitlines()
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert any("seed=42" in c for c in comments)
        assert rows[0].startswith("mode,replications,pdr,")
        assert len(rows) == 2
        assert rows[1].startswith("receiver_based,400,")
        row = dict(zip(rows[0].split(","), rows[1].split(",")))
        bits = cli.parse_frame(cfg).bits_per_transmission
        assert float(row["mean_energy_bits"]) == pytest.approx(
            float(row["mean_transmissions"]) * bits, rel=1e-11
        )

    def test_both_modes_two_rows(self):
        cfg = yaml.safe_load(STAR_CFG.replace("mode: receiver_based", "mode: both"))
        rows = [l for l in cli.cmd_simulate(cfg).splitlines() if not l.startswith("#")]
        assert len(rows) == 3
        assert rows[1].startswith("receiver_based,")
        assert rows[2].startswith("sender_prioritized,")

    def test_byte_identical_reruns(self):
        cfg = yaml.safe_load(STAR_CFG)
        a = cli.cmd_simulate(cfg)
        b = cli.cmd_simulate(yaml.safe_load(STAR_CFG))
        assert hashlib.sha256(a.encode()).hexdigest() == hashlib.sha256(b.encode()).hexdigest()


class TestSweepCommand:
    def test_forwarders_axis(self):
        cfg = {
            "topology": {"kind": "star", "forwarders": 2, "p_link": 0.6},
            "sim": {"replications": 200, "seed": 7},
            "sweep": {"parameter": "forwarders", "values": [1, 2, 3]},
        }
        rows = [l for l in cli.cmd_sweep(cfg).splitlines() if not l.startswith("#")]
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
        rows = [l for l in cli.cmd_sweep(cfg).splitlines() if not l.startswith("#")]
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
        rows = [l for l in cli.cmd_sweep(cfg).splitlines() if not l.startswith("#")]
        assert len(rows) == 3

    def test_frame_axes(self):
        cfg = {
            "topology": {"kind": "chain", "link_success": [1.0]},
            "sim": {"replications": 20, "seed": 3},
            "sweep": {"parameter": "preamble_frames", "values": [1, 4]},
        }
        assert len(cli.cmd_sweep(cfg).splitlines()) == 6
        cfg["sweep"] = {"parameter": "data_frame_bits", "values": [50, 200]}
        assert len(cli.cmd_sweep(cfg).splitlines()) == 6

    def test_multi_axis_rejected(self):
        cfg = {
            "topology": {"kind": "star", "forwarders": 2, "p_link": 0.6},
            "sweep": {"parameter": ["forwarders", "ber"], "values": [1]},
        }
        with pytest.raises(ConfigError, match="single-axis"):
            cli.cmd_sweep(cfg)

    def test_empty_values_rejected(self):
        cfg = {
            "topology": {"kind": "star", "forwarders": 2, "p_link": 0.6},
            "sweep": {"parameter": "forwarders", "values": []},
        }
        with pytest.raises(ConfigError, match="empty sweep"):
            cli.cmd_sweep(cfg)

    def test_forwarders_axis_needs_star(self):
        cfg = {
            "topology": {"kind": "chain", "link_success": [0.9]},
            "sweep": {"parameter": "forwarders", "values": [1]},
        }
        with pytest.raises(ConfigError, match="star"):
            cli.cmd_sweep(cfg)


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

    def test_fault_injection_is_caught(self, monkeypatch):
        # negative control: corrupt the closed form and the grid must breach
        real = analysis.total_path_cost

        def skewed(fs):
            return real(fs) + 1e-6

        monkeypatch.setattr(analysis, "total_path_cost", skewed)
        report, code = verification.run_verification("sizes=1;probs=0.5;costs=1", trials=1_000, seed=5)
        assert code == 2
        assert "breach" in report
        assert "result=fail" in report

    def test_overhead_fault_injection_is_caught(self, monkeypatch):
        real = analysis.coordination_overhead
        monkeypatch.setattr(analysis, "coordination_overhead", lambda fs: real(fs) * 1.001)
        report, code = verification.run_verification("sizes=2;probs=0.5;costs=1", trials=1_000, seed=5)
        assert code == 2


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

    def test_verify_ok_is_zero(self, capsys):
        code = cli.main(["verify", "--grid", "sizes=1;probs=0,1;costs=1", "--trials", "2000"])
        assert code == 0

    def test_bad_grid_is_one(self, capsys):
        assert cli.main(["verify", "--grid", "sizes=x-y"]) == 1
        assert "config error" in capsys.readouterr().err

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
