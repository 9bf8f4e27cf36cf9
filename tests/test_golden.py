"""Golden outputs: sha256 of ``analyze``, ``simulate`` and ``sweep`` output
for one small config per built-in topology kind, and of ``verify`` output
for the benchmark's grid and the default grid.

The hashes were recorded before the config readers were rewritten, and
the ``verify`` ones before the single-hop enumeration was batched, so a
refactor that changes any output byte (a value, a row, or the ``config=``
digest) fails here.  A change that means to alter output re-records them
and says why.
"""

import csv
import hashlib

import pytest
import yaml

from oppsim import cli, topology as topo, verification

CONFIGS = {
    "chain": """
topology: {kind: chain, link_success: [0.999, 0.99]}
sim: {mode: both, replications: 200, seed: 3}
sweep: {parameter: ber, values: [0.001, 0.01]}
""",
    "star": """
topology: {kind: star, forwarders: 3, p_link: 0.6, intercandidate_ber: 0.01}
sim: {mode: both, replications: 300, seed: 42, source: 4}
sweep: {parameter: forwarders, values: [1, 2, 3]}
""",
    "diamond": """
frame: {preamble_frames: 3}
channel:
  noise_power: 2.0e-9
  channels:
    - {p_sw: 0.9, p_acc: 0.4}
    - {p_sw: 0.5, p_acc: 0.7, bandwidth_hz: 1000000.0}
topology: {kind: diamond, source_ber: [0.02, 0.03], relay_ber: [0.01, 0.015]}
sim: {mode: receiver_based, replications: 300, seed: 5, source: 3, suppression: false}
sweep: {parameter: p_sw, values: [0.5, 1.0]}
""",
    "witness": """
frame: {micro_frame_bits: 6, data_frame_bits: 80}
topology: {kind: witness, far_cost: 2.02}
sim: {mode: sender_prioritized, replications: 200, seed: 1, max_hops: 8, election_slots: 4}
sweep: {parameter: preamble_frames, values: [1, 3]}
""",
    "generated": """
topology:
  kind: generated
  nodes: 20
  area_side: 100.0
  radio_range: 40.0
  seed: 2
  ber: {kind: distance, p_min: 0.0, p_max: 0.02}
sim: {mode: both, replications: 100, seed: 9}
sweep: {parameter: data_frame_bits, values: [50, 100]}
""",
    # reaches every branch of the engine's kernel but the gateway as source:
    # window-closed and hop-limit suppression, receiver-mode duplicates
    # without suppression, sender-mode co-candidates that overhear the
    # winner, miss it or have no link back to it, and transmissions off
    # the channel; recorded before the kernel became one generator per run
    "branches": """
frame: {data_frame_bits: 32}
channel:
  channels:
    - {p_sw: 0.8, p_acc: 0.5}
topology:
  kind: generated
  nodes: 20
  area_side: 100.0
  radio_range: 35.0
  seed: 2
  ber: {kind: distance, p_min: 0.0, p_max: 0.06}
sim: {mode: both, replications: 1000, seed: 11, election_slots: 2, max_hops: 3, suppression: false}
sweep: {parameter: p_sw, values: [0.7, 1.0]}
""",
}

GOLDEN = {
    "chain": {
        "analyze": "55cacf4821286d1754e0f1247816b8dfdf1c03f6349d0d043479ca240e7dfb32",
        "simulate": "7dcf2156f1196285ec0c1c178a6267564226dd657aa4630f3530d42e5a3b3213",
        "sweep": "dcc4a31c14649922e62a279f99b9a1f81ed85c344ee57e74b454643f927c8fd8",
    },
    "star": {
        "analyze": "d17fd8665b56c0ff4f26460afd96a3ecc406ed3fc72d92e50593cb6fa1cfa291",
        "simulate": "245980e952d898cf09edd4bc5ecfc08b6b51bd3ed44df37acabecf2642c030fe",
        "sweep": "7a7f9d7d42890b0c1e3edd5591ca4a56b431bc6a75b402e76d07941b69cd2c76",
    },
    "diamond": {
        "analyze": "740d8cbda19df85e8bc410e2789f9b748cb0b39673d62307bd28f8c7cb644f5b",
        "simulate": "bc830db9ef129381095a511bff3bc4b45c086cd9f92bd956add39469a314b350",
        "sweep": "b2db69a003c99eab581726b36e752915f1e3fa08174d33cab99f304365668f45",
    },
    "witness": {
        "analyze": "7d2ac2c1d321a56adead9a97f1d7513e8c558a88ac5506abd37c4842d5b20d39",
        "simulate": "67e35f7c58fe12245f7d62ea769dc083d968d96695dcd6f65064d65d95f2f6b2",
        "sweep": "658ef62e6db74f3175918257b2089826907b15db0913efb8d726680a8508005f",
    },
    "generated": {
        "analyze": "258f0cb0f824a4ba0838bed22b87a9e5b4f983a0b70a35a338a25aafee62587d",
        "simulate": "b856d55c0cfebd08fd8acfc9702f93f4dc5d22d50da787e04eb6035b5f5da406",
        "sweep": "ba0d281ab34a134af9819250c1119408a463b681882c14d2dece8cfcc9bab7a1",
    },
    "branches": {
        "analyze": "e0b67badeee4b3ff5bfd4ffbab138c86fbd378ddf0e951598c568fd760319964",
        "simulate": "31d4fda42972949e2bbe58b1460bc70d32284652a2369c336072156ec3bad230",
        "sweep": "f81bd2d6f0e983db847dc3f77095af9ff073eab2abd7236b035d7fe435c5f6f6",
    },
}

COMMANDS = {"analyze": cli.cmd_analyze, "simulate": cli.cmd_simulate, "sweep": cli.cmd_sweep}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_output_matches_golden(kind, command):
    out = COMMANDS[command](cli.read_spec(yaml.safe_load(CONFIGS[kind])))
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[kind][command]


def csv_rows(text):
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


EMPIRICAL = ("empirical_overhead", "pdr", "mean_duplicates", "mean_transmissions")


@pytest.mark.parametrize("kind", ["star", "diamond", "witness", "generated"])
def test_sweep_rows_equal_simulate_on_each_point(kind):
    """Each sweep point is the run ``simulate`` makes on the config with
    the swept key set, from the source the sweep uses."""
    cfg = yaml.safe_load(CONFIGS[kind])
    axis = cfg["sweep"]["parameter"]
    swept = csv_rows(cli.cmd_sweep(cli.read_spec(cfg)))
    for value in cfg["sweep"]["values"]:
        point = yaml.safe_load(CONFIGS[kind])
        if axis == "forwarders":
            point["topology"]["forwarders"] = value
            point["sim"]["source"] = value + 1
        elif axis == "p_sw":
            point["channel"]["channels"][0]["p_sw"] = value
        else:
            point.setdefault("frame", {})[axis] = value
        if point["sim"].get("source") is None:
            point["sim"]["source"] = topo.deepest_node(cli.read_spec(point).build())
        simulated = {row["mode"]: row for row in csv_rows(cli.cmd_simulate(cli.read_spec(point)))}
        rows = [row for row in swept if float(row[axis]) == value]
        assert [row["mode"] for row in rows] == list(simulated)
        for row in rows:
            assert [row[c] for c in EMPIRICAL] == [simulated[row["mode"]][c] for c in EMPIRICAL]


VERIFY_GOLDEN = {
    # the benchmark's verify-grid, at its trial count and seed 0
    ("sizes=1-4;probs=0,0.5,1;costs=0,1,2.5", 200_000, 0): (
        "7422e20294b012a0c325f8468f1703014997ba71b34c0f7f6277aab43aeea308"
    ),
    (None, 20_000, verification.DEFAULT_SEED): (
        "68eceb51c682d52fdc3a0b5257765481d25b62e1945d5feff7b10fe3abfd1c3f"
    ),
}


@pytest.mark.parametrize("grid, trials, seed", sorted(VERIFY_GOLDEN, key=str))
def test_verify_output_matches_golden(grid, trials, seed):
    report, code = verification.run_verification(grid, trials, seed)
    assert code == 0
    assert hashlib.sha256(report.encode()).hexdigest() == VERIFY_GOLDEN[grid, trials, seed]


@pytest.mark.xfail(
    strict=True,
    reason="the digest hashes the raw topology section, so a spelled-out default changes it",
)
def test_explicit_default_does_not_change_digest():
    implicit = {"topology": {"kind": "star", "forwarders": 3, "p_link": 0.6}}
    explicit = {"topology": {"kind": "star", "forwarders": 3, "p_link": 0.6, "remaining_cost": 1.0}}
    assert cli.read_spec(implicit).digest == cli.read_spec(explicit).digest
