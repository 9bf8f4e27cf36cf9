"""Command-line interface: analyze, simulate, sweep, verify.

Configs are YAML mappings (the one supported dialect; see README for the
schema).  Tables come out as CSV with ``#``-prefixed provenance comments;
reports come out as one-record-per-line ``key=value`` text.  Every record
carries the seed and a short config digest so any row can be reproduced
from the file alone.

Exit codes: 0 success, 1 validation or config error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import yaml

from . import analysis, engine, topology as topo, verification
from .model import (
    BitErrorRate,
    Channel,
    ChannelModel,
    ForwarderEntry,
    ForwarderSet,
    FrameParams,
    Node,
    NodeId,
    Topology,
    validate,
)
from .verification import DEFAULT_SEED, DEFAULT_TRIALS

RETRY_CONVENTION = "excludes-first-attempt"


class ConfigError(ValueError):
    """Configuration could not be parsed or failed validation."""


# ---------------------------------------------------------------- config --


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return raw


def _section(cfg: dict, name: str) -> dict:
    value = cfg.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return value


# A field table maps each key of a config section to the kind of value it
# takes: one of these types, or ``list`` for a non-empty list of numbers,
# or ``tuple`` for a pair of numbers.
# kind -> (accepted Python types, how an error names them)
_KINDS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
    dict: (dict, "a mapping"),
    NodeId: ((int, str), "a node id or null"),
}


def _checked(name: str, value, kind: type):
    if kind in (list, tuple):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list of numbers")
        if kind is tuple and len(value) != 2:
            raise ConfigError(f"{name} must have exactly 2 entries")
        return tuple(_checked(f"{name}[{i}]", v, float) for i, v in enumerate(value))
    accepted, description = _KINDS[kind]
    # bool is a subclass of int: only a boolean field takes one
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name} must be {description}, got {value!r}")
    return float(value) if kind is float else value


def _read(section: dict, where: str, table: dict[str, type]) -> dict:
    """The checked values of the keys ``section`` sets.  An absent or null
    key is left out, so the caller's default applies."""
    return {
        key: _checked(f"{where}.{key}", section[key], kind)
        for key, kind in table.items()
        if section.get(key) is not None
    }


def _read_list(value, where: str, table: dict[str, type], build) -> list:
    """``build(i, values)`` for the i-th mapping of the non-empty list
    ``value``, with the values it sets read through ``table``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list")
    built = []
    for i, entry in enumerate(value):
        name = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{name} must be a mapping")
        values = _read(entry, name, table)
        try:
            built.append(build(i, values))
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return built


def _defaults(target, table: dict[str, type]) -> dict:
    """The defaults that ``target``'s parameters give the table's keys."""
    params = inspect.signature(target).parameters
    return {
        key: params[key].default
        for key in table
        if params[key].default is not inspect.Parameter.empty
    }


FRAME_FIELDS = {f.name: int for f in fields(FrameParams)}
CHANNEL_FIELDS = {f.name: float for f in fields(Channel)}
SIM_FIELDS = {
    "mode": str,
    "replications": int,
    "seed": int,
    "source": NodeId,
    "max_hops": int,
    "election_slots": int,
    "suppression": bool,
}
# the CLI runs 1000 receiver-based replications unless told otherwise;
# every other sim key defaults as engine.SimConfig does
SIM_DEFAULTS = {
    **_defaults(engine.SimConfig, SIM_FIELDS),
    "mode": "receiver_based",
    "replications": 1000,
}
BER_KINDS = {
    "fixed": (topo.FixedBer, {"p": float}),
    "distance": (topo.DistanceBer, {"p_min": float, "p_max": float}),
}


def _kind_args(section: dict, where: str, kinds: dict, default_kind: str | None = None):
    """The builder that ``section``'s kind names and its keyword arguments:
    the section's values over the builder's own defaults."""
    kind = _read(section, where, {"kind": str}).get("kind", default_kind)
    if kind is None:
        raise ConfigError(f"{where}.kind is required")
    if kind not in kinds:
        raise ConfigError(f"unknown {where}.kind {kind!r}")
    builder, table = kinds[kind]
    args = {**_defaults(builder, table), **_read(section, where, table)}
    missing = [key for key in table if key not in args]
    if missing:
        raise ConfigError(f"{where} kind {kind!r} needs {' and '.join(missing)}")
    return builder, args


def parse_frame(cfg: dict) -> FrameParams:
    values = _read(_section(cfg, "frame"), "frame", FRAME_FIELDS)
    try:
        return replace(topo.DEFAULT_FRAME, **values)
    except ValueError as exc:
        raise ConfigError(f"frame: {exc}") from exc


def parse_channel(cfg: dict) -> ChannelModel:
    section = _section(cfg, "channel")
    raw_channels = section.get("channels")
    channels = topo.DEFAULT_CHANNEL.channels
    if raw_channels is not None:
        channels = _read_list(
            raw_channels, "channel.channels", CHANNEL_FIELDS,
            lambda i, values: replace(topo.DEFAULT_CHANNEL.evaluated, **values),
        )
    values = _read(section, "channel", {"noise_power": float})
    try:
        return replace(topo.DEFAULT_CHANNEL, channels=tuple(channels), **values)
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc


def _generated_topology(
    nodes: int,
    area_side: float = 100.0,
    radio_range: float = 30.0,
    seed: int = 1,
    ber: dict | None = None,
    gateway_position: tuple[float, float] | None = None,
    *,
    frame: FrameParams,
    channel: ChannelModel,
) -> Topology:
    ber_model, args = _kind_args(ber or {}, "topology.ber", BER_KINDS, default_kind="fixed")
    gen = topo.GeneratorConfig(
        nodes=nodes,
        area_side=area_side,
        radio_range=radio_range,
        ber_model=ber_model(**args),
        frame=frame,
        channel=channel,
        gateway_position=gateway_position,
    )
    return topo.generate(gen, seed=seed)


def _topology_kinds() -> dict:
    # built on each call, so that a builder is looked up when a config is
    # read and a replaced module attribute takes effect
    return {
        "chain": (topo.chain_topology, {"link_success": list}),
        "star": (
            topo.star_topology,
            {"forwarders": int, "p_link": float, "remaining_cost": float, "intercandidate_ber": float},
        ),
        "diamond": (
            topo.diamond_topology,
            {"source_ber": tuple, "relay_ber": tuple, "intercandidate_ber": float},
        ),
        "witness": (topo.witness_topology, {"far_cost": float}),
        "generated": (
            _generated_topology,
            {
                "nodes": int,
                "area_side": float,
                "radio_range": float,
                "seed": int,
                "ber": dict,
                "gateway_position": tuple,
            },
        ),
        "file": (read_topology_file, {"path": str}),
    }


def build_topology(cfg: dict, frame: FrameParams, channel: ChannelModel) -> Topology:
    section = _section(cfg, "topology")
    if not section:
        raise ConfigError("missing 'topology' section")
    builder, args = _kind_args(section, "topology", _topology_kinds())
    try:
        return builder(**args, frame=frame, channel=channel)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"topology: {exc}") from exc


_MODES = {
    "receiver_based": (engine.ProtocolMode.RECEIVER_BASED,),
    "sender_prioritized": (engine.ProtocolMode.SENDER_PRIORITIZED,),
    "both": (engine.ProtocolMode.RECEIVER_BASED, engine.ProtocolMode.SENDER_PRIORITIZED),
}


def parse_sim(cfg: dict) -> dict:
    params = {**SIM_DEFAULTS, **_read(_section(cfg, "sim"), "sim", SIM_FIELDS)}
    if params["mode"] not in _MODES:
        raise ConfigError(f"sim.mode must be one of {sorted(_MODES)}, got {params['mode']!r}")
    if params["replications"] < 1:
        raise ConfigError("sim.replications must be >= 1")
    if params["seed"] < 0:
        raise ConfigError("sim.seed must be >= 0")
    return params


FORWARDER_FIELDS = {"node": NodeId, "p_link": float, "remaining_cost": float}


def parse_forwarder_sets(cfg: dict) -> list[ForwarderSet]:
    """The explicit candidate sets that ``analyze`` evaluates.  An entry's
    node defaults to its index in its set, the rest as ForwarderEntry's."""
    raw_sets = cfg.get("forwarder_sets")
    if raw_sets is None:
        return []
    if not isinstance(raw_sets, list) or not raw_sets:
        raise ConfigError("forwarder_sets must be a non-empty list")
    sets = []
    for i, raw_set in enumerate(raw_sets):
        entries = _read_list(
            raw_set, f"forwarder_sets[{i}]", FORWARDER_FIELDS,
            lambda j, values: ForwarderEntry(**{"node": j, **values}),
        )
        try:
            sets.append(ForwarderSet(tuple(entries)))
        except TypeError:
            raise ConfigError(f"forwarder_sets[{i}] mixes integer and string node ids") from None
    return sets


def effective_config(cfg: dict) -> dict:
    """The fully defaulted configuration: re-ingesting it reproduces the
    run exactly."""
    frame = parse_frame(cfg)
    channel = parse_channel(cfg)
    out: dict = {
        "frame": asdict(frame),
        "channel": {
            "noise_power": channel.noise_power,
            "channels": [asdict(c) for c in channel.channels],
        },
    }
    if "topology" in cfg:
        out["topology"] = dict(_section(cfg, "topology"))
    if "forwarder_sets" in cfg:
        out["forwarder_sets"] = cfg["forwarder_sets"]
    if "sim" in cfg or "topology" in cfg:
        out["sim"] = parse_sim(cfg)
    if "sweep" in cfg:
        sweep = _section(cfg, "sweep")
        out["sweep"] = {"parameter": sweep.get("parameter"), "values": sweep.get("values")}
    return out


def config_digest(cfg: dict) -> str:
    effective = effective_config(cfg)
    canonical = json.dumps(effective, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ------------------------------------------------------- topology files --


def format_topology(topology: Topology) -> str:
    """Line-oriented serialization: a header, one node line per node, one
    link line per direction-collapsed link (bit error rate as the third
    field).  Floats are written round-trip exact."""
    lines = [f"nodes {len(topology.nodes)} gateway {topology.gateway}"]
    for n in topology.nodes:
        x, y = n.position if n.position is not None else (0.0, 0.0)
        lines.append(f"node {n.id} {x!r} {y!r}")
    for a, b in _undirected_links(topology):
        lines.append(f"link {a} {b} {topology.links[(a, b)].p!r}")
    return "\n".join(lines) + "\n"


def _undirected_links(topology: Topology):
    """Each link once, ordered by the string forms of its ends."""
    seen = set()
    for a, b in sorted(topology.links, key=lambda k: (str(k[0]), str(k[1]))):
        if (b, a) not in seen:
            seen.add((a, b))
            yield a, b


def write_topology_file(topology: Topology, path: str | Path) -> None:
    Path(path).write_text(format_topology(topology))


def _node_token(token: str) -> NodeId:
    try:
        return int(token)
    except ValueError:
        return token


def read_topology_file(path: str | Path, frame: FrameParams, channel: ChannelModel) -> Topology:
    """Parse the line-oriented topology format, then assign hop IDs and
    ranks.  Parse failures name the offending line."""
    path = Path(path)
    try:
        raw_lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read topology {path}: {exc}") from exc

    nodes: list[Node] = []
    links: dict[tuple[NodeId, NodeId], BitErrorRate] = {}
    declared = None
    gateway: NodeId | None = None
    known: set[NodeId] = set()
    for lineno, line in enumerate(raw_lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        where = f"{path}:{lineno}"
        if tokens[0] == "nodes":
            if len(tokens) != 4 or tokens[2] != "gateway":
                raise ConfigError(f"{where}: header must be 'nodes N gateway G'")
            try:
                declared = int(tokens[1])
            except ValueError:
                raise ConfigError(f"{where}: bad node count {tokens[1]!r}") from None
            gateway = _node_token(tokens[3])
        elif tokens[0] == "node":
            if len(tokens) != 4:
                raise ConfigError(f"{where}: node line must be 'node id x y'")
            nid = _node_token(tokens[1])
            try:
                x, y = float(tokens[2]), float(tokens[3])
            except ValueError:
                raise ConfigError(f"{where}: bad coordinates") from None
            if nid in known:
                raise ConfigError(f"{where}: duplicate node id {nid!r}")
            known.add(nid)
            nodes.append(Node(id=nid, rank=1.0, hop_id=0, position=(x, y)))
        elif tokens[0] == "link":
            if len(tokens) != 4:
                raise ConfigError(f"{where}: link line must be 'link a b p'")
            a, b = _node_token(tokens[1]), _node_token(tokens[2])
            for end in (a, b):
                if end not in known:
                    raise ConfigError(f"{where}: link refers to unknown node {end!r}")
            try:
                ber = BitErrorRate(float(tokens[3]))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            links[(a, b)] = ber
            links[(b, a)] = ber
        else:
            raise ConfigError(f"{where}: unknown directive {tokens[0]!r}")

    if gateway is None:
        raise ConfigError(f"{path}: missing 'nodes N gateway G' header")
    if declared != len(nodes):
        raise ConfigError(f"{path}: header declares {declared} nodes, file has {len(nodes)}")
    if gateway not in known:
        raise ConfigError(f"{path}: gateway {gateway!r} has no node line")
    try:
        built = Topology(nodes=tuple(nodes), gateway=gateway, links=links, frame=frame, channel=channel)
        return topo.compute_ranks(topo.assign_hop_ids(built))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# -------------------------------------------------------------- emission --


def _csv_preamble(seed: int, digest: str) -> list[str]:
    return [
        f"# seed={seed}",
        f"# config={digest}",
        f"# retransmissions_convention={RETRY_CONVENTION} (f / (1 - f); the first attempt is not a retry)",
    ]


def _guarded_cost(fs: ForwarderSet) -> float:
    try:
        return analysis.total_path_cost(fs)
    except analysis.UnreachableForwarderSetError:
        return float("inf")


def _guarded_retransmissions(failure: float) -> float:
    if failure >= 1.0:
        return float("inf")
    return analysis.expected_retransmissions(failure)


def _parsed(cfg: dict) -> tuple[FrameParams, ChannelModel, dict, str]:
    """The frame, channel and sim sections, and the config digest."""
    return parse_frame(cfg), parse_channel(cfg), parse_sim(cfg), config_digest(cfg)


def _topology_for_run(cfg: dict, frame: FrameParams, channel: ChannelModel) -> Topology:
    built = build_topology(cfg, frame, channel)
    violations = validate(built)
    if violations:
        raise ConfigError(
            "invalid topology: " + "; ".join(f"[{v.code}] {v.message}" for v in violations)
        )
    return built


# ------------------------------------------------------------- analyze --


def cmd_analyze(cfg: dict) -> str:
    frame, channel, sim, digest = _parsed(cfg)
    suffix = f"seed={sim['seed']} config={digest} retransmissions_convention={RETRY_CONVENTION}"
    lines: list[str] = []

    for i, fs in enumerate(parse_forwarder_sets(cfg)):
        failure = analysis.set_failure_probability(fs)
        lines.append(
            f"set index={i} size={len(fs)}"
            f" cost={_fmt(_guarded_cost(fs))}"
            f" overhead={_fmt(analysis.coordination_overhead(fs))}"
            f" failure={_fmt(failure)} retransmissions={_fmt(_guarded_retransmissions(failure))} {suffix}"
        )

    if "topology" in cfg:
        topology_obj = _topology_for_run(cfg, frame, channel)
        costs = analysis.network_path_costs(topology_obj)
        p_sw = channel.evaluated.p_sw
        lines.append(
            f"topology nodes={len(topology_obj.nodes)}"
            f" links={len(topology_obj.links) // 2} gateway={topology_obj.gateway} {suffix}"
        )
        for a, b in _undirected_links(topology_obj):
            ber = topology_obj.ber(a, b)
            lines.append(
                f"link a={a} b={b} ber={_fmt(ber)}"
                f" preamble_miss={_fmt(analysis.preamble_miss_probability(ber, frame))}"
                f" data_miss={_fmt(analysis.data_miss_probability(ber, frame))}"
                f" failure={_fmt(analysis.failure_probability(ber, frame, p_sw))}"
                f" success={_fmt(analysis.link_success(ber, frame, p_sw))} {suffix}"
            )
        for node in topology_obj.nodes:
            base = (
                f"node id={node.id} hop_id={node.hop_id} rank={_fmt(node.rank)}"
                f" cost={_fmt(costs[node.id])}"
            )
            if node.id != topology_obj.gateway:
                fs = analysis.forwarder_entries(topology_obj, node.id, costs)
                failure = analysis.set_failure_probability(fs)
                base += (
                    f" overhead={_fmt(analysis.coordination_overhead(fs))}"
                    f" failure={_fmt(failure)} retransmissions={_fmt(_guarded_retransmissions(failure))}"
                )
            base += (
                f" hop_distance_gateway={topo.hop_distance(topology_obj, node.id, topology_obj.gateway)}"
                f" rank_distance_gateway={_fmt(topo.rank_difference_distance(topology_obj, node.id, topology_obj.gateway))}"
            )
            lines.append(base + f" {suffix}")
        for i, ch in enumerate(channel.channels):
            lines.append(
                f"channel index={i} p_sw={_fmt(ch.p_sw)} p_acc={_fmt(ch.p_acc)}"
                f" bandwidth_hz={_fmt(ch.bandwidth_hz)}"
                f" potential_bandwidth_hz={_fmt(analysis.potential_bandwidth(ch.p_acc, ch.bandwidth_hz))}"
                f" noise_power={_fmt(channel.noise_power)} {suffix}"
            )

    if not lines:
        raise ConfigError("nothing to analyze: provide a topology or forwarder_sets")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- simulate --


def cmd_simulate(cfg: dict) -> str:
    frame, channel, sim, digest = _parsed(cfg)
    topology_obj = _topology_for_run(cfg, frame, channel)

    rows = [
        "mode,replications,pdr,mean_duplicates,mean_transmissions,mean_hops,"
        "empirical_overhead,mean_energy_bits,hop_energy_ratio,seed,config"
    ]
    for mode in _MODES[sim["mode"]]:
        metrics = engine.run_experiment(topology_obj, engine.SimConfig(**{**sim, "mode": mode}))
        mean_energy = metrics.mean_transmissions * frame.bits_per_transmission
        ratio = metrics.mean_hops / mean_energy if mean_energy > 0 else 0.0
        rows.append(
            ",".join(
                [
                    mode.value,
                    str(metrics.deliveries_attempted),
                    _fmt(metrics.pdr),
                    _fmt(metrics.mean_duplicates),
                    _fmt(metrics.mean_transmissions),
                    _fmt(metrics.mean_hops),
                    _fmt(metrics.empirical_coordination_overhead),
                    _fmt(mean_energy),
                    _fmt(ratio),
                    str(sim["seed"]),
                    digest,
                ]
            )
        )
    return "\n".join(_csv_preamble(sim["seed"], digest) + rows) + "\n"


# ---------------------------------------------------------------- sweep --


_SWEEP_AXES = ("forwarders", "ber", "p_sw", "preamble_frames", "data_frame_bits")


def _swept_topology(
    cfg: dict, frame: FrameParams, channel: ChannelModel, axis: str, value
) -> Topology:
    if axis in ("preamble_frames", "data_frame_bits"):
        frame = replace(frame, **{axis: int(value)})
    elif axis == "p_sw":
        evaluated = replace(channel.evaluated, p_sw=float(value))
        channel = replace(channel, channels=(evaluated,) + channel.channels[1:])
    built = _topology_for_run(cfg, frame, channel)
    if axis == "ber":
        links = dict.fromkeys(built.links, BitErrorRate(float(value)))
        built = topo.compute_ranks(topo.assign_hop_ids(replace(built, links=links)))
    return built


def cmd_sweep(cfg: dict) -> str:
    sweep = _section(cfg, "sweep")
    if not sweep:
        raise ConfigError("missing 'sweep' section")
    axis = sweep.get("parameter")
    if isinstance(axis, list):
        raise ConfigError("single-axis sweeps only: 'parameter' must be one name")
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep.parameter must be one of {_SWEEP_AXES}, got {axis!r}")
    values = sweep.get("values")
    if values is None or not isinstance(values, list):
        raise ConfigError("sweep.values must be a list")
    if not values:
        raise ConfigError("empty sweep: no values to run")

    frame, channel, sim, digest = _parsed(cfg)
    topo_section = _section(cfg, "topology")

    rows = [
        f"{axis},analytic_overhead,empirical_overhead,pdr,mean_duplicates,"
        "retransmissions,mean_transmissions,mode,seed,config"
    ]
    for value in values:
        if axis == "forwarders":
            if topo_section.get("kind") != "star":
                raise ConfigError("sweeping 'forwarders' requires topology.kind 'star'")
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"forwarder counts must be positive integers, got {value!r}")
            _, star = _kind_args(
                {**topo_section, "forwarders": value}, "topology", _topology_kinds()
            )
            built = topo.star_topology(**star, frame=frame, channel=channel)
            # the declared per-candidate delivery probability and remaining
            # cost define the analytic set; the builder realizes the same
            # probability inside the simulator
            analytic = ForwarderSet(
                tuple(
                    ForwarderEntry(
                        node=r, p_link=star["p_link"], remaining_cost=star["remaining_cost"]
                    )
                    for r in range(1, value + 1)
                )
            )
            source: NodeId | None = value + 1
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"sweep values must be numbers, got {value!r}")
            built = _swept_topology(cfg, frame, channel, axis, value)
            source = sim["source"]
            if source is None:
                source = topo.deepest_node(built)
            costs = analysis.network_path_costs(built)
            analytic = analysis.forwarder_entries(built, source, costs)

        analytic_overhead = analysis.coordination_overhead(analytic)
        failure = analysis.set_failure_probability(analytic)
        retries = _guarded_retransmissions(failure)
        for mode in _MODES[sim["mode"]]:
            config = engine.SimConfig(**{**sim, "mode": mode, "source": source})
            metrics = engine.run_experiment(built, config)
            rows.append(
                ",".join(
                    [
                        _fmt(value),
                        _fmt(analytic_overhead),
                        _fmt(metrics.empirical_coordination_overhead),
                        _fmt(metrics.pdr),
                        _fmt(metrics.mean_duplicates),
                        _fmt(retries),
                        _fmt(metrics.mean_transmissions),
                        mode.value,
                        str(sim["seed"]),
                        digest,
                    ]
                )
            )
    return "\n".join(_csv_preamble(sim["seed"], digest) + rows) + "\n"


# ----------------------------------------------------------------- main --


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oppsim",
        description="Analyze and simulate receiver-based opportunistic forwarding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "closed-form records for a topology or explicit forwarder sets"),
        ("simulate", "packet-level replications, metrics as CSV"),
        ("sweep", "one-axis parameter sweep, analytic and empirical columns"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="YAML config file")
        p.add_argument("--out", help="write output to this file instead of stdout")
    pv = sub.add_parser("verify", help="closed-form vs oracle verification grid")
    pv.add_argument("--grid", help="override, e.g. 'sizes=1-3;probs=0,0.5,1;costs=0,1'")
    pv.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="bit-level oracle trials")
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED, help="bit-level oracle seed")
    pv.add_argument("--out", help="write output to this file instead of stdout")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.trials < 1:
                raise ConfigError("--trials must be >= 1")
            report, code = verification.run_verification(args.grid, args.trials, args.seed)
            _write_output(report, args.out)
            return code
        command = {"analyze": cmd_analyze, "simulate": cmd_simulate, "sweep": cmd_sweep}
        _write_output(command[args.command](load_config(args.config)), args.out)
        return 0
    except (ConfigError, verification.GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
