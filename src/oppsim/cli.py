"""Command-line interface: analyze, simulate, sweep, verify.

Configs are YAML mappings (the one supported dialect; see README for the
schema).  ``read_spec`` reads a config once, section by section, into the
frozen ``RunSpec`` that every command runs from; a sweep point is that
spec with its swept field replaced.  Tables come out as CSV with
``#``-prefixed provenance comments; reports come out as
one-record-per-line ``key=value`` text.  Every record carries the seed and
a short config digest so any row can be reproduced from the file alone.

Exit codes: 0 success, 1 validation or config error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
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
    validate,  # re-exported only: every topology that prepare builds passes it
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
    with _config_errors(f"cannot read config {path}", OSError):
        text = path.read_text()
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


@contextmanager
def _config_errors(where: str, errors: type[Exception] = ValueError):
    """An error of ``errors`` raised inside, reported as a config error at ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# A field table maps each key of a config section to the kind of value it
# takes: one of these types, or ``list`` for a non-empty list of numbers,
# or ``tuple`` for a pair of numbers, or ``BER_KINDS`` for a mapping that
# names a bit error rate model, which is built where it is read.
# kind -> (accepted Python types, how an error names them)
_KINDS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
    dict: (dict, "a mapping"),
    NodeId: ((int, str), "a node id or null"),
}


def _checked(name: str, value, kind):
    if kind is BER_KINDS:
        ber, args = _kind_args(_checked(name, value, dict), name, BER_KINDS, default_kind="fixed")
        return BER_KINDS[ber][0](**args)
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


def _read(section: dict, where: str, table: dict) -> dict:
    """The checked values of the keys ``section`` sets.  An absent or null
    key is left out, so the caller's default applies."""
    return {
        key: _checked(f"{where}.{key}", section[key], kind)
        for key, kind in table.items()
        if section.get(key) is not None
    }


def _read_list(value, where: str, table: dict, build) -> list:
    """``build(i, values)`` for the i-th mapping of the non-empty list
    ``value``, with the values it sets read through ``table``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list")
    built = []
    for i, entry in enumerate(value):
        name = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{name} must be a mapping")
        with _config_errors(name):
            built.append(build(i, _read(entry, name, table)))
    return built


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
SIM_DEFAULTS = {"mode": "receiver_based", "replications": 1000}
BER_KINDS = {
    "fixed": (topo.FixedBer, {"p": float}),
    "distance": (topo.DistanceBer, {"p_min": float, "p_max": float}),
}


def _kind_args(section: dict, where: str, kinds: dict, default_kind: str | None = None):
    """The kind that ``section`` names and its builder's keyword arguments:
    the section's values over the builder's own defaults."""
    kind = section.get("kind")
    kind = default_kind if kind is None else _checked(f"{where}.kind", kind, str)
    if kind is None:
        raise ConfigError(f"{where}.kind is required")
    if kind not in kinds:
        raise ConfigError(f"unknown {where}.kind {kind!r}")
    builder, table = kinds[kind]
    params = inspect.signature(builder).parameters
    defaults = {
        key: params[key].default
        for key in table
        if params[key].default is not inspect.Parameter.empty
    }
    return kind, {**defaults, **_read(section, where, table)}


def _generated_topology(
    nodes: int,
    area_side: float = 100.0,
    radio_range: float = 30.0,
    seed: int = 1,
    ber: topo.FixedBer | topo.DistanceBer = topo.FixedBer(),
    gateway_position: tuple[float, float] | None = None,
    *,
    frame: FrameParams,
    channel: ChannelModel,
) -> Topology:
    gen = topo.GeneratorConfig(nodes, area_side, radio_range, ber, frame, channel, gateway_position)
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
            {"nodes": int, "area_side": float, "radio_range": float, "seed": int,
             "ber": BER_KINDS, "gateway_position": tuple},
        ),
        "file": (read_topology_file, {"path": str}),
    }


_MODES = {
    "receiver_based": (engine.ProtocolMode.RECEIVER_BASED,),
    "sender_prioritized": (engine.ProtocolMode.SENDER_PRIORITIZED,),
    "both": (engine.ProtocolMode.RECEIVER_BASED, engine.ProtocolMode.SENDER_PRIORITIZED),
}


@dataclass(frozen=True)
class RunSpec:
    """A config read once: what every command runs from."""

    frame: FrameParams
    channel: ChannelModel
    sim: engine.SimConfig  # run once per mode, with its mode replaced
    modes: tuple[engine.ProtocolMode, ...]
    kind: str | None  # the topology's kind; None without a topology
    args: dict  # the kind's builder arguments, fully defaulted
    written: dict  # topology, forwarder_sets and sweep, as written
    hashes_sim: bool  # the config has a sim or a topology section
    digest: str = ""

    def build(self) -> Topology:
        """The topology, built with the spec's frame and channel."""
        if self.kind is None:
            raise ConfigError("missing 'topology' section")
        builder, table = _topology_kinds()[self.kind]
        missing = [key for key in table if key not in self.args]
        if missing:
            raise ConfigError(f"topology kind {self.kind!r} needs {' and '.join(missing)}")
        with _config_errors("topology"):
            return builder(**self.args, frame=self.frame, channel=self.channel)

    def as_dict(self) -> dict:
        """What the digest hashes, as a config that reads back into this
        spec.  Legacy: frame, channel and sim fully defaulted, topology,
        forwarder_sets and sweep (parameter and values) as written."""
        out = {
            "frame": asdict(self.frame),
            "channel": {"noise_power": self.channel.noise_power, "channels": [asdict(c) for c in self.channel.channels]},
            **self.written,
        }
        if "sweep" in out:
            out["sweep"] = {key: out["sweep"].get(key) for key in ("parameter", "values")}
        if self.hashes_sim:
            mode = next(name for name, modes in _MODES.items() if modes == self.modes)
            out["sim"] = {**asdict(self.sim), "mode": mode}
        return out


def read_spec(cfg: dict) -> RunSpec:
    """Read ``cfg`` once, in the order frame, channel, sim, topology.  The
    topology is not built: ``RunSpec.build`` builds it."""
    with _config_errors("frame"):
        frame = replace(topo.DEFAULT_FRAME, **_read(_section(cfg, "frame"), "frame", FRAME_FIELDS))

    section = _section(cfg, "channel")
    channels = topo.DEFAULT_CHANNEL.channels
    if section.get("channels") is not None:
        channels = _read_list(
            section["channels"], "channel.channels", CHANNEL_FIELDS,
            lambda i, values: replace(topo.DEFAULT_CHANNEL.evaluated, **values),
        )
    with _config_errors("channel"):
        values = _read(section, "channel", {"noise_power": float})
        channel = replace(topo.DEFAULT_CHANNEL, channels=tuple(channels), **values)

    sim = {**SIM_DEFAULTS, **_read(_section(cfg, "sim"), "sim", SIM_FIELDS)}
    mode = sim.pop("mode")
    if mode not in _MODES:
        raise ConfigError(f"sim.mode must be one of {sorted(_MODES)}, got {mode!r}")
    with _config_errors("sim"):
        sim = engine.SimConfig(mode=_MODES[mode][0], **sim)

    written = {key: dict(_section(cfg, key)) for key in ("topology", "sweep") if key in cfg}
    if "forwarder_sets" in cfg:
        written["forwarder_sets"] = cfg["forwarder_sets"]
    kind, args = None, {}
    if written.get("topology"):
        kind, args = _kind_args(written["topology"], "topology", _topology_kinds())
    spec = RunSpec(frame, channel, sim, _MODES[mode], kind, args, written, "sim" in cfg or "topology" in cfg)
    canonical = json.dumps(spec.as_dict(), sort_keys=True, default=str)
    return replace(spec, digest=hashlib.sha256(canonical.encode()).hexdigest()[:12])


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
    """Parse the line-oriented topology format and prepare its links
    (``topology.prepare``).  Parse failures name the offending line."""
    path = Path(path)
    with _config_errors(f"cannot read topology {path}", OSError):
        raw_lines = path.read_text().splitlines()

    nodes: list[Node] = []
    edges: list[tuple[NodeId, NodeId, BitErrorRate]] = []
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
            if nodes and type(nid) is not type(nodes[0].id):
                raise ConfigError(f"{where}: node ids mix integers and strings")
            known.add(nid)
            nodes.append(Node(id=nid, hop_id=0, position=(x, y)))
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
            edges.append((a, b, ber))
        else:
            raise ConfigError(f"{where}: unknown directive {tokens[0]!r}")

    if gateway is None:
        raise ConfigError(f"{path}: missing 'nodes N gateway G' header")
    if declared != len(nodes):
        raise ConfigError(f"{path}: header declares {declared} nodes, file has {len(nodes)}")
    if gateway not in known:
        raise ConfigError(f"{path}: gateway {gateway!r} has no node line")
    try:
        return topo.prepare(tuple(nodes), gateway, edges, frame, channel)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# -------------------------------------------------------------- emission --


def _csv_preamble(seed: int, digest: str) -> list[str]:
    return [
        f"# seed={seed}",
        f"# config={digest}",
        f"# retransmissions_convention={RETRY_CONVENTION} (f / (1 - f); the first attempt is not a retry)",
    ]


# ------------------------------------------------------------- analyze --


def cmd_analyze(spec: RunSpec) -> str:
    frame, channel = spec.frame, spec.channel
    suffix = f"seed={spec.sim.seed} config={spec.digest} retransmissions_convention={RETRY_CONVENTION}"
    lines: list[str] = []

    for i, fs in enumerate(parse_forwarder_sets(spec.written)):
        failure = analysis.set_failure_probability(fs)
        lines.append(
            f"set index={i} size={len(fs)}"
            f" cost={_fmt(analysis.total_path_cost(fs))}"
            f" overhead={_fmt(analysis.coordination_overhead(fs))}"
            f" failure={_fmt(failure)} retransmissions={_fmt(analysis.expected_retransmissions(failure))} {suffix}"
        )

    if "topology" in spec.written:
        topology_obj = spec.build()
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
                f"node id={node.id} hop_id={node.hop_id} rank={_fmt(topology_obj.rank(node.id))}"
                f" cost={_fmt(topology_obj.costs[node.id])}"
            )
            if node.id != topology_obj.gateway:
                fs = analysis.forwarder_entries(topology_obj, node.id, topology_obj.costs)
                failure = analysis.set_failure_probability(fs)
                base += (
                    f" overhead={_fmt(analysis.coordination_overhead(fs))}"
                    f" failure={_fmt(failure)} retransmissions={_fmt(analysis.expected_retransmissions(failure))}"
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


def cmd_simulate(spec: RunSpec) -> str:
    topology_obj = spec.build()

    rows = [
        "mode,replications,pdr,mean_duplicates,mean_transmissions,mean_hops,"
        "empirical_overhead,mean_energy_bits,hop_energy_ratio,seed,config"
    ]
    sims = (replace(spec.sim, mode=mode) for mode in spec.modes)
    runs = engine.run_jobs(partial(engine.run_experiment, topology_obj, sim) for sim in sims)
    for mode, metrics in zip(spec.modes, runs):
        mean_energy = metrics.mean_transmissions * spec.frame.bits_per_transmission
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
                    str(spec.sim.seed),
                    spec.digest,
                ]
            )
        )
    return "\n".join(_csv_preamble(spec.sim.seed, spec.digest) + rows) + "\n"


# ---------------------------------------------------------------- sweep --


_SWEEP_AXES = ("forwarders", "ber", "p_sw", "preamble_frames", "data_frame_bits")


def _swept(spec: RunSpec, axis: str, value) -> RunSpec:
    """``spec`` with the swept key set to ``value``, checked as that config
    key is: ``topology.forwarders``, ``frame.<axis>``, or ``p_sw`` of
    ``channel.channels[0]``."""
    if axis == "forwarders":
        return replace(spec, args={**spec.args, axis: _checked(f"topology.{axis}", value, int)})
    if axis == "p_sw":
        first, *rest = spec.channel.channels
        p_sw = _checked("channel.channels[0].p_sw", value, float)
        with _config_errors("channel.channels[0]"):
            return replace(spec, channel=replace(spec.channel, channels=(replace(first, p_sw=p_sw), *rest)))
    bits = _checked(f"frame.{axis}", value, int)
    with _config_errors("frame"):
        return replace(spec, frame=replace(spec.frame, **{axis: bits}))


def cmd_sweep(spec: RunSpec) -> str:
    sweep = spec.written.get("sweep")
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

    if axis == "forwarders" and spec.kind != "star":
        raise ConfigError("sweeping 'forwarders' requires topology.kind 'star'")
    if axis == "ber":
        base = spec.build()

    # every value is checked before any point is built or run
    points = []
    for i, value in enumerate(values):
        # a null value is no sweep point: unlike a null config key, it has no default
        number = not isinstance(value, bool) and isinstance(value, (int, float))
        if value is None or axis == "ber" and not number:
            raise ConfigError(f"sweep values must be numbers, got {value!r}")
        if axis == "ber":
            with _config_errors(f"sweep.values[{i}]"):
                points.append(BitErrorRate(float(value)))
        else:
            points.append(_swept(spec, axis, value))

    rows = [
        f"{axis},analytic_overhead,empirical_overhead,pdr,mean_duplicates,"
        "retransmissions,mean_transmissions,mode,seed,config"
    ]
    # built and run one point at a time, so memory does not grow with the values
    for i, (value, point) in enumerate(zip(values, points)):
        if axis == "ber":
            with _config_errors(f"sweep.values[{i}]"):
                # the same links keep every hop ID; only the rates and costs change
                edges = [(a, b, point) for a, b in _undirected_links(base)]
                built = topo.prepare(base.nodes, base.gateway, edges, spec.frame, spec.channel)
        else:
            built = point.build()
        if axis == "forwarders":
            # the declared per-candidate delivery probability and remaining
            # cost define the analytic set; the builder realizes the same
            # probability inside the simulator.  The star's source is N + 1.
            declared = (point.args["p_link"], point.args["remaining_cost"])
            analytic = ForwarderSet(tuple(ForwarderEntry(r, *declared) for r in range(1, value + 1)))
            source = value + 1
        else:
            source = spec.sim.source
            if source is None:
                source = topo.deepest_node(built)
            analytic = analysis.forwarder_entries(built, source, built.costs)

        analytic_overhead = analysis.coordination_overhead(analytic)
        failure = analysis.set_failure_probability(analytic)
        retries = analysis.expected_retransmissions(failure)
        sims = (replace(spec.sim, mode=mode, source=source) for mode in spec.modes)
        runs = engine.run_jobs(partial(engine.run_experiment, built, sim) for sim in sims)
        for mode, metrics in zip(spec.modes, runs):
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
                        str(spec.sim.seed),
                        spec.digest,
                    ]
                )
            )
    return "\n".join(_csv_preamble(spec.sim.seed, spec.digest) + rows) + "\n"


# ----------------------------------------------------------------- main --


@contextmanager
def _output(out: str | None):
    """``write(text)`` to stdout, or to ``out``, opened and emptied (as ``> out``
    would) before the command runs, so an unwritable path fails before any work."""
    if not out:
        yield sys.stdout.write
        return
    failure = partial(_config_errors, f"cannot write output {out}", OSError)
    with failure():
        stream = open(out, "w")

    def write(text: str) -> None:
        with failure():
            stream.write(text)
            stream.close()

    with stream:
        yield write


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
            run = partial(verification.run_verification, args.grid, args.trials, args.seed)
        else:
            command = {"analyze": cmd_analyze, "simulate": cmd_simulate, "sweep": cmd_sweep}
            spec = read_spec(load_config(args.config))
            run = lambda: (command[args.command](spec), 0)
        with _output(args.out) as write:
            text, code = run()
            write(text)
        return code
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
