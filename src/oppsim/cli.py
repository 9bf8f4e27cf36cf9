"""Command-line interface: analyze, simulate, sweep, verify.

Configs are YAML mappings (the one supported dialect; see README for the
schema).  ``read_spec`` reads a config once, section by section, into the
frozen ``RunSpec`` that every command runs from; a sweep point is that
spec with its swept field replaced.  Every output line comes from one of
two writers: ``_table`` writes ``simulate``'s and ``sweep``'s CSV, after
``#``-prefixed provenance comments, and ``cmd_analyze``'s ``record`` one
``key=value`` record per line.  Every row and record ends in the seed and
a short config digest, so it can be reproduced from the file alone.

Exit codes: 0 success, 1 validation or config error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import re
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
    NodeId,
    Topology,
    _nonnegative_int,
    validate,  # re-exported only: perfbench's tracer wraps oppsim.cli.validate
)
from .verification import DEFAULT_SEED, DEFAULT_TRIALS

RETRY_CONVENTION = "excludes-first-attempt"


class ConfigError(ValueError):
    """Configuration could not be parsed or failed validation."""


# ---------------------------------------------------------------- config --


def _fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


class _Loader(yaml.SafeLoader):
    """Reads an exponent float (``6e-1``, ``5e3``, ``1.0e3``) as YAML 1.2 does, as a number, not a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"),
)


def load_config(path: str | Path) -> dict:
    path = Path(path)
    with _config_errors(f"cannot read config {path}", OSError):
        text = path.read_text()
    try:
        raw = yaml.load(text, Loader=_Loader)
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
def _config_errors(where: str, errors=(ValueError, OverflowError)):
    """An error of ``errors`` raised inside, reported as a config error at
    ``where``; by default a bad value, or a number too large for a float."""
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
        with _config_errors(name):
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
    if kind is not float:
        return value
    with _config_errors(name):
        return float(value)


def _known(section: dict, where: str, names) -> None:
    """Refuse the first key of ``section`` that ``names`` does not name."""
    for key in section:
        if key not in names:
            raise ConfigError(f"unknown key {where}{key}")


def _read(section: dict, where: str, table: dict) -> dict:
    """The checked values of the keys ``section`` sets, refusing a key
    ``table`` does not name.  An absent or null key is left out, so the
    caller's default applies."""
    _known(section, f"{where}.", table)
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
    return kind, {**defaults, **_read({k: v for k, v in section.items() if k != "kind"}, where, table)}


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
    _nonnegative_int("seed", seed)
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


_MODES = {**{mode.value: (mode,) for mode in engine.ProtocolMode}, "both": tuple(engine.ProtocolMode)}
SECTIONS = ("frame", "channel", "topology", "sim", "sweep", "forwarder_sets")
SWEEP_FIELDS = ("parameter", "values")


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
            out["sweep"] = {key: out["sweep"].get(key) for key in SWEEP_FIELDS}
        if self.hashes_sim:
            mode = next(name for name, modes in _MODES.items() if modes == self.modes)
            out["sim"] = {**asdict(self.sim), "mode": mode}
        return out


def read_spec(cfg: dict) -> RunSpec:
    """Read ``cfg`` once, in the order frame, channel, sim, topology.  The
    topology is not built: ``RunSpec.build`` builds it."""
    _known(cfg, "", SECTIONS)
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
        values = _read({k: v for k, v in section.items() if k != "channels"}, "channel", {"noise_power": float})
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
    node defaults to its index in its set, the rest as ForwarderEntry's;
    no two entries of a set may name one node."""
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
        first = {}
        for j, entry in enumerate(entries):
            k = first.setdefault(entry.node, j)
            if k != j:
                raise ConfigError(f"forwarder_sets[{i}][{j}]: node {entry.node} repeats forwarder_sets[{i}][{k}]")
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
        lines.append(f"link {a} {b} {topology.ber(a, b)!r}")
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

    positions: dict[NodeId, tuple[float, float]] = {}
    edges: list[tuple[NodeId, NodeId, BitErrorRate]] = []
    link_lines: dict[tuple[NodeId, NodeId], int] = {}  # each linked pair, ends in order, to its line
    declared = None
    gateway: NodeId | None = None
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
            if nid in positions:
                raise ConfigError(f"{where}: duplicate node id {nid!r}")
            if positions and type(nid) is not type(next(iter(positions))):
                raise ConfigError(f"{where}: node ids mix integers and strings")
            positions[nid] = (x, y)
        elif tokens[0] == "link":
            if len(tokens) != 4:
                raise ConfigError(f"{where}: link line must be 'link a b p'")
            a, b = _node_token(tokens[1]), _node_token(tokens[2])
            for end in (a, b):
                if end not in positions:
                    raise ConfigError(f"{where}: link refers to unknown node {end!r}")
            try:
                rate = float(tokens[3])
            except ValueError:
                raise ConfigError(f"{where}: bad bit error rate {tokens[3]!r}") from None
            if a == b:
                raise ConfigError(f"{where}: self-link on node {a!r}")
            if (first := link_lines.setdefault((a, b) if a < b else (b, a), lineno)) != lineno:
                raise ConfigError(f"{where}: link {a} {b} repeats the link on line {first}")
            with _config_errors(where):
                edges.append((a, b, BitErrorRate(rate)))
        else:
            raise ConfigError(f"{where}: unknown directive {tokens[0]!r}")

    if gateway is None:
        raise ConfigError(f"{path}: missing 'nodes N gateway G' header")
    if declared != len(positions):
        raise ConfigError(f"{path}: header declares {declared} nodes, file has {len(positions)}")
    if gateway not in positions:
        raise ConfigError(f"{path}: gateway {gateway!r} has no node line")
    try:
        return topo.prepare(positions, gateway, edges, frame, channel)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# -------------------------------------------------------------- emission --


def _table(spec: RunSpec, header, rows) -> str:
    """A CSV table: the provenance comments, the header, then each row's
    values followed by the seed and the config digest."""
    lines = [f"# seed={spec.sim.seed}", f"# config={spec.digest}",
             f"# retransmissions_convention={RETRY_CONVENTION} (f / (1 - f); the first attempt is not a retry)",
             ",".join([*header, "seed", "config"])]
    lines += (",".join(_fmt(v) for v in (*row, spec.sim.seed, spec.digest)) for row in rows)
    return "\n".join(lines) + "\n"


def _set_columns(fs: ForwarderSet) -> dict:
    """A candidate set's closed-form overhead, failure and retransmissions."""
    failure = analysis.set_failure_probability(fs)
    retransmissions = analysis.expected_retransmissions(failure)
    return {"overhead": analysis.coordination_overhead(fs), "failure": failure, "retransmissions": retransmissions}


# ------------------------------------------------------------- analyze --


def cmd_analyze(spec: RunSpec) -> str:
    frame, channel = spec.frame, spec.channel
    lines: list[str] = []

    def record(kind: str, **values) -> None:
        """One ``key=value`` line, ending in the run's provenance."""
        values.update(seed=spec.sim.seed, config=spec.digest, retransmissions_convention=RETRY_CONVENTION)
        lines.append(" ".join([kind, *(f"{key}={_fmt(v)}" for key, v in values.items())]))

    for i, fs in enumerate(parse_forwarder_sets(spec.written)):
        record("set", index=i, size=len(fs), cost=analysis.total_path_cost(fs), **_set_columns(fs))

    if "topology" in spec.written:
        t = spec.build()
        p_sw = channel.evaluated.p_sw
        record("topology", nodes=len(t.nodes), links=len(t.links) // 2, gateway=t.gateway)
        for a, b in _undirected_links(t):
            ber = t.ber(a, b)
            record("link", a=a, b=b, ber=ber, preamble_miss=analysis.preamble_miss_probability(ber, frame),
                   data_miss=analysis.data_miss_probability(ber, frame),
                   failure=analysis.failure_probability(ber, frame, p_sw),
                   success=analysis.link_success(ber, frame, p_sw))
        for node in t.nodes:
            closed = {} if node.id == t.gateway else _set_columns(analysis.forwarder_entries(t, node.id, t.costs))
            record("node", id=node.id, hop_id=node.hop_id, rank=t.rank(node.id), cost=t.costs[node.id], **closed,
                   hop_distance_gateway=topo.hop_distance(t, node.id, t.gateway),
                   rank_distance_gateway=topo.rank_difference_distance(t, node.id, t.gateway))
        for i, ch in enumerate(channel.channels):
            record("channel", index=i, p_sw=ch.p_sw, p_acc=ch.p_acc, bandwidth_hz=ch.bandwidth_hz,
                   potential_bandwidth_hz=analysis.potential_bandwidth(ch.p_acc, ch.bandwidth_hz),
                   noise_power=channel.noise_power)

    if not lines:
        raise ConfigError("nothing to analyze: provide a topology or forwarder_sets")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- simulate --


def cmd_simulate(spec: RunSpec) -> str:
    topology_obj = spec.build()
    sims = (replace(spec.sim, mode=mode) for mode in spec.modes)
    runs = engine.run_jobs(partial(engine.run_experiment, topology_obj, sim) for sim in sims)
    rows = []
    for mode, m in zip(spec.modes, runs):
        energy = m.mean_transmissions * spec.frame.bits_per_transmission
        ratio = m.mean_hops / energy if energy > 0 else 0.0
        rows.append((mode.value, m.deliveries_attempted, m.pdr, m.mean_duplicates, m.mean_transmissions,
                     m.mean_hops, m.empirical_coordination_overhead, energy, ratio))
    header = ("mode", "replications", "pdr", "mean_duplicates", "mean_transmissions", "mean_hops",
              "empirical_overhead", "mean_energy_bits", "hop_energy_ratio")
    return _table(spec, header, rows)


# ---------------------------------------------------------------- sweep --


_SWEEP_AXES = ("forwarders", "ber", "p_sw", "preamble_frames", "data_frame_bits")
# every point's topology is held until the sweep's one run_jobs call
# returns: about 2.2 MB per point of a 1000-node generated mesh
MAX_SWEEP_VALUES = 256


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
    _known(sweep, "sweep.", SWEEP_FIELDS)
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
    if len(values) > MAX_SWEEP_VALUES:
        raise ConfigError(f"sweep.values must have at most {MAX_SWEEP_VALUES} entries")

    if axis == "forwarders" and spec.kind != "star":
        raise ConfigError("sweeping 'forwarders' requires topology.kind 'star'")
    if axis == "ber":
        base = spec.build()
        positions = {n.id: n.position for n in base.nodes}

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

    # every point is built before any run, so a point that fails to build
    # fails first; the points' runs then go through one run_jobs call (one
    # fork for the whole sweep), which holds every topology until it returns
    columns, jobs = [], []
    for i, (value, point) in enumerate(zip(values, points)):
        if axis == "ber":
            with _config_errors(f"sweep.values[{i}]"):
                # the same links keep every hop ID; only the rates and costs change
                edges = [(a, b, point) for a, b in _undirected_links(base)]
                built = topo.prepare(positions, base.gateway, edges, spec.frame, spec.channel)
        else:
            built = point.build()
        source = spec.sim.source
        if source is None or axis == "forwarders":
            source = topo.deepest_node(built)
        if axis == "forwarders":
            # the declared per-candidate delivery probability and remaining
            # cost define the analytic set over the star's relays; the
            # builder realizes the same probability inside the simulator
            declared = (point.args["p_link"], point.args["remaining_cost"])
            analytic = ForwarderSet(tuple(ForwarderEntry(r, *declared) for r in built.upstream_neighbors(source)))
        else:
            analytic = analysis.forwarder_entries(built, source, built.costs)

        columns.append((value, _set_columns(analytic)))
        jobs += (partial(engine.run_experiment, built, replace(spec.sim, mode=mode, source=source))
                 for mode in spec.modes)

    # the jobs are point-major and mode-minor; zip takes the next mode before
    # it takes a run, so each point takes exactly its own runs
    runs = iter(engine.run_jobs(jobs))
    rows = (
        (value, closed["overhead"], m.empirical_coordination_overhead, m.pdr, m.mean_duplicates,
         closed["retransmissions"], m.mean_transmissions, mode.value)
        for value, closed in columns for mode, m in zip(spec.modes, runs)
    )
    header = (axis, "analytic_overhead", "empirical_overhead", "pdr", "mean_duplicates",
              "retransmissions", "mean_transmissions", "mode")
    return _table(spec, header, rows)


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
            run = verification.prepare_verification(args.grid, args.trials, args.seed)
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
