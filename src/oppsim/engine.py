"""Slotted packet-level simulator of opportunistic forwarding.

Reception and suppression follow two deliberately different laws:

* A candidate can *forward* a packet only if the transmission was switched
  onto the evaluated channel, at least one preamble micro-frame woke it,
  and the data frame decoded (you cannot relay bits you never got).
* A candidate *suppresses* its own pending forward only on the
  coordination-failure complement: it duplicates exactly when the
  channel draw, every micro-frame, and the data frame of the elected
  winner's transmission were all missed.  This keeps the per-pair
  duplicate probability equal to the closed-form failure probability,
  including its literal channel-switch factor.

Both election disciplines are implemented: RECEIVER_BASED elects by rank
ordinal among hearing candidates (smallest rank fires first), while
SENDER_PRIORITIZED elects by position in the forwarder list the sender
stamps into the packet header.  Ranks are 1 + expected path cost and the
stamped list is sorted by that same cost, so with identical tie-breaking
the two disciplines elect the same winners; any performance gap between
them is measurement noise, which the metrics make checkable.  One known
exception: two candidates whose costs differ by 1 ulp can round to the
same rank, and then receiver mode breaks the tie by node id where sender
mode keeps the cost order (the 1000-node generated mesh of the benchmark
hits this; ``perfbench/known_defects.json`` pins its output).

Structure: one private kernel, ``_deliver``, runs a replication over a
``_Plan`` - the per-topology tables every replication reads (the source
candidates, each node's upstream candidates with their decode
probabilities and election priority, and the overhearing probabilities of
each (transmitter, observer) pair, the last two ``functools.cache``
functions filled on first use).  The decode probabilities are the closed
forms' survival law, ``analysis._survival_power``.
Ranks and costs are read from the topology's own cost table
(``Topology.costs``); a topology without one is refused.
``run_experiment`` builds one plan per run and calls the kernel without an
event list: it tallies transmissions, duplicate forwards, the first
arrival's hop count and the elected winners, and builds no ``TraceEvent``.
``simulate_delivery`` runs the same kernel with a list and returns the
``DeliveryTrace``.  Both paths make the same draws in the same order, so a
trace and the metrics of the same replication always agree.

Determinism: replication r draws from a SplitMix64 stream rooted at the
master seed (``replication_seed``), so adding replications never perturbs
earlier ones and a fixed (topology, config, replication_index) triple
always yields a byte-identical trace.

Cores: when every job is the package's own code, ``run_jobs`` runs
independent jobs (engine runs, or ``verify``'s grid and the shards of its
per-bit Monte Carlo) on the cores this process may run on (its CPU
affinity), one forked process per extra core.  The processes claim the jobs
one at a time from a shared pipe, so a core that finishes early takes more
work instead of idling.  A command hands it all of its jobs in one call
(``simulate`` its modes, ``sweep`` every point's modes), so it forks at
most once per extra core: a fork, exit and wait of the 34 MB CLI process
alone takes about 3 ms on a 2-core Xeon.  A job's result depends on its
own inputs alone, so results are identical for any number of cores and
any order in which the jobs are claimed; ``taskset -c 0`` runs them
serially.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import struct
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from operator import itemgetter

from .analysis import _survival_power
from .model import (
    DeliveryTrace,
    EventKind,
    Metrics,
    NodeId,
    Topology,
    TraceEvent,
    _nonnegative_int,
    _positive_int,
)


class ProtocolMode(Enum):
    RECEIVER_BASED = "receiver_based"
    SENDER_PRIORITIZED = "sender_prioritized"


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs.  ``source=None`` draws the source uniformly over
    non-gateway nodes per replication; ``election_slots`` bounds the backoff
    window (candidates whose slot ordinal falls outside never fire);
    ``suppression`` disables overhearing-based suppression in
    RECEIVER_BASED mode only."""

    mode: ProtocolMode
    replications: int = 1
    seed: int = 0
    source: NodeId | None = None
    max_hops: int = 32
    election_slots: int = 32
    suppression: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ProtocolMode):
            raise ValueError(f"mode must be a ProtocolMode, got {self.mode!r}")
        for name in ("replications", "max_hops", "election_slots"):
            _positive_int(name, getattr(self, name))
        _nonnegative_int("seed", self.seed)


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def replication_seed(seed: int, replication_index: int) -> int:
    """Stable per-replication seed: SplitMix64 stream rooted at the master
    seed, evaluated at the replication index.

    XORing or adding the raw index is not enough: over a contiguous index
    range that hands near-identical seed sets to nearby master seeds, so
    runs that should be independent end up replaying each other.  The
    64-bit finalizer decorrelates them while keeping the mapping pure, so
    the same (seed, index) pair always lands on the same stream.
    """
    x = (seed + (replication_index + 1) * _SPLITMIX_GAMMA) & _U64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _U64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _U64
    x ^= x >> 31
    return x


class _Plan:
    """What every replication of one run reads about its topology, worked
    out once per run instead of once per hop or per replication.

    ``upstream(u)`` returns u's upstream candidates in draw order (ascending
    id) as ``(node, micro_p, data_p, priority)``; priority is the
    candidate's position in the election order over all of u's upstream
    neighbors: by (rank, id) in RECEIVER_BASED mode, by the stamped
    (cost, id) list in SENDER_PRIORITIZED mode; micro_p and data_p follow
    ``analysis._survival_power``.  ``overhearing(u, obs)`` returns obs's
    decode probabilities for u's frames, or None when obs has no link back
    to u.  Both are ``functools.cache`` functions, so a run pays only for
    the nodes and pairs its replications reach; they hold the topology, not
    the plan, so a plan is freed as soon as its run ends.
    """

    def __init__(self, topology: Topology, config: SimConfig):
        if config.source is not None:
            topology.node(config.source)
        costs = topology.costs
        self.receiver = config.mode is ProtocolMode.RECEIVER_BASED
        self.gateway = topology.gateway
        self.sources = topology.non_gateway_ids()
        self.p_sw = topology.channel.evaluated.p_sw
        self.preamble_frames = topology.frame.preamble_frames
        election_key = (
            (lambda c: (topology.rank(c), c)) if self.receiver else (lambda c: (costs[c], c))
        )
        self.upstream = cache(partial(_upstream_candidates, topology, election_key))
        self.overhearing = cache(partial(_overhearing_probs, topology))
        # one generator per run, reseeded per replication by _random.Random.seed,
        # all random.Random(seed) does for an int but set gauss_next (unread)
        self.rng = random.Random()
        self.reseed = super(random.Random, self.rng).seed
        self.draw = self.rng.random


def _decode_probs(topology: Topology, a: NodeId, b: NodeId) -> tuple[float, float]:
    # b's per-frame decode probabilities for a's micro-frames and data frame;
    # frame-level Bernoulli draws with these values are
    # distribution-identical to drawing each bit
    p = topology.ber(a, b)
    frame = topology.frame
    return _survival_power(p, frame.micro_frame_bits), _survival_power(p, frame.data_frame_bits)


def _upstream_candidates(
    topology: Topology, election_key, u: NodeId
) -> tuple[tuple[NodeId, float, float, int], ...]:
    upstream = topology.upstream_neighbors(u)
    priority = {c: i for i, c in enumerate(sorted(upstream, key=election_key))}
    return tuple((c, *_decode_probs(topology, u, c), priority[c]) for c in upstream)


def _overhearing_probs(topology: Topology, u: NodeId, obs: NodeId) -> tuple[float, float] | None:
    return _decode_probs(topology, u, obs) if topology.has_link(obs, u) else None


_PRIORITY = itemgetter(3)


def _deliver(
    plan: _Plan, config: SimConfig, replication_index: int, events: list[TraceEvent] | None
) -> tuple[NodeId, int, int, int | None, list[NodeId]]:
    """Run one end-to-end delivery attempt.

    Returns the source, the number of transmissions, the number of
    duplicate forwards, the hop count of the first gateway arrival (None
    if undelivered) and the elected winners in election order.  Appends
    the attempt's events to ``events`` unless it is None; without a list
    no event is built.

    There is no link-layer acknowledgement, so a transmission nobody
    decodes kills that packet copy; duplicate forwards spawn independent
    copies that may produce extra gateway arrivals.
    """
    plan.reseed(replication_seed(config.seed, replication_index))
    draw = plan.draw
    traced = events is not None
    gateway = plan.gateway
    source = config.source
    if source is None:
        source = plan.rng.choice(plan.sources) if plan.sources else gateway
    if source == gateway:
        if traced:
            events.append(TraceEvent(0, EventKind.GATEWAY_ARRIVAL, gateway, hops=0))
        return source, 0, 0, 0, []

    p_sw = plan.p_sw
    r_m = plan.preamble_frames
    upstream = plan.upstream
    overhearing = plan.overhearing
    receiver = plan.receiver
    max_hops = config.max_hops
    slots = config.election_slots
    duplicate_all = receiver and not config.suppression

    duplicates = 0
    first_hops: int | None = None
    winners: list[NodeId] = []
    # pending copies: (node, hops so far, co-candidates of its election)
    queue: deque[tuple[NodeId, int, tuple[NodeId, ...]]] = deque([(source, 0, ())])
    slot = 0  # one slot per transmission
    while queue:
        u, hops, observers = queue.popleft()
        t = slot
        slot += 1
        if traced:
            events.append(TraceEvent(t, EventKind.TRANSMIT_PREAMBLE, u))
            events.append(TraceEvent(t, EventKind.TRANSMIT_DATA, u))
        on_channel = draw() < p_sw

        # co-candidates of u's own election react to this forward: one that
        # hears no micro-frame and not the data frame duplicates; so does
        # one without a link back to u
        for obs in observers:
            duplicate = False
            if on_channel:
                probs = overhearing(u, obs)
                if probs is None:
                    duplicate = True
                else:
                    micro_p, data_p = probs
                    for _ in range(r_m):
                        if draw() < micro_p:
                            break
                    else:
                        duplicate = draw() >= data_p
            if duplicate:
                duplicates += 1
                if traced:
                    events.append(TraceEvent(t, EventKind.DUPLICATE_FORWARD, obs, sender=u))
                queue.append((obs, hops, ()))
            elif traced:
                events.append(TraceEvent(t, EventKind.SUPPRESS, obs, sender=u))
        if not on_channel:
            continue

        # a micro-frame wakes c, then the data frame decodes
        hearing = []
        gateway_heard = False
        for candidate in upstream(u):
            c, micro_p, data_p, _ = candidate
            for _ in range(r_m):
                if draw() < micro_p:
                    if draw() < data_p:
                        if traced:
                            events.append(TraceEvent(t, EventKind.RECEIVE, c, sender=u))
                        if c == gateway:
                            gateway_heard = True
                        else:
                            hearing.append(candidate)
                    break

        next_hops = hops + 1
        if gateway_heard:
            if first_hops is None:
                first_hops = next_hops
            if traced:
                events.append(
                    TraceEvent(t, EventKind.GATEWAY_ARRIVAL, gateway, sender=u, hops=next_hops)
                )
        if not hearing:
            continue

        # at the hop limit the election still runs but queues no copy: each
        # copy it makes is traced as dropped at the slot that elected it
        hearing.sort(key=_PRIORITY)
        at_limit = next_hops >= max_hops
        attached: list[NodeId] = []
        elected = False
        for i, (c, _, _, priority) in enumerate(hearing):
            ordinal = i if receiver else priority
            if ordinal >= slots:
                if traced:
                    events.append(
                        TraceEvent(t, EventKind.SUPPRESS, c, sender=u, reason="window-closed")
                    )
                continue
            if i == 0:
                elected = True
                winners.append(c)
                if traced:
                    events.append(
                        TraceEvent(t, EventKind.ELECT, c, sender=u, hops=next_hops, slot=ordinal)
                    )
            elif duplicate_all:
                duplicates += 1
                if traced:
                    events.append(TraceEvent(t, EventKind.DUPLICATE_FORWARD, c, sender=u))
                if not at_limit:
                    queue.append((c, next_hops, ()))
            else:
                attached.append(c)
            if at_limit and traced:
                events.append(TraceEvent(t, EventKind.SUPPRESS, c, sender=u, reason="max-hops"))
        if elected and not at_limit:
            queue.append((hearing[0][0], next_hops, tuple(attached)))

    return source, slot, duplicates, first_hops, winners


def simulate_delivery(
    topology: Topology, config: SimConfig, replication_index: int
) -> DeliveryTrace:
    """Run one end-to-end delivery attempt and return its full trace."""
    events: list[TraceEvent] = []
    source = _deliver(_Plan(topology, config), config, replication_index, events)[0]
    return DeliveryTrace(source, tuple(events))


def run_experiment(topology: Topology, config: SimConfig) -> Metrics:
    """Run ``config.replications`` independent delivery attempts and
    aggregate, building no trace.

    ``empirical_coordination_overhead`` is the per-replication sum, over
    election events, of the elected forwarder's expected path cost - the
    simulator counterpart of the closed-form coordination overhead (the
    gateway's cost is zero, so terminal hops contribute nothing).
    ``mean_duplicates`` counts duplicate-forward events per replication.
    """
    plan = _Plan(topology, config)
    costs = topology.costs
    attempted = config.replications
    succeeded = 0
    dup_events = 0
    transmissions = 0
    overhead_sum = 0.0
    hops_sum = 0
    for r in range(attempted):
        _, sent, dups, hops, winners = _deliver(plan, config, r, None)
        transmissions += sent
        dup_events += dups
        if hops is not None:
            succeeded += 1
            hops_sum += hops
        # winner by winner across replications, in the order a trace
        # records its elections, so the float sum does not depend on how
        # replications are grouped
        for w in winners:
            overhead_sum += costs[w]
    return Metrics(
        deliveries_attempted=attempted,
        deliveries_succeeded=succeeded,
        mean_duplicates=dup_events / attempted,
        empirical_coordination_overhead=overhead_sum / attempted,
        mean_transmissions=transmissions / attempted,
        mean_hops=(hops_sum / succeeded) if succeeded else 0.0,
    )


def _cores() -> int:
    """The cores this process may run on (its CPU affinity); 1 where the
    platform has no ``os.fork`` or no ``os.sched_getaffinity``."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _package_code(job) -> bool:
    """Whether ``job`` (a function or a ``functools.partial`` of one) is this
    package's own code.  The directories are compared as raw strings: the
    package's modules share the path they were imported through."""
    code = getattr(getattr(job, "func", job), "__code__", None)
    return code is not None and os.path.dirname(code.co_filename) == os.path.dirname(__file__)


def _outcome(job) -> tuple[bool, object]:
    """``(True, job())``, or ``(False, exception)`` if the call raises."""
    try:
        return True, job()
    except Exception as exc:
        return False, exc


# a claim is the (start, stop) index range of the jobs it stands for; at most
# _CLAIMS of them (4 KiB) are written to the pipe before the fork, as much as
# a fresh Linux pipe takes at once even when its user's pipe-buffer allowance
# is spent, so that write cannot block
_CLAIM = struct.Struct("=2I")
_CLAIMS = 4096 // _CLAIM.size


def _claimed(claims: int):
    """The indices of the jobs this process claims from the pipe ``claims``,
    one claim at a time, until no claim is left.  A read of at most
    ``PIPE_BUF`` bytes from a pipe is atomic, so each claim goes to one
    process."""
    while claim := os.read(claims, _CLAIM.size):
        yield from range(*_CLAIM.unpack(claim))


def _child(jobs: list, claims: int, out) -> None:
    """A forked worker's whole life: run the jobs it claims, pickle their
    indices and outcomes into ``out``, and leave without unwinding the
    parent's stack."""
    code = 1
    try:
        pickle.dump([(i, _outcome(jobs[i])) for i in _claimed(claims)], out)
        out.flush()
        code = 0
    finally:
        os._exit(code)


def run_jobs(jobs) -> list:
    """``[job() for job in jobs]``, with the jobs claimed one by one by the
    processes on the cores this process may run on.

    k = min(cores, len(jobs)) processes (at least 1) take part: this one
    and k - 1 forked children.  Each claims the next unrun job from a pipe
    they all read, runs it and claims again until none is left, so a
    process that finishes early takes more work; with more jobs than
    ``_CLAIMS`` one claim stands for a range of consecutive jobs.  A child
    sends back the index and the result or exception of each job it ran
    through a pipe with ``pickle``; a child that dies first, or sends back
    fewer jobs than it claimed, is a ``ChildProcessError``.  A child runs
    only jobs (pure Python or numpy's ``Generator``: no thread, lock or
    BLAS call of the parent's is used after the fork) and leaves with
    ``os._exit``.  Every job runs, also after a failure and also with
    k = 1, and then the earliest failing job's exception is raised, as the
    serial loop would; the results come back in job order, and no child
    outlives the call.  Jobs leave this process only if each is the
    package's own code, a function defined in it or a ``partial`` of one;
    a stand-in from elsewhere (a tracer's wrapper, a test's lambda) is seen
    in this process only, so then, as on one core or for one job, every job
    runs here.  The jobs (and what they hold, such as each sweep point's
    topology) live until the call returns, so a caller passes all of its
    jobs in one call and pays one fork per extra core, not one per group
    of jobs.

    ``concurrent.futures.ProcessPoolExecutor`` on a fork context was tried
    in its place and measured slower and larger on a 2-core Xeon (Python
    3.11.7): with one pool per sweep point, the benchmark's star sweep took
    0.23 s, no faster than serial, against 0.16 s here, and its imports,
    threads and queues raised peak RSS by 2.2-2.5 MB (about 6%) against
    0.1-0.2 MB here.
    """
    jobs = list(jobs)
    k = max(1, min(_cores(), len(jobs))) if all(map(_package_code, jobs)) else 1
    step = max(1, -(-len(jobs) // _CLAIMS))
    claims, write = os.pipe()
    os.write(write, b"".join(_CLAIM.pack(i, min(i + step, len(jobs)))
                             for i in range(0, len(jobs), step)))
    os.close(write)
    outcomes = [None] * len(jobs)
    pids, pipes = [], []
    try:
        for _ in range(1, k):
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            with os.fdopen(write, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    _child(jobs, claims, out)
            pids.append(pid)

        for i in _claimed(claims):
            outcomes[i] = _outcome(jobs[i])
        for pid, pipe in zip(pids, pipes):
            try:
                for i, outcome in pickle.load(pipe):
                    outcomes[i] = outcome
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"engine worker {pid} exited without its results") from None
        if None in outcomes:
            raise ChildProcessError(f"job {outcomes.index(None)} was claimed but sent back no result")
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]
    finally:
        os.close(claims)
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
