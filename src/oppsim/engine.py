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

Structure: one private kernel, ``_deliver``, is a generator over a run's
replication indices.  Once per call it checks the source, binds the
topology's tables and the config's knobs, and sets up two
``functools.cache`` tables filled on first use: each node's upstream
candidates with their decode probabilities and election priority, and the
overhearing probabilities of each (transmitter, observer) pair.  The
upstream decode probabilities are the pairs the cost solve returned with
the topology's cost table (see ``PathCostTable``); a topology without one
is refused.  Both are the closed forms' one frame-decode law,
``analysis._decode_pair``.  The kernel keeps the call's running tallies
(transmissions, duplicate forwards, deliveries, first-arrival hops and the
elected winners' costs) and yields them after each replication.
``run_experiment`` passes it ``range(replications)`` and no event list,
keeps only its last yield and builds no ``TraceEvent``.
``simulate_delivery`` runs the same kernel on its one index with a list
and returns the ``DeliveryTrace``.  Both paths make the same draws in the
same order, so a trace and the metrics of the same replication always
agree.

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
from typing import Iterable, Iterator

from .analysis import _decode_pair
from .model import (
    DeliveryTrace,
    EventKind,
    FrameParams,
    Metrics,
    NodeId,
    Topology,
    TraceEvent,
    _nonnegative_int,
    _positive_int,
)


# a run's replications run in turn: 10^8 of star(6), at about 10 us each, take 17 min
MAX_REPLICATIONS = 100_000_000


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
        if self.replications > MAX_REPLICATIONS:
            raise ValueError(f"replications must be at most {MAX_REPLICATIONS}")
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


def _upstream_candidates(
    upstream_table, decode, election_key, u: NodeId
) -> tuple[tuple[NodeId, float, float, int], ...]:
    # u's upstream candidates in draw order (ascending id) as (node, micro_p,
    # data_p, priority): the decode pair the cost solve returned, and the
    # candidate's position in the election order over all of them
    upstream = upstream_table[u]
    priority = {c: i for i, c in enumerate(sorted(upstream, key=election_key))}
    pairs = decode[u]  # flat: (micro_p, data_p) per candidate, in upstream order
    return tuple(
        (c, micro_p, data_p, priority[c])
        for c, micro_p, data_p in zip(upstream, pairs[::2], pairs[1::2])
    )


def _overhearing_probs(links, frame: FrameParams, u: NodeId, obs: NodeId) -> tuple[float, float] | None:
    # obs's decode probabilities of u's micro-frames and data frame over
    # link (u, obs), if it has a link back to u; frame-level Bernoulli draws
    # with these values are distribution-identical to drawing each bit
    if (obs, u) not in links:
        return None
    return _decode_pair(links[(u, obs)].p, frame)


_PRIORITY = itemgetter(3)


def _deliver(
    topology: Topology, config: SimConfig, replications: Iterable[int], events: list[TraceEvent] | None
) -> Iterator[tuple[NodeId, int, int, int, int, float]]:
    """Run one end-to-end delivery attempt per replication index, in order.

    Yields, after each replication, its source and the call's running
    tallies so far: transmissions, duplicate forwards, deliveries (a
    gateway source is delivered at 0 hops), the first arrivals' hop counts,
    and the overhead, each elected winner's path cost added in election
    order.  A replication's own counts are the differences of consecutive
    yields.  Appends the attempts' events to ``events`` unless it is None;
    without a list no event is built.  The topology's tables and the
    config's knobs are bound once per call, and the upstream candidates and
    overhearing pairs are filled on first use; each replication reseeds the
    call's generator from its own index, so its draws do not depend on the
    replications before it.

    There is no link-layer acknowledgement, so a transmission nobody
    decodes kills that packet copy; duplicate forwards spawn independent
    copies that may produce extra gateway arrivals.
    """
    if config.source is not None:
        topology.node(config.source)
    table = topology.costs
    costs = table.costs
    receiver = config.mode is ProtocolMode.RECEIVER_BASED
    # rank is 1 + cost, as Topology.rank computes it
    election_key = (lambda c: (1.0 + costs[c], c)) if receiver else (lambda c: (costs[c], c))
    upstream = cache(partial(_upstream_candidates, topology._upstream, table.decode, election_key))
    overhearing = cache(partial(_overhearing_probs, topology.links, topology.frame))
    # one generator per call, reseeded per replication by _random.Random.seed,
    # all random.Random(seed) does for an int but set gauss_next (unread)
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    draw = rng.random
    choice = rng.choice
    traced = events is not None
    gateway = topology.gateway
    sources = topology.non_gateway_ids()
    p_sw = topology.channel.evaluated.p_sw
    preamble = range(topology.frame.preamble_frames)
    seed = config.seed
    fixed_source = config.source
    max_hops = config.max_hops
    slots = config.election_slots
    duplicate_all = receiver and not config.suppression
    # pending copies: (node, hops so far, co-candidates of its election);
    # empty again at the end of every replication
    queue: deque[tuple[NodeId, int, tuple[NodeId, ...]]] = deque()
    pop = queue.popleft
    push = queue.append
    transmissions = duplicates = delivered = hop_total = 0
    overhead = 0.0

    for replication_index in replications:
        reseed(replication_seed(seed, replication_index))
        source = fixed_source
        if source is None:
            source = choice(sources) if sources else gateway
        if source == gateway:
            if traced:
                events.append(TraceEvent(0, EventKind.GATEWAY_ARRIVAL, gateway, hops=0))
            delivered += 1
            yield source, transmissions, duplicates, delivered, hop_total, overhead
            continue

        arrived = False
        push((source, 0, ()))
        slot = 0  # one slot per transmission
        while queue:
            u, hops, observers = pop()
            t = slot
            slot += 1
            if traced:
                events.append(TraceEvent(t, EventKind.TRANSMIT_PREAMBLE, u))
                events.append(TraceEvent(t, EventKind.TRANSMIT_DATA, u))
            on_channel = draw() < p_sw

            # co-candidates of u's own election react to this forward: one
            # that hears no micro-frame and not the data frame duplicates;
            # so does one without a link back to u
            for obs in observers:
                duplicate = False
                if on_channel:
                    probs = overhearing(u, obs)
                    if probs is None:
                        duplicate = True
                    else:
                        micro_p, data_p = probs
                        for _ in preamble:
                            if draw() < micro_p:
                                break
                        else:
                            duplicate = draw() >= data_p
                if duplicate:
                    duplicates += 1
                    if traced:
                        events.append(TraceEvent(t, EventKind.DUPLICATE_FORWARD, obs, sender=u))
                    push((obs, hops, ()))
                elif traced:
                    events.append(TraceEvent(t, EventKind.SUPPRESS, obs, sender=u))
            if not on_channel:
                continue

            # a micro-frame wakes c, then the data frame decodes
            hearing = []
            gateway_heard = False
            for candidate in upstream(u):
                c, micro_p, data_p, _ = candidate
                for _ in preamble:
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
                if not arrived:
                    arrived = True
                    delivered += 1
                    hop_total += next_hops
                if traced:
                    events.append(
                        TraceEvent(t, EventKind.GATEWAY_ARRIVAL, gateway, sender=u, hops=next_hops)
                    )
            if not hearing:
                continue

            # at the hop limit the election still runs but queues no copy:
            # each copy it makes is traced as dropped at the slot that
            # elected it
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
                    overhead += costs[c]
                    if traced:
                        events.append(
                            TraceEvent(t, EventKind.ELECT, c, sender=u, hops=next_hops, slot=ordinal)
                        )
                elif duplicate_all:
                    duplicates += 1
                    if traced:
                        events.append(TraceEvent(t, EventKind.DUPLICATE_FORWARD, c, sender=u))
                    if not at_limit:
                        push((c, next_hops, ()))
                else:
                    attached.append(c)
                if at_limit and traced:
                    events.append(TraceEvent(t, EventKind.SUPPRESS, c, sender=u, reason="max-hops"))
            if elected and not at_limit:
                push((hearing[0][0], next_hops, tuple(attached)))

        transmissions += slot
        yield source, transmissions, duplicates, delivered, hop_total, overhead


def simulate_delivery(
    topology: Topology, config: SimConfig, replication_index: int
) -> DeliveryTrace:
    """Run one end-to-end delivery attempt and return its full trace."""
    events: list[TraceEvent] = []
    source = next(_deliver(topology, config, (replication_index,), events))[0]
    return DeliveryTrace(source, tuple(events))


def run_experiment(topology: Topology, config: SimConfig) -> Metrics:
    """Run ``config.replications`` independent delivery attempts and
    aggregate the kernel's last tallies, building no trace.

    ``empirical_coordination_overhead`` is the per-replication sum, over
    election events, of the elected forwarder's expected path cost - the
    simulator counterpart of the closed-form coordination overhead (the
    gateway's cost is zero, so terminal hops contribute nothing).
    ``mean_duplicates`` counts duplicate-forward events per replication.
    """
    attempted = config.replications
    totals = deque(_deliver(topology, config, range(attempted), None), maxlen=1)
    _, transmissions, duplicates, succeeded, hops, overhead = totals[0]
    return Metrics(
        deliveries_attempted=attempted,
        deliveries_succeeded=succeeded,
        mean_duplicates=duplicates / attempted,
        empirical_coordination_overhead=overhead / attempted,
        mean_transmissions=transmissions / attempted,
        mean_hops=(hops / succeeded) if succeeded else 0.0,
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
