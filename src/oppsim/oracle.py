"""Independent verification oracles.

Everything in this module recomputes quantities the closed-form layer also
produces, but by brute force: exhaustive subset enumeration for single-hop
election, absorbing-state expectations for short multi-hop paths, and
per-bit Monte Carlo for frame reception.  Nothing here imports the
closed-form code or shares arithmetic helpers with it; agreement between
the two routes is what the verification suite checks.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from itertools import product
from typing import TYPE_CHECKING, Mapping, Sequence

from .model import ForwarderSet, FrameParams, NodeId

if TYPE_CHECKING:
    import numpy as np

MAX_ENUMERATION_SIZE = 20
MAX_PATH_DEPTH = 3
MAX_FORWARDERS_PER_HOP = 2
MAX_STATE_SPACE = 64

_MC_CHUNK = 65536
_MC_ROWS = 512
# (sets x outcomes) cells in one block of the batch enumeration
_BATCH_CELLS = 1 << 16


@dataclass(frozen=True)
class SingleHopExact:
    """Exact single-hop election quantities.

    ``expected_cost``
        expected total cost of delivering through the set, i.e. expected
        transmissions until some member receives plus the elected member's
        remaining cost; ``inf`` when no member can ever receive.
    ``overhead``
        unconditioned expectation of the elected member's remaining cost
        over a single transmission (zero contribution when nobody hears).
    """

    expected_cost: float
    overhead: float


def _election(candidates: list[tuple[float, float]]) -> tuple[float, float]:
    """Enumerate the 2^N outcomes of one transmission to N candidates, given
    as (probability, value) pairs, each receiving independently; the first
    receiver is elected.  Returns the probability that nobody receives and
    the elected value summed over outcomes, weighted by probability."""
    p_none = 0.0
    elected_mass = 0.0
    for bits in product((False, True), repeat=len(candidates)):
        prob = 1.0
        for hit, (p, _) in zip(bits, candidates):
            prob *= p if hit else (1.0 - p)
        if not any(bits):
            p_none += prob
            continue
        winner = next(i for i, hit in enumerate(bits) if hit)
        elected_mass += prob * candidates[winner][1]
    return p_none, elected_mass


def _check_enumerable(n: int) -> None:
    """Refuse a set size the enumeration cannot take."""
    if n == 0:
        raise ValueError("empty forwarder set")
    if n > MAX_ENUMERATION_SIZE:
        raise ValueError(
            f"forwarder set of size {n} exceeds enumeration bound {MAX_ENUMERATION_SIZE}"
        )


def exact_single_hop(forwarder_set: ForwarderSet) -> SingleHopExact:
    """Enumerate all 2^N reception outcomes of one forwarder set.

    The elected member of a reception subset is the one earliest in the
    canonical order (lowest remaining cost, ties by node id).  Expected
    cost follows from the geometric number of attempts until a non-empty
    subset occurs, plus the elected member's remaining cost conditioned on
    non-empty reception.
    """

    entries = forwarder_set.entries
    _check_enumerable(len(entries))
    p_none, elected_cost_mass = _election([(e.p_link, e.remaining_cost) for e in entries])
    p_some = 1.0 - p_none
    if p_some <= 0.0:
        return SingleHopExact(expected_cost=float("inf"), overhead=0.0)
    expected_cost = 1.0 / p_some + elected_cost_mass / p_some
    return SingleHopExact(expected_cost=expected_cost, overhead=elected_cost_mass)


def batch_sets(n: int) -> int:
    """How many sets of size ``n`` fill one block of the batch enumeration."""
    return max(1, _BATCH_CELLS >> n)


def exact_single_hop_batch(sets: Sequence[ForwarderSet]) -> tuple[np.ndarray, np.ndarray]:
    """``exact_single_hop`` over sets of one size at once: the arrays of
    ``expected_cost`` and ``overhead``, bit-identical to the scalar loop.
    Outcomes go in ``itertools.product`` order, probabilities multiply
    column by column, and ``np.cumsum`` adds the elected mass in sequence,
    carried across blocks of at most ``_BATCH_CELLS`` (set, outcome) cells.
    Sets of mixed sizes make ragged arrays, which numpy rejects."""

    import numpy as np

    n = len(sets[0]) if sets else 1
    _check_enumerable(n)
    p = np.array([[e.p_link for e in fs.entries] for fs in sets], dtype=float)
    y = np.array([[e.remaining_cost for e in fs.entries] for fs in sets], dtype=float)
    p_none, mass = np.empty(len(sets)), np.zeros(len(sets))
    rows, outcomes, span = batch_sets(n), 1 << n, min(1 << n, _BATCH_CELLS)
    for start in range(0, outcomes, span):
        code = np.arange(start, min(start + span, outcomes))[:, None] >> np.arange(n - 1, -1, -1)
        hits = (code & 1).astype(bool)
        winner = hits.argmax(axis=1)
        for lo in range(0, len(sets), rows):
            bp, by = p[lo : lo + rows], y[lo : lo + rows]
            prob = np.ones((len(bp), len(hits)))
            for j in range(n):
                prob *= np.where(hits[:, j], bp[:, j, None], 1.0 - bp[:, j, None])
            terms = prob * by[:, winner]
            if start == 0:
                p_none[lo : lo + rows] = prob[:, 0]
                terms[:, 0] = 0.0  # nobody is elected when every member misses
            carried = np.column_stack((mass[lo : lo + rows], terms))
            mass[lo : lo + rows] = np.cumsum(carried, axis=1)[:, -1]
    p_some = 1.0 - p_none
    with np.errstate(all="ignore"):
        expected_cost = np.where(p_some > 0.0, 1.0 / p_some + mass / p_some, np.inf)
    return expected_cost, np.where(p_some > 0.0, mass, 0.0)


@dataclass(frozen=True)
class ChainSpec:
    """A small delivery graph for the absorbing-state oracle.

    ``links`` maps each relaying node to the candidates it can hand the
    packet to, as ``(candidate, delivery_probability)`` pairs.  The walk
    starts at ``source`` and is absorbed at ``gateway``.
    """

    source: NodeId
    gateway: NodeId
    links: Mapping[NodeId, tuple[tuple[NodeId, float], ...]]

    def __post_init__(self) -> None:
        links = {node: tuple(cands) for node, cands in dict(self.links).items()}
        object.__setattr__(self, "links", links)


def exact_two_hop(chain: ChainSpec) -> float:
    """Exact expected end-to-end cost of a short opportunistic path.

    Treats delivery as an absorbing walk: at each holder the transmission
    repeats until at least one candidate receives, then the packet moves to
    the receiving candidate with the lowest onward expectation (ties by node
    id).  Intended for cross-checking path-cost composition; bounded to
    paths of at most MAX_PATH_DEPTH hops with at most
    MAX_FORWARDERS_PER_HOP candidates per hop.
    """

    states = set(chain.links) | {chain.gateway}
    for cands in chain.links.values():
        states.update(c for c, _ in cands)
    if len(states) > MAX_STATE_SPACE:
        raise ValueError(f"state space of {len(states)} exceeds configured bound {MAX_STATE_SPACE}")
    for node, cands in chain.links.items():
        if len(cands) > MAX_FORWARDERS_PER_HOP:
            raise ValueError(
                f"node {node!r} has {len(cands)} forwarders, bound is {MAX_FORWARDERS_PER_HOP}"
            )

    expectations: dict[NodeId, float] = {chain.gateway: 0.0}

    def depth(node: NodeId, seen: frozenset[NodeId]) -> int:
        if node == chain.gateway:
            return 0
        if node in seen:
            raise ValueError(f"cycle through node {node!r}")
        cands = chain.links.get(node)
        if not cands:
            raise ValueError(f"node {node!r} has no forwarders and is not the gateway")
        return 1 + max(depth(c, seen | {node}) for c, _ in cands)

    if depth(chain.source, frozenset()) > MAX_PATH_DEPTH:
        raise ValueError(f"path deeper than bound {MAX_PATH_DEPTH}")

    def expectation(node: NodeId) -> float:
        if node in expectations:
            return expectations[node]
        cands = chain.links[node]
        onward = sorted(((expectation(c), c, p) for c, p in cands), key=lambda t: (t[0], t[1]))
        p_none, continuation = _election([(p, value) for value, _, p in onward])
        p_some = 1.0 - p_none
        if p_some <= 0.0:
            raise ValueError(f"node {node!r} can never progress")
        value = (1.0 + continuation) / p_some
        expectations[node] = value
        return value

    return expectation(chain.source)


@dataclass(frozen=True)
class FrameMissEstimates:
    """The miss counts of ``trials`` Monte Carlo trials, and from them the
    estimates of the three frame-level miss factors and of ``decoded``: at
    least one micro-frame and the data frame decode."""

    preamble_misses: int
    data_misses: int
    joint_misses: int
    trials: int

    @property
    def preamble_miss(self) -> float:
        return self.preamble_misses / self.trials

    @property
    def data_miss(self) -> float:
        return self.data_misses / self.trials

    @property
    def joint_miss(self) -> float:
        return self.joint_misses / self.trials

    @property
    def decoded(self) -> float:
        return (self.trials - self.preamble_misses - self.data_misses + self.joint_misses) / self.trials

    @classmethod
    def pooled(cls, shards: Sequence["FrameMissEstimates"]) -> "FrameMissEstimates":
        """One run's estimates from those of its shards: their summed miss
        counts over their summed trials, so equal to the run's own."""
        return cls(*map(sum, zip(*map(astuple, shards))))


def _any_bit_errored(rng: np.random.Generator, frames: int, bits: int, p: float,
                     uniforms: np.ndarray) -> np.ndarray:
    """Per frame of ``bits`` bits, whether any bit errored, drawn ``_MC_ROWS``
    frames at a time into the buffer ``uniforms``: the same numbers as one
    ``(frames, bits)`` draw."""
    import numpy as np

    errored = np.empty(frames, dtype=bool)
    for lo in range(0, frames, _MC_ROWS):
        rows = min(_MC_ROWS, frames - lo)
        block = uniforms[: rows * bits].reshape(rows, bits)
        rng.random(out=block)
        errored[lo : lo + rows] = (block < p).any(axis=1)
    return errored


def bit_level_frame_oracle(
    p: float, frame: FrameParams, trials: int, seed: int, first: int = 0, total: int | None = None
) -> FrameMissEstimates:
    """Simulate individual bit errors for every micro-frame and the data
    frame of ``trials`` independent transmissions.

    A micro-frame decodes iff none of its bits errored; the preamble is
    missed iff every micro-frame failed; the data frame is missed iff any
    of its bits errored.  Estimates come back as plain frequencies.

    The draws, one uniform per bit from ``PCG64(seed)``, go in chunks of
    ``_MC_CHUNK`` trials (the last one shorter): per chunk, every trial's
    first micro-frame, then every trial's second, and so on, then every
    data frame.  ``first`` and ``total`` make the call one shard of a run
    of ``total`` trials: its trials are the run's trials ``first`` to
    ``first + trials - 1``, and the generator jumps (``PCG64.advance``) to
    the very numbers the run draws for them, so the shards' counts add up
    to the run's (``FrameMissEstimates.pooled``).
    """

    import numpy as np

    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bit error probability must be in [0, 1], got {p!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    total = first + trials if total is None else total
    if not 0 <= first <= total - trials:
        raise ValueError(f"trials {first} to {first + trials - 1} are not in a run of {total}")

    stream = np.random.PCG64(seed)
    rng = np.random.Generator(stream)
    # bits per frame, in a chunk's draw order
    frames = [frame.micro_frame_bits] * frame.preamble_frames + [frame.data_frame_bits]
    uniforms = np.empty(_MC_ROWS * max(frames))

    end = first + trials
    drawn = 0  # the stream position: uniforms drawn or jumped over
    preamble_missed = data_missed = joint_missed = 0
    for start in range(first - first % _MC_CHUNK, end, _MC_CHUNK):
        chunk = min(total - start, _MC_CHUNK)
        lo, hi = max(first, start) - start, min(end, start + chunk) - start
        at = start * sum(frames)  # where this chunk's first frame block starts
        errored = []
        for bits in frames:
            stream.advance(at + lo * bits - drawn)
            errored.append(_any_bit_errored(rng, hi - lo, bits, p, uniforms))
            drawn = at + hi * bits
            at += chunk * bits
        all_micro_failed = np.logical_and.reduce(errored[:-1])
        data_failed = errored[-1]
        preamble_missed += int(all_micro_failed.sum())
        data_missed += int(data_failed.sum())
        joint_missed += int((all_micro_failed & data_failed).sum())

    return FrameMissEstimates(preamble_missed, data_missed, joint_missed, trials)
