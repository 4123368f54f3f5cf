"""Slot-driven network simulator, with and without the battery constraint.

A run walks `n_slots` unit slots over a fixed topology.  Per slot, in this
order: channel gains are realized, each transmitter's policy turns its own
gains into requested powers, each battery grants what it can (receivers
served in link order), granted powers and gains enter the per-link delay
lines, the slot's harvest is banked, and the network utility is evaluated on
the delay-aligned powers.  Slot numbers are 1-based; a delay line reads zero
while it still points before the first slot.

`run_eh` enforces the battery; `run_non_eh` is the reference system where
every request is granted.  Both consume identical random draws for the same
seed (each node's harvest and each link's fading has its own stream), so a
seedwise pairing of the two isolates the effect of the battery alone.
`run_eh` evaluates that pairing itself: from one set of draws it reports
both its own average utility and the reference system's.

Given several seeds, `run_eh` runs one trial per seed on the same network.
Trials run side by side in groups.  Consecutive stream keys whose
processes compare equal (fig4's 25 fadings, fig5's senders' harvests) form
a run, and each run draws one block for all its keys and all the group's
trials at once, one lane per key and trial, in one `sample` call.  The
policies and the utility see all the group's slots stacked, and the
single-link batteries of all the group's nodes and trials step together,
one lane each with its own capacity.  A group walks through time in
chunks, carrying battery levels, delay lines, running counts and exact
partial sums of the utilities from one chunk to the next, so a call holds
about `CHUNK_SLOT_LINKS` slot-links of per-slot arrays however long or
wide its runs are.  Each trial's summary equals that of a run on its
seed alone, bit for bit: each lane draws what its key's and seed's stream
would alone, streams continue across chunks, the battery resumes from the
levels it returned, and policies and utilities act slot by slot.

An average over slots is the exact sum of its values, rounded once, as
`math.fsum` over the whole run would give it (see `_ExactSums`); a sum past
the float range is a `NumericsError`.  Run averages count *all* slots,
including ones where the utility is structurally zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import battery
from .stochastic import Stream, seed_states

__all__ = [
    "ConfigError",
    "LinkSpec",
    "NumericsError",
    "RunSummary",
    "RunTrace",
    "SimulationConfig",
    "TransmitterSpec",
    "run_eh",
    "run_non_eh",
]

# Stream key prefixes: one stream per (purpose, identity), so adding a node
# or link never disturbs the draws of the existing ones.
_HARVEST_KEY = 0
_FADING_KEY = 1

# Slot-links (slots times links, summed over the trials side by side) in
# one chunk of a run.  A call runs CHUNK_SLOT_LINKS // (n_slots * links)
# trials side by side, at least one, and walks them in chunks of
# CHUNK_SLOT_LINKS // (trials * links) slots, at least one.
CHUNK_SLOT_LINKS = 2 ** 15


class ConfigError(ValueError):
    """The simulation configuration is inconsistent."""


class NumericsError(RuntimeError):
    """A run produced non-finite or negative powers or utilities."""


@dataclass(frozen=True)
class LinkSpec:
    """Directed link `tx -> rx` with its fading process and utility delay.

    `delay` is how many slots pass between the transmission and the slot
    whose utility consumes it (relay chains pay one slot per later hop).
    """

    tx: int
    rx: int
    fading: object
    delay: int = 0


@dataclass(frozen=True)
class TransmitterSpec:
    """A transmitting node: harvest process, policy and battery geometry."""

    node: int
    harvest: object
    policy: object
    capacity: float = math.inf
    initial_level: float = 0.0


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a run needs.  `links` are grouped by transmitter, so a
    node's links are one contiguous range of columns, and their order fixes
    both extraction priority and the utility's link order."""

    n_slots: int
    transmitters: tuple[TransmitterSpec, ...]
    links: tuple[LinkSpec, ...]
    utility: object
    seed: int = 0

    def validate(self) -> None:
        if self.n_slots < 1:
            raise ConfigError(f"n_slots must be >= 1, got {self.n_slots}")
        nodes = [t.node for t in self.transmitters]
        if len(set(nodes)) != len(nodes):
            raise ConfigError(f"duplicate transmitter nodes in {nodes}")
        if not self.links:
            raise ConfigError("need at least one link")
        seen, senders = set(), set()
        for i, link in enumerate(self.links):
            if link.tx in senders and link.tx != self.links[i - 1].tx:
                raise ConfigError(f"links of transmitter {link.tx} are not "
                                  "grouped together")
            senders.add(link.tx)
            if link.tx == link.rx:
                raise ConfigError(f"link {link.tx}->{link.rx} loops back")
            if (link.tx, link.rx) in seen:
                raise ConfigError(f"duplicate link {link.tx}->{link.rx}")
            seen.add((link.tx, link.rx))
            if link.tx not in nodes:
                raise ConfigError(f"link transmitter {link.tx} has no spec")
            if not isinstance(link.delay, numbers.Integral):
                raise ConfigError(f"link {link.tx}->{link.rx} delay "
                                  f"{link.delay!r} is not an integer")
            if not 0 <= link.delay <= self.n_slots:
                raise ConfigError(
                    f"link {link.tx}->{link.rx} delay {link.delay} outside "
                    f"[0, {self.n_slots}]"
                )
        for t in self.transmitters:
            count = sum(1 for link in self.links if link.tx == t.node)
            if count == 0:
                raise ConfigError(f"transmitter {t.node} has no links")
            if t.policy.num_links != count:
                raise ConfigError(
                    f"node {t.node} policy drives {t.policy.num_links} links, "
                    f"topology has {count}"
                )
            try:
                battery.check_start(t.initial_level, t.capacity)
            except ValueError as exc:
                raise ConfigError(f"node {t.node}: {exc}") from exc
        wanted = getattr(self.utility, "num_links", None)
        if wanted is not None and wanted != len(self.links):
            raise ConfigError(
                f"utility consumes {wanted} links, topology has {len(self.links)}"
            )


@dataclass(frozen=True)
class RunSummary:
    """What the walk computed for one run, and no per-slot arrays.  Keys of
    the per-node maps are node ids.

    `non_eh_utility` is the average utility of the reference system, where
    every request is granted, on the same draws; for `run_non_eh` it equals
    `avg_utility`.  `mismatch_fraction` counts slots where a node's granted
    power differed from its requested power on any link; `mismatch_union`
    counts slots where that happened anywhere in the network.  Per-node
    averages of harvests, requests and grants are `math.fsum`s over the
    `RunTrace` arrays.
    """

    n_slots: int
    avg_utility: float
    non_eh_utility: float
    mismatch_fraction: dict[int, float]
    mismatch_union: float
    final_level: dict[int, float]


@dataclass(frozen=True)
class RunTrace:
    """Full per-slot record, for tests and demos, and the only result that
    holds whole-run arrays.  Arrays follow the config link order; `slots`
    holds the 1-based slot numbers."""

    slots: np.ndarray
    harvest: dict[int, np.ndarray]
    gains: np.ndarray
    desired: np.ndarray
    actual: np.ndarray
    levels: dict[int, np.ndarray]
    utility: np.ndarray


# Every finite float is an integer multiple of 2**-1074.
_UNITS = 2 ** 1074


def _units(x: float) -> int:
    num, den = x.as_integer_ratio()
    return num * (_UNITS // den)


class _ExactSums:
    """Each trial's exact running sum of per-slot values, kept as a few
    floats per `CHUNK_SLOT_LINKS` values instead of one per slot.

    `add` copies each chunk's (k, m) values and holds them until they come
    to `CHUNK_SLOT_LINKS` values or the run's last chunk comes; then it
    splits all their rows at once by error-free extraction (Rump, Ogita
    and Oishi, "Accurate floating-point summation part I", 2008).  With
    ``sigma = 2**(e + bits)``, where ``max|r| < 2**e`` and ``2**bits >=
    m + 2`` for m values, ``q = (r + sigma) - sigma`` is exact, every `q`
    is a multiple of ``2**-53 * sigma`` and their sum stays below `sigma`,
    so ``q.sum()`` is exact in any order; ``r - q`` is the exact rest,
    which the next level splits until nothing is left.  The partials of a
    trial sum exactly to its values, so ``math.fsum`` over them gives the
    correctly rounded sum that `fsum` over the values would.  A row whose
    `sigma` would overflow is summed as a Python int of 2**-1074 units."""

    def __init__(self, k: int):
        self._k = k
        self._held: list[np.ndarray] = []  # copies of chunks not yet split
        self._parts: list[np.ndarray] = []  # (k,), -0.0 where nothing adds
        self._big: dict[int, int] = {}

    def copy(self) -> _ExactSums:
        other = _ExactSums(self._k)
        other._held = list(self._held)
        other._parts = list(self._parts)
        other._big = dict(self._big)
        return other

    def _append(self, rows: np.ndarray, sums: np.ndarray) -> None:
        part = np.full(self._k, -0.0)
        part[rows] = sums
        self._parts.append(part)

    def add(self, values: np.ndarray, last: bool = False) -> None:
        """Add row j of the finite (k, m) `values` to trial j's sum; `last`
        when no chunk follows.  Nothing held aliases `values`."""
        held = sum(chunk.size for chunk in self._held) + values.size
        if not last and held < CHUNK_SLOT_LINKS:
            self._held.append(values.copy())
            return
        if self._held:
            values = np.concatenate(self._held + [values], axis=1)
            self._held = []
        self._split(values)

    def _split(self, values: np.ndarray) -> None:
        """Extract the exact partial sums of each row of `values`."""
        bits = (values.shape[1] + 1).bit_length()
        top = np.abs(values).max(axis=1)
        zero = top == 0.0
        if zero.any():
            # -0.0 only where every value is, as `fsum` may keep it.
            rows = np.flatnonzero(zero)
            self._append(rows, np.where(
                np.signbit(values[rows]).all(axis=1), -0.0, 0.0))
        exp = np.frexp(top)[1] + bits
        big = exp > 1023
        for j in np.flatnonzero(big).tolist():
            self._big[j] = (self._big.get(j, 0)
                            + sum(map(_units, values[j].tolist())))
        rows = np.flatnonzero(~(zero | big))
        rest = values if len(rows) == self._k else values[rows]
        exp = exp[rows]
        while len(rows):
            sigma = np.ldexp(1.0, exp)[:, None]
            q = rest + sigma
            q -= sigma
            self._append(rows, q.sum(axis=1))
            rest = np.subtract(rest, q, out=q)
            top = np.abs(rest).max(axis=1)
            live = top > 0.0
            if not live.all():
                rows, rest, top = rows[live], rest[live], top[live]
            exp = np.frexp(top)[1] + bits

    def means(self, n: int) -> list[float]:
        """Each trial's sum, correctly rounded, divided by `n`."""
        if self._held:
            self._split(np.concatenate(self._held, axis=1))
            self._held = []
        rows = (np.stack(self._parts, axis=1).tolist() if self._parts
                else [[] for _ in range(self._k)])
        out = []
        for j, parts in enumerate(rows):
            try:
                total = (self._exact(j, parts, n) if j in self._big
                         else math.fsum(parts))
            except OverflowError:  # a partial sum left the float range
                total = self._exact(j, parts, n)
            out.append(total / n)
        return out

    def _exact(self, j: int, parts: list, n: int) -> float:
        """Trial j's sum by integer arithmetic, correctly rounded."""
        try:
            return (sum(map(_units, parts)) + self._big.get(j, 0)) / _UNITS
        except OverflowError:
            raise NumericsError(f"utilities of a {n}-slot run sum past the "
                                "float range") from None


class _Scratch:
    """Arrays one call reuses from chunk to chunk and from group to group,
    so their pages stay mapped.  `take(name, shape)` returns an array of
    `shape` with stale contents, a view of the previous one of that name
    when it is large enough."""

    def __init__(self):
        self._flat: dict = {}

    def take(self, name, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


class _Draws:
    """Stream keys that draw one block together: consecutive transmitters'
    harvests or consecutive links' fadings whose processes compare equal.
    `kind` is "harvest" or "fading"; `members` are the `TransmitterSpec`s
    or `LinkSpec`s, in config order."""

    def __init__(self, kind: str, members: tuple):
        self.kind, self.members = kind, members

    @property
    def process(self):
        return getattr(self.members[0], self.kind)

    @property
    def keys(self) -> list[tuple[int, int, int]]:
        if self.kind == "harvest":
            return [(_HARVEST_KEY, t.node, 0) for t in self.members]
        return [(_FADING_KEY, link.tx, link.rx) for link in self.members]

    def name(self, i: int) -> str:
        member = self.members[i]
        if self.kind == "harvest":
            return f"node {member.node}"
        return f"link {member.tx}->{member.rx}"


def _draw_runs(config: SimulationConfig) -> list[_Draws]:
    """`config`'s stream keys in runs that draw one block each, harvests
    first.  A harvest run's nodes are all in the single-link lanes block
    (`_lanes_of`) or all outside it, so a run's lanes are adjacent."""
    singles = sum(t.policy.num_links == 1 for t in config.transmitters)
    runs = [_Draws("harvest", tuple(members)) for _, members in groupby(
        config.transmitters,
        key=lambda t: (t.harvest, singles > 1 and t.policy.num_links == 1))]
    runs += [_Draws("fading", tuple(members))
             for _, members in groupby(config.links, key=lambda l: l.fading)]
    return runs


def _sample_chunk(config: SimulationConfig, streams, m: int,
                  scratch: _Scratch, runs: list[_Draws]):
    """The next `m` draws of every trial from `streams`, one `Stream` per
    run of `runs`, each holding all the run's keys for all the group's
    trials: per node a (trials, m) harvest array; with two or more
    single-link nodes, their harvests as the (m, lanes) block that
    `_battery` steps (`_lanes_of`), of which those nodes' arrays are
    views, else None; and the gains of all trials stacked trial-major
    into one (trials * m, links) array.

    Each run's process draws and transforms its (keys, trials, m) block in
    one `sample` call; the block is checked, then stored with one
    transposed copy, before the next run draws.  Draws must be finite and
    >= 0: one `min` and one `max` check that, since NaN fails both
    comparisons; only a failing block is searched for its first bad key.
    A block bound for `gains` or the lanes block is drawn into the memory
    of the chunk's requests, which `_desired_matrix` writes only later."""
    k, width = streams[0].shape[-1], len(config.links)
    lanes = _lanes_of(config, k)
    block = (scratch.take("lanes_harvest", (m, len(lanes) * k))
             if len(lanes) > 1 else None)
    gains = scratch.take("gains", (k * m, width))
    columns = gains.reshape(k, m, width)
    harvest, col = {}, 0
    for run, stream in zip(runs, streams):
        shape = (len(run.members), k, m)
        first = run.members[0]
        kept = run.kind == "harvest" and (block is None
                                          or first.node not in lanes)
        out = scratch.take(("harvest", first.node) if kept else "desired",
                           shape)
        draws = np.asarray(run.process.sample(stream, m, out=out),
                           dtype=float)
        if draws.shape != shape:
            raise NumericsError(f"{run.kind} process for {run.name(0)} "
                                f"returned shape {draws.shape}")
        if not (draws.min() >= 0.0 and draws.max() < np.inf):
            good = (draws >= 0.0) & (draws < np.inf)
            bad = int(np.argmin(good.reshape(len(run.members), -1).all(1)))
            what = "power" if run.kind == "harvest" else "gain"
            raise NumericsError(f"{run.kind} process for {run.name(bad)} "
                                f"drew a negative or non-finite {what}")
        if run.kind == "fading":
            stop = col + len(run.members)
            columns[:, :, col:stop] = draws.transpose(1, 2, 0)
            col = stop
        elif kept:
            harvest.update((t.node, row) for t, row in zip(run.members, draws))
        else:
            start = lanes[first.node].start
            stop = start + len(run.members) * k
            block[:, start:stop] = draws.reshape(-1, m).T
            harvest.update((t.node, block[:, lanes[t.node]].T)
                           for t in run.members)
    return harvest, block, gains


def _desired_matrix(config: SimulationConfig, slots, gains, columns,
                    desired: np.ndarray):
    """Each node's requests for `gains`, written into `desired`."""
    rows = len(slots)
    for t in config.transmitters:
        cols = columns[t.node]
        req = np.asarray(
            t.policy.desired_powers(slots, gains[:, cols]), dtype=float
        )
        if req.shape != (rows, t.policy.num_links):
            raise NumericsError(
                f"policy of node {t.node} returned shape {req.shape}, "
                f"expected {(rows, t.policy.num_links)}"
            )
        if not (req.min() >= 0.0 and req.max() < np.inf):
            raise NumericsError(f"policy of node {t.node} requested negative "
                                "or non-finite power")
        desired[:, cols] = req
    return desired


def _delayed(config: SimulationConfig, past: np.ndarray, values: np.ndarray):
    """Each link's column of `values` (a chunk, trials stacked trial-major)
    shifted down by the link's delay, and the new `past`.

    `past` is (trials, max delay, links): each trial's last slots before
    the chunk, zeros before slot 1.  Without delays `values` itself is
    returned."""
    k, depth, width = past.shape
    if depth == 0:
        return values, past
    m = len(values) // k
    joined = np.concatenate([past, values.reshape(k, m, width)], axis=1)
    out = np.empty((k, m, width))
    for col, link in enumerate(config.links):
        first = depth - link.delay
        out[:, :, col] = joined[:, first:first + m, col]
    return out.reshape(k * m, width), joined[:, m:]


def _utility(config: SimulationConfig, slots, powers, gains):
    rows = len(slots)
    u = np.asarray(config.utility.evaluate(slots, powers, gains), dtype=float)
    if u.shape != (rows,):
        raise NumericsError(
            f"utility returned shape {u.shape}, expected ({rows},)"
        )
    if not np.all(np.isfinite(u)):
        raise NumericsError("utility produced non-finite values")
    return u


def _link_columns(config: SimulationConfig) -> dict[int, slice]:
    """Each node's range of link columns; `validate` keeps them grouped."""
    txs = [link.tx for link in config.links]
    return {t.node: slice(txs.index(t.node),
                          txs.index(t.node) + txs.count(t.node))
            for t in config.transmitters}


def _lanes_of(config: SimulationConfig, k: int) -> dict[int, slice]:
    """Each single-link node's lanes in the block that steps all their
    buffers at once, node-major: the i-th such node's k trials are lanes
    ``i * k ... i * k + k - 1``."""
    nodes = [t.node for t in config.transmitters if t.policy.num_links == 1]
    return {node: slice(i * k, (i + 1) * k) for i, node in enumerate(nodes)}


def _battery(config: SimulationConfig, desired, harvest, block, columns,
             levels, actual: np.ndarray):
    """Granted powers, written into `actual` (like `desired`), and per-node
    (m, trials) levels after each slot of the chunk.  Each node's buffers
    start from `levels[node]`, one level per trial, which this sets to
    their levels after the chunk.

    All single-link nodes step in one `trajectory` call, one lane per
    trial per node (`_lanes_of`), each lane with its node's capacity.  A
    single such node reads views of `desired` and `harvest`.  Several
    read their harvests from `block`, where `_sample_chunk` put them,
    and their requests from a block written into `actual`'s memory, which
    the grants overwrite only after the call.  A multi-link node runs one
    call per trial."""
    k = len(next(iter(levels.values())))
    m = len(desired) // k
    grants = actual.reshape(k, m, -1)
    lanes = _lanes_of(config, k)
    singles = [t for t in config.transmitters if t.node in lanes]
    after = {}
    if len(singles) == 1:
        (t,) = singles
        want = desired[:, columns[t.node].start].reshape(k, m).T
        harv, capacity, start = harvest[t.node].T, t.capacity, levels[t.node]
    elif singles:
        harv = block
        want = actual.reshape(-1)[:block.size].reshape(block.shape)
        for t in singles:
            want[:, lanes[t.node]] = (
                desired[:, columns[t.node].start].reshape(k, m).T)
        capacity = np.repeat([t.capacity for t in singles], k)
        start = np.concatenate([levels[t.node] for t in singles])
    if singles:
        got, lev = battery.trajectory(want, harv, capacity=capacity,
                                      initial=start)
        for t in singles:
            lane = lanes[t.node]
            grants[:, :, columns[t.node].start] = got[:, lane].T
            levels[t.node] = lev[-1, lane].copy()
            after[t.node] = lev[:, lane]
    for t in config.transmitters:
        if t.node in lanes:
            continue
        cols = columns[t.node]
        lev = np.empty((m, k))
        for j in range(k):
            rows = slice(j * m, (j + 1) * m)
            got, lev[:, j] = battery.trajectory(
                desired[rows, cols],
                harvest[t.node][j],
                capacity=t.capacity,
                initial=levels[t.node][j],
            )
            actual[rows, cols] = got
        levels[t.node] = lev[-1].copy()
        after[t.node] = lev
    return actual, after


def _run(config: SimulationConfig, seeds: list[int], with_battery: bool,
         return_trace: bool) -> list:
    """Trials of `config`'s network, one per seed, each equal to a run on
    its seed alone.  `CHUNK_SLOT_LINKS // (n_slots * links)` trials, at
    least one, run side by side at a time (see `_walk`)."""
    config.validate()
    if not seeds:
        raise ValueError("need at least one seed")
    step = max(1, CHUNK_SLOT_LINKS // (config.n_slots * len(config.links)))
    runs = _draw_runs(config)
    keys = [key for run in runs for key in run.keys]
    # Key-major: each run's keys, then each trial's rows for that key.
    states = seed_states(seeds, keys).reshape(
        len(seeds), len(keys), -1).swapaxes(0, 1)
    bounds = np.cumsum([0] + [len(run.members) for run in runs]).tolist()
    scratch = _Scratch()
    results = []
    for start in range(0, len(seeds), step):
        group = seeds[start:start + step]
        streams = [Stream(group, keys[i:j], states[i:j, start:start + step])
                   for i, j in zip(bounds, bounds[1:])]
        results += _walk(config, streams, scratch, with_battery,
                         return_trace)
    return results


def _walk(config: SimulationConfig, streams, scratch: _Scratch,
          with_battery: bool, return_trace: bool) -> list:
    """Trials side by side, walked through time in chunks of
    `CHUNK_SLOT_LINKS // (trials * links)` slots, at least one.

    Each chunk draws the next slots from the trials' streams and passes
    absolute slot numbers to the policies and the utility.  From chunk to
    chunk the walk carries each node's battery levels, the last slots of
    gains and powers that the delay lines read, the mismatch counts, and
    the exact partial sums of each trial's utilities for both systems.
    Only a trace keeps per-slot arrays."""
    n, width, k = config.n_slots, len(config.links), streams[0].shape[-1]
    size = max(1, CHUNK_SLOT_LINKS // (k * width))
    runs = _draw_runs(config)
    columns = _link_columns(config)
    nodes = tuple(columns)
    depth = max(link.delay for link in config.links)
    past_gains, past_desired, past_actual = (
        np.zeros((k, depth, width)) for _ in range(3))
    levels = {t.node: np.full(k, t.initial_level) for t in config.transmitters}
    misses = {node: np.zeros(k, dtype=np.int64) for node in nodes}
    union = np.zeros(k, dtype=np.int64)
    non_eh_sums = _ExactSums(k)
    eh_sums = None  # while no grant has differed, the reference sums
    if return_trace:
        kept = np.empty((3, k, n, width))  # gains, requests, grants
        kept_harvest = {node: np.empty((k, n)) for node in nodes}
        kept_levels = ({node: np.empty((k, n)) for node in nodes}
                       if with_battery else {})
        kept_utility = np.empty((k, n))

    for start in range(0, n, size):
        stop = min(n, start + size)
        m = stop - start
        slots = scratch.take("slots", (k, m), int)
        slots[:] = np.arange(start + 1, stop + 1)
        slots = slots.ravel()
        harvest, block, gains = _sample_chunk(config, streams, m, scratch,
                                              runs)
        desired = _desired_matrix(config, slots, gains, columns,
                                  scratch.take("desired", gains.shape))
        delayed_g, past_gains = _delayed(config, past_gains, gains)
        delayed_d, next_desired = _delayed(config, past_desired, desired)
        u_non_eh = u_eh = _utility(config, slots, delayed_d,
                                   delayed_g).reshape(k, m)
        actual, after = desired, {}
        if with_battery:
            actual, after = _battery(config, desired, harvest, block,
                                     columns, levels,
                                     scratch.take("actual", gains.shape))
            # min(level, request) grants the request exactly when it
            # fits, so bitwise inequality is the mismatch test.
            miss = np.not_equal(actual, desired,
                                out=scratch.take("miss", gains.shape, bool))
            missed = bool(miss.any())
            if missed:
                hit = np.zeros((k, m), dtype=bool)
                for node, cols in columns.items():
                    node_miss = miss[:, cols].any(axis=1).reshape(k, m)
                    misses[node] += node_miss.sum(axis=1)
                    hit |= node_miss
                union += hit.sum(axis=1)
            # Where neither the chunk nor the slots its delay lines read
            # hold a mismatch, the grants are the requests themselves, and
            # utilities act slot by slot: the reference utility is the
            # battery system's too.
            differs = missed or not np.array_equal(past_actual, past_desired)
            delayed_a, past_actual = _delayed(config, past_actual, actual)
            if differs:
                if eh_sums is None:  # the slots so far had no mismatch
                    eh_sums = non_eh_sums.copy()
                u_eh = _utility(config, slots, delayed_a,
                                delayed_g).reshape(k, m)
        non_eh_sums.add(u_non_eh, last=stop == n)
        if eh_sums is not None:
            eh_sums.add(u_eh, last=stop == n)
        past_desired = next_desired
        if return_trace:
            for i, values in enumerate((gains, desired, actual)):
                kept[i, :, start:stop] = values.reshape(k, m, width)
            for node in nodes:
                kept_harvest[node][:, start:stop] = harvest[node]
            for node, lev in after.items():
                kept_levels[node][:, start:stop] = lev.T
            kept_utility[:, start:stop] = u_eh

    non_eh = non_eh_sums.means(n)
    eh = non_eh if eh_sums is None else eh_sums.means(n)
    fractions = {node: (count / n).tolist() for node, count in misses.items()}
    union_frac = (union / n).tolist()
    results = []
    for j in range(k):
        trace = None
        if return_trace:
            trace = RunTrace(
                slots=np.arange(1, n + 1),
                harvest={node: h[j] for node, h in kept_harvest.items()},
                gains=kept[0, j],
                desired=kept[1, j],
                actual=kept[2, j],
                levels={node: lev[j] for node, lev in kept_levels.items()},
                utility=kept_utility[j],
            )
        summary = RunSummary(
            n_slots=n,
            avg_utility=eh[j],
            non_eh_utility=non_eh[j],
            mismatch_fraction={node: frac[j]
                               for node, frac in fractions.items()},
            mismatch_union=union_frac[j],
            final_level=(
                {node: float(lev[j]) for node, lev in levels.items()}
                if with_battery else
                {t.node: t.initial_level for t in config.transmitters}),
        )
        results.append(summary if trace is None else (summary, trace))
    return results


def run_eh(config: SimulationConfig, *, seeds=None,
           return_trace: bool = False):
    """Simulate with the battery in the loop.  Returns a `RunSummary`
    (plus a `RunTrace` when `return_trace`) whose `non_eh_utility` is the
    reference system's average on the same draws.

    With `seeds`, runs one trial per seed on `config`'s network and
    returns a list with one result per seed, each equal to
    ``run_eh(replace(config, seed=s))`` bit for bit."""
    if seeds is None:
        return _run(config, [config.seed], True, return_trace)[0]
    return _run(config, [int(s) for s in seeds], True, return_trace)


def run_non_eh(config: SimulationConfig, *, return_trace: bool = False):
    """Simulate the reference system: same draws, every request granted,
    battery untouched."""
    return _run(config, [config.seed], False, return_trace)[0]
