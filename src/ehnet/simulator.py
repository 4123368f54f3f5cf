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

Both take the run seeds, run one trial per seed on the same network and
return a `Trials`, which keeps each result as one array over the trials.
Trials run side by side in groups.  A chunk's draws are one
(keys, trials, slots) block: the harvests in transmitter order, then the
fadings in link order.  Consecutive stream keys whose processes compare
equal (fig4's 25 fadings, fig5's senders' harvests) form a run, which may
cross from the harvests into the fadings, and each run draws its rows of
the block for all the group's trials in one `sample` call, one lane per
key and trial.  The policies see all the group's slots stacked, as
(rows, links) views of the block, link-major as drawn: each link's
column is contiguous.  The requests, grants and mismatch flags are laid
out alike, and so is what the utility gets where no delay line shifts
it.  The single-link batteries of all the group's nodes and trials step
together, one lane each with its own capacity.  A group walks through
time in chunks, carrying battery levels, delay lines, running counts and
exact partial sums of the utilities from one chunk to the next, so a
call holds about `CHUNK_SLOT_LINKS` slot-links of per-slot arrays
however long or wide its runs are, and no result keeps any.  Each
trial's entries equal those of a run on its seed alone, bit for bit:
each lane draws what its key's and seed's stream would alone, streams
continue across chunks, the battery resumes from the levels it
returned, and policies and utilities act slot by slot.

An average over slots is the exact sum of its values, rounded once, as
`math.fsum` over the whole run would give it (see `_ExactSums`); a sum past
the float range is a `NumericsError`.  Run averages count *all* slots,
including ones where the utility is structurally zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import groupby

import numpy as np

from . import battery
from .stochastic import Stream, check_count, is_integer, seed_states

__all__ = [
    "ConfigError",
    "LinkSpec",
    "NumericsError",
    "SimulationConfig",
    "TransmitterSpec",
    "Trials",
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

    def validate(self) -> None:
        check_count("n_slots", self.n_slots, error=ConfigError)
        nodes = [t.node for t in self.transmitters]
        for node in nodes:
            check_count("transmitter node", node, 0, error=ConfigError)
        if len(set(nodes)) != len(nodes):
            raise ConfigError(f"duplicate transmitter nodes in {nodes}")
        if not self.links:
            raise ConfigError("need at least one link")
        seen, senders = set(), set()
        for i, link in enumerate(self.links):
            check_count("link tx", link.tx, 0, error=ConfigError)
            check_count("link rx", link.rx, 0, error=ConfigError)
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
            if not is_integer(link.delay):
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
            drives = t.policy.num_links
            check_count(f"node {t.node} policy num_links", drives,
                        error=ConfigError)
            if drives != count:
                raise ConfigError(
                    f"node {t.node} policy drives {drives} links, "
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


@dataclass(eq=False)
class Trials:
    """The results of one run call, kept as columns with one entry per
    seed, in seed order, and no per-slot arrays.

    `avg_utility`, `non_eh_utility` and `mismatch_union` are (trials,)
    float arrays; `mismatch_fraction` and `final_level` are (trials, nodes)
    arrays whose columns follow `nodes`, the transmitters in config order.
    `non_eh_utility` is the average utility of the reference system,
    where every request is granted, on the same draws; for `run_non_eh`
    it equals `avg_utility`.  `mismatch_fraction` counts slots where a
    node's granted power differed from its requested power on any link;
    `mismatch_union` counts slots where that happened anywhere in the
    network.  Two `Trials` are equal only when they are the same
    object."""

    n_slots: int
    nodes: tuple[int, ...]
    avg_utility: np.ndarray
    non_eh_utility: np.ndarray
    mismatch_fraction: np.ndarray
    mismatch_union: np.ndarray
    final_level: np.ndarray


def _joined(parts: list[Trials]) -> Trials:
    """The trials of `parts`, one after another."""
    first = parts[0]
    return replace(first, **{
        f.name: np.concatenate([getattr(p, f.name) for p in parts])
        for f in fields(first)
        if isinstance(getattr(first, f.name), np.ndarray)})


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
    when it is large enough; `per_link` returns one laid out as the
    gains are."""

    def __init__(self):
        self._flat: dict = {}

    def take(self, name, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def per_link(self, name, like: np.ndarray, dtype=float) -> np.ndarray:
        """A (rows, links) array shaped like `like`, link-major."""
        return self.take(name, like.shape[::-1], dtype).T


def _draw_runs(config: SimulationConfig):
    """`config`'s stream keys in the order a chunk draws them, the
    harvests in transmitter order and then the fadings in link order;
    each key's name and quantity in error messages; and the runs of
    consecutive keys whose processes compare equal, as (process, start,
    stop) spans that draw one block each."""
    members = ([(t.harvest, (_HARVEST_KEY, t.node, 0),
                 (f"harvest process for node {t.node}", "power"))
                for t in config.transmitters]
               + [(link.fading, (_FADING_KEY, link.tx, link.rx),
                   (f"fading process for link {link.tx}->{link.rx}", "gain"))
                  for link in config.links])
    processes, keys, labels = zip(*members)
    runs, start = [], 0
    for process, same in groupby(processes):
        stop = start + len(list(same))
        runs.append((process, start, stop))
        start = stop
    return keys, labels, runs


def _sample_chunk(config: SimulationConfig, streams, m: int,
                  scratch: _Scratch, runs, labels):
    """The next `m` draws of every trial from `streams`, one `Stream` per
    span of `runs`, each holding all the span's keys for all the group's
    trials: one (keys, trials, m) block, harvests first (see `_draw_runs`).
    Returns the harvests, a (nodes, trials, m) view of the block, and the
    gains of all trials stacked trial-major, a (trials * m, links) view
    of the fading rows: link-major, each link's column contiguous.

    Each run's process draws and transforms its rows in one `sample`
    call.  Draws must be finite and >= 0: `battery.finite_nonnegative`
    checks the whole block; only a failing block is searched for its
    first bad key, named by `labels`."""
    nodes, width = len(config.transmitters), len(config.links)
    k = streams[0].shape[-1]
    block = scratch.take("draws", (nodes + width, k, m))
    for (process, start, stop), stream in zip(runs, streams):
        out = block[start:stop]
        draws = np.asarray(process.sample(stream, m, out=out), dtype=float)
        if draws.shape != out.shape:
            raise NumericsError(f"{labels[start][0]} returned shape "
                                f"{draws.shape}")
        if draws is not out:
            out[:] = draws
    if not battery.finite_nonnegative(block):
        good = (block >= 0.0) & (block < np.inf)
        name, what = labels[int(np.argmin(good.reshape(len(block), -1)
                                          .all(1)))]
        raise NumericsError(f"{name} drew a negative or non-finite {what}")
    return block[:nodes], block[nodes:].reshape(width, k * m).T


def _desired_matrix(config: SimulationConfig, slots, gains, columns,
                    desired: np.ndarray):
    """Each node's requests for `gains`, written into `desired`."""
    rows = len(slots)
    for t, cols in zip(config.transmitters, columns):
        req = np.asarray(
            t.policy.desired_powers(slots, gains[:, cols]), dtype=float
        )
        if req.shape != (rows, t.policy.num_links):
            raise NumericsError(
                f"policy of node {t.node} returned shape {req.shape}, "
                f"expected {(rows, t.policy.num_links)}"
            )
        if not battery.finite_nonnegative(req):
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


def _link_columns(config: SimulationConfig) -> list[slice]:
    """Each node's range of link columns, by transmitter position;
    `validate` keeps them grouped."""
    txs = [link.tx for link in config.links]
    return [slice(txs.index(t.node), txs.index(t.node) + txs.count(t.node))
            for t in config.transmitters]


def _as_run(indices: list[int]):
    """`indices` as a slice when they are consecutive, so that indexing
    with them gives a view; else the list itself."""
    if indices == list(range(indices[0], indices[-1] + 1)):
        return slice(indices[0], indices[-1] + 1)
    return indices


def _battery(config: SimulationConfig, desired, harvest, columns,
             levels: np.ndarray, actual: np.ndarray):
    """Granted powers, written into `actual` (like `desired`).  Node i's
    buffers, by transmitter position, start from ``levels[i]``, one level
    per trial, which this sets to their levels after the chunk.

    All single-link nodes step in one `trajectory` call, one lane per
    trial per node, node-major, each lane with its node's capacity.  They
    read their harvests from `harvest` and their requests from `desired`
    as views where the nodes, and their columns, are consecutive, so they
    copy nothing: in the link-major layout each lane's requests are one
    contiguous column.  A multi-link node runs one call per trial."""
    k = levels.shape[1]
    m = len(desired) // k
    txs = config.transmitters
    ones = [i for i, t in enumerate(txs) if t.policy.num_links == 1]
    if ones:
        single = _as_run(ones)
        cols = _as_run([columns[i].start for i in ones])
        stacked = desired.reshape(k, m, -1)
        got, lev = battery.trajectory(
            stacked[:, :, cols].transpose(1, 2, 0).reshape(m, -1),
            harvest[single].reshape(-1, m).T,
            capacity=np.repeat([txs[i].capacity for i in ones], k),
            initial=levels[single].reshape(-1))
        actual.reshape(k, m, -1)[:, :, cols] = (
            got.reshape(m, -1, k).transpose(2, 0, 1))
        levels[single] = lev[-1].reshape(-1, k)
    for i, (t, cols) in enumerate(zip(txs, columns)):
        if t.policy.num_links == 1:
            continue
        for j in range(k):
            rows = slice(j * m, (j + 1) * m)
            actual[rows, cols], lev = battery.trajectory(
                desired[rows, cols], harvest[i, j], capacity=t.capacity,
                initial=float(levels[i, j]))
            levels[i, j] = lev[-1]
    return actual


def _run(config: SimulationConfig, seeds, with_battery: bool) -> Trials:
    """Trials of `config`'s network, one per seed, each equal to a run on
    its seed alone.  `CHUNK_SLOT_LINKS // (n_slots * links)` trials, at
    least one, run side by side at a time (see `_walk`).  A seed that is
    not an integer, or is a bool, raises `TypeError`: none is rounded or
    parsed.  No seed at all is a `ValueError`, a negative one a
    `ConfigError`."""
    config.validate()
    seeds = list(seeds)
    if not all(map(is_integer, seeds)):
        raise TypeError("every seed must be an integer other than a bool")
    if not seeds:
        raise ValueError("need at least one seed")
    check_count("seed", min(seeds), 0, error=ConfigError)
    step = max(1, CHUNK_SLOT_LINKS // (config.n_slots * len(config.links)))
    keys, labels, runs = _draw_runs(config)
    # Key-major: each key, then each trial's row for that key.
    states = seed_states(seeds, keys).reshape(
        len(seeds), len(keys), -1).swapaxes(0, 1)
    scratch = _Scratch()
    groups = []
    for start in range(0, len(seeds), step):
        group = seeds[start:start + step]
        streams = [Stream(group, keys[i:j], states[i:j, start:start + step])
                   for _, i, j in runs]
        groups.append(_walk(config, streams, runs, labels, scratch,
                            with_battery))
    return _joined(groups)


def _walk(config: SimulationConfig, streams, runs, labels,
          scratch: _Scratch, with_battery: bool) -> Trials:
    """Trials side by side, walked through time in chunks of
    `CHUNK_SLOT_LINKS // (trials * links)` slots, at least one.

    Each chunk draws the next slots from the trials' streams, one per
    span of `runs` (see `_sample_chunk`), and passes absolute slot
    numbers to the policies and the utility.  From chunk to chunk the
    walk carries each node's battery levels, the last slots of gains and
    powers that the delay lines read, the mismatch counts, and the exact
    partial sums of each trial's utilities for both systems."""
    n, width, k = config.n_slots, len(config.links), streams[0].shape[-1]
    size = max(1, CHUNK_SLOT_LINKS // (k * width))
    columns = _link_columns(config)
    nodes = [t.node for t in config.transmitters]
    depth = max(link.delay for link in config.links)
    past_gains, past_desired, past_actual = (
        np.zeros((k, depth, width)) for _ in range(3))
    # Per node by transmitter position, per trial; +0.0 turns a start
    # level of -0.0 into +0.0, as `trajectory` starts it.
    levels = np.array([[t.initial_level] * k for t in config.transmitters],
                      dtype=float) + 0.0
    misses = np.zeros((len(nodes), k), dtype=np.int64)
    union = np.zeros(k, dtype=np.int64)
    non_eh_sums = _ExactSums(k)
    eh_sums = None  # while no grant has differed, the reference sums

    for start in range(0, n, size):
        stop = min(n, start + size)
        m = stop - start
        slots = scratch.take("slots", (k, m), int)
        slots[:] = np.arange(start + 1, stop + 1)
        slots = slots.ravel()
        harvest, gains = _sample_chunk(config, streams, m, scratch, runs,
                                       labels)
        desired = _desired_matrix(config, slots, gains, columns,
                                  scratch.per_link("desired", gains))
        delayed_g, past_gains = _delayed(config, past_gains, gains)
        delayed_d, next_desired = _delayed(config, past_desired, desired)
        u_non_eh = u_eh = _utility(config, slots, delayed_d,
                                   delayed_g).reshape(k, m)
        if with_battery:
            actual = _battery(config, desired, harvest, columns, levels,
                              scratch.per_link("actual", gains))
            # min(level, request) grants the request exactly when it
            # fits, so bitwise inequality is the mismatch test.
            miss = np.not_equal(actual, desired,
                                out=scratch.per_link("miss", gains, bool))
            missed = bool(miss.any())
            if missed:
                hit = np.zeros((k, m), dtype=bool)
                for i, cols in enumerate(columns):
                    node_miss = miss[:, cols].any(axis=1).reshape(k, m)
                    misses[i] += node_miss.sum(axis=1)
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

    non_eh = non_eh_sums.means(n)
    eh = non_eh if eh_sums is None else eh_sums.means(n)
    return Trials(n, tuple(nodes), np.array(eh), np.array(non_eh),
                  misses.T / n, union / n, levels.T)


def run_eh(config: SimulationConfig, seeds) -> Trials:
    """Simulate with the battery in the loop, one trial per seed of
    `seeds`, integers.  The `Trials`' `non_eh_utility` is the reference
    system's average on the same draws.

    A run keeps no per-slot arrays: a node's follow from its own streams,
    policy and `battery.trajectory` (README, "Library")."""
    return _run(config, seeds, True)


def run_non_eh(config: SimulationConfig, seeds) -> Trials:
    """Simulate the reference system, one trial per seed of `seeds`: same
    draws, every request granted, battery untouched."""
    return _run(config, seeds, False)
