"""Per-slot records of a run, read from the walk's own calls.

`capture(run, config, seeds)` runs ``run(config, seeds)``, where `run`
is `run_eh` or `run_non_eh`, once as it is and once on a copy of
`config` whose harvest and fading processes, policies and utility are
wrapped in recorders, with `ehnet.battery.trajectory` wrapped for the
call.  It checks that the two `Trials` are equal bit for bit, and returns
the run's `Trials` with one `Walk` per trial, in seed order:

- the harvests and gains are what the processes drew, per stream key
  (`Stream.key`) and seed (`Stream.seed`);
- the requests are what the policies returned;
- the grants and levels are what `trajectory` returned, read in the lane
  layout that `simulator._battery` documents: one call for all the
  single-link nodes, their trials node-major, then one call per trial for
  each multi-link node, both in transmitter order;
- the utilities are each chunk's last utility call, the one whose values
  the battery system's average sums.

The trajectory calls' requests and harvests are checked against the
policies' and the processes' records, so a misread lane fails here.
Nothing is added to `ehnet`: the recorders pass every call through.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ehnet import battery, simulator
from ehnet.simulator import run_eh
from oracles import bits

@dataclass(frozen=True)
class Walk:
    """One trial's per-slot arrays.  `gains`, `desired` and `actual` are
    (n, links), in config link order; `harvest` and `levels` map node ids
    to (n,) arrays, `levels` empty where no battery ran; `slots` holds the
    1-based slot numbers."""

    slots: np.ndarray
    harvest: dict
    gains: np.ndarray
    desired: np.ndarray
    actual: np.ndarray
    levels: dict
    utility: np.ndarray


@dataclass
class _Chunk:
    """What the walk asked for in one chunk of one trial group."""

    first: int  # the chunk's first slot number
    m: int  # its slots
    k: int  # the group's trials
    desired: dict = field(default_factory=dict)  # transmitter position: rows
    calls: list = field(default_factory=list)  # trajectory's ins and outs
    utility: np.ndarray | None = None


class _Log:
    def __init__(self):
        self.draws: dict = {}  # key: [(stream, [(lanes, m) blocks])]
        self.chunks: list[_Chunk] = []


class _Recorder:
    """Passes `num_links` through, or leaves it absent as `inner` does."""

    def __init__(self, inner, log: _Log):
        self.inner, self.log = inner, log
        if hasattr(inner, "num_links"):
            self.num_links = inner.num_links


class _Process(_Recorder):
    """A process whose draws are logged under each stream key and seed.
    Wrappers compare equal exactly when their processes do, so the walk
    forms the same runs of keys; a run draws through its first member."""

    def __eq__(self, other):
        if not isinstance(other, _Process):
            return NotImplemented
        return self.inner == other.inner

    def sample(self, stream, n, out=None):
        draws = self.inner.sample(stream, n, out=out)
        keys, seeds = stream.key, stream.seed
        if not isinstance(keys[0], tuple):
            keys = (keys,)
        if not isinstance(seeds, tuple):
            seeds = (seeds,)
        rows = np.array(draws, dtype=float).reshape(len(keys), len(seeds), -1)
        for key, row in zip(keys, rows):
            groups = self.log.draws.setdefault(key, [])
            if not groups or groups[-1][0] is not stream:
                groups.append((stream, []))
            groups[-1][1].append(row)
        return draws


class _Policy(_Recorder):
    """The policy of the transmitter at `position`; the first one's call
    opens a chunk, since the walk asks every policy once per chunk, in
    transmitter order."""

    def __init__(self, inner, log: _Log, position: int):
        super().__init__(inner, log)
        self.position = position

    def desired_powers(self, slots, gains):
        out = self.inner.desired_powers(slots, gains)
        if self.position == 0:
            m = int(slots[-1]) - int(slots[0]) + 1
            self.log.chunks.append(_Chunk(int(slots[0]), m, len(slots) // m))
        self.log.chunks[-1].desired[self.position] = np.array(out, dtype=float)
        return out


class _Utility(_Recorder):
    def evaluate(self, slots, powers, gains):
        out = self.inner.evaluate(slots, powers, gains)
        self.log.chunks[-1].utility = np.array(out, dtype=float)
        return out


def _wrapped(config, log: _Log):
    return replace(
        config,
        transmitters=tuple(
            replace(t, harvest=_Process(t.harvest, log),
                    policy=_Policy(t.policy, log, position))
            for position, t in enumerate(config.transmitters)),
        links=tuple(replace(link, fading=_Process(link.fading, log))
                    for link in config.links),
        utility=_Utility(config.utility, log))


def _drawn(log: _Log, key, seeds) -> np.ndarray:
    """The (trials, n) draws of `key`, after checking that its streams
    drew for `seeds`, in order."""
    groups = log.draws[key]
    assert [s for stream, _ in groups for s in stream.seed] == seeds
    return np.concatenate([np.concatenate(blocks, axis=1)
                           for _, blocks in groups])


def _in_time(chunks, arrays) -> np.ndarray:
    """(trials, n, ...) from per-chunk (k, m, ...) `arrays`: chunks join
    in time within a trial group, which each chunk at slot 1 opens, and
    the groups one after another."""
    groups = []
    for chunk, values in zip(chunks, arrays):
        if chunk.first == 1:
            groups.append([])
        groups[-1].append(values)
    return np.concatenate([np.concatenate(g, axis=1) for g in groups])


def _requests(columns, chunk: _Chunk) -> np.ndarray:
    """The chunk's requests as (k, m, links)."""
    out = np.empty((chunk.k, chunk.m, sum(map(len, columns))))
    for i, cols in enumerate(columns):
        out[:, :, cols] = chunk.desired[i].reshape(chunk.k, chunk.m, -1)
    return out


def _battery_calls(config, chunk: _Chunk, columns):
    """The chunk's trajectory calls read back per trial: requests and
    grants as (k, m, links), harvests and levels as (k, m, nodes)."""
    k, m = chunk.k, chunk.m
    width, nodes = len(config.links), len(config.transmitters)
    want, got = np.empty((2, k, m, width))
    harv, lev = np.empty((2, k, m, nodes))
    calls = iter(chunk.calls)
    ones = [i for i, t in enumerate(config.transmitters)
            if t.policy.num_links == 1]
    if ones:
        values = next(calls)
        for p, i in enumerate(ones):
            lanes = slice(p * k, (p + 1) * k)
            (col,) = columns[i]
            want[:, :, col], harv[:, :, i], got[:, :, col], lev[:, :, i] = (
                v[:, lanes].T for v in values)
    for i, t in enumerate(config.transmitters):
        if i in ones:
            continue
        for j in range(k):
            (want[j][:, columns[i]], harv[j, :, i], got[j][:, columns[i]],
             lev[j, :, i]) = next(calls)
    assert next(calls, None) is None
    return want, harv, got, lev


def capture(run, config, seeds):
    """``run(config, seeds)`` and one `Walk` per trial, in seed order,
    read from the walk's own calls (see the module docstring)."""
    seeds = list(seeds)
    want = run(config, seeds)
    log = _Log()
    inner = battery.trajectory

    def trajectory(desired, harvested, **options):
        granted, levels = inner(desired, harvested, **options)
        log.chunks[-1].calls.append(tuple(
            np.array(v, dtype=float)
            for v in (desired, harvested, granted, levels)))
        return granted, levels

    wrapped = _wrapped(config, log)
    # The same runs of stream keys draw together.
    spans = [span[1:] for span in simulator._draw_runs(config)[2]]
    assert [span[1:] for span in simulator._draw_runs(wrapped)[2]] == spans
    battery.trajectory = trajectory
    try:
        got = run(wrapped, seeds)
    finally:
        battery.trajectory = inner
    assert bits(got) == bits(want)

    seeds = [int(s) for s in seeds]
    chunks = log.chunks
    columns = [[c for c, link in enumerate(config.links) if link.tx == t.node]
               for t in config.transmitters]
    desired = _in_time(chunks, map(partial(_requests, columns), chunks))
    utility = _in_time(chunks, [c.utility.reshape(c.k, c.m) for c in chunks])
    harvest = np.stack([
        _drawn(log, (simulator._HARVEST_KEY, t.node, 0), seeds)
        for t in config.transmitters], axis=2)
    gains = np.stack([
        _drawn(log, (simulator._FADING_KEY, link.tx, link.rx), seeds)
        for link in config.links], axis=2)
    assert all(bool(c.calls) == (run is run_eh) for c in chunks)
    if run is run_eh:
        asked, banked, actual, levels = (
            _in_time(chunks, parts) for parts in zip(*(
                _battery_calls(config, c, columns) for c in chunks)))
        assert asked.tobytes() == desired.tobytes()
        assert banked.tobytes() == harvest.tobytes()
    else:
        actual, levels = desired, None
    nodes = [t.node for t in config.transmitters]
    slots = np.arange(1, config.n_slots + 1)
    walks = [Walk(slots=slots,
                  harvest=dict(zip(nodes, harvest[j].T)),
                  gains=gains[j], desired=desired[j], actual=actual[j],
                  levels={} if levels is None else dict(zip(nodes,
                                                            levels[j].T)),
                  utility=utility[j])
             for j in range(len(seeds))]
    return got, walks
