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
both its own average utility and the reference system's, and
`paired_gap` reports their difference over a set of seeds.

Given several seeds, `run_eh` runs them as one batch of trials on the same
network: each trial draws from its own streams, the policies and the
utility see all trials' slots stacked, and single-link batteries step all
trials at once.  Each trial's summary equals that of a run on its seed
alone, bit for bit.

Averages over slots use exact compensated summation, and run averages count
*all* slots, including ones where the utility is structurally zero.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import battery
from .stochastic import Stream, seed_states

__all__ = [
    "ConfigError",
    "GapStatistics",
    "LinkSpec",
    "NumericsError",
    "RunSummary",
    "RunTrace",
    "SimulationConfig",
    "TransmitterSpec",
    "mean_stderr",
    "paired_gap",
    "run_eh",
    "run_non_eh",
    "trials_per_call",
]

# Stream key prefixes: one stream per (purpose, identity), so adding a node
# or link never disturbs the draws of the existing ones.
_HARVEST_KEY = 0
_FADING_KEY = 1

# Slot-links (slots times links, summed over trials) one batched `run_eh`
# call may hold.  Short runs then share their policy, utility and battery
# calls across many trials, while runs of 10^4 slots stay one trial per
# call; a budget of 2^16 was faster on short runs but raised the peak
# memory of long multi-trial sweeps.
BATCH_SLOT_LINKS = 2 ** 13


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
    """Everything a run needs.  `links` are grouped by transmitter and their
    order fixes both extraction priority and the utility's link order."""

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
        seen = set()
        for link in self.links:
            if link.tx == link.rx:
                raise ConfigError(f"link {link.tx}->{link.rx} loops back")
            if (link.tx, link.rx) in seen:
                raise ConfigError(f"duplicate link {link.tx}->{link.rx}")
            seen.add((link.tx, link.rx))
            if link.tx not in nodes:
                raise ConfigError(f"link transmitter {link.tx} has no spec")
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
            # Delegate range checks on capacity/initial level.
            try:
                battery.BatteryState(t.initial_level, t.capacity)
            except ValueError as exc:
                raise ConfigError(f"node {t.node}: {exc}") from exc
        wanted = getattr(self.utility, "num_links", None)
        if wanted is not None and wanted != len(self.links):
            raise ConfigError(
                f"utility consumes {wanted} links, topology has {len(self.links)}"
            )


class _NodeMeans(Mapping):
    """Read-only map from node id to a slot average, each entry computed on
    first read.  `values(node)` returns that node's per-slot array and
    raises `KeyError` for a node the run does not have."""

    def __init__(self, n: int, nodes: tuple[int, ...], values):
        self._n = n
        self._nodes = nodes
        self._values = values
        self._cache: dict[int, float] = {}

    def __getitem__(self, node: int) -> float:
        if node not in self._cache:
            self._cache[node] = _mean(self._values(node), self._n)
        return self._cache[node]

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class RunSummary:
    """Per-run averages.  Keys of the per-node maps are node ids.

    `non_eh_utility` is the average utility of the reference system, where
    every request is granted, on the same draws; for `run_non_eh` it equals
    `avg_utility`.  `avg_in`, `avg_desired` and `avg_out` compute each
    node's average on first read.  `mismatch_fraction` counts slots where a
    node's granted power differed from its requested power on any link;
    `mismatch_union` counts slots where that happened anywhere in the
    network.
    """

    n_slots: int
    avg_utility: float
    non_eh_utility: float
    avg_in: Mapping[int, float]
    avg_desired: Mapping[int, float]
    avg_out: Mapping[int, float]
    mismatch_fraction: dict[int, float]
    mismatch_union: float
    final_level: dict[int, float]


@dataclass(frozen=True)
class RunTrace:
    """Full per-slot record, for tests and demos.  Arrays follow the config
    link order; `slots` holds the 1-based slot numbers."""

    slots: np.ndarray
    harvest: dict[int, np.ndarray]
    gains: np.ndarray
    desired: np.ndarray
    actual: np.ndarray
    levels: dict[int, np.ndarray]
    utility: np.ndarray


def _mean(values: np.ndarray, n: int) -> float:
    return math.fsum(values.ravel().tolist()) / n


def _sample_inputs(config: SimulationConfig, seeds: list[int]):
    """Each trial's draws from its own streams: per node a (trials, n)
    harvest array, and the gains of all trials stacked trial-major into
    one (trials * n, links) array.  The seed words of all the streams are
    computed in one `seed_states` call."""
    n = config.n_slots
    harvest = {t.node: np.empty((len(seeds), n)) for t in config.transmitters}
    gains = np.empty((len(seeds) * n, len(config.links)))
    harvest_keys = [(_HARVEST_KEY, t.node, 0) for t in config.transmitters]
    fading_keys = [(_FADING_KEY, link.tx, link.rx) for link in config.links]
    states = iter(seed_states(seeds, harvest_keys + fading_keys))
    for j, seed in enumerate(seeds):
        for t, key in zip(config.transmitters, harvest_keys):
            stream = Stream(seed, key, next(states))
            draws = np.asarray(t.harvest.sample(stream, n), dtype=float)
            if draws.shape != (n,):
                raise NumericsError(f"harvest process for node {t.node} "
                                    f"returned shape {draws.shape}")
            harvest[t.node][j] = draws
        for col, (link, key) in enumerate(zip(config.links, fading_keys)):
            stream = Stream(seed, key, next(states))
            draws = np.asarray(link.fading.sample(stream, n), dtype=float)
            if draws.shape != (n,):
                raise NumericsError(f"fading process for link {link.tx}->"
                                    f"{link.rx} returned shape {draws.shape}")
            gains[j * n:(j + 1) * n, col] = draws
    if np.any(gains < 0.0) or not np.all(np.isfinite(gains)):
        raise NumericsError("channel gains must be finite and >= 0")
    return harvest, gains


def _desired_matrix(config: SimulationConfig, slots, gains, columns):
    rows = len(slots)
    desired = np.empty_like(gains)
    for t in config.transmitters:
        cols = columns[t.node]
        req = np.asarray(
            t.policy.desired_powers(slots, gains[:, cols]), dtype=float
        )
        if req.shape != (rows, len(cols)):
            raise NumericsError(
                f"policy of node {t.node} returned shape {req.shape}, "
                f"expected {(rows, len(cols))}"
            )
        if np.any(req < 0.0) or not np.all(np.isfinite(req)):
            raise NumericsError(f"policy of node {t.node} requested negative "
                                "or non-finite power")
        desired[:, cols] = req
    return desired


def _delayed(config: SimulationConfig, values: np.ndarray) -> np.ndarray:
    """Shift each link's column by its delay, within each trial's slots."""
    out = np.zeros_like(values)
    n = config.n_slots
    src = values.reshape(-1, n, values.shape[1])
    dst = out.reshape(src.shape)
    for col, link in enumerate(config.links):
        d = link.delay
        if d == 0:
            dst[:, :, col] = src[:, :, col]
        else:
            dst[:, d:, col] = src[:, :-d, col]
    return out


def _utility(config: SimulationConfig, slots, powers, delayed_gains):
    rows = len(slots)
    u = np.asarray(
        config.utility.evaluate(slots, _delayed(config, powers), delayed_gains),
        dtype=float,
    )
    if u.shape != (rows,):
        raise NumericsError(
            f"utility returned shape {u.shape}, expected ({rows},)"
        )
    if not np.all(np.isfinite(u)):
        raise NumericsError("utility produced non-finite values")
    return u


def _link_columns(config: SimulationConfig) -> dict[int, list[int]]:
    columns: dict[int, list[int]] = {t.node: [] for t in config.transmitters}
    for col, link in enumerate(config.links):
        columns[link.tx].append(col)
    return columns


def _battery(config: SimulationConfig, desired, harvest, columns):
    """Granted powers (like `desired`) and per-node (n, trials) levels.

    A single-link node runs all trials in one `trajectory` call, one lane
    per trial; a multi-link node runs one call per trial."""
    n = config.n_slots
    k = len(desired) // n
    actual = np.empty_like(desired)
    levels = {}
    for t in config.transmitters:
        cols = columns[t.node]
        if len(cols) == 1:
            got, lev = battery.trajectory(
                desired[:, cols[0]].reshape(k, n).T,
                harvest[t.node].T,
                capacity=t.capacity,
                initial=t.initial_level,
            )
            actual[:, cols[0]] = got.T.ravel()
        else:
            lev = np.empty((n, k))
            for j in range(k):
                rows = slice(j * n, (j + 1) * n)
                got, lev[:, j] = battery.trajectory(
                    desired[rows, cols],
                    harvest[t.node][j],
                    capacity=t.capacity,
                    initial=t.initial_level,
                )
                actual[rows, cols] = got
        levels[t.node] = lev
    return actual, levels


def _run(config: SimulationConfig, seeds: list[int], with_battery: bool,
         return_trace: bool) -> list:
    """One batch of trials on `config`'s network, one per seed.  Each
    trial's results equal those of a batch holding only that trial."""
    config.validate()
    if not seeds:
        raise ValueError("need at least one seed")
    n, k = config.n_slots, len(seeds)
    slots = np.arange(1, n + 1)
    batch_slots = np.tile(slots, k)
    harvest, gains = _sample_inputs(config, seeds)
    columns = _link_columns(config)
    desired = _desired_matrix(config, batch_slots, gains, columns)
    if with_battery:
        actual, levels = _battery(config, desired, harvest, columns)
        finals = [{node: float(lev[-1, j]) for node, lev in levels.items()}
                  for j in range(k)]
    else:
        actual, levels = desired, {}
        finals = [{t.node: t.initial_level for t in config.transmitters}
                  for _ in range(k)]

    # min(level, request) grants the request exactly when it fits, so
    # bitwise inequality is the mismatch test, and a run without mismatch
    # granted the request matrix itself: its utility is the reference one.
    # Utilities act slot by slot, so a trial's slots give the same values
    # whatever else is in the batch.
    miss = actual != desired
    delayed_g = _delayed(config, gains)
    u_ref = _utility(config, batch_slots, desired, delayed_g)
    u = _utility(config, batch_slots, actual, delayed_g) if miss.any() else u_ref

    mismatch = {}
    union = np.zeros((k, n), dtype=bool)
    for t in config.transmitters:
        node_miss = miss[:, columns[t.node]].any(axis=1).reshape(k, n)
        mismatch[t.node] = node_miss.sum(axis=1) / n
        union |= node_miss
    union_frac = union.sum(axis=1) / n
    nodes = tuple(t.node for t in config.transmitters)
    u_ref_rows = u_ref.reshape(k, n).tolist()
    u_rows = u_ref_rows if u is u_ref else u.reshape(k, n).tolist()

    results = []
    for j in range(k):
        rows = slice(j * n, (j + 1) * n)
        non_eh_utility = math.fsum(u_ref_rows[j]) / n
        summary = RunSummary(
            n_slots=n,
            avg_utility=(non_eh_utility if u is u_ref
                         else math.fsum(u_rows[j]) / n),
            non_eh_utility=non_eh_utility,
            avg_in=_NodeMeans(n, nodes,
                              lambda node, j=j: harvest[node][j]),
            avg_desired=_NodeMeans(
                n, nodes, lambda node, rows=rows: desired[rows, columns[node]]
            ),
            avg_out=_NodeMeans(
                n, nodes, lambda node, rows=rows: actual[rows, columns[node]]
            ),
            mismatch_fraction={node: frac[j]
                               for node, frac in mismatch.items()},
            mismatch_union=union_frac[j],
            final_level=finals[j],
        )
        if not return_trace:
            results.append(summary)
            continue
        trace = RunTrace(
            slots=slots,
            harvest={node: h[j] for node, h in harvest.items()},
            gains=gains[rows],
            desired=desired[rows],
            actual=actual[rows],
            levels={node: lev[:, j] for node, lev in levels.items()},
            utility=u[rows],
        )
        results.append((summary, trace))
    return results


def trials_per_call(config: SimulationConfig) -> int:
    """How many trials of `config` one batched `run_eh` call should take:
    as many as fit in `BATCH_SLOT_LINKS` slot-links, at least one."""
    return max(1, BATCH_SLOT_LINKS // (config.n_slots * len(config.links)))


def run_eh(config: SimulationConfig, *, seeds=None,
           return_trace: bool = False):
    """Simulate with the battery in the loop.  Returns a `RunSummary`
    (plus a `RunTrace` when `return_trace`) whose `non_eh_utility` is the
    reference system's average on the same draws.

    With `seeds`, runs one trial per seed on `config`'s network as one
    batch and returns a list with one result per seed, each equal to
    ``run_eh(replace(config, seed=s))`` bit for bit."""
    if seeds is None:
        return _run(config, [config.seed], True, return_trace)[0]
    return _run(config, [int(s) for s in seeds], True, return_trace)


def run_non_eh(config: SimulationConfig, *, return_trace: bool = False):
    """Simulate the reference system: same draws, every request granted,
    battery untouched."""
    return _run(config, [config.seed], False, return_trace)[0]


@dataclass(frozen=True)
class GapStatistics:
    """Seedwise paired difference `eh - non_eh` of the average utility."""

    gap_mean: float
    gap_stderr: float
    eh_mean: float
    non_eh_mean: float
    n_pairs: int


def mean_stderr(values: list[float]) -> tuple[float, float]:
    """Mean of `values` and its standard error (0 for a single value)."""
    k = len(values)
    mean = math.fsum(values) / k
    if k < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
    return mean, math.sqrt(var / k)


def paired_gap(config: SimulationConfig, seeds) -> GapStatistics:
    """Run both systems on each seed and summarize the paired utility gap.

    `run_eh` yields both averages, for `trials_per_call(config)` seeds
    per call."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    gaps, ehs, nons = [], [], []
    step = trials_per_call(config)
    for start in range(0, len(seeds), step):
        for summary in run_eh(config, seeds=seeds[start:start + step]):
            eh, non = summary.avg_utility, summary.non_eh_utility
            ehs.append(eh)
            nons.append(non)
            gaps.append(eh - non)
    k = len(seeds)
    mean, stderr = mean_stderr(gaps)
    return GapStatistics(
        gap_mean=mean,
        gap_stderr=stderr,
        eh_mean=math.fsum(ehs) / k,
        non_eh_mean=math.fsum(nons) / k,
        n_pairs=k,
    )
