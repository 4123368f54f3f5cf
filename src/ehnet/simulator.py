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

Averages over slots use exact compensated summation, and run averages count
*all* slots, including ones where the utility is structurally zero.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from . import battery
from .stochastic import Stream

__all__ = [
    "ConfigError",
    "GapStatistics",
    "LinkSpec",
    "NumericsError",
    "RunSummary",
    "RunTrace",
    "SimulationConfig",
    "TransmitterSpec",
    "paired_gap",
    "run_eh",
    "run_non_eh",
]

# Stream key prefixes: one stream per (purpose, identity), so adding a node
# or link never disturbs the draws of the existing ones.
_HARVEST_KEY = 0
_FADING_KEY = 1


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
    """A transmitting node: harvest process, policy and battery geometry.

    `p_lim_avg` is the node's average transmit-power limit.  It does not
    constrain individual slots here (policies already respect it by
    construction); it is carried so runs can report the buffer regime:
    a limit below the harvest average makes the buffer absorbing.
    """

    node: int
    harvest: object
    policy: object
    capacity: float = math.inf
    initial_level: float = 0.0
    p_lim_avg: float = math.inf


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


def _sample_inputs(config: SimulationConfig):
    n = config.n_slots
    harvest = {}
    for t in config.transmitters:
        stream = Stream(config.seed, (_HARVEST_KEY, t.node, 0))
        draws = np.asarray(t.harvest.sample(stream, n), dtype=float)
        if draws.shape != (n,):
            raise NumericsError(f"harvest process for node {t.node} returned "
                                f"shape {draws.shape}")
        harvest[t.node] = draws
    gains = np.empty((n, len(config.links)))
    for col, link in enumerate(config.links):
        stream = Stream(config.seed, (_FADING_KEY, link.tx, link.rx))
        draws = np.asarray(link.fading.sample(stream, n), dtype=float)
        if draws.shape != (n,):
            raise NumericsError(f"fading process for link {link.tx}->{link.rx} "
                                f"returned shape {draws.shape}")
        gains[:, col] = draws
    if np.any(gains < 0.0) or not np.all(np.isfinite(gains)):
        raise NumericsError("channel gains must be finite and >= 0")
    return harvest, gains


def _desired_matrix(config: SimulationConfig, slots, gains, columns):
    n = config.n_slots
    desired = np.empty_like(gains)
    for t in config.transmitters:
        cols = columns[t.node]
        req = np.asarray(
            t.policy.desired_powers(slots, gains[:, cols]), dtype=float
        )
        if req.shape != (n, len(cols)):
            raise NumericsError(
                f"policy of node {t.node} returned shape {req.shape}, "
                f"expected {(n, len(cols))}"
            )
        if np.any(req < 0.0) or not np.all(np.isfinite(req)):
            raise NumericsError(f"policy of node {t.node} requested negative "
                                "or non-finite power")
        desired[:, cols] = req
    return desired


def _delayed(config: SimulationConfig, values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    for col, link in enumerate(config.links):
        d = link.delay
        if d == 0:
            out[:, col] = values[:, col]
        else:
            out[d:, col] = values[:-d, col]
    return out


def _utility(config: SimulationConfig, slots, powers, delayed_gains):
    n = config.n_slots
    u = np.asarray(
        config.utility.evaluate(slots, _delayed(config, powers), delayed_gains),
        dtype=float,
    )
    if u.shape != (n,):
        raise NumericsError(f"utility returned shape {u.shape}, expected ({n},)")
    if not np.all(np.isfinite(u)):
        raise NumericsError("utility produced non-finite values")
    return u


def _link_columns(config: SimulationConfig) -> dict[int, list[int]]:
    columns: dict[int, list[int]] = {t.node: [] for t in config.transmitters}
    for col, link in enumerate(config.links):
        columns[link.tx].append(col)
    return columns


def _run(config: SimulationConfig, with_battery: bool, return_trace: bool):
    config.validate()
    n = config.n_slots
    slots = np.arange(1, n + 1)
    harvest, gains = _sample_inputs(config)
    columns = _link_columns(config)
    desired = _desired_matrix(config, slots, gains, columns)
    if with_battery:
        actual = np.empty_like(desired)
        levels, finals = {}, {}
        for t in config.transmitters:
            cols = columns[t.node]
            got, lev = battery.trajectory(
                desired[:, cols],
                harvest[t.node],
                capacity=t.capacity,
                initial=t.initial_level,
            )
            actual[:, cols] = got
            levels[t.node] = lev
            finals[t.node] = float(lev[-1])
    else:
        actual, levels = desired, {}
        finals = {t.node: t.initial_level for t in config.transmitters}

    # min(level, request) grants the request exactly when it fits, so
    # bitwise inequality is the mismatch test, and a run without mismatch
    # granted the request matrix itself: its utility is the reference one.
    miss = actual != desired
    delayed_g = _delayed(config, gains)
    u_ref = _utility(config, slots, desired, delayed_g)
    u = _utility(config, slots, actual, delayed_g) if miss.any() else u_ref

    mismatch = {}
    union = np.zeros(n, dtype=bool)
    for t in config.transmitters:
        node_miss = miss[:, columns[t.node]].any(axis=1)
        mismatch[t.node] = node_miss.sum() / n
        union |= node_miss
    nodes = tuple(t.node for t in config.transmitters)
    non_eh_utility = _mean(u_ref, n)
    summary = RunSummary(
        n_slots=n,
        avg_utility=non_eh_utility if u is u_ref else _mean(u, n),
        non_eh_utility=non_eh_utility,
        avg_in=_NodeMeans(n, nodes, harvest.__getitem__),
        avg_desired=_NodeMeans(n, nodes,
                               lambda node: desired[:, columns[node]]),
        avg_out=_NodeMeans(n, nodes, lambda node: actual[:, columns[node]]),
        mismatch_fraction=mismatch,
        mismatch_union=union.sum() / n,
        final_level=finals,
    )
    if not return_trace:
        return summary
    trace = RunTrace(
        slots=slots,
        harvest=harvest,
        gains=gains,
        desired=desired,
        actual=actual,
        levels=levels,
        utility=u,
    )
    return summary, trace


def run_eh(config: SimulationConfig, *, return_trace: bool = False):
    """Simulate with the battery in the loop.  Returns a `RunSummary`
    (plus a `RunTrace` when `return_trace`) whose `non_eh_utility` is the
    reference system's average on the same draws."""
    return _run(config, with_battery=True, return_trace=return_trace)


def run_non_eh(config: SimulationConfig, *, return_trace: bool = False):
    """Simulate the reference system: same draws, every request granted,
    battery untouched."""
    return _run(config, with_battery=False, return_trace=return_trace)


@dataclass(frozen=True)
class GapStatistics:
    """Seedwise paired difference `eh - non_eh` of the average utility."""

    gap_mean: float
    gap_stderr: float
    eh_mean: float
    non_eh_mean: float
    n_pairs: int


def paired_gap(config: SimulationConfig, seeds) -> GapStatistics:
    """Run both systems on each seed and summarize the paired utility gap.

    One `run_eh` call per seed yields both averages."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    gaps, ehs, nons = [], [], []
    for seed in seeds:
        summary = run_eh(replace(config, seed=int(seed)))
        eh, non = summary.avg_utility, summary.non_eh_utility
        ehs.append(eh)
        nons.append(non)
        gaps.append(eh - non)
    k = len(seeds)
    mean = math.fsum(gaps) / k
    if k > 1:
        var = math.fsum((g - mean) ** 2 for g in gaps) / (k - 1)
        stderr = math.sqrt(var / k)
    else:
        stderr = 0.0
    return GapStatistics(
        gap_mean=mean,
        gap_stderr=stderr,
        eh_mean=math.fsum(ehs) / k,
        non_eh_mean=math.fsum(nons) / k,
        n_pairs=k,
    )
