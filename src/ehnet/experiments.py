"""Bundled sweep experiments and their reference baselines.

Each experiment sweeps a grid of (average harvested power in dB, run length,
battery-to-budget ratio, group size) points.  Per grid point `paired_gap`
runs a batch of seeded trials, each evaluating the system with the battery
enforced and without it on identical random draws, and the sweep emits
three CSV rows from its statistics and the baseline: the battery
system (``eh``), the unconstrained reference (``non_eh``), and an
independent baseline (``closed_form``) computed without Monte Carlo
wherever one exists.

Each experiment is one `EXPERIMENTS` entry: its title, what its group-size
axis counts (receivers for the broadcast sweep, transmitters for the
multi-access sweep, hops for the relay chain, unused elsewhere), its
default grid, functions that build its network and its baseline at a
grid point, the compiled scipy modules its sweep uses, the model knobs
it reads, and `check`, the rules of grids that only it cannot run (fig1's
`rate_threshold` < 1024, fig5's `group_size` < 516, fig6's even hop
counts up to 16).  Where the group-size axis is unused, `group_size`
must be ``(1,)``, and a model knob the experiment does not read must
keep its `SweepSpec` default; no `group_size` may exceed
`simulator.CHUNK_SLOT_LINKS` (2**15).  `ehnet validate` computes every
point's baseline, as a sweep does before its first trial (`_baselines`);
fig6's is a `BASELINE_N`-slot reference run per (power, hops) cell, whose
cost grows with the hop count.

Shipped defaults start every battery full (`initial_fill` 1.0).  At the
default `b_max_ratio` of 200 that banks 200 slots of mean harvest, which a
100-slot run never draws down: every shipped 100-slot `eh` row has mismatch
0, so those rows measure no battery at all.  Set `initial_fill` to 0.0 to
start empty and see the cold-start transient instead.

Reproducibility contract: per-trial seeds derive deterministically from
(master seed, grid index, trial index), so reruns of the same config --
serial or parallel -- produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Callable, Iterable

from .policies import (
    AlternatingRelayPolicy,
    AmplifierModel,
    ConstantPolicy,
    MaxGainBroadcastPolicy,
    WaterfillPolicy,
    solve_lambda,
)
from .simulator import (
    CHUNK_SLOT_LINKS,
    ConfigError,
    LinkSpec,
    NumericsError,
    SimulationConfig,
    TransmitterSpec,
    run_eh,
    run_non_eh,
)
from .stochastic import (
    LARGEST_EXPONENTIAL_DRAW,
    ExponentialProcess,
    check_count,
    check_real,
    expectation_quadrature,
    exponential_pdf,
    is_integer,
    load_compiled,
    max_exponential_pdf,
    seed_states,
)
from .utilities import (
    AmplifierRateUtility,
    BroadcastSumRateUtility,
    ChainRateUtility,
    MacBpskBerUtility,
    OutageUtility,
    rayleigh_bpsk_ber,
)

__all__ = [
    "CSV_FIELDS",
    "CsvRow",
    "EXPERIMENTS",
    "Experiment",
    "GapStatistics",
    "GridPoint",
    "SweepSpec",
    "build_config",
    "closed_form_baseline",
    "default_spec",
    "grid_points",
    "load_spec",
    "paired_gap",
    "run_experiment",
    "spec_from_dict",
    "trial_seed",
    "write_csv",
]

# Reference run length for baselines that need a simulation (relay chain).
BASELINE_N = 1_000_000
_BASELINE_TRIAL = 0x7FFFFFFF


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: the grid, the trial budget and the model knobs."""

    experiment: str
    p_in_db: tuple[float, ...]
    n_slots: tuple[int, ...]
    b_max_ratio: tuple[float | None, ...] = (200.0,)
    group_size: tuple[int, ...] = (1,)
    trials: int = 100
    seed: int = 1
    initial_fill: float = 1.0
    rate_threshold: float = 1.0
    amplifier_epsilon: float = 1.0
    circuit_power_db: float | None = None


# The model knobs, each read by some experiments only (`Experiment.reads`),
# and their defaults, which the others keep.
_KNOB_DEFAULTS = {f.name: f.default for f in fields(SweepSpec)
                  if f.name in ("rate_threshold", "amplifier_epsilon",
                                "circuit_power_db")}


def _as_int(value, name: str) -> int:
    """`value` as an int.  Integers are taken, and floats with a finite
    integral value (JSON ``100.0``); booleans, fractions, infinities and
    strings are not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    """`value` as a float.  Integers and floats are taken; booleans and
    strings are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


# How a config gives each `SweepSpec` field, in field order: (grid axis,
# converter of one value, null allowed).  An axis is a list of values, or
# one value standing for a list of it.
_SPEC_FIELDS = {
    "experiment": (False, lambda value, name: str(value), False),
    "p_in_db": (True, _as_float, False),
    "n_slots": (True, _as_int, False),
    "b_max_ratio": (True, _as_float, True),
    "group_size": (True, _as_int, False),
    "trials": (False, _as_int, False),
    "seed": (False, _as_int, False),
    "initial_fill": (False, _as_float, False),
    "rate_threshold": (False, _as_float, False),
    "amplifier_epsilon": (False, _as_float, False),
    "circuit_power_db": (False, _as_float, True),
}


def _read_field(name: str, value):
    """Config `value` of field `name` converted by `_SPEC_FIELDS`."""
    axis, convert, null_ok = _SPEC_FIELDS[name]
    items = value if axis and isinstance(value, (list, tuple)) else [value]
    if not items:
        raise ConfigError("grid axes must not be empty")
    read = tuple(None if v is None and null_ok else convert(v, name)
                 for v in items)
    return read if axis else read[0]


def spec_from_dict(data: dict) -> SweepSpec:
    """Build and validate a `SweepSpec` from a parsed config mapping."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - set(_SPEC_FIELDS)
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))  # a key may hold a newline
        raise ConfigError(f"unknown config keys: {names}")
    if "experiment" not in data:
        raise ConfigError("config needs an 'experiment' key")
    base = default_spec(str(data["experiment"]))
    try:
        spec = replace(base, **{name: _read_field(name, data[name])
                                for name in _SPEC_FIELDS if name in data})
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    validate_spec(spec)
    return spec


def validate_spec(spec: SweepSpec) -> None:
    """Raise `ConfigError` unless every grid point of `spec` can run, then
    load the compiled modules its experiment's sweep uses
    (`Experiment.modules`), so that their load time falls before the
    sweep."""
    experiment = _experiment(spec.experiment)
    for n in spec.n_slots:
        check_count("n_slots", n, error=ConfigError)
    for r in spec.b_max_ratio:
        if r is not None:
            check_real("b_max_ratio", r, strict=True, error=ConfigError)
    for p_db in spec.p_in_db:
        p = _linear_power(p_db, "p_in_db")
        # The harvest is the largest power of every network: the constant
        # requests are at most 2p (fig6's front half).
        if not p * LARGEST_EXPONENTIAL_DRAW < math.inf:
            raise ConfigError(
                f"p_in_db {p_db!r} dB: harvest draws of mean {p!r} reach "
                f"{LARGEST_EXPONENTIAL_DRAW:.1f} times that, which overflows"
            )
        for r in spec.b_max_ratio:
            if r is not None and not 0.0 < r * p < math.inf:
                raise ConfigError(
                    f"battery capacity b_max_ratio x power = {r!r} x {p!r} "
                    "is not positive and finite"
                )
    for m in spec.group_size:
        check_count("group_size", m, error=ConfigError)
        if m > CHUNK_SLOT_LINKS:
            raise ConfigError(
                f"group_size must be <= {CHUNK_SLOT_LINKS}, got {m!r}: one "
                "slot of one trial would hold more slot-links than a chunk "
                "of the walk")
    check_count("trials", spec.trials, error=ConfigError)
    check_count("seed", spec.seed, 0, error=ConfigError)
    if not 0.0 <= spec.initial_fill <= 1.0:
        raise ConfigError("initial_fill must be in [0, 1]")
    check_real("rate_threshold", spec.rate_threshold, strict=True,
               error=ConfigError)
    check_real("amplifier_epsilon", spec.amplifier_epsilon, 1.0,
               error=ConfigError)
    if spec.circuit_power_db is not None:
        _linear_power(spec.circuit_power_db, "circuit_power_db")
    experiment.check(spec)
    if experiment.group_axis == "unused" and spec.group_size != (1,):
        raise ConfigError(
            f"{spec.experiment} has no group-size axis: group_size must be "
            f"[1], got {list(spec.group_size)}")
    for name, default in _KNOB_DEFAULTS.items():
        value = getattr(spec, name)
        if name not in experiment.reads and value != default:
            raise ConfigError(
                f"{spec.experiment} does not read {name}: it must be "
                f"{json.dumps(default)}, got {json.dumps(value)}")
    for name in experiment.modules:
        load_compiled(name)


def load_spec(path) -> SweepSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deep to decode
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte in the path, or bytes that are not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return spec_from_dict(data)


@dataclass(frozen=True)
class GridPoint:
    index: int
    p_db: float
    n: int
    ratio: float | None
    m: int


def grid_points(spec: SweepSpec) -> list[GridPoint]:
    points = []
    for n in spec.n_slots:
        for m in spec.group_size:
            for ratio in spec.b_max_ratio:
                for p_db in spec.p_in_db:
                    points.append(
                        GridPoint(len(points), p_db, n, ratio, m)
                    )
    return points


def trial_seed(master_seed: int, point_index: int, trial: int) -> int:
    """Deterministic per-trial run seed; independent of execution order."""
    return _trial_seeds(master_seed, point_index, [trial])[0]


def _trial_seeds(master_seed: int, point_index: int, trials) -> list[int]:
    """`trial_seed` of each of `trials`, hashed in one pass: the first
    word of ``SeedSequence(master_seed, spawn_key=(point_index, trial))``."""
    keys = [(point_index, t) for t in trials]
    return seed_states([master_seed], keys, 1)[:, 0].tolist()


# ---------------------------------------------------------------------------
# The experiments: one registry entry each
# ---------------------------------------------------------------------------


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _linear_power(db: float, name: str) -> float:
    """`db` in linear units, which every model needs positive and finite."""
    try:
        p = _db_to_linear(db)
    except OverflowError:
        p = math.inf
    if not 0.0 < p < math.inf:
        raise ConfigError(f"{name} {db!r} dB is not a positive finite power")
    return p


@lru_cache(maxsize=None)
def _waterfill_threshold(target: float, epsilon: float, circuit_power: float):
    amp = AmplifierModel(epsilon=epsilon, circuit_power=circuit_power)

    def budget(lam: float) -> float:
        return WaterfillPolicy(amp, lam).expected_request_rayleigh()

    return solve_lambda(target, budget)


@lru_cache(maxsize=None)
def _broadcast_threshold(target: float, receivers: int) -> float:
    # On fixed nodes, not by quadrature: bit for bit the quadrature's
    # thresholds, without a QUADPACK run per bisection step.
    def budget(lam: float) -> float:
        policy = MaxGainBroadcastPolicy(lam, receivers)
        return policy.expected_request_rayleigh()

    return solve_lambda(target, budget)


def _waterfill(spec: SweepSpec, p: float):
    """The amplifier and the water-filling threshold at budget `p`.

    The threshold is None when `p` cannot even cover the static draw: the
    node then stays silent, which pins the rate to exactly zero instead of
    the vanishing but positive value a threshold solution would give.
    """
    db = spec.circuit_power_db
    pc = 0.0 if db is None else _db_to_linear(db)
    amp = AmplifierModel(epsilon=spec.amplifier_epsilon, circuit_power=pc)
    if p <= pc:
        return amp, None
    return amp, _waterfill_threshold(p, amp.epsilon, amp.circuit_power)


def _one_link():
    return (LinkSpec(1, 2, ExponentialProcess(1.0)),)


def _outage_network(spec, point, p, node):
    utility = OutageUtility(spec.rate_threshold)
    return (node(1, ConstantPolicy(p)),), _one_link(), utility


def _outage_check(spec):
    if spec.rate_threshold >= 1024:
        raise ConfigError(
            f"fig1 rate_threshold must be < 1024, got "
            f"{spec.rate_threshold!r}: the baseline's 2 ** rate_threshold "
            "overflows a float")


def _outage_baseline(spec, point, p):
    return -math.expm1(-(2.0 ** spec.rate_threshold - 1.0) / p)


def _waterfill_network(spec, point, p, node):
    amp, lam = _waterfill(spec, p)
    policy = (ConstantPolicy(0.0) if lam is None
              else WaterfillPolicy(amplifier=amp, lam=lam))
    return (node(1, policy),), _one_link(), AmplifierRateUtility(amp)


def _waterfill_baseline(spec, point, p):
    amp, lam = _waterfill(spec, p)
    if lam is None:
        return 0.0
    eps = amp.epsilon
    # The amplifier radiates (request - circuit_power) / eps, which is an
    # ideal amplifier's request at the same threshold divided by eps**2.
    ideal = WaterfillPolicy(AmplifierModel(), lam)

    def rate(g: float) -> float:
        return math.log2(1.0 + ideal.request(g) * g / (eps * eps))

    return expectation_quadrature(rate, exponential_pdf(1.0), lower=lam)


def _broadcast_network(spec, point, p, node):
    receivers = point.m
    policy = MaxGainBroadcastPolicy(lam=_broadcast_threshold(p, receivers),
                                    num_links=receivers)
    links = tuple(
        LinkSpec(1, 1 + j, ExponentialProcess(1.0))
        for j in range(1, receivers + 1)
    )
    return (node(1, policy),), links, BroadcastSumRateUtility(receivers)


def _broadcast_baseline(spec, point, p):
    lam = _broadcast_threshold(p, point.m)

    def rate(g: float) -> float:
        return math.log2(g / lam)

    return expectation_quadrature(
        rate, max_exponential_pdf(1.0, point.m), lower=lam
    )


def _mac_network(spec, point, p, node):
    senders = range(1, point.m + 1)
    sink = point.m + 1
    txs = tuple(node(k, ConstantPolicy(p)) for k in senders)
    links = tuple(LinkSpec(k, sink, ExponentialProcess(1.0)) for k in senders)
    return txs, links, MacBpskBerUtility(point.m)


def _mac_check(spec):
    largest = max(spec.group_size)
    if largest >= 516:
        raise ConfigError(
            f"fig5 group_size must be < 516, got {largest!r}: the "
            "baseline's binomial coefficient C(2m - 2, m - 1) overflows a "
            "float")


def _mac_baseline(spec, point, p):
    return rayleigh_bpsk_ber(p, branches=point.m)


def _relay_network(spec, point, p, node):
    hops = point.m
    hop_gain = float(hops * hops)
    # Front half: twice the harvest average every other slot, so the
    # request average equals the harvest average.  Back half: half that,
    # so its buffers accumulate.
    txs = tuple(
        node(k, AlternatingRelayPolicy(
            node_parity=k % 2,
            active_power=2.0 * p if k <= hops // 2 else p,
        ))
        for k in range(1, hops + 1)
    )
    links = tuple(
        LinkSpec(k, k + 1, ExponentialProcess(hop_gain), delay=hops - k)
        for k in range(1, hops + 1)
    )
    return txs, links, ChainRateUtility(hops)


def _relay_check(spec):
    for m in spec.group_size:
        if m < 2 or m % 2:
            raise ConfigError(
                "fig6 group_size is the hop count and must be even and "
                ">= 2: the chain forwards on alternating slot parity, so "
                "an odd hop count never delivers in an even slot"
            )
    shortest, hops = min(spec.n_slots), max(spec.group_size)
    if hops > 16:
        raise ConfigError(
            f"fig6 group_size must be <= 16, got {hops!r}: the baseline's "
            f"{BASELINE_N:,}-slot reference run of each (power, hops) cell "
            "takes about 0.05 s per hop, before any trial")
    if shortest < hops - 1:
        raise ConfigError(
            f"fig6 n_slots {shortest} is shorter than the first hop's "
            f"delay {hops - 1} at group_size {hops}: n_slots must be "
            ">= group_size - 1")


def _relay_baseline(spec, point, p):
    # The destination decodes in a share of the run that depends on its
    # length: the reference run's average is scaled from its own share to
    # the row's.
    chain = ChainRateUtility(point.m)
    scale = (chain.decoding_slots(point.n) * BASELINE_N
             / (point.n * chain.decoding_slots(BASELINE_N)))
    return _relay_reference(spec, point.p_db, point.m) * scale


@dataclass(frozen=True)
class Experiment:
    """One bundled sweep.

    `defaults` are its default `SweepSpec` fields.  At a grid point of
    linear power p, `network(spec, point, p, node)` returns the
    ``(transmitters, links, utility)`` of the network, with `node(k,
    policy)` making transmitter k, and `baseline(spec, point, p)` the
    Monte-Carlo-free value of the unconstrained system, which solves the
    policy's threshold where it has one, as the network does (`ehnet
    validate` runs every point's).  `modules` names the compiled scipy
    modules its sweep uses: QUADPACK (``scipy.integrate._quadpack``) for
    the `closed_form` values by quadrature, the ufuncs
    (``scipy.special._special_ufuncs``) for the water-filling thresholds'
    `exp1` and the BER's `erfc`; fig4's thresholds need numpy alone.
    `validate_spec` loads them with `stochastic.load_compiled`, as
    `import ehnet` loads none; neither ``scipy.integrate`` nor
    ``scipy.special`` is imported.  Only an entry with QUADPACK runs
    scipy's package ``__init__``, through the ``scipy._lib._ccallback``
    that QUADPACK imports at its first call and `load_compiled` imports
    with it; the others (fig1, fig5, fig6) load their modules alone.
    `reads` names the model knobs of `SweepSpec` that its network or
    baseline reads; `validate_spec` refuses any other knob away from its
    default.  `check(spec)`, run after the checks every sweep shares,
    raises `ConfigError` for grids that only this experiment cannot run.
    A `group_axis` of ``"unused"`` makes `validate_spec` refuse any
    `group_size` but ``(1,)``.
    """

    title: str
    group_axis: str
    defaults: dict
    network: Callable
    baseline: Callable
    modules: tuple[str, ...]
    reads: tuple[str, ...]
    check: Callable = lambda spec: None


EXPERIMENTS = {
    "fig1": Experiment(
        title="point-to-point outage probability vs harvested budget",
        group_axis="unused",
        defaults=dict(p_in_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                      n_slots=(100, 10_000)),
        network=_outage_network,
        baseline=_outage_baseline,
        modules=(),
        reads=("rate_threshold",),
        check=_outage_check,
    ),
    "fig2": Experiment(
        title="point-to-point water-filling rate, ideal amplifier",
        group_axis="unused",
        defaults=dict(p_in_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                      n_slots=(100, 10_000)),
        network=_waterfill_network,
        baseline=_waterfill_baseline,
        modules=("scipy.integrate._quadpack",
                 "scipy.special._special_ufuncs"),
        reads=("amplifier_epsilon", "circuit_power_db"),
    ),
    "fig3": Experiment(
        title="water-filling rate with amplifier slope and circuit draw",
        group_axis="unused",
        defaults=dict(
            p_in_db=(-30.0, -25.0, -20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0),
            n_slots=(10_000,),
            b_max_ratio=(20.0, 200.0),
            amplifier_epsilon=5.0,
            circuit_power_db=-25.0,
        ),
        network=_waterfill_network,
        baseline=_waterfill_baseline,
        modules=("scipy.integrate._quadpack",
                 "scipy.special._special_ufuncs"),
        reads=("amplifier_epsilon", "circuit_power_db"),
    ),
    "fig4": Experiment(
        title="opportunistic broadcast sum rate vs receiver count",
        group_axis="receivers",
        defaults=dict(p_in_db=(0.0, 5.0, 10.0, 15.0, 20.0),
                      n_slots=(100, 10_000), group_size=(2, 25)),
        network=_broadcast_network,
        baseline=_broadcast_baseline,
        modules=("scipy.integrate._quadpack",),
        reads=(),
    ),
    "fig5": Experiment(
        title="multi-access BPSK error rate vs transmitter count",
        group_axis="transmitters",
        defaults=dict(p_in_db=(0.0, 5.0, 10.0, 15.0), n_slots=(100, 10_000),
                      group_size=(1, 2, 5)),
        network=_mac_network,
        baseline=_mac_baseline,
        modules=("scipy.special._special_ufuncs",),
        reads=(),
        check=_mac_check,
    ),
    "fig6": Experiment(
        title="half-duplex amplify-and-forward chain rate",
        group_axis="hops (even)",
        defaults=dict(p_in_db=(0.0, 5.0, 10.0, 15.0), n_slots=(100, 10_000),
                      group_size=(2,)),
        network=_relay_network,
        baseline=_relay_baseline,
        modules=(),
        reads=(),
        check=_relay_check,
    ),
}


def _experiment(name: str) -> Experiment:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; "
                          f"known: {', '.join(sorted(EXPERIMENTS))}")
    return EXPERIMENTS[name]


def default_spec(experiment: str) -> SweepSpec:
    return SweepSpec(experiment=experiment,
                     **_experiment(experiment).defaults)


def build_config(spec: SweepSpec, point: GridPoint) -> SimulationConfig:
    """Materialize the network for one grid point."""
    p = _db_to_linear(point.p_db)
    if point.ratio is None:
        capacity, initial = math.inf, 0.0
    else:
        capacity = point.ratio * p
        initial = spec.initial_fill * capacity

    def node(k: int, policy) -> TransmitterSpec:
        return TransmitterSpec(node=k, harvest=ExponentialProcess(p),
                               policy=policy, capacity=capacity,
                               initial_level=initial)

    transmitters, links, utility = _experiment(spec.experiment).network(
        spec, point, p, node)
    return SimulationConfig(n_slots=point.n, transmitters=transmitters,
                            links=links, utility=utility)


def closed_form_baseline(spec: SweepSpec, point: GridPoint) -> float:
    """Monte-Carlo-free value of the unconstrained system at this grid point.

    The relay chain has no closed form; its baseline is the unconstrained
    simulation at `BASELINE_N` slots with a seed derived from the master
    seed and the (power, hops) cell, whose average is scaled by the share
    of the row's slots where the destination decodes (even slots from
    slot `hops` on) over that share in the reference run.  The rows of a
    cell at even run lengths and 2 hops all get the reference average.
    """
    return _experiment(spec.experiment).baseline(
        spec, point, _db_to_linear(point.p_db))


def _baselines(spec: SweepSpec, points, mapper=map) -> list[float]:
    """`closed_form_baseline` of each of `points`, in order, through
    `mapper` (`map`, or a worker pool's): what a sweep computes before its
    first trial, and all that `ehnet validate` computes."""
    return list(mapper(closed_form_baseline, [spec] * len(points), points))


@lru_cache(maxsize=None)
def _relay_reference(spec: SweepSpec, p_db: float, hops: int) -> float:
    """Unconstrained `BASELINE_N`-slot relay chain run of one (power, hops)
    cell, computed once per cell however many grid points share it.  The
    reference system never touches the battery, so the run is built with
    an unbounded one."""
    p_idx = spec.p_in_db.index(p_db)
    m_idx = spec.group_size.index(hops)
    key = (_BASELINE_TRIAL, p_idx, m_idx)
    seed = seed_states([spec.seed], [key], 1)[0, 0].item()
    ref_point = GridPoint(index=-1, p_db=p_db, n=BASELINE_N, ratio=None,
                          m=hops)
    return float(run_non_eh(build_config(spec, ref_point),
                            [seed]).avg_utility[0])


# ---------------------------------------------------------------------------
# Sweep runner and CSV output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapStatistics:
    """Means and standard errors over paired `eh` and `non_eh` runs.

    `gap_*` describe the seedwise difference `eh - non_eh` of the average
    utility, `eh_*` and `non_eh_*` each system's own averages, and
    `mismatch_mean` is the mean of the `eh` runs' `mismatch_union`.
    """

    gap_mean: float
    gap_stderr: float
    eh_mean: float
    eh_stderr: float
    non_eh_mean: float
    non_eh_stderr: float
    mismatch_mean: float
    n_pairs: int


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    """Mean of `values` and its standard error (0 for a single value)."""
    k = len(values)
    mean = math.fsum(values) / k
    if k < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
    return mean, math.sqrt(var / k)


def paired_gap(config: SimulationConfig, seeds) -> GapStatistics:
    """Run both systems on each seed of `seeds` and summarize them.

    One `run_eh` call yields both averages of every seed, as the columns
    of its `Trials`."""
    trials = run_eh(config, seeds)
    eh, non_eh = trials.avg_utility, trials.non_eh_utility
    return GapStatistics(
        *_mean_stderr((eh - non_eh).tolist()),
        *_mean_stderr(eh.tolist()),
        *_mean_stderr(non_eh.tolist()),
        mismatch_mean=math.fsum(trials.mismatch_union.tolist()) / len(eh),
        n_pairs=len(eh),
    )


@dataclass(frozen=True)
class CsvRow:
    experiment_id: str
    p_in_db: float
    n_slots: int
    b_max_ratio: float
    m: int
    mode: str
    u_mean: float
    u_stderr: float
    mismatch_mean: float


CSV_FIELDS = tuple(f.name for f in fields(CsvRow))


def _point_rows(spec: SweepSpec, point: GridPoint,
                baseline: float) -> list[CsvRow]:
    seeds = _trial_seeds(spec.seed, point.index, range(spec.trials))
    stats = paired_gap(build_config(spec, point), seeds)
    common = dict(
        experiment_id=spec.experiment,
        p_in_db=point.p_db,
        n_slots=point.n,
        b_max_ratio=math.inf if point.ratio is None else point.ratio,
        m=point.m,
    )
    return [
        CsvRow(mode="eh", u_mean=stats.eh_mean, u_stderr=stats.eh_stderr,
               mismatch_mean=stats.mismatch_mean, **common),
        CsvRow(mode="non_eh", u_mean=stats.non_eh_mean,
               u_stderr=stats.non_eh_stderr, mismatch_mean=0.0, **common),
        CsvRow(mode="closed_form", u_mean=baseline, u_stderr=0.0,
               mismatch_mean=0.0, **common),
    ]


def run_experiment(spec: SweepSpec, *, jobs: int = 1) -> list[CsvRow]:
    """Run the whole sweep.  The row list is independent of `jobs`.

    Every point's baseline, which solves its threshold where it has one,
    comes before the first trial, so a baseline or threshold that fails
    fails before any trial has run."""
    validate_spec(spec)
    points = grid_points(spec)
    specs = [spec] * len(points)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Under fork the pool starts all its workers at the first submit,
        # so it gets no more of them than there are points.
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            baselines = _baselines(spec, points, pool.map)
            per_point = list(pool.map(_point_rows, specs, points, baselines))
    else:
        baselines = _baselines(spec, points)
        per_point = list(map(_point_rows, specs, points, baselines))
    rows = [row for batch in per_point for row in batch]
    for row in rows:
        if not (math.isfinite(row.u_mean) and math.isfinite(row.u_stderr)):
            raise NumericsError(
                f"non-finite statistics for {row.experiment_id} at "
                f"{row.p_in_db} dB, n={row.n_slots}, m={row.m}, mode={row.mode}"
            )
    return rows


def write_csv(rows: Iterable[CsvRow], path) -> None:
    """Write rows with the exact `CSV_FIELDS` header, one cell per `CsvRow`
    field.  A field declared `float` is written as the `repr` of its value
    as a float (shortest round-trip, ``5.0`` for an int 5), so identical
    runs give identical bytes."""
    columns = [(f.name, f.type == "float") for f in fields(CsvRow)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow([repr(float(getattr(row, name))) if is_float
                             else getattr(row, name)
                             for name, is_float in columns])
