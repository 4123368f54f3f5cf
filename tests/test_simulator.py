"""Unit tests for the network simulator: validation, determinism, pairing."""

import gc
import math
import tracemalloc
from dataclasses import astuple, fields, replace
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehnet import simulator, stochastic
from ehnet.experiments import (
    GapStatistics,
    _mean_stderr,
    build_config,
    default_spec,
    grid_points,
    paired_gap,
)
from ehnet.policies import (
    AlternatingRelayPolicy,
    AmplifierModel,
    ConstantPolicy,
    MaxGainBroadcastPolicy,
    WaterfillPolicy,
    expected_desired_power,
    solve_lambda,
)
from ehnet import battery
from ehnet.battery import VECTOR_LANES
from ehnet.simulator import (
    ConfigError,
    LinkSpec,
    NumericsError,
    SimulationConfig,
    TransmitterSpec,
    Trials,
    run_eh,
    run_non_eh,
)
from ehnet.stochastic import ConstantProcess, ExponentialProcess
from ehnet.utilities import (
    AmplifierRateUtility,
    BroadcastSumRateUtility,
    ChainRateUtility,
    MacBpskBerUtility,
    OutageUtility,
    rayleigh_bpsk_ber,
)
from oracles import (
    BatteryState,
    bits,
    deposit,
    extract,
    extract_many,
    reference_run,
)
from walk_capture import capture


def single_link_config(n=100, power=1.0, harvest_mean=1.0, **tx_kwargs):
    return SimulationConfig(
        n_slots=n,
        transmitters=(
            TransmitterSpec(
                node=0,
                harvest=ExponentialProcess(harvest_mean),
                policy=ConstantPolicy(power),
                **tx_kwargs,
            ),
        ),
        links=(LinkSpec(tx=0, rx=1, fading=ExponentialProcess(1.0)),),
        utility=OutageUtility(1.0),
    )


def joined(parts):
    """The trials of `parts`, one after another, as one `Trials`."""
    return simulator._joined(list(parts))


def per_trial(trials):
    """Each trial of `trials` as a one-trial `Trials`, in seed order."""
    return [replace(trials, **{
        f.name: getattr(trials, f.name)[j:j + 1] for f in fields(Trials)
        if isinstance(getattr(trials, f.name), np.ndarray)})
        for j in range(len(trials.avg_utility))]


# ---------------------------------------------------------------------------
# config validation


def test_validation_catches_bad_configs():
    good = single_link_config()
    good.validate()

    with pytest.raises(ConfigError):
        replace(good, n_slots=0).validate()
    for n_slots in (50.0, True, "50"):  # not rounded, parsed or taken as 1
        with pytest.raises(ConfigError) as err:
            replace(good, n_slots=n_slots).validate()
        assert str(err.value) == (f"n_slots must be an integer >= 1, got "
                                  f"{n_slots!r}")
    with pytest.raises(ConfigError):
        replace(good, transmitters=good.transmitters * 2).validate()
    with pytest.raises(ConfigError):
        replace(good, links=()).validate()
    with pytest.raises(ConfigError):  # self loop
        replace(good, links=(LinkSpec(0, 0, ExponentialProcess(1.0)),)).validate()
    with pytest.raises(ConfigError):  # duplicate link
        replace(good, links=good.links * 2).validate()
    with pytest.raises(ConfigError):  # transmitter without spec
        replace(good, links=(LinkSpec(5, 1, ExponentialProcess(1.0)),)).validate()
    with pytest.raises(ConfigError):  # delay beyond horizon
        replace(
            good, links=(LinkSpec(0, 1, ExponentialProcess(1.0), delay=101),)
        ).validate()
    with pytest.raises(ConfigError):  # policy arity vs topology
        replace(
            good,
            links=good.links + (LinkSpec(0, 2, ExponentialProcess(1.0)),),
        ).validate()
    with pytest.raises(ConfigError):  # utility arity vs topology
        replace(good, utility=ChainRateUtility(2)).validate()
    with pytest.raises(ConfigError):  # initial level above capacity
        single_link_config(capacity=1.0, initial_level=2.0).validate()
    # Node ids are integers >= 0: not rounded, and refused before a run.
    tx, link = good.transmitters[0], good.links[0]
    for node, tx_id, rx_id, field in ((0.0, 0.0, 1, "transmitter node"),
                                      (-1, -1, 1, "transmitter node"),
                                      (0, 0, 1.5, "link rx")):
        bad = replace(good, transmitters=(replace(tx, node=node),),
                      links=(replace(link, tx=tx_id, rx=rx_id),))
        with pytest.raises(ConfigError) as err:
            bad.validate()
        bad_id = rx_id if field == "link rx" else node
        assert str(err.value) == (f"{field} must be an integer >= 0, got "
                                  f"{bad_id!r}")
    # A battery size or start level is a number: not a bool or a string.
    for kwargs, shown in ((dict(capacity="5"), "capacity must be a number, "
                           "got '5'"),
                          (dict(capacity=True), "capacity must be a number, "
                           "got True"),
                          (dict(initial_level=True), "level must be a number, "
                           "got True")):
        with pytest.raises(ConfigError) as err:
            single_link_config(**kwargs).validate()
        assert str(err.value) == f"node 0: battery {shown}"
    ones = np.ones((4, 3))  # three lanes
    for capacity in (True, "5", np.ones(3, dtype=bool), [5.0, 5.0, True]):
        with pytest.raises(ValueError, match="capacity must be a number"):
            battery.trajectory(ones, ones, capacity=capacity)
    # A list's items are checked before numpy turns a bool among floats
    # into a float.
    for levels, capacity, shown in (([1.0, True], [5.0, 5.0], "level"),
                                    (np.zeros(2), (5.0, True), "capacity")):
        with pytest.raises(ValueError) as err:
            battery.check_start(levels, capacity)
        assert str(err.value) == f"battery {shown} must be a number, got True"


def test_unbounded_buffer_may_start_at_inf():
    # `validate` takes the start levels `trajectory` takes: inf only in an
    # unbounded buffer, where an overflowed level goes; it grants every
    # request.
    summary = run_eh(single_link_config(n=50, initial_level=math.inf), [0])
    assert summary.mismatch_union[0] == 0.0
    assert summary.avg_utility[0] == summary.non_eh_utility[0]
    with pytest.raises(ConfigError) as err:
        single_link_config(capacity=5.0, initial_level=math.inf).validate()
    assert str(err.value) == "node 0: battery level must be finite"


def test_validation_wants_integer_delays():
    good = single_link_config()
    with pytest.raises(ConfigError) as err:
        replace(good, links=(replace(good.links[0], delay=1.5),)).validate()
    assert str(err.value) == "link 0->1 delay 1.5 is not an integer"
    with pytest.raises(ConfigError) as err:
        replace(good, links=(replace(good.links[0], delay=True),)).validate()
    assert str(err.value) == "link 0->1 delay True is not an integer"
    replace(good, links=(replace(good.links[0], delay=np.int64(1)),)).validate()


def test_validation_wants_each_transmitters_links_together():
    # Node 0's links 0->2 and 0->3 around node 1's would not be one range
    # of columns.
    def tx(node, links):
        return TransmitterSpec(node, ConstantProcess(1.0),
                               ConstantPolicy(1.0, num_links=links))

    def link(a, b):
        return LinkSpec(a, b, ExponentialProcess(1.0))

    cfg = SimulationConfig(
        n_slots=10, transmitters=(tx(0, 2), tx(1, 1)),
        links=(link(0, 2), link(1, 2), link(0, 3)),
        utility=BroadcastSumRateUtility(3))
    with pytest.raises(ConfigError) as info:
        cfg.validate()
    assert str(info.value) == "links of transmitter 0 are not grouped together"
    replace(cfg, links=(link(0, 2), link(0, 3), link(1, 2))).validate()


@pytest.mark.parametrize("seed, error", [
    (1.5, TypeError), (2.0, TypeError), (np.float64(3.0), TypeError),
    ("3", TypeError), (None, TypeError), (-1, ConfigError), (True, TypeError),
], ids=["fraction", "float", "numpy_float", "string", "none", "negative",
        "bool"])
def test_validation_wants_a_nonnegative_integer_seed(seed, error):
    # Both runs check their seeds before drawing: a negative integer is a
    # `ConfigError` that names it, anything else but an integer a
    # `TypeError`.
    for run in (run_eh, run_non_eh):
        with pytest.raises(error) as err:
            run(single_link_config(), [0, seed])
    if error is ConfigError:
        assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"
    for good in (0, np.int64(7), np.uint64(2**64 - 1), 2**100):
        run_eh(single_link_config(n=1), [good])


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), "3", None, True],
                         ids=["fraction", "float", "numpy_float", "string",
                              "none", "bool"])
def test_batch_seeds_that_are_not_integers_raise(seed):
    # Seeds are never rounded or parsed: 1.5 is not seed 1, "3" not 3,
    # True not 1.
    cfg = single_link_config()
    with pytest.raises(TypeError):
        run_eh(cfg, seeds=[0, seed])
    want = bits(joined(run_eh(cfg, [s]) for s in (0, 1, 2)))
    assert bits(run_eh(cfg, np.arange(3))) == want
    assert bits(run_eh(cfg, range(3))) == want


class _UncheckedLinksPolicy:
    """Requests 1.0 per slot on one link; its `num_links` is left for
    `validate` to check."""

    def __init__(self, num_links):
        self.num_links = num_links

    def desired_powers(self, slots, gains):
        return np.ones((len(slots), 1))


def _run_with_policy_links(num_links):
    cfg = single_link_config(n=10)
    tx = replace(cfg.transmitters[0], policy=_UncheckedLinksPolicy(num_links))
    return run_eh(replace(cfg, transmitters=(tx,)), [0])


def _solve(target):
    pdf = stochastic.exponential_pdf(1.0)
    return solve_lambda(target, lambda lam: expected_desired_power(
        MaxGainBroadcastPolicy(lam, 1), pdf))


# Each real field: how to build it, the name its message gives, its bound,
# and whether the bound itself is refused.
_REAL_FIELDS = {
    "amplifier_epsilon": (lambda v: AmplifierModel(epsilon=v), "epsilon",
                          1.0, False),
    "circuit_power": (lambda v: AmplifierModel(circuit_power=v),
                      "circuit_power", 0.0, False),
    "constant_power": (ConstantPolicy, "power", 0.0, False),
    "waterfill_lam": (lambda v: WaterfillPolicy(AmplifierModel(), v), "lam",
                      0.0, True),
    "broadcast_lam": (lambda v: MaxGainBroadcastPolicy(v, 2), "lam", 0.0,
                      True),
    "relay_power": (lambda v: AlternatingRelayPolicy(0, v), "active_power",
                    0.0, False),
    "target_avg": (_solve, "target_avg", 0.0, True),
    "process_mean": (ExponentialProcess, "mean", 0.0, True),
    "process_value": (ConstantProcess, "value", 0.0, False),
    "pdf_mean": (stochastic.exponential_pdf, "mean", 0.0, True),
    "max_pdf_mean": (lambda v: stochastic.max_exponential_pdf(v, 2), "mean",
                     0.0, True),
    "ber_power": (rayleigh_bpsk_ber, "power", 0.0, True),
    "outage_threshold": (OutageUtility, "rate_threshold", 0.0, True),
}

# Each count field: how to build it, and the name its message gives.
_COUNT_FIELDS = {
    "constant_links": (lambda v: ConstantPolicy(1.0, num_links=v),
                       "num_links"),
    "broadcast_links": (lambda v: MaxGainBroadcastPolicy(1.0, v),
                        "num_links"),
    "broadcast_utility": (BroadcastSumRateUtility, "num_links"),
    "mac_utility": (MacBpskBerUtility, "num_links"),
    "chain_utility": (ChainRateUtility, "num_links"),
    "max_pdf_count": (lambda v: stochastic.max_exponential_pdf(1.0, v),
                      "count"),
    "ber_branches": (lambda v: rayleigh_bpsk_ber(1.0, v), "branches"),
}

_FIELD_CASES = [
    pytest.param(build, bad, field, error, (np.int64(1),), id=name)
    for name, build, bad, field, error in [
        ("stream_seed", lambda v: stochastic.Stream(v, (0, 0, 0)), True,
         "seed", ValueError),
        ("stream_seeds", lambda v: stochastic.Stream([v, 2], (0, 0, 0)),
         True, "seed", ValueError),
        ("exponential_mean", ExponentialProcess, True, "mean", ValueError),
        ("relay_parity",
         lambda v: AlternatingRelayPolicy(node_parity=v, active_power=1.0),
         True, "node_parity", ValueError),
        ("broadcast_policy_links",
         lambda v: MaxGainBroadcastPolicy(1.0, num_links=v), True,
         "num_links", ValueError),
        ("broadcast_utility_links", BroadcastSumRateUtility, True,
         "num_links", ValueError),
        ("mac_utility_links", MacBpskBerUtility, True, "num_links",
         ValueError),
        ("chain_utility_links", ChainRateUtility, 2.5, "num_links",
         ValueError),
        ("max_pdf_count", lambda v: stochastic.max_exponential_pdf(1.0, v),
         2.5, "count", ValueError),
        ("ber_branches", lambda v: rayleigh_bpsk_ber(1.0, v), 2.5,
         "branches", ValueError),
        ("outage_nan", OutageUtility, math.nan, "rate_threshold", ValueError),
        ("outage_negative", OutageUtility, -1.0, "rate_threshold",
         ValueError),
        ("outage_inf", OutageUtility, math.inf, "rate_threshold", ValueError),
        ("policy_links_bool", _run_with_policy_links, True, "num_links",
         ConfigError),
        ("policy_links_float", _run_with_policy_links, 1.0, "num_links",
         ConfigError),
    ]
] + [
    # Reals: numpy's floats and ints and plain ints pass.
    pytest.param(build, bad, field, ValueError,
                 (np.float64(1.0), np.int64(1), 1), id=f"{name}_{kind}")
    for name, (build, field, bound, strict) in _REAL_FIELDS.items()
    for kind, bad in [
        ("bool", True), ("string", "1"), ("none", None), ("nan", math.nan),
        ("inf", math.inf), ("huge_int", 10**400),
        ("past_bound", bound if strict else math.nextafter(bound, -1.0))]
] + [
    pytest.param(build, bad, field, ValueError, (np.int64(1), 1),
                 id=f"{name}_{kind}")
    for name, (build, field) in _COUNT_FIELDS.items()
    for kind, bad in [("bool", True), ("float", 1.0), ("fraction", 2.5),
                      ("string", "1"), ("none", None), ("past_bound", 0)]
] + [
    pytest.param(build, bad, "key", ValueError, (np.int64(1), 1),
                 id=f"{name}_{kind}")
    for name, build in [
        ("stream_key", lambda v: stochastic.Stream(1, (v, 0, 0))),
        ("stream_keys", lambda v: stochastic.Stream(1, [(0, 0, 0),
                                                        (v, 0, 0)]))]
    for kind, bad in [("bool", True), ("fraction", 1.5)]
] + [
    # A duck with an amplifier's fields is not an amplifier either.
    pytest.param(build, bad, "amplifier", ValueError, (AmplifierModel(),),
                 id=f"{name}_{kind}")
    for name, build in [
        ("waterfill_amplifier", lambda v: WaterfillPolicy(v, 1.0)),
        ("rate_amplifier", AmplifierRateUtility)]
    for kind, bad in [
        ("none", None),
        ("duck", SimpleNamespace(epsilon=1.0, circuit_power=0.0))]
]


@pytest.mark.parametrize("build, bad, field, error, goods", _FIELD_CASES)
def test_model_fields_refuse_bools_and_fractions(build, bad, field, error,
                                                 goods):
    # A bool is not taken as 0 or 1, a fraction is not truncated, a real
    # is finite as a double, and the one-line message names the field;
    # numpy's numbers are numbers.
    with pytest.raises(error) as err:
        build(bad)
    assert field in str(err.value) and "\n" not in str(err.value)
    for good in goods:
        build(good)


def test_run_rejects_invalid_config_before_sampling():
    with pytest.raises(ConfigError):
        run_eh(single_link_config(n=0), [0])


# ---------------------------------------------------------------------------
# determinism and stream isolation


def test_same_seed_same_summary():
    cfg = single_link_config(n=2000)
    assert bits(run_eh(cfg, [7])) == bits(run_eh(cfg, [7]))
    assert bits(run_non_eh(cfg, [7])) == bits(run_non_eh(cfg, [7]))


def test_different_seed_different_draws():
    _, (ta,) = capture(run_eh, single_link_config(n=500), [1])
    _, (tb,) = capture(run_eh, single_link_config(n=500), [2])
    assert not np.array_equal(ta.gains, tb.gains)
    assert not np.array_equal(ta.harvest[0], tb.harvest[0])


def test_adding_a_node_leaves_existing_draws_alone():
    base = single_link_config(n=300)
    _, (t1,) = capture(run_eh, base, [11])

    bigger = replace(
        base,
        transmitters=base.transmitters + (
            TransmitterSpec(
                node=7,
                harvest=ExponentialProcess(2.0),
                policy=ConstantPolicy(0.5),
            ),
        ),
        links=base.links + (LinkSpec(tx=7, rx=1, fading=ExponentialProcess(1.0)),),
        utility=None,
    )
    # evaluate with a permissive utility so arity does not get in the way
    class SumPower:
        num_links = None
        def evaluate(self, slots, powers, gains):
            return powers.sum(axis=1)
    bigger = replace(bigger, utility=SumPower())
    _, (t2,) = capture(run_eh, bigger, [11])

    assert np.array_equal(t1.harvest[0], t2.harvest[0])
    assert np.array_equal(t1.gains[:, 0], t2.gains[:, 0])


def test_prefix_causality():
    # a longer horizon replays the same history slot for slot
    _, (short,) = capture(run_eh, single_link_config(n=200), [3])
    _, (long,) = capture(run_eh, single_link_config(n=500), [3])
    assert np.array_equal(short.harvest[0], long.harvest[0][:200])
    assert np.array_equal(short.gains, long.gains[:200])
    assert np.array_equal(short.actual, long.actual[:200])
    assert np.array_equal(short.levels[0], long.levels[0][:200])
    assert np.array_equal(short.utility, long.utility[:200])


# ---------------------------------------------------------------------------
# reference system semantics


def test_non_eh_grants_every_request():
    cfg = single_link_config(n=1000, power=5.0, harvest_mean=0.1)
    summary, (trace,) = capture(run_non_eh, cfg, [5])
    assert np.array_equal(trace.actual, trace.desired)
    assert summary.mismatch_fraction.tolist() == [[0.0]]
    assert summary.mismatch_union.tolist() == [0.0]
    assert summary.final_level.tolist() == [[0.0]]
    assert math.fsum(trace.actual[:, 0].tolist()) / cfg.n_slots == 5.0


def test_non_eh_shares_draws_with_eh():
    cfg = single_link_config(n=1000)
    _, (te,) = capture(run_eh, cfg, [9])
    _, (tn,) = capture(run_non_eh, cfg, [9])
    assert np.array_equal(te.harvest[0], tn.harvest[0])
    assert np.array_equal(te.gains, tn.gains)
    assert np.array_equal(te.desired, tn.desired)


def test_eh_never_beats_requests_and_conserves_energy():
    cfg = single_link_config(n=5000, power=1.5)
    summary, (trace,) = capture(run_eh, cfg, [13])
    assert np.all(trace.actual <= trace.desired)
    banked = math.fsum(trace.harvest[0].tolist())
    spent = math.fsum(trace.actual.ravel().tolist())
    assert banked == pytest.approx(spent + summary.final_level[0, 0],
                                   rel=1e-12)


def test_zero_harvest_cold_start_never_transmits():
    cfg = single_link_config(n=64, power=2.0)
    cfg = replace(
        cfg,
        transmitters=(replace(cfg.transmitters[0],
                              harvest=ConstantProcess(0.0)),),
    )
    summary, (trace,) = capture(run_eh, cfg, [0])
    assert np.all(trace.actual == 0.0)
    assert summary.mismatch_fraction[0, 0] == 1.0  # every slot wants power


def test_capacity_clip_loses_energy():
    cfg = single_link_config(n=2000, power=0.0, capacity=0.5)
    cfg = replace(
        cfg,
        transmitters=(replace(cfg.transmitters[0],
                              policy=ConstantPolicy(0.0)),),
    )
    summary, (trace,) = capture(run_eh, cfg, [17])
    banked = math.fsum(trace.harvest[0].tolist())
    assert summary.final_level[0, 0] == 0.5
    assert banked > summary.final_level[0, 0]  # overflow was discarded


# ---------------------------------------------------------------------------
# worked example: deterministic two-hop relay chain


def chain_config(n=40):
    # two hops with constant unit harvest, alternating slot parity, and
    # fixed gains making every granted transmission arrive at p*g = 10
    relay_gain = ConstantProcess(10.0)
    return SimulationConfig(
        n_slots=n,
        transmitters=(
            TransmitterSpec(node=0, harvest=ConstantProcess(1.0),
                            policy=AlternatingRelayPolicy(0, 1.0)),
            TransmitterSpec(node=1, harvest=ConstantProcess(1.0),
                            policy=AlternatingRelayPolicy(1, 1.0)),
        ),
        links=(
            LinkSpec(tx=0, rx=1, fading=relay_gain, delay=2),
            LinkSpec(tx=1, rx=2, fading=relay_gain, delay=1),
        ),
        utility=ChainRateUtility(2),
    )


def test_chain_worked_example_average():
    n = 40
    summary = run_eh(chain_config(n), [0])
    # destination slots 4, 6, ..., 40 deliver log2(1 + 100/21); slot 2 is
    # dead because the source's feeding slot 0 precedes the run
    per_delivery = math.log2(1.0 + 100.0 / 21.0)
    expected = ((n - 2) / 2) / n * per_delivery
    assert summary.avg_utility[0] == pytest.approx(expected, rel=1e-12)


def test_chain_worked_example_mismatch_bookkeeping():
    summary = run_eh(chain_config(40), [0])
    assert summary.nodes == (0, 1)
    # only the relay's very first request (slot 1, empty battery) fails
    assert summary.mismatch_fraction.tolist() == [[0.0, 1.0 / 40.0]]
    assert summary.mismatch_union.tolist() == [1.0 / 40.0]
    # source spends 1.0 in each of 20 even slots; relay in 19 odd slots
    assert summary.final_level.tolist() == [[20.0, 21.0]]


def test_chain_half_duplex_no_simultaneous_hops():
    _, (trace,) = capture(run_eh, chain_config(40), [0])
    overlap = trace.actual[:, 0] * trace.actual[:, 1]
    assert np.all(overlap == 0.0)


# ---------------------------------------------------------------------------
# paired comparison

# A short run of each bundled experiment, either starting from an empty
# battery (requests go unmet) or from a huge full one (every request met).
PAIRING_GROUP = {"fig4": 3, "fig5": 2, "fig6": 2}


def sweep_config(experiment, starved, group=None):
    spec = replace(
        default_spec(experiment),
        p_in_db=(5.0,),
        n_slots=(60,),
        b_max_ratio=(200.0 if starved else 1e6,),
        group_size=(group or PAIRING_GROUP.get(experiment, 1),),
        initial_fill=0.0 if starved else 1.0,
    )
    return build_config(spec, grid_points(spec)[0])


@pytest.mark.parametrize("starved", [True, False], ids=["mismatch", "no_mismatch"])
@pytest.mark.parametrize("experiment", [f"fig{k}" for k in range(1, 7)])
def test_run_eh_pairs_with_reference_run(experiment, starved):
    cfg = sweep_config(experiment, starved)
    summary, (trace,) = capture(run_eh, cfg, [31])
    ref_summary, (ref_trace,) = capture(run_non_eh, cfg, [31])
    assert (summary.mismatch_union[0] > 0.0) == starved
    assert summary.non_eh_utility[0] == ref_summary.avg_utility[0]
    assert ref_summary.non_eh_utility[0] == ref_summary.avg_utility[0]
    n = cfg.n_slots
    assert summary.avg_utility[0] == math.fsum(trace.utility.tolist()) / n
    if not starved:
        assert np.array_equal(trace.utility, ref_trace.utility)


# ---------------------------------------------------------------------------
# trial batches


def trace_bits(trace):
    arrays = [trace.slots, trace.gains, trace.desired, trace.actual,
              trace.utility]
    for per_node in (trace.harvest, trace.levels):
        arrays += [per_node[node] for node in sorted(per_node)]
    return [np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays]


def traced(run, cfg, seeds):
    """Each trial's one-trial `Trials` with its walk's per-slot record, in
    seed order."""
    results, walks = capture(run, cfg, seeds)
    return list(zip(per_trial(results), walks))


def group_size(cfg):
    """Trials `run_eh` runs side by side: as many as fit in
    `CHUNK_SLOT_LINKS` slot-links, at least one."""
    return max(1, simulator.CHUNK_SLOT_LINKS // (cfg.n_slots * len(cfg.links)))


@pytest.mark.parametrize("starved", [True, False], ids=["mismatch", "no_mismatch"])
@pytest.mark.parametrize("experiment", [f"fig{k}" for k in range(1, 7)])
def test_batched_trials_equal_separate_runs(experiment, starved, monkeypatch):
    # A budget of 2^10 slot-links puts 17 of these 60-slot trials side by
    # side on one link, so a few dozen seeds make several groups.
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", 2 ** 10)
    cfg = sweep_config(experiment, starved)
    step = group_size(cfg)
    # one trial, two, just past the switch to the vectorised battery
    # loop, and enough seeds for three groups
    for size in (1, 2, VECTOR_LANES + 1, 2 * step + 1):
        seeds = list(range(100, 100 + size))
        results = traced(run_eh, cfg, seeds)
        assert len(results) == size
        for seed, (summary, trace) in zip(seeds, results):
            ((alone, alone_trace),) = traced(run_eh, cfg, [seed])
            assert bits(summary) == bits(alone)
            assert trace_bits(trace) == trace_bits(alone_trace)
        assert any(s.mismatch_union[0] > 0.0 for s, _ in results) == starved


def test_batch_mixing_trials_with_and_without_mismatch():
    # A small battery that starts full: some trials run dry, some do not,
    # so the batch evaluates the granted powers for trials that had no
    # mismatch too.
    cfg = single_link_config(n=40, power=1.0, capacity=4.0, initial_level=4.0)
    seeds = list(range(2 * VECTOR_LANES))
    trials = run_eh(cfg, seeds)
    assert 0 < (trials.mismatch_union > 0.0).sum() < len(seeds)
    assert bits(trials) == bits(joined(run_eh(cfg, [seed]) for seed in seeds))


def test_batch_delay_lines_restart_at_each_trial():
    # The chain utility never reads a delay line before its first slot, so
    # a delayed link under a utility that does: each trial's first slots
    # must see zero power, not the previous trial's last slots.
    cfg = replace(single_link_config(n=30, power=4.0, initial_level=1e3),
                  links=(LinkSpec(0, 1, ExponentialProcess(1.0), delay=3),))
    seeds = list(range(VECTOR_LANES + 1))
    assert bits(run_eh(cfg, seeds)) == bits(
        joined(run_eh(cfg, [seed]) for seed in seeds))


def test_a_run_needs_at_least_one_seed():
    # A config holds no seed: each run names its own, one trial each.
    cfg = single_link_config()
    for run in (run_eh, run_non_eh):
        with pytest.raises(TypeError):
            run(cfg)
        with pytest.raises(ValueError):
            run(cfg, seeds=[])
    assert bits(run_eh(cfg, seeds=[7])) == bits(run_eh(cfg, [7]))


# ---------------------------------------------------------------------------
# time chunks

# A budget under which every call is one group walked in one chunk.
UNCHUNKED = 2 ** 40


def assert_same_runs(got, want):
    assert len(got) == len(want)
    for (summary, trace), (summary0, trace0) in zip(got, want):
        assert bits(summary) == bits(summary0)
        assert trace_bits(trace) == trace_bits(trace0)


def eh_and_reference(cfg, seeds):
    return traced(run_eh, cfg, seeds) + traced(run_non_eh, cfg, seeds)


# Every bundled network, and a 4-hop chain whose delays of up to 3 slots
# outlast the 1-slot chunks of budgets 1 and 7.
CHUNKED_NETWORKS = [(f"fig{k}", None) for k in range(1, 7)] + [("fig6", 4)]


@pytest.mark.parametrize("starved", [True, False], ids=["mismatch", "no_mismatch"])
@pytest.mark.parametrize("experiment, group", CHUNKED_NETWORKS,
                         ids=[f"{e}-{g or 'default'}" for e, g in CHUNKED_NETWORKS])
def test_time_chunks_equal_unchunked_runs(experiment, group, starved,
                                          monkeypatch):
    cfg = sweep_config(experiment, starved, group)
    seeds = [100, 101, 102]
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)
    want = eh_and_reference(cfg, seeds)
    # 1-slot chunks, chunks of 7 // links slots, and 333 slot-links: one
    # trial at a time, in 333 // links slots, or several side by side
    for budget in (1, 7, 333):
        monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
        assert_same_runs(eh_and_reference(cfg, seeds), want)


def test_lanes_resume_from_their_own_levels_across_chunks(monkeypatch):
    # Trials side by side fit the budget whole, so a group of several
    # never chunks in time.  Here the group is formed under an unchunked
    # budget and walked under a small one: chunks of 1 and of 11 slots
    # for 2 * VECTOR_LANES lanes, each lane resuming from its own level.
    # A small battery that starts full runs dry in some trials only.
    cfg = single_link_config(n=40, power=1.0, capacity=4.0, initial_level=4.0)
    seeds = list(range(2 * VECTOR_LANES))
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)
    want = traced(run_eh, cfg, seeds)
    assert 0 < sum(s.mismatch_union[0] > 0.0 for s, _ in want) < len(seeds)
    walk = simulator._walk
    for budget in (7, 333):
        def walk_in_chunks(*args):
            monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
            try:
                return walk(*args)
            finally:
                monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)

        monkeypatch.setattr(simulator, "_walk", walk_in_chunks)
        assert_same_runs(traced(run_eh, cfg, seeds), want)


# ---------------------------------------------------------------------------
# a network of mixed node kinds


def mixed_network(n=40, policy=None):
    """No bundled network mixes node kinds, so this one does: node 0 has
    one link and an unbounded buffer that starts empty and fills well
    past node 2's size; node 1 broadcasts to two receivers; node 2 has
    one link and a small buffer that starts full and runs dry.  The
    single-link nodes' columns, 0 and 3, are not adjacent, and one link
    reads its powers a slot late."""
    return SimulationConfig(
        n_slots=n,
        transmitters=(
            TransmitterSpec(0, ExponentialProcess(1.0), ConstantPolicy(0.5)),
            TransmitterSpec(1, ExponentialProcess(1.0),
                            MaxGainBroadcastPolicy(0.5, 2),
                            capacity=4.0, initial_level=2.0),
            TransmitterSpec(2, ExponentialProcess(1.0),
                            policy or ConstantPolicy(1.5),
                            capacity=3.0, initial_level=3.0),
        ),
        links=(LinkSpec(0, 10, ExponentialProcess(1.0)),
               LinkSpec(1, 11, ExponentialProcess(1.0)),
               LinkSpec(1, 12, ExponentialProcess(1.0), delay=1),
               LinkSpec(2, 13, ExponentialProcess(2.0))),
        utility=BroadcastSumRateUtility(4),
    )


def assert_grants_match_stepwise_primitives(cfg, trace):
    for t in cfg.transmitters:
        cols = [i for i, link in enumerate(cfg.links) if link.tx == t.node]
        state = BatteryState(t.initial_level, t.capacity)
        for i in range(cfg.n_slots):
            got, state = extract_many(state, trace.desired[i, cols].tolist())
            state = deposit(state, float(trace.harvest[t.node][i]))
            assert (np.array(got).tobytes()
                    == trace.actual[i, cols].copy().tobytes())
            assert (np.float64(state.level).tobytes()
                    == trace.levels[t.node][i].tobytes())


# Trials side by side, so that their 2 single-link lanes each come to
# fewer than VECTOR_LANES (each lane walks) or to at least as many (all
# step together).
MIXED_GROUPS = [3, VECTOR_LANES]


@pytest.mark.parametrize("trials", MIXED_GROUPS)
def test_mixed_network_batched_equals_alone(trials, monkeypatch):
    cfg = mixed_network()
    seeds = list(range(200, 200 + trials))
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)
    alone = [eh_and_reference(cfg, [seed]) for seed in seeds]
    want = [eh for eh, _ in alone] + [reference for _, reference in alone]
    got = eh_and_reference(cfg, seeds)
    assert_same_runs(got, want)
    for summary, trace in got[:trials]:
        assert_grants_match_stepwise_primitives(cfg, trace)
        assert summary.mismatch_fraction[0, 2] > 0.0  # node 2 runs dry
        assert (trace.levels[2] == 3.0).any()  # and clips at its size
        assert trace.levels[0].max() > 3.0  # node 0 fills past it
    # Budgets of 1 and 7 slot-links walk one trial at a time in 1-slot
    # chunks, and 333 two at a time; the group formed whole, walked in
    # chunks of 1 slot or 333 // (trials * 4), resumes each lane from its
    # own level.
    walk = simulator._walk
    for budget in (1, 7, 333):
        monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
        assert_same_runs(eh_and_reference(cfg, seeds), want)

        def walk_in_chunks(*args, budget=budget):
            monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
            try:
                return walk(*args)
            finally:
                monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)

        monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)
        monkeypatch.setattr(simulator, "_walk", walk_in_chunks)
        assert_same_runs(traced(run_eh, cfg, seeds), want[:trials])
        monkeypatch.setattr(simulator, "_walk", walk)


def spy_battery(monkeypatch):
    """Per `_battery` call (one per chunk), the lanes of its trials and
    the shapes and capacities of its `trajectory` calls, and how many
    single-buffer walks those made."""
    chunks = []
    calls = mock.Mock(wraps=battery.trajectory)
    walks = mock.Mock(wraps=battery._single_link)
    run = simulator._battery

    def counting_battery(*args):
        calls.reset_mock()
        walks.reset_mock()
        trials = args[-2].shape[1]  # `levels`: nodes by trials
        out = run(*args)
        chunks.append((trials,
                       [(np.shape(c.args[0]), np.shape(c.args[1]),
                         np.array(c.kwargs["capacity"]).tolist())
                        for c in calls.call_args_list],
                       walks.call_count))
        return out

    monkeypatch.setattr(simulator, "_battery", counting_battery)
    monkeypatch.setattr(battery, "trajectory", calls)
    monkeypatch.setattr(battery, "_single_link", walks)
    return chunks


@pytest.mark.parametrize("trials", MIXED_GROUPS)
@pytest.mark.parametrize("budget", [UNCHUNKED, 100],
                         ids=["unchunked", "budget_100"])
def test_one_trajectory_call_per_chunk_for_all_single_link_nodes(
        trials, budget, monkeypatch):
    # Per chunk: one call for both single-link nodes, node 0's lanes
    # first, each with its own capacity; then one call per trial for the
    # broadcast node.  Lanes below VECTOR_LANES walk one by one.  A budget
    # of 100 slot-links walks each trial alone in chunks of 25 slots.
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
    chunks = spy_battery(monkeypatch)
    run_eh(mixed_network(), seeds=range(trials))
    sizes = []
    for k, calls, walks in chunks:
        m = calls[0][0][0]
        assert calls == ([((m, 2 * k), (m, 2 * k), [math.inf] * k + [3.0] * k)]
                         + [((m, 2), (m,), 4.0)] * k)
        assert walks == (k if 2 * k >= VECTOR_LANES else 3 * k)
        sizes.append((k, m))
    if budget == UNCHUNKED:
        assert sizes == [(trials, 40)]
    else:
        assert sizes == [(1, 25), (1, 15)] * trials


def test_fig5_senders_step_in_one_call_per_group(monkeypatch):
    # fig5's 5 senders, 200 trials of 100 slots: groups of 65, 65, 65 and
    # 5 trials, each one chunk, so 4 `trajectory` calls, not 4 x 5; the
    # last group's 25 lanes step together too.
    spec = replace(default_spec("fig5"), p_in_db=(10.0,), n_slots=(100,),
                   group_size=(5,))
    cfg = build_config(spec, grid_points(spec)[0])
    chunks = spy_battery(monkeypatch)
    run_eh(cfg, seeds=range(200))
    capacity = cfg.transmitters[0].capacity
    assert [(k, len(calls), walks) for k, calls, walks in chunks] == [
        (65, 1, 0), (65, 1, 0), (65, 1, 0), (5, 1, 0)]
    for k, [(want, harv, sizes)], _ in chunks:
        assert want == harv == (100, 5 * k)
        assert sizes == [capacity] * (5 * k)


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf],
                         ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("seeds", [[0], list(range(VECTOR_LANES))],
                         ids=["alone", "group"])
def test_bad_request_of_one_node_names_it(seeds, value):
    class Bad:
        num_links = 1

        def desired_powers(self, slots, gains):
            out = np.ones((len(slots), 1))
            out[len(slots) // 2] = value
            return out

    cfg = mixed_network(policy=Bad())
    with pytest.raises(NumericsError) as err:
        run_eh(cfg, seeds=seeds)
    assert str(err.value) == ("policy of node 2 requested negative or "
                              "non-finite power")


# An unbounded single-link run whose harvest sum overflows a float.
OVERFLOWING_RUN = single_link_config(n=400, power=1.0, harvest_mean=1e306)


def test_unbounded_level_that_overflows_resumes_in_the_next_chunk(
        monkeypatch):
    # A harvest of mean 1e306 overflows an unbounded level to inf within
    # a few hundred slots; later chunks resume from inf.
    cfg = OVERFLOWING_RUN
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)
    want = traced(run_eh, cfg, [3])
    assert math.isinf(want[0][0].final_level[0, 0])
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", 7)
    assert_same_runs(traced(run_eh, cfg, [3]), want)


def test_summary_of_an_overflowing_run_prints_and_compares():
    # The harvest of this run sums past the float range, and its `Trials`
    # holds only what the walk computed, so printing or comparing it runs
    # nothing and sums nothing.
    trials = run_eh(OVERFLOWING_RUN, [3])
    assert repr(trials).startswith("Trials(n_slots=400, nodes=(0,), ")
    assert bits(trials) == bits(run_eh(OVERFLOWING_RUN, [3]))


def test_batch_equality_example_runs_each_trial_once(monkeypatch):
    # The README's example: one batch of three, then three single runs.
    cfg = SimulationConfig(
        n_slots=10_000,
        transmitters=(TransmitterSpec(node=0, harvest=ExponentialProcess(1.0),
                                      policy=ConstantPolicy(1.0),
                                      capacity=200.0),),
        links=(LinkSpec(tx=0, rx=1, fading=ExponentialProcess(1.0)),),
        utility=OutageUtility(1.0),
    )
    runs = []
    run = simulator._run

    def counting_run(*args):
        runs.append(args[1])
        return run(*args)

    monkeypatch.setattr(simulator, "_run", counting_run)
    trials = run_eh(cfg, [1, 2, 3])
    for j, s in enumerate((1, 2, 3)):
        assert trials.avg_utility[j] == run_eh(cfg, [s]).avg_utility[0]
    assert runs == [[1, 2, 3], [1], [2], [3]]


def test_eight_hop_chain_grants_match_stepwise_primitives():
    # Each node's column of an 8-link request matrix has a stride of 64
    # bytes, which numpy 2.4's `negative` misread in the single-link walk.
    spec = replace(default_spec("fig6"), p_in_db=(0.0,), n_slots=(300,),
                   b_max_ratio=(5.0,), group_size=(8,), initial_fill=0.0)
    cfg = build_config(spec, grid_points(spec)[0])
    summary, (trace,) = capture(run_eh, cfg, [5])
    assert summary.mismatch_union[0] > 0.0
    for col, t in enumerate(cfg.transmitters):
        state = BatteryState(t.initial_level, t.capacity)
        for i in range(cfg.n_slots):
            got, state = extract(state, float(trace.desired[i, col]))
            state = deposit(state, float(trace.harvest[t.node][i]))
            assert got == trace.actual[i, col]
            assert state.level == trace.levels[t.node][i]


def test_broadcast_grants_match_stepwise_primitives():
    # fig4's transmitter asks one of its 25 receivers per slot, so its
    # buffer takes the walk.  This one starts empty, holds five mean
    # harvests and runs two chunks (1310 and 190 slots), so it runs dry,
    # fills up and resumes across the chunk boundary.
    spec = replace(default_spec("fig4"), p_in_db=(5.0,), n_slots=(1500,),
                   b_max_ratio=(5.0,), group_size=(25,), initial_fill=0.0)
    cfg = build_config(spec, grid_points(spec)[0])
    (t,) = cfg.transmitters
    with mock.patch.object(battery, "_single_link",
                           wraps=battery._single_link) as walk:
        run_eh(cfg, [9])
    # One entry per slot of each chunk, and the chunk's harvest row read
    # where it lies.
    assert [len(c.args[0]) for c in walk.call_args_list] == [1310, 190]
    assert not any(c.args[1].flags.owndata for c in walk.call_args_list)
    summary, (trace,) = capture(run_eh, cfg, [9])
    assert summary.mismatch_union[0] > 0.0
    assert (trace.levels[t.node] == t.capacity).any()
    state = BatteryState(t.initial_level, t.capacity)
    for i in range(cfg.n_slots):
        got, state = extract_many(state, trace.desired[i].tolist())
        state = deposit(state, float(trace.harvest[t.node][i]))
        assert np.array(got).tobytes() == trace.actual[i].tobytes()
        assert (np.float64(state.level).tobytes()
                == trace.levels[t.node][i].tobytes())


def per_node_recipe(cfg, seed, t):
    """README's per-node recipe: node `t`'s harvests, grants and levels
    on `seed` from its own streams, its policy and `battery.trajectory`."""
    n = cfg.n_slots
    links = [link for link in cfg.links if link.tx == t.node]
    gains = np.column_stack([
        link.fading.sample(stochastic.Stream(seed, (1, link.tx, link.rx)), n)
        for link in links])
    harvest = t.harvest.sample(stochastic.Stream(seed, (0, t.node, 0)), n)
    desired = t.policy.desired_powers(np.arange(1, n + 1), gains)
    actual, levels = battery.trajectory(desired, harvest, capacity=t.capacity,
                                        initial=t.initial_level)
    return harvest, actual, levels


@pytest.mark.parametrize("experiment, group", [("fig4", 25), ("fig5", 5)])
def test_per_node_recipe_equals_the_walk(experiment, group):
    # Both start empty, so grants clip.  fig4's one node asks its 25 links
    # in the multi-link branch, in chunks of 1310 and 190 slots; fig5's 5
    # senders of both trials step as 10 lanes of one call.
    spec = replace(default_spec(experiment), p_in_db=(5.0,), n_slots=(1500,),
                   b_max_ratio=(5.0,), group_size=(group,), initial_fill=0.0)
    cfg = build_config(spec, grid_points(spec)[0])
    seeds = [21, 22]
    trials, walks = capture(run_eh, cfg, seeds)
    assert (trials.mismatch_union > 0.0).all()
    for seed, walk in zip(seeds, walks):
        for t in cfg.transmitters:
            cols = [c for c, link in enumerate(cfg.links) if link.tx == t.node]
            harvest, actual, levels = per_node_recipe(cfg, seed, t)
            assert harvest.tobytes() == walk.harvest[t.node].tobytes()
            assert actual.tobytes() == walk.actual[:, cols].tobytes()
            assert levels.tobytes() == walk.levels[t.node].tobytes()


def test_walk_chunk_sizes_follow_the_budget(monkeypatch):
    # One 5000-slot trial on 25 links fills 2^15 slot-links in 1310 slots.
    spec = replace(default_spec("fig4"), p_in_db=(10.0,), n_slots=(5000,),
                   group_size=(25,))
    cfg = build_config(spec, grid_points(spec)[0])
    sizes = []
    sample = simulator._sample_chunk

    def counting_sample(config, streams, m, *args):
        # One `Stream` per process run: the harvest, then all 25 fadings,
        # each with one lane per key and trial of the group.
        sizes.append(([stream.shape for stream in streams], m))
        return sample(config, streams, m, *args)

    monkeypatch.setattr(simulator, "_sample_chunk", counting_sample)
    run_eh(cfg, seeds=[1, 2])
    assert simulator.CHUNK_SLOT_LINKS == 2 ** 15
    shapes = [(1, 1), (25, 1)]
    assert sizes == ([(shapes, 1310)] * 3 + [(shapes, 1070)]) * 2


def test_one_stream_per_process_run_per_trial_group(monkeypatch):
    # fig5's network with 5 senders has 10 stream keys (5 harvests, 5
    # fadings) in two process runs: the senders share one harvest process
    # and the links one fading process.  200 trials of 100 slots on 5
    # links run in groups of 65, 65, 65 and 5 (CHUNK_SLOT_LINKS = 2^15),
    # so the call builds one `Stream` per run per group, 2 x 4, not one
    # per key per group (10 x 4) or per key per trial.
    spec = replace(default_spec("fig5"), p_in_db=(10.0,), n_slots=(100,),
                   group_size=(5,))
    cfg = build_config(spec, grid_points(spec)[0])
    assert len(cfg.transmitters) == len(cfg.links) == 5
    built = []
    init = stochastic.Stream.__init__

    def counting_init(self, seed, key, state=None):
        init(self, seed, key, state)
        built.append(self.shape)

    monkeypatch.setattr(stochastic.Stream, "__init__", counting_init)
    run_eh(cfg, seeds=range(200))
    assert built == [(5, 65)] * 6 + [(5, 5)] * 2


def test_one_sample_call_per_process_run_per_chunk(monkeypatch):
    # fig4's transmitter has one harvest key and its 25 links share one
    # fading process: each chunk makes 2 `sample` calls, not 26.
    spec = replace(default_spec("fig4"), p_in_db=(10.0,), n_slots=(3000,),
                   group_size=(25,))
    cfg = build_config(spec, grid_points(spec)[0])
    calls = []
    sample = ExponentialProcess.sample

    def counting_sample(self, stream, n, out=None):
        calls.append((stream.shape, n))
        return sample(self, stream, n, out)

    monkeypatch.setattr(ExponentialProcess, "sample", counting_sample)
    trials = run_eh(cfg, seeds=[1, 2])
    chunk = [((1, 1), 1310), ((25, 1), 1310)]
    assert calls == (chunk * 2 + [((1, 1), 380), ((25, 1), 380)]) * 2
    monkeypatch.setattr(ExponentialProcess, "sample", sample)
    assert bits(trials) == bits(joined(run_eh(cfg, [s]) for s in (1, 2)))


def alternating_network(n=60):
    """Five single-link senders whose harvest means run 1, 1, 1, 0.5, 0.5
    and fading means 1, 1, 2, 2, 1, then a broadcaster with the senders'
    last harvest mean and fading means 1, 2: harvest runs of 3 nodes and
    of 3 (nodes 4 and 5 and the broadcaster), and fading runs of 2, 2, 2
    and 1 links."""
    senders = [(1, 1.0, 1.0), (2, 1.0, 1.0), (3, 1.0, 2.0), (4, 0.5, 2.0),
               (5, 0.5, 1.0)]
    transmitters = tuple(
        TransmitterSpec(node, ExponentialProcess(h), ConstantPolicy(0.8),
                        capacity=3.0, initial_level=1.5)
        for node, h, _ in senders) + (
        TransmitterSpec(6, ExponentialProcess(0.5),
                        MaxGainBroadcastPolicy(0.6, 2), capacity=4.0),)
    links = tuple(LinkSpec(node, 10, ExponentialProcess(g))
                  for node, _, g in senders) + (
        LinkSpec(6, 11, ExponentialProcess(1.0)),
        LinkSpec(6, 12, ExponentialProcess(2.0), delay=1))
    return SimulationConfig(n_slots=n, transmitters=transmitters, links=links,
                            utility=BroadcastSumRateUtility(7))


def assert_draws_of_own_streams(cfg, seed, trace):
    """Each node's harvests and each link's gains are what that key's
    stream draws alone."""
    n = cfg.n_slots
    for t in cfg.transmitters:
        want = t.harvest.sample(stochastic.Stream(seed, (0, t.node, 0)), n)
        assert trace.harvest[t.node].tobytes() == want.tobytes()
    for col, link in enumerate(cfg.links):
        want = link.fading.sample(
            stochastic.Stream(seed, (1, link.tx, link.rx)), n)
        assert trace.gains[:, col].tobytes() == want.tobytes()


def test_alternating_processes_draw_in_runs_equal_to_separate_streams(
        monkeypatch):
    cfg = alternating_network()
    # Six harvest keys, then seven fading keys: no run crosses, since the
    # last harvest mean is 0.5 and the first fading mean 1.
    keys, _, runs = simulator._draw_runs(cfg)
    assert [key[0] for key in keys] == [0] * 6 + [1] * 7
    assert runs == [(ExponentialProcess(mean), start, stop)
                    for mean, start, stop in [
                        (1.0, 0, 3), (0.5, 3, 6), (1.0, 6, 8), (2.0, 8, 10),
                        (1.0, 10, 12), (2.0, 12, 13)]]
    seeds = [30, 31, 32, 33]
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)
    want = eh_and_reference(cfg, seeds)
    assert any(summary.mismatch_union[0] > 0.0 for summary, _ in want)
    for seed, (_, trace) in zip(seeds * 2, want):
        assert_draws_of_own_streams(cfg, seed, trace)
    alone = [eh_and_reference(cfg, [seed]) for seed in seeds]
    assert_same_runs(want, [eh for eh, _ in alone] + [ref for _, ref in alone])
    # One trial at a time in chunks of 1, 7 and 47 slots; then all four
    # side by side, as grouped unchunked, in chunks of 333 // (4 * 7) = 11.
    walk = simulator._walk
    for budget in (1, 49, 333, None):
        if budget is None:
            def walk_in_chunks(*args):
                monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", 333)
                try:
                    return walk(*args)
                finally:
                    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS",
                                        UNCHUNKED)

            monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)
            monkeypatch.setattr(simulator, "_walk", walk_in_chunks)
        else:
            monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
        got = eh_and_reference(cfg, seeds)
        for seed, (_, trace) in zip(seeds * 2, got):
            assert_draws_of_own_streams(cfg, seed, trace)
        assert_same_runs(got, want)


def test_a_run_crosses_from_the_harvests_into_the_fadings(monkeypatch):
    # The node's harvest and its link's fading are both Exp(1): one run of
    # two keys, drawn in one `sample` call per chunk.
    cfg = single_link_config(n=50, capacity=2.0, initial_level=1.0)
    keys, _, runs = simulator._draw_runs(cfg)
    assert keys == ((0, 0, 0), (1, 0, 1))
    assert runs == [(ExponentialProcess(1.0), 0, 2)]
    calls = []
    sample = ExponentialProcess.sample

    def counting_sample(self, stream, n, out=None):
        calls.append((stream.shape, n))
        return sample(self, stream, n, out)

    monkeypatch.setattr(ExponentialProcess, "sample", counting_sample)
    seeds = [4, 5]
    run_eh(cfg, seeds)
    assert calls == [((2, 2), 50)]
    monkeypatch.setattr(ExponentialProcess, "sample", sample)
    trials, traces = capture(run_eh, cfg, seeds)
    assert (trials.mismatch_union > 0.0).any()
    for seed, trace in zip(seeds, traces):
        assert_draws_of_own_streams(cfg, seed, trace)
    # A bad fading in the run is named as the link's.
    process = BadKey(1, -1.0)
    cfg = replace(cfg, transmitters=(replace(cfg.transmitters[0],
                                             harvest=process),),
                  links=(replace(cfg.links[0], fading=process),))
    with pytest.raises(NumericsError) as err:
        run_eh(cfg, [0])
    assert str(err.value) == ("fading process for link 0->1 drew a negative "
                              "or non-finite gain")
    assert process.shapes == [(2, 1)]


# ---------------------------------------------------------------------------
# the slot-by-slot reference run

# A short run of each bundled experiment, started empty (its requests go
# unmet) or from a huge full battery; the 4-hop chain, whose delays of up
# to 3 slots outlast 1-slot chunks; and the mixed and alternating networks.
REFERENCE_NETWORKS = {
    **{f"fig{k}-{'starved' if starved else 'full'}":
       partial(sweep_config, f"fig{k}", starved)
       for k in range(1, 7) for starved in (True, False)},
    "fig6-4hops": partial(sweep_config, "fig6", True, 4),
    "mixed": mixed_network,
    "alternating": alternating_network,
}


@pytest.mark.parametrize("network", sorted(REFERENCE_NETWORKS))
def test_runs_equal_the_slot_by_slot_reference_run(network, monkeypatch):
    cfg = REFERENCE_NETWORKS[network]()
    seeds = [100, 101, 102]
    want = joined(reference_run(cfg, seed) for seed in seeds)
    want_non_eh = joined(reference_run(cfg, seed, with_battery=False)
                         for seed in seeds)
    assert (want.mismatch_union > 0.0).any() == (
        not network.endswith("full"))

    def check(got, want=want):
        assert bits(got) == bits(want)

    # 1-slot chunks, 7 // links slots, and 333 slot-links: one trial at a
    # time in short chunks, or several side by side
    for budget in (1, 7, 333, UNCHUNKED):
        monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
        check(run_eh(cfg, seeds))
        check(run_non_eh(cfg, seeds), want_non_eh)
    # All three side by side, as grouped unchunked, in chunks of 1 slot
    # and of 333 // (3 * links) slots: lanes resume mid-run.
    walk = simulator._walk
    for budget in (1, 333):
        def walk_in_chunks(*args, budget=budget):
            monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
            try:
                return walk(*args)
            finally:
                monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)

        monkeypatch.setattr(simulator, "_walk", walk_in_chunks)
        check(run_eh(cfg, seeds))
    monkeypatch.setattr(simulator, "_walk", walk)


class WeightedLinkSum:
    """A utility over any link count: sum over columns c of
    ``(c + 1) * p * g / (1 + p)``, by plain IEEE arithmetic, so that
    swapping two columns or pairing a power with another slot's gain
    changes it."""

    num_links = None

    def evaluate(self, slots, powers, gains):
        total = np.zeros(len(slots))
        for c in range(powers.shape[1]):
            p = powers[:, c]
            total += (c + 1) * (p * gains[:, c] / (1.0 + p))
        return total


# Few enough processes that neighbours often compare equal and draw as one
# run, across the harvests and the fadings too.
RANDOM_PROCESSES = [ExponentialProcess(0.5), ExponentialProcess(1.0),
                    ExponentialProcess(2.0), ConstantProcess(0.0),
                    ConstantProcess(1.0)]


@st.composite
def random_network(draw):
    """A `SimulationConfig` of 1-4 transmitters with 1-3 links each,
    delays of 0-3 slots, small or infinite buffers started anywhere in
    them, and policies of every kind from `ehnet.policies`."""
    n = draw(st.integers(1, 60))
    process = st.sampled_from(RANDOM_PROCESSES)
    power = st.sampled_from([0.0, 0.3, 1.0, 2.5])
    transmitters, links = [], []
    for node in draw(st.permutations(range(draw(st.integers(1, 4))))):
        count = draw(st.integers(1, 3))
        if count == 1:
            policy = draw(st.one_of(
                st.builds(ConstantPolicy, power),
                st.builds(WaterfillPolicy,
                          st.builds(AmplifierModel, st.sampled_from([1.0, 2.0]),
                                    st.sampled_from([0.0, 0.2])),
                          st.sampled_from([0.5, 1.0])),
                st.builds(AlternatingRelayPolicy, st.integers(0, 1), power)))
        else:
            policy = draw(st.one_of(
                st.builds(ConstantPolicy, power, st.just(count)),
                st.builds(MaxGainBroadcastPolicy, st.sampled_from([0.3, 1.0]),
                          st.just(count))))
        capacity = draw(st.sampled_from([0.5, 1.0, 3.0, math.inf]))
        level = draw(st.floats(0.0, min(capacity, 5.0)))
        transmitters.append(TransmitterSpec(node, draw(process), policy,
                                            capacity=capacity,
                                            initial_level=level))
        links += [LinkSpec(node, 10 + j, draw(process),
                           delay=draw(st.integers(0, min(3, n))))
                  for j in range(count)]
    return SimulationConfig(n_slots=n, transmitters=tuple(transmitters),
                            links=tuple(links), utility=WeightedLinkSum())


@given(random_network(),
       # 1-20 consecutive seeds: with a few single-link nodes side by side
       # the lanes reach `VECTOR_LANES`.
       st.builds(lambda first, count: list(range(first, first + count)),
                 st.integers(0, 2 ** 32), st.integers(1, 20)),
       st.sampled_from([1, 7, 333, 2 ** 15]))
@settings(max_examples=60, deadline=None)
def test_random_networks_equal_the_slot_by_slot_reference_run(cfg, seeds,
                                                              budget):
    with mock.patch.object(simulator, "CHUNK_SLOT_LINKS", budget):
        got = run_eh(cfg, seeds)
        got_non_eh = run_non_eh(cfg, seeds)
    assert bits(got) == bits(joined(reference_run(cfg, seed)
                                    for seed in seeds))
    assert bits(got_non_eh) == bits(joined(
        reference_run(cfg, seed, with_battery=False) for seed in seeds))


# A starved network, one that mixes node kinds, and a relay chain.
TRIALS_NETWORKS = ["fig1-starved", "mixed", "fig6-4hops"]


@pytest.mark.parametrize("traces", [False, True], ids=["summary", "trace"])
@pytest.mark.parametrize("network", TRIALS_NETWORKS)
def test_trials_entry_j_is_the_run_on_seed_j(network, traces, monkeypatch):
    # A budget of 2^10 slot-links splits the seeds into three groups, whose
    # columns `Trials` joins, and whose walks the trace case compares.
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", 2 ** 10)
    cfg = REFERENCE_NETWORKS[network]()
    seeds = list(range(100, 100 + 2 * group_size(cfg) + 1))
    trials = run_eh(cfg, seeds)
    assert isinstance(trials, Trials)
    alone = [run_eh(cfg, [seed]) for seed in seeds]
    if traces:
        for (got, trace), seed in zip(traced(run_eh, cfg, seeds), seeds):
            ((want, want_trace),) = traced(run_eh, cfg, [seed])
            assert trace_bits(trace) == trace_bits(want_trace)
            assert bits(got) == bits(want)
    # Entry j of every column is the run on seed j alone, per node in
    # config order.
    assert trials.nodes == tuple(t.node for t in cfg.transmitters)
    for got, want in zip(per_trial(trials), alone):
        assert bits(got) == bits(want)
    assert bits(trials) == bits(joined(alone))
    assert (trials.mismatch_union > 0.0).any()


def test_trials_hold_a_column_per_summary_field_and_compare_by_identity():
    cfg = REFERENCE_NETWORKS["mixed"]()
    trials = run_eh(cfg, seeds=[1, 2])
    assert [f.name for f in fields(trials)] == [
        "n_slots", "nodes", "avg_utility", "non_eh_utility",
        "mismatch_fraction", "mismatch_union", "final_level"]
    assert [np.shape(getattr(trials, f.name)) for f in fields(trials)[2:]] == [
        (2,), (2,), (2, 3), (2,), (2, 3)]
    # Equal columns do not make equal results: a generated `__eq__` would
    # compare arrays, whose truth value is ambiguous.
    again = run_eh(cfg, seeds=[1, 2])
    assert trials == trials and trials != again and len({trials, again}) == 2
    assert repr(trials).startswith(
        f"Trials(n_slots={cfg.n_slots}, nodes=(0, 1, 2), avg_utility=array(")


class WrongShape:
    """A process whose draws come in `shape(lanes, n)` instead of the
    (lanes, n) block asked for."""

    def __init__(self, shape):
        self.shape = shape

    def sample(self, stream, n, out=None):
        return np.ones(self.shape(stream.shape, n))


@pytest.mark.parametrize("seeds", [[0], [0, 1, 2]], ids=["alone", "group"])
@pytest.mark.parametrize("shape", [lambda lanes, n: lanes + (n + 1,),
                                   lambda lanes, n: (n,)],
                         ids=["long", "one_lane"])
@pytest.mark.parametrize("role", ["harvest", "fading"])
def test_processes_of_the_wrong_shape_raise_numerics_error(role, shape,
                                                           seeds):
    cfg = single_link_config(n=20)
    if role == "harvest":
        cfg = replace(cfg, transmitters=(replace(
            cfg.transmitters[0], harvest=WrongShape(shape)),))
        want = "harvest process for node 0 returned shape ("
    else:
        cfg = replace(cfg, links=(replace(cfg.links[0],
                                          fading=WrongShape(shape)),))
        want = "fading process for link 0->1 returned shape ("
    with pytest.raises(NumericsError) as err:
        run_eh(cfg, seeds=seeds)
    assert str(err.value).startswith(want)
    assert "\n" not in str(err.value)


class Drawing:
    """A process that draws `value` in every slot of every lane."""

    def __init__(self, value):
        self.value = value

    def sample(self, stream, n, out=None):
        return np.full(stream.shape + (n,), self.value)


@pytest.mark.parametrize("run", [
    partial(run_eh, seeds=[0]), partial(run_eh, seeds=[0, 1, 2]),
    partial(run_non_eh, seeds=[0]),
], ids=["alone", "group", "non_eh"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf],
                         ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("role", ["harvest", "fading"])
def test_bad_draws_raise_numerics_error(role, value, run):
    # The reference system never runs the battery, so the draws are
    # checked where they are drawn.
    cfg = single_link_config(n=20)
    if role == "harvest":
        cfg = replace(cfg, transmitters=(replace(
            cfg.transmitters[0], harvest=Drawing(value)),))
        want = "harvest process for node 0 drew a negative or non-finite power"
    else:
        cfg = replace(cfg, links=(replace(cfg.links[0],
                                          fading=Drawing(value)),))
        want = "fading process for link 0->1 drew a negative or non-finite gain"
    with pytest.raises(NumericsError) as err:
        run(cfg)
    assert str(err.value) == want


class BadKey:
    """A process whose block is 1.0 except key `row`, which draws
    `value`; every key of its run shares this one instance."""

    def __init__(self, row, value):
        self.row, self.value = row, value
        self.shapes = []

    def sample(self, stream, n, out=None):
        self.shapes.append(stream.shape)
        draws = np.ones(stream.shape + (n,))
        draws[self.row] = self.value
        return draws


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf],
                         ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("role", ["harvest", "fading"])
def test_bad_draw_in_a_run_names_its_key(role, value):
    # fig5's three senders (nodes 1-3, sink 4) share one process, so each
    # role draws one block, whose second key is bad.
    spec = replace(default_spec("fig5"), p_in_db=(0.0,), n_slots=(20,),
                   group_size=(3,))
    cfg = build_config(spec, grid_points(spec)[0])
    process = BadKey(1, value)
    if role == "harvest":
        cfg = replace(cfg, transmitters=tuple(
            replace(t, harvest=process) for t in cfg.transmitters))
        want = "harvest process for node 2 drew a negative or non-finite power"
    else:
        cfg = replace(cfg, links=tuple(
            replace(link, fading=process) for link in cfg.links))
        want = "fading process for link 2->4 drew a negative or non-finite gain"
    with pytest.raises(NumericsError) as err:
        run_eh(cfg, seeds=[0, 1])
    assert str(err.value) == want
    assert process.shapes == [(3, 2)]


def test_long_wide_run_holds_bounded_memory():
    # fig4's 25-link network for 10^5 slots: 2.5 million slot-links, whose
    # per-slot arrays take 20 MB each.  The walk holds a chunk of them at
    # a time, and the summary keeps only floats.
    spec = replace(default_spec("fig4"), p_in_db=(10.0,), n_slots=(10**5,),
                   group_size=(25,))
    cfg = build_config(spec, grid_points(spec)[0])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = run_eh(cfg, [7])
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.mismatch_union[0] >= 0.0
    assert peak - before < 16 * 2**20
    assert kept - before < 2**20


def test_million_slot_run_holds_no_whole_run_rows():
    # Each trial's utilities go into exact partial sums chunk by chunk.
    # Summed by `math.fsum` over whole-run rows, this run held two 8 MB
    # rows of utilities and their `tolist()`, and peaked at 47 MB.
    cfg = single_link_config(n=10**6, power=1.0, harvest_mean=1.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = run_eh(cfg, [4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.mismatch_union[0] > 0.0  # both systems' sums are kept
    assert peak - before < 6 * 2**20


# ---------------------------------------------------------------------------
# exact slot sums


def fsum_or_exact(row):
    """`math.fsum(row)`; where it overflows in between, the exact sum
    correctly rounded; None where that sum is past the float range."""
    try:
        return math.fsum(row)
    except OverflowError:
        try:
            return float(sum(map(Fraction, row)))
        except OverflowError:
            return None


summand_rows = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    st.lists(st.floats(min_value=-1e-300, max_value=1e-300)),
    st.lists(st.sampled_from([0.0, 1.0])),
    st.lists(st.just(-0.0)),
    st.lists(st.sampled_from([0.0, -0.0, 1.5e308, -1.5e308])),
)


@given(st.integers(1, 60), st.lists(summand_rows, min_size=1, max_size=4),
       st.lists(st.integers(0, 60)))
@settings(max_examples=300, deadline=None)
def test_exact_sums_over_any_chunk_split_match_fsum(n, drawn, cuts):
    rows = np.array([(row * n)[:n] if row else [0.0] * n for row in drawn])
    sums = simulator._ExactSums(len(rows))
    bounds = sorted({0, n, *(c for c in cuts if c <= n)})
    for start, stop in zip(bounds, bounds[1:]):
        sums.add(rows[:, start:stop])
    want = [fsum_or_exact(row.tolist()) for row in rows]
    if None in want:
        with pytest.raises(NumericsError):
            sums.means(n)
        return
    got = sums.means(n)
    assert (np.array(got).tobytes()
            == np.array([total / n for total in want]).tobytes())


@pytest.mark.parametrize("mark_last", [True, False], ids=["last", "means"])
@pytest.mark.parametrize("budget", [1, 12, 40, 2 ** 15])
def test_exact_sums_hold_small_chunks_until_a_flush(budget, mark_last,
                                                    monkeypatch):
    # 3-slot chunks of 2 trials, 6 values each, come in one buffer that
    # the caller refills, as the walk's scratch arrays are.  A budget of
    # 12 splits every two chunks, 40 every seven, 2^15 once at the end.
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((2, 50)) * 10.0 ** rng.integers(-8, 8, (2, 50))
    sums = simulator._ExactSums(2)
    buffer = np.empty((2, 3))
    for start in range(0, 50, 3):
        stop = min(50, start + 3)
        chunk = buffer[:, :stop - start]
        chunk[:] = rows[:, start:stop]
        sums.add(chunk, last=mark_last and stop == 50)
        buffer.fill(np.nan)
    want = [math.fsum(row) / 50 for row in rows.tolist()]
    assert (np.array(sums.means(50)).tobytes()
            == np.array(want).tobytes())


class FirstGain:
    """A utility that returns a view of its input: the first gain column,
    which lives in memory the walk reuses for the next chunk."""

    num_links = None

    def evaluate(self, slots, powers, gains):
        return gains[:, 0]


def test_utility_that_returns_a_view_sums_what_it_returned():
    # fig4's 25 links walk 5000 slots in 1310-slot chunks, whose utilities
    # are held until the last one.
    spec = replace(default_spec("fig4"), p_in_db=(10.0,), n_slots=(5000,),
                   group_size=(25,))
    cfg = replace(build_config(spec, grid_points(spec)[0]),
                  utility=FirstGain())
    summary, (trace,) = capture(run_eh, cfg, [3])
    want = math.fsum(trace.gains[:, 0].tolist()) / 5000
    assert summary.avg_utility[0] == summary.non_eh_utility[0] == want
    assert math.fsum(trace.utility.tolist()) / 5000 == want


class SlotUtility:
    """A library utility whose value depends on the slot number only."""

    def __init__(self, odd, even):
        self.odd, self.even = odd, even

    def evaluate(self, slots, powers, gains):
        return np.where(np.asarray(slots) % 2 == 1, self.odd, self.even)


def test_utilities_near_the_float_maximum_average_exactly(monkeypatch):
    # Each chunk of these values is summed as integers, where the usual
    # split would overflow; fsum takes the whole row in one go.
    cfg = replace(single_link_config(n=401, power=1.0, harvest_mean=0.5),
                  utility=SlotUtility(1.5e308, -1.5e308))
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", 7)
    summary, (trace,) = capture(run_eh, cfg, [0])
    assert summary.mismatch_union[0] > 0.0
    assert summary.avg_utility[0] == math.fsum(trace.utility.tolist()) / 401
    assert (summary.avg_utility[0] == summary.non_eh_utility[0]
            == 1.5e308 / 401)


def test_utilities_summed_past_the_float_range_raise_numerics_error():
    cfg = replace(single_link_config(n=400), utility=SlotUtility(1e308, 1e308))
    with pytest.raises(OverflowError):
        math.fsum([1e308] * 400)
    with pytest.raises(NumericsError) as err:
        run_eh(cfg, [0])
    assert "\n" not in str(err.value)


def test_trial_columns_are_float_arrays():
    trials = run_eh(chain_config(40), [0, 1])
    assert trials.mismatch_union[0] > 0.0
    assert type(trials.n_slots) is int
    assert all(type(node) is int for node in trials.nodes)
    for column in (trials.avg_utility, trials.non_eh_utility,
                   trials.mismatch_union, trials.mismatch_fraction,
                   trials.final_level):
        assert type(column) is np.ndarray and column.dtype == np.float64


@pytest.mark.parametrize("initial", [-0.0, 3], ids=["minus_zero", "int"])
def test_final_levels_are_nonnegative_floats_in_both_systems(initial):
    # The reference system leaves the battery untouched, so its final
    # level is the start level, as a float that `run_eh` would start from.
    cfg = single_link_config(n=20, initial_level=initial)
    for run in (run_eh, run_non_eh):
        ((level,),) = run(cfg, [0]).final_level
        assert level.dtype == np.float64
        assert math.copysign(1.0, level) == 1.0
    assert run_non_eh(cfg, [0]).final_level.tolist() == [[float(initial)]]


def test_paired_gap_zero_for_abundant_battery():
    cfg = single_link_config(n=400, power=1.0, initial_level=1e6)
    stats = paired_gap(cfg, seeds=range(5))
    assert stats.gap_mean == 0.0
    assert stats.gap_stderr == 0.0
    assert stats.n_pairs == 5
    assert stats.eh_mean == stats.non_eh_mean


def test_paired_gap_nonpositive_for_outage_rate():
    # battery shortfalls can only lose rate, and outage counts failures:
    # starving transmissions never lowers the outage count
    cfg = replace(single_link_config(n=300, power=2.0, harvest_mean=0.5),
                  utility=OutageUtility(1.0))
    stats = paired_gap(cfg, seeds=range(8))
    assert stats.gap_mean >= 0.0  # more outages with the battery in the way
    assert stats.eh_mean >= stats.non_eh_mean


def test_paired_gap_statistics_equal_those_of_separate_runs():
    # A small battery that starts full runs dry in some trials only, and
    # 100 seeds of 100 slots take two calls of `run_eh`.
    cfg = single_link_config(n=100, power=1.0, capacity=4.0, initial_level=4.0)
    seeds = list(range(100))
    stats = paired_gap(cfg, seeds)
    runs = [run_eh(cfg, [seed]) for seed in seeds]

    def mean_stderr(values):
        k = len(values)
        mean = math.fsum(values) / k
        var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
        return mean, math.sqrt(var / k)

    ehs = [float(run.avg_utility[0]) for run in runs]
    nons = [float(run.non_eh_utility[0]) for run in runs]
    assert (stats.eh_mean, stats.eh_stderr) == mean_stderr(ehs)
    assert (stats.non_eh_mean, stats.non_eh_stderr) == mean_stderr(nons)
    assert (stats.gap_mean, stats.gap_stderr) == mean_stderr(
        [eh - non for eh, non in zip(ehs, nons)])
    assert stats.mismatch_mean == math.fsum(
        float(run.mismatch_union[0]) for run in runs) / len(runs)
    assert stats.n_pairs == len(seeds)
    assert stats.mismatch_mean > 0.0 and stats.gap_stderr > 0.0


@pytest.mark.parametrize("network", TRIALS_NETWORKS)
def test_paired_gap_reduces_the_per_seed_summaries_bit_for_bit(network,
                                                               monkeypatch):
    # Several groups of seeds; each field, signs of zero included, is
    # what the per-seed summaries reduce to.
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", 2 ** 10)
    cfg = REFERENCE_NETWORKS[network]()
    seeds = list(range(100, 100 + 2 * group_size(cfg) + 1))
    runs = [run_eh(cfg, [seed]) for seed in seeds]
    ehs = [float(run.avg_utility[0]) for run in runs]
    nons = [float(run.non_eh_utility[0]) for run in runs]
    want = GapStatistics(
        *_mean_stderr([eh - non for eh, non in zip(ehs, nons)]),
        *_mean_stderr(ehs),
        *_mean_stderr(nons),
        mismatch_mean=math.fsum(float(run.mismatch_union[0]) for run in runs)
        / len(runs),
        n_pairs=len(seeds),
    )
    got = paired_gap(cfg, seeds)
    assert ([float(v).hex() for v in astuple(got)]
            == [float(v).hex() for v in astuple(want)])


def test_paired_gap_requires_seeds():
    with pytest.raises(ValueError):
        paired_gap(single_link_config(), seeds=[])


def test_waterfill_runs_end_to_end():
    cfg = replace(
        single_link_config(n=500),
        transmitters=(
            TransmitterSpec(
                node=0,
                harvest=ExponentialProcess(1.0),
                policy=WaterfillPolicy(AmplifierModel(), lam=0.5),
            ),
        ),
    )
    summary = run_eh(cfg, [21])
    assert 0.0 <= summary.avg_utility[0] <= 1.0
