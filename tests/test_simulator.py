"""Unit tests for the network simulator: validation, determinism, pairing."""

import gc
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehnet import simulator, stochastic
from ehnet.experiments import (
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
)
from ehnet import battery
from ehnet.battery import VECTOR_LANES
from ehnet.simulator import (
    ConfigError,
    LinkSpec,
    NumericsError,
    SimulationConfig,
    TransmitterSpec,
    run_eh,
    run_non_eh,
)
from ehnet.stochastic import ConstantProcess, ExponentialProcess
from ehnet.utilities import (
    BroadcastSumRateUtility,
    ChainRateUtility,
    OutageUtility,
)
from oracles import BatteryState, deposit, extract, extract_many


def single_link_config(n=100, power=1.0, harvest_mean=1.0, seed=0, **tx_kwargs):
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
        seed=seed,
    )


# ---------------------------------------------------------------------------
# config validation


def test_validation_catches_bad_configs():
    good = single_link_config()
    good.validate()

    with pytest.raises(ConfigError):
        replace(good, n_slots=0).validate()
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


def test_unbounded_buffer_may_start_at_inf():
    # `validate` takes the start levels `trajectory` takes: inf only in an
    # unbounded buffer, where an overflowed level goes; it grants every
    # request.
    summary = run_eh(single_link_config(n=50, initial_level=math.inf))
    assert summary.mismatch_union == 0.0
    assert summary.avg_utility == summary.non_eh_utility
    with pytest.raises(ConfigError) as err:
        single_link_config(capacity=5.0, initial_level=math.inf).validate()
    assert str(err.value) == "node 0: battery level must be finite"


def test_validation_wants_integer_delays():
    good = single_link_config()
    with pytest.raises(ConfigError) as err:
        replace(good, links=(replace(good.links[0], delay=1.5),)).validate()
    assert str(err.value) == "link 0->1 delay 1.5 is not an integer"
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


def test_run_rejects_invalid_config_before_sampling():
    with pytest.raises(ConfigError):
        run_eh(single_link_config(n=0))


# ---------------------------------------------------------------------------
# determinism and stream isolation


def test_same_seed_same_summary():
    cfg = single_link_config(n=2000, seed=7)
    assert run_eh(cfg) == run_eh(cfg)
    assert run_non_eh(cfg) == run_non_eh(cfg)


def test_different_seed_different_draws():
    _, ta = run_eh(single_link_config(n=500, seed=1), return_trace=True)
    _, tb = run_eh(single_link_config(n=500, seed=2), return_trace=True)
    assert not np.array_equal(ta.gains, tb.gains)
    assert not np.array_equal(ta.harvest[0], tb.harvest[0])


def test_adding_a_node_leaves_existing_draws_alone():
    base = single_link_config(n=300, seed=11)
    _, t1 = run_eh(base, return_trace=True)

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
    _, t2 = run_eh(bigger, return_trace=True)

    assert np.array_equal(t1.harvest[0], t2.harvest[0])
    assert np.array_equal(t1.gains[:, 0], t2.gains[:, 0])


def test_prefix_causality():
    # a longer horizon replays the same history slot for slot
    _, short = run_eh(single_link_config(n=200, seed=3), return_trace=True)
    _, long = run_eh(single_link_config(n=500, seed=3), return_trace=True)
    assert np.array_equal(short.harvest[0], long.harvest[0][:200])
    assert np.array_equal(short.gains, long.gains[:200])
    assert np.array_equal(short.actual, long.actual[:200])
    assert np.array_equal(short.levels[0], long.levels[0][:200])
    assert np.array_equal(short.utility, long.utility[:200])


# ---------------------------------------------------------------------------
# reference system semantics


def test_non_eh_grants_every_request():
    cfg = single_link_config(n=1000, power=5.0, harvest_mean=0.1, seed=5)
    summary, trace = run_non_eh(cfg, return_trace=True)
    assert np.array_equal(trace.actual, trace.desired)
    assert summary.mismatch_fraction == {0: 0.0}
    assert summary.mismatch_union == 0.0
    assert summary.final_level == {0: 0.0}
    assert math.fsum(trace.actual[:, 0].tolist()) / cfg.n_slots == 5.0


def test_non_eh_shares_draws_with_eh():
    cfg = single_link_config(n=1000, seed=9)
    _, te = run_eh(cfg, return_trace=True)
    _, tn = run_non_eh(cfg, return_trace=True)
    assert np.array_equal(te.harvest[0], tn.harvest[0])
    assert np.array_equal(te.gains, tn.gains)
    assert np.array_equal(te.desired, tn.desired)


def test_eh_never_beats_requests_and_conserves_energy():
    cfg = single_link_config(n=5000, power=1.5, seed=13)
    summary, trace = run_eh(cfg, return_trace=True)
    assert np.all(trace.actual <= trace.desired)
    banked = math.fsum(trace.harvest[0].tolist())
    spent = math.fsum(trace.actual.ravel().tolist())
    assert banked == pytest.approx(spent + summary.final_level[0], rel=1e-12)


def test_zero_harvest_cold_start_never_transmits():
    cfg = single_link_config(n=64, power=2.0)
    cfg = replace(
        cfg,
        transmitters=(replace(cfg.transmitters[0],
                              harvest=ConstantProcess(0.0)),),
    )
    summary, trace = run_eh(cfg, return_trace=True)
    assert np.all(trace.actual == 0.0)
    assert summary.mismatch_fraction[0] == 1.0  # every slot wants power


def test_capacity_clip_loses_energy():
    cfg = single_link_config(n=2000, power=0.0, seed=17, capacity=0.5)
    cfg = replace(
        cfg,
        transmitters=(replace(cfg.transmitters[0],
                              policy=ConstantPolicy(0.0)),),
    )
    summary, trace = run_eh(cfg, return_trace=True)
    banked = math.fsum(trace.harvest[0].tolist())
    assert summary.final_level[0] == 0.5
    assert banked > summary.final_level[0]  # overflow was discarded


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
        seed=0,
    )


def test_chain_worked_example_average():
    n = 40
    summary = run_eh(chain_config(n))
    # destination slots 4, 6, ..., 40 deliver log2(1 + 100/21); slot 2 is
    # dead because the source's feeding slot 0 precedes the run
    per_delivery = math.log2(1.0 + 100.0 / 21.0)
    expected = ((n - 2) / 2) / n * per_delivery
    assert summary.avg_utility == pytest.approx(expected, rel=1e-12)


def test_chain_worked_example_mismatch_bookkeeping():
    summary = run_eh(chain_config(40))
    # only the relay's very first request (slot 1, empty battery) fails
    assert summary.mismatch_fraction == {0: 0.0, 1: 1.0 / 40.0}
    assert summary.mismatch_union == 1.0 / 40.0
    # source spends 1.0 in each of 20 even slots; relay in 19 odd slots
    assert summary.final_level == {0: 20.0, 1: 21.0}


def test_chain_half_duplex_no_simultaneous_hops():
    _, trace = run_eh(chain_config(40), return_trace=True)
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
    return build_config(spec, grid_points(spec)[0], seed=31)


@pytest.mark.parametrize("starved", [True, False], ids=["mismatch", "no_mismatch"])
@pytest.mark.parametrize("experiment", [f"fig{k}" for k in range(1, 7)])
def test_run_eh_pairs_with_reference_run(experiment, starved):
    cfg = sweep_config(experiment, starved)
    summary, trace = run_eh(cfg, return_trace=True)
    ref_summary, ref_trace = run_non_eh(cfg, return_trace=True)
    assert (summary.mismatch_union > 0.0) == starved
    assert summary.non_eh_utility == ref_summary.avg_utility
    assert ref_summary.non_eh_utility == ref_summary.avg_utility
    n = cfg.n_slots
    assert summary.avg_utility == math.fsum(trace.utility.tolist()) / n
    if not starved:
        assert np.array_equal(trace.utility, ref_trace.utility)


# ---------------------------------------------------------------------------
# trial batches


def summary_bits(summary):
    """Every number of a summary as bytes, so a sign of zero or a
    last-digit change shows."""
    fields = [summary.n_slots, summary.avg_utility, summary.non_eh_utility,
              summary.mismatch_union]
    for per_node in (summary.mismatch_fraction, summary.final_level):
        fields += [(node, value) for node, value in per_node.items()]
    return np.array([v for f in fields for v in np.ravel(f)],
                    dtype=float).tobytes()


def trace_bits(trace):
    arrays = [trace.slots, trace.gains, trace.desired, trace.actual,
              trace.utility]
    for per_node in (trace.harvest, trace.levels):
        arrays += [per_node[node] for node in sorted(per_node)]
    return [np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays]


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
        results = run_eh(cfg, seeds=seeds, return_trace=True)
        assert len(results) == size
        for seed, (summary, trace) in zip(seeds, results):
            alone, alone_trace = run_eh(replace(cfg, seed=seed),
                                        return_trace=True)
            assert summary == alone
            assert summary_bits(summary) == summary_bits(alone)
            assert trace_bits(trace) == trace_bits(alone_trace)
        assert any(s.mismatch_union > 0.0 for s, _ in results) == starved


def test_batch_mixing_trials_with_and_without_mismatch():
    # A small battery that starts full: some trials run dry, some do not,
    # so the batch evaluates the granted powers for trials that had no
    # mismatch too.
    cfg = single_link_config(n=40, power=1.0, capacity=4.0, initial_level=4.0)
    seeds = list(range(2 * VECTOR_LANES))
    summaries = run_eh(cfg, seeds=seeds)
    assert 0 < sum(s.mismatch_union > 0.0 for s in summaries) < len(seeds)
    for seed, summary in zip(seeds, summaries):
        alone = run_eh(replace(cfg, seed=seed))
        assert summary_bits(summary) == summary_bits(alone)


def test_batch_delay_lines_restart_at_each_trial():
    # The chain utility never reads a delay line before its first slot, so
    # a delayed link under a utility that does: each trial's first slots
    # must see zero power, not the previous trial's last slots.
    cfg = replace(single_link_config(n=30, power=4.0, initial_level=1e3),
                  links=(LinkSpec(0, 1, ExponentialProcess(1.0), delay=3),))
    seeds = list(range(VECTOR_LANES + 1))
    for seed, summary in zip(seeds, run_eh(cfg, seeds=seeds)):
        assert summary_bits(summary) == summary_bits(
            run_eh(replace(cfg, seed=seed)))


def test_batch_without_seeds_is_the_config_seed():
    cfg = single_link_config(seed=7)
    assert run_eh(cfg, seeds=[7]) == [run_eh(cfg)]
    with pytest.raises(ValueError):
        run_eh(cfg, seeds=[])


# ---------------------------------------------------------------------------
# time chunks

# A budget under which every call is one group walked in one chunk.
UNCHUNKED = 2 ** 40


def assert_same_runs(got, want):
    assert len(got) == len(want)
    for (summary, trace), (summary0, trace0) in zip(got, want):
        assert summary == summary0
        assert summary_bits(summary) == summary_bits(summary0)
        assert trace_bits(trace) == trace_bits(trace0)


def eh_and_reference(cfg, seeds):
    return run_eh(cfg, seeds=seeds, return_trace=True) + [
        run_non_eh(replace(cfg, seed=seed), return_trace=True)
        for seed in seeds]


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
    want = run_eh(cfg, seeds=seeds, return_trace=True)
    assert 0 < sum(s.mismatch_union > 0.0 for s, _ in want) < len(seeds)
    walk = simulator._walk
    for budget in (7, 333):
        def walk_in_chunks(*args):
            monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", budget)
            try:
                return walk(*args)
            finally:
                monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)

        monkeypatch.setattr(simulator, "_walk", walk_in_chunks)
        assert_same_runs(run_eh(cfg, seeds=seeds, return_trace=True), want)


# ---------------------------------------------------------------------------
# a network of mixed node kinds


def mixed_network(n=40, seed=0, policy=None):
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
        seed=seed,
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
    alone = [eh_and_reference(replace(cfg, seed=seed), [seed])
             for seed in seeds]
    want = [eh for eh, _ in alone] + [reference for _, reference in alone]
    got = eh_and_reference(cfg, seeds)
    assert_same_runs(got, want)
    for summary, trace in got[:trials]:
        assert_grants_match_stepwise_primitives(cfg, trace)
        assert summary.mismatch_fraction[2] > 0.0  # node 2 runs dry
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
        assert_same_runs(run_eh(cfg, seeds=seeds, return_trace=True),
                         want[:trials])
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
        trials = len(next(iter(args[-2].values())))  # of `levels`
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
    cfg = build_config(spec, grid_points(spec)[0], seed=1)
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
@pytest.mark.parametrize("seeds", [None, list(range(VECTOR_LANES))],
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
OVERFLOWING_RUN = single_link_config(n=400, power=1.0, harvest_mean=1e306,
                                     seed=3)


def test_unbounded_level_that_overflows_resumes_in_the_next_chunk(
        monkeypatch):
    # A harvest of mean 1e306 overflows an unbounded level to inf within
    # a few hundred slots; later chunks resume from inf.
    cfg = OVERFLOWING_RUN
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)
    want = run_eh(cfg, return_trace=True)
    assert math.isinf(want[0].final_level[0])
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", 7)
    assert_same_runs([run_eh(cfg, return_trace=True)], [want])


def test_summary_of_an_overflowing_run_prints_and_compares():
    # The harvest of this run sums past the float range, and its summary
    # holds only what the walk computed, so printing or comparing it runs
    # nothing and sums nothing.
    summary = run_eh(OVERFLOWING_RUN)
    assert repr(summary).startswith("RunSummary(n_slots=400, ")
    assert summary == run_eh(OVERFLOWING_RUN)


def test_batch_equality_example_runs_each_trial_once(monkeypatch):
    # The README's example: one batch of three, then three single runs.
    cfg = SimulationConfig(
        n_slots=10_000,
        transmitters=(TransmitterSpec(node=0, harvest=ExponentialProcess(1.0),
                                      policy=ConstantPolicy(1.0),
                                      capacity=200.0),),
        links=(LinkSpec(tx=0, rx=1, fading=ExponentialProcess(1.0)),),
        utility=OutageUtility(1.0),
        seed=42,
    )
    runs = []
    run = simulator._run

    def counting_run(*args):
        runs.append(args[1])
        return run(*args)

    monkeypatch.setattr(simulator, "_run", counting_run)
    trials = run_eh(cfg, seeds=[1, 2, 3])
    assert trials == [run_eh(replace(cfg, seed=s)) for s in (1, 2, 3)]
    assert runs == [[1, 2, 3], [1], [2], [3]]


def test_eight_hop_chain_grants_match_stepwise_primitives():
    # Each node's column of an 8-link request matrix has a stride of 64
    # bytes, which numpy 2.4's `negative` misread in the single-link walk.
    spec = replace(default_spec("fig6"), p_in_db=(0.0,), n_slots=(300,),
                   b_max_ratio=(5.0,), group_size=(8,), initial_fill=0.0)
    cfg = build_config(spec, grid_points(spec)[0], seed=5)
    summary, trace = run_eh(cfg, return_trace=True)
    assert summary.mismatch_union > 0.0
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
    cfg = build_config(spec, grid_points(spec)[0], seed=9)
    (t,) = cfg.transmitters
    with mock.patch.object(battery, "_single_link",
                           wraps=battery._single_link) as walk:
        summary, trace = run_eh(cfg, return_trace=True)
    assert walk.call_count == 2
    assert summary.mismatch_union > 0.0
    assert (trace.levels[t.node] == t.capacity).any()
    state = BatteryState(t.initial_level, t.capacity)
    for i in range(cfg.n_slots):
        got, state = extract_many(state, trace.desired[i].tolist())
        state = deposit(state, float(trace.harvest[t.node][i]))
        assert np.array(got).tobytes() == trace.actual[i].tobytes()
        assert (np.float64(state.level).tobytes()
                == trace.levels[t.node][i].tobytes())


def test_walk_chunk_sizes_follow_the_budget(monkeypatch):
    # One 5000-slot trial on 25 links fills 2^15 slot-links in 1310 slots.
    spec = replace(default_spec("fig4"), p_in_db=(10.0,), n_slots=(5000,),
                   group_size=(25,))
    cfg = build_config(spec, grid_points(spec)[0], seed=1)
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
    cfg = build_config(spec, grid_points(spec)[0], seed=1)
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
    cfg = build_config(spec, grid_points(spec)[0], seed=1)
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
    assert trials == [run_eh(replace(cfg, seed=s)) for s in (1, 2)]


def alternating_network(n=60, seed=0):
    """Five single-link senders whose harvest means run 1, 1, 1, 0.5, 0.5
    and fading means 1, 1, 2, 2, 1, then a broadcaster with the senders'
    last harvest mean and fading means 1, 2: process runs of 3 and 2
    lanes-block harvests, the broadcaster's own harvest, and fading runs
    of 2, 2, 2 and 1 links."""
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
                            utility=BroadcastSumRateUtility(7), seed=seed)


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
    runs = simulator._draw_runs(cfg)
    assert [(run.kind, len(run.members)) for run in runs] == [
        ("harvest", 3), ("harvest", 2), ("harvest", 1),
        ("fading", 2), ("fading", 2), ("fading", 2), ("fading", 1)]
    seeds = [30, 31, 32, 33]
    monkeypatch.setattr(simulator, "CHUNK_SLOT_LINKS", UNCHUNKED)
    want = eh_and_reference(cfg, seeds)
    assert any(summary.mismatch_union > 0.0 for summary, _ in want)
    for seed, (_, trace) in zip(seeds * 2, want):
        assert_draws_of_own_streams(cfg, seed, trace)
    alone = [eh_and_reference(replace(cfg, seed=seed), [seed])
             for seed in seeds]
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


class WrongShape:
    """A process whose draws come in `shape(lanes, n)` instead of the
    (lanes, n) block asked for."""

    def __init__(self, shape):
        self.shape = shape

    def sample(self, stream, n, out=None):
        return np.ones(self.shape(stream.shape, n))


@pytest.mark.parametrize("seeds", [None, [0, 1, 2]], ids=["alone", "group"])
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
    run_eh, lambda cfg: run_eh(cfg, seeds=[0, 1, 2]), run_non_eh,
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
    cfg = build_config(spec, grid_points(spec)[0], seed=1)
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
    cfg = build_config(spec, grid_points(spec)[0], seed=7)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = run_eh(cfg)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.mismatch_union >= 0.0
    assert peak - before < 16 * 2**20
    assert kept - before < 2**20


def test_million_slot_run_holds_no_whole_run_rows():
    # Each trial's utilities go into exact partial sums chunk by chunk.
    # Summed by `math.fsum` over whole-run rows, this run held two 8 MB
    # rows of utilities and their `tolist()`, and peaked at 47 MB.
    cfg = single_link_config(n=10**6, power=1.0, harvest_mean=1.0, seed=4)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = run_eh(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.mismatch_union > 0.0  # both systems' sums are kept
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
    cfg = replace(build_config(spec, grid_points(spec)[0], seed=3),
                  utility=FirstGain())
    summary, trace = run_eh(cfg, return_trace=True)
    want = math.fsum(trace.gains[:, 0].tolist()) / 5000
    assert summary.avg_utility == summary.non_eh_utility == want
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
    summary, trace = run_eh(cfg, return_trace=True)
    assert summary.mismatch_union > 0.0
    assert summary.avg_utility == math.fsum(trace.utility.tolist()) / 401
    assert summary.avg_utility == summary.non_eh_utility == 1.5e308 / 401


def test_utilities_summed_past_the_float_range_raise_numerics_error():
    cfg = replace(single_link_config(n=400), utility=SlotUtility(1e308, 1e308))
    with pytest.raises(OverflowError):
        math.fsum([1e308] * 400)
    with pytest.raises(NumericsError) as err:
        run_eh(cfg)
    assert "\n" not in str(err.value)


def test_summary_fields_are_python_floats():
    summary = run_eh(chain_config(40))
    assert summary.mismatch_union > 0.0
    values = [summary.avg_utility, summary.non_eh_utility,
              summary.mismatch_union, *summary.mismatch_fraction.values(),
              *summary.final_level.values()]
    assert all(type(v) is float for v in values)
    assert "np.float64" not in repr(summary)


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
    runs = [run_eh(replace(cfg, seed=seed)) for seed in seeds]

    def mean_stderr(values):
        k = len(values)
        mean = math.fsum(values) / k
        var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
        return mean, math.sqrt(var / k)

    ehs = [run.avg_utility for run in runs]
    nons = [run.non_eh_utility for run in runs]
    assert (stats.eh_mean, stats.eh_stderr) == mean_stderr(ehs)
    assert (stats.non_eh_mean, stats.non_eh_stderr) == mean_stderr(nons)
    assert (stats.gap_mean, stats.gap_stderr) == mean_stderr(
        [eh - non for eh, non in zip(ehs, nons)])
    assert stats.mismatch_mean == math.fsum(
        run.mismatch_union for run in runs) / len(runs)
    assert stats.n_pairs == len(seeds)
    assert stats.mismatch_mean > 0.0 and stats.gap_stderr > 0.0


def test_paired_gap_requires_seeds():
    with pytest.raises(ValueError):
        paired_gap(single_link_config(), seeds=[])


def test_waterfill_runs_end_to_end():
    cfg = replace(
        single_link_config(n=500, seed=21),
        transmitters=(
            TransmitterSpec(
                node=0,
                harvest=ExponentialProcess(1.0),
                policy=WaterfillPolicy(AmplifierModel(), lam=0.5),
            ),
        ),
    )
    summary = run_eh(cfg)
    assert 0.0 <= summary.avg_utility <= 1.0
