"""Unit tests for the network simulator: validation, determinism, pairing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ehnet.experiments import (
    BATCH_SLOT_LINKS,
    build_config,
    default_spec,
    grid_points,
    paired_gap,
)
from ehnet.policies import (
    AlternatingRelayPolicy,
    AmplifierModel,
    ConstantPolicy,
    WaterfillPolicy,
)
from ehnet.battery import VECTOR_LANES
from ehnet.simulator import (
    ConfigError,
    LinkSpec,
    SimulationConfig,
    TransmitterSpec,
    run_eh,
    run_non_eh,
)
from ehnet.stochastic import ConstantProcess, ExponentialProcess
from ehnet.utilities import ChainRateUtility, OutageUtility


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
    assert summary.avg_out[0] == summary.avg_desired[0] == 5.0


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
    assert summary.avg_out[0] <= summary.avg_desired[0] + 1e-12


def test_zero_harvest_cold_start_never_transmits():
    cfg = single_link_config(n=64, power=2.0)
    cfg = replace(
        cfg,
        transmitters=(replace(cfg.transmitters[0],
                              harvest=ConstantProcess(0.0)),),
    )
    summary = run_eh(cfg)
    assert summary.avg_out[0] == 0.0
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


def sweep_config(experiment, starved):
    spec = replace(
        default_spec(experiment),
        p_in_db=(5.0,),
        n_slots=(60,),
        b_max_ratio=(200.0 if starved else 1e6,),
        group_size=(PAIRING_GROUP.get(experiment, 1),),
        initial_fill=0.0 if starved else 1.0,
    )
    return build_config(spec, grid_points(spec)[0], seed=31)


def check_node_averages(cfg, summary, trace):
    n = cfg.n_slots
    nodes = [t.node for t in cfg.transmitters]
    for avg in (summary.avg_in, summary.avg_desired, summary.avg_out):
        assert list(avg) == nodes
        with pytest.raises(KeyError):
            avg[max(nodes) + 100]
    for node in nodes:
        cols = [c for c, link in enumerate(cfg.links) if link.tx == node]
        assert summary.avg_in[node] == math.fsum(trace.harvest[node].tolist()) / n
        assert summary.avg_desired[node] == math.fsum(
            trace.desired[:, cols].ravel().tolist()) / n
        assert summary.avg_out[node] == math.fsum(
            trace.actual[:, cols].ravel().tolist()) / n


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
    check_node_averages(cfg, summary, trace)
    check_node_averages(cfg, ref_summary, ref_trace)


# ---------------------------------------------------------------------------
# trial batches


def summary_bits(summary):
    """Every number of a summary as bytes, lazy per-node averages included,
    so a sign of zero or a last-digit change shows."""
    fields = [summary.n_slots, summary.avg_utility, summary.non_eh_utility,
              summary.mismatch_union]
    for per_node in (summary.avg_in, summary.avg_desired, summary.avg_out,
                     summary.mismatch_fraction, summary.final_level):
        fields += [(node, value) for node, value in per_node.items()]
    return np.array([v for f in fields for v in np.ravel(f)],
                    dtype=float).tobytes()


def trace_bits(trace):
    arrays = [trace.slots, trace.gains, trace.desired, trace.actual,
              trace.utility]
    for per_node in (trace.harvest, trace.levels):
        arrays += [per_node[node] for node in sorted(per_node)]
    return [np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays]


def batch_size(cfg):
    """Trials per `run_eh` call in `paired_gap`: as many as fit in
    `BATCH_SLOT_LINKS` slot-links, at least one."""
    return max(1, BATCH_SLOT_LINKS // (cfg.n_slots * len(cfg.links)))


def batched_runs(cfg, seeds):
    """`run_eh` over `seeds` in batches of `batch_size(cfg)`, as
    `paired_gap` calls it."""
    step = batch_size(cfg)
    return [result for start in range(0, len(seeds), step)
            for result in run_eh(cfg, seeds=seeds[start:start + step],
                                 return_trace=True)]


@pytest.mark.parametrize("starved", [True, False], ids=["mismatch", "no_mismatch"])
@pytest.mark.parametrize("experiment", [f"fig{k}" for k in range(1, 7)])
def test_batched_trials_equal_separate_runs(experiment, starved):
    cfg = sweep_config(experiment, starved)
    step = batch_size(cfg)
    # one trial, two, just past the switch to the vectorised battery
    # loop, and enough seeds for three batches
    for size in (1, 2, VECTOR_LANES + 1, 2 * step + 1):
        seeds = list(range(100, 100 + size))
        results = batched_runs(cfg, seeds)
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
