"""Unit tests for sweep configs, grid runners, CSV output and the CLI."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import asdict, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ehnet.cli
import ehnet.experiments
import ehnet.policies
import ehnet.simulator
from ehnet.cli import main
from ehnet.experiments import (
    BASELINE_N,
    CSV_FIELDS,
    EXPERIMENTS,
    GridPoint,
    build_config,
    closed_form_baseline,
    default_spec,
    grid_points,
    load_spec,
    run_experiment,
    spec_from_dict,
    trial_seed,
    validate_spec,
    write_csv,
)
from ehnet.policies import ConstantPolicy, MaxGainBroadcastPolicy, WaterfillPolicy
from ehnet.simulator import ConfigError
from ehnet.stochastic import LARGEST_EXPONENTIAL_DRAW, ExponentialProcess
from ehnet.utilities import rayleigh_bpsk_ber

TINY = {"n_slots": [50], "trials": 2, "p_in_db": [0.0, 10.0]}


# ---------------------------------------------------------------------------
# spec handling


def test_all_bundled_experiments_have_defaults():
    for name in EXPERIMENTS:
        spec = default_spec(name)
        validate_spec(spec)
        assert grid_points(spec)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        default_spec("fig7")


def test_spec_from_dict_merges_over_defaults():
    spec = spec_from_dict({"experiment": "fig1", "trials": 7})
    base = default_spec("fig1")
    assert spec.trials == 7
    assert spec.p_in_db == base.p_in_db
    assert spec.n_slots == base.n_slots
    assert spec.seed == base.seed


def test_spec_from_dict_accepts_scalars_for_axes():
    spec = spec_from_dict({"experiment": "fig1", "p_in_db": 5, "n_slots": 80})
    assert spec.p_in_db == (5.0,)
    assert spec.n_slots == (80,)


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        spec_from_dict({"experiment": "fig1", "bogus": 1})
    with pytest.raises(ConfigError):
        spec_from_dict({"trials": 5})  # no experiment


def test_validate_spec_rejects_bad_values():
    base = default_spec("fig1")
    for bad in [
        replace(base, n_slots=(0,)),
        replace(base, trials=0),
        replace(base, seed=-1),
        replace(base, initial_fill=1.5),
        replace(base, b_max_ratio=(0.0,)),
        replace(base, rate_threshold=0.0),
        replace(base, amplifier_epsilon=0.5),
        replace(base, p_in_db=(math.inf,)),
    ]:
        with pytest.raises(ConfigError):
            validate_spec(bad)


def test_fig6_odd_hop_counts_rejected():
    base = default_spec("fig6")
    # odd parity can never land a delivery on an even destination slot
    with pytest.raises(ConfigError):
        validate_spec(replace(base, group_size=(3,)))
    with pytest.raises(ConfigError):
        validate_spec(replace(base, group_size=(1,)))
    validate_spec(replace(base, group_size=(2, 4)))


def test_cli_rejects_fig6_runs_shorter_than_the_first_hop_delay(tmp_path,
                                                                capsys):
    # Four hops delay the first one by 3 slots, which a 2-slot run cannot
    # hold; the 100-slot points must not run first and be thrown away.
    path = write_config(tmp_path, experiment="fig6", p_in_db=[0.0],
                        n_slots=[100, 2], group_size=[4], trials=2)
    out = tmp_path / "x.csv"
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--out", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: fig6 n_slots 2 ")
        assert err.count("\n") == 1
    assert not out.exists()
    validate_spec(replace(default_spec("fig6"), n_slots=(3,), group_size=(4,)))


def test_load_spec_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_spec(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_spec(bad)


def test_load_spec_roundtrip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"experiment": "fig4", **TINY}))
    spec = load_spec(path)
    assert spec.experiment == "fig4"
    assert spec.trials == 2


# ---------------------------------------------------------------------------
# grid and seeding


def test_grid_point_order_and_index():
    spec = spec_from_dict(
        {"experiment": "fig5", "p_in_db": [0.0, 10.0], "n_slots": [100, 200],
         "group_size": [1, 2]}
    )
    pts = grid_points(spec)
    assert len(pts) == 8
    assert [pt.index for pt in pts] == list(range(8))
    # slowest axis first: n, then group size, then power
    assert (pts[0].n, pts[0].m, pts[0].p_db) == (100, 1, 0.0)
    assert (pts[1].n, pts[1].m, pts[1].p_db) == (100, 1, 10.0)
    assert (pts[2].n, pts[2].m, pts[2].p_db) == (100, 2, 0.0)
    assert (pts[4].n, pts[4].m, pts[4].p_db) == (200, 1, 0.0)


def test_trial_seeds_are_deterministic_and_distinct():
    a = trial_seed(1, 0, 0)
    assert a == trial_seed(1, 0, 0)
    seeds = {trial_seed(1, pi, t) for pi in range(5) for t in range(20)}
    assert len(seeds) == 100
    assert trial_seed(2, 0, 0) != a


# ---------------------------------------------------------------------------
# per-experiment network builders


def point(spec, **kwargs):
    base = dict(index=0, p_db=0.0, n=100, ratio=200.0, m=1)
    base.update(kwargs)
    return GridPoint(**base)


def test_build_fig1_geometry():
    spec = default_spec("fig1")
    cfg = build_config(spec, point(spec, p_db=10.0), seed=3)
    (tx,) = cfg.transmitters
    assert tx.harvest.mean == pytest.approx(10.0)
    assert isinstance(tx.policy, ConstantPolicy)
    assert tx.policy.power == pytest.approx(10.0)
    assert tx.capacity == pytest.approx(2000.0)  # 200x the average intake
    assert tx.initial_level == pytest.approx(2000.0)  # shipped specs start full
    assert cfg.seed == 3


def test_build_fig1_unbounded_battery_via_null_ratio():
    spec = default_spec("fig1")
    cfg = build_config(spec, point(spec, ratio=None), seed=0)
    (tx,) = cfg.transmitters
    assert tx.capacity == math.inf
    assert tx.initial_level == 0.0


def test_build_fig3_silent_below_circuit_floor():
    spec = default_spec("fig3")  # circuit draw at -25 dB
    cfg = build_config(spec, point(spec, p_db=-30.0), seed=0)
    policy = cfg.transmitters[0].policy
    assert isinstance(policy, ConstantPolicy)
    assert policy.power == 0.0
    cfg = build_config(spec, point(spec, p_db=-20.0), seed=0)
    assert isinstance(cfg.transmitters[0].policy, WaterfillPolicy)


def test_build_fig4_star_topology():
    spec = default_spec("fig4")
    cfg = build_config(spec, point(spec, m=25), seed=0)
    assert len(cfg.links) == 25
    assert isinstance(cfg.transmitters[0].policy, MaxGainBroadcastPolicy)
    assert cfg.transmitters[0].policy.num_links == 25
    assert len({(l.tx, l.rx) for l in cfg.links}) == 25


def test_build_fig5_many_senders_one_sink():
    spec = default_spec("fig5")
    cfg = build_config(spec, point(spec, m=5), seed=0)
    assert len(cfg.transmitters) == 5
    assert len(cfg.links) == 5
    assert len({l.rx for l in cfg.links}) == 1


def test_build_fig6_chain_schedule_and_delays():
    spec = default_spec("fig6")
    cfg = build_config(spec, point(spec, p_db=0.0, m=4), seed=0)
    assert len(cfg.transmitters) == 4
    # hop k delivers k's transmission hops-k slots later
    assert [l.delay for l in cfg.links] == [3, 2, 1, 0]
    # alternating slot parity down the chain
    assert [t.policy.node_parity for t in cfg.transmitters] == [1, 0, 1, 0]
    # front half runs at twice the intake, back half at the intake
    assert [t.policy.active_power for t in cfg.transmitters] == pytest.approx(
        [2.0, 2.0, 1.0, 1.0])
    # per-hop mean gain grows with the hop count squared
    assert all(l.fading.mean == pytest.approx(16.0) for l in cfg.links)
    cfg.validate()


# ---------------------------------------------------------------------------
# baselines


def test_fig1_baseline_formula():
    spec = default_spec("fig1")
    val = closed_form_baseline(spec, point(spec, p_db=10.0))
    assert val == pytest.approx(-math.expm1(-0.1), rel=1e-14)
    assert val == pytest.approx(0.09516258196404043, rel=1e-13)


def test_fig5_baseline_is_diversity_formula():
    spec = default_spec("fig5")
    pt = point(spec, p_db=6.020599913279624, m=2)  # 4.0 in linear units
    val = closed_form_baseline(spec, pt)
    assert val == pytest.approx(rayleigh_bpsk_ber(4.0, 2), rel=1e-14)
    assert val == pytest.approx(0.008065044950046271, rel=1e-12)


def test_fig2_baseline_decreasing_in_budget():
    spec = default_spec("fig2")
    vals = [closed_form_baseline(spec, point(spec, p_db=d)) for d in (0.0, 10.0)]
    assert 0.0 < vals[0] < vals[1]


def test_fig6_baseline_is_reference_run():
    spec = replace(default_spec("fig6"), p_in_db=(0.0,), group_size=(2,))
    pt = point(spec, p_db=0.0, m=2)
    a = closed_form_baseline(spec, pt)
    b = closed_form_baseline(spec, replace(pt, n=777))  # n plays no role
    assert a == b
    assert 0.0 < a < math.log2(1.0 + 4.0 * 2.0)  # below the per-hop cap
    assert BASELINE_N == 1_000_000


def test_fig6_reference_runs_once_per_cell(tmp_path, monkeypatch):
    spec = spec_from_dict({"experiment": "fig6", "p_in_db": [0.0, 5.0],
                           "n_slots": [20, 40], "trials": 2})
    calls = []
    real = ehnet.experiments.run_non_eh

    def counting(config, **kwargs):
        calls.append(config.n_slots)
        return real(config, **kwargs)

    monkeypatch.setattr(ehnet.experiments, "run_non_eh", counting)
    ehnet.experiments._relay_reference.cache_clear()
    rows = run_experiment(spec)
    # two (power, hops) cells, each shared by both run lengths
    assert calls == [BASELINE_N, BASELINE_N]
    path = tmp_path / "fig6.csv"
    write_csv(rows, path)
    # SHA-256 of this sweep's CSV when every grid point runs its own
    # reference run
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2f229af42ad0e169cd9bc10704dec6480594696d6d107641c7cf20df78dfe206")


# ---------------------------------------------------------------------------
# sweep runner and CSV


def tiny_spec():
    return spec_from_dict({"experiment": "fig1", **TINY})


def test_run_experiment_row_layout():
    rows = run_experiment(tiny_spec())
    assert len(rows) == 6
    assert [r.mode for r in rows] == ["eh", "non_eh", "closed_form"] * 2
    assert [r.p_in_db for r in rows[::3]] == [0.0, 10.0]
    for r in rows:
        assert r.experiment_id == "fig1"
        assert math.isfinite(r.u_mean)


def test_run_experiment_worker_count_is_invisible(tmp_path):
    # More points than workers, so a worker runs several of them.  fig2's
    # workers solve their thresholds with the QUADPACK module that
    # validation loaded: the threshold cache is emptied before each run.
    for name in ("fig1", "fig2"):
        spec = spec_from_dict({"experiment": name, **TINY,
                               "p_in_db": [0.0, 5.0, 10.0, 15.0, 20.0]})
        ehnet.experiments._waterfill_threshold.cache_clear()
        rows_serial = run_experiment(spec)
        serial = tmp_path / f"{name}-serial.csv"
        write_csv(rows_serial, serial)
        for jobs in (2, 3):
            ehnet.experiments._waterfill_threshold.cache_clear()
            rows_pool = run_experiment(spec, jobs=jobs)
            assert rows_pool == rows_serial
            pooled = tmp_path / f"{name}-jobs{jobs}.csv"
            write_csv(rows_pool, pooled)
            assert pooled.read_bytes() == serial.read_bytes()


def test_run_experiment_starts_no_more_workers_than_points(monkeypatch):
    asked = []

    class InProcessPool:
        """Records the worker count it is asked for; maps in-process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    assert run_experiment(tiny_spec(), jobs=5000) == run_experiment(
        tiny_spec())
    assert asked == [2]


def test_csv_layout_and_roundtrip(tmp_path):
    rows = run_experiment(tiny_spec())
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 1 + len(rows)
    # repr round-trip: parsing the text recovers the exact floats
    first = lines[1].split(",")
    assert float(first[6]) == rows[0].u_mean


# SHA-256 of small sweeps of every experiment (3 trials, n_slots 100 and
# 1000, one power for fig6), pinned from the code before trials ran in
# batches.  Any change to the numbers a sweep writes changes one of them.
SMALL_SWEEP_SHA256 = {
    "fig1": "c9e242498acf33e5cff45a69115710a38a664cfee0c5c776295479c19d5cdf7c",
    "fig2": "9c0275a218fd2aaf7a4712e9e1f7fd515aaadf8f174805a70963964a5f20c5a9",
    "fig3": "1f58c5f23d07aa3769dfdfc3c7fed186baf07488cbfe3e3105c516b55a79daf9",
    "fig4": "e38d270ed607ffbf45b4b338c5356e7985d0d0a0da11d3d18b9a0072378ff437",
    "fig5": "a8aec36ba573ff5ce649b0b538c139d92700eeff0d5cd9fe50756545599eb8f4",
    "fig6": "2689e22f6303de3ff51c2c0e2208f883f895335fd0b149bd13a8b352fe16d537",
}


@pytest.mark.parametrize("experiment", sorted(SMALL_SWEEP_SHA256))
def test_small_sweep_csv_is_byte_identical(experiment, tmp_path):
    spec = replace(default_spec(experiment), trials=3, n_slots=(100, 1000))
    if experiment == "fig6":
        spec = replace(spec, p_in_db=spec.p_in_db[:1])
    path = tmp_path / f"{experiment}.csv"
    write_csv(run_experiment(spec), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SMALL_SWEEP_SHA256[experiment]


# SHA-256 of fig1 sweeps at 100 slots under master seeds of three and five
# uint32 words, pinned with one SeedSequence per stream and trial seed.
# Ten trials take the batch hash for both; three take SeedSequence alone.
LARGE_SEED_SHA256 = {
    (2**128 + 1, 3):
        "94572203e9a2956830146df188a9185cc9d786c59dff290b703a0f5f8f4dbc7f",
    (2**128 + 1, 10):
        "5b6ded766bb25067694da4c1d5594c528c4fa0d7190bd06789bfc227cba36419",
    (2**64, 3):
        "afc44a5392c5d9c13775ecda803d1a35e7cf8bcb54c958353efa44fa7e8d48fc",
    (2**64, 10):
        "86a7b315c9b92c3c457409f6990a8658885b885851bc8178535a7e3ab7882039",
}


@pytest.mark.parametrize("seed, trials", sorted(LARGE_SEED_SHA256),
                         ids=["2^64-3trials", "2^64-10trials",
                              "2^128+1-3trials", "2^128+1-10trials"])
def test_large_master_seed_csv_is_byte_identical(seed, trials, tmp_path):
    spec = replace(default_spec("fig1"), trials=trials, n_slots=(100,),
                   seed=seed)
    path = tmp_path / "fig1.csv"
    write_csv(run_experiment(spec), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == LARGE_SEED_SHA256[(seed, trials)]


def test_point_rows_batch_trials_by_slot_links(monkeypatch):
    # One `run_eh` call per grid point with all its seeds.  The simulator
    # runs them side by side in groups of CHUNK_SLOT_LINKS = 2^15 slot-
    # links: 65 trials of 100 slots x 5 links, one of 5000; 327 trials of
    # 100 slots x 1 link, 3 of 10^4 and one of 10^6.  Only the sizes are
    # checked, so the groups are not walked.
    calls, groups = [], []
    run_eh = ehnet.experiments.run_eh
    summary = SimpleNamespace(avg_utility=0.5, non_eh_utility=0.5,
                              mismatch_union=0.0)

    def counting_run_eh(config, *, seeds):
        calls.append((config.n_slots, len(seeds)))
        return run_eh(config, seeds=seeds)

    def counting_walk(config, streams, *args):
        # One `Stream` per process run, each with one lane per key and
        # trial of the group.
        trials = len(streams[0].seed)
        groups.append((config.n_slots, trials))
        return [summary] * trials

    monkeypatch.setattr(ehnet.experiments, "run_eh", counting_run_eh)
    monkeypatch.setattr(ehnet.simulator, "_walk", counting_walk)
    cases = [
        ({"experiment": "fig5", "n_slots": [100, 5000], "group_size": [5],
          "trials": 40},
         [(100, 40), (5000, 40)],
         [(100, 40)] + [(5000, 1)] * 40),
        ({"experiment": "fig1", "n_slots": [100, 10_000, 10**6],
          "trials": 90},
         [(100, 90), (10_000, 90), (10**6, 90)],
         [(100, 90)] + [(10_000, 3)] * 30 + [(10**6, 1)] * 90),
    ]
    for config, expected_calls, expected_groups in cases:
        calls.clear()
        groups.clear()
        run_experiment(spec_from_dict({"p_in_db": [0.0], **config}))
        assert calls == expected_calls
        assert groups == expected_groups


def test_seed_changes_results():
    rows1 = run_experiment(tiny_spec())
    rows2 = run_experiment(replace(tiny_spec(), seed=99))
    assert rows1 != rows2
    # closed forms do not depend on the seed for this experiment
    assert [r for r in rows1 if r.mode == "closed_form"] == [
        r for r in rows2 if r.mode == "closed_form"]


def test_eh_mismatch_reported_only_for_eh_rows():
    rows = run_experiment(replace(tiny_spec(), initial_fill=0.0))
    eh = [r for r in rows if r.mode == "eh"]
    other = [r for r in rows if r.mode != "eh"]
    assert any(r.mismatch_mean > 0.0 for r in eh)  # cold start must starve
    assert all(r.mismatch_mean == 0.0 for r in other)


# ---------------------------------------------------------------------------
# command line


def write_config(tmp_path, name="cfg.json", **overrides):
    payload = {"experiment": "fig1", **TINY, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# SHA-256 of the `list-experiments` output, pinned before the experiments
# moved into one registry.
LISTING_SHA256 = (
    "1b0addc953d3ae5889f26905e519cb5d52aa70291b887b61b4fe7cd78ea23940")


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_SHA256


def test_cli_validate_ok_and_bad(tmp_path, capsys):
    good = write_config(tmp_path)
    assert main(["validate", "--config", str(good)]) == 0
    bad = write_config(tmp_path, name="bad.json", bogus_key=1)
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bogus_key" in err


@pytest.mark.parametrize("entry", [
    '"n_slots": 10.7',
    '"n_slots": true',
    '"trials": 2.9',
    '"trials": Infinity',
    '"group_size": [1e400]',
], ids=["fraction", "boolean", "fractional_trials", "infinite_trials",
        "overflowing_group"])
def test_cli_validate_rejects_non_integer_counts(tmp_path, capsys, entry):
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "fig5", ' + entry + '}')
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "must be an integer" in err


@pytest.mark.parametrize("entry", [
    '"p_in_db": ["10"]',
    '"initial_fill": "0.5"',
    '"b_max_ratio": ["2e2"]',
    '"b_max_ratio": [null, "20"]',
    '"rate_threshold": true',
    '"circuit_power_db": "-25"',
], ids=["power_string", "fill_string", "ratio_string", "ratio_after_null",
        "boolean_threshold", "circuit_string"])
def test_cli_validate_rejects_non_numeric_floats(tmp_path, capsys, entry):
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "fig3", ' + entry + '}')
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "must be a number" in err


@pytest.mark.parametrize("config", [
    {"experiment": "fig1", "p_in_db": [4000]},
    {"experiment": "fig3", "circuit_power_db": 4000},
    {"experiment": "fig1", "p_in_db": [-4000]},
    {"experiment": "fig1", "p_in_db": [3080], "b_max_ratio": [200]},
], ids=["power_overflows", "circuit_power_overflows", "power_underflows",
        "capacity_overflows"])
def test_cli_rejects_powers_that_are_not_positive_and_finite(tmp_path, capsys,
                                                            config):
    path = write_config(tmp_path, **config)
    out = tmp_path / "x.csv"
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--out", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
@pytest.mark.parametrize("ratio", [None, 1.0], ids=["unbounded", "ratio_1"])
def test_cli_rejects_powers_whose_harvest_draws_overflow(tmp_path, capsys,
                                                         name, ratio):
    # p = 1e308 is finite, and so is the capacity at ratio 1, but an
    # exponential draw reaches 36.7 p; fig6's relays request 2p.
    path = write_config(tmp_path, experiment=name, p_in_db=[3080],
                        b_max_ratio=[ratio], group_size=[2])
    out = tmp_path / "x.csv"
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--out", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "overflows" in err
    assert not out.exists()


def test_largest_harvest_draw_bounds_the_accepted_powers():
    class Top:  # the largest double that `Stream.uniforms` can return
        def uniforms(self, n, out=None):
            return np.full(n, 1.0 - 2.0**-53)

    assert ExponentialProcess(1.0).sample(Top(), 1)[0] == \
        LARGEST_EXPONENTIAL_DRAW == 53 * math.log(2.0)
    # The powers either side of the bound, about 3066.9 dB.
    for p_db, ok in ((3066.8, True), (3066.9, False)):
        p = 10.0 ** (p_db / 10.0)
        assert math.isfinite(p * LARGEST_EXPONENTIAL_DRAW) == ok
        config = {"experiment": "fig1", "p_in_db": [p_db],
                  "b_max_ratio": [None]}
        if ok:
            spec_from_dict(config)
        else:
            with pytest.raises(ConfigError, match="overflows"):
                spec_from_dict(config)


def test_float_fields_take_numbers_and_null_where_allowed():
    spec = spec_from_dict({"experiment": "fig3", "p_in_db": [10, -2.5],
                           "b_max_ratio": [None, 20], "initial_fill": 1,
                           "circuit_power_db": None})
    assert spec.p_in_db == (10.0, -2.5)
    assert spec.b_max_ratio == (None, 20.0)
    assert spec.initial_fill == 1.0 and spec.circuit_power_db is None
    assert all(type(v) is float for v in (*spec.p_in_db, spec.initial_fill))


# JSON values where a config expects a number, a list or a name: wrong
# types, nested lists, NaN, +-Infinity and integers too large for a float.
_fuzz_scalars = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 10**400, -10**400, math.nan,
                     math.inf, -math.inf, 1e308, -0.0, "", "10", "a\nb"]),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(sorted(EXPERIMENTS)),
)
_fuzz_values = st.recursive(
    _fuzz_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=2)),
    max_leaves=6,
)


@st.composite
def fuzzed_config(draw):
    """A valid config with some keys replaced, dropped or added, or now and
    then a root that is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_fuzz_values)
    spec = default_spec(draw(st.sampled_from(sorted(EXPERIMENTS))))
    cfg = {**asdict(spec), "trials": 2}
    keys = sorted(cfg)
    for key in draw(st.lists(st.sampled_from(keys), unique=True,
                             min_size=1, max_size=3)):
        cfg[key] = draw(_fuzz_values)
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=2)):
        cfg.pop(key, None)
    if draw(st.integers(0, 3)) == 0:
        extra = st.one_of(st.text(max_size=6), st.just("a\nb"))
        cfg.update(draw(st.dictionaries(extra, _fuzz_values, min_size=1,
                                        max_size=2)))
    return cfg


@given(fuzzed_config())
@example({"experiment": "fig1", "p_in_db": [10**400]})  # OverflowError
@example({"experiment": "fig1", "a\nb": 1})  # a newline in the message
@settings(max_examples=300, deadline=None)
def test_cli_validate_fuzzed_configs(cfg):
    # main() must turn every bad config into an exit code and at most one
    # line on stderr; an exception escaping it would be a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--config", path])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err
    assert (code == 0) == (err == "")


def test_integral_floats_are_accepted_as_counts():
    spec = spec_from_dict({"experiment": "fig5", "n_slots": [100.0],
                           "group_size": 2.0, "trials": 3.0, "seed": 4.0})
    assert (spec.n_slots, spec.group_size, spec.trials, spec.seed) == (
        (100,), (2,), 3, 4)
    assert all(type(v) is int for v in (*spec.n_slots, spec.trials))


def test_cli_run_writes_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 7


def test_cli_overrides_seed_and_trials(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2, out3 = (tmp_path / f"o{i}.csv" for i in range(3))
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2),
                 "--seed", "5"]) == 0
    assert out1.read_bytes() != out2.read_bytes()
    assert main(["run", "--config", str(cfg), "--out", str(out3),
                 "--trials", "3"]) == 0
    assert len(out3.read_text().splitlines()) == 7


@pytest.mark.parametrize("trials", [2, 20], ids=["walk", "lanes"])
def test_cli_run_near_the_largest_power_is_silent(tmp_path, capsys, trials):
    # At 3066 dB a level plus a harvest overflows to inf before the clip
    # to capacity, as the scalar loop's Python floats do without a word.
    # Two trials take the single-link walk, 20 the pass across lanes.
    cfg = write_config(tmp_path, p_in_db=[3066], b_max_ratio=[40],
                       n_slots=[50], trials=trials)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_missing_config_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing),
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"[" * 100_000 + b"]" * 100_000,
    b'{"experiment": "fig1", "seed": \xff}',
], ids=["nested_too_deep", "not_utf8"])
def test_cli_undecodable_config_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_cli_unreachable_budget_is_a_numerical_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, name="hot.json", experiment="fig2",
                       p_in_db=[120.0])
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_threshold_solver_failure_is_a_numerical_failure(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ehnet.policies, "LAMBDA_MAX_ITER", 1)
    ehnet.experiments._waterfill_threshold.cache_clear()
    cfg = write_config(tmp_path, experiment="fig2")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "bisections" in err
    assert not out.exists()


def test_cli_unwritable_out_fails_before_the_sweep(tmp_path, capsys,
                                                  monkeypatch):
    cfg = write_config(tmp_path)
    swept = []
    monkeypatch.setattr(ehnet.cli, "run_experiment",
                        lambda *args, **kwargs: swept.append(args))
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
    assert not swept


def test_cli_rejects_jobs_below_one(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    swept = []
    monkeypatch.setattr(ehnet.cli, "run_experiment",
                        lambda *args, **kwargs: swept.append(args))
    for jobs in ("0", "-3"):
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "x.csv"), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert jobs in err
    assert not swept
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "x.json"],
    ["run", "--config", "x.json", "--out", "x.csv", "--jobs", "abc"],
    ["run", "--config", "x.json", "--out", "x.csv", "--trials", "1.5"],
    ["validate"],
    ["validate", "--config", "x.json", "extra"],
    ["bogus"],
    [],
], ids=["no_out", "jobs_not_int", "trials_not_int", "no_config",
        "extra_argument", "unknown_command", "empty"])
def test_cli_usage_errors_are_one_line_and_exit_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ehnet")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_help_exits_0(capsys):
    for argv in (["-h"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: ehnet" in capsys.readouterr().out


# Argument tokens: commands and options, small numbers, free text, and
# placeholders for paths made fresh for each example.
_PATHS = ("<config>", "<bad-config>", "<missing>", "<dir>", "<out>")
_fuzz_tokens = st.one_of(
    st.sampled_from(["run", "validate", "list-experiments", "--config",
                     "--out", "--seed", "--trials", "--jobs", "-h", "--",
                     "--conf", "--jobs=2", "-", ""]),
    st.sampled_from(_PATHS),
    st.integers(min_value=-3, max_value=3).map(str),
    st.text(max_size=6),
)


@st.composite
def fuzzed_argv(draw):
    """An argument list, now and then starting from a valid `run` or
    `validate` call."""
    head = draw(st.sampled_from([
        [], ["run", "--config", "<config>", "--out", "<out>"],
        ["validate", "--config", "<config>"],
    ]))
    return head + draw(st.lists(_fuzz_tokens, max_size=6))


def _capped_run(spec, *, jobs=1):
    # The fuzzed arguments may ask for any trial or worker count: check
    # them as `run_experiment` does, then run at most 2 trials serially.
    validate_spec(spec)
    return run_experiment(replace(spec, trials=min(spec.trials, 2)))


@given(fuzzed_argv())
@example(["run", "--config", "<config>", "--out", ""])
@example(["run", "--config", "<config>", "--out", "a\x00b"])
@example(["validate", "--config", "a\nb"])
@settings(max_examples=300, deadline=None)
def test_cli_fuzzed_arguments(argv):
    # main() must end every argument list in an exit code and at most one
    # line on stderr; an exception escaping it would be a traceback
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "cfg.json")
        with open(good, "w", encoding="utf-8") as fh:
            json.dump({"experiment": "fig1", **TINY, "p_in_db": [0.0]}, fh)
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "wb") as fh:
            fh.write(b'{"experiment": "fig1", "seed": \xff}')
        paths = dict(zip(_PATHS, (good, bad, os.path.join(tmp, "nope.json"),
                                  tmp, os.path.join(tmp, "out.csv"))))
        argv = [paths.get(token, token) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(ehnet.cli, "run_experiment", _capped_run):
            try:
                code = main(argv)
            except SystemExit as exc:  # -h and --help
                code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    assert (code == 0) == (err == "")
