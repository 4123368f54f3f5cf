"""Acceptance suite: one test per release criterion, each printing a verdict.

Every test times the work it is responsible for and asserts both the
numerical tolerance and the runtime budget.  Criteria that share a sweep
reuse one cached run; the wall time of that run is charged to the
criterion listed in its fixture.  Everything here is deterministic: the
sweep seeds come from the shipped config files.

Run with `pytest -v tests/test_acceptance.py`; the verdict lines print
straight to the terminal even under capture.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ehnet.experiments import (
    build_config,
    grid_points,
    load_spec,
    run_experiment,
    trial_seed,
    write_csv,
)
from ehnet.policies import (
    AmplifierModel,
    ConstantPolicy,
    WaterfillPolicy,
    expected_desired_power,
    solve_lambda,
)
from ehnet.simulator import (
    LinkSpec,
    SimulationConfig,
    TransmitterSpec,
    run_eh,
    run_non_eh,
)
from ehnet.stochastic import ExponentialProcess, expectation_quadrature, exponential_pdf
from ehnet.utilities import BroadcastSumRateUtility, OutageUtility, rayleigh_bpsk_ber

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def timed_experiment(name):
    spec = load_spec(CONFIGS / f"{name}.json")
    t0 = time.perf_counter()
    rows = run_experiment(spec)
    return spec, rows, time.perf_counter() - t0


def rows_by(rows, **sel):
    return [r for r in rows if all(getattr(r, k) == v for k, v in sel.items())]


def one(rows, **sel):
    found = rows_by(rows, **sel)
    assert len(found) == 1, (sel, len(found))
    return found[0]


def one_point(spec, **sel):
    found = [pt for pt in grid_points(spec)
             if all(getattr(pt, k) == v for k, v in sel.items())]
    assert len(found) == 1, (sel, len(found))
    return found[0]


# Cached sweep runs.  Attribution: fig1 -> criterion 3, fig2 -> 4,
# fig3 (floor part) -> 5, fig4 (n=100 part) -> 6, fig5 -> 7, fig6 -> 8.


@pytest.fixture(scope="session")
def fig1_run():
    return timed_experiment("fig1")


@pytest.fixture(scope="session")
def fig2_run():
    return timed_experiment("fig2")


@pytest.fixture(scope="session")
def fig3_floor_run():
    spec = load_spec(CONFIGS / "fig3.json")
    pc_db = spec.circuit_power_db
    floor = replace(spec, p_in_db=tuple(p for p in spec.p_in_db if p <= pc_db))
    t0 = time.perf_counter()
    rows = run_experiment(floor)
    return floor, rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def fig4_short_run():
    spec = replace(load_spec(CONFIGS / "fig4.json"), n_slots=(100,))
    t0 = time.perf_counter()
    rows = run_experiment(spec)
    return spec, rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def fig5_run():
    return timed_experiment("fig5")


@pytest.fixture(scope="session")
def fig6_run():
    return timed_experiment("fig6")


# ---------------------------------------------------------------------------


def test_criterion_1_conservation(capsys):
    # 50 random unbounded-battery configs: stored + spent == banked, 1e-9 rel
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(50, 2000))
        n_tx = int(rng.integers(1, 3))
        txs, links = [], []
        for node in range(n_tx):
            mean = float(rng.uniform(0.1, 10.0))
            n_links = int(rng.integers(1, 3))
            txs.append(TransmitterSpec(
                node=node,
                harvest=ExponentialProcess(mean),
                policy=ConstantPolicy(float(rng.uniform(0.0, 3.0 * mean)),
                                      num_links=n_links),
                initial_level=float(rng.uniform(0.0, 5.0)),
            ))
            links.extend(LinkSpec(node, 100 + len(links), ExponentialProcess(1.0))
                         for _ in range(n_links))
        cfg = SimulationConfig(
            n_slots=n,
            transmitters=tuple(txs),
            links=tuple(links),
            utility=BroadcastSumRateUtility(len(links)),
            seed=int(rng.integers(0, 2 ** 31)),
        )
        summary, trace = run_eh(cfg, return_trace=True)
        cols = {t.node: [] for t in txs}
        for col, link in enumerate(cfg.links):
            cols[link.tx].append(col)
        for t in txs:
            banked = t.initial_level + math.fsum(trace.harvest[t.node].tolist())
            spent = math.fsum(trace.actual[:, cols[t.node]].ravel().tolist())
            rel = abs(banked - (spent + summary.final_level[t.node]))
            rel /= max(abs(banked), 1.0)
            worst = max(worst, rel)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    report(capsys, 1, "conservation", ok,
           f"worst relative drift {worst:.2e} (limit 1e-9), {dt:.1f}s (limit 10s)")


def test_criterion_2_mismatch_decay(capsys):
    # constant request equal to the average intake, cold start, 20 seeds:
    # the starving-slot fraction must shrink with the horizon
    t0 = time.perf_counter()
    means = {}
    for n in (100, 10_000):
        vals = []
        for seed in range(20):
            cfg = SimulationConfig(
                n_slots=n,
                transmitters=(TransmitterSpec(
                    0, ExponentialProcess(1.0), ConstantPolicy(1.0),
                    capacity=200.0),),
                links=(LinkSpec(0, 1, ExponentialProcess(1.0)),),
                utility=OutageUtility(1.0),
                seed=seed,
            )
            vals.append(run_eh(cfg).mismatch_fraction[0])
        means[n] = math.fsum(vals) / len(vals)
    dt = time.perf_counter() - t0
    ok = means[10_000] < means[100] and means[10_000] < 0.05 and dt < 30.0
    report(capsys, 2, "mismatch decay", ok,
           f"mean mismatch {means[100]:.4f} @ n=1e2 -> {means[10_000]:.4f} "
           f"@ n=1e4 (limit 0.05), {dt:.1f}s (limit 30s)")


def test_criterion_3_outage_envelope(capsys, fig1_run):
    spec, rows, dt = fig1_run
    theta = 2.0 ** spec.rate_threshold - 1.0

    # long horizon: within 5% relative of the closed form at every power
    worst_env = 0.0
    for r in rows_by(rows, n_slots=10_000, mode="eh"):
        closed = one(rows, n_slots=10_000, mode="closed_form", p_in_db=r.p_in_db)
        worst_env = max(worst_env, abs(r.u_mean - closed.u_mean) / closed.u_mean)

    # short horizon: horizontal displacement below 3 dB at every sampled
    # outage level, measured against the closed-form curve and against the
    # paired simulated curve (identical curves displace by zero)
    worst_closed, worst_paired = 0.0, 0.0

    def db_at(outage):
        return 10.0 * math.log10(theta / (-math.log1p(-outage)))

    for r in rows_by(rows, n_slots=100, mode="eh"):
        non = one(rows, n_slots=100, mode="non_eh", p_in_db=r.p_in_db)
        assert 0.0 < r.u_mean < 1.0, "sampled outage level must be interior"
        worst_closed = max(worst_closed, abs(r.p_in_db - db_at(r.u_mean)))
        if r.u_mean == non.u_mean:
            pair = 0.0
        else:
            pair = abs(db_at(r.u_mean) - db_at(non.u_mean))
        worst_paired = max(worst_paired, pair)

    ok = worst_env < 0.05 and worst_closed < 3.0 and worst_paired < 3.0 \
        and dt < 120.0
    report(capsys, 3, "outage envelope", ok,
           f"n=1e4 worst gap {worst_env:.4f} (limit 0.05); n=1e2 displacement "
           f"{worst_closed:.2f} dB vs closed form, {worst_paired:.2f} dB vs "
           f"paired run (limit 3); {dt:.1f}s (limit 120s)")


def test_fig1_reference_curve_tracks_closed_form(fig1_run):
    # not a numbered criterion: the unconstrained curve itself must sit
    # within 3 standard errors of the analytic outage at every grid point
    spec, rows, _ = fig1_run
    for r in rows_by(rows, mode="non_eh"):
        p = 10.0 ** (r.p_in_db / 10.0)
        closed = -math.expm1(-(2.0 ** spec.rate_threshold - 1.0) / p)
        assert abs(r.u_mean - closed) <= 3.0 * r.u_stderr, (r, closed)


def test_criterion_4_waterfilling_oracle(capsys, fig2_run):
    spec, rows, dt_sweep = fig2_run
    t0 = time.perf_counter()

    # threshold solver meets its relative budget at every grid power
    def ideal(lam):
        return WaterfillPolicy(AmplifierModel(), lam)

    worst_resid = 0.0
    for p_db in spec.p_in_db:
        p = 10.0 ** (p_db / 10.0)
        lam = solve_lambda(p, ideal, exponential_pdf(1.0))
        spent = expected_desired_power(ideal(lam), exponential_pdf(1.0))
        worst_resid = max(worst_resid, abs(spent - p) / p)

    # long-run reference simulation against the quadrature rate
    lam1 = solve_lambda(1.0, ideal, exponential_pdf(1.0))
    rate_q = expectation_quadrature(
        lambda g: math.log2(g / lam1), exponential_pdf(1.0), lower=lam1)
    point = one_point(spec, n=10_000, p_db=0.0)
    cfg = replace(build_config(spec, point, 12345), n_slots=1_000_000)
    summary, trace = run_non_eh(cfg, return_trace=True)
    se = float(np.std(trace.utility, ddof=1)) / math.sqrt(len(trace.utility))
    z = abs(summary.avg_utility - rate_q) / se

    # battery-limited run within 5% of the unconstrained one at n=1e4
    worst_gap = 0.0
    for r in rows_by(rows, n_slots=10_000, mode="eh"):
        non = one(rows, n_slots=10_000, mode="non_eh", p_in_db=r.p_in_db)
        worst_gap = max(worst_gap, abs(r.u_mean - non.u_mean) / non.u_mean)

    dt = dt_sweep + (time.perf_counter() - t0)
    ok = worst_resid < 1e-8 and z < 3.0 and worst_gap < 0.05 and dt < 120.0
    report(capsys, 4, "water-filling oracle", ok,
           f"solver residual {worst_resid:.2e} (limit 1e-8); n=1e6 rate "
           f"{summary.avg_utility:.6f} vs quadrature {rate_q:.6f}, z={z:.2f} "
           f"(limit 3); n=1e4 worst gap {worst_gap:.4f} (limit 0.05); "
           f"{dt:.1f}s (limit 120s)")


def test_criterion_5_zero_rate_floor(capsys, fig3_floor_run):
    spec, rows, dt = fig3_floor_run
    checked = 0
    worst = 0.0
    for r in rows:
        assert r.p_in_db <= spec.circuit_power_db
        worst = max(worst, abs(r.u_mean), abs(r.u_stderr))
        checked += 1
    ok = checked > 0 and worst == 0.0 and dt < 30.0
    report(capsys, 5, "zero-rate floor", ok,
           f"{checked} rows at or below the circuit draw, largest magnitude "
           f"{worst} (must be exactly 0.0); {dt:.1f}s (limit 30s)")


def test_criterion_6_broadcast_receiver_invariance(capsys, fig4_short_run):
    spec, rows, dt = fig4_short_run
    m_lo, m_hi = min(spec.group_size), max(spec.group_size)
    worst = 0.0
    for p_db in spec.p_in_db:
        gaps = {}
        for m in (m_lo, m_hi):
            eh = one(rows, mode="eh", p_in_db=p_db, m=m)
            non = one(rows, mode="non_eh", p_in_db=p_db, m=m)
            gaps[m] = (non.u_mean - eh.u_mean) / non.u_mean * 100.0
        worst = max(worst, abs(gaps[m_lo] - gaps[m_hi]))
    ok = worst < 2.0 and dt < 120.0
    report(capsys, 6, "broadcast receiver invariance", ok,
           f"largest gap difference M={m_lo} vs M={m_hi}: {worst:.4f} pp "
           f"(limit 2); {dt:.1f}s (limit 120s)")


def test_criterion_7_mac_ber(capsys, fig5_run):
    spec, rows, dt_sweep = fig5_run
    t0 = time.perf_counter()

    # single-sender reference run against the diversity closed form
    point = one_point(spec, n=10_000, p_db=0.0, m=1)
    cfg = replace(build_config(spec, point, 999), n_slots=1_000_000)
    summary, trace = run_non_eh(cfg, return_trace=True)
    se = float(np.std(trace.utility, ddof=1)) / math.sqrt(len(trace.utility))
    closed = rayleigh_bpsk_ber(1.0, branches=1)
    z = abs(summary.avg_utility - closed) / se

    # battery-limited error rate within 5% at the long horizon, all M
    worst_gap = 0.0
    for r in rows_by(rows, n_slots=10_000, mode="eh"):
        non = one(rows, n_slots=10_000, mode="non_eh", p_in_db=r.p_in_db, m=r.m)
        worst_gap = max(worst_gap, abs(r.u_mean - non.u_mean) / non.u_mean)

    # short horizon: the relative loss cannot shrink when senders are added
    mono = True
    for p_db in spec.p_in_db:
        gaps = []
        for m in sorted(spec.group_size):
            eh = one(rows, n_slots=100, mode="eh", p_in_db=p_db, m=m)
            non = one(rows, n_slots=100, mode="non_eh", p_in_db=p_db, m=m)
            gaps.append((eh.u_mean - non.u_mean) / non.u_mean)
        mono = mono and all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:]))

    dt = dt_sweep + (time.perf_counter() - t0)
    ok = z < 3.0 and worst_gap < 0.05 and mono and dt < 180.0
    report(capsys, 7, "multi-access error rate", ok,
           f"n=1e6 ber {summary.avg_utility:.6f} vs closed {closed:.6f}, "
           f"z={z:.2f} (limit 3); n=1e4 worst gap {worst_gap:.4f} "
           f"(limit 0.05); n=1e2 loss non-decreasing in M: {mono}; "
           f"{dt:.1f}s (limit 180s)")


def test_criterion_8_relay_chain(capsys, fig6_run):
    spec, rows, dt_sweep = fig6_run
    worst_gap = 0.0
    for r in rows_by(rows, n_slots=10_000, mode="eh"):
        non = one(rows, n_slots=10_000, mode="non_eh", p_in_db=r.p_in_db, m=r.m)
        worst_gap = max(worst_gap, abs(r.u_mean - non.u_mean) / non.u_mean)

    # half-duplex invariant: adjacent slots never both carry power at a
    # node, checked on the full trace of every trial of every grid point
    t0 = time.perf_counter()
    runs = violations = 0
    for point in grid_points(spec):
        for trial in range(spec.trials):
            cfg = build_config(spec, point, trial_seed(spec.seed, point.index, trial))
            _, trace = run_eh(cfg, return_trace=True)
            runs += 1
            if np.any(trace.actual[:-1] * trace.actual[1:] != 0.0):
                violations += 1
    dt = dt_sweep + (time.perf_counter() - t0)
    ok = worst_gap < 0.05 and violations == 0 and dt < 180.0
    report(capsys, 8, "relay chain", ok,
           f"n=1e4 worst gap {worst_gap:.4f} (limit 0.05); half-duplex "
           f"violations {violations}/{runs} runs (limit 0); {dt:.1f}s "
           f"(limit 180s)")


def test_criterion_9_byte_identical_rerun(capsys, fig1_run, tmp_path):
    spec, rows, _ = fig1_run
    t0 = time.perf_counter()
    rows_again = run_experiment(spec)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_csv(rows, first)
    write_csv(rows_again, second)
    same = first.read_bytes() == second.read_bytes()
    dt = time.perf_counter() - t0
    ok = same and dt < 120.0
    report(capsys, 9, "deterministic rerun", ok,
           f"byte-identical csv: {same}; {dt:.1f}s (limit 120s)")
