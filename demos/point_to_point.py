"""Point-to-point link: outage and water-filling against their oracles.

Run:  python3 demos/point_to_point.py
"""

import math
from dataclasses import replace

from ehnet.experiments import (
    build_config,
    default_spec,
    grid_points,
    paired_gap,
)
from ehnet.policies import (
    AmplifierModel,
    WaterfillPolicy,
    expected_desired_power,
    solve_lambda,
)
from ehnet.stochastic import expectation_quadrature, exponential_pdf


def outage_convergence():
    print("=== outage probability vs the closed form ===")
    spec = default_spec("fig1")
    seeds = range(20)
    print(f"{'p [dB]':>7} {'n':>6} {'eh':>10} {'non-eh':>10} {'closed':>10} "
          f"{'eh/closed':>10}")
    for p_db in (0.0, 10.0, 20.0):
        p = 10.0 ** (p_db / 10.0)
        closed = -math.expm1(-(2.0 ** spec.rate_threshold - 1.0) / p)
        for n in (100, 10_000):
            pt = [q for q in grid_points(spec) if q.n == n and q.p_db == p_db][0]
            cfg = build_config(spec, pt)
            stats = paired_gap(cfg, seeds)
            print(f"{p_db:7.1f} {n:>6} {stats.eh_mean:10.5f} "
                  f"{stats.non_eh_mean:10.5f} {closed:10.5f} "
                  f"{stats.eh_mean / closed:10.4f}")
    print("with the battery starting full, both horizons track the closed")
    print("form; the n=100 run cannot even starve inside 100 slots.\n")


def cold_start_penalty():
    print("=== the cost of starting empty ===")
    spec = replace(default_spec("fig1"), initial_fill=0.0)
    seeds = range(20)
    print(f"{'p [dB]':>7} {'n':>6} {'eh':>10} {'non-eh':>10} {'inflation':>10}")
    for p_db in (10.0, 20.0, 30.0):
        for n in (100, 10_000):
            pt = [q for q in grid_points(spec) if q.n == n and q.p_db == p_db][0]
            cfg = build_config(spec, pt)
            stats = paired_gap(cfg, seeds)
            print(f"{p_db:7.1f} {n:>6} {stats.eh_mean:10.5f} "
                  f"{stats.non_eh_mean:10.5f} "
                  f"{stats.eh_mean / stats.non_eh_mean:10.3f}x")
    print("an empty buffer must climb to its working range first; rare-event")
    print("metrics like high-power outage amplify that transient badly, which")
    print("is why the bundled sweeps bank a full buffer before slot 1.\n")


def waterfilling():
    print("=== water-filling threshold and rate ===")
    budget = 1.0
    def policy_at(lam):
        return WaterfillPolicy(AmplifierModel(), lam)

    lam = solve_lambda(budget,
                       lambda lam: policy_at(lam).expected_request_rayleigh())
    spent = expected_desired_power(policy_at(lam), exponential_pdf(1.0))
    rate = expectation_quadrature(
        lambda g: math.log2(g / lam), exponential_pdf(1.0), lower=lam)
    print(f"budget {budget}: threshold lam = {lam:.10f}")
    print(f"  expected request  {spent:.10f}  (should equal the budget)")
    print(f"  expected rate     {rate:.10f}  bits/slot")
    spec = default_spec("fig2")
    pt = [q for q in grid_points(spec) if q.n == 10_000 and q.p_db == 0.0][0]
    stats = paired_gap(build_config(spec, pt), range(20))
    print(f"  simulated, n=1e4: eh {stats.eh_mean:.6f} vs non-eh "
          f"{stats.non_eh_mean:.6f} (gap {stats.gap_mean:+.2e})")
    print("the adaptive policy waits for good slots, yet its battery almost")
    print("never runs dry once the buffer is warm: the rate loss is tiny.\n")


if __name__ == "__main__":
    outage_convergence()
    cold_start_penalty()
    waterfilling()
