"""Half-duplex amplify-and-forward chain: schedule, warmup and convergence.

Run:  python3 demos/relay_chain.py
"""

import math

import numpy as np

from ehnet.battery import trajectory
from ehnet.experiments import (
    build_config,
    default_spec,
    grid_points,
    paired_gap,
)
from ehnet.simulator import run_eh
from ehnet.stochastic import Stream


def per_slot(cfg, seed):
    """Each node's harvests, the granted powers and the delivered rate, slot
    by slot, on run seed `seed`.  A run keeps only averages, but every node
    draws from its own streams and steps its own battery, so the public
    pieces give the run's per-slot values bit for bit."""
    n = cfg.n_slots
    slots = np.arange(1, n + 1)
    gains = np.column_stack([
        link.fading.sample(Stream(seed, (1, link.tx, link.rx)), n)
        for link in cfg.links])
    harvest, actual = {}, np.empty_like(gains)
    for t in cfg.transmitters:
        cols = [c for c, link in enumerate(cfg.links) if link.tx == t.node]
        harvest[t.node] = t.harvest.sample(Stream(seed, (0, t.node, 0)), n)
        desired = t.policy.desired_powers(slots, gains[:, cols])
        actual[:, cols], _ = trajectory(desired, harvest[t.node],
                                        capacity=t.capacity,
                                        initial=t.initial_level)

    def delayed(values):  # each hop's column as the utility reads it
        return np.column_stack([
            np.concatenate([np.zeros(link.delay), values[:n - link.delay, c]])
            for c, link in enumerate(cfg.links)])

    utility = cfg.utility.evaluate(slots, delayed(actual), delayed(gains))
    return slots, harvest, actual, utility


def schedule_picture():
    print("=== who talks when ===")
    spec = default_spec("fig6")
    pt = [q for q in grid_points(spec) if q.n == 100 and q.p_db == 10.0][0]
    cfg = build_config(spec, pt)
    slots, _, actual, utility = per_slot(cfg, 0)
    show = 12
    print("slot:        " + " ".join(f"{s:>2}" for s in slots[:show]))
    for col, link in enumerate(cfg.links):
        marks = ["tx" if actual[i, col] > 0 else " ." for i in range(show)]
        print(f"hop {link.tx}->{link.rx}:   " + " ".join(f"{m:>2}" for m in marks))
    marks = ["ok" if utility[i] > 0 else " ." for i in range(show)]
    print("delivered:   " + " ".join(f"{m:>2}" for m in marks))
    print("hops alternate parity, so adjacent slots never share a node;")
    print("deliveries land on even slots once the pipeline has filled.")
    overlap = actual[:-1] * actual[1:]
    print(f"adjacent-slot activity product, max over run: {np.max(overlap)}\n")


def why_even_hop_counts():
    print("=== why the chain needs an even number of hops ===")
    print("a delivery in slot i uses hop k's transmission from slot i-(H-k).")
    print("hop k transmits when slot parity equals k's parity, which forces")
    print("i to have the parity of H.  deliveries only count on even slots,")
    print("so an odd H never delivers anything: the bundled sweep rejects it.\n")


def convergence():
    print("=== battery-limited vs unconstrained chain ===")
    spec = default_spec("fig6")
    print(f"{'p [dB]':>7} {'n':>6} {'eh rate':>10} {'non-eh':>10} {'gap %':>8}")
    for p_db in (0.0, 10.0):
        for n in (100, 10_000):
            pt = [q for q in grid_points(spec)
                  if q.n == n and q.p_db == p_db][0]
            stats = paired_gap(build_config(spec, pt), range(10))
            gap = (stats.non_eh_mean - stats.eh_mean) / stats.non_eh_mean * 100
            print(f"{p_db:7.1f} {n:>6} {stats.eh_mean:10.5f} "
                  f"{stats.non_eh_mean:10.5f} {gap:8.4f}")
    print("the back half of the chain is deliberately throttled to half its")
    print("intake, so those buffers only ever grow: feasibility is the front")
    print("half's problem, and a warm buffer makes the gap vanish.\n")


def absorbing_buffers_grow():
    print("=== the throttled relays really do hoard energy ===")
    spec = default_spec("fig6")
    pt = [q for q in grid_points(spec) if q.n == 10_000 and q.p_db == 10.0][0]
    cfg = build_config(spec, pt)
    summary = run_eh(cfg, [0])
    _, harvest, actual, _ = per_slot(cfg, 0)
    n = cfg.n_slots
    for i, t in enumerate(cfg.transmitters):
        cols = [c for c, link in enumerate(cfg.links) if link.tx == t.node]
        avg_in = math.fsum(harvest[t.node].tolist()) / n
        avg_out = math.fsum(actual[:, cols].ravel().tolist()) / n
        drift = avg_in - avg_out
        print(f"  node {t.node}: avg in {avg_in:7.3f}, "
              f"avg out {avg_out:7.3f}, "
              f"drift {drift:+7.3f}/slot, final level "
              f"{summary.final_level[0, i]:12.1f}")
    print("front-half nodes break even; back-half nodes bank half their")
    print("intake every slot until the cap stops them.\n")


if __name__ == "__main__":
    schedule_picture()
    why_even_hop_counts()
    convergence()
    absorbing_buffers_grow()
