"""Several nodes on one battery-limited medium: broadcast and multi-access.

Run:  python3 demos/multi_node.py
"""

from dataclasses import replace

from ehnet.experiments import (
    build_config,
    default_spec,
    grid_points,
    paired_gap,
)


def broadcast_receiver_invariance():
    print("=== broadcast: the receiver count does not matter ===")
    print("only the strongest receiver is served each slot, so the battery")
    print("sees one request stream regardless of how many receivers exist.")
    spec = default_spec("fig4")
    print(f"{'p [dB]':>7} {'M':>4} {'eh sum rate':>12} {'non-eh':>10} "
          f"{'gap %':>8}")
    for p_db in (0.0, 10.0, 20.0):
        for m in (2, 25):
            pt = [q for q in grid_points(spec)
                  if q.n == 100 and q.p_db == p_db and q.m == m][0]
            stats = paired_gap(build_config(spec, pt, 0), range(20))
            gap = (stats.non_eh_mean - stats.eh_mean) / stats.non_eh_mean * 100
            print(f"{p_db:7.1f} {m:>4} {stats.eh_mean:12.5f} "
                  f"{stats.non_eh_mean:10.5f} {gap:8.4f}")
    print("the battery-induced loss is the same for M=2 and M=25.\n")


def mac_loss_grows_with_senders():
    print("=== multi-access: more senders, more ways to starve ===")
    print("every sender runs its own battery; one cold start anywhere dents")
    print("the sum.  starting empty makes the dent grow with M:")
    spec = replace(default_spec("fig5"), initial_fill=0.0)
    print(f"{'p [dB]':>7} {'M':>4} {'eh ber':>12} {'non-eh ber':>12} "
          f"{'inflation':>10}")
    for p_db in (0.0, 10.0):
        for m in (1, 2, 5):
            pt = [q for q in grid_points(spec)
                  if q.n == 100 and q.p_db == p_db and q.m == m][0]
            stats = paired_gap(build_config(spec, pt, 0), range(20))
            print(f"{p_db:7.1f} {m:>4} {stats.eh_mean:12.6f} "
                  f"{stats.non_eh_mean:12.6f} "
                  f"{stats.eh_mean / stats.non_eh_mean:10.3f}x")
    print("with warm buffers (the bundled default) the inflation collapses")
    print("to 1.0x at n=100, because no battery can empty that fast:")
    warm = default_spec("fig5")
    for m in (1, 2, 5):
        pt = [q for q in grid_points(warm)
              if q.n == 100 and q.p_db == 10.0 and q.m == m][0]
        stats = paired_gap(build_config(warm, pt, 0), range(20))
        print(f"   10.0 {m:>4} ratio = "
              f"{stats.eh_mean / stats.non_eh_mean:.10f}")
    print()


if __name__ == "__main__":
    broadcast_receiver_invariance()
    mac_loss_grows_with_senders()
