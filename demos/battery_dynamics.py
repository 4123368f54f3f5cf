"""Walk through the battery queue slot by slot, then watch the two regimes.

Run:  python3 demos/battery_dynamics.py
"""

import math

import numpy as np

from ehnet.battery import trajectory
from ehnet.simulator import (
    LinkSpec, SimulationConfig, TransmitterSpec, run_eh,
)
from ehnet.policies import ConstantPolicy
from ehnet.stochastic import ExponentialProcess, Stream
from ehnet.utilities import OutageUtility


def walkthrough():
    print("=== one battery, ten slots, by hand ===")
    print("each slot first grants min(level, request), then banks the arrival")
    stream = Stream(2024, (0, 0, 0))
    harvested = ExponentialProcess(1.0).sample(stream, 10)
    desired = np.full(10, 1.0)
    actual, levels = trajectory(desired, harvested)
    print(f"{'slot':>4} {'arrives':>8} {'wants':>6} {'gets':>6} {'level':>7}")
    for i in range(10):
        starved = "  <- starved" if actual[i] < desired[i] else ""
        print(f"{i + 1:>4} {harvested[i]:8.3f} {desired[i]:6.2f} "
              f"{actual[i]:6.3f} {levels[i]:7.3f}{starved}")
    print("the battery starts empty, so slot 1 always starves under a")
    print("constant request; later shortfalls depend on the draw sequence.\n")


def regimes():
    print("=== absorbing vs non-absorbing ===")
    n = 20_000
    for request, label in [(0.5, "request 0.5x intake"),
                           (1.0, "request 1.0x intake")]:
        regime = "absorbing" if request < 1.0 else "non_absorbing"
        cfg = SimulationConfig(
            n_slots=n,
            transmitters=(TransmitterSpec(
                0, ExponentialProcess(1.0), ConstantPolicy(request)),),
            links=(LinkSpec(0, 1, ExponentialProcess(1.0)),),
            utility=OutageUtility(1.0),
        )
        s = run_eh(cfg, [7])
        print(f"{label}: regime={regime}, "
              f"final level after {n} slots = {s.final_level[0, 0]:9.1f}, "
              f"mismatch fraction = {s.mismatch_fraction[0, 0]:.4f}")
    print("an average request below the average intake leaves energy behind:")
    print("the buffer drifts upward forever (absorbing).  matching the intake")
    print("keeps the buffer on a zero-drift walk that still starves sometimes.\n")


def mismatch_decay():
    print("=== starvation fades with the horizon ===")
    print("zero-drift walk, buffer capped at 200x the per-slot intake,")
    print("20 seeds per horizon:")
    for n in (100, 1_000, 10_000):
        cfg = SimulationConfig(
            n_slots=n,
            transmitters=(TransmitterSpec(
                0, ExponentialProcess(1.0), ConstantPolicy(1.0),
                capacity=200.0),),
            links=(LinkSpec(0, 1, ExponentialProcess(1.0)),),
            utility=OutageUtility(1.0),
        )
        fractions = run_eh(cfg, range(20)).mismatch_fraction[:, 0].tolist()
        mean = sum(fractions) / len(fractions)
        print(f"  n={n:>6}: mean mismatch fraction {mean:.4f} "
              f"(about c/sqrt(n): {mean * math.sqrt(n):.2f}/sqrt(n))")
    print("the starving-slot fraction decays like 1/sqrt(n), which is why the")
    print("battery-limited link converges to the unconstrained one.\n")


if __name__ == "__main__":
    walkthrough()
    regimes()
    mismatch_decay()
