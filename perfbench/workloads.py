"""The benchmark's workloads: one sweep config each, generated from a seed.

Every config spells out all keys, so a later change to an experiment's
defaults cannot silently change what the benchmark measures.  The seed is
the sweep's master seed; the grid, trial count and model knobs are fixed,
so every seed asks for the same amount of work.

Why each workload exists (which layer it stresses) is noted beside it and
in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json

# Seed at which each workload's CSV must match the digests in digests.json.
# It is the master seed the shipped configs use.
PINNED_SEED = 1

_COMMON = {
    "b_max_ratio": [200.0],
    "initial_fill": 1.0,
    "rate_threshold": 1.0,
    "amplifier_epsilon": 1.0,
    "circuit_power_db": None,
}

WORKLOADS = {
    # The fig2 grid at n = 10^4: single-link battery loop and slot averages.
    "p2p_waterfill": {
        "experiment": "fig2",
        "p_in_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
        "n_slots": [10000],
        "group_size": [1],
        "trials": 40,
    },
    # fig4 with 25 receivers: the multi-link battery branch, 25-column arrays.
    "broadcast_wide": {
        "experiment": "fig4",
        "p_in_db": [0.0, 5.0, 10.0, 15.0, 20.0],
        "n_slots": [10000],
        "group_size": [25],
        "trials": 4,
    },
    # fig5 on 100-slot runs: per-run fixed costs (seeding, validation).
    "mac_short": {
        "experiment": "fig5",
        "p_in_db": [0.0, 5.0, 10.0, 15.0],
        "n_slots": [100],
        "group_size": [1, 2, 5],
        "trials": 200,
    },
}

# The reference kernel (worker.REFERENCE_KERNELS) that scales each
# workload's times: the one a busy host slows by the same share as the
# sweep.  Measured on one process alternating sweeps and kernels while the
# host changed speed, mac_short's sweep time went as the `calls` kernel's
# to the power 0.94 and as the `loop` kernel's to the power 1.27;
# p2p_waterfill's went as the `loop` kernel's to the power 0.87.
REFERENCE = {
    "p2p_waterfill": "loop",
    "broadcast_wide": "loop",
    "mac_short": "calls",
}


def config(name: str, seed: int) -> dict:
    """The sweep config of workload `name` with master seed `seed`."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: "
                       f"{', '.join(sorted(WORKLOADS))}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return {**_COMMON, **WORKLOADS[name], "seed": int(seed)}


def config_bytes(cfg: dict) -> bytes:
    """Canonical JSON encoding; its SHA-256 identifies the inputs."""
    return json.dumps(cfg, sort_keys=True, indent=1).encode("utf-8") + b"\n"


def config_sha256(cfg: dict) -> str:
    return hashlib.sha256(config_bytes(cfg)).hexdigest()


def grid(cfg: dict) -> list[tuple[float, int, float, int]]:
    """(p_in_db, n_slots, b_max_ratio, m) per grid point, in the sweep's
    row order: n_slots, then group size, then ratio, then power."""
    return [
        (p, n, ratio, m)
        for n in cfg["n_slots"]
        for m in cfg["group_size"]
        for ratio in cfg["b_max_ratio"]
        for p in cfg["p_in_db"]
    ]


def input_size(cfg: dict) -> dict:
    points = grid(cfg)
    return {
        "grid_points": len(points),
        "trials": cfg["trials"],
        "slot_trials": sum(n for _, n, _, _ in points) * cfg["trials"],
    }
