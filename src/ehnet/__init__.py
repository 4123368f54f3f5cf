"""Slot-based simulator for communication links powered by harvested energy.

The package compares networks whose transmitters draw power from a battery
fed by a random harvest against the classical systems with an average power
constraint, policy by policy: as runs grow longer and batteries larger, the
battery-limited performance approaches the unconstrained one.

Modules: `battery` (the energy buffer), `stochastic` (seeded draws and
quadrature), `policies` (power schedules and the budget solver),
`utilities` (per-slot link qualities), `simulator` (the slot loop),
`experiments` (paired trials, sweeps and CSV output), `cli` (command line).
"""

from .battery import BatteryState
from .experiments import paired_gap
from .policies import (
    AlternatingRelayPolicy,
    AmplifierModel,
    ConstantPolicy,
    MaxGainBroadcastPolicy,
    WaterfillPolicy,
    solve_lambda,
)
from .simulator import (
    LinkSpec,
    SimulationConfig,
    TransmitterSpec,
    run_eh,
    run_non_eh,
)
from .stochastic import ConstantProcess, ExponentialProcess
from .utilities import (
    AmplifierRateUtility,
    BroadcastSumRateUtility,
    ChainRateUtility,
    MacBpskBerUtility,
    OutageUtility,
)

__version__ = "0.1.0"

__all__ = [
    "AlternatingRelayPolicy",
    "AmplifierModel",
    "AmplifierRateUtility",
    "BatteryState",
    "BroadcastSumRateUtility",
    "ChainRateUtility",
    "ConstantPolicy",
    "ConstantProcess",
    "ExponentialProcess",
    "LinkSpec",
    "MacBpskBerUtility",
    "MaxGainBroadcastPolicy",
    "OutageUtility",
    "SimulationConfig",
    "TransmitterSpec",
    "WaterfillPolicy",
    "paired_gap",
    "run_eh",
    "run_non_eh",
    "solve_lambda",
    "__version__",
]
