"""Transmit power policies and the average-power budget solver.

A policy decides, slot by slot, how much power a node would like to send to
each of its receivers.  Policies only see the current channel gains of their
own links and the slot number; they never see the future, other nodes'
buffers, or the realized draws of the battery.  Feasibility against the
battery is the simulator's job: the battery grants what it can and the
difference shows up as mismatch.

The threshold policies (`WaterfillPolicy`, `MaxGainBroadcastPolicy`) carry
a gain threshold `lam`, and each states its request at a gain above the
threshold once, in its `request` method; `desired_powers` and the budget
both call it.  `solve_lambda(target_avg, policy_at, gain_pdf)` picks the
threshold: it bisects on `lam` until the expected request of
`policy_at(lam)`, a deterministic quadrature of `request` over the density
`gain_pdf` of the gain the policy compares with `lam`, equals the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .stochastic import expectation_quadrature

__all__ = [
    "AlternatingRelayPolicy",
    "AmplifierModel",
    "ConstantPolicy",
    "InfeasibleTargetError",
    "MaxGainBroadcastPolicy",
    "ThresholdSolverError",
    "WaterfillPolicy",
    "expected_desired_power",
    "solve_lambda",
]

LAMBDA_BRACKET = (1e-9, 1e9)
LAMBDA_MAX_ITER = 200
LAMBDA_REL_TOL = 1e-8


@dataclass(frozen=True)
class AmplifierModel:
    """Power amplifier with slope `epsilon` >= 1 and static draw `circuit_power`.

    Radiated power for a supply power p is ``(p - circuit_power) / epsilon``
    when p clears the static draw, zero otherwise.
    """

    epsilon: float = 1.0
    circuit_power: float = 0.0

    def __post_init__(self) -> None:
        if not (self.epsilon >= 1.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be >= 1, got {self.epsilon}")
        if not (self.circuit_power >= 0.0 and math.isfinite(self.circuit_power)):
            raise ValueError(
                f"circuit_power must be >= 0, got {self.circuit_power}"
            )


@dataclass(frozen=True)
class ConstantPolicy:
    """Request the same power every slot, ignoring the channel."""

    power: float
    num_links: int = 1

    def __post_init__(self) -> None:
        if not (self.power >= 0.0 and math.isfinite(self.power)):
            raise ValueError(f"power must be finite and >= 0, got {self.power}")

    def desired_powers(self, slots: np.ndarray, gains: np.ndarray) -> np.ndarray:
        return np.full((len(slots), self.num_links), self.power)


@dataclass(frozen=True)
class WaterfillPolicy:
    """Channel-adaptive single-link policy for a lossy amplifier.

    Above the gain threshold `lam` the node requests `request(gain)`; at or
    below the threshold it stays silent.  With `lam` from `solve_lambda`
    the long-run request average equals the power budget.
    """

    amplifier: AmplifierModel
    lam: float
    num_links = 1

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")

    def request(self, g):
        """``circuit_power + (1/lam - 1/g)/epsilon``, for floats or arrays."""
        amp = self.amplifier
        return amp.circuit_power + (1.0 / self.lam - 1.0 / g) / amp.epsilon

    def desired_powers(self, slots: np.ndarray, gains: np.ndarray) -> np.ndarray:
        g = np.asarray(gains, dtype=float).reshape(len(slots), 1)
        with np.errstate(divide="ignore"):
            fill = self.request(g)
        return np.where(g > self.lam, fill, 0.0)


@dataclass(frozen=True)
class MaxGainBroadcastPolicy:
    """Serve only the strongest of several receivers, when strong enough.

    The receiver with the largest gain (lowest index on ties) gets
    `request(gain)` if its gain reaches the threshold `lam`; everyone
    else, and every slot whose best gain falls short, gets zero.
    """

    lam: float
    num_links: int

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if self.num_links < 1:
            raise ValueError("need at least one receiver")

    def request(self, g):
        """``1/lam - 1/g``, for floats or arrays."""
        return 1.0 / self.lam - 1.0 / g

    def desired_powers(self, slots: np.ndarray, gains: np.ndarray) -> np.ndarray:
        g = np.asarray(gains, dtype=float).reshape(len(slots), self.num_links)
        winner = np.argmax(g, axis=1)  # first maximum wins ties
        best = g[np.arange(len(slots)), winner]
        with np.errstate(divide="ignore"):
            power = np.where(best >= self.lam, self.request(best), 0.0)
        out = np.zeros_like(g)
        out[np.arange(len(slots)), winner] = power
        return out


@dataclass(frozen=True)
class AlternatingRelayPolicy:
    """Half-duplex schedule: full power on matching slot parity, else silent.

    A node at position k in a chain transmits in slots i with
    ``i % 2 == k % 2`` and requests `active_power` there.  Feeding it
    twice the node's average budget makes the long-run request average
    equal the budget, since the node is active every other slot.
    """

    node_parity: int
    active_power: float
    num_links = 1

    def __post_init__(self) -> None:
        if self.node_parity not in (0, 1):
            raise ValueError("node_parity must be 0 or 1")
        if not (self.active_power >= 0.0 and math.isfinite(self.active_power)):
            raise ValueError(
                f"active_power must be finite and >= 0, got {self.active_power}"
            )

    def desired_powers(self, slots: np.ndarray, gains: np.ndarray) -> np.ndarray:
        slots = np.asarray(slots)
        active = (slots % 2) == self.node_parity
        return np.where(active, self.active_power, 0.0)[:, None]


# ---------------------------------------------------------------------------
# Budget equation for the threshold lam
# ---------------------------------------------------------------------------


class InfeasibleTargetError(ValueError):
    """The budget equation has no solution inside the search bracket."""


class ThresholdSolverError(RuntimeError):
    """Bisection failed to reach the requested tolerance."""


def expected_desired_power(policy, gain_pdf: Callable[[float], float]) -> float:
    """Expected per-slot request of a threshold policy, by quadrature.

    `gain_pdf` is the density of the gain the policy compares with its
    threshold: the link's gain for `WaterfillPolicy`, the largest of the
    receivers' gains for `MaxGainBroadcastPolicy` (only the winner
    requests power).
    """
    return expectation_quadrature(policy.request, gain_pdf, lower=policy.lam)


def solve_lambda(
    target_avg: float,
    policy_at: Callable[[float], object],
    gain_pdf: Callable[[float], float],
) -> float:
    """Find the threshold whose expected request equals `target_avg`.

    `policy_at(lam)` builds the threshold policy at `lam`, and `gain_pdf`
    is the density `expected_desired_power` integrates its request over.
    The expected request decreases in the threshold, so plain bisection on
    the fixed `LAMBDA_BRACKET` is enough.  Raises `InfeasibleTargetError`
    when the bracket does not straddle the target and
    `ThresholdSolverError` when `LAMBDA_MAX_ITER` bisections do not reach
    the relative tolerance `LAMBDA_REL_TOL`.
    """
    if not (target_avg > 0.0 and math.isfinite(target_avg)):
        raise ValueError(f"target_avg must be finite and > 0, got {target_avg}")

    def residual(lam: float) -> float:
        return expected_desired_power(policy_at(lam), gain_pdf) - target_avg

    lo, hi = LAMBDA_BRACKET
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo < 0.0 or r_hi > 0.0:
        raise InfeasibleTargetError(
            f"average budget {target_avg} not reachable for thresholds in "
            f"[{lo:g}, {hi:g}] (endpoint residuals {r_lo:g}, {r_hi:g})"
        )
    tol = LAMBDA_REL_TOL * target_avg
    for _ in range(LAMBDA_MAX_ITER):
        mid = math.sqrt(lo * hi) if hi / lo > 4.0 else 0.5 * (lo + hi)
        r_mid = residual(mid)
        if abs(r_mid) <= tol:
            return mid
        if r_mid > 0.0:
            lo = mid
        else:
            hi = mid
    raise ThresholdSolverError(
        f"no threshold within tolerance after {LAMBDA_MAX_ITER} bisections"
    )
